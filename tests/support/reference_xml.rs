//! Reference XML lexer: the hand-written byte cursor that built
//! `pv_xml::parse` trees before the tree parser moved onto the push lexer.
//!
//! It is kept as an independently written oracle. `tests/stream_torture.rs`
//! holds `pv_xml::PushParser`'s event stream and `pv_xml::parse`'s trees
//! equal to what this lexer builds, errors included. It uses only the
//! public API of `pv-xml`; comments and processing instructions inside the
//! root are always kept.
//!
//! Checked well-formedness rules: single root, properly nested matching
//! tags, attribute syntax with no duplicates, legal names, resolvable
//! character/entity references, `--` not inside comments, `]]>` termination
//! of CDATA. The `<!DOCTYPE>` internal subset is captured verbatim into
//! [`Doctype`].

use pv_xml::escape::{is_name_char, is_name_start, resolve_reference, validate_name};
use pv_xml::{Attribute, Doctype, Document, NodeId, Result, XmlError, XmlErrorKind};

/// Parses a complete XML document (one root element; prolog and trailing
/// misc allowed).
pub fn parse(input: &str) -> Result<Document> {
    Parser::new(input).parse_document()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, bytes: src.as_bytes(), pos: 0 }
    }

    // ---- low-level cursor ----------------------------------------------

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    #[inline]
    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err_unexpected(&format!("input (expected {s:?})")))
        }
    }

    fn err_unexpected(&self, what: &str) -> XmlError {
        XmlError::new(XmlErrorKind::Unexpected(what.to_owned()), self.pos)
    }

    fn err_eof(&self) -> XmlError {
        XmlError::new(XmlErrorKind::UnexpectedEof, self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Consumes an XML name and returns it.
    fn name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        let mut chars = self.src[self.pos..].char_indices();
        match chars.next() {
            Some((_, c)) if is_name_start(c) => {}
            _ => {
                return Err(XmlError::new(
                    XmlErrorKind::InvalidName(self.src[self.pos..].chars().take(8).collect()),
                    self.pos,
                ))
            }
        }
        let mut end = self.src.len();
        for (i, c) in chars {
            if !is_name_char(c) {
                end = self.pos + i;
                break;
            }
        }
        if end == self.src.len() && self.pos < self.src.len() {
            // name runs to end of input
            self.pos = end;
            return Ok(&self.src[start..end]);
        }
        self.pos = end;
        Ok(&self.src[start..end])
    }

    // ---- document structure --------------------------------------------

    fn parse_document(mut self) -> Result<Document> {
        // Optional XML declaration.
        if self.starts_with("<?xml") {
            let close = self.src[self.pos..]
                .find("?>")
                .ok_or_else(|| self.err_eof())?;
            self.bump(close + 2);
        }
        let mut doctype = None;
        // Prolog misc + doctype.
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment_body()?;
            } else if self.starts_with("<!DOCTYPE") {
                if doctype.is_some() {
                    return Err(self.err_unexpected("second <!DOCTYPE"));
                }
                doctype = Some(self.doctype()?);
            } else if self.starts_with("<?") {
                self.pi_body()?;
            } else {
                break;
            }
        }
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return Err(if self.peek().is_none() {
                XmlError::new(XmlErrorKind::NoRootElement, self.pos)
            } else {
                self.err_unexpected("character data before the root element")
            });
        }

        // Root element and content, with an explicit element stack.
        let mut doc = Document::new("\u{0}placeholder");
        doc.doctype = doctype;
        let mut stack: Vec<NodeId> = Vec::new();
        let mut root_seen = false;

        loop {
            if stack.is_empty() && root_seen {
                // Trailing misc only.
                self.skip_ws();
                if self.pos >= self.src.len() {
                    break;
                }
                if self.starts_with("<!--") {
                    let c = self.comment_body()?;
                    let _ = c;
                    continue;
                }
                if self.starts_with("<?") {
                    self.pi_body()?;
                    continue;
                }
                return Err(XmlError::new(XmlErrorKind::TrailingContent, self.pos));
            }

            match self.peek() {
                None => {
                    return Err(if let Some(&open) = stack.last() {
                        let name = doc.name(open).unwrap_or("?").to_owned();
                        XmlError::new(XmlErrorKind::UnclosedTag(name), self.pos)
                    } else {
                        XmlError::new(XmlErrorKind::NoRootElement, self.pos)
                    });
                }
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.bump(2);
                        let close_pos = self.pos;
                        let name = self.name()?.to_owned();
                        self.skip_ws();
                        self.expect(">")?;
                        let Some(open) = stack.pop() else {
                            return Err(XmlError::new(
                                XmlErrorKind::UnopenedTag(name),
                                close_pos,
                            ));
                        };
                        let open_name = doc.name(open).unwrap_or("?");
                        if open_name != name {
                            return Err(XmlError::new(
                                XmlErrorKind::MismatchedTag {
                                    open: open_name.to_owned(),
                                    close: name,
                                },
                                close_pos,
                            ));
                        }
                    } else if self.starts_with("<!--") {
                        let text = self.comment_body()?;
                        let parent = *stack.last().expect("comment outside root handled above");
                        doc.append_comment(parent, &text)?;
                    } else if self.starts_with("<![CDATA[") {
                        self.bump("<![CDATA[".len());
                        let end = self.src[self.pos..]
                            .find("]]>")
                            .ok_or_else(|| self.err_eof())?;
                        let text = self.src[self.pos..self.pos + end].to_owned();
                        self.bump(end + 3);
                        let parent = *stack.last().ok_or_else(|| self.err_unexpected("CDATA outside root"))?;
                        doc.append_text(parent, &text)?;
                    } else if self.starts_with("<?") {
                        let (target, data) = self.pi_body()?;
                        if let Some(&parent) = stack.last() {
                            doc.append_pi(parent, &target, &data)?;
                        }
                    } else if self.starts_with("<!") {
                        return Err(self.err_unexpected("markup declaration inside content"));
                    } else {
                        // Start tag.
                        self.bump(1);
                        let name_pos = self.pos;
                        let name = self.name()?.to_owned();
                        validate_name(&name, name_pos)?;
                        let attrs = self.attributes()?;
                        let self_closing = if self.starts_with("/>") {
                            self.bump(2);
                            true
                        } else {
                            self.expect(">")?;
                            false
                        };
                        let id = if let Some(&parent) = stack.last() {
                            
                            doc.append_element(parent, &name)?
                        } else {
                            if root_seen {
                                return Err(XmlError::new(
                                    XmlErrorKind::TrailingContent,
                                    name_pos,
                                ));
                            }
                            root_seen = true;
                            // Fix up the placeholder root.
                            doc.rename_element(doc.root(), &name)?;
                            doc.root()
                        };
                        for Attribute { name, value } in &attrs {
                            doc.set_attribute(id, name, value)?;
                        }
                        if !self_closing {
                            stack.push(id);
                        }
                    }
                }
                Some(_) => {
                    // Character data (must be inside the root).
                    let parent = *stack
                        .last()
                        .ok_or_else(|| self.err_unexpected("character data outside the root"))?;
                    let text = self.char_data()?;
                    doc.append_text(parent, &text)?;
                }
            }
        }
        debug_assert!(doc.check_integrity().is_ok());
        Ok(doc)
    }

    /// Parses character data up to the next `<`, resolving references.
    fn char_data(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => {
                    let amp = self.pos;
                    self.bump(1);
                    let semi = self.src[self.pos..]
                        .find(';')
                        .ok_or_else(|| self.err_eof())?;
                    let body = &self.src[self.pos..self.pos + semi];
                    out.push(resolve_reference(body, amp)?);
                    self.bump(semi + 1);
                }
                Some(_) => {
                    // Copy a run of plain characters.
                    let rest = &self.src[self.pos..];
                    let stop = rest.find(['<', '&']).unwrap_or(rest.len());
                    out.push_str(&rest[..stop]);
                    self.bump(stop);
                }
            }
        }
        Ok(out)
    }

    /// Parses the attribute list of a start tag, up to (not including)
    /// `>` or `/>`.
    fn attributes(&mut self) -> Result<Vec<Attribute>> {
        let mut attrs: Vec<Attribute> = Vec::new();
        loop {
            let before = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'>') => break,
                Some(b'/') if self.starts_with("/>") => break,
                None => return Err(self.err_eof()),
                _ => {
                    if self.pos == before {
                        return Err(self.err_unexpected("attribute (missing whitespace?)"));
                    }
                    let name_pos = self.pos;
                    let name = self.name()?.to_owned();
                    if attrs.iter().any(|a| *a.name == *name) {
                        return Err(XmlError::new(
                            XmlErrorKind::DuplicateAttribute(name),
                            name_pos,
                        ));
                    }
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err_unexpected("attribute value (expected quote)")),
                    };
                    self.bump(1);
                    let mut value = String::new();
                    loop {
                        match self.peek() {
                            None => return Err(self.err_eof()),
                            Some(q) if q == quote => {
                                self.bump(1);
                                break;
                            }
                            Some(b'<') => {
                                return Err(self.err_unexpected("'<' in attribute value"))
                            }
                            Some(b'&') => {
                                let amp = self.pos;
                                self.bump(1);
                                let semi = self.src[self.pos..]
                                    .find(';')
                                    .ok_or_else(|| self.err_eof())?;
                                let body = &self.src[self.pos..self.pos + semi];
                                value.push(resolve_reference(body, amp)?);
                                self.bump(semi + 1);
                            }
                            Some(_) => {
                                let rest = &self.src[self.pos..];
                                let stop = rest
                                    .find([quote as char, '&', '<'])
                                    .unwrap_or(rest.len());
                                value.push_str(&rest[..stop]);
                                self.bump(stop);
                            }
                        }
                    }
                    attrs.push(Attribute { name: name.into(), value });
                }
            }
        }
        Ok(attrs)
    }

    /// Parses `<!-- … -->`, returning the comment body. Rejects `--` inside.
    fn comment_body(&mut self) -> Result<String> {
        self.expect("<!--")?;
        let end = self.src[self.pos..].find("-->").ok_or_else(|| self.err_eof())?;
        let body = &self.src[self.pos..self.pos + end];
        if body.contains("--") {
            return Err(self.err_unexpected("'--' inside comment"));
        }
        self.bump(end + 3);
        Ok(body.to_owned())
    }

    /// Parses `<?target data?>`.
    fn pi_body(&mut self) -> Result<(String, String)> {
        self.expect("<?")?;
        let target = self.name()?.to_owned();
        let end = self.src[self.pos..].find("?>").ok_or_else(|| self.err_eof())?;
        let data = self.src[self.pos..self.pos + end].trim_start().to_owned();
        self.bump(end + 2);
        Ok((target, data))
    }

    /// Parses `<!DOCTYPE name [subset]?>`, capturing the internal subset.
    fn doctype(&mut self) -> Result<Doctype> {
        self.expect("<!DOCTYPE")?;
        self.skip_ws();
        let name = self.name()?.to_owned();
        // Skip optional external id tokens (SYSTEM/PUBLIC literals).
        let mut internal_subset = None;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(b'[') => {
                    self.bump(1);
                    let start = self.pos;
                    // The internal subset may contain quoted strings and
                    // comments with ']' inside; scan with minimal structure.
                    let mut depth = 0usize;
                    loop {
                        match self.peek() {
                            None => return Err(self.err_eof()),
                            Some(b']') if depth == 0 => break,
                            Some(b'"') | Some(b'\'') => {
                                let q = self.peek().unwrap();
                                self.bump(1);
                                while let Some(c) = self.peek() {
                                    self.bump(1);
                                    if c == q {
                                        break;
                                    }
                                }
                            }
                            Some(b'<') if self.starts_with("<!--") => {
                                self.comment_body()?;
                            }
                            Some(b'<') => {
                                depth += 1;
                                self.bump(1);
                            }
                            Some(b'>') => {
                                depth = depth.saturating_sub(1);
                                self.bump(1);
                            }
                            Some(_) => self.bump(1),
                        }
                    }
                    internal_subset = Some(self.src[start..self.pos].to_owned());
                    self.expect("]")?;
                }
                Some(b'"') | Some(b'\'') => {
                    let q = self.peek().unwrap();
                    self.bump(1);
                    while let Some(c) = self.peek() {
                        self.bump(1);
                        if c == q {
                            break;
                        }
                    }
                }
                Some(_) => {
                    // SYSTEM / PUBLIC keywords etc.
                    self.bump(1);
                }
                None => return Err(self.err_eof()),
            }
        }
        Ok(Doctype { name, internal_subset })
    }
}
