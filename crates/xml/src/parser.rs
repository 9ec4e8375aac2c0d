//! Tree builder: [`parse`] drives the push lexer ([`PushParser`]) over the
//! whole input and turns its events into a [`Document`] arena.
//!
//! All well-formedness checking — single root, properly nested matching
//! tags, attribute syntax with no duplicates, legal names, resolvable
//! character/entity references, `--` not inside comments, `]]>`
//! termination of CDATA — happens in the lexer, so the tree path and the
//! streaming path accept the same language and report the same errors.
//! The builder keeps an explicit open-element stack (no recursion, so
//! arbitrarily deep documents — which the depth-bound experiments of
//! `pv-bench` generate — parse fine). The `<!DOCTYPE>` internal subset is
//! captured verbatim into [`crate::Doctype`] for `pv-dtd`.

use crate::error::{XmlError, XmlErrorKind};
use crate::stream::{Event, PushParser};
use crate::tree::{Document, NodeId, NodeKind};
use crate::Result;

/// Parses a complete XML document (one root element; prolog and trailing
/// misc allowed).
///
/// The input goes to the lexer in one piece: a construct that straddles a
/// push boundary is re-lexed from its first byte, so feeding slices would
/// make a multi-megabyte comment or CDATA section quadratic.
pub fn parse(input: &str) -> Result<Document> {
    let mut lexer = PushParser::new();
    lexer.push(input.as_bytes());
    lexer.finish();
    // The lexer emits nothing for the prolog, so a document's first event
    // is its root start tag; a complete parse without one cannot happen.
    let Some(Event::Start { name, self_closing, .. }) = lexer.next_event()? else {
        return Err(XmlError::new(XmlErrorKind::NoRootElement, input.len()));
    };
    let mut doc = Document::new(name);
    let root = doc.root();
    if let NodeKind::Element { attrs, .. } = &mut doc.node_mut(root).kind {
        *attrs = lexer.take_attrs();
    }
    doc.doctype = lexer.doctype().cloned();
    let mut open: Vec<NodeId> = if self_closing { Vec::new() } else { vec![root] };
    // The text node that continuation pieces extend: the lexer splits one
    // run of character data into several pieces around references.
    let mut text = root;
    while let Some(event) = lexer.next_event()? {
        // Every event after the root's start tag lies inside the root, so
        // `open` is non-empty here; the fallback is never taken.
        let parent = open.last().copied().unwrap_or(root);
        match event {
            Event::Start { name, self_closing, .. } => {
                let name: Box<str> = name.into();
                let kind = NodeKind::Element { name, attrs: lexer.take_attrs() };
                let id = append(&mut doc, parent, kind);
                if !self_closing {
                    open.push(id);
                }
            }
            Event::End { .. } => {
                open.pop();
            }
            Event::Text { piece, first: true } => {
                text = append(&mut doc, parent, NodeKind::Text(piece.to_owned()));
            }
            Event::Text { piece, first: false } => {
                if let NodeKind::Text(t) = &mut doc.node_mut(text).kind {
                    t.push_str(piece);
                }
            }
            Event::Comment { text: body } => {
                append(&mut doc, parent, NodeKind::Comment(body.to_owned()));
            }
            Event::Pi { target, data } => {
                let kind = NodeKind::Pi { target: target.into(), data: data.to_owned() };
                append(&mut doc, parent, kind);
            }
        }
    }
    debug_assert!(doc.check_integrity().is_ok());
    Ok(doc)
}

/// Allocates `kind` as the last child of `parent`.
fn append(doc: &mut Document, parent: NodeId, kind: NodeKind) -> NodeId {
    let id = doc.alloc(kind);
    doc.node_mut(id).parent = Some(parent);
    doc.node_mut(parent).children.push(id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ChildToken;

    #[test]
    fn parses_paper_example_string_w() {
        // Example 1, string w (the one rejected for potential validity).
        let w = "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>";
        let doc = parse(w).unwrap();
        assert_eq!(doc.name(doc.root()), Some("r"));
        let a = doc.children(doc.root())[0];
        assert_eq!(doc.name(a), Some("a"));
        let toks = doc.child_tokens(a);
        let names: Vec<String> = toks
            .iter()
            .map(|t| match t {
                ChildToken::Element(n, _) => n.to_string(),
                ChildToken::Sigma => "σ".to_string(),
            })
            .collect();
        assert_eq!(names, ["b", "e", "c", "σ"]);
        assert_eq!(doc.content(doc.root()), "A quick brown fox jumps over a lazy dog");
    }

    #[test]
    fn parses_paper_example_string_s() {
        let s = "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>";
        let doc = parse(s).unwrap();
        let a = doc.children(doc.root())[0];
        let toks = doc.child_tokens(a);
        let kinds: Vec<&str> = toks
            .iter()
            .map(|t| match t {
                ChildToken::Element(n, _) => *n,
                ChildToken::Sigma => "σ",
            })
            .collect();
        assert_eq!(kinds, ["b", "c", "σ", "e"]);
    }

    #[test]
    fn self_closing_tags() {
        let doc = parse("<r><a/><b x='1'/></r>").unwrap();
        assert_eq!(doc.children(doc.root()).len(), 2);
    }

    #[test]
    fn attributes_parse_and_resolve_references() {
        let doc = parse(r#"<r a="1" b='two &amp; three'/>"#).unwrap();
        if let NodeKind::Element { attrs, .. } = &doc.node(doc.root()).kind {
            assert_eq!(attrs.len(), 2);
            assert_eq!(&*attrs[1].name, "b");
            assert_eq!(attrs[1].value, "two & three");
        } else {
            panic!()
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(
            parse(r#"<r a="1" a="2"/>"#).unwrap_err().kind,
            XmlErrorKind::DuplicateAttribute(_)
        ));
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            parse("<r><a></b></r>").unwrap_err().kind,
            XmlErrorKind::MismatchedTag { .. }
        ));
    }

    #[test]
    fn unclosed_tag_rejected() {
        assert!(matches!(parse("<r><a>").unwrap_err().kind, XmlErrorKind::UnclosedTag(_)));
    }

    #[test]
    fn unopened_close_rejected() {
        assert!(matches!(parse("</r>").unwrap_err().kind, XmlErrorKind::UnopenedTag(_)));
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(matches!(parse("<r/><x/>").unwrap_err().kind, XmlErrorKind::TrailingContent));
        assert!(parse("<r/>  \n").is_ok());
        assert!(parse("<r/><!-- ok --><?pi ok?>").is_ok());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(parse("").unwrap_err().kind, XmlErrorKind::NoRootElement));
        assert!(matches!(parse("   ").unwrap_err().kind, XmlErrorKind::NoRootElement));
    }

    #[test]
    fn character_references_in_text() {
        let doc = parse("<r>&lt;&#65;&gt; &amp; &#x42;</r>").unwrap();
        assert_eq!(doc.content(doc.root()), "<A> & B");
    }

    #[test]
    fn bad_entity_rejected() {
        assert!(matches!(
            parse("<r>&nope;</r>").unwrap_err().kind,
            XmlErrorKind::InvalidReference(_)
        ));
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = parse("<r><![CDATA[<not-a-tag> & stuff]]></r>").unwrap();
        assert_eq!(doc.content(doc.root()), "<not-a-tag> & stuff");
    }

    #[test]
    fn text_node_assembled_from_several_pieces() {
        // The lexer ships "a" straight from its input buffer, then "&b"
        // resolved through its scratch: both pieces land in one text node.
        // A CDATA section starts a node of its own, as does the plain text
        // after it.
        let doc = parse("<r>a&amp;b<![CDATA[c]]>d<x/>e&lt;&#65;</r>").unwrap();
        let kids = doc.children(doc.root());
        let texts: Vec<&str> = kids.iter().filter_map(|&c| doc.text(c)).collect();
        assert_eq!(texts, ["a&b", "c", "d", "e<A"]);
        assert_eq!(kids.len(), 5);
    }

    #[test]
    fn comments_and_pis_kept() {
        let doc = parse("<r><!-- note --><?app do?></r>").unwrap();
        assert_eq!(doc.children(doc.root()).len(), 2);
        // but they contribute no child tokens
        assert!(doc.child_tokens(doc.root()).is_empty());
    }

    #[test]
    fn double_dash_in_comment_rejected() {
        assert!(parse("<r><!-- a -- b --></r>").is_err());
    }

    #[test]
    fn xml_decl_and_doctype() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE r [
  <!ELEMENT r (a+)>
  <!ELEMENT a (#PCDATA)>
]>
<r><a>x</a></r>"#;
        let doc = parse(src).unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(dt.name, "r");
        assert!(dt.internal_subset.as_ref().unwrap().contains("<!ELEMENT r (a+)>"));
    }

    #[test]
    fn doctype_with_system_id() {
        let src = r#"<!DOCTYPE html SYSTEM "http://example.org/x.dtd"><html/>"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.doctype.as_ref().unwrap().name, "html");
        assert!(doc.doctype.as_ref().unwrap().internal_subset.is_none());
    }

    #[test]
    fn deep_nesting_does_not_overflow() {
        let n = 50_000;
        let mut src = String::new();
        for _ in 0..n {
            src.push_str("<a>");
        }
        for _ in 0..n {
            src.push_str("</a>");
        }
        let doc = parse(&src).unwrap();
        assert_eq!(doc.document_depth(), n);
    }

    #[test]
    fn whitespace_only_text_is_kept() {
        let doc = parse("<r> <a/> </r>").unwrap();
        // two whitespace text nodes + element
        assert_eq!(doc.children(doc.root()).len(), 3);
        let toks = doc.child_tokens(doc.root());
        assert_eq!(toks.len(), 3); // σ, a, σ — δ_T counts any non-empty data
    }

    #[test]
    fn invalid_name_rejected() {
        assert!(parse("<1r/>").is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(parse(r#"<r a="<"/>"#).is_err());
    }
}
