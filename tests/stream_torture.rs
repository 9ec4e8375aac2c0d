//! Torture tests for the resumable push lexer ([`pv_xml::PushParser`]):
//! arbitrary chunk boundaries must be invisible, truncation must be a
//! clean error (never a wrong verdict), and no input — well-formed,
//! truncated, or raw byte soup — may panic the parser.
//!
//! The equivalence oracle is the reference lexer in
//! `tests/support/reference_xml.rs`, an independently written byte cursor.
//! For every well-formed document the push parser's event stream must
//! describe exactly the tree the reference builds (same elements,
//! attributes, text nodes, comments, PIs, in the same order), and for
//! every broken input both must report the **same error**. `pv_xml::parse`
//! builds its trees from the push parser's events, so every input here is
//! also run through it: it must build the reference's arena node for node,
//! or fail with the reference's error.

#[path = "support/reference_xml.rs"]
mod reference_xml;

use proptest::prelude::*;
use potential_validity::prelude::*;
use pv_core::stream::StreamCheck;
use pv_xml::{Event, NodeKind, PushParser};
use pv_workload::corpus;
use pv_workload::docgen::DocGen;

/// Pumps `xml` through a push parser in `chunks`-byte chunks and renders
/// a canonical event trace (multi-piece text runs collapsed to one text
/// node, self-closing tags expanded to start+end — the tree's view).
fn event_trace(xml: &str, chunk: usize) -> pv_xml::Result<String> {
    let mut parser = PushParser::new();
    let mut out = String::new();
    let mut text: Option<String> = None;
    let mut pieces = xml.as_bytes().chunks(chunk.max(1));
    let mut eof = false;
    let flush = |text: &mut Option<String>, out: &mut String| {
        if let Some(t) = text.take() {
            out.push_str(&format!("T:{t:?}\n"));
        }
    };
    loop {
        match parser.next_event()? {
            Some(Event::Start { name, attrs, self_closing }) => {
                flush(&mut text, &mut out);
                out.push_str(&format!("S:{name}"));
                for a in attrs {
                    out.push_str(&format!(" {}={:?}", a.name, a.value));
                }
                out.push('\n');
                if self_closing {
                    out.push_str(&format!("E:{name}\n"));
                }
            }
            Some(Event::End { name }) => {
                flush(&mut text, &mut out);
                out.push_str(&format!("E:{name}\n"));
            }
            Some(Event::Text { piece, first }) => {
                if first {
                    flush(&mut text, &mut out);
                    text = Some(String::new());
                }
                text.as_mut().expect("continuation piece without a first").push_str(piece);
            }
            Some(Event::Comment { text: c }) => {
                flush(&mut text, &mut out);
                out.push_str(&format!("C:{c:?}\n"));
            }
            Some(Event::Pi { target, data }) => {
                flush(&mut text, &mut out);
                out.push_str(&format!("P:{target} {data:?}\n"));
            }
            None if eof => break,
            None => match pieces.next() {
                Some(c) => parser.push(c),
                None => {
                    parser.finish();
                    eof = true;
                }
            },
        }
    }
    assert!(parser.is_complete(), "event stream ended on an incomplete document");
    Ok(out)
}

/// `pv_xml::parse` must build exactly the reference lexer's arena — the
/// same node at every id, the same doctype — or fail with the same error.
fn assert_parse_matches_reference(xml: &str) {
    match (pv_xml::parse(xml), reference_xml::parse(xml)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.root(), want.root(), "xml={xml:?}");
            assert_eq!(got.doctype, want.doctype, "xml={xml:?}");
            assert_eq!(got.live_count(), want.live_count(), "xml={xml:?}");
            for i in 0..want.live_count() {
                let id = NodeId::from_index(i);
                let (g, w) = (got.node(id), want.node(id));
                assert!(
                    g.kind == w.kind && g.parent == w.parent && g.children == w.children,
                    "xml={xml:?}: node {id} is {g:?}, reference has {w:?}"
                );
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "xml={xml:?}"),
        (got, want) => panic!("xml={xml:?}: parse gave {got:?}, reference gave {want:?}"),
    }
}

/// The same canonical trace, derived from a tree.
fn tree_trace(doc: &Document) -> String {
    enum Step {
        Enter(NodeId),
        Close(NodeId),
    }
    let mut out = String::new();
    let mut stack = vec![Step::Enter(doc.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Close(n) => {
                out.push_str(&format!("E:{}\n", doc.name(n).unwrap()));
            }
            Step::Enter(n) => match &doc.node(n).kind {
                NodeKind::Text(t) => out.push_str(&format!("T:{t:?}\n")),
                NodeKind::Comment(c) => out.push_str(&format!("C:{c:?}\n")),
                NodeKind::Pi { target, data } => {
                    out.push_str(&format!("P:{target} {data:?}\n"))
                }
                NodeKind::Element { name, attrs } => {
                    out.push_str(&format!("S:{name}"));
                    for a in attrs {
                        out.push_str(&format!(" {}={:?}", a.name, a.value));
                    }
                    out.push('\n');
                    stack.push(Step::Close(n));
                    for &c in doc.children(n).iter().rev() {
                        stack.push(Step::Enter(c));
                    }
                }
            },
        }
    }
    out
}

/// Rewrites some of a serialized document's character data so one text
/// run reaches the lexer as several pieces: characters become decimal or
/// hex character references, some gain a preceding `&amp;`, and short
/// runs move into CDATA sections. Markup and existing references are
/// copied unchanged. Seeded, so a failing case replays.
fn splinter_text(xml: &str, seed: u64) -> String {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut roll = move || {
        // xorshift64*: plenty for picking rewrites.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 60
    };
    let mut out = String::with_capacity(xml.len() * 2);
    let mut chars = xml.chars().peekable();
    let mut quote: Option<char> = None;
    let mut in_markup = false;
    while let Some(c) = chars.next() {
        if in_markup {
            out.push(c);
            match (quote, c) {
                (Some(q), _) if c == q => quote = None,
                (None, '"' | '\'') => quote = Some(c),
                (None, '>') => in_markup = false,
                _ => {}
            }
            continue;
        }
        match c {
            '<' => {
                in_markup = true;
                out.push(c);
            }
            '&' => {
                // An existing reference: copy it whole.
                out.push(c);
                for r in chars.by_ref() {
                    out.push(r);
                    if r == ';' {
                        break;
                    }
                }
            }
            _ => match roll() {
                0 | 1 => out.push_str(&format!("&#{};", c as u32)),
                2 => out.push_str(&format!("&#x{:X};", c as u32)),
                3 => {
                    out.push_str("&amp;");
                    out.push(c);
                }
                4 => {
                    out.push_str("<![CDATA[");
                    out.push(c);
                    while let Some(&n) = chars.peek() {
                        if n == '<' || n == '&' || roll() < 4 {
                            break;
                        }
                        out.push(n);
                        chars.next();
                    }
                    out.push_str("]]>");
                }
                _ => out.push(c),
            },
        }
    }
    out
}

/// Hand-picked markup shapes that stress the lexer's resumption points:
/// splits land inside names, attributes, references, comments, PIs,
/// CDATA sections, and multi-byte UTF-8 sequences.
const EDGE_DOCS: &[&str] = &[
    "<r><a><b>x</b><c>y</c> z<e/></a></r>",
    "<r a=\"1\" b='two&amp;'><x/>tail</r>",
    "<r><![CDATA[literal <markup> &amp; kept]]>after</r>",
    "<r><![CDATA[]]></r>",
    "<r>one<!--comment--><![CDATA[two]]>three</r>",
    "<r><?pi some data?><?bare?></r>",
    "<r>ünïcödé — 試験 &#x2603;</r>",
    "<r    \n  a = \"ws\"  ><b\n/></r>",
];

#[test]
fn edge_documents_trace_identically_at_every_split() {
    for xml in EDGE_DOCS {
        assert_parse_matches_reference(xml);
        let expect = tree_trace(&reference_xml::parse(xml).unwrap());
        for chunk in 1..=xml.len() {
            assert_eq!(
                event_trace(xml, chunk).unwrap(),
                expect,
                "xml={xml} chunk={chunk}"
            );
        }
    }
}

#[test]
fn corpus_documents_trace_identically() {
    for b in BuiltinDtd::ALL {
        let Some(doc) = corpus::for_builtin(b, 300) else { continue };
        let xml = doc.to_xml();
        assert_parse_matches_reference(&xml);
        let expect = tree_trace(&reference_xml::parse(&xml).unwrap());
        for chunk in [1usize, 7, 64, xml.len()] {
            assert_eq!(event_trace(&xml, chunk).unwrap(), expect, "{} chunk={chunk}", b.name());
        }
    }
}

/// Every strict prefix of a well-formed document (no trailing misc) is
/// incomplete or broken: the push parser must report a clean error —
/// the **same** error the reference lexer reports for that prefix — and the
/// streaming checker must propagate it instead of inventing a verdict.
#[test]
fn every_prefix_truncation_is_a_clean_error() {
    let analysis = BuiltinDtd::Figure1.analysis();
    let checker = PvChecker::new(&analysis);
    let full = "<r><a><b>x&amp;y</b><c a=\"v\">ü</c> z<!--c--><e/></a></r>";
    for cut in 1..full.len() {
        if !full.is_char_boundary(cut) {
            continue; // byte-level truncation of UTF-8 is covered below
        }
        let prefix = &full[..cut];
        assert_parse_matches_reference(prefix);
        let tree_err = reference_xml::parse(prefix).expect_err("strict prefix cannot be complete");
        for chunk in [1usize, 4, prefix.len()] {
            let stream_err =
                event_trace(prefix, chunk).expect_err("push parser must also reject");
            assert_eq!(
                stream_err.to_string(),
                tree_err.to_string(),
                "cut={cut} chunk={chunk}"
            );
            // The checking layer sees the error, not a verdict.
            let mut check = StreamCheck::new(checker.stream_checker());
            let fed: Result<Vec<()>, _> =
                prefix.as_bytes().chunks(chunk).map(|c| check.feed(c)).collect();
            match fed {
                Err(e) => assert_eq!(e.to_string(), tree_err.to_string(), "cut={cut}"),
                Ok(_) => {
                    let e = check.finish().expect_err("truncation must not yield a verdict");
                    assert_eq!(e.to_string(), tree_err.to_string(), "cut={cut}");
                }
            }
        }
    }
}

/// `peak_buffered` is a **true high-water mark** of the lexer's resident
/// bytes, not a sample at convenient boundaries: it must reach at least
/// the size of the largest single construct (which is fully resident
/// just before its event), must stay construct-bound rather than
/// document-bound at every chunking, and must count bytes parked in the
/// split-UTF-8 tail the moment they are parked.
#[test]
fn peak_buffered_is_a_true_high_water_mark() {
    // One ~300-byte comment dominates every other construct; the rest of
    // the document is an order of magnitude smaller.
    let comment = format!("<!--{}-->", "c".repeat(300));
    let xml = format!("<r>head{comment}<a>tail — ünïcödé 試験</a></r>");
    assert_parse_matches_reference(&xml);
    for chunk in [1usize, 2, 7, 16, 64] {
        let mut parser = PushParser::new();
        let mut pieces = xml.as_bytes().chunks(chunk);
        let mut eof = false;
        loop {
            match parser.next_event().unwrap() {
                Some(_) => continue,
                None if eof => break,
                None => match pieces.next() {
                    Some(c) => parser.push(c),
                    None => {
                        parser.finish();
                        eof = true;
                    }
                },
            }
        }
        assert!(parser.is_complete());
        let peak = parser.peak_buffered();
        assert!(
            peak >= comment.len(),
            "chunk={chunk}: peak {peak} under-reports the {}-byte construct",
            comment.len()
        );
        assert!(
            peak <= comment.len() + chunk + 16,
            "chunk={chunk}: peak {peak} is not construct-bound"
        );
    }
    // The split-UTF-8 tail counts toward residency the moment it is
    // parked, not at the next event boundary: 119 pushed bytes are 117
    // buffered text bytes plus a 2-byte partial codepoint in the tail.
    let mut parser = PushParser::new();
    parser.push(b"<r>");
    while parser.next_event().unwrap().is_some() {}
    let text = "試".repeat(40); // 120 bytes of 3-byte codepoints
    parser.push(&text.as_bytes()[..119]);
    assert!(
        parser.peak_buffered() >= 119,
        "tail bytes missing from the high-water mark: {}",
        parser.peak_buffered()
    );
}

/// Byte soup — including invalid UTF-8 and mid-codepoint truncations —
/// must never panic; it either errors or (for the rare well-formed
/// accident) completes.
#[test]
fn byte_soup_never_panics() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let alphabet: &[u8] = b"<>!?/=\"'&;ab \xC3\xBC\xE8\xA9\xA6\xFF\x00-[]CDATA";
    for _ in 0..400 {
        let len = (rng() % 64) as usize;
        let mut soup = Vec::with_capacity(len + 1);
        soup.push(b'<'); // start tag-ish so the lexer engages
        for _ in 0..len {
            soup.push(alphabet[(rng() % alphabet.len() as u64) as usize]);
        }
        if let Ok(text) = std::str::from_utf8(&soup) {
            assert_parse_matches_reference(text);
        }
        let mut parser = PushParser::new();
        let chunk = 1 + (rng() % 9) as usize;
        let mut pieces = soup.chunks(chunk);
        let mut eof = false;
        loop {
            match parser.next_event() {
                Err(_) => break, // clean rejection
                Ok(Some(_)) => continue,
                Ok(None) if eof => break,
                Ok(None) => match pieces.next() {
                    Some(c) => parser.push(c),
                    None => {
                        parser.finish();
                        eof = true;
                    }
                },
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random well-formed documents × random chunk sizes: the event
    /// stream describes exactly the tree the reference lexer builds —
    /// as serialized, and with its text splintered into references and
    /// CDATA sections ([`splinter_text`]), so multi-piece text runs are
    /// exercised on generated documents too.
    #[test]
    fn generated_documents_trace_identically(
        seed in 0u64..5000,
        nodes in 5usize..60,
        chunk in 1usize..129,
    ) {
        let analysis = BuiltinDtd::Play.analysis();
        let doc = DocGen::new(&analysis, seed).generate(nodes);
        let plain = doc.to_xml();
        let splintered = splinter_text(&plain, seed);
        prop_assert_ne!(&splintered, &plain);
        for xml in [plain, splintered] {
            assert_parse_matches_reference(&xml);
            let expect = tree_trace(&reference_xml::parse(&xml).unwrap());
            prop_assert_eq!(event_trace(&xml, chunk).unwrap(), expect);
        }
    }

    /// Random truncations of random documents: clean error, never a
    /// verdict, never a panic.
    #[test]
    fn generated_truncations_error_cleanly(
        seed in 0u64..5000,
        cut_mille in 50u64..999,
        chunk in 1usize..65,
    ) {
        let analysis = BuiltinDtd::Play.analysis();
        let doc = DocGen::new(&analysis, seed).generate(20);
        let xml = doc.to_xml();
        let mut cut = (xml.len() * cut_mille as usize) / 1000;
        cut = cut.clamp(1, xml.len() - 1);
        while !xml.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &xml[..cut];
        assert_parse_matches_reference(prefix);
        let tree_err = reference_xml::parse(prefix).expect_err("strict prefix cannot be complete");
        let stream_err = event_trace(prefix, chunk).expect_err("push parser must reject too");
        prop_assert_eq!(stream_err.to_string(), tree_err.to_string());
    }
}
