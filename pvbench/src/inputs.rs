//! Seeded input generation. Everything a run feeds the program is built
//! here from `--seed` alone, so the same seed gives byte-identical
//! inputs, the same op count and the same input bytes on every host
//! (held by `tests/fixed_work.rs`).
//!
//! Each document's expected verdict is fixed by how it was built:
//! valid corpus documents and documents with markup stripped from a
//! valid one are potentially valid (Theorem 2: deleting markup keeps
//! potential validity); documents with a planted child that its parent
//! cannot reach are not.

use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::DtdAnalysis;
use pv_workload::corpus;
use pv_workload::trace::strip_and_trace;
use pv_workload::{DtdGen, DtdGenParams};
use pv_xml::{Document, NodeId};

/// The five realistic corpus families, in a fixed order; a document's
/// `family` indexes this array.
pub const FAMILIES: [BuiltinDtd; 5] = [
    BuiltinDtd::Play,
    BuiltinDtd::XhtmlBasic,
    BuiltinDtd::TeiLite,
    BuiltinDtd::DocbookArticle,
    BuiltinDtd::TeiDrama,
];

/// SplitMix64: a tiny, fully specified generator, so inputs do not
/// depend on any other crate's random-number stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_B37C_11AA)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// `n` sizes evenly spaced over `[lo, hi)`, each jittered by up to
    /// 2%: the seed moves the sizes a little and the content a lot, while
    /// the work at each position, and so the total, stays within a
    /// percent or two at every seed.
    pub fn ladder(&mut self, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
        (0..n)
            .map(|i| {
                let base = lo + (hi - lo) * (2 * i + 1) / (2 * n);
                base - base / 50 + self.below(base / 25 + 1)
            })
            .collect()
    }
}

/// How a document was built, which fixes its expected verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// A valid corpus document.
    Valid,
    /// A valid document with a fifth of its markup stripped.
    MidEdit,
    /// A document with a planted child its parent cannot reach.
    NotPv,
}

impl State {
    pub fn expect_pv(self) -> bool {
        self != State::NotPv
    }

    pub fn name(self) -> &'static str {
        match self {
            State::Valid => "valid",
            State::MidEdit => "mid-edit",
            State::NotPv => "not-pv",
        }
    }
}

/// One generated document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// Index into the workload's DTD list.
    pub dtd: usize,
    pub state: State,
    pub xml: String,
}

/// One DTD the workload loads, with the root it is loaded under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdSrc {
    pub root: String,
    pub source: String,
    /// Declared element types, known from construction.
    pub elements: usize,
}

impl DtdSrc {
    fn builtin(b: BuiltinDtd) -> DtdSrc {
        DtdSrc {
            root: b.root().to_owned(),
            source: b.source().to_owned(),
            elements: b.analysis().dtd.len(),
        }
    }

    pub fn compile(&self) -> DtdAnalysis {
        DtdAnalysis::parse(&self.source, &self.root).expect("benchmark DTDs compile")
    }
}

fn family_dtds() -> Vec<DtdSrc> {
    FAMILIES.iter().map(|&b| DtdSrc::builtin(b)).collect()
}

/// Unwraps a fifth of the document's elements, as an author part-way
/// through marking it up would have left it.
fn mid_edit(valid: &Document, rng: &mut Rng) -> Document {
    strip_and_trace(valid, valid.element_count() / 5, rng.next_u64()).start
}

/// Inserts, under an element chosen among the `[lo, hi)` share of the
/// document's elements (in document order), an empty element of a
/// declared type that the host's content can never contain, so the host
/// is not potentially valid whatever markup is inserted.
fn plant_violation(doc: &mut Document, a: &DtdAnalysis, rng: &mut Rng, lo: f64, hi: f64) {
    let elems: Vec<NodeId> = doc.elements().filter(|&n| n != doc.root()).collect();
    let start = (lo * elems.len() as f64) as usize;
    let end = ((hi * elems.len() as f64) as usize)
        .max(start + 1)
        .min(elems.len());
    for _ in 0..1000 {
        let host = elems[rng.range(start, end)];
        let host_id = a
            .id(doc.name(host).expect("element"))
            .expect("declared element");
        let foreign: Vec<_> = a
            .dtd
            .ids()
            .filter(|&y| !a.reach.reaches(host_id, y))
            .collect();
        if foreign.is_empty() {
            continue;
        }
        let name = a.name(foreign[rng.below(foreign.len())]).to_owned();
        let at = rng.below(doc.children(host).len() + 1);
        doc.insert_element(host, at, &name)
            .expect("insert under a live element");
        return;
    }
    panic!("no element in the chosen range can host a violation");
}

/// The `tree_corpus` inputs: every family in every state, at sizes
/// spread over `TREE_ELEMENTS`, interleaved so no family's documents run
/// back to back.
pub struct TreeCorpus {
    pub dtds: Vec<DtdSrc>,
    pub docs: Vec<Doc>,
}

/// Documents per family and state.
const TREE_PER_STATE: usize = 3;
/// Target element counts of `tree_corpus` documents.
const TREE_ELEMENTS: (usize, usize) = (800, 2400);

pub fn tree_corpus(seed: u64) -> TreeCorpus {
    let mut rng = Rng::new(seed);
    let dtds = family_dtds();
    let analyses: Vec<DtdAnalysis> = dtds.iter().map(DtdSrc::compile).collect();
    let n = TREE_PER_STATE * FAMILIES.len();
    let sizes = rng.ladder(n, TREE_ELEMENTS);
    let spots = rng.ladder(n, (0, 950));
    let mut docs = Vec::new();
    for (k, (&size, &spot)) in sizes.iter().zip(&spots).enumerate() {
        let f = k % FAMILIES.len();
        let valid = corpus::for_builtin(FAMILIES[f], size).expect("family has a corpus builder");
        let stripped = mid_edit(&valid, &mut rng);
        let mut bad = valid.clone();
        let at = spot as f64 / 1000.0;
        plant_violation(&mut bad, &analyses[f], &mut rng, at, at + 0.05);
        for (state, doc) in [
            (State::Valid, &valid),
            (State::MidEdit, &stripped),
            (State::NotPv, &bad),
        ] {
            docs.push(Doc {
                dtd: f,
                state,
                xml: doc.to_xml(),
            });
        }
    }
    TreeCorpus { dtds, docs }
}

/// The `stream_large` inputs: multi-MiB documents, wide and deep, plus
/// early-violation documents whose verdict is final a few percent in.
/// The violation sits 3.0–3.5% into the elements, so at every seed the
/// verdict is final in the second 64 KiB chunk and the bytes fed before
/// the decision do not vary with the seed.
pub struct StreamLarge {
    pub dtds: Vec<DtdSrc>,
    pub docs: Vec<Doc>,
}

/// Target element counts of the wide `stream_large` documents (about
/// 2.4 MiB of play and 2.2 MiB of XHTML).
const WIDE_PLAY_ELEMENTS: (usize, usize) = (59_000, 61_000);
const WIDE_XHTML_ELEMENTS: (usize, usize) = (98_000, 102_000);
/// Nesting depth of one tower of a deep document, and the towers in it.
const DEEP_LEVELS: (usize, usize) = (190, 210);
const DEEP_TOWERS: usize = 90;

/// A TEI-Lite document of `towers` nested `div` towers, `levels` deep.
fn tei_deep(rng: &mut Rng) -> String {
    let mut s = String::from(
        "<TEI><teiHeader><fileDesc><titleStmt><title>Deep</title></titleStmt></fileDesc>\
         </teiHeader><text><body>",
    );
    for t in 0..DEEP_TOWERS {
        let levels = rng.range(DEEP_LEVELS.0, DEEP_LEVELS.1);
        for l in 0..levels {
            s.push_str(&format!(
                "<div><head>Tower {t} level {l}</head><p>Call me <name>Ishmael</name>. \
                 Some years ago<lb/> never mind how long <hi>precisely</hi>.</p>"
            ));
        }
        for _ in 0..levels {
            s.push_str("</div>");
        }
    }
    s.push_str("</body></text></TEI>");
    s
}

/// An XHTML page of nested `div`/`blockquote`/`li` towers.
fn xhtml_deep(rng: &mut Rng) -> String {
    let mut s = String::from("<html><head><title>Deep</title></head><body>");
    for t in 0..DEEP_TOWERS {
        let levels = rng.range(DEEP_LEVELS.0, DEEP_LEVELS.1);
        let mut close = Vec::with_capacity(levels);
        for l in 0..levels {
            let (open, end) = match l % 3 {
                0 => ("<div>", "</div>"),
                1 => ("<blockquote>", "</blockquote>"),
                _ => ("<ul><li>", "</li></ul>"),
            };
            s.push_str(open);
            s.push_str(&format!(
                "<p>Tower {t} level {l}: <em>shall</em> I compare thee to a \
                 <a>well-formed</a> tree?</p>"
            ));
            close.push(end);
        }
        for end in close.into_iter().rev() {
            s.push_str(end);
        }
    }
    s.push_str("</body></html>");
    s
}

pub fn stream_large(seed: u64) -> StreamLarge {
    let mut rng = Rng::new(seed);
    let dtds = family_dtds();
    let (play, xhtml, tei) = (0, 1, 2);
    let analyses: Vec<DtdAnalysis> = dtds.iter().map(DtdSrc::compile).collect();
    let wide_play = corpus::play(rng.range(WIDE_PLAY_ELEMENTS.0, WIDE_PLAY_ELEMENTS.1));
    let wide_xhtml = corpus::xhtml(rng.range(WIDE_XHTML_ELEMENTS.0, WIDE_XHTML_ELEMENTS.1));
    let deep_tei = tei_deep(&mut rng);
    let deep_xhtml = xhtml_deep(&mut rng);
    let mut early_play = wide_play.clone();
    plant_violation(&mut early_play, &analyses[play], &mut rng, 0.030, 0.035);
    let mut early_tei = pv_xml::parse(&deep_tei).expect("generated TEI parses");
    plant_violation(&mut early_tei, &analyses[tei], &mut rng, 0.030, 0.035);
    let docs = vec![
        Doc {
            dtd: play,
            state: State::Valid,
            xml: wide_play.to_xml(),
        },
        Doc {
            dtd: tei,
            state: State::Valid,
            xml: deep_tei,
        },
        Doc {
            dtd: play,
            state: State::NotPv,
            xml: early_play.to_xml(),
        },
        Doc {
            dtd: xhtml,
            state: State::Valid,
            xml: wide_xhtml.to_xml(),
        },
        Doc {
            dtd: xhtml,
            state: State::Valid,
            xml: deep_xhtml,
        },
        Doc {
            dtd: tei,
            state: State::NotPv,
            xml: early_tei.to_xml(),
        },
    ];
    StreamLarge { dtds, docs }
}

/// One request of the `serve_mixed` script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `LOAD` of `dtds[i]`, made byte-distinct per pass.
    Load(usize),
    /// `CHECK` of `docs[i]` at jobs=1 with the shared memo on.
    Check(usize),
    /// One `BATCH` of these documents (all against one DTD) at jobs=2.
    Batch(Vec<usize>),
    /// `CHECK_STREAM` of `docs[i]`.
    CheckStream(usize),
}

/// The `serve_mixed` inputs: the DTDs the script loads, the documents
/// it checks, and the fixed request order of one pass.
pub struct ServeMixed {
    /// The five families (loaded once at set-up; documents check
    /// against them), then the per-pass LOAD DTDs.
    pub dtds: Vec<DtdSrc>,
    pub docs: Vec<Doc>,
    pub script: Vec<Request>,
}

/// Element types in the chain DTD every pass re-loads.
const CHAIN_ELEMENTS: usize = 300;
/// Generated DTDs every pass re-loads, and their element counts.
const GENERATED_DTDS: usize = 4;
const GENERATED_ELEMENTS: (usize, usize) = (20, 28);
/// Target element counts of an editor-sized document.
const EDITOR_ELEMENTS: (usize, usize) = (800, 2000);
const CHECKS: usize = 15;
const BATCH_DOCS: usize = 8;
/// The BATCH runs against one handle: XHTML, a PV-weak recursive DTD.
const BATCH_FAMILY: usize = 1;
/// Families of the CHECK_STREAM documents (play, TEI-Lite, TEI drama).
const STREAM_FAMILIES: [usize; 3] = [0, 2, 4];
const STREAM_ELEMENTS: (usize, usize) = (3000, 5000);

/// A `CHAIN_ELEMENTS`-long chain `c0 → c1 → …` of optional children:
/// small to send, but its `CheckEngine::new` takes 60–80 ms on the
/// reference host, which makes it the costly LOAD.
fn chain_dtd() -> DtdSrc {
    let mut source = String::new();
    for i in 0..CHAIN_ELEMENTS - 1 {
        source.push_str(&format!("<!ELEMENT c{i} (c{}?, t)>\n", i + 1));
    }
    source.push_str(&format!(
        "<!ELEMENT c{} (t)>\n<!ELEMENT t (#PCDATA)>\n",
        CHAIN_ELEMENTS - 1
    ));
    DtdSrc {
        root: "c0".into(),
        source,
        elements: CHAIN_ELEMENTS + 1,
    }
}

/// A generated DTD that compiles: sources the generator emits are drawn
/// until one passes the usability check (almost always the first).
fn generated_dtd(rng: &mut Rng) -> DtdSrc {
    let elements = rng.range(GENERATED_ELEMENTS.0, GENERATED_ELEMENTS.1);
    let params = DtdGenParams {
        elements,
        ..DtdGenParams::default()
    };
    let mut gen = DtdGen::new(rng.next_u64(), params);
    for _ in 0..100 {
        let source = gen.generate_source();
        if let Ok(a) = DtdAnalysis::parse(&source, "e0") {
            return DtdSrc {
                root: "e0".into(),
                source,
                elements: a.dtd.len(),
            };
        }
    }
    panic!("the DTD generator produced no usable DTD in 100 draws");
}

pub fn serve_mixed(seed: u64) -> ServeMixed {
    let mut rng = Rng::new(seed);
    let mut dtds = family_dtds();
    let analyses: Vec<DtdAnalysis> = dtds.iter().map(DtdSrc::compile).collect();
    let mut script = Vec::new();
    for _ in 0..GENERATED_DTDS {
        script.push(Request::Load(dtds.len()));
        dtds.push(generated_dtd(&mut rng));
    }
    script.push(Request::Load(dtds.len()));
    dtds.push(chain_dtd());

    let mut spots = rng
        .ladder(CHECKS + BATCH_DOCS + STREAM_FAMILIES.len(), (0, 900))
        .into_iter();
    let mut docs = Vec::new();
    let mut push_doc = |rng: &mut Rng, f: usize, state: State, size: usize| {
        let valid = corpus::for_builtin(FAMILIES[f], size).expect("family has a corpus builder");
        let doc = match state {
            State::Valid => valid,
            State::MidEdit => mid_edit(&valid, rng),
            State::NotPv => {
                let mut bad = valid;
                let at = spots.next().expect("one spot per document") as f64 / 1000.0;
                plant_violation(&mut bad, &analyses[f], rng, at, at + 0.1);
                bad
            }
        };
        docs.push(Doc {
            dtd: f,
            state,
            xml: doc.to_xml(),
        });
        docs.len() - 1
    };
    let states = [State::Valid, State::MidEdit, State::NotPv];
    let check_sizes = rng.ladder(CHECKS, EDITOR_ELEMENTS);
    for (i, &size) in check_sizes.iter().enumerate() {
        let d = push_doc(&mut rng, i % FAMILIES.len(), states[i % 3], size);
        script.push(Request::Check(d));
    }
    let batch_sizes = rng.ladder(BATCH_DOCS, EDITOR_ELEMENTS);
    let batch = (0..BATCH_DOCS)
        .map(|i| push_doc(&mut rng, BATCH_FAMILY, states[i % 3], batch_sizes[i]))
        .collect();
    script.push(Request::Batch(batch));
    let stream_sizes = rng.ladder(STREAM_FAMILIES.len(), STREAM_ELEMENTS);
    for (i, &f) in STREAM_FAMILIES.iter().enumerate() {
        let d = push_doc(&mut rng, f, states[i % 3], stream_sizes[i]);
        script.push(Request::CheckStream(d));
    }
    ServeMixed { dtds, docs, script }
}

/// Small documents in every family and state, for the set-up
/// cross-check against the exact Earley oracle.
pub fn oracle_sample(seed: u64) -> Vec<(usize, Document, State)> {
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    let analyses: Vec<DtdAnalysis> = family_dtds().iter().map(DtdSrc::compile).collect();
    let mut out = Vec::new();
    for (f, &b) in FAMILIES.iter().enumerate() {
        let valid = corpus::for_builtin(b, rng.range(20, 40)).expect("corpus builder");
        let stripped = mid_edit(&valid, &mut rng);
        let mut bad = valid.clone();
        plant_violation(&mut bad, &analyses[f], &mut rng, 0.0, 1.0);
        out.push((f, valid, State::Valid));
        out.push((f, stripped, State::MidEdit));
        out.push((f, bad, State::NotPv));
    }
    out
}
