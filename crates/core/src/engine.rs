//! A **resident check engine**: the owned, shareable bundle behind the
//! validation service.
//!
//! [`crate::checker::PvChecker`] is a *borrowing* view — right for one-shot
//! callers whose `DtdAnalysis` lives on the stack, wrong for a long-lived
//! server that shares one compiled DTD across connection threads and keeps
//! it for as long as the handle is loaded. [`CheckEngine`] owns everything
//! behind `Arc`s:
//!
//! * the compiled [`DtdAnalysis`],
//! * the per-element DAG set (compiled **once**, at engine construction),
//! * the shape-memo [`ShapeCache`] — the service's **warm cache**: it
//!   outlives every request, so repeated shapes across requests cost one
//!   hash lookup even on a cold connection,
//! * the resolved depth budget.
//!
//! Per request the engine derives a cheap checker *view*
//! ([`CheckEngine::checker`], two `Arc` clones — no compilation), so every
//! outcome flows through exactly the same code as the in-process paths:
//! the pooled entry points are [`PvChecker::check_document_parallel`] and
//! [`PvChecker::check_batch`] run as one region of a [`pv_par::Pool`],
//! which caps the workers and runs one region at a time. The differential
//! suites (`tests/service_differential.rs`) hold the resulting
//! bit-identity to the sequential checker.
//!
//! ```
//! use pv_core::engine::CheckEngine;
//! use pv_dtd::builtin::BuiltinDtd;
//!
//! let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
//! let pool = pv_par::Pool::new(2);
//! let doc = pv_xml::parse("<r><a><b>x</b><c>y</c> z<e/></a></r>").unwrap();
//!
//! let pooled = engine.check_document_pooled(&doc, &pool, 0, true);
//! assert_eq!(pooled, engine.checker().check_document(&doc));
//! ```

use crate::checker::{PvChecker, PvOutcome};
use crate::dag::DagSet;
use crate::depth::DepthPolicy;
use crate::memo::{MemoStats, ShapeCache};
use pv_dtd::budget::StaticReport;
use pv_dtd::DtdAnalysis;
use pv_obs::{Counter, Histogram, Registry};
use pv_par::Pool;
use pv_xml::Document;
use std::sync::Arc;
use std::time::Instant;

/// The engine's metric handles (`pv_engine_*`). Default is all no-ops;
/// [`CheckEngine::with_policy_observed`] registers live ones. Recording
/// happens at document granularity only — the per-node hot path is never
/// touched, which is what keeps the measured overhead inside its budget
/// (≤ 2% on scaling medians).
#[derive(Default, Clone)]
struct EngineObs {
    /// Wall-clock of one document check (recognize + memo + reduction).
    check_us: Histogram,
    /// Wall-clock of one pooled batch check.
    batch_us: Histogram,
    /// Element nodes per checked document.
    doc_nodes: Histogram,
    /// Documents checked.
    checks: Counter,
    /// Mirrors of the outcome's `RecognizerStats` counters.
    symbols: Counter,
    node_visits: Counter,
    subs_created: Counter,
    specs_denied: Counter,
}

impl EngineObs {
    fn registered(reg: &Registry) -> EngineObs {
        EngineObs {
            check_us: reg.histogram("pv_engine_check_us"),
            batch_us: reg.histogram("pv_engine_batch_us"),
            doc_nodes: reg.histogram("pv_engine_doc_nodes"),
            checks: reg.counter("pv_engine_checks_total"),
            symbols: reg.counter("pv_engine_symbols_total"),
            node_visits: reg.counter("pv_engine_node_visits_total"),
            subs_created: reg.counter("pv_engine_subs_created_total"),
            specs_denied: reg.counter("pv_engine_specs_denied_total"),
        }
    }

    /// Folds one finished document check into the registry.
    fn record(&self, t0: Option<Instant>, nodes: usize, outcome: &PvOutcome) {
        self.check_us.observe_since(t0);
        self.doc_nodes.observe(nodes as u64);
        self.checks.inc();
        self.symbols.add(outcome.stats.symbols);
        self.node_visits.add(outcome.stats.node_visits);
        self.subs_created.add(outcome.stats.subs_created);
        self.specs_denied.add(outcome.stats.specs_denied);
    }
}

/// An owned, `'static`, shareable checking bundle for one DTD — see the
/// [module docs](self). Construct once per loaded DTD, share via `Arc`,
/// check documents from any thread.
pub struct CheckEngine {
    analysis: Arc<DtdAnalysis>,
    dags: Arc<DagSet>,
    depth: u32,
    /// Static analysis computed once at construction (the service's
    /// preflight report, attached to every handle).
    report: Arc<StaticReport>,
    /// Budget derived from `report` — certified constant when one exists.
    spec_budget: u32,
    memo: Option<Arc<ShapeCache>>,
    obs: EngineObs,
}

impl CheckEngine {
    /// Builds an engine with the default (automatic) depth policy and
    /// shape memoization on.
    pub fn new(analysis: DtdAnalysis) -> Arc<CheckEngine> {
        Self::with_policy(analysis, DepthPolicy::Auto)
    }

    /// Builds an engine with an explicit depth policy. Runs the static
    /// analyzer (determinism + budget certification) once; the report is
    /// attached to the engine and its certified budget — when one exists
    /// — is adopted by every derived checker view.
    pub fn with_policy(analysis: DtdAnalysis, policy: DepthPolicy) -> Arc<CheckEngine> {
        Self::with_policy_observed(analysis, policy, &Registry::disabled())
    }

    /// [`CheckEngine::with_policy`], recording engine telemetry
    /// (`pv_engine_*`: per-document check wall-clock and node-count
    /// histograms, recognizer work counters, memo hit/miss/flush
    /// mirrors) into `registry`. Instrumentation observes and never
    /// steers: outcomes are bit-identical to an unobserved engine's,
    /// held by `tests/obs_differential.rs`.
    pub fn with_policy_observed(
        analysis: DtdAnalysis,
        policy: DepthPolicy,
        registry: &Registry,
    ) -> Arc<CheckEngine> {
        let depth = policy.resolve(&analysis);
        let dags = Arc::new(DagSet::new(&analysis));
        let report = Arc::new(StaticReport::analyze(&analysis));
        let spec_budget = report.budget.applied_budget();
        let mut memo = ShapeCache::new();
        memo.instrument(registry);
        Arc::new(CheckEngine {
            analysis: Arc::new(analysis),
            dags,
            depth,
            report,
            spec_budget,
            memo: Some(Arc::new(memo)),
            obs: EngineObs::registered(registry),
        })
    }

    /// The compiled DTD this engine runs against.
    #[inline]
    pub fn analysis(&self) -> &DtdAnalysis {
        &self.analysis
    }

    /// The resolved elision budget per ECPV instance.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The static-analysis report computed at construction.
    #[inline]
    pub fn report(&self) -> &Arc<StaticReport> {
        &self.report
    }

    /// The per-symbol speculation budget every derived checker runs with.
    #[inline]
    pub fn spec_budget(&self) -> u32 {
        self.spec_budget
    }

    /// Derives a borrowing checker view sharing this engine's DAGs and
    /// warm shape cache: two `Arc` clones, no compilation and no
    /// re-certification. Use it for any sequential or scoped-parallel
    /// entry point; outcomes are identical to a freshly built
    /// [`PvChecker`]'s.
    pub fn checker(&self) -> PvChecker<'_> {
        PvChecker::from_shared(
            &self.analysis,
            self.dags.clone(),
            self.memo.clone(),
            self.depth,
            self.spec_budget,
        )
    }

    /// Telemetry snapshot of the shared shape cache.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// Drops every cached verdict (telemetry counters survive) — for
    /// cold-cache benchmarking.
    pub fn memo_clear(&self) {
        if let Some(m) = &self.memo {
            m.clear();
        }
    }

    /// Drops every cached verdict **and** zeroes the memo's hit/miss/
    /// flush counters — the service's `RESET` verb, which opens a fresh
    /// uptime window.
    pub fn memo_reset(&self) {
        if let Some(m) = &self.memo {
            m.clear();
            m.reset_telemetry();
        }
    }

    /// Checks one document with per-node recognizer runs sharded over
    /// the pool's workers (`jobs` caps participation; `0` = all of them):
    /// [`PvChecker::check_document_parallel`] on [`CheckEngine::checker`],
    /// run as one [`Pool::region`]. `memo` toggles the shared shape cache
    /// for this check (`false` detaches it — the diagnostic path;
    /// outcomes are identical either way). The outcome is
    /// **bit-identical** to [`PvChecker::check_document`]. Documents the
    /// parallel checker would not shard (below
    /// [`PvChecker::PARALLEL_MIN_NODES`], or `jobs <= 1`) run
    /// sequentially on the calling thread without taking a region.
    pub fn check_document_pooled(
        &self,
        doc: &Document,
        pool: &Pool,
        jobs: usize,
        memo: bool,
    ) -> PvOutcome {
        let t0 = self.obs.check_us.start();
        let mut checker = self.checker();
        checker.set_memo_enabled(memo);
        let jobs = pool.participants(jobs);
        let nodes = doc.element_count();
        let outcome = if PvChecker::shards(doc, jobs) {
            pool.region(nodes, || checker.check_document_parallel(doc, jobs))
        } else {
            checker.check_document(doc)
        };
        self.obs.record(t0, nodes, &outcome);
        outcome
    }

    /// Checks a batch of documents with the two-level scheduler (whole
    /// documents first, node-range joins when idle):
    /// [`PvChecker::check_batch`] on [`CheckEngine::checker`], run as one
    /// [`Pool::region`] when more than one worker participates. Outcome
    /// `i` is bit-identical to `check_document(&docs[i])`.
    pub fn check_batch_pooled(
        &self,
        docs: &[Document],
        pool: &Pool,
        jobs: usize,
    ) -> Vec<PvOutcome> {
        let t0 = self.obs.batch_us.start();
        let checker = self.checker();
        let jobs = pool.participants(jobs);
        let outcomes = if jobs > 1 {
            let nodes = docs.iter().map(Document::element_count).sum();
            pool.region(nodes, || checker.check_batch(docs, jobs))
        } else {
            checker.check_batch(docs, 1)
        };
        self.obs.batch_us.observe_since(t0);
        for (doc, outcome) in docs.iter().zip(&outcomes) {
            self.obs.record(None, doc.element_count(), outcome);
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::TEST_PANIC_ATTR;
    use pv_dtd::builtin::BuiltinDtd;

    fn wide_doc(reps: usize, poison: bool) -> Document {
        let mut xml = String::from("<r>");
        for i in 0..reps {
            if poison && i == reps / 2 {
                xml.push_str("<a><b/><e>boom</e></a>");
            } else {
                xml.push_str("<a><b/><c>text</c><d/></a>");
            }
        }
        xml.push_str("</r>");
        pv_xml::parse(&xml).unwrap()
    }

    /// A content model nested `levels` groups deep — `(a, (a, …)*)*`, two
    /// particles per level — compiled the way a server `LOAD` compiles
    /// it, on a thread with a 2 MiB stack (the size of a connection
    /// thread's).
    fn compile_nested(levels: usize) -> Result<bool, pv_dtd::DtdError> {
        let src = format!(
            "<!ELEMENT r {}a{}><!ELEMENT a EMPTY>",
            "(a, ".repeat(levels),
            ")*".repeat(levels)
        );
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let engine = CheckEngine::new(DtdAnalysis::parse(&src, "r")?);
                let doc = pv_xml::parse("<r><a/><a/></r>").unwrap();
                Ok(engine.checker().check_document(&doc).is_potentially_valid())
            })
            .unwrap()
            .join()
            .expect("compiling must not overflow the stack")
    }

    #[test]
    fn nesting_cap_holds_on_a_small_stack() {
        let cap = pv_dtd::parser::MAX_GROUP_DEPTH;
        assert_eq!(compile_nested(cap), Ok(true));
        for levels in [cap + 1, 8_000] {
            let err = compile_nested(levels).unwrap_err();
            assert_eq!(err.kind, pv_dtd::DtdErrorKind::NestingTooDeep, "levels={levels}");
        }
    }

    /// Documents on both sides of [`PvChecker::PARALLEL_MIN_NODES`], in
    /// every verdict state.
    fn mixed_docs() -> Vec<Document> {
        vec![
            wide_doc(150, false),
            wide_doc(150, true),
            wide_doc(40, true),
            pv_xml::parse("<a><b/></a>").unwrap(), // root mismatch
            pv_xml::parse("<r><zzz/></r>").unwrap(), // undeclared element
            pv_xml::parse("<r/>").unwrap(),
        ]
    }

    /// What a fresh memo-less checker says about each document.
    fn expected(docs: &[Document]) -> Vec<PvOutcome> {
        let analysis = BuiltinDtd::Figure1.analysis();
        let mut plain = PvChecker::new(&analysis);
        plain.set_memo_enabled(false);
        docs.iter().map(|d| plain.check_document(d)).collect()
    }

    #[test]
    fn pooled_document_check_bit_identical() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(4);
        let docs = mixed_docs();
        assert!(docs[0].element_count() >= PvChecker::PARALLEL_MIN_NODES);
        for (doc, expect) in docs.iter().zip(expected(&docs)) {
            for jobs in [0usize, 1, 2, 8] {
                for memo in [true, false] {
                    assert_eq!(
                        engine.check_document_pooled(doc, &pool, jobs, memo),
                        expect,
                        "jobs={jobs} memo={memo}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_batch_bit_identical_and_pool_reusable() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(3);
        let docs: Vec<Document> = (0..10)
            .map(|i| {
                if i == 4 {
                    pv_xml::parse("<x><b/></x>").unwrap() // root mismatch
                } else if i == 7 {
                    // Above PARALLEL_MIN_NODES: exercises the
                    // node-granular (joinable) plan, poisoned.
                    wide_doc(400, true)
                } else {
                    wide_doc(30 + i, i % 3 == 0)
                }
            })
            .collect();
        let expect = expected(&docs);
        for round in 0..3 {
            for jobs in [0usize, 1, 2, 8] {
                assert_eq!(
                    engine.check_batch_pooled(&docs, &pool, jobs),
                    expect,
                    "round={round} jobs={jobs}"
                );
            }
        }
        // The shared cache is warm now; outcomes must not have drifted.
        assert!(engine.memo_stats().unwrap().hits > 0);
    }

    #[test]
    fn task_panic_reaches_the_caller_and_the_pool_recovers() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(2);
        let docs = mixed_docs();
        let expect = expected(&docs);
        // A large potentially valid document whose last `<a>` panics when
        // checked.
        let mut xml = wide_doc(150, false).to_xml();
        let last = xml.rfind("<a>").unwrap();
        xml.replace_range(last..last + 3, &format!("<a {TEST_PANIC_ATTR}=\"\">"));
        let bad = pv_xml::parse(&xml).unwrap();
        assert!(PvChecker::shards(&bad, 2));
        for round in 0..2 {
            let doc_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.check_document_pooled(&bad, &pool, 2, true)
            }));
            assert!(doc_panic.is_err(), "round {round}: document check must panic");
            let batch = vec![docs[0].clone(), bad.clone(), docs[1].clone()];
            let batch_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.check_batch_pooled(&batch, &pool, 2)
            }));
            assert!(batch_panic.is_err(), "round {round}: batch check must panic");
            // The next regions on the same pool take over its poisoned
            // lock and answer exactly as before.
            for (doc, expect) in docs.iter().zip(&expect) {
                assert_eq!(&engine.check_document_pooled(doc, &pool, 2, true), expect);
            }
            assert_eq!(engine.check_batch_pooled(&docs, &pool, 2), expect);
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new(2);
        let docs = mixed_docs();
        let expect = expected(&docs);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (engine, pool, docs, expect) = (&engine, &pool, &docs, &expect);
                s.spawn(move || {
                    for round in 0..4 {
                        let memo = (t + round) % 2 == 0;
                        for (doc, expect) in docs.iter().zip(expect) {
                            assert_eq!(&engine.check_document_pooled(doc, pool, 0, memo), expect);
                        }
                        assert_eq!(&engine.check_batch_pooled(docs, pool, 0), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn observed_pool_counts_regions_and_tasks() {
        let registry = Registry::new();
        let engine = CheckEngine::new(BuiltinDtd::Figure1.analysis());
        let pool = Pool::new_observed(2, &registry);
        let docs = mixed_docs();
        let (big, small) = (&docs[0], &docs[2]);
        // Sharded document and multi-worker batch: one region each.
        engine.check_document_pooled(big, &pool, 2, true);
        engine.check_batch_pooled(&docs, &pool, 0);
        // Sequential fallbacks take no region.
        engine.check_document_pooled(small, &pool, 2, true);
        engine.check_document_pooled(big, &pool, 1, true);
        engine.check_batch_pooled(&docs, &pool, 1);
        let batch_nodes: usize = docs.iter().map(Document::element_count).sum();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["pv_pool_regions_total"], 2);
        assert_eq!(
            snap.counters["pv_pool_tasks_total"],
            (big.element_count() + batch_nodes) as u64
        );
        assert_eq!(snap.histograms["pv_pool_region_us"].count, 2);
        assert_eq!(snap.histograms["pv_pool_region_tasks"].max, batch_nodes as u64);
    }

    #[test]
    fn engine_checker_view_matches_plain_checker() {
        let analysis = BuiltinDtd::Play.analysis();
        let engine = CheckEngine::new(BuiltinDtd::Play.analysis());
        let plain = PvChecker::new(&analysis);
        let doc = pv_workload_free_play();
        assert_eq!(engine.checker().check_document(&doc), plain.check_document(&doc));
        assert_eq!(engine.depth(), plain.depth());
    }

    /// A small play-shaped document without depending on pv-workload.
    fn pv_workload_free_play() -> Document {
        pv_xml::parse(
            "<PLAY><TITLE>t</TITLE><PERSONAE><TITLE>p</TITLE><PERSONA>A</PERSONA></PERSONAE>\
             <ACT><TITLE>a</TITLE><SCENE><TITLE>s</TITLE><SPEECH><SPEAKER>A</SPEAKER>\
             <LINE>line</LINE></SPEECH></SCENE></ACT></PLAY>",
        )
        .unwrap()
    }
}
