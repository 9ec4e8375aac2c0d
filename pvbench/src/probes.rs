//! Layer probes for the traced run: each calls one layer's public entry
//! point over the workload's own documents and DTDs, so a layer's cost is
//! measured on the inputs the end-to-end metrics see.

use std::sync::Arc;
use std::time::Instant;

use pv_core::CheckEngine;
use pv_dtd::DtdAnalysis;
use pv_par::Pool;
use pv_xml::{Document, PushParser};

use crate::inputs::{Doc, DtdSrc};
use crate::stream::CHUNK;
use crate::Metric;

/// Repeats of each probe; the fastest is kept (the floor estimator of
/// the end-to-end metrics, at a count a traced run can afford).
const REPS: usize = 3;

fn floor_ms(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One full `PushParser` pass; returns the event count.
fn lex(xml: &str) -> u64 {
    let mut p = PushParser::new();
    let mut events = 0u64;
    for chunk in xml.as_bytes().chunks(CHUNK) {
        p.push(chunk);
        while p
            .next_event()
            .expect("benchmark documents are well-formed")
            .is_some()
        {
            events += 1;
        }
    }
    p.finish();
    while p
        .next_event()
        .expect("benchmark documents are well-formed")
        .is_some()
    {
        events += 1;
    }
    events
}

/// Probes every in-process layer over `docs` (checked against `dtds`).
pub fn layers(dtds: &[DtdSrc], docs: &[Doc]) -> Vec<Metric> {
    let mut m = Vec::new();
    let bytes: usize = docs.iter().map(|d| d.xml.len()).sum();

    // pv-xml: the push lexer alone, then the tree parser (lexer + build).
    let mut events = 0;
    let lex_ms = floor_ms(|| {
        let t = Instant::now();
        events = docs.iter().map(|d| lex(std::hint::black_box(&d.xml))).sum();
        ms_since(t)
    });
    let mut trees: Vec<Document> = Vec::new();
    let parse_ms = floor_ms(|| {
        let t = Instant::now();
        trees = docs
            .iter()
            .map(|d| pv_xml::parse(&d.xml).expect("well-formed"))
            .collect();
        ms_since(t)
    });
    let nodes: usize = trees.iter().map(Document::live_count).sum();
    m.push(Metric::new("xml.lex_ms", lex_ms, "ms"));
    m.push(Metric::new(
        "xml.lex_mib_per_s",
        bytes as f64 / (1 << 20) as f64 / (lex_ms / 1e3),
        "MiB/s",
    ));
    m.push(Metric::new("xml.events", events as f64, "count"));
    m.push(Metric::new("xml.parse_ms", parse_ms, "ms"));
    m.push(Metric::new("xml.build_ms", parse_ms - lex_ms, "ms"));
    m.push(Metric::new("xml.nodes", nodes as f64, "count"));

    // pv-dtd analysis, then pv-core's engine build (DAGs + certificates).
    let analysis_ms = floor_ms(|| {
        let t = Instant::now();
        for d in dtds {
            std::hint::black_box(d.compile());
        }
        ms_since(t)
    });
    let analyses: Vec<DtdAnalysis> = dtds.iter().map(DtdSrc::compile).collect();
    let mut engines: Vec<Arc<CheckEngine>> = Vec::new();
    let build_ms = floor_ms(|| {
        let inputs = analyses.clone();
        let t = Instant::now();
        engines = inputs.into_iter().map(CheckEngine::new).collect();
        ms_since(t)
    });
    m.push(Metric::new("dtd.analysis_ms", analysis_ms, "ms"));
    m.push(Metric::new("core.engine_build_ms", build_ms, "ms"));
    m.push(Metric::new(
        "dtd.elements",
        dtds.iter().map(|d| d.elements).sum::<usize>() as f64,
        "count",
    ));

    // pv-core recognizer on pre-built trees, every check a first check.
    let (mut pv_ms, mut not_pv_ms) = (f64::INFINITY, f64::INFINITY);
    let mut stats = pv_core::RecognizerStats::default();
    for _ in 0..REPS {
        let (mut pv, mut not_pv) = (0.0, 0.0);
        stats = Default::default();
        for (doc, tree) in docs.iter().zip(&trees) {
            let engine = &engines[doc.dtd];
            engine.memo_clear();
            let t = Instant::now();
            let out = engine.checker().check_document(tree);
            let dt = ms_since(t);
            stats.merge(&out.stats);
            if doc.state.expect_pv() {
                pv += dt;
            } else {
                not_pv += dt;
            }
        }
        pv_ms = pv_ms.min(pv);
        not_pv_ms = not_pv_ms.min(not_pv);
    }
    m.push(Metric::new("core.check_ms.pv", pv_ms, "ms"));
    m.push(Metric::new("core.check_ms.not_pv", not_pv_ms, "ms"));
    m.push(Metric::new(
        "core.node_visits_per_symbol",
        stats.node_visits as f64 / stats.symbols.max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "core.subs_created",
        stats.subs_created as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.specs_denied",
        stats.specs_denied as f64,
        "count",
    ));

    // pv-core shape memo: one pass over every document with the cache
    // kept across documents.
    for e in &engines {
        e.memo_clear();
    }
    let before: Vec<_> = engines
        .iter()
        .map(|e| e.memo_stats().unwrap_or_default())
        .collect();
    for (doc, tree) in docs.iter().zip(&trees) {
        engines[doc.dtd].checker().check_document(tree);
    }
    let (mut hits, mut lookups, mut entries) = (0, 0, 0);
    for (e, b) in engines.iter().zip(&before) {
        let a = e.memo_stats().unwrap_or_default();
        hits += a.hits - b.hits;
        lookups += a.hits + a.misses - b.hits - b.misses;
        entries += a.entries;
    }
    m.push(Metric::new(
        "core.memo_hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new("core.memo_entries", entries as f64, "count"));

    // pv-core streaming checker.
    let (mut feed_ms, mut finish_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut peak_buf, mut peak_depth, mut decided_kib, mut decided_n) = (0, 0, 0.0, 0);
    for _ in 0..REPS {
        let (mut feed, mut finish) = (0.0, 0.0);
        (decided_kib, decided_n) = (0.0, 0);
        for doc in docs {
            let engine = &engines[doc.dtd];
            let checker = engine.checker();
            let mut s = pv_core::StreamCheck::new(checker.stream_checker());
            let mut fed = 0usize;
            let mut decided_at = None;
            let t = Instant::now();
            for chunk in doc.xml.as_bytes().chunks(CHUNK) {
                s.feed(chunk).expect("well-formed");
                fed += chunk.len();
                if decided_at.is_none() && s.decided() {
                    decided_at = Some(fed);
                }
            }
            feed += ms_since(t);
            peak_buf = peak_buf.max(s.parser().peak_buffered());
            peak_depth = peak_depth.max(s.checker().peak_depth());
            let t = Instant::now();
            std::hint::black_box(s.finish().expect("well-formed"));
            finish += ms_since(t);
            if !doc.state.expect_pv() {
                decided_kib += decided_at.unwrap_or(doc.xml.len()) as f64 / 1024.0;
                decided_n += 1;
            }
        }
        feed_ms = feed_ms.min(feed);
        finish_ms = finish_ms.min(finish);
    }
    m.push(Metric::new("stream.feed_ms", feed_ms, "ms"));
    m.push(Metric::new("stream.finish_ms", finish_ms, "ms"));
    m.push(Metric::new(
        "stream.peak_buffered_kib",
        peak_buf as f64 / 1024.0,
        "KiB",
    ));
    m.push(Metric::new("stream.peak_depth", peak_depth as f64, "count"));
    m.push(Metric::new(
        "stream.decided_after_kib",
        decided_kib / decided_n.max(1) as f64,
        "KiB",
    ));

    // pv-par: the pooled batch checker, one batch per DTD.
    let pool = Pool::new(2);
    let mut groups: Vec<Arc<Vec<Document>>> = Vec::new();
    for i in 0..dtds.len() {
        let group: Vec<Document> = docs
            .iter()
            .zip(&trees)
            .filter(|(d, _)| d.dtd == i)
            .map(|(_, t)| t.clone())
            .collect();
        groups.push(Arc::new(group));
    }
    let batch_ms = |jobs: usize| {
        floor_ms(|| {
            let mut total = 0.0;
            for (engine, group) in engines.iter().zip(&groups).filter(|(_, g)| !g.is_empty()) {
                engine.memo_clear();
                let t = Instant::now();
                std::hint::black_box(engine.check_batch_pooled(group, &pool, jobs));
                total += ms_since(t);
            }
            total
        })
    };
    let jobs1 = batch_ms(1);
    let jobs2 = batch_ms(2);
    m.push(Metric::new("par.batch_ms.jobs1", jobs1, "ms"));
    m.push(Metric::new("par.batch_ms.jobs2", jobs2, "ms"));
    m.push(Metric::new("par.speedup", jobs1 / jobs2, "ratio"));
    m
}
