//! `stream_large`: `StreamCheck::feed` in fixed chunks over multi-MiB
//! documents, wide and deep; no tree build, memo or wire. Documents with
//! an early planted violation stop feeding at `decided()`, which is
//! their time to verdict (`decide_ms_floor`). Each pass also compiles
//! every family DTD (`load_ms_*`).

use std::sync::Arc;
use std::time::Instant;

use pv_core::{CheckEngine, StreamCheck};

use crate::inputs::{self, Doc, DtdSrc, StreamLarge};
use crate::trace::Tracer;
use crate::tree::{compile_all, load_ops, load_specs, time_compile_all};
use crate::{run, OpKind, OpSpec, Workload};

/// Bytes per `feed` call.
pub const CHUNK: usize = 64 * 1024;

pub struct StreamBench {
    dtds: Vec<DtdSrc>,
    docs: Vec<Doc>,
    ops: Vec<OpSpec>,
    engines: Vec<Arc<CheckEngine>>,
}

/// Streams `xml` through a fresh checker; a document expected not to
/// be potentially valid stops at the first chunk after which the verdict
/// is final. Returns the verdict and the bytes fed.
fn stream_check(
    engine: &CheckEngine,
    xml: &str,
    stop_when_decided: bool,
    tr: &mut Option<&mut Tracer>,
) -> (Option<bool>, usize) {
    let checker = engine.checker();
    let mut s = StreamCheck::new(checker.stream_checker());
    let mut fed = 0;
    for chunk in xml.as_bytes().chunks(CHUNK) {
        if run::span(tr, "stream.feed", || s.feed(chunk)).is_err() {
            return (None, fed);
        }
        fed += chunk.len();
        if stop_when_decided && s.decided() {
            // The verdict is final: no later byte can make it valid.
            return (Some(false), fed);
        }
    }
    let outcome = run::span(tr, "stream.finish", || s.finish());
    (outcome.ok().map(|o| o.is_potentially_valid()), fed)
}

impl StreamBench {
    pub fn new(seed: u64) -> StreamBench {
        let StreamLarge { dtds, docs } = inputs::stream_large(seed);
        // Bytes fed are fixed by the input: compile once to find where
        // each early-violation document decides.
        let engines = compile_all(&dtds);
        let mut ops = load_specs(&dtds);
        ops.extend(docs.iter().map(|d| {
            let not_pv = !d.state.expect_pv();
            let (_, fed) = stream_check(&engines[d.dtd], &d.xml, not_pv, &mut None);
            OpSpec {
                kind: OpKind::Doc { not_pv },
                bytes: fed as u64,
            }
        }));
        StreamBench {
            dtds,
            docs,
            ops,
            engines: Vec::new(),
        }
    }
}

impl Workload for StreamBench {
    fn setup(&mut self) {
        self.engines = compile_all(&self.dtds);
    }

    fn time_setup(&self) -> f64 {
        time_compile_all(&self.dtds)
    }

    fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    fn pass(&mut self, times: &mut [f64], mut tr: Option<&mut Tracer>) -> u64 {
        let mut failed = load_ops(&self.dtds, times, &mut tr);
        let n = self.dtds.len();
        for (i, doc) in self.docs.iter().enumerate() {
            let expect = doc.state.expect_pv();
            run::enter_op(&mut tr);
            let t = Instant::now();
            let (pv, fed) = stream_check(&self.engines[doc.dtd], &doc.xml, !expect, &mut tr);
            times[n + i] = t.elapsed().as_secs_f64();
            run::exit(&mut tr);
            failed += u64::from(pv != Some(expect) || fed as u64 != self.ops[n + i].bytes);
        }
        failed
    }

    fn inputs(&self) -> (&[DtdSrc], &[Doc]) {
        (&self.dtds, &self.docs)
    }

    fn gate_sample(&self) -> Vec<usize> {
        (0..self.docs.len()).collect()
    }
}
