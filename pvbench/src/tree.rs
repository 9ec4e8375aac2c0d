//! `tree_corpus`: the local one-shot tree path, `pv_xml::parse` then
//! `check_document` at jobs=1, with the shape memo cleared before every
//! document so each check is a first check, as `pvx check` pays it.
//! Each pass also compiles every family DTD (`load_ms_*`).

use std::sync::Arc;
use std::time::Instant;

use pv_core::CheckEngine;

use crate::inputs::{self, Doc, DtdSrc, TreeCorpus};
use crate::trace::Tracer;
use crate::{run, OpKind, OpSpec, Workload};

pub struct TreeBench {
    dtds: Vec<DtdSrc>,
    docs: Vec<Doc>,
    ops: Vec<OpSpec>,
    engines: Vec<Arc<CheckEngine>>,
}

/// Compiles one DTD into an engine: pv-dtd's analysis, then pv-core's
/// engine build, each in its own span when tracing.
fn compile(d: &DtdSrc, tr: &mut Option<&mut Tracer>) -> Arc<CheckEngine> {
    let analysis = run::span(tr, "dtd.analysis", || d.compile());
    run::span(tr, "core.engine_build", || CheckEngine::new(analysis))
}

/// The program set-up of the local workloads: one engine per DTD.
pub fn compile_all(dtds: &[DtdSrc]) -> Vec<Arc<CheckEngine>> {
    dtds.iter().map(|d| compile(d, &mut None)).collect()
}

/// Times one throwaway [`compile_all`].
pub fn time_compile_all(dtds: &[DtdSrc]) -> f64 {
    let t = Instant::now();
    let engines = compile_all(dtds);
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(engines));
    secs
}

/// One DTD op per DTD, at the head of a local pass.
pub fn load_specs(dtds: &[DtdSrc]) -> Vec<OpSpec> {
    let load = OpSpec {
        kind: OpKind::Load,
        bytes: 0,
    };
    vec![load; dtds.len()]
}

/// Runs the DTD ops of a local pass, storing each compile's seconds in
/// `times[i]`; returns how many compiled to the wrong element count.
pub fn load_ops(dtds: &[DtdSrc], times: &mut [f64], tr: &mut Option<&mut Tracer>) -> u64 {
    let mut failed = 0;
    for (i, d) in dtds.iter().enumerate() {
        run::enter_op(tr);
        let t = Instant::now();
        let engine = compile(d, tr);
        times[i] = t.elapsed().as_secs_f64();
        run::exit(tr);
        failed += u64::from(engine.analysis().dtd.len() != d.elements);
    }
    failed
}

impl TreeBench {
    pub fn new(seed: u64) -> TreeBench {
        let TreeCorpus { dtds, docs } = inputs::tree_corpus(seed);
        let mut ops = load_specs(&dtds);
        ops.extend(docs.iter().map(|d| OpSpec {
            kind: OpKind::Doc {
                not_pv: !d.state.expect_pv(),
            },
            bytes: d.xml.len() as u64,
        }));
        TreeBench {
            dtds,
            docs,
            ops,
            engines: Vec::new(),
        }
    }
}

impl Workload for TreeBench {
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
            let engine = &self.engines[doc.dtd];
            engine.memo_clear();
            run::enter_op(&mut tr);
            let t = Instant::now();
            let tree = run::span(&mut tr, "xml.parse", || pv_xml::parse(&doc.xml));
            let outcome = tree.ok().map(|tree| {
                run::span(&mut tr, "core.check", || {
                    engine.checker().check_document(&tree)
                })
            });
            times[n + i] = t.elapsed().as_secs_f64();
            run::exit(&mut tr);
            let pv = outcome.map(|o| o.is_potentially_valid());
            failed += u64::from(pv != Some(doc.state.expect_pv()));
        }
        failed
    }

    fn inputs(&self) -> (&[DtdSrc], &[Doc]) {
        (&self.dtds, &self.docs)
    }

    fn gate_sample(&self) -> Vec<usize> {
        // The first round holds one document per family and state.
        (0..inputs::FAMILIES.len() * 3).collect()
    }
}
