//! The runner: fixed work per run (seeded inputs × a pass count set by
//! `--seconds`), per-input quantile estimators over the passes, and the
//! separate traced run.

use std::time::Instant;

use crate::stats::quantile;
use crate::trace::Tracer;
use crate::{gate, probes, record, serve, stream, tree, Metric, OpKind, Workload};

pub const WORKLOADS: [&str; 3] = ["tree_corpus", "stream_large", "serve_mixed"];

/// Passes per second of `--seconds`, sized so the passes fill about
/// 0.5–0.6 of a run on a 2-vCPU Xeon host in its fast state, and a run
/// in the slow state still ends near `--seconds`. The count depends only
/// on the arguments, never on elapsed time, so every run at the same
/// arguments does the same work.
fn passes_per_second(workload: &str) -> f64 {
    match workload {
        "tree_corpus" => 16.0,
        "stream_large" => 5.0,
        _ => 5.0,
    }
}

/// One identical program set-up is timed before every this many passes
/// (`setup_s` is their floor), so set-ups sample the host as the passes do.
const SETUP_EVERY: usize = 4;

/// Untraced/traced pass pairs of the traced run.
const TRACE_PAIRS: usize = 8;

/// The per-input quantile behind the `_floor` estimators: each input's
/// fastest pass. Slowdowns from a shared host only ever add time, so the
/// fastest of many interleaved passes is the estimate a contended run
/// moves least (Chen & Revels, arXiv:1608.04295). The p10, median and
/// p90 are computed the same way and printed for readers, but not
/// declared as metrics: on a host whose speed flips between two states
/// they move with each run's share of slow time.
const FLOOR_Q: f64 = 0.0;
const READER_QS: [(f64, &str); 3] = [(0.1, "_p10"), (0.5, "_median"), (0.9, "_p90")];

/// End-to-end metrics, in the order `BENCHMARK.json` declares them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("mib_per_s_floor", "MiB/s"),
    ("decide_ms_floor", "ms"),
    ("rtt_ms_floor", "ms"),
    ("load_ms_floor", "ms"),
    ("setup_s", "s"),
    ("peak_mib", "MiB"),
];

/// Spans recorded around calls into the library crates; each gets a
/// `self_ms.<name>` metric in the traced run.
pub const LAYER_SPANS: [&str; 10] = [
    "dtd.analysis",
    "core.engine_build",
    "xml.parse",
    "core.check",
    "stream.feed",
    "stream.finish",
    "svc.load",
    "svc.check",
    "svc.batch",
    "svc.check_stream",
];

/// Per-layer metrics, in the order `BENCHMARK.json` declares them. A
/// layer a workload does not run reports 0 (the `svc.*` metrics outside
/// `serve_mixed`, the `self_ms.*` of spans its passes never open).
pub const PER_LAYER: [(&str, &str); 51] = [
    ("xml.lex_ms", "ms"),
    ("xml.lex_mib_per_s", "MiB/s"),
    ("xml.events", "count"),
    ("xml.parse_ms", "ms"),
    ("xml.build_ms", "ms"),
    ("xml.nodes", "count"),
    ("dtd.analysis_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("dtd.elements", "count"),
    ("core.check_ms.pv", "ms"),
    ("core.check_ms.not_pv", "ms"),
    ("core.node_visits_per_symbol", "ratio"),
    ("core.subs_created", "count"),
    ("core.specs_denied", "count"),
    ("core.memo_hit_rate", "ratio"),
    ("core.memo_entries", "count"),
    ("stream.feed_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.peak_buffered_kib", "KiB"),
    ("stream.peak_depth", "count"),
    ("stream.decided_after_kib", "KiB"),
    ("par.batch_ms.jobs1", "ms"),
    ("par.batch_ms.jobs2", "ms"),
    ("par.speedup", "ratio"),
    ("svc.rtt_ms.load", "ms"),
    ("svc.rtt_ms.check", "ms"),
    ("svc.rtt_ms.batch", "ms"),
    ("svc.rtt_ms.check_stream", "ms"),
    ("svc.server_ms.read", "ms"),
    ("svc.server_ms.parse", "ms"),
    ("svc.server_ms.recognize", "ms"),
    ("svc.server_ms.serialize", "ms"),
    ("svc.wire_ms", "ms"),
    ("svc.req_bytes", "bytes"),
    ("svc.resp_bytes", "bytes"),
    ("svc.shed", "count"),
    ("svc.errors", "count"),
    ("obs.overhead_pct", "%"),
    ("trace.e2e_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
    ("self_ms.dtd.analysis", "ms"),
    ("self_ms.core.engine_build", "ms"),
    ("self_ms.xml.parse", "ms"),
    ("self_ms.core.check", "ms"),
    ("self_ms.stream.feed", "ms"),
    ("self_ms.stream.finish", "ms"),
    ("self_ms.svc.load", "ms"),
    ("self_ms.svc.check", "ms"),
    ("self_ms.svc.batch", "ms"),
    ("self_ms.svc.check_stream", "ms"),
];

/// Runs `f` inside a span named `name` when tracing.
pub fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr.as_deref_mut() {
        Some(t) => {
            t.enter(name);
            let out = f();
            t.exit();
            out
        }
        None => f(),
    }
}

/// Opens the span of a new op (one input in one pass).
pub fn enter_op(tr: &mut Option<&mut Tracer>) {
    if let Some(t) = tr.as_deref_mut() {
        t.next_op();
        t.enter("op");
    }
}

pub fn exit(tr: &mut Option<&mut Tracer>) {
    if let Some(t) = tr.as_deref_mut() {
        t.exit();
    }
}

pub fn make(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "tree_corpus" => Box::new(tree::TreeBench::new(seed)),
        "stream_large" => Box::new(stream::StreamBench::new(seed)),
        "serve_mixed" => Box::new(serve::ServeBench::new(seed)),
        _ => return None,
    })
}

/// The pass count of a run: fixed by the workload and `--seconds`.
pub fn passes(workload: &str, seconds: u64) -> usize {
    ((seconds as f64 * passes_per_second(workload)).round() as usize).max(10)
}

/// Everything one run measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The same estimators at the per-input p10, median and p90, printed
    /// for readers and not declared as metrics.
    pub for_readers: Vec<Metric>,
    pub passes: usize,
    pub ops_per_pass: usize,
    pub input_bytes: u64,
    pub input_fnv: u64,
    pub gen_s: f64,
    pub spans_json: Option<String>,
}

pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let t = Instant::now();
    let mut w = make(workload, seed).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let gen_s = t.elapsed().as_secs_f64();
    let (input_bytes, input_fnv) = fingerprint(w.as_ref());

    let (dtds, docs) = w.inputs();
    let g = gate::run(seed, dtds, docs, &w.gate_sample());
    let mut attempted = g.attempted;
    let mut failures = g.failures;
    let gate_failed = failures.len() as u64;

    w.setup();
    let n = w.ops().len();
    let mut row = vec![0.0; n];
    let mut failed = w.pass(&mut row, None); // warm-up: caches fill, lazy set-up finishes
    attempted += n as u64;

    let passes = passes(workload, seconds);
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        for_readers: Vec::new(),
        passes,
        ops_per_pass: n,
        input_bytes,
        input_fnv,
        gen_s,
        spans_json: None,
    };
    if traced {
        let mut tracer = Tracer::new();
        let (mut plain, mut with) = (Vec::new(), Vec::new());
        for _ in 0..TRACE_PAIRS {
            let t = Instant::now();
            failed += w.pass(&mut row, None);
            plain.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            tracer.enter("pass");
            failed += w.pass(&mut row, Some(&mut tracer));
            tracer.exit();
            with.push(t.elapsed().as_secs_f64());
            attempted += 2 * n as u64;
        }
        let mut m = traced_metrics(&tracer, &plain, &with);
        let (dtds, docs) = w.inputs();
        m.extend(probes::layers(dtds, docs));
        let (svc, svc_attempted, svc_failed) = w.service_layer();
        m.extend(svc);
        attempted += svc_attempted;
        failed += svc_failed;
        result.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
                Metric::new(name, v, unit)
            })
            .collect();
        result.spans_json = Some(tracer.to_json());
    } else {
        let mut times = vec![Vec::with_capacity(passes); n];
        let mut setups = Vec::new();
        for p in 0..passes {
            if p % SETUP_EVERY == 0 {
                setups.push(w.time_setup());
            }
            failed += w.pass(&mut row, None);
            for (t, &x) in times.iter_mut().zip(&row) {
                t.push(x);
            }
        }
        attempted += (passes * n) as u64;
        let ops = w.ops();
        result.metrics = end_to_end(ops, &times, &setups, FLOOR_Q);
        for (q, suffix) in READER_QS {
            let ms = end_to_end(ops, &times, &setups, q).into_iter();
            result
                .for_readers
                .extend(ms.filter(|m| m.name != "peak_mib").map(|m| {
                    let name = m.name.strip_suffix("_floor").unwrap_or(&m.name).to_owned() + suffix;
                    Metric::new(&name, m.value, m.unit)
                }));
        }
    }
    w.teardown();
    if failed > 0 {
        failures.push(format!(
            "{failed} ops returned an unexpected verdict or error"
        ));
    }
    result.attempted = attempted;
    result.failed = failed + gate_failed;
    result.failures = failures;
    Ok(result)
}

/// Total generated bytes and their FNV-1a hash: equal at equal seeds.
pub fn fingerprint(w: &dyn Workload) -> (u64, u64) {
    let (dtds, docs) = w.inputs();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut bytes = 0u64;
    let parts = dtds
        .iter()
        .flat_map(|d| [d.root.as_bytes(), d.source.as_bytes()]);
    for part in parts.chain(docs.iter().map(|d| d.xml.as_bytes())) {
        bytes += part.len() as u64;
        for &b in part {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
    }
    (bytes, h)
}

/// The end-to-end metrics from per-op times (`times[op][pass]`), each
/// op (and the set-up) reduced to its `q`-quantile across passes first.
fn end_to_end(ops: &[crate::OpSpec], times: &[Vec<f64>], setups: &[f64], q: f64) -> Vec<Metric> {
    let t: Vec<f64> = times.iter().map(|t| quantile(t, q)).collect();
    let pick = |f: &dyn Fn(OpKind) -> bool| -> Vec<f64> {
        ops.iter()
            .zip(&t)
            .filter(|(o, _)| f(o.kind))
            .map(|(_, &x)| x)
            .collect()
    };
    let is_doc = |k| matches!(k, OpKind::Doc { .. });
    let is_load = |k| k == OpKind::Load;
    let is_bad = |k| k == OpKind::Doc { not_pv: true };
    let mean_ms = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64 * 1e3;
    let doc_bytes: u64 = ops.iter().filter(|o| is_doc(o.kind)).map(|o| o.bytes).sum();
    let values = [
        doc_bytes as f64 / (1 << 20) as f64 / pick(&is_doc).iter().sum::<f64>(),
        mean_ms(pick(&is_bad)),
        mean_ms(pick(&is_doc)),
        mean_ms(pick(&is_load)),
        quantile(setups, q),
        record::peak_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

/// The traced run's own metrics: self time per layer span, the
/// unattributed remainder, and tracing overhead.
fn traced_metrics(tracer: &Tracer, plain: &[f64], with: &[f64]) -> Vec<Metric> {
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / with.len() as f64;
    let self_ns = tracer.self_ns();
    let total: u64 = self_ns.values().sum();
    assert_eq!(
        total,
        tracer.root_ns(),
        "self times partition the traced time"
    );
    let mut m = Vec::new();
    let mut layers = 0;
    for name in LAYER_SPANS {
        let ns = self_ns.get(name).copied().unwrap_or(0);
        layers += ns;
        m.push(Metric::new(
            &format!("self_ms.{name}"),
            per_pass_ms(ns),
            "ms",
        ));
    }
    m.push(Metric::new("trace.e2e_ms", per_pass_ms(total), "ms"));
    m.push(Metric::new(
        "trace.unattributed_ms",
        per_pass_ms(total - layers),
        "ms",
    ));
    m.push(Metric::new(
        "trace.spans",
        tracer.spans().len() as f64,
        "count",
    ));
    let (p, w) = (quantile(plain, 0.0), quantile(with, 0.0));
    m.push(Metric::new("obs.overhead_pct", (w - p) / p * 100.0, "%"));
    m
}
