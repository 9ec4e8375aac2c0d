//! End-to-end benchmark of the potential-validity stack: three
//! workloads (`tree_corpus`, `stream_large`, `serve_mixed`) of fixed
//! work, per-input quantile estimators, a known-answer verdict gate and
//! a separate traced run that splits each workload into its layers.
//! See `README.md` beside this crate for the metric definitions.

pub mod compare;
pub mod gate;
pub mod inputs;
pub mod probes;
pub mod record;
pub mod run;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod tree;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What an op of a pass does, for the estimators that select ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Compiling (or `LOAD`ing) one DTD.
    Load,
    /// Checking documents; `not_pv` when every document in the op has a
    /// planted violation.
    Doc { not_pv: bool },
}

/// One op of a pass: the unit whose time is kept per pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSpec {
    pub kind: OpKind,
    /// Document bytes the op consumes (0 for loads).
    pub bytes: u64,
}

/// A workload: program state built from generated inputs, and one pass
/// of its fixed op list.
pub trait Workload {
    /// Builds the program state the passes run against.
    fn setup(&mut self);
    /// Builds and discards one more, identical program state; returns
    /// the seconds spent in program set-up alone.
    fn time_setup(&self) -> f64;
    /// The ops of one pass, in execution order.
    fn ops(&self) -> &[OpSpec];
    /// Runs one pass, storing each op's seconds in `times`. Returns the
    /// number of ops whose result did not match the expected verdict.
    fn pass(&mut self, times: &mut [f64], tracer: Option<&mut trace::Tracer>) -> u64;
    /// The generated documents and DTDs, for the layer probes.
    fn inputs(&self) -> (&[inputs::DtdSrc], &[inputs::Doc]);
    /// Sample documents whose outcomes must agree on every path.
    fn gate_sample(&self) -> Vec<usize>;
    /// The service layer's metrics, from passes of its own, with the ops
    /// those passes attempted and failed; empty where the service is not
    /// on the workload's path.
    fn service_layer(&mut self) -> (Vec<Metric>, u64, u64) {
        (Vec::new(), 0, 0)
    }
    /// Stops anything the workload started.
    fn teardown(&mut self) {}
}
