//! Run identity and run records. The identity fields let a reader tell a
//! contended host from a regression; they are diagnostics, not metrics.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::run::RunResult;
use crate::Metric;

/// Where run records and span dumps are written, inside the benchmark's
/// directory (ignored by git).
pub fn runs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// `VmHWM` of this process, in MiB.
pub fn peak_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Host-wide steal time in clock ticks (the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> Option<u64> {
    let s = fs::read_to_string("/proc/stat").ok()?;
    s.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    pv_service::json::write_str(&mut out, s);
    out
}

/// Renders metrics as a JSON object of `{"value", "unit"}` members.
pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The one-line result the benchmark prints last.
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// The full run record: the result, the run's fixed-work figures, the
/// p10/median/p90 figures for readers and the identity stamp.
pub fn record_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    r: &RunResult,
    steal_ticks: Option<u64>,
) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\
         \"passes\":{},\"ops_per_pass\":{},\"input_bytes\":{},\"input_fnv\":\"{:016x}\",\
         \"gen_s\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\
         \"metrics\":{},\"for_readers\":{},",
        json_str(workload),
        u8::from(traced),
        r.passes,
        r.ops_per_pass,
        r.input_bytes,
        r.input_fnv,
        r.gen_s,
        r.attempted,
        r.failed,
        r.failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json(&r.metrics),
        metrics_json(&r.for_readers),
    );
    // Ticks are USER_HZ (100 per second on Linux), summed over CPUs.
    let steal = steal_ticks.map_or("null".to_owned(), |t| format!("{}", t as f64 / 100.0));
    let _ = write!(
        s,
        "\"identity\":{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_revision\":{},\
         \"steal_s\":{steal}}}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PVBENCH_RUSTC_VERSION")),
        json_str(&git_revision()),
    );
    s
}

/// Appends `line` to `runs/records.jsonl` and, for a traced run, writes
/// its spans beside it.
pub fn save(line: &str, workload: &str, seed: u64, spans: Option<&str>) -> std::io::Result<()> {
    use std::io::Write;
    let dir = runs_dir();
    fs::create_dir_all(&dir)?;
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("records.jsonl"))?;
    writeln!(f, "{line}")?;
    if let Some(spans) = spans {
        fs::write(dir.join(format!("spans-{workload}-seed{seed}.json")), spans)?;
    }
    Ok(())
}
