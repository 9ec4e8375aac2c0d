//! `pvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one benchmark run and prints its result as the last line of
//! standard output; `pvbench compare <A> <B>` compares two sets of run
//! records (files or directories of `*.jsonl`).

use std::path::Path;
use std::process::ExitCode;

use pvbench::{compare, record, run};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pvbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         pvbench compare <records A> <records B>",
        run::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let result = (|| {
            let bounds = compare::bounds(&bench)?;
            Ok::<_, String>(compare::compare(
                &compare::load(Path::new(a))?,
                &compare::load(Path::new(b))?,
                &bounds,
            ))
        })();
        return match result {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pvbench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !run::WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }

    let steal0 = record::steal_ticks();
    let result = match run::run(&workload, seed, seconds, traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pvbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal = steal0
        .zip(record::steal_ticks())
        .map(|(a, b)| b.saturating_sub(a));

    eprintln!(
        "pvbench {workload} seed={seed}: {} passes x {} ops, {} input bytes (fnv {:016x}), \
         inputs generated in {:.2} s",
        result.passes, result.ops_per_pass, result.input_bytes, result.input_fnv, result.gen_s
    );
    for m in result.metrics.iter().chain(&result.for_readers) {
        eprintln!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("  attempted {} failed {}", result.attempted, result.failed);
    for f in &result.failures {
        eprintln!("  FAILED: {f}");
    }
    let line = record::record_line(&workload, seed, seconds, traced, &result, steal);
    if let Err(e) = record::save(&line, &workload, seed, result.spans_json.as_deref()) {
        eprintln!("pvbench: could not save the run record: {e}");
    }
    println!("{}", record::result_line(&result));
    ExitCode::SUCCESS
}
