//! Fixed work: at a given seed the generated inputs are byte-identical
//! and the op list (kinds, count and input bytes) repeats exactly, so two
//! runs at the same arguments do the same work.

use pv_service::json::{self, Json};
use pvbench::run::{self, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn same_seed_same_work() {
    for w in WORKLOADS {
        let a = run::make(w, 7).expect("known workload");
        let b = run::make(w, 7).expect("known workload");
        assert_eq!(
            run::fingerprint(a.as_ref()),
            run::fingerprint(b.as_ref()),
            "{w}: inputs differ"
        );
        assert_eq!(a.ops(), b.ops(), "{w}: op lists differ");
        assert_eq!(a.inputs().1, b.inputs().1, "{w}: documents differ");
        assert_eq!(run::passes(w, 25), run::passes(w, 25));
    }
}

#[test]
fn other_seed_other_inputs_same_op_count() {
    for w in WORKLOADS {
        let a = run::make(w, 7).expect("known workload");
        let b = run::make(w, 8).expect("known workload");
        assert_ne!(
            run::fingerprint(a.as_ref()).1,
            run::fingerprint(b.as_ref()).1,
            "{w}"
        );
        assert_eq!(
            a.ops().len(),
            b.ops().len(),
            "{w}: op count depends on the seed"
        );
        let kinds = |w: &dyn pvbench::Workload| w.ops().iter().map(|o| o.kind).collect::<Vec<_>>();
        assert_eq!(kinds(a.as_ref()), kinds(b.as_ref()), "{w}");
    }
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
    let list = bench.get(key).and_then(Json::as_arr).expect("metric list");
    list.iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_runs_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
        ms.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
