//! Compare mode: reads two sets of run records and prints, per workload
//! and end-to-end metric, each side's median and quartiles, the win
//! fraction of B over A, and a verdict against the metric's bound.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use pv_service::json::{self, Json};

use crate::stats::quartiles;

type Series = BTreeMap<(String, String), Vec<f64>>;

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::U64(n) => Some(*n as f64),
        Json::F64(x) => Some(*x),
        _ => None,
    }
}

/// Untraced records under `path` (a records file, or a directory of
/// them), as values per `(workload, metric)` in file order.
pub fn load(path: &Path) -> Result<Series, String> {
    let files = if path.is_dir() {
        let mut fs: Vec<_> = fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        fs.sort();
        fs
    } else {
        vec![path.to_owned()]
    };
    let mut out = Series::new();
    for f in files {
        let text = fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let rec = json::parse(line).map_err(|e| format!("{}: {e}", f.display()))?;
            if rec.get("trace").and_then(Json::as_u64) != Some(0) {
                continue;
            }
            let Some(w) = rec.get("workload").and_then(Json::as_str) else {
                continue;
            };
            let Some(Json::Obj(ms)) = rec.get("metrics") else {
                continue;
            };
            for (name, m) in ms {
                if let Some(v) = m.get("value").and_then(number) {
                    out.entry((w.to_owned(), name.clone())).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// `(better_is_lower, bound)` per end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(bench: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let v = json::parse(&text)?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, (lower, m.get("bound").and_then(number)?)))
        })
        .collect())
}

/// The comparison table, one row per workload and metric.
pub fn compare(a: &Series, b: &Series, bounds: &BTreeMap<String, (bool, f64)>) -> String {
    let mut out = format!(
        "{:<14} {:<16} {:>30} {:>30} {:>6} {:>7}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "change"
    );
    for (key, av) in a {
        let (Some(bv), Some(&(lower, bound))) = (b.get(key), bounds.get(&key.1)) else {
            continue;
        };
        let (a1, am, a3) = quartiles(av);
        let (b1, bm, b3) = quartiles(bv);
        let better = |x: f64, y: f64| if lower { x < y } else { x > y };
        let pairs = av.len().min(bv.len());
        let wins = (0..pairs).filter(|&i| better(bv[i], av[i])).count();
        let win = wins as f64 / pairs.max(1) as f64;
        let change = (bm - am) / am;
        let worse = if lower { change } else { -change };
        let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
        let all_better = bv.iter().all(|&y| av.iter().all(|&x| better(y, x)));
        let verdict = if spread > bound && !all_better {
            format!(
                "unresolved (spread {:.1}% > bound {:.0}%)",
                spread * 100.0,
                bound * 100.0
            )
        } else if worse > bound {
            "REGRESSION".to_owned()
        } else if win >= 0.9 && (bm - am).abs() > a3 - a1 {
            "gain".to_owned()
        } else {
            "no change beyond the bound".to_owned()
        };
        out.push_str(&format!(
            "{:<14} {:<16} {:>30} {:>30} {:>6.2} {:>+6.1}%  {verdict}\n",
            key.0,
            key.1,
            format!("{am:.4} [{a1:.4}, {a3:.4}]"),
            format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
            win,
            change * 100.0,
        ));
    }
    out
}
