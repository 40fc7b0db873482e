//! `agree A.json B.json`: compare two result sets (written by `run --out`)
//! metric by metric against each end-to-end metric's own bound. B may be
//! worse than A by at most the bound; `exact` metrics must be identical; a
//! failed operation in either set is an excess. Exits non-zero on any excess.

use std::path::Path;

use stint_bench::json::{self, Value};

use crate::catalog::{END_TO_END, WORKLOADS};

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric<'a>(set: &'a Value, workload: &str, name: &str) -> Option<&'a Value> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)
}

pub fn agree(a: &Path, b: &Path) -> i32 {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut excess = 0;
    for w in &WORKLOADS {
        for (label, set) in [("A", &a), ("B", &b)] {
            let failed = set
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|r| r.get("failed"))
                .and_then(Value::as_u64);
            if failed != Some(0) {
                println!(
                    "EXCESS {:<16} set {label}: failed operations: {failed:?}",
                    w.name
                );
                excess += 1;
            }
        }
        for m in &END_TO_END {
            let value = |set| metric(set, w.name, m.name).and_then(|v| v.get("value")?.as_f64());
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                println!("EXCESS {:<16} {:<12} missing from a set", w.name, m.name);
                excess += 1;
                continue;
            };
            let worse = if m.better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let exact = [&a, &b].iter().all(|set| {
                metric(set, w.name, m.name)
                    .and_then(|v| v.get("exact")?.as_bool())
                    .unwrap_or(false)
            });
            let verdict = if exact && va != vb {
                excess += 1;
                "EXCESS (exact metric differs)"
            } else if worse > m.bound {
                excess += 1;
                "EXCESS"
            } else {
                "ok"
            };
            println!(
                "{verdict:<6} {:<16} {:<12} A {va:>12.6} B {vb:>12.6} {} worse by {:+.2}% (bound {:.0}%)",
                w.name,
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("agree: {excess} excess(es)");
    i32::from(excess > 0)
}
