//! Shared harness code for the figure-regeneration binaries.
//!
//! Each binary (`fig1`, `fig5`, `fig6`, `fig7`, `fig8`) reproduces one
//! table/figure of the paper's evaluation (Section 5). All accept
//! `--scale {test|s|m|paper}` (default `s`) and nothing else, and print an
//! aligned text table in the paper's layout. See EXPERIMENTS.md for
//! paper-vs-measured records.

use std::time::Duration;
use stint::{Outcome, Variant};
use stint_suite::{Scale, Workload};

pub mod doccheck;
/// The workspace's one JSON reader/writer (it lives under every crate, in
/// `stint-obs`); re-exported under the name the repo benchmark imports.
pub use stint_obs::json;

/// Parse the figure binaries' one option, `--scale S` or `--scale=S`
/// (default `s`). Anything else exits 2 naming the arguments, so a mistyped
/// flag never prints a table at the default scale.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let v = match args.as_slice() {
        [] => return Scale::S,
        [a] => a.strip_prefix("--scale="),
        [flag, v] if flag == "--scale" => Some(v.as_str()),
        _ => None,
    };
    if let Some(s) = v.and_then(Scale::parse) {
        return s;
    }
    eprintln!("expected one --scale test|s|m|paper, got {args:?}");
    std::process::exit(2);
}

pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::S => "s",
        Scale::M => "m",
        Scale::Paper => "paper",
    }
}

/// Seconds with 2 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// `(12.34x)` overhead of `t` relative to `base`.
pub fn overhead(t: Duration, base: Duration) -> f64 {
    t.as_secs_f64() / base.as_secs_f64().max(1e-9)
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Millions (the paper's `×10^6` columns): one decimal for large counts,
/// three for sub-0.1M counts so small interval totals stay visible.
pub fn millions(x: u64) -> String {
    let m = x as f64 / 1e6;
    if m >= 0.1 {
        format!("{m:.1}")
    } else {
        format!("{m:.3}")
    }
}

/// Run the baseline (uninstrumented) execution of a fresh instance.
pub fn baseline(name: &str, scale: Scale) -> Duration {
    let mut w = Workload::by_name(name, scale);
    stint::run_baseline(&mut w)
}

/// Run the reachability-only execution of a fresh instance.
pub fn reach_only(name: &str, scale: Scale) -> Duration {
    let mut w = Workload::by_name(name, scale);
    stint::run_reach_only(&mut w)
}

/// Run full detection with `variant` on a fresh instance (the benchmarks
/// are race-free; we assert it).
pub fn run_variant(name: &str, scale: Scale, variant: Variant) -> Outcome {
    let mut w = Workload::by_name(name, scale);
    let o = stint::detect(&mut w, variant);
    assert!(
        o.report.is_race_free(),
        "{name} reported races under {variant} — benchmark or detector bug"
    );
    o
}

/// Run full detection on an explicit program (for fig8's size sweeps).
pub fn run_program<P: stint::CilkProgram>(p: &mut P, variant: Variant) -> Outcome {
    let o = stint::detect(p, variant);
    assert!(o.report.is_race_free(), "benchmark raced under {variant}");
    o
}

/// Fixed-width table printer: pads each column to its widest cell.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            s
        };
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
        );
        for r in &self.rows {
            println!("{}", line(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "x"]);
        t.row(vec!["a", "1.0"]);
        t.row(vec!["longer", "22.0"]);
        t.print(); // smoke: no panic
    }

    #[test]
    fn run_variant_smoke() {
        let o = run_variant("sort", Scale::Test, Variant::Stint);
        assert!(o.stats.total_intervals() > 0);
    }
}
