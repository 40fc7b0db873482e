//! Compare the four access-history configurations of the paper (plus the
//! BTreeMap ablation) on every benchmark — a miniature of Figures 5–7.
//!
//! ```sh
//! cargo run --release --example compare_histories             # test sizes
//! cargo run --release --example compare_histories -- s       # ~a minute
//! ```

use stint::Variant;
use stint_suite::{Scale, Workload, NAMES};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|a| Scale::parse(&a))
        .unwrap_or(Scale::Test);

    let variants = [
        Variant::Vanilla,
        Variant::Compiler,
        Variant::CompRts,
        Variant::Stint,
        Variant::StintFlat,
    ];

    println!(
        "{:<7} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>12}   intervals r/w (STINT)",
        "bench", "base", "vanilla", "compiler", "comp+rts", "STINT", "STINT(btree)",
    );
    for name in NAMES {
        let mut w = Workload::by_name(name, scale);
        let base = stint::run_baseline(&mut w);
        let mut cells = Vec::new();
        let mut ivs = (0, 0);
        for v in variants {
            let mut w = Workload::by_name(name, scale);
            let o = stint::detect(&mut w, v);
            assert!(o.report.is_race_free(), "{name} raced under {v}!");
            cells.push(format!(
                "{:>8.2}x",
                o.wall.as_secs_f64() / base.as_secs_f64()
            ));
            if v == Variant::Stint {
                ivs = (o.stats.read.intervals, o.stats.write.intervals);
            }
        }
        println!(
            "{:<7} {:>5.0}ms | {} {} {} {} {:>12}   {}/{}",
            name,
            base.as_secs_f64() * 1e3,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            ivs.0,
            ivs.1
        );
    }
    println!();
    println!("Overheads relative to the uninstrumented serial baseline.");
    println!("The paper's headline: STINT cuts the vanilla geomean overhead ~4x (78x -> 19x).");
}
