//! Figure 8: scaling study on fft, mmul and sort at three input sizes each —
//! baseline / comp+rts / STINT times, access-history-only times (hash oh,
//! treap oh), operation counts, and the treap's average visited nodes and
//! overlaps per operation (the O(h+k) decomposition of Lemma 4.2). `#nodes`
//! counts every node an operation touched: for a flush spliced through a
//! split–join cut that is the cut's four spine walks plus the runs' descents
//! in the middle tree, averaged over the runs.

use stint::Variant;
use stint_bench::*;
use stint_suite::{fft::Fft, mmul::Mmul, sort::Sort, Scale};

type Runner = Box<dyn FnMut(Variant) -> stint::Outcome>;

struct Case {
    bench: &'static str,
    input: String,
    make: Box<dyn Fn() -> Runner>,
    base: std::time::Duration,
}

fn main() {
    // Exact ah_time columns: time every flush, not the 1-in-64 sampling.
    let mode = stint::timing::set_mode(stint::TimingMode::Full);
    if mode != stint::TimingMode::Full {
        eprintln!("fig8: timing mode already latched to {mode:?}; ah columns would be inexact");
        std::process::exit(2);
    }
    let scale = scale_from_args();
    println!(
        "Figure 8 — scaling of comp+rts vs STINT on fft/mmul/sort (scale={})",
        scale_name(scale)
    );

    // Input-size triples per scale. The paper uses fft 2^24..2^26, mmul
    // 1024..4096, sort 5e7..2e8; our six-step fft requires perfect-square
    // sizes, so the paper preset steps by 4x (2^22, 2^24, 2^26).
    type Sizes = Vec<(usize, usize)>;
    let (ffts, mmuls, sorts): (Sizes, Sizes, Sizes) = match scale {
        Scale::Test => (
            vec![(1 << 8, 2), (1 << 10, 4), (1 << 12, 8)],
            vec![(16, 8), (32, 8), (64, 8)],
            vec![(1_000, 64), (2_000, 64), (4_000, 64)],
        ),
        Scale::S => (
            vec![(1 << 12, 8), (1 << 14, 16), (1 << 16, 16)],
            vec![(128, 32), (256, 32), (512, 32)],
            vec![(100_000, 2048), (300_000, 2048), (1_000_000, 2048)],
        ),
        Scale::M => (
            vec![(1 << 16, 16), (1 << 18, 32), (1 << 20, 64)],
            vec![(256, 64), (512, 64), (1024, 64)],
            vec![(1_000_000, 2048), (2_500_000, 2048), (5_000_000, 2048)],
        ),
        Scale::Paper => (
            vec![(1 << 22, 128), (1 << 24, 128), (1 << 26, 128)],
            vec![(1024, 64), (2048, 64), (4096, 64)],
            vec![(50_000_000, 2048), (100_000_000, 2048), (200_000_000, 2048)],
        ),
    };

    let mut cases: Vec<Case> = Vec::new();
    for (n, b) in ffts {
        cases.push(Case {
            bench: "fft",
            input: format!("2^{}", n.trailing_zeros()),
            base: stint::run_baseline(&mut Fft::new(n, b, 4)),
            make: Box::new(move || Box::new(move |v| run_program(&mut Fft::new(n, b, 4), v))),
        });
    }
    for (n, b) in mmuls {
        cases.push(Case {
            bench: "mmul",
            input: format!("{n}"),
            base: stint::run_baseline(&mut Mmul::new(n, b, 1)),
            make: Box::new(move || Box::new(move |v| run_program(&mut Mmul::new(n, b, 1), v))),
        });
    }
    for (n, b) in sorts {
        cases.push(Case {
            bench: "sort",
            input: format!("{:.1e}", n as f64),
            base: stint::run_baseline(&mut Sort::new(n, b, 3)),
            make: Box::new(move || Box::new(move |v| run_program(&mut Sort::new(n, b, 3), v))),
        });
    }

    let mut t = Table::new(vec![
        "bench",
        "input",
        "base",
        "comp+rts",
        "(oh)",
        "STINT",
        "(oh)",
        "hash oh",
        "treap oh",
        "hash ops",
        "treap ops",
        "#nodes",
        "#overlaps",
    ]);
    for c in cases {
        let h = (c.make)()(Variant::CompRts);
        let s = (c.make)()(Variant::Stint);
        t.row(vec![
            c.bench.to_string(),
            c.input.clone(),
            secs(c.base),
            secs(h.wall),
            format!("({:.2}x)", overhead(h.wall, c.base)),
            secs(s.wall),
            format!("({:.2}x)", overhead(s.wall, c.base)),
            format!("{:.2}", h.stats.ah_time.as_secs_f64()),
            format!("{:.2}", s.stats.ah_time.as_secs_f64()),
            format!("{:.2e}", h.stats.hash_ops as f64),
            format!("{:.2e}", s.stats.treap.ops as f64),
            format!("{:.2}", s.stats.treap.avg_visited()),
            format!("{:.2}", s.stats.treap.avg_overlaps()),
        ]);
    }
    t.print();
}
