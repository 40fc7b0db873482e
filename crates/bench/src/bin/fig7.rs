//! Figure 7: time each benchmark spends updating its access history —
//! word-granularity hashmap (comp+rts) vs interval treap (STINT).

use stint::Variant;
use stint_bench::*;
use stint_suite::NAMES;

fn main() {
    // Exact ah_time: every flush timed (the default mode, latched here).
    // set_mode returns the latched mode; if something latched `off` first
    // the ah_time columns would read zero, which this figure must not
    // silently present as measured.
    let mode = stint::timing::set_mode(stint::TimingMode::Full);
    if mode != stint::TimingMode::Full {
        eprintln!(
            "fig7: timing mode already latched to {mode:?}; ah_time columns would be inexact"
        );
        std::process::exit(2);
    }
    let scale = scale_from_args();
    println!(
        "Figure 7 — access-history update time: hashmap vs treap (scale={})",
        scale_name(scale)
    );
    // The trailing columns attribute the hot-path speedup: how much of the
    // reachability traffic the strand-local cache absorbed, how many words
    // each page resolution served on the batched replay path, and how many
    // hooks the redundant-set filter elided (per variant h=hashmap, t=treap).
    let mut t = Table::new(vec![
        "bench",
        "hashmap",
        "treap",
        "treap/hashmap",
        "reach hit% h/t",
        "batch avg h",
        "filtered h/t",
    ]);
    for name in NAMES {
        let h = run_variant(name, scale, Variant::CompRts);
        let s = run_variant(name, scale, Variant::Stint);
        let ht = h.stats.ah_time.as_secs_f64();
        let st = s.stats.ah_time.as_secs_f64();
        t.row(vec![
            name.to_string(),
            format!("{ht:.3}"),
            format!("{st:.3}"),
            format!("{:.2}x", st / ht.max(1e-9)),
            format!(
                "{:.1}/{:.1}",
                100.0 * h.stats.reach_hit_rate(),
                100.0 * s.stats.reach_hit_rate()
            ),
            format!("{:.1}", h.stats.avg_page_batch_words()),
            format!(
                "{:.1e}/{:.1e}",
                h.stats.hook_filter_hits as f64, s.stats.hook_filter_hits as f64
            ),
        ]);
    }
    t.print();
    println!();
    println!("paper shape: treap wins broadly (heat 123.6→2.4, sort 26.4→1.5, stra 59.6→1.6)");
    println!("except fft, whose many small intervals favour the hashmap (207.7→392.5).");
}
