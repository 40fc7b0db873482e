//! Human-readable rendering of outcomes and reports, plus the `--stats-json`
//! machine-readable dump.

use stint::obs::json::Writer;
use stint::{Outcome, RaceReport};

pub fn print_outcome(bench: &str, o: &Outcome) {
    println!("{bench} under {}:", o.variant);
    println!("  wall time:        {:?}", o.wall);
    println!(
        "  strands:          {} ({} spawns, {} syncs)",
        o.strands, o.counters.spawns, o.counters.effective_syncs
    );
    println!(
        "  word accesses:    {} reads, {} writes",
        o.stats.read.words, o.stats.write.words
    );
    println!(
        "  intervals:        {} reads, {} writes",
        o.stats.read.intervals, o.stats.write.intervals
    );
    if o.stats.treap.ops > 0 {
        println!(
            "  treap:            {} ops, {:.1} nodes/op, {:.2} overlaps/op",
            o.stats.treap.ops,
            o.stats.treap.avg_visited(),
            o.stats.treap.avg_overlaps()
        );
    }
    if o.stats.hash_ops > 0 {
        println!("  hashmap ops:      {}", o.stats.hash_ops);
    }
    if o.stats.ah_time.as_nanos() > 0 {
        println!("  access-hist time: {:?}", o.stats.ah_time);
    }
    print_report(&o.report, 10);
}

pub fn print_report(report: &RaceReport, max: usize) {
    if report.is_race_free() {
        println!("  races:            none — race free \u{2713}");
        return;
    }
    println!(
        "  races:            {} report(s), {} distinct racy word(s)",
        report.total,
        report.racy_word_count()
    );
    // Detail records dropped at the report cap are surfaced explicitly —
    // a capped report must never read as a complete one.
    if report.truncated() {
        println!(
            "  truncated:        detail capped at {} of {} report(s)",
            report.races().len(),
            report.total
        );
    }
    for race in report.races().iter().take(max) {
        println!("    {race}");
        if let Some(w) = &race.witness {
            println!("      witness: {w}");
        }
    }
    let shown = report.races().len().min(max);
    if (report.total as usize) > shown {
        println!("    ... and {} more", report.total as usize - shown);
    }
}

/// Write the run(s) of one `detect` invocation as JSON. The per-run `stats`
/// object is generated from [`stint::DetectorStats::fields`] — the same
/// source the observability registry is fed from — so this dump, the figure
/// tables and `--metrics-out` can never disagree. `gauges` is the
/// process-wide space-gauge snapshot (current value and high watermark) at
/// dump time; it is empty when observability is off.
///
/// ```json
/// {
///   "schema": "stint-stats-v1",
///   "bench": "fft",
///   "gauges": { "ivtree.bytes": { "current": 0, "hw": 4096 } },
///   "runs": [ { "variant": "STINT", "wall_ns": 1, "ah_time_ns": 0,
///               "strands": 3, "spawns": 1, "syncs": 1, "races": 0,
///               "racy_words": 0, "degraded": null,
///               "stats": { "detector.read_hooks": 2, ... } } ]
/// }
/// ```
pub fn write_stats_json(
    mut w: impl std::io::Write,
    bench: &str,
    outcomes: &[Outcome],
) -> std::io::Result<()> {
    let mut j = Writer::new(&mut w);
    j.begin_object();
    j.key("schema").str("stint-stats-v1");
    j.key("bench").str(bench);
    stint::obs::write_gauges(&mut j, &stint::obs::gauges_snapshot());
    j.key("runs").begin_array();
    for o in outcomes {
        j.begin_object();
        j.key("variant").str(o.variant.name());
        j.key("wall_ns").u64(o.wall.as_nanos() as u64);
        j.key("ah_time_ns").u64(o.stats.ah_time.as_nanos() as u64);
        j.key("strands").u64(o.strands as u64);
        j.key("spawns").u64(o.counters.spawns);
        j.key("syncs").u64(o.counters.effective_syncs);
        j.key("races").u64(o.report.total);
        j.key("truncated").bool(o.report.truncated());
        j.key("racy_words").u64(o.report.racy_word_count());
        match &o.degraded {
            Some(e) => j.key("degraded").str(&e.to_string()),
            None => j.key("degraded").null(),
        };
        j.key("stats").begin_object();
        for (name, v) in o.stats.fields() {
            j.key(name).u64(v);
        }
        j.end().end();
    }
    j.end().end();
    j.finish()
}
