//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repo root is
//! generated from these tables (`catalog` subcommand) and `check` fails when
//! the two disagree.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether a set-up step produces files and so runs in its own process.
    pub has_prep: bool,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "live_words",
        why: "sequential STINT on mmul/straz/sort/fft: >=90% one-word plain hooks, treap nearly idle; shows hook dispatch, SetFilter and one-word BitShadow gains, bypasses ivtree",
        has_prep: false,
    },
    Workload {
        name: "live_ranges",
        why: "sequential STINT on heat/chol, the paper's best case: ~6e8 words in ~1e6 range hooks; program time + range set/extract + a moderate treap; ceiling for detection-side gains",
        has_prep: false,
    },
    Workload {
        name: "scatter_writes",
        why: "generated one-word stores that never coalesce, two serial rounds: the treap-bound regime no suite kernel reaches; shows ivtree insert_write gains, bypasses shadow range paths",
        has_prep: false,
    },
    Workload {
        name: "scatter_reads",
        why: "same generator, 90% loads of a shared read-only table: insert_read left-of splitting and reach-cache misses; a change that helps writes and hurts reads shows here",
        has_prep: false,
    },
    Workload {
        name: "replay_stream",
        why: "streamed v2 files through batch_detect_chunked_on, K=2 on a 2-worker pool: ctrace decode + Router + shard STINT + merge + cilkrt fan-out; sequential tiers do none of this",
        has_prep: true,
    },
    Workload {
        name: "online_w2",
        why: "online_detect W=2 K=2 on live mmul/sort: DePa maintenance + chunk fan-out + paused executor; the gate of overlapping the executor with detection",
        has_prep: false,
    },
    Workload {
        name: "serve_closed",
        why: "run_socket daemon, journal on, 2 closed-loop clients, mixed clean/racy/v1/truncated sessions: frame decode, admission queue, session runner, journal, reply around the batch detector",
        has_prep: true,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "verdict_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "history_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`. A workload that does not exercise a layer reports
/// 0 for its metrics.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("suite.run_s", "s", "lower"),
    ("sporder.maint_s", "s", "lower"),
    ("sporder.depa_maint_s", "s", "lower"),
    ("cilk.events", "count", "lower"),
    ("cilk.dispatch_s", "s", "lower"),
    ("cilk.dispatch_ns_per_event", "ns", "lower"),
    ("shadow.coalesce_s", "s", "lower"),
    ("shadow.extract_s", "s", "lower"),
    ("shadow.words", "count", "lower"),
    ("shadow.intervals_out", "count", "lower"),
    ("shadow.filter_hits", "count", "higher"),
    ("shadow.bytes", "B", "lower"),
    ("ivtree.history_s", "s", "lower"),
    ("ivtree.replay_s", "s", "lower"),
    ("ivtree.flat_replay_s", "s", "lower"),
    ("ivtree.ops", "count", "lower"),
    ("ivtree.visited_per_op", "count", "lower"),
    ("ivtree.overlaps_per_op", "count", "lower"),
    ("ivtree.len_hw", "count", "lower"),
    ("ivtree.bytes", "B", "lower"),
    ("sporder.query_ns", "ns", "lower"),
    ("sporder.reach_hits", "count", "higher"),
    ("sporder.reach_misses", "count", "lower"),
    ("sporder.reach_hit_rate", "ratio", "higher"),
    ("core.detect_s", "s", "lower"),
    ("core.overhead_x", "x", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("core.record_s", "s", "lower"),
    ("core.ctrace.encode_s", "s", "lower"),
    ("core.ctrace.bytes", "B", "lower"),
    ("core.ctrace.ratio", "ratio", "lower"),
    ("core.ctrace.decode_s", "s", "lower"),
    ("core.ctrace.decode_mib_s", "MiB/s", "higher"),
    ("core.replay_s", "s", "lower"),
    ("batchdet.k1_s", "s", "lower"),
    ("batchdet.plumbing_x", "x", "lower"),
    ("batchdet.k2_s", "s", "lower"),
    ("batchdet.scaling_x", "x", "higher"),
    ("batchdet.work_ratio", "ratio", "lower"),
    ("batchdet.shard_skew", "ratio", "lower"),
    ("batchdet.wholesale_share", "ratio", "higher"),
    ("batchdet.ingest_mib_s", "MiB/s", "higher"),
    ("batchdet.online.w1_s", "s", "lower"),
    ("batchdet.online.plumbing_x", "x", "lower"),
    ("batchdet.online.w2_s", "s", "lower"),
    ("batchdet.online.scaling_x", "x", "higher"),
    ("batchdet.online.chunks", "count", "lower"),
    ("batchdet.online.work_ratio", "ratio", "lower"),
    ("cilkrt.join_us", "us", "lower"),
    ("serve.sessions_per_s", "1/s", "higher"),
    ("serve.session_p50_ms", "ms", "lower"),
    ("serve.session_p99_ms", "ms", "lower"),
    ("serve.daemon_p50_ms", "ms", "lower"),
    ("serve.protocol.encode_us", "us", "lower"),
    ("serve.protocol.decode_us", "us", "lower"),
    ("serve.inproc_sessions_per_s", "1/s", "higher"),
    ("serve.transport_share", "ratio", "lower"),
    ("serve.detect_share", "ratio", "higher"),
    ("serve.journal.append_us", "us", "lower"),
    ("serve.journal.fsync_us", "us", "lower"),
    ("serve.queue_age_hw_ms", "ms", "lower"),
    ("serve.busy", "count", "lower"),
    ("obs.full_overhead_x", "x", "lower"),
    ("bench.noise_x", "x", "lower"),
    ("bench.trace_overhead_x", "x", "lower"),
    ("bench.passes", "count", "higher"),
    ("bench.failed_share", "ratio", "lower"),
];

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    s.push_str(&format!(
        "  \"workloads\": {},\n",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    ));
    s.push_str(&format!(
        "  \"end_to_end\": {},\n",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                ))
                .collect()
        )
    ));
    s.push_str(&format!(
        "  \"per_layer\": {}\n",
        rows(
            PER_LAYER
                .iter()
                .map(|(n, u, b)| format!(
                    "{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}"
                ))
                .collect()
        )
    ));
    s.push_str("}\n");
    s
}
