//! Enabled-path integration test for the observability layer: one detection
//! run per shadow substrate plus a work-stealing pool, then assert that the
//! metrics export carries counters from every instrumented crate and that
//! the registry's detector numbers agree exactly with `Outcome::stats`.
//!
//! A single `#[test]` (and its own binary): the registry is process-global,
//! so concurrent obs-enabled cases would double-count each other.

use stint_repro::suite::{Scale, Workload};
use stint_repro::{detect, obs, Variant};

/// Pull `"name": value` out of the flat metrics JSON.
fn counter(metrics: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let at = metrics.find(&key)? + key.len();
    let rest = &metrics[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[test]
fn metrics_cover_every_layer_and_agree_with_stats() {
    let _obs = obs::ScopedObs::enable(obs::ObsConfig::FULL);

    // Stint exercises om + sporder + ivtree + shadow bit tables; CompRts
    // exercises the word-granularity shadow pages.
    let mut w = Workload::by_name("heat", Scale::Test);
    let stint_run = detect(&mut w, Variant::Stint);
    assert!(stint_run.report.is_race_free());
    // heat re-touches whole rows through range hooks: one-group hooks bypass
    // the redundant-set filter, ranges over several groups still ask it.
    let elided = stint_run.stats.hook_filter_hits;
    assert!(elided > 0, "no range hook of heat was elided");
    let mut w = Workload::by_name("fft", Scale::Test);
    let comprts_run = detect(&mut w, Variant::CompRts);
    assert!(comprts_run.report.is_race_free());

    // ivtree, fast path against slow path, counted: a six-run batch into an
    // empty tree meets an empty middle and is built; a five-run batch inside
    // it runs the case analysis on the middle; three runs are below the
    // minimum batch length and take the per-run path. Every run is one
    // `ivtree.inserts`, whichever way it went. The three reads carve, fill a
    // gap and miss the cover; a second reader's five-run batch then finds
    // its own bounds stored five times and re-links nothing. None of the
    // eleven writes meets its own bounds; a third writer then rewrites five
    // stored intervals exactly and buries one more.
    {
        use stint_repro::{IntervalStore, Treap};
        let read = |name: &str| counter(&obs::metrics_json(), name).unwrap_or(0);
        let names = [
            "ivtree.bulk.batches",
            "ivtree.bulk.runs",
            "ivtree.bulk.built",
            "ivtree.inserts",
            "ivtree.read.settled",
            "ivtree.read.restructured",
            "ivtree.write.settled",
            "ivtree.write.restructured",
        ];
        let before = names.map(read);
        let mut t: Treap<u32> = Treap::new();
        let built = [(0, 2), (10, 12), (20, 22), (30, 32), (40, 42), (50, 52)];
        t.insert_writes_for(1, &built, |_, _, _| {});
        let inside = [(11, 13), (21, 23), (31, 33), (41, 43), (44, 45)];
        t.insert_writes_for(2, &inside, |_, _, _| {});
        t.insert_reads_for(3, &[(0, 1), (5, 6), (100, 101)], |_| true);
        let again = [(0, 1), (5, 6), (10, 11), (20, 21), (30, 31)];
        t.insert_reads_for(4, &again, |old| old == 3);
        let after = names.map(read);
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, [3, 16, 6, 19, 5, 3, 0, 11], "{names:?}");
        let rewrite = [(0, 1), (1, 2), (5, 6), (10, 11), (11, 13), (20, 22)];
        t.insert_writes_for(5, &rewrite, |_, _, _| {});
        let [settled, restructured] =
            ["ivtree.write.settled", "ivtree.write.restructured"].map(read);
        assert_eq!([settled - after[6], restructured - after[7]], [5, 1]);
    }

    // cilkrt: fork-join on a real pool. A join landing before any worker
    // thread is up gets drained inline (serial elision, no fork recorded),
    // so retry until one actually runs on a worker deque.
    let pool = stint_cilkrt::ThreadPool::new(2);
    let mut forked = false;
    for _ in 0..1000 {
        let mut v: Vec<u64> = (0..64).collect();
        pool.for_each_chunk(&mut v, 1, &|_, c| c[0] = c[0].wrapping_add(1));
        if counter(&obs::metrics_json(), "cilkrt.spawns").is_some_and(|n| n > 0) {
            forked = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(forked, "no join ever ran on a pool worker");
    // An `install` that outlives the spin phase parks: this job ends only
    // once its own waiter was counted.
    let parks = || counter(&obs::metrics_json(), "cilkrt.install_parks").unwrap_or(0);
    let before = parks();
    pool.install(|| {
        let t0 = std::time::Instant::now();
        while parks() == before {
            assert!(
                t0.elapsed().as_secs() < 10,
                "the install waiter never parked"
            );
            std::thread::yield_now();
        }
    });
    drop(pool);

    // batchdet: a sharded batch run over a recorded trace. Its per-shard
    // detectors live only inside the run, so afterwards the byte gauge must
    // have reconciled back to zero while its watermark kept the peak.
    let mut w = Workload::by_name("sort", Scale::Test);
    let pt = stint_repro::PortableTrace::record(&mut w);
    let batch = stint_repro::batchdet::batch_detect(
        &pt,
        &stint_repro::batchdet::BatchConfig {
            shards: 3,
            workers: 2,
            steal_seed: 0,
            ..Default::default()
        },
    )
    .expect("clean batch run");
    assert!(batch.degraded.is_none());
    assert!(batch.merged.is_race_free());
    let shard_bytes = obs::gauges_snapshot()
        .into_iter()
        .find(|(name, _, _)| *name == "batchdet.shard.bytes")
        .expect("batchdet.shard.bytes gauge never registered");
    assert_eq!(
        shard_bytes.1, 0,
        "batchdet.shard.bytes did not reconcile to zero after the batch run"
    );
    assert!(shard_bytes.2 > 0, "no shard detector ever recorded bytes");

    // Chunked streaming over the compressed v2 encoding: the ingest
    // counters must tick, and both in-flight gauges — the decoded chunk
    // buffer and the per-shard detector bytes — must reconcile back to
    // zero once the run finishes (their watermarks keep the peaks).
    let mut cbuf = Vec::new();
    pt.save_compressed(&mut cbuf, 64).expect("compressed save");
    let chunked = stint_repro::batchdet::batch_detect_any(
        &stint_cilkrt::ThreadPool::new(2),
        &mut &cbuf[..],
        &stint_repro::batchdet::BatchConfig {
            shards: 3,
            ..Default::default()
        },
    )
    .expect("clean chunked run");
    assert!(chunked.merged.is_race_free());
    assert_eq!(chunked.merged.render(), batch.merged.render());
    let ingest = chunked.ingest.expect("chunked runs report ingest stats");
    assert!(ingest.bytes > 0 && ingest.chunks > 1 && ingest.runs > 0);
    for name in ["batchdet.shard.bytes", "batchdet.ingest.buf_bytes"] {
        let g = obs::gauges_snapshot()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} gauge never registered"));
        assert_eq!(g.1, 0, "{name} did not reconcile to zero after streaming");
        assert!(g.2 > 0, "{name} watermark never rose above zero");
    }

    // The online tier: every batch handed to the drain side is counted, and
    // the whole run costs one `install` — so at most one park — however many
    // batches there are.
    let read = |name: &str| counter(&obs::metrics_json(), name).unwrap_or(0);
    let before = (read("batchdet.online.handoffs"), parks());
    let online = stint_repro::batchdet::online_detect(
        &mut Workload::by_name("sort", Scale::Test),
        &stint_repro::batchdet::OnlineConfig {
            shards: 3,
            workers: 2,
            chunk_events: 64,
            ..Default::default()
        },
    )
    .expect("clean online run");
    assert_eq!(online.merged.render(), batch.merged.render());
    // A hand-off carries 64 units — runs, frees, strand ends — however many
    // hooks they coalesce: several batches here, a fraction of the events.
    assert!(online.chunks > 3, "{} chunks", online.chunks);
    assert_eq!(online.chunks - 1, online.units.div_ceil(64));
    assert!(online.units * 4 < online.events as u64, "{}", online.units);
    assert_eq!(
        read("batchdet.online.handoffs") - before.0,
        online.chunks - 1
    );
    // Each source's coalescer turned the hooks of sort (a wholesale run of
    // the streamed source is one) into the same runs, and the shards were
    // handed runs and markers.
    let stats = [&batch.stats, &chunked.stats, &online.stats];
    let hooks: u64 = stats.iter().map(|s| s.read.hooks + s.write.hooks).sum();
    let intervals = online.stats.total_intervals();
    assert!(stats.iter().all(|s| s.total_intervals() == intervals));
    assert!(intervals * 3 * 4 < hooks);
    let handed: u64 = [&batch.shards, &chunked.shards, &online.shards]
        .iter()
        .flat_map(|shards| shards.iter().map(|s| s.events))
        .sum();
    assert_eq!(read("batchdet.shard.events"), handed);
    assert!(parks() - before.1 <= 1, "an install per hand-off is back");

    assert!(obs::registry_initialized());
    let metrics = obs::metrics_json();

    // The pipelined driver: every drained batch is accounted to exactly one
    // of the two places its drain arm can run.
    let pipe = |name: &str| counter(&metrics, &format!("batchdet.pipeline.{name}")).unwrap_or(0);
    assert!(pipe("batches") >= ingest.chunks, "{metrics}");
    assert_eq!(
        pipe("stolen") + pipe("inline"),
        pipe("batches"),
        "{metrics}"
    );

    // At least one counter from every instrumented layer.
    for name in [
        "om.inserts",
        "sporder.parallel_queries",
        "ivtree.inserts",
        "ivtree.bulk.batches",
        "ivtree.bulk.runs",
        "ivtree.bulk.built",
        "ivtree.read.settled",
        "ivtree.read.restructured",
        "ivtree.write.settled",
        "ivtree.write.restructured",
        "shadow.page_allocs",
        "cilkrt.workers_spawned",
        "cilkrt.spawns",
        "cilkrt.install_parks",
        "batchdet.pipeline.batches",
        "batchdet.shard.runs",
        "batchdet.shard.events",
        "batchdet.merges",
        "batchdet.ingest.bytes",
        "batchdet.ingest.chunks",
        "batchdet.ingest.runs",
        "batchdet.online.handoffs",
        "batchdet.online.producer_stall_ns",
        "batchdet.online.drain_idle_ns",
    ] {
        assert!(
            counter(&metrics, name).is_some_and(|v| v > 0),
            "missing or zero counter {name}:\n{metrics}"
        );
    }
    // Histograms: ivtree always observes per-op visit counts; om's relabel
    // width shows up only when the run actually relabeled.
    assert!(metrics.contains("\"ivtree.op_visited\""), "{metrics}");
    if counter(&metrics, "om.relabels").unwrap_or(0) > 0 {
        assert!(metrics.contains("\"om.relabel_width\""), "{metrics}");
    }

    // The published detector numbers are the sum over every run — the two
    // sequential ones, the two batch runs and the online one — of exactly
    // the values their outcomes' stats reported: shared source, no drift.
    let runs = [
        &stint_run.stats,
        &comprts_run.stats,
        &batch.stats,
        &chunked.stats,
        &online.stats,
    ];
    for (i, (name, _)) in stint_run.stats.fields().into_iter().enumerate() {
        let want: u64 = runs.iter().map(|s| s.fields()[i].1).sum();
        assert_eq!(
            counter(&metrics, name),
            Some(want),
            "registry disagrees with Outcome::stats on {name}"
        );
    }

    // Spans: full mode records the per-variant execute/report phases as
    // Chrome trace_event complete events.
    let trace = obs::trace_json();
    assert!(trace.contains("\"ph\": \"X\""), "{trace}");
    assert!(trace.contains("\"name\": \"detect.execute\""), "{trace}");
    assert!(trace.contains("\"name\": \"stint.flush\""), "{trace}");
    assert!(trace.contains("\"name\": \"batchdet.shard\""), "{trace}");
    assert!(trace.contains("\"name\": \"batchdet.merge\""), "{trace}");
    assert!(trace.contains("\"name\": \"batchdet.produce\""), "{trace}");
    assert!(trace.contains("\"name\": \"batchdet.drain\""), "{trace}");

    // serve: a multi-session engine run covering every verdict, including a
    // timed-out and a poisoned session. The per-verdict counters must sum
    // to the admitted total, and the serve gauges must reconcile to zero
    // after the drain — the timed-out and poisoned sessions included,
    // because the gauges move outside the engine's unwind boundary.
    {
        use std::sync::mpsc;
        use stint_repro::serve::{Engine, EngineConfig, Status};

        let racy_v1 = "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
                       s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n";
        let mut clean_v1 = Vec::new();
        pt.save(&mut clean_v1).expect("save v1");

        let engine = Engine::new(EngineConfig {
            session_workers: 2,
            queue_depth: 16,
            pool_workers: 2,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let mut expect = std::collections::HashMap::new();
        // What the clients see: submit → reply, summed over the sessions.
        let mut driver_ms = 0.0;
        for (opts, trace, want) in [
            ("stall-ms=30", clean_v1.clone(), Status::Ok),
            ("shards=2", cbuf.clone(), Status::Ok),
            ("", racy_v1.as_bytes().to_vec(), Status::Racy),
            ("", clean_v1[..clean_v1.len() / 2].to_vec(), Status::Corrupt),
            ("frobnicate", clean_v1.clone(), Status::Usage),
            ("timeout-ms=0", cbuf.clone(), Status::Degraded),
        ] {
            let t0 = std::time::Instant::now();
            let id = engine.try_submit(opts.into(), trace, tx.clone());
            expect.insert(id, (want, t0));
        }
        for _ in 0..expect.len() {
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("session reply");
            let (want, t0) = expect[&resp.session];
            driver_ms += t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(resp.status, want, "{resp:?}");
        }
        // Poisoned session, alone while the chaos plan is installed so no
        // concurrent neighbor trips the knob.
        {
            let _plan = stint_repro::ScopedPlan::install(stint_repro::FaultPlan {
                serve_panic_session: Some(1),
                ..Default::default()
            });
            let t0 = std::time::Instant::now();
            let id = engine.try_submit(String::new(), clean_v1.clone(), tx.clone());
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("poisoned session reply");
            driver_ms += t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(resp.session, id);
            assert_eq!(resp.status, Status::Corrupt);
            assert!(resp.payload.contains("kind: poisoned"), "{}", resp.payload);
        }
        engine.drain();

        // Counters: every verdict ticked once (Ok twice), and the
        // per-verdict counters sum exactly to the admitted total.
        let m = obs::metrics_json();
        let verdicts = [
            ("serve.sessions.ok", 2),
            ("serve.sessions.racy", 1),
            ("serve.sessions.usage", 1),
            ("serve.sessions.degraded", 1),
            ("serve.sessions.corrupt", 1),
            ("serve.sessions.poisoned", 1),
        ];
        for (name, want) in verdicts {
            assert_eq!(counter(&m, name), Some(want), "{name}:\n{m}");
        }
        let total: u64 = verdicts.iter().map(|(_, n)| n).sum();
        assert_eq!(counter(&m, "serve.sessions"), Some(total), "{m}");
        // The daemon's own latency histograms hold one sample per answered
        // session under its verdict, and each sample (admission → verdict,
        // whole milliseconds) lies inside the client's submit → reply
        // interval: their sum is at least the stalled session's 30 ms and
        // at most what the clients saw.
        let lat = stint_repro::serve::engine::latency_histograms();
        for (status, h) in &lat {
            let name = format!("serve.sessions.{status}");
            assert_eq!(Some(h.count()), counter(&m, &name), "{name}");
        }
        assert_eq!(lat.iter().map(|(_, h)| h.count()).sum::<u64>(), total);
        let daemon_ms: u64 = lat.iter().map(|(_, h)| h.sum()).sum();
        assert!(
            30 <= daemon_ms && daemon_ms as f64 <= driver_ms,
            "daemon saw {daemon_ms} ms, clients {driver_ms:.1} ms"
        );
        // Never-ticked counters are not exported at all: no admission was
        // ever bounced, so `serve.busy` must be absent (or explicitly 0).
        assert_eq!(counter(&m, "serve.busy").unwrap_or(0), 0, "{m}");

        // Gauges: both serve gauges saw traffic and reconciled to zero.
        for name in ["serve.queue_bytes", "serve.inflight"] {
            let g = obs::gauges_snapshot()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} gauge never registered"));
            assert_eq!(g.1, 0, "{name} did not reconcile to zero after drain");
            assert!(g.2 > 0, "{name} watermark never rose above zero");
        }
        drop(engine);
    }

    // End state: every live-resource owner is gone, so every registered
    // gauge — shard bytes, ingest buffers, pool bookkeeping, serve queue
    // and in-flight — must read exactly zero.
    for (name, cur, _) in obs::gauges_snapshot() {
        assert_eq!(cur, 0, "gauge {name} nonzero after all owners dropped");
    }
}
