//! The traced run: benchmark-side spans around each call into a layer, kept
//! in memory and written to `benchmark/out/trace-<workload>.json` at exit,
//! and the per-layer metrics derived from them. Per-layer numbers are
//! informational, never gated.
//!
//! Every probe asserts its own fidelity: a count that disagrees with the
//! product's `DetectorStats` fails the run instead of printing a layer
//! number that describes something else.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use stint::journal::FsyncPolicy;
use stint::{
    detect_with, run_baseline, run_with_detector_r, CompressedTraceReader, DePaReach,
    DetectorStats, FlatStore, NopDetector, PortableTrace, RaceReport, ReachKind, SpOrder,
    StintDetector, StrandId, Treap,
};
use stint_cilkrt::ThreadPool;
use stint_serve::protocol::{read_request, write_request};
use stint_serve::SessionJournal;

use crate::expected::Expected;
use crate::probes::{
    feed_product, replay_history, replay_queries, Capture, CoalesceDetector, CountingDetector,
    Playback, Query, Recording,
};
use crate::programs::{Kernel, Prog, Source};
use crate::serve::{standalone_detect, InprocTier, ServeTier};
use crate::stats::{quantile, Summary};
use crate::tiers::{check_detection, OnlineTier, Pass, ReplayTier, SeqTier, Tier, MIN_PASSES, PAR};

/// Passes per rung or probe: at least [`MIN_RUNG_PASSES`] so `best3` has its
/// three samples, at most [`MAX_RUNG_PASSES`], the time budget deciding in
/// between.
const MIN_RUNG_PASSES: usize = 3;
const MAX_RUNG_PASSES: usize = 10;

/// One recorded span. `parent` is the span that caused it.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub pass: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of one traced run.
pub struct Tracer {
    workload: String,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, parent: Option<usize>, pass: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            pass,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span; its result and the span's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        pass: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, pass);
        let r = f();
        (r, self.close(id))
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"schema\": \"stint-benchmark-trace-v1\", \"workload\": \"{}\", \"spans\": [",
            self.workload
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"pass\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.name,
                s.pass,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                if id + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// What a traced run of one workload produced.
pub struct Traced {
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced counterpart of `verdict_s`, for `bench.trace_overhead_x`.
    pub traced_verdict_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Traced {
    fn new() -> Traced {
        Traced {
            layers: BTreeMap::new(),
            traced_verdict_s: 0.0,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.layers.insert(name, v);
    }

    fn tally(&mut self, pass: &Pass) {
        self.attempted += pass.ops;
        self.failures.extend(pass.failures.iter().cloned());
    }

    /// A probe-fidelity assertion: a mismatch fails the traced run.
    fn require_eq(&mut self, what: &str, probe: u64, product: u64) {
        self.attempted += 1;
        if probe != product {
            self.failures.push(format!(
                "probe fidelity: {what}: probe {probe}, product {product}"
            ));
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One pass of one rung: `(tracer, the pass's span, round)` to the seconds
/// spent inside the timed calls.
type Rung<'a> = &'a mut dyn FnMut(&mut Tracer, usize, usize) -> f64;

/// Interleaved rounds of `rungs`: round `k` runs pass `k` of every rung in
/// turn, so an interference burst lands on all rungs alike. Stops after
/// [`MAX_RUNG_PASSES`] rounds or when `seconds` are spent (never before
/// [`MIN_RUNG_PASSES`]). Returns each rung's `best3` seconds.
fn ladder(tr: &mut Tracer, seconds: f64, rungs: &mut [(&str, Rung<'_>)]) -> Vec<f64> {
    let mut samples = vec![Vec::new(); rungs.len()];
    let t0 = Instant::now();
    for round in 0..MAX_RUNG_PASSES {
        if round >= MIN_RUNG_PASSES && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for (i, (name, rung)) in rungs.iter_mut().enumerate() {
            let id = tr.open(name, None, round);
            samples[i].push(rung(tr, id, round));
            tr.close(id);
        }
    }
    samples.iter().map(|s| Summary::of(s).best3).collect()
}

/// Run every program of `source` once through `run`, each inside a child
/// span of `parent`; the summed seconds of the timed calls.
fn each_program(
    tr: &mut Tracer,
    parent: usize,
    round: usize,
    source: &Source,
    mut run: impl FnMut(&str, &mut Prog<'_>, &[u64]) -> f64,
) -> f64 {
    let mut total = 0.0;
    for (name, mut prog, planted) in source.instantiate() {
        let id = tr.open(name, Some(parent), round);
        total += run(name, &mut prog, planted);
        tr.close(id);
    }
    total
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The rung ladder and isolated replays of a sequential tier.
pub fn trace_sequential(tr: &mut Tracer, tier: &mut SeqTier, seconds: f64) -> Traced {
    let mut out = Traced::new();
    let source = &tier.source;
    let cfg = tier.cfg;
    let mut stats = DetectorStats::default();
    let mut events = 0u64;
    // Counts come from round 0 only: with ASLR off it is the same pass of the
    // same allocation history on every run, so address-dependent counts
    // (nodes visited, reach-cache hits) repeat exactly.
    let mut coalesced = (0u64, 0u64); // (words, intervals) of rung 3
    let mut verdicts = Pass::default();

    let secs = ladder(
        tr,
        seconds * 0.7,
        &mut [
            ("rung0.suite", &mut |tr, id, round| {
                each_program(tr, id, round, source, |_, p, _| {
                    run_baseline(p).as_secs_f64()
                })
            }),
            ("rung1.sporder", &mut |tr, id, round| {
                each_program(tr, id, round, source, |_, p, _| {
                    run_with_detector_r::<_, _, SpOrder>(p, NopDetector)
                        .1
                        .as_secs_f64()
                })
            }),
            ("rung1.depa", &mut |tr, id, round| {
                each_program(tr, id, round, source, |_, p, _| {
                    run_with_detector_r::<_, _, DePaReach>(p, NopDetector)
                        .1
                        .as_secs_f64()
                })
            }),
            ("rung2.cilk", &mut |tr, id, round| {
                each_program(tr, id, round, source, |_, p, _| {
                    let (ex, wall) =
                        run_with_detector_r::<_, _, SpOrder>(p, CountingDetector::default());
                    if round == 0 {
                        events += ex.det.events;
                    }
                    wall.as_secs_f64()
                })
            }),
            ("rung3.shadow", &mut |tr, id, round| {
                each_program(tr, id, round, source, |_, p, _| {
                    let (ex, wall) =
                        run_with_detector_r::<_, _, SpOrder>(p, CoalesceDetector::default());
                    if round == 0 {
                        coalesced.0 += ex.det.words;
                        coalesced.1 += ex.det.intervals;
                    }
                    wall.as_secs_f64()
                })
            }),
            ("rung4.core", &mut |tr, id, round| {
                each_program(tr, id, round, source, |name, p, planted| {
                    let (o, secs) = timed(|| detect_with(p, cfg));
                    if round == 0 {
                        stats.merge(&o.stats);
                    }
                    verdicts.ops += 1;
                    check_detection(
                        name,
                        p.verify(),
                        &o.report.racy_words(),
                        &Expected::from_words(name, planted),
                        o.degraded.as_ref(),
                        &mut verdicts.failures,
                    );
                    secs
                })
            }),
        ],
    );
    let (r0, r1, r1d, r2, r3, r4) = (secs[0], secs[1], secs[2], secs[3], secs[4], secs[5]);
    out.tally(&verdicts);

    // One instrumented rung-3 pass: capture the interval stream, time the
    // extraction, and freeze the orders the replays answer from.
    let mut captures: Vec<(Capture, stint::FrozenReach)> = Vec::new();
    let mut extract_s = 0.0;
    let mut filter_hits = 0u64;
    let mut shadow_bytes = 0u64;
    let cap_id = tr.open("capture.shadow", None, 0);
    each_program(tr, cap_id, 0, source, |_, p, _| {
        let (mut ex, wall) = run_with_detector_r::<_, _, SpOrder>(p, CoalesceDetector::capturing());
        extract_s += ex.det.extract.as_secs_f64();
        filter_hits += ex.det.filter_hits();
        shadow_bytes += ex.det.heap_bytes();
        captures.push((ex.det.capture.take().expect("capturing"), ex.reach.freeze()));
        wall.as_secs_f64()
    });
    tr.close(cap_id);

    // Isolated replays. A recording pass per store type fixes the answer
    // sequence (the two stores may fragment regions differently, so each asks
    // its own sequence of questions); the timed passes play it back.
    let mut asked: Vec<Vec<Query>> = Vec::new();
    let mut treap_answers = Vec::new();
    let mut flat_answers = Vec::new();
    let (mut replay_ops, mut queries) = (0u64, 0u64);
    for (cap, reach) in &captures {
        let mut rec = Recording {
            reach,
            asked: Vec::new(),
            answers: Vec::new(),
        };
        let (ops, _) = replay_history(cap, treap(1), treap(2), &mut rec);
        replay_ops += ops.ops;
        queries += rec.asked.len() as u64;
        asked.push(rec.asked);
        treap_answers.push(rec.answers);
        let mut rec = Recording {
            reach,
            asked: Vec::new(),
            answers: Vec::new(),
        };
        replay_history(cap, FlatStore::new(), FlatStore::new(), &mut rec);
        flat_answers.push(rec.answers);
    }
    let replays = ladder(
        tr,
        seconds * 0.3,
        &mut [
            ("replay.ivtree.treap", &mut |_, _, _| {
                captures
                    .iter()
                    .zip(&treap_answers)
                    .map(|((cap, _), answers)| {
                        let mut play = Playback { answers, next: 0 };
                        let (_, secs) =
                            timed(|| replay_history(cap, treap(1), treap(2), &mut play));
                        assert_eq!(
                            play.next,
                            answers.len(),
                            "replay asked a different sequence"
                        );
                        secs
                    })
                    .sum()
            }),
            ("replay.ivtree.flat", &mut |_, _, _| {
                captures
                    .iter()
                    .zip(&flat_answers)
                    .map(|((cap, _), answers)| {
                        let mut play = Playback { answers, next: 0 };
                        timed(|| replay_history(cap, FlatStore::new(), FlatStore::new(), &mut play))
                            .1
                    })
                    .sum()
            }),
            ("replay.sporder.queries", &mut |_, _, _| {
                captures
                    .iter()
                    .zip(&asked)
                    .map(|((_, reach), qs)| replay_queries(reach, qs))
                    .sum()
            }),
        ],
    );
    let (treap_s, flat_s, query_s) = (replays[0], replays[1], replays[2]);

    // Probe fidelity: the probes measured the work the product does. Interval
    // and operation counts do not depend on addresses, so they are held
    // against the live rung-4 run; the question count does (see
    // `feed_product`), so it is held against the product on the same stream.
    let mut fed = DetectorStats::default();
    for (cap, reach) in &captures {
        fed.merge(&feed_product(cap, reach));
    }
    out.require_eq(
        "coalesce-only intervals vs total_intervals",
        coalesced.1,
        stats.total_intervals(),
    );
    out.require_eq("treap replay ops vs treap.ops", replay_ops, stats.treap.ops);
    out.require_eq(
        "treap replay ops vs the fed product's",
        replay_ops,
        fed.treap.ops,
    );
    out.require_eq(
        "replayed queries vs the fed product's reach_hits + reach_misses",
        queries,
        fed.reach_hits + fed.reach_misses,
    );
    let history_s = r4 - r3;
    let selves = [r0, r1 - r0, r2 - r1, r3 - r2, history_s];
    out.attempted += 1;
    if (selves.iter().sum::<f64>() - r4).abs() > 1e-9 * r4.max(1.0) {
        out.failures.push(format!(
            "probe fidelity: ladder self times {selves:?} do not sum to {r4}"
        ));
    }

    out.traced_verdict_s = r4;
    out.set("suite.run_s", r0);
    out.set("sporder.maint_s", r1 - r0);
    out.set("sporder.depa_maint_s", r1d - r0);
    out.set("cilk.events", events as f64);
    out.set("cilk.dispatch_s", r2 - r1);
    out.set(
        "cilk.dispatch_ns_per_event",
        ratio((r2 - r1) * 1e9, events as f64),
    );
    out.set("shadow.coalesce_s", r3 - r2);
    out.set("shadow.extract_s", extract_s);
    out.set("shadow.words", coalesced.0 as f64);
    out.set("shadow.intervals_out", coalesced.1 as f64);
    out.set("shadow.filter_hits", filter_hits as f64);
    out.set("shadow.bytes", shadow_bytes as f64);
    out.set("ivtree.history_s", history_s);
    out.set("ivtree.replay_s", treap_s);
    out.set("ivtree.flat_replay_s", flat_s);
    out.set("ivtree.ops", stats.treap.ops as f64);
    out.set("ivtree.visited_per_op", stats.treap.avg_visited());
    out.set("ivtree.overlaps_per_op", stats.treap.avg_overlaps());
    out.set("ivtree.len_hw", stats.treap_len_hw as f64);
    out.set("ivtree.bytes", stats.ah_bytes as f64);
    out.set("sporder.query_ns", ratio(query_s * 1e9, queries as f64));
    out.set("sporder.reach_hits", stats.reach_hits as f64);
    out.set("sporder.reach_misses", stats.reach_misses as f64);
    out.set("sporder.reach_hit_rate", stats.reach_hit_rate());
    out.set("core.detect_s", r4);
    out.set("core.overhead_x", ratio(r4, r0));
    out.set("core.unattributed_s", history_s - treap_s - query_s);
    out
}

/// The product's read (`1`) or write (`2`) treap, seeded as
/// `StintDetector::new` seeds them.
fn treap(which: u64) -> Treap<StrandId> {
    Treap::with_seed(0x57A7_157A_7157_0000 + which)
}

/// A sink that only counts, for sizing the v1 text form of a trace.
struct Count(u64);

impl std::io::Write for Count {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `best3` seconds of `f` over [`MIN_RUNG_PASSES`]..[`MAX_RUNG_PASSES`]
/// passes within `seconds`, each pass a span.
fn probe(tr: &mut Tracer, name: &str, seconds: f64, mut f: impl FnMut() -> f64) -> f64 {
    ladder(tr, seconds, &mut [(name, &mut |_, _, _| f())])[0]
}

/// One empty fan-out as the chunked and online drivers issue it per chunk:
/// `install` from an outside thread wrapping one `join`. 10k round trips on a
/// 2-worker pool; µs each.
fn join_us(tr: &mut Tracer) -> f64 {
    const TRIPS: usize = 10_000;
    let pool = ThreadPool::new(PAR);
    let secs = probe(tr, "cilkrt.join", 0.3, || {
        timed(|| {
            for _ in 0..TRIPS {
                pool.install(|| pool.join(|| (), || ()));
            }
        })
        .1
    });
    secs * 1e6 / TRIPS as f64
}

/// Layers of the streamed-replay tier: record, encode, decode, sequential
/// replay, and the chunked batch pipeline at K=1/W=1 and K=2/W=2.
pub fn trace_replay(tr: &mut Tracer, dir: &Path, kernels: &[Kernel], seconds: f64) -> Traced {
    let mut out = Traced::new();
    let share = seconds / 8.0;

    // Record and encode once per kernel (what the set-up child does), timed.
    let (mut record_s, mut encode_s, mut v1_bytes, mut v2_bytes) = (0.0, 0.0, 0u64, 0u64);
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    for k in kernels {
        let id = tr.open(k.name, None, 0);
        let (pt, s) = tr.time("core.record", Some(id), 0, || {
            PortableTrace::record(&mut (k.make)())
        });
        record_s += s;
        let mut buf = Vec::new();
        let (res, s) = tr.time("core.ctrace.encode", Some(id), 0, || {
            pt.save_compressed(&mut buf, crate::tiers::CHUNK_EVENTS)
        });
        res.expect("encode into memory");
        encode_s += s;
        let mut v1 = Count(0);
        pt.save(&mut v1).expect("count v1 bytes");
        v1_bytes += v1.0;
        v2_bytes += buf.len() as u64;
        encoded.push(buf);
        tr.close(id);
    }

    let decode_s = probe(tr, "core.ctrace.decode", share, || {
        encoded
            .iter()
            .map(|buf| {
                timed(|| {
                    let mut r = CompressedTraceReader::open(&buf[..]).expect("open v2");
                    let mut runs = Vec::new();
                    while r.next_chunk(&mut runs).expect("decode v2") {}
                })
                .1
            })
            .sum()
    });
    let traces: Vec<PortableTrace> = encoded
        .iter()
        .map(|buf| stint::load_compressed(&buf[..]).expect("load v2"))
        .collect();
    drop(encoded);
    let replay_s = probe(tr, "core.replay", share, || {
        traces
            .iter()
            .map(|pt| timed(|| pt.replay(StintDetector::new(RaceReport::default()))).1)
            .sum()
    });
    drop(traces);

    let mut k1 = ReplayTier::new(dir, kernels, 1, 1);
    let mut k2 = ReplayTier::new(dir, kernels, PAR, PAR);
    let mut shard_events = [0u64; 2];
    let (mut skew, mut wholesale, mut runs, mut ingest_bytes, mut ingest_wall) =
        (0.0f64, 0u64, 0u64, 0u64, 0.0);
    for (slot, tier) in [&k1, &k2].into_iter().enumerate() {
        for i in 0..tier.files() {
            let o = tier.detect(i).0.expect("batch detect for counts");
            let per_shard: Vec<u64> = o.shards.iter().map(|s| s.events).collect();
            shard_events[slot] += per_shard.iter().sum::<u64>();
            if slot == 1 {
                let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
                skew = skew.max(ratio(*per_shard.iter().max().unwrap_or(&0) as f64, mean));
                let ing = o.ingest.expect("chunked runs report ingest");
                wholesale += ing.wholesale_runs;
                runs += ing.runs;
                ingest_bytes += ing.bytes;
                ingest_wall += o.wall.as_secs_f64();
            }
        }
    }
    let mut last = Pass::default();
    let secs = ladder(
        tr,
        share * 4.0,
        &mut [
            ("batchdet.k1", &mut |_, _, _| k1.pass().wall),
            ("batchdet.k2", &mut |_, _, _| {
                last = k2.pass();
                last.wall
            }),
        ],
    );
    out.tally(&last);
    let (k1_s, k2_s) = (secs[0], secs[1]);

    out.traced_verdict_s = k2_s;
    out.set("core.record_s", record_s);
    out.set("core.ctrace.encode_s", encode_s);
    out.set("core.ctrace.bytes", v2_bytes as f64);
    out.set("core.ctrace.ratio", ratio(v2_bytes as f64, v1_bytes as f64));
    out.set("core.ctrace.decode_s", decode_s);
    out.set(
        "core.ctrace.decode_mib_s",
        ratio(v2_bytes as f64 / 1048576.0, decode_s),
    );
    out.set("core.replay_s", replay_s);
    out.set("batchdet.k1_s", k1_s);
    out.set("batchdet.plumbing_x", ratio(k1_s, replay_s));
    out.set("batchdet.k2_s", k2_s);
    out.set("batchdet.scaling_x", ratio(k1_s, k2_s));
    out.set(
        "batchdet.work_ratio",
        ratio(shard_events[1] as f64, shard_events[0] as f64),
    );
    out.set("batchdet.shard_skew", skew);
    out.set(
        "batchdet.wholesale_share",
        ratio(wholesale as f64, runs as f64),
    );
    out.set(
        "batchdet.ingest_mib_s",
        ratio(ingest_bytes as f64 / 1048576.0, ingest_wall),
    );
    out.set("cilkrt.join_us", join_us(tr));
    out
}

/// Layers of the online tier: the program, DePa maintenance, sequential
/// detection over DePa, and `online_detect` at W=1/K=1 and W=2/K=2.
pub fn trace_online(tr: &mut Tracer, kernels: &'static [Kernel], seconds: f64) -> Traced {
    let mut out = Traced::new();
    let source = Source::Kernels(kernels);
    let mut seq = SeqTier::new(Source::Kernels(kernels), ReachKind::DePa);
    let mut w1 = OnlineTier::new(kernels, 1, 1);
    let mut w2 = OnlineTier::new(kernels, PAR, PAR);
    let (mut chunks, mut events) = (0u64, [0u64; 2]);
    for (slot, tier) in [&w1, &w2].into_iter().enumerate() {
        for k in kernels {
            let o = stint_batchdet::online_detect(&mut (k.make)(), &tier.cfg)
                .expect("online detect for counts");
            events[slot] += o.shards.iter().map(|s| s.events).sum::<u64>();
            if slot == 1 {
                chunks += o.chunks;
            }
        }
    }
    let mut last = Pass::default();
    let secs = ladder(
        tr,
        seconds * 0.8,
        &mut [
            ("rung0.suite", &mut |tr, id, round| {
                each_program(tr, id, round, &source, |_, p, _| {
                    run_baseline(p).as_secs_f64()
                })
            }),
            ("rung1.depa", &mut |tr, id, round| {
                each_program(tr, id, round, &source, |_, p, _| {
                    run_with_detector_r::<_, _, DePaReach>(p, NopDetector)
                        .1
                        .as_secs_f64()
                })
            }),
            ("core.detect.depa", &mut |_, _, _| seq.pass().wall),
            ("batchdet.online.w1", &mut |_, _, _| w1.pass().wall),
            ("batchdet.online.w2", &mut |_, _, _| {
                last = w2.pass();
                last.wall
            }),
        ],
    );
    out.tally(&last);
    let (r0, r1d, detect_s, w1_s, w2_s) = (secs[0], secs[1], secs[2], secs[3], secs[4]);

    out.traced_verdict_s = w2_s;
    out.set("suite.run_s", r0);
    out.set("sporder.depa_maint_s", r1d - r0);
    out.set("core.detect_s", detect_s);
    out.set("core.overhead_x", ratio(detect_s, r0));
    out.set("batchdet.online.w1_s", w1_s);
    out.set("batchdet.online.plumbing_x", ratio(w1_s, detect_s));
    out.set("batchdet.online.w2_s", w2_s);
    out.set("batchdet.online.scaling_x", ratio(w1_s, w2_s));
    out.set("batchdet.online.chunks", chunks as f64);
    out.set(
        "batchdet.online.work_ratio",
        ratio(events[1] as f64, events[0] as f64),
    );
    out.set("cilkrt.join_us", join_us(tr));
    out
}

/// `key value` out of a `key: value` payload line.
fn payload_num(payload: &str, key: &str) -> f64 {
    payload
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Layers of the serve tier: frame codec, the engine without a transport,
/// detection alone, the journal, and the daemon's own view of a block.
pub fn trace_serve(tr: &mut Tracer, dir: &Path, seed: u64, seconds: f64) -> Traced {
    let mut out = Traced::new();
    // The daemon's latency histograms exist only with the obs layer on.
    stint::obs::enable(stint::obs::ObsConfig::FULL);

    let mut tier = ServeTier::start(dir, seed);
    out.tally(&tier.pass()); // warm-up
    let t0 = Instant::now();
    let (mut walls, mut p50s, mut lat, mut lat_sum) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let mut pass_no = 0;
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds * 0.5 {
        let id = tr.open("serve.block", None, pass_no);
        let pass = tier.pass();
        tr.close(id);
        pass_no += 1;
        walls.push(pass.wall);
        p50s.push(Summary::of(&pass.latencies_ms).median);
        lat_sum += pass.latencies_ms.iter().sum::<f64>();
        lat.extend_from_slice(&pass.latencies_ms);
        out.tally(&pass);
    }
    let block_s = Summary::of(&walls).best3;
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let stats = tier.engine.stats_payload();
    let daemon_p50 = stats
        .lines()
        .filter(|l| l.starts_with("latency-ms ok "))
        .find_map(|l| {
            l.split(" p50 ")
                .nth(1)?
                .split(' ')
                .next()?
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    let health = tier.engine.health_payload();
    out.set(
        "serve.queue_age_hw_ms",
        payload_num(&health, "queue-age-hw-ms:"),
    );
    out.set("serve.busy", payload_num(&stats, "busy:"));

    // Frame codec over one block's requests.
    let mix = &tier.mix;
    let mut wire = Vec::new();
    let encode_s = probe(tr, "serve.protocol.encode", 0.2, || {
        wire.clear();
        timed(|| {
            for &i in &mix.order {
                write_request(&mut wire, &mix.requests[i]).expect("encode into memory");
            }
        })
        .1
    });
    let decode_s = probe(tr, "serve.protocol.decode", 0.2, || {
        timed(|| {
            let mut r = &wire[..];
            while read_request(&mut r).expect("decode own frames").is_some() {}
        })
        .1
    });

    // Detection alone: the engine's own call on the same payloads, one
    // session at a time on a pool of the engine's size.
    let pool = ThreadPool::new(crate::serve::ENGINE.pool_workers);
    let detect_block_s = probe(tr, "serve.detect", seconds * 0.1, || {
        mix.order
            .iter()
            .map(|&i| timed(|| standalone_detect(&pool, &mix.requests[i]).is_ok()).1)
            .sum()
    });
    drop(tier);

    let mut inproc = InprocTier::start(dir, seed);
    out.tally(&inproc.pass());
    let mut last = Pass::default();
    let inproc_s = probe(tr, "serve.inproc.block", seconds * 0.2, || {
        last = inproc.pass();
        last.wall
    });
    out.tally(&last);
    drop(inproc);

    // Journal append cost without and with a flush to stable storage.
    let journal_us = |tr: &mut Tracer, name: &str, policy: FsyncPolicy, n: u32| {
        let path = dir.join(format!("probe-{name}.journal"));
        let _ = std::fs::remove_file(&path);
        let j = SessionJournal::open(&path, policy).expect("open probe journal");
        let secs = probe(tr, name, 0.1, || {
            timed(|| {
                for s in 0..n {
                    j.log(s, stint_serve::journal::EV_VERDICT, 0, 1);
                }
            })
            .1
        });
        secs * 1e6 / f64::from(n)
    };
    out.set(
        "serve.journal.append_us",
        journal_us(tr, "serve.journal.append", FsyncPolicy::Off, 2000),
    );
    out.set(
        "serve.journal.fsync_us",
        journal_us(tr, "serve.journal.fsync", FsyncPolicy::Always, 20),
    );

    out.traced_verdict_s = block_s;
    out.set("serve.sessions_per_s", crate::serve::BLOCK as f64 / block_s);
    out.set("serve.session_p50_ms", Summary::of(&p50s).best3);
    out.set("serve.session_p99_ms", quantile(&lat, 0.99));
    out.set("serve.daemon_p50_ms", daemon_p50);
    out.set(
        "serve.protocol.encode_us",
        encode_s * 1e6 / crate::serve::BLOCK as f64,
    );
    out.set(
        "serve.protocol.decode_us",
        decode_s * 1e6 / crate::serve::BLOCK as f64,
    );
    out.set(
        "serve.inproc_sessions_per_s",
        ratio(crate::serve::BLOCK as f64, inproc_s),
    );
    out.set("serve.transport_share", ratio(block_s - inproc_s, block_s));
    out.set(
        "serve.detect_share",
        ratio(detect_block_s * walls.len() as f64 * 1e3, lat_sum),
    );
    out
}
