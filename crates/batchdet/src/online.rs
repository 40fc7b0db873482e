//! Parallel **online** detection against the live DePa substrate.
//!
//! The batch paths in this crate replay a *recorded* trace against a
//! [`stint_sporder::FrozenReach`] snapshot. Here the program executes once
//! under the sequential executor maintaining a [`DePaReach`], and its
//! instrumentation stream is detected **while it runs**: the hooks are
//! sequential STINT's — the inline lane into one strand coalescer — and each
//! strand end pushes the strand's runs into a batch of `chunk_events` units,
//! handed to a drain side that runs the crate's one
//! [`pipeline`](crate::pipeline) — routing batch *n+1* while the persistent
//! shard detectors flush batch *n* — inside one `pool.install` for the
//! whole run. The executor waits for a free buffer, never a fan-out.
//!
//! # Why the overlap is sound
//!
//! DePa is relabel-free: a strand's timestamp is assigned when the strand is
//! created and never rewritten, so queries on *published* strands are plain
//! reads of immutable memory (SP-Order's relabeling would invalidate a
//! concurrent reader mid-query). The drain side queries a
//! [`DePaReach::view`] — an owned handle on the same append-only arena —
//! while the executor keeps publishing, and only about published strands:
//!
//! * **publish before record** — the executor creates a strand (a release
//!   store into the arena) before the strand's first hook, so before any of
//!   its runs is pushed;
//! * **the hand-off is an edge** — a batch crosses threads through a channel
//!   (release/acquire), so every publication that preceded the send is
//!   visible to whoever routes and replays the batch.
//!
//! Two unit buffers, the engine's own and one the drain side allocates, are
//! recycled for the whole run: nothing is allocated per hand-off, and the
//! executor blocks (`batchdet.online.producer_stall_ns`) once both are on
//! the drain side — the backpressure.
//!
//! # Determinism
//!
//! The merged report is the [`MergedReport`] normalization the batch tier
//! renders. The coalescer hands out the runs sequential STINT flushes,
//! batches are routed and drained in the order they were filled, and the
//! shard plan is a function of exactly the first `chunk_events` units, so
//! chunking, shard count, worker count, steal seed and the timing of the
//! two sides only change *which detector instance* observes each per-word
//! subsequence and *when* — never the subsequence: the bytes are a
//! one-worker run's, the racy-interval set sequential STINT's
//! (`tests/prop_detectors.rs` diffs both).
//!
//! # Degradation
//!
//! The exit-code contract is the sequential and batch tiers': a shadow-byte
//! budget makes the coalescer drop bits, an interval budget makes a shard's
//! history go *dead* (both sound but partial), and either surfaces as
//! `degraded = ResourceExhausted` (exit 3). A panic on the drain
//! side ends the pipeline, which hangs up both channels: the executor —
//! blocked on a free buffer, or at its next hand-off — finds them
//! disconnected and poisons the run ([`DetectorError::Poisoned`], exit 4):
//! nothing more is handed over, nothing partial is published. Dropping the
//! engine (the *program* panicked) hangs up from its end and joins the drain
//! side.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stint::ctrace::partition_index;
use stint::{
    run_with_detector_r, CilkProgram, DePaReach, Detector, DetectorError, DetectorStats,
    EventSpans, ExecCounters, ResourceBudget, StrandCoalescer, TraceEvent, TraceOp,
};
use stint_cilk::word_range;
use stint_cilkrt::ThreadPool;
use stint_obs::Counter;
use stint_sporder::StrandId;

use crate::{
    merge_shards, pipeline, plan_shards, route_unit, Batch, EventSource, MergedReport, Piped,
    Router, SessionLimits, ShardOutcome,
};

/// A run's hand-offs (`OnlineOutcome::chunks − 1`) and merges (`chunks`),
/// added when it ends.
static OBS_DEPA_MERGES: Counter = Counter::new("depa.merges");
static OBS_HANDOFFS: Counter = Counter::new("batchdet.online.handoffs");
/// The executor's waits for a free buffer, the drain side's for a full one.
static OBS_PRODUCER_STALL: Counter = Counter::new("batchdet.online.producer_stall_ns");
static OBS_DRAIN_IDLE: Counter = Counter::new("batchdet.online.drain_idle_ns");

/// Run `wait`, charging its wall time to `c` while obs is enabled.
fn timed_wait<T>(c: &'static Counter, wait: impl FnOnce() -> T) -> T {
    let t0 = stint_obs::is_enabled().then(Instant::now);
    let out = wait();
    if let Some(t0) = t0 {
        c.add(t0.elapsed().as_nanos() as u64);
    }
    out
}

/// Configuration for a parallel online detection run.
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Number of contiguous address shards (`K`). At least 1.
    pub shards: usize,
    /// Worker threads for the pool; `0` means one per hardware thread.
    pub workers: usize,
    /// Steal-victim perturbation seed ([`ThreadPool::with_seed`]). The
    /// rendered report is invariant in this — that is the point of the knob.
    pub steal_seed: u64,
    /// Hand-off units per batch handed to the drain side — a unit is one run
    /// of a strand, one free, or the strand end that closes them, so a batch
    /// stands for far more hooks than it has units. Smaller batches bound the
    /// buffered footprint; larger ones amortize the hand-off.
    pub chunk_events: usize,
    /// Attach merge-time witnesses (see [`crate::BatchConfig::witnesses`]).
    pub witnesses: bool,
    /// Shadow bytes cap the executor's one strand coalescer; the interval
    /// cap freezes each shard's access history.
    pub budget: ResourceBudget,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            shards: 4,
            workers: 0,
            steal_seed: 0,
            chunk_events: 4096,
            witnesses: false,
            budget: ResourceBudget::default(),
        }
    }
}

/// Result of a parallel online run — the online analogue of
/// [`crate::BatchOutcome`].
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    pub merged: MergedReport,
    /// The per-shard detector statistics summed, plus the executor-side
    /// coalescer's hooks, intervals and table bytes.
    pub stats: DetectorStats,
    /// Instrumentation events the executor delivered (before coalescing).
    pub events: usize,
    pub strands: usize,
    /// Hand-off units those events became (before routing): runs, frees,
    /// and the strand ends that close them.
    pub units: u64,
    /// Batches of at most `chunk_events` units handed to the drain side,
    /// plus one for the final merge.
    pub chunks: u64,
    /// Heap bytes held by the DePa substrate at finish.
    pub reach_bytes: u64,
    /// Executor counters (spawns/syncs/calls) of the instrumented run.
    pub counters: ExecCounters,
    /// Wall-clock time of the whole instrumented run (program + detection).
    pub wall: Duration,
    /// First per-shard structured failure, if any: the merged report is
    /// sound but only complete up to the failure point.
    pub degraded: Option<DetectorError>,
}

/// One buffer of hand-off units crossing to the drain side, full one way
/// and empty back.
type Units = Vec<TraceEvent>;

/// The drain side's end of the hand-off, the pipeline's second
/// [`EventSource`]: the producer arm routes a batch — overlapping the
/// previous batch's drain — and sends its buffer straight back. Its units
/// are the engine's coalescer's runs.
struct LiveSource {
    full: Receiver<Units>,
    free: SyncSender<Units>,
}

impl EventSource for LiveSource {
    fn produce(&mut self, router: &mut Router, batch: &mut Batch) -> Result<bool, DetectorError> {
        // The executor hanging up is how the stream ends.
        let Ok(mut units) = timed_wait(&OBS_DRAIN_IDLE, || self.full.recv()) else {
            return Ok(false);
        };
        for e in units.drain(..) {
            route_unit(router, e, batch);
        }
        // Never blocks (two buffers, two slots); a gone executor needs none.
        let _ = self.free.send(units);
        Ok(true)
    }
}

/// The executor's end of the hand-off, and the thread that sits in the
/// run's one `pool.install`.
struct Drain {
    /// `None` once hung up.
    full: Option<SyncSender<Units>>,
    free: Receiver<Units>,
    thread: Option<JoinHandle<Piped>>,
}

impl Drain {
    /// Start the drain side, its shards planned from `first`, the run's
    /// first batch, alone (later runs outside its bounds still route: the
    /// last cut-point is `u64::MAX`, shard 0 starts at word 0). It allocates
    /// the second buffer itself, off the executor's heap: the kernels
    /// allocate while they run, and what the engine allocates beside them
    /// moves their addresses (`history_mb`).
    fn start(pool: &Arc<ThreadPool>, cfg: &OnlineConfig, first: &Units, view: DePaReach) -> Drain {
        let (full_tx, full) = sync_channel(2);
        let (free, free_rx) = sync_channel(2);
        let (pool, capacity) = (Arc::clone(pool), first.capacity());
        let (bounds, hist) = partition_index(first);
        let shards = plan_shards(bounds, &hist, cfg.shards);
        let limits = SessionLimits {
            budget: cfg.budget,
            ..SessionLimits::default()
        };
        let thread = std::thread::spawn(move || {
            let _ = free.send(Units::with_capacity(capacity));
            let mut src = LiveSource { full, free };
            pipeline(&pool, &view, &shards, &mut src, &limits)
        });
        Drain {
            full: Some(full_tx),
            free: free_rx,
            thread: Some(thread),
        }
    }

    /// Hand `batch` over. `false` if the drain side is gone.
    fn send(&mut self, batch: Units) -> bool {
        self.full.as_ref().is_some_and(|tx| tx.send(batch).is_ok())
    }

    /// Hang up and wait for the drain side to finish what it was sent.
    fn join(&mut self) -> Piped {
        self.full = None;
        let thread = self.thread.take().expect("joined once");
        thread
            .join()
            .unwrap_or_else(|p| Err(DetectorError::from_panic(p)))
    }
}

impl Drop for Drain {
    /// For every exit that did not `join` — a program panic unwinding
    /// through the executor — so that no worker outlives the engine.
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.join();
        }
    }
}

/// A [`Detector`] over the live [`DePaReach`] whose hooks are sequential
/// STINT's — the inline lane into one strand coalescer — and that hands each
/// strand's runs, a batch at a time, to the drain side (module docs):
/// persistent per-shard [`stint::IntervalHistory`]s on a pool.
pub struct OnlineEngine {
    cfg: OnlineConfig,
    /// Declared (so dropped, so joined) before the pool it runs on.
    drain: Option<Drain>,
    pool: Arc<ThreadPool>,
    co: StrandCoalescer,
    /// The batch being filled; handed over at `chunk_events` units.
    buf: Units,
    /// One strand's units on their way into `buf`.
    strand: Units,
    /// Merge-time witness capture: a strand's span of event ids, noted when
    /// it ends. An id — hooks so far plus `ends` — is the index the event
    /// would have in a recorded trace.
    spans: Option<EventSpans>,
    ends: u64,
    strand_from: u64,
    units: u64,
    /// Batches handed to the pipeline so far.
    handoffs: u64,
    /// The drain side's failure: the engine is dead from here on (nothing
    /// is handed over, finish publishes nothing); [`online_detect`] returns it.
    poisoned: Option<DetectorError>,
    outcome: Option<OnlineOutcome>,
}

impl OnlineEngine {
    pub fn new(cfg: OnlineConfig) -> OnlineEngine {
        OnlineEngine {
            drain: None,
            pool: Arc::new(crate::new_pool(cfg.workers, cfg.steal_seed)),
            co: StrandCoalescer::new().with_max_shadow_bytes(cfg.budget.max_shadow_bytes),
            buf: Vec::with_capacity(cfg.chunk_events.min(1 << 16)),
            strand: Vec::new(),
            spans: cfg.witnesses.then(EventSpans::default),
            ends: 0,
            strand_from: 0,
            units: 0,
            handoffs: 0,
            poisoned: None,
            outcome: None,
            cfg,
        }
    }

    /// Take the finished outcome (present after a non-poisoned `finish`).
    pub fn take_outcome(&mut self) -> Option<OnlineOutcome> {
        self.outcome.take()
    }

    /// Events delivered so far.
    fn events(&self) -> u64 {
        self.co.hooks() + self.ends
    }

    /// The strand ended, or freed (`end`): push its runs, then `end` itself
    /// — the same units, in the same order, a recorded stream's coalescer
    /// hands out ([`StrandCoalescer::feed`]). A strand end that closes
    /// nothing is not worth a unit. The strand was published before its
    /// first hook, so before any of this.
    fn end_strand(&mut self, end: TraceEvent, reach: &DePaReach) {
        let id = self.events();
        if let Some(sp) = self.spans.as_mut() {
            sp.note(end.strand, self.strand_from);
            sp.note(end.strand, id);
        }
        self.ends += 1;
        self.strand_from = id + 1;
        let mut units = std::mem::take(&mut self.strand);
        self.co.feed(end, |u| units.push(u));
        if end.op == TraceOp::StrandEnd && units.len() == 1 {
            units.clear();
        }
        for u in units.drain(..) {
            if self.poisoned.is_some() {
                break;
            }
            self.buf.push(u);
            self.units += 1;
            if self.buf.len() >= self.cfg.chunk_events.max(1) {
                self.hand_off(reach);
            }
        }
        self.strand = units;
    }

    /// Hand the batch being filled, unless it is empty, to the drain side
    /// — started by the run's first batch: a full one, or at finish the only
    /// one. `false` if the drain side is gone.
    fn send(&mut self, reach: &DePaReach) -> bool {
        let batch = std::mem::take(&mut self.buf);
        let (pool, cfg) = (&self.pool, &self.cfg);
        let start = || Drain::start(pool, cfg, &batch, reach.view());
        let drain = self.drain.get_or_insert_with(start);
        if batch.is_empty() {
            return true;
        }
        self.handoffs += 1;
        drain.send(batch)
    }

    /// Hand the full batch to the drain side and take an empty buffer back.
    #[cold]
    fn hand_off(&mut self, reach: &DePaReach) {
        let sent = self.send(reach);
        let drain = self.drain.as_mut().expect("started by send");
        match timed_wait(&OBS_PRODUCER_STALL, || drain.free.recv()) {
            Ok(empty) if sent => self.buf = empty,
            // It hangs up before the executor does only by failing.
            _ => {
                let Err(e) = drain.join() else {
                    unreachable!("the drain side hung up with a verdict")
                };
                self.poisoned = Some(e);
            }
        }
    }
}

impl Detector<DePaReach> for OnlineEngine {
    #[inline(always)]
    fn load(&mut self, _: StrandId, addr: usize, bytes: usize, _: &DePaReach) {
        self.co.load(addr, bytes);
    }
    #[inline(always)]
    fn store(&mut self, _: StrandId, addr: usize, bytes: usize, _: &DePaReach) {
        self.co.store(addr, bytes);
    }
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        let (lo, hi) = word_range(addr, bytes);
        self.end_strand(TraceEvent::unit(TraceOp::Free, s, lo, hi), reach);
    }
    fn strand_end(&mut self, s: StrandId, reach: &DePaReach) {
        self.end_strand(TraceEvent::unit(TraceOp::StrandEnd, s, 0, 0), reach);
    }

    /// Deliver the last batch, wait for the per-shard outcomes, then merge
    /// deterministically against the frozen ranks. A program that never
    /// filled a batch starts the drain side here, planned from that batch.
    fn finish(&mut self, s: StrandId, reach: &DePaReach) {
        self.strand_end(s, reach);
        if self.poisoned.is_some() {
            return;
        }
        // The last batch: empty if the last unit filled (and sent) one, or
        // there is none.
        self.send(reach);
        let piped = self.drain.as_mut().expect("started by send").join();
        let outs = match piped {
            Ok((outs, _no_deadline)) => outs,
            Err(e) => return self.poisoned = Some(e),
        };
        let frozen = reach.freeze();
        let mut front = DetectorStats::default();
        self.co.add_to(&mut front);
        let (merged, stats, failure) = merge_shards(&outs, front, &frozen, self.spans.as_ref());
        self.outcome = Some(OnlineOutcome {
            merged,
            stats,
            events: self.events() as usize,
            strands: reach.strand_count(),
            units: self.units,
            chunks: self.handoffs + 1,
            reach_bytes: reach.heap_bytes(),
            counters: ExecCounters::default(),
            wall: Duration::default(),
            degraded: failure.or_else(|| self.co.exhausted()),
            shards: outs,
        });
    }

    fn failure(&self) -> Option<DetectorError> {
        self.poisoned
            .clone()
            .or_else(|| self.outcome.as_ref().and_then(|o| o.degraded.clone()))
    }
}

/// Run `p` once under the instrumented executor on a [`DePaReach`]
/// substrate, detecting online over `cfg.workers` pool workers. Returns the
/// merged outcome, or the structured error if the run was poisoned (a
/// worker panic) or the executor itself raised (e.g. timestamp exhaustion).
pub fn online_detect<P: CilkProgram>(
    p: &mut P,
    cfg: &OnlineConfig,
) -> Result<OnlineOutcome, DetectorError> {
    let engine = OnlineEngine::new(*cfg);
    let (ex, wall) = catch_unwind(AssertUnwindSafe(|| {
        run_with_detector_r::<P, OnlineEngine, DePaReach>(p, engine)
    }))
    .map_err(DetectorError::from_panic)?;
    let counters = ex.counters;
    let mut engine = ex.into_detector();
    OBS_HANDOFFS.add(engine.handoffs);
    OBS_DEPA_MERGES.add(engine.handoffs + u64::from(engine.outcome.is_some()));
    if let Some(err) = engine.poisoned.take() {
        return Err(err);
    }
    let mut out = engine
        .outcome
        .take()
        .ok_or_else(|| DetectorError::Poisoned {
            detail: "online engine finished without an outcome".into(),
        })?;
    out.wall = wall;
    out.counters = counters;
    let races = out.merged.regions.len() as u64;
    out.stats.publish(wall, out.strands, races);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{hooks, WideRacy};
    use crate::{batch_detect, BatchConfig};
    use stint::{detect, Cilk, Variant};

    struct Empty;
    impl CilkProgram for Empty {
        fn run<C: Cilk>(&mut self, _: &mut C) {}
    }

    fn cfg(workers: usize, seed: u64, chunk: usize) -> OnlineConfig {
        OnlineConfig {
            shards: 4,
            workers,
            steal_seed: seed,
            chunk_events: chunk,
            witnesses: false,
            budget: ResourceBudget::default(),
        }
    }

    #[test]
    fn online_matches_sequential_stint_racy_words() {
        let expected = detect(&mut WideRacy, Variant::Stint).report.racy_words();
        assert!(!expected.is_empty());
        let out = online_detect(&mut WideRacy, &cfg(2, 0, 8)).unwrap();
        assert_eq!(out.merged.racy_words, expected);
        assert!(out.degraded.is_none());
        assert!(out.chunks > 1, "chunk=8 must force multiple merge cycles");
    }

    /// A racy loop long enough that small chunks mean dozens of hand-offs.
    struct RacyLoop(usize);
    impl CilkProgram for RacyLoop {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            for i in 0..self.0 {
                let a = 0x1000 + i * 64;
                ctx.store(a, 4);
                ctx.spawn(move |c| c.store_range(a + 8, 24));
                ctx.load(a + 12, 4);
                ctx.sync();
            }
        }
    }

    /// ... and equal to `batch_detect` on the recorded hook stream — the
    /// stream whose indices the engine's event ids are — witnesses on and
    /// off.
    #[test]
    fn render_is_invariant_in_workers_seed_and_chunking() {
        let pt = hooks(&mut RacyLoop(40));
        let words = detect(&mut RacyLoop(40), Variant::Stint)
            .report
            .racy_words();
        for witnesses in [false, true] {
            let bcfg = BatchConfig {
                witnesses,
                ..BatchConfig::default()
            };
            let want = batch_detect(&pt, &bcfg).unwrap().merged;
            assert_eq!(want.racy_words, words);
            for chunk in [1, 3, 8, 4096, usize::MAX] {
                for (workers, seed) in [(1, 0), (2, 0xDEAD_BEEF), (4, 7)] {
                    let ocfg = OnlineConfig {
                        witnesses,
                        ..cfg(workers, seed, chunk)
                    };
                    let got = online_detect(&mut RacyLoop(40), &ocfg).unwrap();
                    assert_eq!(
                        got.merged.render(),
                        want.render(),
                        "witnesses={witnesses} chunk={chunk} workers={workers} seed={seed}"
                    );
                    // Hand-offs count units — a strand's runs, its frees and
                    // the end that closes them — not the hooks they stand for.
                    assert_eq!(got.events, pt.trace.len());
                    assert!(0 < got.units && got.units < got.events as u64);
                    let batches = got.units.div_ceil(chunk as u64);
                    assert_eq!(got.chunks, batches + 1, "chunk={chunk}");
                    // Workers add queries, never work: the shards take in at
                    // most 1.5x the units whatever W and the batch size.
                    let work: u64 = got.shards.iter().map(|s| s.events).sum();
                    assert!(
                        work * 2 <= got.units * 3,
                        "chunk={chunk} workers={workers}: {work} of {} units",
                        got.units
                    );
                }
            }
        }
    }

    fn run_engine<P: CilkProgram>(p: &mut P, cfg: OnlineConfig) -> OnlineEngine {
        run_with_detector_r::<P, OnlineEngine, DePaReach>(p, OnlineEngine::new(cfg))
            .0
            .into_detector()
    }

    /// A program that never fills a batch never starts a drain side while
    /// it runs: `finish` starts it, planned from the only batch, and joins
    /// it, the one way every run ends.
    #[test]
    fn sub_chunk_and_empty_programs_never_start_a_drain_side() {
        let joined = |e: &OnlineEngine| e.drain.as_ref().is_some_and(|d| d.thread.is_none());
        let units = online_detect(&mut WideRacy, &cfg(2, 0, usize::MAX))
            .unwrap()
            .units as usize;
        for chunk in [units + 1, usize::MAX] {
            let mut engine = run_engine(&mut WideRacy, cfg(2, 0, chunk));
            assert!(joined(&engine), "chunk={chunk}");
            let out = engine.take_outcome().unwrap();
            assert_eq!((out.shards.len(), out.chunks), (4, 2));
            assert!(!out.merged.is_race_free());
        }
        // One unit more and the last one fills the only batch.
        let mut engine = run_engine(&mut WideRacy, cfg(2, 0, units));
        assert!(joined(&engine));
        assert_eq!(engine.take_outcome().unwrap().chunks, 2);
        // No access, no unit: the merge alone.
        let mut engine = run_engine(&mut Empty, cfg(2, 0, 64));
        assert!(joined(&engine));
        let out = engine.take_outcome().unwrap();
        assert_eq!((out.shards.len(), out.units, out.chunks), (4, 0, 1));
    }

    #[test]
    fn a_panicking_program_hangs_up_and_joins_the_drain_side() {
        struct Dies;
        impl CilkProgram for Dies {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                RacyLoop(40).run(ctx);
                panic!("program bug");
            }
        }
        let engine = OnlineEngine::new(cfg(2, 0, 8));
        let pool = Arc::clone(&engine.pool);
        let died = catch_unwind(AssertUnwindSafe(|| {
            run_with_detector_r::<_, OnlineEngine, DePaReach>(&mut Dies, engine)
        }));
        assert!(died.is_err());
        // The unwind dropped the engine, and the drop joined the drain
        // thread: nothing but this test holds the pool any more.
        assert_eq!(Arc::strong_count(&pool), 1);
        let err = online_detect(&mut Dies, &cfg(2, 0, 8)).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("program bug"), "{err}");
    }

    #[test]
    fn race_free_program_stays_race_free_online() {
        struct Clean;
        impl CilkProgram for Clean {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                for i in 0..6usize {
                    ctx.spawn(move |c| c.store_range(0x1000 + i * 128, 128));
                }
                ctx.sync();
                ctx.load_range(0x1000, 6 * 128);
            }
        }
        let out = online_detect(&mut Clean, &cfg(3, 1, 5)).unwrap();
        assert!(out.merged.is_race_free());
        assert!(out.degraded.is_none());
        assert_eq!(out.shards.len(), 4);
    }

    #[test]
    fn empty_program_is_handled() {
        let out = online_detect(&mut Empty, &cfg(2, 0, 64)).unwrap();
        assert!(out.merged.is_race_free());
        assert_eq!(out.shards.len(), 4);
    }

    #[test]
    fn shard_budget_degrades_soundly_online() {
        let mut bcfg = cfg(2, 0, 8);
        bcfg.budget = ResourceBudget {
            max_intervals: Some(1),
            ..ResourceBudget::default()
        };
        let out = online_detect(&mut WideRacy, &bcfg).unwrap();
        let deg = out.degraded.expect("1-interval budget must trip");
        assert_eq!(deg.exit_code(), 3);
    }
}
