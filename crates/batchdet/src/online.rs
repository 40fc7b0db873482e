//! Parallel **online** detection against the live DePa substrate.
//!
//! The batch paths in this crate replay a *recorded* trace against a
//! [`stint_sporder::FrozenReach`] snapshot — reachability is immutable because execution is
//! over. This module removes the recording round-trip: the program executes
//! once under the sequential fork-join executor maintaining a
//! [`DePaReach`], and the instrumentation stream is detected **while the
//! program runs**, fanned out over the work-stealing pool in
//! bulk-synchronous chunks.
//!
//! The move that makes this sound is DePa's relabel-freedom: a strand's
//! depth-vector timestamp is assigned when the strand is created and never
//! rewritten, so `series`/`parallel`/`left_of` queries on *published*
//! strands are plain reads of immutable memory — safe to run from every
//! pool worker concurrently with no locks, while SP-Order's amortized
//! OM-list relabeling would invalidate concurrent readers mid-query. The
//! executor is paused inside a detector hook for the whole fan-out (bulk
//! synchrony), so no timestamp is *created* while workers query; every
//! strand id a buffered event mentions is already published.
//!
//! # Determinism
//!
//! The merged report is the same [`MergedReport`] normalization the batch
//! tier renders: per-word race triples, deduplicated, re-coalesced into
//! maximal runs and sorted by `(address, english rank)`. Chunking, shard
//! count, worker count and steal seed only change *which detector instance*
//! observes each per-word subsequence — never the per-word subsequence
//! itself — so the rendered bytes are identical to a one-worker run for any
//! `(workers, steal_seed, chunk_events)` choice, and the racy-interval set
//! equals what sequential STINT computes on the same program (the
//! differential battery in `tests/prop_detectors.rs` diffs both).
//!
//! # Degradation
//!
//! The exit-code contract matches the sequential and batch tiers exactly:
//! a per-shard budget trip makes that shard's detector go *dead* (sound but
//! partial) and surfaces as `degraded = ResourceExhausted` (exit 3); a
//! worker panic during a fan-out is caught at the leaf, rethrown once the
//! pool is quiescent, and poisons the whole run as
//! [`DetectorError::Poisoned`] (exit 4) — no partially-merged report is
//! published for a poisoned run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use stint::ctrace::partition_index;
use stint::{
    run_with_detector_r, CilkProgram, DePaReach, Detector, DetectorError, DetectorStats,
    EventSpans, ExecCounters, ResourceBudget, Trace, TraceEvent, TraceOp,
};
use stint_cilkrt::ThreadPool;
use stint_obs::Counter;
use stint_sporder::StrandId;

use crate::{
    fan_out, merge_shards, plan_shards, route_event, take_poison, MergedReport, ShardOutcome,
    ShardSet,
};

/// Bulk-synchronous merge cycles completed by the parallel-online engine
/// (one per chunk fan-out plus one for the final flush).
static OBS_DEPA_MERGES: Counter = Counter::new("depa.merges");

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
    /// Events buffered between bulk-synchronous fan-outs. Smaller chunks
    /// bound the buffered footprint; larger chunks amortize pool wake-ups.
    pub chunk_events: usize,
    /// Attach merge-time witnesses (see [`crate::BatchConfig::witnesses`]).
    pub witnesses: bool,
    /// Budget applied to every shard detector.
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
    /// Sum of the per-shard detector statistics.
    pub stats: DetectorStats,
    /// Instrumentation events the executor delivered (before routing).
    pub events: usize,
    pub strands: usize,
    /// Bulk-synchronous merge cycles (chunk fan-outs, final flush included).
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

/// A [`Detector`] over the live [`DePaReach`] that buffers the
/// instrumentation stream and fans each chunk out over persistent per-shard
/// [`stint::StintDetector`]s on a work-stealing pool.
///
/// Bulk-synchronous by construction: flushes happen *inside* a detector
/// hook, while the executor (and hence all timestamp maintenance) is
/// paused, so workers only ever query published, immutable timestamps.
pub struct OnlineEngine {
    cfg: OnlineConfig,
    pool: ThreadPool,
    buf: Vec<TraceEvent>,
    /// Monotone event ids for merge-time witness capture; equal to the
    /// index the event would have in a recorded trace.
    spans: Option<EventSpans>,
    ev_id: u64,
    events: usize,
    /// Materialized lazily at the first flush, once the first chunk's
    /// address histogram is known.
    plan: Option<ShardSet>,
    chunks: u64,
    /// Poison captured from a fan-out: the engine is dead from here on
    /// (hooks no-op, finish publishes nothing) and [`online_detect`]
    /// rethrows it as the run's structured error.
    poisoned: Option<DetectorError>,
    outcome: Option<OnlineOutcome>,
}

impl OnlineEngine {
    pub fn new(cfg: OnlineConfig) -> OnlineEngine {
        OnlineEngine {
            pool: crate::new_pool(cfg.workers, cfg.steal_seed),
            buf: Vec::with_capacity(cfg.chunk_events.min(1 << 16)),
            spans: cfg.witnesses.then(EventSpans::default),
            ev_id: 0,
            events: 0,
            plan: None,
            chunks: 0,
            poisoned: None,
            outcome: None,
            cfg,
        }
    }

    /// The run's structured failure, if the engine was poisoned.
    pub fn poison(&self) -> Option<&DetectorError> {
        self.poisoned.as_ref()
    }

    /// Take the finished outcome (present after a non-poisoned `finish`).
    pub fn take_outcome(&mut self) -> Option<OnlineOutcome> {
        self.outcome.take()
    }

    #[inline]
    fn record(&mut self, op: TraceOp, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        if self.poisoned.is_some() {
            return;
        }
        self.buf.push(TraceEvent {
            op,
            strand: s,
            addr,
            bytes,
        });
        if let Some(sp) = self.spans.as_mut() {
            sp.note(s, self.ev_id);
        }
        self.ev_id += 1;
        self.events += 1;
        if self.buf.len() >= self.cfg.chunk_events.max(1) {
            self.flush(reach);
        }
    }

    /// Route the buffered chunk and fan it out over the pool against the
    /// live substrate. The first flush plans the shards from the chunk's
    /// own partition index; later events outside the planned bounds still
    /// route deterministically (the router's last cut-point is `u64::MAX`
    /// and shard 0 extends down to word 0).
    fn flush(&mut self, reach: &DePaReach) {
        if self.buf.is_empty() || self.poisoned.is_some() {
            return;
        }
        if self.plan.is_none() {
            let mut probe = Trace::default();
            std::mem::swap(&mut probe.events, &mut self.buf);
            let (bounds, hist) = partition_index(&probe);
            std::mem::swap(&mut probe.events, &mut self.buf);
            let shards = plan_shards(bounds, &hist, self.cfg.shards);
            self.plan = Some(ShardSet::new(&shards, self.cfg.budget));
        }
        let plan = self.plan.as_mut().expect("planned above");
        for e in self.buf.drain(..) {
            route_event(&mut plan.router, e, &mut plan.inboxes);
        }
        let pool = &self.pool;
        let (dets, inboxes) = (&mut plan.dets, &mut plan.inboxes);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| fan_out(pool, reach, dets, inboxes));
        }));
        OBS_DEPA_MERGES.incr();
        self.chunks += 1;
        self.poisoned = match res {
            Err(p) => Some(DetectorError::from_panic(p)),
            Ok(()) => take_poison(dets).err(),
        };
    }
}

impl Detector<DePaReach> for OnlineEngine {
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        self.record(TraceOp::Load, s, addr, bytes, reach);
    }
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        self.record(TraceOp::Store, s, addr, bytes, reach);
    }
    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        self.record(TraceOp::LoadRange, s, addr, bytes, reach);
    }
    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        self.record(TraceOp::StoreRange, s, addr, bytes, reach);
    }
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &DePaReach) {
        self.record(TraceOp::Free, s, addr, bytes, reach);
    }
    fn strand_end(&mut self, s: StrandId, reach: &DePaReach) {
        self.record(TraceOp::StrandEnd, s, 0, 0, reach);
    }

    /// Final flush, per-shard finish against the live substrate, then the
    /// deterministic merge against the frozen ranks.
    fn finish(&mut self, s: StrandId, reach: &DePaReach) {
        self.record(TraceOp::StrandEnd, s, 0, 0, reach);
        self.flush(reach);
        if self.poisoned.is_some() {
            return;
        }
        // No instrumented accesses at all: synthesize the empty shard set so
        // the outcome shape matches what was asked for.
        let plan = self.plan.take().unwrap_or_else(|| {
            ShardSet::new(&plan_shards(None, &[], self.cfg.shards), self.cfg.budget)
        });
        let frozen = reach.freeze();
        let outs: Vec<ShardOutcome> = plan.dets.into_iter().map(|d| d.finish(reach, s)).collect();
        let (merged, stats, degraded) = merge_shards(&outs, &frozen, self.spans.as_ref());
        OBS_DEPA_MERGES.incr();
        self.chunks += 1;
        self.outcome = Some(OnlineOutcome {
            merged,
            stats,
            events: self.events,
            strands: reach.strand_count(),
            chunks: self.chunks,
            reach_bytes: reach.heap_bytes(),
            counters: ExecCounters::default(),
            wall: Duration::default(),
            degraded,
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{batch_detect, BatchConfig};
    use stint::{detect, Cilk, PortableTrace, Variant};

    struct WideRacy;
    impl CilkProgram for WideRacy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                c.store_range(0x100, 64);
                c.load(0x200, 8);
            });
            ctx.store_range(0x120, 64);
            ctx.sync();
            ctx.free(0x100, 32);
            ctx.spawn(|c| c.store(0x104, 4));
            ctx.load(0x104, 4);
            ctx.sync();
        }
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

    #[test]
    fn render_is_invariant_in_workers_seed_and_chunking() {
        let baseline = online_detect(&mut WideRacy, &cfg(1, 0, usize::MAX))
            .unwrap()
            .merged
            .render();
        for (w, seed, chunk) in [(1, 0, 4), (2, 0, 16), (4, 0xDEAD_BEEF, 3), (8, 7, 1)] {
            let got = online_detect(&mut WideRacy, &cfg(w, seed, chunk))
                .unwrap()
                .merged
                .render();
            assert_eq!(got, baseline, "workers={w} seed={seed} chunk={chunk}");
        }
    }

    #[test]
    fn online_render_matches_batch_render() {
        let pt = PortableTrace::record(&mut WideRacy);
        let batch = batch_detect(&pt, &BatchConfig::default()).unwrap();
        let online = online_detect(&mut WideRacy, &cfg(2, 0, 16)).unwrap();
        assert_eq!(online.merged.render(), batch.merged.render());
        assert_eq!(online.events, pt.trace.len());
        assert_eq!(online.strands, pt.reach.strand_count());
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
        struct Empty;
        impl CilkProgram for Empty {
            fn run<C: Cilk>(&mut self, _: &mut C) {}
        }
        let out = online_detect(&mut Empty, &cfg(2, 0, 64)).unwrap();
        assert!(out.merged.is_race_free());
        assert_eq!(out.shards.len(), 4);
    }

    #[test]
    fn witnessed_online_regions_verify() {
        let mut wcfg = cfg(2, 0, 8);
        wcfg.witnesses = true;
        let out = online_detect(&mut WideRacy, &wcfg).unwrap();
        assert!(!out.merged.regions.is_empty());
        assert!(out.merged.regions.iter().all(|r| r.witness.is_some()));
        // Witness capture is merge-time and span-table-driven, exactly like
        // batch: the same program recorded and batch-detected with
        // witnesses renders the same bytes.
        let pt = PortableTrace::record(&mut WideRacy);
        let bcfg = BatchConfig {
            witnesses: true,
            ..BatchConfig::default()
        };
        let batch = batch_detect(&pt, &bcfg).unwrap();
        assert_eq!(out.merged.render(), batch.merged.render());
        let checker = stint::WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        for r in &out.merged.regions {
            checker.check(r).unwrap();
        }
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
