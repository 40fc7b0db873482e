//! Cilk-style fork-join substrate.
//!
//! The paper's tool instruments Cilk programs with the Tapir/OpenCilk
//! compiler: every load/store gets a `__load_hook`/`__store_hook` call, and
//! accesses the compiler can prove contiguous get a single
//! `__coalesced_load_hook`/`__coalesced_store_hook` call (compile-time
//! coalescing, Section 3.1). Rust has no such pass to modify, so this crate
//! *simulates the instrumented binary*: programs are written against the
//! [`Cilk`] trait, calling [`Cilk::spawn`]/[`Cilk::sync`] for parallel
//! control and the four hook methods for memory accesses. The hook stream an
//! executor observes is exactly the stream the paper's instrumented binaries
//! produce.
//!
//! Two executors interpret that trait:
//!
//! * [`BaseExec`] — runs the program with all hooks compiled to nothing
//!   (the paper's *baseline*; generic dispatch means the no-op hooks inline
//!   away);
//! * [`Executor`] — the *sequential depth-first* executor used for
//!   detection: it runs spawned children immediately (Cilk's serial
//!   elision), maintains SP-Order reachability across spawn/sync, tracks the
//!   current strand, and forwards hooks to a pluggable [`Detector`].
//!
//! Detection is sequential by design — the paper's STINT is a sequential
//! race detector (parallelizing it is listed as future work).

use stint_sporder::{ReachMaint, Reachability, SpOrder, StrandId};

/// The instrumented-program interface: parallel control plus memory hooks.
///
/// Programs are generic over `C: Cilk`, so hook calls statically dispatch
/// and inline into whichever executor runs them.
pub trait Cilk: Sized {
    /// Spawn `f`: it is allowed to run in parallel with the continuation of
    /// the caller, and joins at the enclosing function's next [`Cilk::sync`]
    /// (or at its implicit sync on return). The sequential executors run `f`
    /// immediately (depth-first), matching Cilk's serial elision.
    fn spawn(&mut self, f: impl FnOnce(&mut Self));

    /// Wait for all children spawned by the current function since the
    /// previous sync.
    fn sync(&mut self);

    /// A serial function call with its own sync scope: a Cilk function
    /// implicitly syncs its children before returning. Use this when a
    /// helper that spawns is called *without* being spawned itself.
    fn call(&mut self, f: impl FnOnce(&mut Self)) {
        f(self);
        self.sync(); // correct only for executors without call frames
    }

    /// Plain load instrumentation: the program read `bytes` bytes at `addr`.
    fn load(&mut self, addr: usize, bytes: usize);
    /// Plain store instrumentation: the program wrote `bytes` bytes at `addr`.
    fn store(&mut self, addr: usize, bytes: usize);

    /// Compiler-coalesced load: the compiler proved the strand reads the
    /// whole contiguous range `[addr, addr+bytes)` (Algorithm 1 in the
    /// paper). Executors modelling the *unmodified* compiler may treat this
    /// like per-word plain loads.
    fn load_range(&mut self, addr: usize, bytes: usize) {
        self.load(addr, bytes)
    }
    /// Compiler-coalesced store; see [`Cilk::load_range`].
    fn store_range(&mut self, addr: usize, bytes: usize) {
        self.store(addr, bytes)
    }

    /// Allocator integration: the program is about to free `[addr,
    /// addr+bytes)`. Detectors clear the region's access history so that a
    /// logically parallel strand reusing the same heap addresses is not
    /// reported as racing with accesses to the *previous* allocation (the
    /// same reason production race detectors intercept `free`/`munmap`).
    fn free(&mut self, addr: usize, bytes: usize) {
        let _ = (addr, bytes);
    }
}

/// A program that can be executed under any [`Cilk`] executor.
pub trait CilkProgram {
    /// Execute the program, issuing parallel control and memory hooks on
    /// `ctx`. Programs may mutate their own state (they run on real data);
    /// they must behave deterministically so that repeated runs under
    /// different executors observe the same logical access stream.
    fn run<C: Cilk>(&mut self, ctx: &mut C);
}

/// Convert a byte range into the paper's 4-byte shadow-word range
/// `[start, end)` (end exclusive). Zero-byte accesses yield empty ranges.
#[inline]
pub fn word_range(addr: usize, bytes: usize) -> (u64, u64) {
    if bytes == 0 {
        let w = (addr >> 2) as u64;
        return (w, w);
    }
    ((addr >> 2) as u64, ((addr + bytes + 3) >> 2) as u64)
}

/// Observer of the instrumented execution: receives every hook with the
/// current strand, and a notification whenever a strand ends (which is where
/// runtime coalescing flushes).
///
/// `reach` grants O(1) `series`/`parallel`/`left_of` queries about any
/// strands observed so far.
/// The reachability component is pluggable (`R`): the fork-join executor
/// uses SP-Order, while `stint-grid` drives the same detectors with a
/// coordinate-based 2-D reachability (the paper's §7 generalization).
pub trait Detector<R: Reachability = SpOrder> {
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R);
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R);
    /// Compiler-coalesced load hook. Default: forward to [`Detector::load`].
    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.load(s, addr, bytes, reach)
    }
    /// Compiler-coalesced store hook. Default: forward to [`Detector::store`].
    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.store(s, addr, bytes, reach)
    }
    /// The program frees `[addr, addr+bytes)` while `s` executes. Clear the
    /// region's recorded access history (see [`Cilk::free`]). Default: no-op.
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        let _ = (s, addr, bytes, reach);
    }
    /// The strand `s` has ended (a spawn, sync or return follows). All of its
    /// accesses have been delivered.
    fn strand_end(&mut self, s: StrandId, reach: &R);
    /// The computation has ended; `s` is the final strand.
    fn finish(&mut self, s: StrandId, reach: &R) {
        self.strand_end(s, reach);
    }
    /// The first structured failure the detector recorded, if any. A failed
    /// detector has gone *dead*: it stopped extending its access history at
    /// the failure point, so its report is sound (no false races) but only
    /// complete up to that point. Default: never fails.
    fn failure(&self) -> Option<stint_faults::DetectorError> {
        None
    }
}

/// Detector that ignores everything — running [`Executor`] with it measures
/// the pure *reachability* overhead (the `reach.` column of Figure 1).
#[derive(Default, Clone, Copy, Debug)]
pub struct NopDetector;

impl<R: Reachability> Detector<R> for NopDetector {
    #[inline]
    fn load(&mut self, _: StrandId, _: usize, _: usize, _: &R) {}
    #[inline]
    fn store(&mut self, _: StrandId, _: usize, _: usize, _: &R) {}
    #[inline]
    fn strand_end(&mut self, _: StrandId, _: &R) {}
}

/// Baseline executor: no reachability, no detection, hooks are no-ops that
/// inline away. Measures the program's uninstrumented serial running time.
#[derive(Default, Clone, Copy, Debug)]
pub struct BaseExec;

impl Cilk for BaseExec {
    #[inline]
    fn spawn(&mut self, f: impl FnOnce(&mut Self)) {
        f(self)
    }
    #[inline]
    fn sync(&mut self) {}
    #[inline]
    fn call(&mut self, f: impl FnOnce(&mut Self)) {
        f(self)
    }
    #[inline]
    fn load(&mut self, _: usize, _: usize) {}
    #[inline]
    fn store(&mut self, _: usize, _: usize) {}
    #[inline]
    fn load_range(&mut self, _: usize, _: usize) {}
    #[inline]
    fn store_range(&mut self, _: usize, _: usize) {}
    #[inline]
    fn free(&mut self, _: usize, _: usize) {}
}

/// Run `p` under the baseline executor and return its wall-clock time.
pub fn run_baseline<P: CilkProgram>(p: &mut P) -> std::time::Duration {
    let start = std::time::Instant::now();
    p.run(&mut BaseExec);
    start.elapsed()
}

struct Frame {
    /// The sync strand of the currently open sync block, created lazily at
    /// the block's first spawn (see `stint-sporder` docs for why it must be
    /// created *before* the first child).
    sync_strand: Option<StrandId>,
}

/// Counters maintained by the sequential executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounters {
    pub spawns: u64,
    pub syncs: u64,
    /// Syncs that actually joined at least one child.
    pub effective_syncs: u64,
    pub calls: u64,
}

/// The sequential depth-first executor: runs the program in Cilk's serial
/// order while maintaining a reachability substrate and feeding a
/// [`Detector`].
///
/// Generic over the substrate via [`ReachMaint`]: `SpOrder` (the default)
/// or the relabel-free `DePaReach`. The executor issues the identical
/// maintenance call sequence to every substrate, so strand ids, lineage and
/// frozen ranks are substrate-independent.
pub struct Executor<D, R = SpOrder>
where
    R: ReachMaint,
    D: Detector<R>,
{
    pub reach: R,
    pub det: D,
    pub counters: ExecCounters,
    cur: StrandId,
    frames: Vec<Frame>,
}

impl<D, R> Executor<D, R>
where
    R: ReachMaint,
    D: Detector<R>,
{
    pub fn new(det: D) -> Self {
        let (reach, root) = R::init();
        Executor {
            reach,
            det,
            counters: ExecCounters::default(),
            cur: root,
            frames: vec![Frame { sync_strand: None }],
        }
    }

    /// The strand currently executing.
    #[inline]
    pub fn current_strand(&self) -> StrandId {
        self.cur
    }

    /// Execute a whole program: runs it, performs the root function's
    /// implicit sync and delivers the final flush to the detector.
    pub fn execute<P: CilkProgram>(&mut self, p: &mut P) {
        p.run(self);
        self.sync_current_frame();
        self.det.finish(self.cur, &self.reach);
    }

    /// Consume the executor, returning the detector.
    pub fn into_detector(self) -> D {
        self.det
    }

    /// Total number of strands created.
    pub fn strand_count(&self) -> usize {
        self.reach.strand_count()
    }

    fn sync_current_frame(&mut self) {
        self.counters.syncs += 1;
        if let Some(j) = self.frames.last_mut().unwrap().sync_strand.take() {
            self.counters.effective_syncs += 1;
            self.det.strand_end(self.cur, &self.reach);
            self.cur = j;
        }
    }
}

impl<D, R> Cilk for Executor<D, R>
where
    R: ReachMaint,
    D: Detector<R>,
{
    fn spawn(&mut self, f: impl FnOnce(&mut Self)) {
        self.counters.spawns += 1;
        // The spawning strand ends here.
        self.det.strand_end(self.cur, &self.reach);
        // Lazily open the sync block (the sync strand must be created before
        // the first child so later insertions land before it in both orders).
        let frame = self.frames.last_mut().unwrap();
        if frame.sync_strand.is_none() {
            frame.sync_strand = Some(self.reach.new_sync_strand(self.cur));
        }
        let s = self.reach.spawn(self.cur);
        // Run the child to completion (depth-first serial order).
        self.frames.push(Frame { sync_strand: None });
        self.cur = s.child;
        f(self);
        // Implicit sync at the spawned function's return, then the child's
        // final strand ends.
        self.sync_current_frame();
        self.det.strand_end(self.cur, &self.reach);
        self.frames.pop();
        self.reach.child_return(self.cur);
        self.cur = s.continuation;
    }

    fn sync(&mut self) {
        self.sync_current_frame();
    }

    fn call(&mut self, f: impl FnOnce(&mut Self)) {
        self.counters.calls += 1;
        // A serial call continues the current strand but opens a fresh sync
        // scope; its implicit sync runs at return.
        self.reach.call_enter(self.cur);
        self.frames.push(Frame { sync_strand: None });
        f(self);
        self.sync_current_frame();
        self.frames.pop();
        self.reach.call_exit(self.cur);
    }

    #[inline]
    fn load(&mut self, addr: usize, bytes: usize) {
        self.det.load(self.cur, addr, bytes, &self.reach);
    }
    #[inline]
    fn store(&mut self, addr: usize, bytes: usize) {
        self.det.store(self.cur, addr, bytes, &self.reach);
    }
    #[inline]
    fn load_range(&mut self, addr: usize, bytes: usize) {
        self.det.load_range(self.cur, addr, bytes, &self.reach);
    }
    #[inline]
    fn store_range(&mut self, addr: usize, bytes: usize) {
        self.det.store_range(self.cur, addr, bytes, &self.reach);
    }

    #[inline]
    fn free(&mut self, addr: usize, bytes: usize) {
        self.det.free(self.cur, addr, bytes, &self.reach);
    }
}

/// Run `p` under the sequential executor with detector `det`; returns the
/// executor (holding the detector, reachability and counters) and the
/// wall-clock time.
pub fn run_with_detector<P: CilkProgram, D: Detector>(
    p: &mut P,
    det: D,
) -> (Executor<D>, std::time::Duration) {
    run_with_detector_r::<P, D, SpOrder>(p, det)
}

/// As [`run_with_detector`], but with an explicit reachability substrate
/// (e.g. `DePaReach` for relabel-free timestamps).
pub fn run_with_detector_r<P, D, R>(p: &mut P, det: D) -> (Executor<D, R>, std::time::Duration)
where
    P: CilkProgram,
    R: ReachMaint,
    D: Detector<R>,
{
    let mut ex = Executor::<D, R>::new(det);
    let start = std::time::Instant::now();
    ex.execute(p);
    (ex, start.elapsed())
}

/// Run `p` with reachability maintenance but no detection (the `reach.`
/// column of Figure 1); returns the wall-clock time.
pub fn run_reach_only<P: CilkProgram>(p: &mut P) -> std::time::Duration {
    run_with_detector(p, NopDetector).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Detector that records (strand, kind, addr, bytes) events.
    #[derive(Default)]
    struct Recorder {
        events: Vec<(StrandId, &'static str, usize, usize)>,
        ends: Vec<StrandId>,
        #[allow(dead_code)] // exercised only as a RefCell-interior-mutability pattern check
        pairs_checked: RefCell<Vec<(StrandId, StrandId, bool)>>,
    }
    impl Detector for Recorder {
        fn load(&mut self, s: StrandId, a: usize, b: usize, _: &SpOrder) {
            self.events.push((s, "r", a, b));
        }
        fn store(&mut self, s: StrandId, a: usize, b: usize, _: &SpOrder) {
            self.events.push((s, "w", a, b));
        }
        fn load_range(&mut self, s: StrandId, a: usize, b: usize, _: &SpOrder) {
            self.events.push((s, "R", a, b));
        }
        fn store_range(&mut self, s: StrandId, a: usize, b: usize, _: &SpOrder) {
            self.events.push((s, "W", a, b));
        }
        fn strand_end(&mut self, s: StrandId, _: &SpOrder) {
            self.ends.push(s);
        }
    }

    struct Two;
    impl CilkProgram for Two {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.store(0, 4);
            ctx.spawn(|c| c.store(0, 4));
            ctx.store(8, 4);
            ctx.sync();
            ctx.load_range(0, 16);
        }
    }

    #[test]
    fn executor_assigns_distinct_strands() {
        let (ex, _) = run_with_detector(&mut Two, Recorder::default());
        let ev = &ex.det.events;
        assert_eq!(ev.len(), 4);
        let root = ev[0].0;
        let child = ev[1].0;
        let cont = ev[2].0;
        let after = ev[3].0;
        assert_ne!(root, child);
        assert_ne!(child, cont);
        assert_ne!(cont, after);
        assert!(ex.reach.parallel(child, cont));
        assert!(ex.reach.series(root, child));
        assert!(ex.reach.series(child, after));
        assert!(ex.reach.series(cont, after));
        assert_eq!(ev[3].1, "R", "coalesced hook reaches detector as range");
    }

    #[test]
    fn strand_ends_cover_all_access_strands() {
        let (ex, _) = run_with_detector(&mut Two, Recorder::default());
        for (s, _, _, _) in &ex.det.events {
            assert!(
                ex.det.ends.contains(s),
                "strand {s:?} accessed memory but never flushed"
            );
        }
    }

    #[test]
    fn baseline_runs_program() {
        // Smoke: program logic executes under BaseExec (side effects happen).
        struct Sum(u64, u64);
        impl CilkProgram for Sum {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                let n = self.0;
                let mut l = 0;
                ctx.spawn(|_| l = (0..n).sum::<u64>());
                let r = (n..2 * n).sum::<u64>();
                ctx.sync();
                self.1 = l + r;
            }
        }
        let mut p = Sum(10, 0);
        run_baseline(&mut p);
        assert_eq!(p.1, (0..20).sum::<u64>());
        let mut p2 = Sum(10, 0);
        run_reach_only(&mut p2);
        assert_eq!(p2.1, (0..20).sum::<u64>());
    }

    #[test]
    fn call_scopes_sync_to_callee() {
        // call { spawn A; }  B   — A must be serial before B thanks to the
        // callee's implicit sync.
        struct P;
        impl CilkProgram for P {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                ctx.call(|c| {
                    c.spawn(|c| c.store(0, 4));
                });
                ctx.store(0, 4);
            }
        }
        let (ex, _) = run_with_detector(&mut P, Recorder::default());
        let a = ex.det.events[0].0;
        let b = ex.det.events[1].0;
        assert!(
            ex.reach.series(a, b),
            "call's implicit sync must order A before B"
        );
    }

    #[test]
    fn nested_sync_blocks() {
        struct P;
        impl CilkProgram for P {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                ctx.spawn(|c| c.store(0, 4)); // block 1 child
                ctx.sync();
                ctx.spawn(|c| c.store(4, 4)); // block 2 child
                ctx.sync();
                ctx.store(8, 4);
            }
        }
        let (ex, _) = run_with_detector(&mut P, Recorder::default());
        let a = ex.det.events[0].0;
        let b = ex.det.events[1].0;
        let c = ex.det.events[2].0;
        assert!(ex.reach.series(a, b));
        assert!(ex.reach.series(b, c));
        assert_eq!(ex.counters.spawns, 2);
        assert!(ex.counters.effective_syncs >= 2);
    }

    #[test]
    fn word_range_conversion() {
        assert_eq!(word_range(0, 4), (0, 1));
        assert_eq!(word_range(0, 8), (0, 2));
        assert_eq!(word_range(2, 4), (0, 2)); // unaligned spans two words
        assert_eq!(word_range(4, 1), (1, 2));
        assert_eq!(word_range(7, 2), (1, 3));
        assert_eq!(word_range(16, 0), (4, 4)); // empty
    }
}
