//! Benchmark-owned detectors for the rung ladder and the isolated replays.
//!
//! The ladder runs one program under successively fuller stacks, so the self
//! time of each layer is the difference of two rungs and the self times sum
//! to the end-to-end time by construction:
//!
//! | rung | stack | layer it adds |
//! |---|---|---|
//! | 0 | `BaseExec` | the uninstrumented program |
//! | 1 | `Executor<NopDetector>` | reachability maintenance |
//! | 2 | `Executor<CountingDetector>` | hook dispatch |
//! | 3 | `Executor<CoalesceDetector>` | `SetFilter` + `BitShadow` coalescing |
//! | 4 | `detect_with` | the access history, its queries and the report |
//!
//! Rung 4 − rung 3 is then split by replaying what rung 3 captured: the
//! strands' sorted runs through the interval store with the reachability
//! answers precomputed, and the `(old, cur)` query pairs through
//! `FrozenReach`.

use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

use stint::stint_det::TOMBSTONE;
use stint::{
    Detector, DetectorStats, FrozenReach, Interval, IntervalStore, OpStats, RaceReport,
    Reachability, StintDetector, StrandId,
};
use stint_cilk::word_range;
use stint_shadow::{BitShadow, SetFilter, WordIv};

/// Rung 2: counts what the executor dispatches and does nothing else.
#[derive(Default)]
pub struct CountingDetector {
    /// Detector callbacks delivered (access hooks, frees and strand ends).
    pub events: u64,
    pub bytes: u64,
}

impl<R: Reachability> Detector<R> for CountingDetector {
    #[inline]
    fn load(&mut self, _: StrandId, _: usize, bytes: usize, _: &R) {
        self.events += 1;
        self.bytes += bytes as u64;
    }
    #[inline]
    fn store(&mut self, _: StrandId, _: usize, bytes: usize, _: &R) {
        self.events += 1;
        self.bytes += bytes as u64;
    }
    #[inline]
    fn free(&mut self, _: StrandId, _: usize, _: usize, _: &R) {
        self.events += 1;
    }
    #[inline]
    fn strand_end(&mut self, _: StrandId, _: &R) {
        self.events += 1;
    }
}

/// One step of what the access history is asked to do, in flush order.
pub enum Step {
    /// A strand-end flush: `runs[reads]` and `runs[writes]` are the strand's
    /// sorted, disjoint read and write intervals.
    Flush {
        s: StrandId,
        reads: Range<usize>,
        writes: Range<usize>,
    },
    /// The program freed `[lo, hi)` while `s` ran: both trees get a tombstone.
    Free { s: StrandId, lo: u64, hi: u64 },
}

/// The interval stream rung 3 produced: everything rung 4's access history
/// consumes, with none of the work that produced it.
#[derive(Default)]
pub struct Capture {
    pub steps: Vec<Step>,
    pub runs: Vec<WordIv>,
}

/// Rung 3: the product's hook path up to and including coalescing — the
/// redundant-set filter, `BitShadow::set_range` per hook and
/// `extract_and_clear` per strand end — with no access history behind it.
#[derive(Default)]
pub struct CoalesceDetector {
    reads: BitShadow,
    writes: BitShadow,
    read_filter: SetFilter,
    write_filter: SetFilter,
    scratch_r: Vec<WordIv>,
    scratch_w: Vec<WordIv>,
    pub words: u64,
    pub intervals: u64,
    /// Time inside `extract_and_clear`; only measured when capturing, so the
    /// clock reads stay out of the timed rung.
    pub extract: Duration,
    pub capture: Option<Capture>,
}

impl CoalesceDetector {
    /// A detector that also records the interval stream and times extraction.
    pub fn capturing() -> CoalesceDetector {
        CoalesceDetector {
            capture: Some(Capture::default()),
            ..CoalesceDetector::default()
        }
    }

    pub fn filter_hits(&self) -> u64 {
        self.read_filter.hits + self.write_filter.hits
    }

    pub fn heap_bytes(&self) -> u64 {
        self.reads.heap_bytes() + self.writes.heap_bytes()
    }

    #[inline]
    fn hook(
        table: &mut BitShadow,
        filter: &mut SetFilter,
        words: &mut u64,
        addr: usize,
        bytes: usize,
    ) {
        let (lo, hi) = word_range(addr, bytes);
        *words += hi - lo;
        if !filter.covers(lo, hi) {
            table.set_range(lo, hi);
            if lo < hi {
                filter.record(lo, hi);
            }
        }
    }

    fn flush(&mut self, s: StrandId) {
        if self.reads.is_clear() && self.writes.is_clear() {
            return;
        }
        self.scratch_r.clear();
        self.scratch_w.clear();
        let t0 = self.capture.is_some().then(Instant::now);
        self.reads.extract_and_clear(&mut self.scratch_r);
        self.writes.extract_and_clear(&mut self.scratch_w);
        if let Some(t0) = t0 {
            self.extract += t0.elapsed();
        }
        self.read_filter.reset();
        self.write_filter.reset();
        self.intervals += (self.scratch_r.len() + self.scratch_w.len()) as u64;
        if let Some(cap) = &mut self.capture {
            let r0 = cap.runs.len();
            cap.runs.extend_from_slice(&self.scratch_r);
            let w0 = cap.runs.len();
            cap.runs.extend_from_slice(&self.scratch_w);
            cap.steps.push(Step::Flush {
                s,
                reads: r0..w0,
                writes: w0..cap.runs.len(),
            });
        }
    }
}

impl<R: Reachability> Detector<R> for CoalesceDetector {
    #[inline]
    fn load(&mut self, _: StrandId, addr: usize, bytes: usize, _: &R) {
        Self::hook(
            &mut self.reads,
            &mut self.read_filter,
            &mut self.words,
            addr,
            bytes,
        );
    }
    #[inline]
    fn store(&mut self, _: StrandId, addr: usize, bytes: usize, _: &R) {
        Self::hook(
            &mut self.writes,
            &mut self.write_filter,
            &mut self.words,
            addr,
            bytes,
        );
    }
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, _: &R) {
        self.flush(s);
        if let Some(cap) = &mut self.capture {
            let (lo, hi) = word_range(addr, bytes);
            cap.steps.push(Step::Free { s, lo, hi });
        }
    }
    fn strand_end(&mut self, s: StrandId, _: &R) {
        self.flush(s);
    }
}

/// Which reachability question a flush asked.
#[derive(Clone, Copy)]
pub enum Query {
    /// `parallel(old, cur)`.
    Parallel(StrandId, StrandId),
    /// `left_of(cur, old)`.
    CurLeftOf(StrandId, StrandId),
}

/// Answers the reachability questions of a history replay.
pub trait Oracle {
    fn ask(&mut self, q: Query) -> bool;
}

/// Answers from the frozen orders, remembering every question and answer.
pub struct Recording<'a> {
    pub reach: &'a FrozenReach,
    pub asked: Vec<Query>,
    pub answers: Vec<bool>,
}

impl Oracle for Recording<'_> {
    fn ask(&mut self, q: Query) -> bool {
        let a = match q {
            Query::Parallel(old, cur) => self.reach.parallel(old, cur),
            Query::CurLeftOf(cur, old) => self.reach.left_of(cur, old),
        };
        self.asked.push(q);
        self.answers.push(a);
        a
    }
}

/// Plays recorded answers back in order: a replay through the same store
/// asks the same questions in the same order, at the cost of one load each.
pub struct Playback<'a> {
    pub answers: &'a [bool],
    pub next: usize,
}

impl Oracle for Playback<'_> {
    #[inline]
    fn ask(&mut self, _: Query) -> bool {
        let a = self.answers[self.next];
        self.next += 1;
        a
    }
}

/// One conflict check of a flush. A stored accessor that *is* the current
/// strand is answered without a query, as the product's reach cache does.
#[inline]
fn conflict(old: StrandId, s: StrandId, oracle: &mut impl Oracle, conflicts: &mut u64) {
    if old != TOMBSTONE && old != s && oracle.ask(Query::Parallel(old, s)) {
        *conflicts += 1;
    }
}

/// Push a captured interval stream through a read and a write store exactly
/// as `IntervalDetector::flush` (batched hot path) and `free` do. Returns the
/// stores' merged operation counters and the number of conflicts seen.
pub fn replay_history<S: IntervalStore<StrandId>>(
    cap: &Capture,
    mut read_tree: S,
    mut write_tree: S,
    oracle: &mut impl Oracle,
) -> (OpStats, u64) {
    let mut conflicts = 0u64;
    for step in &cap.steps {
        match step {
            Step::Flush { s, reads, writes } => {
                let s = *s;
                let (reads, writes) = (&cap.runs[reads.clone()], &cap.runs[writes.clone()]);
                for &(lo, hi) in reads {
                    write_tree.query_overlaps(lo, hi, |old, _, _| {
                        conflict(old, s, oracle, &mut conflicts)
                    });
                }
                read_tree.insert_reads_for(s, reads, |old| {
                    old == TOMBSTONE || (old != s && oracle.ask(Query::CurLeftOf(s, old)))
                });
                for &(lo, hi) in writes {
                    read_tree.query_overlaps(lo, hi, |old, _, _| {
                        conflict(old, s, oracle, &mut conflicts)
                    });
                }
                write_tree.insert_writes_for(s, writes, |old, _, _| {
                    conflict(old, s, oracle, &mut conflicts)
                });
            }
            Step::Free { lo, hi, .. } => {
                if lo < hi {
                    read_tree.insert_write(Interval::new(*lo, *hi, TOMBSTONE), |_, _, _| {});
                    write_tree.insert_write(Interval::new(*lo, *hi, TOMBSTONE), |_, _, _| {});
                }
            }
        }
    }
    let mut ops = read_tree.stats();
    ops.merge(&write_tree.stats());
    (ops, conflicts)
}

/// Feed a captured interval stream back to the product's own detector as
/// range hooks over the frozen orders, and return its statistics. The capture
/// pass ran on buffers of its own, and how often stored intervals overlap
/// (hence how many questions get asked) depends on where the allocator put
/// them — so the probes are held against the product on *this* stream, not
/// against another run's.
pub fn feed_product(cap: &Capture, reach: &FrozenReach) -> DetectorStats {
    let mut det = StintDetector::new(RaceReport::default());
    let d: &mut dyn Detector<FrozenReach> = &mut det;
    let mut last = StrandId(0);
    for step in &cap.steps {
        match step {
            Step::Flush { s, reads, writes } => {
                for &(lo, hi) in &cap.runs[reads.clone()] {
                    d.load_range(*s, lo as usize * 4, (hi - lo) as usize * 4, reach);
                }
                for &(lo, hi) in &cap.runs[writes.clone()] {
                    d.store_range(*s, lo as usize * 4, (hi - lo) as usize * 4, reach);
                }
                d.strand_end(*s, reach);
                last = *s;
            }
            Step::Free { s, lo, hi } => {
                d.free(*s, *lo as usize * 4, (hi - lo) as usize * 4, reach);
                last = *s;
            }
        }
    }
    d.finish(last, reach);
    det.stats
}

/// Time the recorded questions against the frozen orders; seconds in total.
pub fn replay_queries(reach: &FrozenReach, asked: &[Query]) -> f64 {
    let t0 = Instant::now();
    let mut yes = 0u64;
    for q in asked {
        yes += u64::from(match *q {
            Query::Parallel(old, cur) => reach.parallel(old, cur),
            Query::CurLeftOf(cur, old) => reach.left_of(cur, old),
        });
    }
    black_box(yes);
    t0.elapsed().as_secs_f64()
}
