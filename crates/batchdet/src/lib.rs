//! Sharded batch-mode race detection over recorded traces.
//!
//! The on-the-fly detectors in `stint` interleave detection with the
//! program's own execution on a single thread. This crate runs detection as
//! a **batch job** over a recorded trace, read as its runs one chunk at a
//! time ([`stint::RunSource`]: a v2 file, a v1 file parsed whole, or a
//! [`PortableTrace`] in memory) against its [`FrozenReach`] snapshot of
//! SP-Order. The `series`/`parallel`/`left_of` relation is *read-only*:
//! every query is a pair of rank comparisons on immutable vectors, safe to
//! share across threads with no synchronization.
//!
//! 1. **Partition the event stream in one O(n) pass**: the 4-byte-word
//!    address space touched by the trace is split into `K` contiguous
//!    shards at *event-weight quantiles* of the header's bucketed access
//!    histogram (so shards are load-balanced, not just width-balanced). A
//!    single scan takes each access as one unit — a contiguous run of a v2
//!    file **wholesale**, as one range — and routes it to exactly the
//!    shards its word range overlaps (clipped at the boundary). A recorded
//!    trace stores each strand's maximal disjoint runs, so its units are
//!    the intervals sequential STINT's coalescer hands out; the batch tier
//!    owns no coalescer. The interval, not the event, is what crosses into
//!    the shards.
//! 2. **Drain the per-shard inboxes** as fork-join tasks on the
//!    `stint-cilkrt` work-stealing pool; each shard flushes the runs routed
//!    to it through a private [`stint::IntervalHistory`] — the back half of
//!    sequential STINT. A strand whose runs reach a shard out of order, or
//!    touching (a hook-level file's second access to a word, or one next
//!    to the last), has them sorted and joined — at its flush, and sooner
//!    once they pile up.
//!
//! The two steps are software-pipelined, one chunk at a time (`pipeline`):
//! chunk *n+1* is routed while chunk *n* drains, so a trace
//! costs the detectors' state plus two chunks. A byte stream of either
//! format enters by one door, [`batch_detect_any`], which reads the magic
//! line ([`stint::open_any`]).
//!
//! # Why address sharding preserves the race set
//!
//! The access history is keyed by address: whether two accesses race
//! depends only on the per-word history of that word and the (frozen)
//! SP-Order relation, never on accesses to other words. Between two strand
//! ends or frees, sequential STINT's coalescer takes a strand's accesses and
//! hands out the maximal runs of their union, per side. Here every unit of
//! the strand reaches the shards it overlaps, so the union of a side's
//! units in a shard is the strand's, clipped at the shard. A shard that
//! receives a side's runs out of order, or touching, sorts them and joins
//! those that overlap or touch before it flushes: it flushes the maximal
//! runs of the union, clipped at the shard — the intervals sequential STINT
//! flushes, strand by strand. Joining earlier, while the strand's runs
//! pile up, changes only how many runs wait, not their union. It must be
//! one flush: `flush_runs` checks a strand's reads before it records its
//! writes, so a strand flushed in two would check a read against its own
//! earlier write, not a parallel writer's, and lose that write-read race.
//! Routing each run to the
//! shards it overlaps preserves, per word, that exact sequence of
//! `(strand, kind)` entries; the only difference is interval *fragmentation*,
//! which happens when a run is routed (a run straddling a shard boundary
//! becomes one clipped piece per shard) and is a per-word no-op. A shard
//! flushes a strand's pieces at the strand's end marker (sent only to the
//! shards the strand's runs reached) and, before tombstoning, at a free. A
//! free in mid-strand also sends that marker to every shard still holding
//! the strand's earlier runs, since sequential STINT flushes the strand
//! there too: the runs after the free are a flush of their own on both
//! sides. Quantile (instead of equal-width) boundaries keep the shards
//! contiguous, so the argument is unchanged. A wholesale-consumed run tiles
//! memory contiguously (`stride == bytes`, word-aligned), so its one range
//! set covers exactly the words of its expanded events. Hence the per-word
//! set of race triples `(word, kind, prev, cur)` is invariant in `K` and in
//! the encoding, which is exactly what the differential battery in
//! `tests/prop_batchdet.rs` checks — against sequential STINT, and against
//! the per-word expansion of the same program.
//!
//! # Deterministic merge
//!
//! Raw per-shard race *records* are **not** invariant in `K` (the same racy
//! region fragments differently at different shard boundaries), so the
//! merged report is normalized per word and re-coalesced into maximal runs,
//! then sorted by address and SP rank ([`FrozenReach::english_rank`]). The
//! canonical [`MergedReport::render`] bytes are identical regardless of
//! shard count, worker count, or steal order — the metamorphic invariance
//! tests diff them directly.
//!
//! ```
//! use stint::{Cilk, CilkProgram, PortableTrace};
//! use stint_batchdet::{batch_detect, BatchConfig};
//!
//! struct Racy;
//! impl CilkProgram for Racy {
//!     fn run<C: Cilk>(&mut self, ctx: &mut C) {
//!         ctx.spawn(|c| c.store(0x40, 8));
//!         ctx.store(0x44, 4);
//!         ctx.sync();
//!     }
//! }
//!
//! let pt = PortableTrace::record(&mut Racy);
//! let out = batch_detect(&pt, &BatchConfig::default()).unwrap();
//! assert!(!out.merged.is_race_free());
//! ```

use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use stint::ctrace::{CompressedTraceReader, EventRun, RunSource, TraceRuns, DEFAULT_CHUNK_EVENTS};
use stint::{
    open_any, AccessHistory, DetectorError, DetectorStats, EventSpans, IntervalHistory,
    PortableTrace, Race, RaceKind, RaceReport, Resource, ResourceBudget, TraceEvent, TraceOp,
    Treap, Witness, WordIv,
};
use stint_cilk::word_range;
use stint_cilkrt::ThreadPool;
use stint_obs::{Counter, Gauge};
use stint_sporder::{FrozenReach, Reachability, StrandId};

mod online;
pub use online::{online_detect, OnlineConfig, OnlineEngine, OnlineOutcome};

static OBS_SHARD_RUNS: Counter = Counter::new("batchdet.shard.runs");
/// Σ [`ShardOutcome::events`], added when a run's shards stop — a failed
/// run's too — and each shard's race total, added as it finishes.
static OBS_SHARD_EVENTS: Counter = Counter::new("batchdet.shard.events");
static OBS_SHARD_RACES: Counter = Counter::new("batchdet.shard.races");
static OBS_MERGES: Counter = Counter::new("batchdet.merges");
/// Live access-history bytes held by in-flight shard detectors. Reconciled
/// back to zero when each shard's detector finishes, so the gauge reads 0
/// after every batch run (chunked or not); its high-water mark records the
/// peak.
static OBS_SHARD_BYTES: Gauge = Gauge::new("batchdet.shard.bytes");
/// A streamed run's [`IngestStats`] `bytes` (chunk framing + payload),
/// `chunks` and `runs`, added when the run ends, on error exits too.
static OBS_INGEST_BYTES: Counter = Counter::new("batchdet.ingest.bytes");
static OBS_INGEST_CHUNKS: Counter = Counter::new("batchdet.ingest.chunks");
static OBS_INGEST_RUNS: Counter = Counter::new("batchdet.ingest.runs");
/// Routed-but-undetected inbox bytes handed to the drain arm of the
/// pipelined driver. Reconciled per batch and to zero when the run ends; the
/// high-water mark is the largest batch (the producer fills at most one
/// more of that size meanwhile).
static OBS_INGEST_BUF: Gauge = Gauge::new("batchdet.ingest.buf_bytes");
/// Batches drained by the pipelined driver, split by where the drain arm of
/// the step's `join` ran: `stolen` by another worker (the stages
/// overlapped) or popped back `inline` by the producer's own worker.
static OBS_PIPE_BATCHES: Counter = Counter::new("batchdet.pipeline.batches");
static OBS_PIPE_STOLEN: Counter = Counter::new("batchdet.pipeline.stolen");
static OBS_PIPE_INLINE: Counter = Counter::new("batchdet.pipeline.inline");

/// Configuration for a batch detection run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of contiguous address shards (`K`). At least 1.
    pub shards: usize,
    /// Worker threads for the pool; `0` means one per hardware thread.
    pub workers: usize,
    /// Seed perturbing each worker's initial steal victim
    /// ([`ThreadPool::with_seed`]); `0` keeps the default order. The merged
    /// report is invariant in this — that is the point of the knob.
    pub steal_seed: u64,
    /// Attach verifiable witnesses (see `stint::witness`) to the merged
    /// regions. Capture happens at **merge time** from the global event-span
    /// table and the frozen orders — shard detectors record nothing — so the
    /// merged report stays byte-identical across shard counts.
    pub witnesses: bool,
    /// Per-session budget and deadline (none by default).
    pub limits: SessionLimits,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            shards: 4,
            workers: 0,
            steal_seed: 0,
            witnesses: false,
            limits: SessionLimits::default(),
        }
    }
}

/// Per-session limits for a batch run — the knobs `stint-serve` sets for
/// every tenant: a [`ResourceBudget`] for the shard detectors, plus an
/// optional wall-clock deadline.
///
/// The deadline is checked between pipeline steps — detectors are not
/// interruptible mid-batch, so a session overruns its deadline by the batch
/// in flight and the batch being routed (a streamed batch feeds at most
/// `STEP_EVENTS` decoded events, however many a run claims), and then by
/// the final flush of the runs a strand cut off by the deadline left
/// pending in the shards, as long as that strand's routed runs (one
/// 2^30-event strand served under a 50 ms timeout reports 133–158 ms). A
/// tripped deadline does **not** abort the run: ingestion stops, what was
/// routed is drained, flushed and merged, and the outcome carries `degraded =
/// ResourceExhausted(WallClock)` — the report is sound up to the point
/// detection stopped, exactly like a memory budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionLimits {
    /// The budget every tier shares; in the batch tier only
    /// `max_intervals` binds: it freezes each shard's access history. The
    /// tier owns no bit table for `max_shadow_bytes` to cap.
    pub budget: ResourceBudget,
    /// Absolute wall-clock deadline; `None` = no timeout.
    pub deadline: Option<Instant>,
    /// The timeout that produced `deadline`, in milliseconds — carried into
    /// the structured error's `limit` field for diagnostics.
    pub timeout_ms: u64,
}

impl SessionLimits {
    /// Limits with a deadline `timeout` from now.
    pub fn timeout_after(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self.timeout_ms = timeout.as_millis() as u64;
        self
    }

    /// True once the deadline (if any) has passed.
    pub fn exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The structured degradation marker for a tripped deadline.
    pub fn timeout_error(&self) -> DetectorError {
        DetectorError::ResourceExhausted {
            resource: Resource::WallClock,
            limit: self.timeout_ms,
            at_word: None,
        }
    }
}

/// One shard's contiguous word range `[word_lo, word_hi)`.
#[derive(Clone, Copy, Debug)]
struct Shard {
    index: usize,
    word_lo: u64,
    word_hi: u64,
}

/// What one shard's private detector saw.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    pub index: usize,
    /// The shard's word range `[word_lo, word_hi)`.
    pub word_lo: u64,
    pub word_hi: u64,
    /// Units handed to this shard's detector: clipped runs of a strand,
    /// clipped frees, and strand-end flush markers — the shard's *work
    /// count*, far below the events those runs coalesce.
    pub events: u64,
    /// Per-shard report (unbounded — see [`RaceReport::unbounded`]).
    pub report: RaceReport,
    pub stats: DetectorStats,
    /// First structured failure of the shard's detector (degraded soundly),
    /// e.g. an exhausted interval budget.
    pub failure: Option<DetectorError>,
}

/// The canonical merged report: per-word-normalized race regions plus the
/// exact racy-word set, both deterministic functions of the trace alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergedReport {
    /// Maximal-run race regions, sorted by `(word_lo, word_hi,
    /// english_rank(prev), english_rank(cur), kind)`.
    pub regions: Vec<Race>,
    /// The exact set of racy words, sorted.
    pub racy_words: Vec<u64>,
}

impl MergedReport {
    pub fn is_race_free(&self) -> bool {
        self.regions.is_empty()
    }

    /// Canonical text rendering — byte-identical across shard counts,
    /// worker counts, and steal schedules (the metamorphic tests diff it).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        s.push_str("STINT-BATCH-REPORT v1\n");
        let _ = writeln!(s, "racy-words {}", self.racy_words.len());
        for w in &self.racy_words {
            let _ = writeln!(s, "w {w:#x}");
        }
        let _ = writeln!(s, "regions {}", self.regions.len());
        for r in &self.regions {
            let _ = write!(
                s,
                "{} [{:#x},{:#x}) prev {} cur {}",
                r.kind, r.word_lo, r.word_hi, r.prev.0, r.cur.0
            );
            if let Some(w) = &r.witness {
                let _ = write!(s, " w {}", w.render());
            }
            s.push('\n');
        }
        s
    }

    /// Rebuild a [`RaceReport`] from the normalized regions, so existing
    /// report printers work on merged output.
    pub fn to_report(&self) -> RaceReport {
        let mut rep = RaceReport::unbounded();
        for r in &self.regions {
            rep.add_race(r.clone());
        }
        rep
    }
}

/// Streaming-ingest telemetry of a v2 run (`None` for any other source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Compressed chunk bytes consumed (framing + payload).
    pub bytes: u64,
    pub chunks: u64,
    /// Run-length records decoded.
    pub runs: u64,
    /// Runs consumed wholesale, as one unit.
    pub wholesale_runs: u64,
    /// Decoded (semantic) events the runs expand to.
    pub events: u64,
}

/// Result of a batch detection run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    pub merged: MergedReport,
    /// The per-shard detector statistics summed, plus the source's count of
    /// what it routed: per side, one hook and one interval a unit.
    pub stats: DetectorStats,
    /// Events in the trace: units for a recorded (coalesced) trace, hooks
    /// for a hook-level one.
    pub events: usize,
    pub strands: usize,
    /// Wall-clock time of the batch phase (partition + fan-out + detection;
    /// for chunked runs this includes decode, so `ingest.bytes / wall` is
    /// the end-to-end ingest throughput).
    pub wall: Duration,
    /// Streaming-ingest telemetry (v2 input only).
    pub ingest: Option<IngestStats>,
    /// First per-shard structured failure, by shard index, if any. The
    /// merged report is sound but only complete up to the failure point.
    pub degraded: Option<DetectorError>,
}

/// Load **and validate** a whole trace stream (either the `STINT-TRACE v1`
/// text format or the compressed chunked v2 format), for a caller that needs
/// every event at once (the repo benchmark's serve mix and the tests):
/// [`PortableTrace::load_any`], which checks every run it reads. Truncated,
/// bit-flipped, or wrong-version input comes back as a structured
/// [`DetectorError::CorruptTrace`] (exit code 4), never a panic.
pub fn load_trace<R: std::io::BufRead>(r: R) -> Result<PortableTrace, DetectorError> {
    PortableTrace::load_any(r).map_err(DetectorError::corrupt)
}

/// A pool of `workers` workers (`0` = one per hardware thread) whose steal
/// schedule is perturbed by `steal_seed` — what [`BatchConfig`]'s two pool
/// knobs mean.
pub fn new_pool(workers: usize, steal_seed: u64) -> ThreadPool {
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    ThreadPool::with_seed(workers, steal_seed)
}

/// Batch-detect on a fresh pool built from `cfg` (worker count and steal
/// seed). See [`batch_detect_on`].
pub fn batch_detect(pt: &PortableTrace, cfg: &BatchConfig) -> Result<BatchOutcome, DetectorError> {
    batch_detect_on(&new_pool(cfg.workers, cfg.steal_seed), pt, cfg)
}

/// Detect an in-memory trace on `pool` under `cfg.limits` through the body
/// every entry shares: `cfg.shards` address shards, the pipelined driver
/// (`pipeline`), [`DEFAULT_CHUNK_EVENTS`] events a batch, a deterministic
/// merge. Every event is checked first ([`TraceRuns`]): a strand id or range
/// a well-formed file corrupted is [`DetectorError::CorruptTrace`], not an
/// out-of-bounds index. A shard's panic is [`DetectorError::Poisoned`].
pub fn batch_detect_on(
    pool: &ThreadPool,
    pt: &PortableTrace,
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    let src = TraceRuns::new(std::borrow::Cow::Borrowed(pt));
    detect_runs(pool, &mut src.map_err(DetectorError::corrupt)?, cfg)
}

/// The one way into the batch tier from a trace stream of either format, on
/// `pool` under `cfg.limits`: [`stint::open_any`] opens the run source its
/// magic line names (anything else is one [`DetectorError::CorruptTrace`]),
/// detected as it is read, one chunk a batch, while the previous chunk
/// drains. Peak memory is two chunks plus the shard detectors. Not
/// generic: every calling crate shares one copy.
pub fn batch_detect_any(
    pool: &ThreadPool,
    r: &mut (dyn BufRead + Send),
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    let mut src = open_any(r).map_err(DetectorError::corrupt)?;
    detect_runs(pool, &mut *src, cfg)
}

/// [`batch_detect_any`] for a stream known to be v2: anything else is a
/// corrupt trace whose detail names the v2 magic.
pub fn batch_detect_chunked_on<R: BufRead + Send>(
    pool: &ThreadPool,
    mut r: R,
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    let r: &mut (dyn BufRead + Send) = &mut r;
    let mut reader = CompressedTraceReader::open(r).map_err(DetectorError::corrupt)?;
    detect_runs(pool, &mut reader, cfg)
}

/// The body of every entry, compiled once (not per reader type or calling
/// crate): shards planned from the source's partition index, the pipeline
/// over a [`StreamSource`], one chunk a batch, and the merge.
fn detect_runs(
    pool: &ThreadPool,
    reader: &mut (dyn RunSource + Send),
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    let limits = &cfg.limits;
    let header = reader.header();
    let shards = plan_shards(header.bounds, header.hist, cfg.shards);
    let reach = header.reach.clone();
    let events = header.total_events as usize;
    let t0 = Instant::now();
    let mut src = StreamSource {
        reader,
        runs: Vec::new(),
        next_run: 0,
        fed: 0,
        front: DetectorStats::default(),
        ingest: IngestStats::default(),
        spans: cfg.witnesses.then(EventSpans::default),
        ev_id: 0,
    };
    let piped = pipeline(pool, &reach, &shards, &mut src, limits);
    let ingest = src.reader.ingested().map(|(bytes, chunks)| {
        OBS_INGEST_BYTES.add(bytes);
        OBS_INGEST_CHUNKS.add(chunks);
        OBS_INGEST_RUNS.add(src.ingest.runs);
        IngestStats {
            bytes,
            chunks,
            ..src.ingest
        }
    });
    let (outs, timeout) = piped?;
    let wall = t0.elapsed();
    let spans = src.spans.as_ref();
    let (merged, stats, failure) = merge_shards(&outs, src.front, &reach, spans);
    let strands = reach.strand_count();
    stats.publish(wall, strands, merged.regions.len() as u64);
    Ok(BatchOutcome {
        merged,
        stats,
        events,
        strands,
        wall,
        ingest,
        degraded: failure.or(timeout),
        shards: outs,
    })
}

/// One hand-off batch: every shard's routed, not yet drained units.
type Batch = [Inbox];

/// Where [`pipeline`] gets its batches: one `produce` call is the producer
/// arm of one step — decode (if need be), validate and route the next
/// hand-off batch. `Ok(false)` means the source ended cleanly and routed
/// nothing; one that ends short of what it declared is an error here, so a
/// run cut off by its deadline never asks. A source holds nothing between
/// steps: what it routed of a strand the deadline cut, the shards flush at
/// their finish.
trait EventSource: Send {
    fn produce(&mut self, router: &mut Router, batch: &mut Batch) -> Result<bool, DetectorError>;
}

/// Decoded events one producer step feeds at most. A run's count is only a
/// claim until it is fed, and one run may claim 2^30 events or more, so a
/// longer run resumes at the next step and [`pipeline`]'s deadline check
/// runs in between. A file chunk of [`DEFAULT_CHUNK_EVENTS`] events is split
/// only when one of its runs is longer than this.
const STEP_EVENTS: u64 = 16 * DEFAULT_CHUNK_EVENTS as u64;

/// A run source, one chunk per batch (or [`STEP_EVENTS`] of it), detected
/// in its encoded shape: a contiguous word-aligned run is consumed wholesale
/// — ONE unit, exactly the words of its events. Other runs (a run of one,
/// too) are stepped event by event. Every unit goes straight to the shards
/// ([`route_unit`]); a recorded (already coalesced) trace is each strand's
/// maximal disjoint runs, and a shard joins whatever else a hook-level file
/// holds (`ShardDetector::push`).
struct StreamSource<'a> {
    reader: &'a mut (dyn RunSource + Send),
    /// The chunk being fed, its next run, and that run's events fed so far.
    runs: Vec<EventRun>,
    next_run: usize,
    fed: u64,
    /// What the source routed, per side: one hook and, unless it is empty,
    /// one interval a unit — what sequential STINT's coalescer counts of a
    /// recorded trace.
    front: DetectorStats,
    ingest: IngestStats,
    /// Incremental span table: decoded event ids equal original trace
    /// indices (runs expand in order), so a run by strand `s` covers ids
    /// `[ev_id, ev_id + count)`.
    spans: Option<EventSpans>,
    ev_id: u64,
}

impl EventSource for StreamSource<'_> {
    fn produce(&mut self, router: &mut Router, batch: &mut Batch) -> Result<bool, DetectorError> {
        if self.next_run == self.runs.len() {
            let io = DetectorError::corrupt;
            if !self.reader.next_chunk(&mut self.runs).map_err(io)? {
                return self.reader.finished().map(|()| false).map_err(io);
            }
            self.next_run = 0;
            self.ingest.runs += self.runs.len() as u64;
        }
        let mut room = STEP_EVENTS;
        while let Some(&run) = self.runs.get(self.next_run).filter(|_| room > 0) {
            if self.fed == 0 {
                self.ingest.events += run.count;
                if let Some(sp) = self.spans.as_mut() {
                    sp.note(run.strand, self.ev_id);
                    sp.note(run.strand, self.ev_id + run.count - 1);
                }
                self.ev_id += run.count;
                if let Some((op, addr, bytes)) = run.as_wholesale_range() {
                    self.ingest.wholesale_runs += 1;
                    let e = TraceEvent {
                        op,
                        addr,
                        bytes,
                        ..run.first()
                    };
                    self.feed(e, router, batch);
                    (room, self.next_run) = (room - 1, self.next_run + 1);
                    continue;
                }
            }
            let end = run.count.min(self.fed.saturating_add(room));
            for i in self.fed..end {
                self.feed(run.event(i), router, batch);
            }
            room -= end - self.fed;
            self.fed = end;
            if end == run.count {
                (self.next_run, self.fed) = (self.next_run + 1, 0);
            }
        }
        Ok(true)
    }
}

impl StreamSource<'_> {
    /// Count and route one decoded event.
    #[inline]
    fn feed(&mut self, e: TraceEvent, router: &mut Router, batch: &mut Batch) {
        let side = match e.op {
            TraceOp::Load | TraceOp::LoadRange => &mut self.front.read,
            TraceOp::Store | TraceOp::StoreRange => &mut self.front.write,
            TraceOp::StrandEnd | TraceOp::Free => return route_unit(router, e, batch),
        };
        let (lo, hi) = word_range(e.addr, e.bytes);
        side.hooks += 1;
        side.hook_bytes += e.bytes as u64;
        side.words += hi - lo;
        if lo < hi {
            side.intervals += 1;
            side.interval_bytes += (hi - lo) * 4;
        }
        route_unit(router, e, batch);
    }
}

/// What [`pipeline`] returns: the finished shards and, if the deadline cut
/// the run short, its degradation marker — or the run's structured failure.
type Piped = Result<(Vec<ShardOutcome>, Option<DetectorError>), DetectorError>;

/// The one batch driver: a software-pipelined loop over `src`, run inside a
/// single `pool.install`. Each step is `join(produce batch n+1, drain batch
/// n)`: the producer arm routes into the `back` batch while the other arm
/// flushes the `front` one through the persistent shard detectors, and the
/// two swap after the join — a depth-1 double buffer, so memory stays
/// O(batch). The hand-off is a work-stealing `join`: an idle worker steals
/// the drain and the stages overlap; on a saturated pool nobody does, and
/// the producer's worker pops it back and runs it inline. The join is also
/// the backpressure — the producer never runs more than one batch ahead.
///
/// Each shard still sees its units in stream order (batch n drains before
/// batch n+1 is handed over), so per-word histories, and with them the
/// merged report, are those of a serial loop; and a step's drain failure —
/// a shard detector's panic — comes before its produce error, which lies
/// later in the stream.
///
/// Returns the finished shards and, if the deadline cut the run short, its
/// degradation marker. The deadline is checked between steps; everything
/// routed before the check is still drained, and what the shards hold of
/// the strand it cut, their finish flushes.
fn pipeline<R: Reachability + Sync>(
    pool: &ThreadPool,
    reach: &R,
    shards: &[Shard],
    src: &mut dyn EventSource,
    limits: &SessionLimits,
) -> Piped {
    let mut router = Router::new(shards);
    let new_det = |&s| ShardDetector::new(s, limits.budget);
    let mut dets: Vec<ShardDetector> = shards.iter().map(new_det).collect();
    let mut front = vec![Inbox::new(); shards.len()];
    let mut back = front.clone();
    let mut timed_out = false;
    let mut buffered = 0u64;
    let piped = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| -> Result<(), DetectorError> {
            let mut pending = false;
            loop {
                timed_out = limits.exceeded();
                let home = stint_obs::is_enabled().then(|| std::thread::current().id());
                // Neither arm may unwind across the join while the other is
                // stolen and in flight (see `fan_out`).
                let (produced, ()) = pool.join(
                    || {
                        if timed_out {
                            return Ok(false);
                        }
                        let _span = stint_obs::span("batchdet.produce");
                        catch_unwind(AssertUnwindSafe(|| src.produce(&mut router, &mut back)))
                            .unwrap_or_else(|p| Err(DetectorError::from_panic(p)))
                    },
                    || {
                        if !pending {
                            return;
                        }
                        let _span = stint_obs::span("batchdet.drain");
                        OBS_PIPE_BATCHES.incr();
                        match home {
                            Some(h) if h != std::thread::current().id() => OBS_PIPE_STOLEN.incr(),
                            _ => OBS_PIPE_INLINE.incr(),
                        }
                        fan_out(pool, reach, &mut dets, &mut front);
                    },
                );
                take_poison(&mut dets)?;
                pending = produced?;
                if !pending {
                    return Ok(());
                }
                std::mem::swap(&mut front, &mut back);
                let units = front.iter();
                let bytes: usize = units.map(|b| std::mem::size_of_val(&b[..])).sum();
                OBS_INGEST_BUF.reconcile(&mut buffered, bytes as u64);
            }
        })
    }));
    OBS_INGEST_BUF.reconcile(&mut buffered, 0);
    OBS_SHARD_EVENTS.add(dets.iter().map(|d| d.events).sum());
    piped.map_err(DetectorError::from_panic)??;
    // The final per-shard flush runs sequentially here, after every worker
    // is quiescent, so a panic in it may unwind — but still surfaces as the
    // structured error, not an escaping panic.
    let outs = catch_unwind(AssertUnwindSafe(|| {
        let finish = |d: ShardDetector| d.finish(reach, router.last);
        dets.into_iter().map(finish).collect()
    }))
    .map_err(DetectorError::from_panic)?;
    Ok((outs, timed_out.then(|| limits.timeout_error())))
}

/// Choose `k` contiguous shard ranges whose boundaries sit at event-weight
/// quantiles of the partition index (`hist` buckets over `[lo, hi)`), so a
/// skewed trace still spreads its *events* — not just its address width —
/// evenly. Heavily concentrated traces may still produce empty shards (a
/// single bucket cannot be split); contiguity is what the correctness
/// argument needs, balance is best-effort.
fn plan_shards(bounds: Option<(u64, u64)>, hist: &[u64], k: usize) -> Vec<Shard> {
    let k = k.max(1);
    let Some((lo, hi)) = bounds else {
        // No memory accesses at all: k empty shards, so the shard count
        // (and the per-shard telemetry shape) is always what was asked for.
        return (0..k)
            .map(|i| Shard {
                index: i,
                word_lo: 0,
                word_hi: 0,
            })
            .collect();
    };
    let total: u64 = hist.iter().sum();
    let span = hi - lo;
    let mut edges = Vec::with_capacity(k + 1);
    edges.push(lo);
    if total == 0 {
        // Degenerate index: fall back to equal width.
        let width = (span / k as u64 + u64::from(span % k as u64 != 0)).max(1);
        for i in 1..k {
            edges.push((lo + width * i as u64).min(hi));
        }
    } else {
        let bw = stint::ctrace::bucket_width(lo, hi);
        let mut cum = 0u64;
        let mut b = 0usize;
        for i in 1..k {
            let target = (total * i as u64).div_ceil(k as u64);
            while b < hist.len() && cum < target {
                cum += hist[b];
                b += 1;
            }
            let edge = (lo + bw * b as u64).min(hi);
            edges.push(edge.max(*edges.last().unwrap()));
        }
    }
    edges.push(hi);
    (0..k)
        .map(|i| Shard {
            index: i,
            word_lo: edges[i],
            word_hi: edges[i + 1].max(edges[i]),
        })
        .collect()
}

/// The partition pass's routing state: shard cut-points plus the per-shard
/// dirty flags that gate strand-end flush markers.
struct Router {
    /// `ends[i]` is shard `i`'s routing end; shard `i` covers
    /// `[ends[i-1], ends[i])` (shard 0 from 0). The last end is lifted to
    /// `u64::MAX` so any event routes deterministically even if it falls
    /// outside the planned bounds.
    ends: Vec<u64>,
    /// Shard holds unflushed accesses of the current strand.
    dirty: Vec<bool>,
    /// Shards whose `dirty` flag may be set (may hold stale entries cleared
    /// by a free; drained and deduplicated at each strand end). Keeps
    /// strand-end routing O(shards the strand touched), not O(K).
    dirty_list: Vec<u32>,
    /// Strand of the last event routed (the final flush's strand).
    last: StrandId,
}

impl Router {
    fn new(shards: &[Shard]) -> Router {
        let k = shards.len();
        let mut ends: Vec<u64> = shards.iter().map(|s| s.word_hi).collect();
        ends[k - 1] = u64::MAX;
        Router {
            ends,
            dirty: vec![false; k],
            dirty_list: Vec::new(),
            last: StrandId(0),
        }
    }

    /// Route one run's or free's word range, invoking `push(shard, lo, hi)`
    /// once per overlapped shard with the clipped subrange, and update the
    /// dirty flags (a run dirties the shard; a free cleans it — the shard
    /// flushes its pending runs at a free itself).
    #[inline]
    fn route(&mut self, is_free: bool, lo: u64, hi: u64, mut push: impl FnMut(usize, u64, u64)) {
        if lo >= hi {
            return;
        }
        let mut i = self.ends.partition_point(|&e| e <= lo);
        let mut cur = lo;
        while cur < hi {
            while self.ends[i] <= cur {
                i += 1;
            }
            let clip = hi.min(self.ends[i]);
            if is_free {
                self.dirty[i] = false;
            } else if !self.dirty[i] {
                self.dirty[i] = true;
                self.dirty_list.push(i as u32);
            }
            push(i, cur, clip);
            cur = clip;
        }
    }

    /// Drain the dirty set, invoking `push(shard)` once per shard that
    /// still holds unflushed accesses.
    #[inline]
    fn on_strand_end(&mut self, mut push: impl FnMut(usize)) {
        for idx in self.dirty_list.drain(..) {
            let i = idx as usize;
            if self.dirty[i] {
                self.dirty[i] = false;
                push(i);
            }
        }
    }
}

/// One batch's routed, not yet flushed units of one shard: clipped runs
/// (loads and stores), clipped frees, and strand-end markers.
type Inbox = Vec<TraceEvent>;

/// A shard's private interval history, persistent across batches, and the
/// current strand's read and write runs routed to it so far — sorted and
/// disjoint as they arrive from a recorded trace; a hook-level file's are
/// sorted and joined, at the flush or once they pile up. A shard owns no
/// coalescing table. Neighbours are drained by different workers, so each
/// gets cache lines of its own (two: the prefetcher pairs them): with the
/// detectors packed, the end of one and the start of the next share a
/// line, and `online_w2` pays 10% for it.
#[repr(align(128))]
struct ShardDetector {
    shard: Shard,
    hist: IntervalHistory<Treap<StrandId>>,
    runs: [Vec<WordIv>; 2],
    /// Per side: a run arrived that does not start past the previous run's
    /// end, so the side's runs are to be sorted and joined before the flush.
    unsorted: [bool; 2],
    /// Per side, the runs the last join left (0 after a flush).
    joined: [usize; 2],
    events: u64,
    /// A panic payload captured while draining on the pool. Unwinding
    /// through `ThreadPool::join` while the sibling job is stolen and in
    /// flight would tear down the stack frame the thief's `StackJob` lives
    /// on, so the fan-out leaf catches instead and the caller rethrows the
    /// first payload as a structured error once every worker is quiescent.
    poison: Option<Box<dyn std::any::Any + Send>>,
}

impl ShardDetector {
    fn new(shard: Shard, budget: ResourceBudget) -> ShardDetector {
        let hist = IntervalHistory::new(RaceReport::unbounded());
        ShardDetector {
            shard,
            hist: hist.with_budget(budget),
            runs: Default::default(),
            unsorted: [false; 2],
            joined: [0; 2],
            events: 0,
            poison: None,
        }
    }

    /// Take in (and clear) one inbox (runs on the pool): runs join the
    /// current strand's, a strand end or free flushes them. Generic over the
    /// reachability substrate: the batch paths flush against a
    /// [`FrozenReach`] snapshot, the online path against a view of the live
    /// `DePaReach` (immutable timestamps, so sharing it with other workers
    /// and the publishing executor is race-free).
    fn drain<R: Reachability>(&mut self, inbox: &mut Inbox, reach: &R) {
        let _span = stint_obs::span("batchdet.shard");
        OBS_SHARD_RUNS.incr();
        for e in inbox.iter() {
            let run = word_range(e.addr, e.bytes);
            match e.op {
                TraceOp::Load | TraceOp::LoadRange => self.push(0, run),
                TraceOp::Store | TraceOp::StoreRange => self.push(1, run),
                TraceOp::StrandEnd => self.flush(e.strand, reach),
                TraceOp::Free => {
                    self.flush(e.strand, reach);
                    self.hist.tombstone(run.0, run.1);
                }
            }
        }
        self.events += inbox.len() as u64;
        inbox.clear();
    }

    /// Take in one run of the current strand. An unsorted side is joined
    /// once it holds twice the runs its last join left (at least
    /// [`JOIN_FLOOR`]), so what waits for the flush stays within a constant
    /// factor of the strand's maximal runs, however often a hook-level file
    /// repeats a word.
    #[inline]
    fn push(&mut self, side: usize, run: WordIv) {
        let runs = &mut self.runs[side];
        if runs.last().is_some_and(|&(_, hi)| run.0 <= hi) {
            self.unsorted[side] = true;
        }
        runs.push(run);
        if self.unsorted[side] && runs.len() >= (2 * self.joined[side]).max(JOIN_FLOOR) {
            self.join(side);
        }
    }

    /// Sort one side's runs and join those that overlap or touch, into the
    /// maximal runs of their union.
    #[cold]
    fn join(&mut self, side: usize) {
        let runs = &mut self.runs[side];
        runs.sort_unstable();
        runs.dedup_by(|next, kept| {
            let join = next.0 <= kept.1;
            if join {
                kept.1 = kept.1.max(next.1);
            }
            join
        });
        self.unsorted[side] = false;
        self.joined[side] = runs.len();
    }

    /// Check and record strand `s`'s runs, a side that arrived unsorted
    /// joined first, into what sequential STINT's coalescer hands out; the
    /// strand is flushed whole, never in two (module docs).
    fn flush<R: Reachability>(&mut self, s: StrandId, reach: &R) {
        for side in 0..2 {
            if self.unsorted[side] {
                self.join(side);
            }
        }
        let [reads, writes] = &mut self.runs;
        self.hist.flush_runs(s, reads, writes, reach);
        reads.clear();
        writes.clear();
        self.joined = [0; 2];
    }

    fn finish<R: Reachability>(mut self, reach: &R, last: StrandId) -> ShardOutcome {
        self.flush(last, reach);
        self.hist.finish();
        let mut owned = 0u64;
        OBS_SHARD_BYTES.reconcile(&mut owned, self.hist.stats.ah_bytes);
        OBS_SHARD_RACES.add(self.hist.report.total);
        let out = ShardOutcome {
            index: self.shard.index,
            word_lo: self.shard.word_lo,
            word_hi: self.shard.word_hi,
            events: self.events,
            failure: self.hist.failure(),
            report: self.hist.report,
            stats: self.hist.stats,
        };
        OBS_SHARD_BYTES.reconcile(&mut owned, 0);
        out
    }
}

/// The fewest runs a side of a [`ShardDetector`] holds before a push joins
/// it.
const JOIN_FLOOR: usize = 1024;

/// Route one hand-off unit. A run is clipped at the shard cuts it crosses; a
/// strand end becomes a marker to every shard the strand's runs reached. So
/// does a free, after the free itself: a shard it does not overlap would
/// otherwise find the strand's later runs appended, unsorted, to the ones it
/// holds — or, the strand ending clean, be left holding them.
#[inline]
fn route_unit(router: &mut Router, e: TraceEvent, inboxes: &mut [Inbox]) {
    router.last = e.strand;
    if e.op != TraceOp::StrandEnd {
        let (lo, hi) = word_range(e.addr, e.bytes);
        router.route(e.op == TraceOp::Free, lo, hi, |i, clo, chi| {
            inboxes[i].push(TraceEvent::unit(e.op, e.strand, clo, chi))
        });
    }
    if matches!(e.op, TraceOp::StrandEnd | TraceOp::Free) {
        let end = TraceEvent::unit(TraceOp::StrandEnd, e.strand, 0, 0);
        router.on_strand_end(|i| inboxes[i].push(end));
    }
}

/// Recursive binary fan-out of the shards over the pool's `join`: each
/// shard drains its inbox through its private detector. A leaf panic is
/// captured into the shard's `poison` slot — never unwound across a `join`
/// frame — and rethrown by [`take_poison`] afterwards.
fn fan_out<R: Reachability + Sync>(
    pool: &ThreadPool,
    reach: &R,
    dets: &mut [ShardDetector],
    inboxes: &mut [Inbox],
) {
    match dets.len() {
        0 => {}
        1 => {
            let (det, inbox) = (&mut dets[0], &mut inboxes[0]);
            if det.poison.is_none() {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| det.drain(inbox, reach))) {
                    det.poison = Some(p);
                }
            }
        }
        n => {
            let (da, db) = dets.split_at_mut(n / 2);
            let (ia, ib) = inboxes.split_at_mut(n / 2);
            pool.join(
                || fan_out(pool, reach, da, ia),
                || fan_out(pool, reach, db, ib),
            );
        }
    }
}

/// Rethrow the first captured shard panic as the structured error the typed
/// panic protocol encodes (an injected flush panic becomes `Poisoned`).
fn take_poison(dets: &mut [ShardDetector]) -> Result<(), DetectorError> {
    let first = dets.iter_mut().find_map(|d| d.poison.take());
    first.map_or(Ok(()), |p| Err(DetectorError::from_panic(p)))
}

/// Normalize per-shard race records per word — on intervals: the union of
/// each `(kind, prev, cur)`'s runs, in maximal pieces — and sort by address
/// then SP rank. See the module docs for why this (and not the raw records)
/// is the `K`-invariant object. Also returns the
/// detector statistics — the shards' summed, plus `front`, what the source
/// counted — and the first failure, a shard's, by shard index.
fn merge_shards(
    shards: &[ShardOutcome],
    front: DetectorStats,
    reach: &FrozenReach,
    spans: Option<&EventSpans>,
) -> (MergedReport, DetectorStats, Option<DetectorError>) {
    let _span = stint_obs::span("batchdet.merge");
    OBS_MERGES.incr();
    let mut runs: Vec<(RaceKind, u32, u32, u64, u64)> = Vec::new();
    let words = shards.iter().map(|sh| sh.report.racy_word_count());
    let mut racy_words: Vec<u64> = Vec::with_capacity(words.sum::<u64>() as usize);
    let mut stats = front;
    for sh in shards {
        stats.merge(&sh.stats);
        let races = sh.report.races().iter();
        runs.extend(races.map(|r| (r.kind, r.prev.0, r.cur.0, r.word_lo, r.word_hi)));
        // The shards' routing ranges are disjoint and ascending, so their
        // words concatenate in order.
        let intervals = sh.report.racy_intervals().into_iter();
        racy_words.extend(intervals.flat_map(|(lo, hi)| lo..hi));
    }
    debug_assert!(racy_words.windows(2).all(|w| w[0] < w[1]));
    // Per (kind, prev, cur), the union of its runs in maximal pieces: sorted,
    // a run that overlaps or touches the last one extends it.
    runs.sort_unstable();
    let mut regions: Vec<Race> = Vec::new();
    for (k, p, c, lo, hi) in runs {
        if let Some(last) = regions.last_mut() {
            if (last.kind, last.prev.0, last.cur.0) == (k, p, c) && lo <= last.word_hi {
                last.word_hi = last.word_hi.max(hi);
                continue;
            }
        }
        regions.push(Race::new(k, lo, hi, StrandId(p), StrandId(c)));
    }
    regions.sort_by_key(|r| {
        (
            r.word_lo,
            r.word_hi,
            reach.english_rank(r.prev),
            reach.english_rank(r.cur),
            r.kind,
        )
    });
    // Merge-time witness attachment: a deterministic function of the
    // (pair, global span table, frozen orders) triple — identical no matter
    // how the regions fragmented across shards. Memoized per strand pair.
    if let Some(spans) = spans {
        let mut memo: std::collections::HashMap<(u32, u32), Witness> =
            std::collections::HashMap::new();
        for r in &mut regions {
            let w = memo
                .entry((r.prev.0, r.cur.0))
                .or_insert_with(|| Witness::from_spans(reach, spans, r.prev, r.cur));
            r.witness = Some(Box::new(w.clone()));
        }
    }
    let merged = MergedReport {
        regions,
        racy_words,
    };
    let failure = shards.iter().find_map(|o| o.failure.clone());
    (merged, stats, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stint::{detect, Cilk, CilkProgram, Trace, Variant};

    /// Two parallel writers overlapping across a wide range plus a free —
    /// exercises range clipping, strand-end skipping, and tombstones.
    pub(crate) struct WideRacy;
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

    struct CleanFanout;
    impl CilkProgram for CleanFanout {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            for i in 0..6usize {
                ctx.spawn(move |c| {
                    c.store_range(0x1000 + i * 128, 128);
                    c.load_range(0x1000 + i * 128, 128);
                });
            }
            ctx.sync();
            ctx.load_range(0x1000, 6 * 128);
        }
    }

    fn cfg(shards: usize, workers: usize, seed: u64) -> BatchConfig {
        BatchConfig {
            shards,
            workers,
            steal_seed: seed,
            ..BatchConfig::default()
        }
    }

    /// A v2 stream through the one entry, on a pool built from `cfg`.
    fn streamed(mut bytes: &[u8], cfg: &BatchConfig) -> Result<BatchOutcome, DetectorError> {
        batch_detect_any(&new_pool(cfg.workers, cfg.steal_seed), &mut bytes, cfg)
    }

    fn compress(pt: &PortableTrace, chunk: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        pt.save_compressed(&mut buf, chunk).unwrap();
        buf
    }

    #[test]
    fn batch_matches_sequential_racy_words_for_any_shard_count() {
        let pt = PortableTrace::record(&mut WideRacy);
        let expected = detect(&mut WideRacy, Variant::Stint).report.racy_words();
        assert!(!expected.is_empty());
        for k in [1, 2, 3, 7, 16] {
            let out = batch_detect(&pt, &cfg(k, 2, 0)).unwrap();
            assert_eq!(out.merged.racy_words, expected, "K={k}");
            assert!(out.degraded.is_none());
            assert_eq!(out.shards.len(), k);
        }
    }

    /// A strand writes on both sides of every cut, frees a range inside one
    /// shard, and writes again — below what it wrote before — on the other
    /// side, racing with a sibling throughout. A shard the free does not
    /// overlap must flush the strand's earlier runs at the free (the marker
    /// the router sends after it), or the later ones land unsorted behind
    /// them.
    struct FreeBetweenWrites;
    impl CilkProgram for FreeBetweenWrites {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                c.store_range(0x40, 0x40);
                c.store_range(0x4000, 0x400);
            });
            ctx.store_range(0x60, 0x10);
            ctx.store_range(0x4300, 0x80);
            ctx.free(0x40, 0x10);
            ctx.store_range(0x4100, 0x80);
            ctx.store_range(0x4040, 0x20);
            ctx.sync();
        }
    }

    /// Sequential STINT's outcome of `p`, as one whole-range shard, and its
    /// report through the batch tier's normalizing merge.
    fn sequential<P: CilkProgram>(p: &mut P, reach: &FrozenReach) -> (ShardOutcome, MergedReport) {
        let sequential = detect(p, Variant::Stint);
        let whole = ShardOutcome {
            index: 0,
            word_lo: 0,
            word_hi: u64::MAX,
            events: 0,
            report: sequential.report,
            stats: sequential.stats,
            failure: None,
        };
        let shards = std::slice::from_ref(&whole);
        let merged = merge_shards(shards, DetectorStats::default(), reach, None).0;
        (whole, merged)
    }

    #[test]
    fn a_free_in_mid_strand_flushes_every_shard_the_strand_reached() {
        let pt = PortableTrace::record(&mut FreeBetweenWrites);
        let (whole, want) = sequential(&mut FreeBetweenWrites, &pt.reach);
        let words: Vec<u64> = [0x18..0x1c, 0x1010..0x1018, 0x1040..0x1060, 0x10c0..0x10e0]
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(whole.report.racy_words(), words);
        let want = want.render();
        for k in [1, 2, 3, 4, 7, 16] {
            let out = batch_detect(&pt, &cfg(k, 2, 0)).unwrap();
            assert_eq!(out.merged.render(), want, "K={k}");
            // No bit table anywhere: the shards own none, and the source
            // routes every unit straight to them.
            assert!(out.shards.iter().all(|s| s.stats.coalesce_bytes == 0));
            assert_eq!(out.stats.coalesce_bytes, 0);
            assert_eq!(out.stats.write.hooks, whole.stats.write.hooks);
            assert_eq!(out.stats.write.intervals, whole.stats.write.intervals);
            let buf = compress(&pt, 3);
            let out = streamed(&buf[..], &cfg(k, 2, 0)).unwrap();
            assert_eq!(out.merged.render(), want, "K={k} streamed");
            let ocfg = OnlineConfig {
                shards: k,
                chunk_events: 2,
                ..OnlineConfig::default()
            };
            let out = online_detect(&mut FreeBetweenWrites, &ocfg).unwrap();
            assert_eq!(out.merged.render(), want, "K={k} online");
        }
    }

    /// A hook stream whose strand stops passing around the source's
    /// coalescer: it writes a word a parallel strand wrote, passes, writes
    /// below it (out of order: the rest of the strand is coalesced), then
    /// reads the word it wrote. The shard joins the passed write with the
    /// coalesced runs and flushes the strand once, reads first, so the
    /// parallel write races with the read as well as the write. Flushed in
    /// two at the fallback, the read would find the strand's own write in
    /// the history and the write-read race would be lost.
    struct ReadAfterPassedWrite;
    impl CilkProgram for ReadAfterPassedWrite {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(0x100, 4));
            ctx.store(0x100, 4);
            ctx.store(0x200, 8);
            ctx.store(0x80, 4);
            ctx.store(0x204, 8);
            ctx.load(0x100, 4);
            ctx.sync();
        }
    }

    #[test]
    fn a_strand_that_stops_passing_is_flushed_whole() {
        let pt = hooks(&mut ReadAfterPassedWrite);
        let (_, want) = sequential(&mut ReadAfterPassedWrite, &pt.reach);
        let kinds: Vec<RaceKind> = want.regions.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RaceKind::WriteRead), "{kinds:?}");
        assert!(kinds.contains(&RaceKind::WriteWrite), "{kinds:?}");
        let want = want.render();
        for k in [1, 2, 4] {
            let out = batch_detect(&pt, &cfg(k, 2, 0)).unwrap();
            assert_eq!(out.merged.render(), want, "K={k}");
            let buf = compress(&pt, 2);
            let out = streamed(&buf[..], &cfg(k, 2, 0)).unwrap();
            assert_eq!(out.merged.render(), want, "K={k} streamed");
        }
    }

    /// A hook-level file that stores to one word over and over: the shard
    /// joins the side as the runs pile up, not only at the flush, and the
    /// flush hands the history the one maximal run.
    #[test]
    fn repeated_runs_are_joined_as_they_arrive() {
        let shard = Shard {
            index: 0,
            word_lo: 0,
            word_hi: u64::MAX,
        };
        let mut det = ShardDetector::new(shard, ResourceBudget::default());
        for _ in 0..10_000 {
            det.push(1, (0x40, 0x41));
        }
        let held = det.runs[1].len();
        assert!(held < 2 * JOIN_FLOOR, "holds {held} runs");
        det.flush(StrandId(0), &FrozenReach::from_ranks(vec![0], vec![0]));
        assert_eq!(det.hist.write_tree().insert_ops(), 1);
    }

    #[test]
    fn chunked_streaming_matches_in_memory_for_any_chunk_size() {
        let pt = PortableTrace::record(&mut WideRacy);
        let baseline = batch_detect(&pt, &cfg(4, 2, 0)).unwrap();
        for chunk in [1usize, 3, 16, 100_000] {
            let buf = compress(&pt, chunk);
            let out = streamed(&buf[..], &cfg(4, 2, 0)).unwrap();
            assert_eq!(
                out.merged.render(),
                baseline.merged.render(),
                "chunk={chunk}"
            );
            let ing = out.ingest.expect("chunked runs report ingest stats");
            assert_eq!(ing.events, pt.trace.len() as u64);
            assert!(ing.bytes > 0);
            assert!(ing.chunks > 0);
            assert_eq!(out.events, pt.trace.len());
        }
    }

    /// Strided parallel writers: the compressed form of their hook stream
    /// coalesces each strand's sweep into runs the streaming path can
    /// consume wholesale.
    struct StridedRacy;
    impl CilkProgram for StridedRacy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                for i in 0..64usize {
                    c.store(0x1000 + i * 8, 8);
                }
            });
            for i in 0..64usize {
                c_load(ctx, 0x1000 + i * 8, 8);
            }
            ctx.sync();
        }
    }
    fn c_load<C: Cilk>(c: &mut C, a: usize, b: usize) {
        c.load(a, b);
    }

    /// `p`'s hook stream as a portable trace — what an older file holds;
    /// [`PortableTrace::record`] stores its coalesced form.
    pub(crate) fn hooks<P: CilkProgram>(p: &mut P) -> PortableTrace {
        let (trace, reach) = stint::record(p);
        PortableTrace {
            trace,
            reach: reach.freeze(),
        }
    }

    #[test]
    fn wholesale_run_consumption_matches_expanded_replay() {
        let pt = hooks(&mut StridedRacy);
        let expected = batch_detect(&pt, &cfg(3, 2, 0)).unwrap();
        let buf = compress(&pt, 64);
        let out = streamed(&buf[..], &cfg(3, 2, 0)).unwrap();
        assert_eq!(out.merged.render(), expected.merged.render());
        let ing = out.ingest.unwrap();
        assert!(
            ing.wholesale_runs > 0,
            "strided sweeps must be consumed wholesale"
        );
        // Wholesale consumption is the work win: the detectors touch far
        // fewer events than the trace holds.
        let touched: u64 = out.shards.iter().map(|s| s.events).sum();
        assert!(
            touched < ing.events / 2,
            "touched {touched} not well below {} decoded events",
            ing.events
        );
    }

    #[test]
    fn k1_partition_work_is_within_sequential_work() {
        // The tentpole's work bound: at K=1 the shard must touch no more
        // events than the trace holds (no clip-per-shard rescans).
        let pt = PortableTrace::record(&mut WideRacy);
        let out = batch_detect(&pt, &cfg(1, 1, 0)).unwrap();
        assert_eq!(out.shards.len(), 1);
        assert!(
            out.shards[0].events <= pt.trace.len() as u64,
            "K=1 routed {} > {} trace events",
            out.shards[0].events,
            pt.trace.len()
        );
    }

    #[test]
    fn partition_balances_skewed_traces() {
        // 90% of events in the low quarter of the span, 10% spread over the
        // rest: equal-width sharding would hand almost everything to shard
        // 0; quantile boundaries must cut inside the hot region. (The hot
        // region spans many histogram buckets on purpose — a single bucket
        // is indivisible.)
        struct Skewed;
        impl CilkProgram for Skewed {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                ctx.spawn(|c| {
                    for i in 0..360usize {
                        c.store(0x1000 + (i % 1024) * 8, 4);
                    }
                });
                for i in 0..40usize {
                    ctx.load(0x4000 + i * 0x400, 4);
                }
                ctx.sync();
            }
        }
        let pt = PortableTrace::record(&mut Skewed);
        let out = batch_detect(&pt, &cfg(4, 2, 0)).unwrap();
        let events: Vec<u64> = out.shards.iter().map(|s| s.events).collect();
        let max = *events.iter().max().unwrap();
        let total: u64 = events.iter().sum();
        assert!(
            max <= total * 3 / 4,
            "one shard hogs the work: {events:?} (quantile balance failed)"
        );
    }

    #[test]
    fn race_free_program_stays_race_free() {
        let pt = PortableTrace::record(&mut CleanFanout);
        let out = batch_detect(&pt, &cfg(5, 2, 0)).unwrap();
        assert!(out.merged.is_race_free());
        assert!(out.merged.racy_words.is_empty());
        // Every access event lands in at least one shard.
        let routed: u64 = out.shards.iter().map(|s| s.events).sum();
        let accesses = pt
            .trace
            .events
            .iter()
            .filter(|e| e.op != TraceOp::StrandEnd)
            .count() as u64;
        assert!(routed >= accesses, "routed {routed} < accesses {accesses}");
    }

    #[test]
    fn empty_trace_is_handled() {
        let pt = PortableTrace {
            trace: Trace::default(),
            reach: FrozenReach::from_ranks(vec![0], vec![0]),
        };
        let out = batch_detect(&pt, &cfg(4, 1, 0)).unwrap();
        assert!(out.merged.is_race_free());
        assert_eq!(out.events, 0);
        // And the chunked path agrees on an empty compressed trace.
        let buf = compress(&pt, 16);
        let out = streamed(&buf[..], &cfg(4, 1, 0)).unwrap();
        assert!(out.merged.is_race_free());
        assert_eq!(out.events, 0);
    }

    #[test]
    fn merged_stats_sum_shard_work() {
        let pt = PortableTrace::record(&mut CleanFanout);
        let out = batch_detect(&pt, &cfg(3, 2, 0)).unwrap();
        assert!(out.stats.treap.ops > 0);
        assert!(out.stats.strands_flushed > 0);
        let per_shard: u64 = out.shards.iter().map(|s| s.stats.strands_flushed).sum();
        assert_eq!(out.stats.strands_flushed, per_shard);
    }

    #[test]
    fn out_of_range_strand_is_corrupt_not_a_panic() {
        let mut pt = PortableTrace::record(&mut WideRacy);
        pt.trace.events[0].strand = StrandId(10_000);
        let err = batch_detect(&pt, &cfg(2, 1, 0)).unwrap_err();
        assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn load_trace_rejects_garbage_as_corrupt() {
        for bad in [
            "",
            "WRONG MAGIC\n",
            "STINT-TRACE v3\nstrands 0\nevents 0\n",
            "STINT-TRACE v2\nstrands 0\nevents 0\n",
            "STINT-TRACE v1\nstrands 1\n0 0\nevents 1\ns 99 0x40 4\n",
        ] {
            let err = load_trace(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{bad:?}");
            assert_eq!(err.exit_code(), 4, "{bad:?}");
        }
    }

    #[test]
    fn chunked_rejects_corrupted_streams_as_corrupt() {
        let pt = PortableTrace::record(&mut WideRacy);
        let buf = compress(&pt, 8);
        for frac in [1usize, 4, 7] {
            let cut = buf.len() * frac / 8;
            let err = streamed(&buf[..cut], &cfg(2, 1, 0)).unwrap_err();
            assert!(
                matches!(err, DetectorError::CorruptTrace { .. }),
                "truncation at {cut}: {err}"
            );
            assert_eq!(err.exit_code(), 4);
        }
        let mut flipped = buf.clone();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x20;
        let err = streamed(&flipped[..], &cfg(2, 1, 0)).unwrap_err();
        assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{err}");
    }

    #[test]
    fn witnessed_merge_is_k_invariant_and_verifiable() {
        let pt = PortableTrace::record(&mut WideRacy);
        let wcfg = |k| BatchConfig {
            shards: k,
            workers: 2,
            witnesses: true,
            ..BatchConfig::default()
        };
        let baseline = batch_detect(&pt, &wcfg(1)).unwrap().merged;
        assert!(!baseline.regions.is_empty());
        assert!(baseline.regions.iter().all(|r| r.witness.is_some()));
        // Every merge-time witness validates independently, trace included.
        let checker = stint::WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        for r in &baseline.regions {
            checker.check(r).unwrap();
        }
        // Byte-identical across K with witnesses on (render carries them).
        for k in [2, 7, 16] {
            let got = batch_detect(&pt, &wcfg(k)).unwrap().merged;
            assert_eq!(got.render(), baseline.render(), "K={k}");
            assert_eq!(got, baseline, "K={k}");
        }
        assert!(baseline.render().contains(" w prev=s"));
        // The chunked streaming path attaches identical witnesses.
        for chunk in [1usize, 8] {
            let buf = compress(&pt, chunk);
            let got = streamed(&buf[..], &wcfg(4)).unwrap().merged;
            assert_eq!(got.render(), baseline.render(), "chunk={chunk}");
        }
        // to_report keeps the witnesses on the rebuilt records.
        let rep = baseline.to_report();
        assert!(rep.races().iter().all(|r| r.witness.is_some()));
    }

    #[test]
    fn to_report_round_trips_the_merge() {
        let pt = PortableTrace::record(&mut WideRacy);
        let out = batch_detect(&pt, &cfg(4, 2, 0)).unwrap();
        let rep = out.merged.to_report();
        assert_eq!(rep.racy_words(), out.merged.racy_words);
        assert_eq!(rep.races().len(), out.merged.regions.len());
    }
}
