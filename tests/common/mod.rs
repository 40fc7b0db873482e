//! The conformance harness of the root property batteries: sequential,
//! replayed, batch, online and served detection all give sequential STINT's
//! verdict — the relation "Data Race Detection on Compressed Traces" states,
//! the verdict on the compact form equals the verdict on its expansion.
//! One program ([`Program`]), one configuration matrix (a slice of [`Row`]s,
//! one tier a row) and one assertion ([`check`], or [`check_kernel`]):
//!
//! * every row reports the oracle's racy words: `simulate`'s, or sequential
//!   STINT's on the per-word expansion when the program frees;
//! * every interval-detector row (live or replayed STINT and STINT(btree),
//!   batch, online, serve) reports sequential STINT's per-word `(word, kind,
//!   prev, cur)`; vanilla, compiler and comp+rts, which report once per
//!   word per access, are compared by racy words only;
//! * a witnessed row's races carry witnesses [`WitnessChecker`] accepts;
//! * each tier's invariants ([`Harness::row`]) hold on every row of it.
//!
//! Under a fault plan ([`check_under`]) each row ends as its [`Contract`]
//! says instead: that verdict, a sound degradation or a structured error.
#![allow(dead_code)] // each test binary uses its own subset

use std::collections::{BTreeSet, HashMap};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stint_repro::batchdet::{batch_detect_any, batch_detect_on, new_pool, online_detect};
use stint_repro::batchdet::{BatchConfig, BatchOutcome, MergedReport, ShardOutcome};
use stint_repro::batchdet::{OnlineConfig, OnlineOutcome};
use stint_repro::cilkrt::ThreadPool;
use stint_repro::serve::{Engine, EngineConfig, Status};
use stint_repro::suite::{Scale, Workload};
use stint_repro::Variant::{self, CompRts, Compiler, Stint, StintFlat, Vanilla};
use stint_repro::DEFAULT_CHUNK_EVENTS;
use stint_repro::{ctrace, detect, try_detect_with, try_replay_with, Cilk, CilkProgram, Config};
use stint_repro::{DetectorError, DetectorStats, FaultPlan, Outcome, PortableTrace, Race};
use stint_repro::{RaceReport, Resource, ScopedPlan, Sided, StintDetector, WitnessChecker};
use stint_spdag::{simulate, Access, Func, Stmt};

/// Proptest strategy for fork-join programs over a small word space (every
/// access inside the first 64-word bitmap group of the runtime coalescer).
pub fn func_strategy(depth: u32) -> BoxedStrategy<Func> {
    let access = (any::<bool>(), 0u64..40, 1u64..10, any::<bool>()).prop_map(
        |(write, word, len, coalesced)| Access {
            write,
            word,
            len,
            coalesced,
        },
    );
    func_strategy_over(depth, access.boxed())
}

/// As [`func_strategy`], over the given access shapes.
pub fn func_strategy_over(depth: u32, access: BoxedStrategy<Access>) -> BoxedStrategy<Func> {
    let compute = proptest::collection::vec(access.clone(), 1..4).prop_map(Stmt::Compute);
    if depth == 0 {
        proptest::collection::vec(prop_oneof![compute, Just(Stmt::Sync)], 1..5)
            .prop_map(Func)
            .boxed()
    } else {
        let inner = func_strategy_over(depth - 1, access);
        let stmt = prop_oneof![
            4 => compute,
            1 => Just(Stmt::Sync),
            3 => inner.clone().prop_map(Stmt::Spawn),
            1 => inner.prop_map(Stmt::Call),
        ];
        proptest::collection::vec(stmt, 1..6).prop_map(Func).boxed()
    }
}

/// Word indices that exercise the bit table's lane and what it outlines:
/// the first groups of chunk 0, and the groups on either side of the
/// boundary between chunks 0 and 1 (so a program alternates chunks).
fn group_base() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(64), Just(128), Just(65472), Just(65536)]
}

fn access_of(range: impl Strategy<Value = (u64, u64)> + 'static) -> BoxedStrategy<Access> {
    (any::<bool>(), range, any::<bool>())
        .prop_map(|(write, (word, len), coalesced)| Access {
            write,
            word,
            len,
            coalesced,
        })
        .boxed()
}

/// Ranges inside one 64-word group, up to the whole group.
pub fn one_group() -> BoxedStrategy<Access> {
    access_of(
        (group_base(), 0u64..64, 0u64..64).prop_map(|(g, off, n)| (g + off, 1 + n % (64 - off))),
    )
}

/// Ranges that straddle at least one group boundary (for the last base, the
/// chunk boundary).
pub fn multi_group() -> BoxedStrategy<Access> {
    access_of(
        (group_base(), 1u64..64, 1u64..100)
            .prop_map(|(g, before, after)| (g + 64 - before, before + after)),
    )
}

/// A generated program. Compute statement `i` frees the range of its first
/// access in mid-strand, right after making it, where bit `i % 64` of
/// `frees` is set; `per_word` feeds every access one plain 4-byte hook per
/// word instead of its one hook.
#[derive(Clone, Copy)]
pub struct Program<'a> {
    f: &'a Func,
    frees: u64,
    per_word: bool,
}

impl<'a> Program<'a> {
    pub fn new(f: &'a Func, frees: u64, per_word: bool) -> Self {
        Program { f, frees, per_word }
    }

    fn walk<C: Cilk>(&self, f: &Func, computes: &mut u32, ctx: &mut C) {
        for stmt in &f.0 {
            match stmt {
                Stmt::Compute(accs) => {
                    let free_first = self.frees >> (*computes % 64) & 1 == 1;
                    *computes += 1;
                    for (i, a) in accs.iter().enumerate() {
                        let (addr, bytes) = ((a.word * 4) as usize, (a.len * 4) as usize);
                        let step = if self.per_word { 4 } else { bytes };
                        for at in (addr..addr + bytes).step_by(step) {
                            match (a.write, a.coalesced && !self.per_word) {
                                (true, true) => ctx.store_range(at, step),
                                (true, false) => ctx.store(at, step),
                                (false, true) => ctx.load_range(at, step),
                                (false, false) => ctx.load(at, step),
                            }
                        }
                        if i == 0 && free_first {
                            ctx.free(addr, bytes);
                        }
                    }
                }
                Stmt::Spawn(g) => ctx.spawn(|c| self.walk(g, computes, c)),
                Stmt::Sync => ctx.sync(),
                Stmt::Call(g) => ctx.call(|c| self.walk(g, computes, c)),
            }
        }
    }
}

impl CilkProgram for Program<'_> {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        self.walk(self.f, &mut 0, ctx);
    }
}

/// `p`'s hook stream — one event per hook, as [`stint_repro::record`]
/// returns it — as a portable trace: the stream a live detector numbers its
/// witness events over, and what a file written by a recorder that did not
/// coalesce holds. [`PortableTrace::record`] stores its coalesced form.
pub fn hook_trace<P: CilkProgram>(p: &mut P) -> PortableTrace {
    let (trace, reach) = stint_repro::record(p);
    PortableTrace {
        trace,
        reach: reach.freeze(),
    }
}

pub const VARIANTS: [Variant; 5] = [Vanilla, Compiler, CompRts, Stint, StintFlat];

/// Where a replay, batch or serve row reads its trace from: memory, or a v1
/// or v2 file (this many events a chunk) through `load_any` or
/// `batch_detect_any`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    Mem,
    V1,
    V2(usize),
}

/// One configuration, one tier. A `bool` is `true` for the program's hook
/// stream and `false` for the units [`PortableTrace::record`] stores.
#[derive(Clone, Copy, Debug)]
pub enum Row {
    /// A fresh run under a variant.
    Live(Config),
    /// A replay under a variant.
    Replay(bool, Src, Variant),
    Batch(bool, Src, BatchConfig),
    /// A fresh run detected online.
    Online(OnlineConfig),
    /// An in-process `DETECT` of the units at `shards=K,witness=1`.
    Serve(Src, usize),
}

impl Row {
    /// The row with witness capture on.
    pub fn witnessed(mut self) -> Row {
        match &mut self {
            Row::Live(c) => c.witnesses = true,
            Row::Batch(.., c) => c.witnesses = true,
            Row::Online(c) => c.witnesses = true,
            Row::Replay(..) | Row::Serve(..) => {}
        }
        self
    }

    /// The row under an interval budget, if `cap` sets one (a replay has
    /// none; a served row's goes into its `DETECT` options).
    fn capped(mut self, cap: Option<u64>) -> Row {
        let budget = match &mut self {
            Row::Live(c) => &mut c.budget,
            Row::Batch(.., c) => &mut c.limits.budget,
            Row::Online(c) => &mut c.budget,
            Row::Replay(..) | Row::Serve(..) => return self,
        };
        budget.max_intervals = cap.or(budget.max_intervals);
        self
    }
}

/// The five variants live.
pub fn live() -> [Row; 5] {
    VARIANTS.map(|v| Row::Live(Config::new(v)))
}

/// Batch detection over `k` shards on `workers` workers, steal order
/// perturbed by `seed`.
pub fn batch(hooks: bool, src: Src, k: usize, workers: usize, seed: u64) -> Row {
    let mut cfg = BatchConfig::default();
    (cfg.shards, cfg.workers, cfg.steal_seed) = (k, workers, seed);
    Row::Batch(hooks, src, cfg)
}

/// Online detection over three shards, `chunk` units a hand-off.
pub fn online(workers: usize, seed: u64, chunk: usize) -> Row {
    let mut cfg = OnlineConfig::default();
    (cfg.shards, cfg.workers, cfg.steal_seed, cfg.chunk_events) = (3, workers, seed, chunk);
    Row::Online(cfg)
}

pub type Verdict<T = ()> = Result<T, TestCaseError>;

/// Check `f`, freeing in mid-strand where `frees` says, on `rows`.
pub fn check(f: &Func, frees: u64, rows: &[Row]) -> Verdict {
    let make = || Program::new(f, frees, false);
    let seq = detect(&mut Program::new(f, frees, true), Stint).report;
    if frees == 0 {
        let sim = simulate(f).racy_words();
        prop_assert!(sim == seq.racy_words(), "the expansion's racy words");
    }
    let h = Harness::new(&make, hook_trace(&mut make()), &seq)?;
    let units = PortableTrace::record(&mut make()).trace.events;
    prop_assert!(units == h.units.trace.events, "record stores other units");
    h.run(rows)
}

/// Check a suite kernel on `rows`. A run of it allocates afresh, so the
/// oracle is sequential STINT over one recorded hook stream, and a live or
/// online row is compared by racy-word count.
pub fn check_kernel(name: &str, rows: &[Row]) -> Verdict {
    let make = || Workload::by_name(name, Scale::Test);
    let h = kernel(&make)?;
    let long = h.hooks.trace.len() > DEFAULT_CHUNK_EVENTS;
    prop_assert!(long, "{name} fits one batch");
    h.run(rows)
}

fn kernel(make: &dyn Fn() -> Workload) -> Verdict<Harness<'_, Workload>> {
    let hooks = hook_trace(&mut make());
    let seq = hooks.replay(StintDetector::new(RaceReport::unbounded(true)));
    let mut h = Harness::new(make, hooks, &seq.report)?;
    h.fresh_heap = true;
    Ok(h)
}

/// The fault plan a `--fault-plan` spec names.
pub fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).expect("a fault plan")
}

/// The fault plan is process-global: whoever installs one holds this.
pub fn lock() -> MutexGuard<'static, ()> {
    static PLAN: Mutex<()> = Mutex::new(());
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a row under a fault plan must end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contract {
    /// The full verdict, as with no plan.
    Exact,
    /// The full verdict, or `ResourceExhausted(OmTags)` with exit 3.
    ExactOrExhausted,
    /// No racy word outside the oracle's (for a fresh run of a kernel, no
    /// more than it has); fewer only with an exit-3 degradation on record.
    Sound,
    /// Sound, and the exit-3 degradation is on record: a budget the
    /// subject cannot fit.
    Degraded,
    /// `Poisoned`, exit 4, by the injected flush panic.
    Poisoned,
}

/// Check suite kernels under fault plans on `rows`, holding [`lock`]. A
/// spec is a `--fault-plan` spec but for one more key, `max-intervals=N`:
/// the interval budget of every row but a replay. The oracle is computed
/// with no plan installed; then every row runs under the plan, building the
/// pools and the engine it runs on while the plan is installed (knobs are
/// sampled at construction), and ends as `contract` says.
pub fn check_under(specs: &[&str], contract: Contract, kernels: &[&str], rows: &[Row]) -> Verdict {
    let _g = lock();
    for spec in specs {
        const CAP: &str = "max-intervals=";
        let (cap, faults): (Vec<&str>, Vec<_>) = spec.split(',').partition(|t| t.starts_with(CAP));
        let cap = cap
            .last()
            .map(|t| t[CAP.len()..].parse().expect("a budget"));
        for &name in kernels {
            let make = || Workload::by_name(name, Scale::Test);
            let mut h = kernel(&make)?;
            (h.contract, h.cap) = (contract, cap);
            let _plan = ScopedPlan::install(plan(&faults.join(",")));
            h.run(rows)
                .map_err(|e| fail(format!("{spec:?} on {name}: {e:?}")))?;
        }
    }
    Ok(())
}

type Triple = (u64, u8, u32, u32);

/// Every `(word, kind, prev, cur)` the races cover.
fn triples(races: &[Race]) -> BTreeSet<Triple> {
    let per_word = |r: &Race| {
        let (kind, prev, cur) = (r.kind as u8, r.prev.0, r.cur.0);
        (r.word_lo..r.word_hi).map(move |w| (w, kind, prev, cur))
    };
    races.iter().flat_map(per_word).collect()
}

fn fail(e: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::Fail(e.to_string())
}

const JUDGED: &str = "judged by the contract";

/// A row the contract has judged, leaving no exact verdict to check.
fn judged() -> TestCaseError {
    TestCaseError::Reject(JUDGED.into())
}

/// One subject, the racy words and races every row must report, and what
/// its rows reported so far.
struct Harness<'a, P> {
    make: &'a dyn Fn() -> P,
    /// Each run allocates afresh: live and online rows count racy words.
    fresh_heap: bool,
    /// How each row must end; `Exact` but under a fault plan.
    contract: Contract,
    /// The interval budget of every row that takes one.
    cap: Option<u64>,
    oracle: Vec<u64>,
    triples: BTreeSet<Triple>,
    hooks: PortableTrace,
    units: PortableTrace,
    live: HashMap<Variant, Outcome>,
    pools: HashMap<(usize, u64), ThreadPool>,
    /// The in-process service the serve rows submit to; dropping the
    /// harness drains it.
    engine: Option<Engine>,
    /// Per input and K: the merged statistics, and the work of the shards
    /// of the last in-memory row.
    stats: HashMap<(bool, usize), [u64; 4]>,
    mem_work: HashMap<(bool, usize), Vec<u64>>,
    /// Per input: the first witnessed merged report.
    witnessed: HashMap<bool, MergedReport>,
}

impl<'a, P: CilkProgram> Harness<'a, P> {
    /// The units are the hooks' coalesced runs, a fixed point of coalescing.
    fn new(make: &'a dyn Fn() -> P, hooks: PortableTrace, seq: &RaceReport) -> Verdict<Self> {
        let (trace, reach) = (hooks.trace.clone().coalesced(), hooks.reach.clone());
        let again = trace.clone().coalesced();
        prop_assert!(again.events == trace.events, "coalescing changes the units");
        prop_assert!(trace.len() <= hooks.trace.len());
        let (oracle, triples) = (seq.racy_words(), triples(seq.races()));
        let words: BTreeSet<u64> = triples.iter().map(|t| t.0).collect();
        let same = words.iter().eq(&oracle);
        prop_assert!(same, "races on other words than the racy ones");
        Ok(Harness {
            make,
            fresh_heap: false,
            contract: Contract::Exact,
            cap: None,
            oracle,
            triples,
            hooks,
            units: PortableTrace { trace, reach },
            live: HashMap::new(),
            pools: HashMap::new(),
            engine: None,
            stats: HashMap::new(),
            mem_work: HashMap::new(),
            witnessed: HashMap::new(),
        })
    }

    fn run(mut self, rows: &[Row]) -> Verdict {
        for &row in rows {
            match self.row(row) {
                Err(TestCaseError::Reject(why)) if why == JUDGED => {}
                Ok(()) => {}
                Err(e) => return Err(fail(format!("{row:?}: {e:?}"))),
            }
        }
        Ok(())
    }

    /// The hook stream, or the units.
    fn input(&self, hooks: bool) -> &PortableTrace {
        [&self.units, &self.hooks][hooks as usize]
    }

    /// `v`'s live run with no budget, run once.
    fn live(&mut self, v: Variant) -> Verdict<&Outcome> {
        if !self.live.contains_key(&v) {
            let o = self.detect_live(Config::new(v))?;
            self.live.insert(v, o);
        }
        Ok(&self.live[&v])
    }

    /// A fresh run under `cfg`, judged by the contract.
    fn detect_live(&self, cfg: Config) -> Verdict<Outcome> {
        let run = try_detect_with(&mut (self.make)(), cfg);
        self.settle(true, run, |o| (o.report.racy_words(), exit(&o.degraded)))
    }

    /// Judge a row's run by the contract, `seen` giving a finished run's
    /// racy words and its degradation's exit code: the run, for the exact
    /// checks to go on with, or [`judged`].
    fn settle<T>(
        &self,
        fresh: bool,
        run: Result<T, DetectorError>,
        seen: impl FnOnce(&T) -> (Vec<u64>, Option<u8>),
    ) -> Verdict<T> {
        let allowed = |e: &DetectorError| match (self.contract, e) {
            (Contract::ExactOrExhausted, DetectorError::ResourceExhausted { resource, .. }) => {
                *resource == Resource::OmTags
            }
            (Contract::Poisoned, DetectorError::Poisoned { detail }) => {
                detail.contains("injected flush panic")
            }
            _ => false,
        };
        let t = match run {
            Err(e) if allowed(&e) => return Err(judged()),
            Ok(_) if self.contract == Contract::Poisoned => return Err(fail("not poisoned")),
            run => run.map_err(fail)?,
        };
        let (words, degraded) = seen(&t);
        if !matches!(self.contract, Contract::Sound | Contract::Degraded) {
            prop_assert_eq!(degraded, None, "degraded");
            return Ok(t);
        }
        let must = self.contract == Contract::Degraded;
        prop_assert!(
            degraded.map_or(!must, |code| code == 3),
            "exit {degraded:?}"
        );
        let (n, all) = (words.len(), self.oracle.len());
        let outside = match fresh && self.fresh_heap {
            true => n > all,
            false => words.iter().any(|w| self.oracle.binary_search(w).is_err()),
        };
        prop_assert!(!outside, "{n} racy words, not within the oracle's {all}");
        prop_assert!(
            n == all || degraded.is_some(),
            "racy words lost, no degradation"
        );
        Err(judged())
    }

    /// One row: its run judged by the contract, then, where that leaves the
    /// exact verdict to check, the tier's invariants and the one assertion.
    fn row(&mut self, row: Row) -> Verdict {
        match row.capped(self.cap) {
            // Not degraded; comp+rts and STINT(btree) feed the coalescer
            // what STINT does.
            Row::Live(cfg) => {
                let o = self.detect_live(cfg)?;
                let races = interval(cfg.variant).then(|| o.report.races());
                let on = cfg.witnesses.then_some(true);
                self.verdict(true, &o.report.racy_words(), races, on)?;
                // Last: under a plan, STINT's own run may end as judged.
                if matches!(cfg.variant, CompRts | StintFlat) {
                    let stint = coalescer(&self.live(Stint)?.stats);
                    prop_assert_eq!(coalescer(&o.stats), stint, "coalescer statistics");
                }
                Ok(())
            }
            // A file loads back as the trace; not degraded; a second replay
            // repeats the first; the race total of a hook stream or an
            // interval detector, and its statistics (over units, those
            // beyond what the coalescer was fed), are the live run's, but
            // where a live run allocates afresh.
            Row::Replay(hooks, src, v) => {
                let pt = self.input(hooks);
                let back = match src {
                    Src::Mem => pt.clone(),
                    _ => PortableTrace::load_any(&encode(pt, src).0[..]).map_err(fail)?,
                };
                let same = back.trace.events == pt.trace.events && back.reach == pt.reach;
                prop_assert!(same, "the file loads back as another trace");
                let replay = || try_replay_with(&back, Config::new(v));
                let seen = |o: &Outcome| (o.report.racy_words(), exit(&o.degraded));
                let Outcome { report, stats, .. } = self.settle(false, replay(), seen)?;
                let again = replay().map_err(fail)?;
                prop_assert!(
                    again.report.racy_words() == report.racy_words(),
                    "second replay"
                );
                prop_assert!(again.stats.fields() == stats.fields(), "second replay");
                if !self.fresh_heap {
                    let live = self.live(v)?;
                    if hooks || !matches!(v, Vanilla | Compiler) {
                        prop_assert_eq!(report.total, live.report.total, "race total");
                    }
                    if hooks || interval(v) {
                        prop_assert_eq!(beyond(&stats, hooks), beyond(&live.stats, hooks));
                    }
                }
                let races = interval(v).then(|| report.races());
                self.verdict(false, &report.racy_words(), races, None)
            }
            // Not degraded, K shards, every event counted, a streamed run
            // ingests the file but its header in the chunks the writer
            // framed; the merged statistics are the first row's of this K;
            // a streamed row's shards work no more than the last in-memory
            // row's.
            Row::Batch(hooks, src, cfg) => {
                let (pools, key) = (&mut self.pools, (cfg.workers, cfg.steal_seed));
                let pool = pools.entry(key).or_insert_with(|| new_pool(key.0, key.1));
                let pt = [&self.units, &self.hooks][hooks as usize];
                let file = (src != Src::Mem).then(|| encode(pt, src));
                let run = match &file {
                    None => batch_detect_on(pool, pt, &cfg),
                    Some((bytes, _)) => batch_detect_any(pool, &mut &bytes[..], &cfg),
                };
                let seen = |o: &BatchOutcome| (o.merged.racy_words.clone(), exit(&o.degraded));
                let out = self.settle(false, run, seen)?;
                if let (Src::V2(_), Some((bytes, chunks))) = (src, &file) {
                    let ingest = out.ingest.ok_or_else(|| fail("streamed, no ingest"))?;
                    let mut header = std::io::Cursor::new(&bytes[..]);
                    ctrace::CompressedTraceReader::open(&mut header).map_err(fail)?;
                    let whole = ingest.bytes + header.position() == bytes.len() as u64;
                    prop_assert!(whole, "ingested {} bytes of {}", ingest.bytes, bytes.len());
                    prop_assert_eq!(ingest.chunks, *chunks, "reader and writer chunks");
                }
                let k = cfg.shards;
                prop_assert!(out.shards.len() == k);
                prop_assert_eq!(out.events, pt.trace.len());
                work(&out.shards, out.events, if k == 1 { 1.1 } else { 1.5 })?;
                let s = &out.stats;
                let fp = [s.ah_bytes, s.coalesce_bytes, s.treap.ops, s.strands_flushed];
                let first = *self.stats.entry((hooks, k)).or_insert(fp);
                prop_assert_eq!(fp, first, "merged statistics depend on the schedule");
                let work: Vec<u64> = out.shards.iter().map(|s| s.events).collect();
                if let Src::V2(_) = src {
                    let mem = self.mem_work.get(&(hooks, k));
                    let mem = mem.ok_or_else(|| fail("no in-memory row of this K before"))?;
                    let less = work.iter().zip(mem).all(|(a, b)| a <= b);
                    prop_assert!(less, "shard work {work:?} over in-memory {mem:?}");
                } else {
                    self.mem_work.insert((hooks, k), work);
                }
                self.merged(hooks, cfg.witnesses, &out.merged, false)
            }
            // Not degraded, every hook counted, ⌈units / chunk⌉ + 1
            // hand-offs.
            Row::Online(cfg) => {
                let run = online_detect(&mut (self.make)(), &cfg);
                let seen = |o: &OnlineOutcome| (o.merged.racy_words.clone(), exit(&o.degraded));
                let out = self.settle(true, run, seen)?;
                prop_assert_eq!(out.events, self.hooks.trace.len());
                let hand_offs = out.units.div_ceil(cfg.chunk_events as u64) + 1;
                prop_assert_eq!(out.chunks, hand_offs, "hand-offs");
                work(&out.shards, out.events, 1.5)?;
                self.merged(true, cfg.witnesses, &out.merged, true)
            }
            // Racy or ok, and the report is the witnessed batch render of
            // the units, but for the witnesses past the reply's cap of 64.
            // A reply with no report answers a run that failed: poisoned,
            // or any other error, which no contract allows.
            Row::Serve(src, k) => {
                let (tx, rx) = mpsc::channel();
                let cap = self.cap.map(|n| format!(",max-intervals={n}"));
                let opts = format!("shards={k},witness=1{}", cap.unwrap_or_default());
                let new = || Engine::new(EngineConfig::default());
                let engine = self.engine.get_or_insert_with(new);
                engine.try_submit(opts, encode(&self.units, src).0, tx);
                let resp = rx.recv_timeout(Duration::from_secs(60)).map_err(fail)?;
                let detail = resp.payload.clone();
                let run = match resp.payload.split_once("report:\n") {
                    Some((_, report)) => Ok(report),
                    None if resp.status == Status::Corrupt && detail.contains("kind: poisoned") => {
                        Err(DetectorError::Poisoned { detail })
                    }
                    None => return Err(fail(detail)),
                };
                let degraded = (resp.status == Status::Degraded).then(|| resp.status.exit_code());
                let report = self.settle(false, run, |r| (rendered_words(r), degraded))?;
                let status = [Status::Ok, Status::Racy][!self.oracle.is_empty() as usize];
                prop_assert_eq!(resp.status, status, "{}", resp.payload);
                if !self.witnessed.contains_key(&false) {
                    self.row(batch(false, Src::Mem, k, 2, 0).witnessed())?;
                }
                let mut want = self.witnessed[&false].clone();
                let shown = want.regions.iter_mut().filter(|r| r.witness.is_some());
                shown.skip(64).for_each(|r| r.witness = None);
                prop_assert_eq!(report, &want.render()[..]);
                Ok(())
            }
        }
    }

    /// A witnessed render is the first witnessed render of its input.
    fn merged(&mut self, hooks: bool, witnessed: bool, m: &MergedReport, fresh: bool) -> Verdict {
        if witnessed {
            let first = self.witnessed.entry(hooks).or_insert_with(|| m.clone());
            prop_assert_eq!(first.render(), m.render(), "witnessed renders differ");
        }
        let on = witnessed.then_some(hooks);
        self.verdict(fresh, &m.racy_words, Some(&m.regions), on)
    }

    /// The one assertion. `fresh`: the row ran the program again; `on`: its
    /// witnesses number the hook stream's events or the units'.
    fn verdict(
        &self,
        fresh: bool,
        words: &[u64],
        races: Option<&[Race]>,
        on: Option<bool>,
    ) -> Verdict {
        if fresh && self.fresh_heap {
            prop_assert_eq!(words.len(), self.oracle.len(), "racy-word count");
            return Ok(());
        }
        prop_assert_eq!(words, &self.oracle[..], "racy words");
        let Some(races) = races else { return Ok(()) };
        let same = triples(races) == self.triples;
        prop_assert!(same, "races are not sequential STINT's");
        if let Some(hooks) = on {
            let pt = self.input(hooks);
            let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
            for r in races {
                let strands = r.witness.as_ref().map(|w| (w.prev.strand, w.cur.strand));
                prop_assert_eq!(strands, Some((r.prev, r.cur)), "witness strands");
                prop_assert!(checker.check(r).is_ok(), "{:?}", checker.check(r));
            }
        }
        Ok(())
    }
}

/// The exit code of a run's degradation.
fn exit(degraded: &Option<DetectorError>) -> Option<u8> {
    degraded.as_ref().map(DetectorError::exit_code)
}

/// The racy words a merged render lists.
fn rendered_words(render: &str) -> Vec<u64> {
    let word = |l: &str| u64::from_str_radix(l.strip_prefix("w 0x")?, 16).ok();
    render.lines().filter_map(word).collect()
}

/// `pt` as a file in `src`'s format, and the chunks a v2 writer framed.
fn encode(pt: &PortableTrace, src: Src) -> (Vec<u8>, u64) {
    let mut buf = Vec::new();
    let chunks = match src {
        Src::V2(chunk) => pt.save_compressed(&mut buf, chunk).expect("v2 save").chunks,
        _ => pt.save(&mut buf).map(|()| 0).expect("v1 save"),
    };
    (buf, chunks)
}

fn interval(v: Variant) -> bool {
    matches!(v, Stint | StintFlat)
}

/// What the coalescer was fed and gave out, a side at a time.
fn coalescer(s: &DetectorStats) -> Vec<u64> {
    let side = |x: Sided| [x.hooks, x.hook_bytes, x.words, x.intervals];
    [s.read, s.write].into_iter().flat_map(side).collect()
}

/// Every integer statistic, or all but what the coalescer was fed.
fn beyond(s: &DetectorStats, hooks: bool) -> Vec<(&'static str, u64)> {
    let words = ["detector.read_words", "detector.write_words"];
    let fed = |n: &&str| n.contains("hook") || words.contains(n);
    let fields = s.fields().into_iter();
    fields.filter(|(n, _)| hooks || !fed(n)).collect()
}

/// Shard work over the stream it came from, on a stream longer than one
/// batch: straddler clips and per-shard markers are the only duplication a
/// partition may add. (On a short one, a strand whose one run straddles a
/// cut is four units of work for two of stream.)
fn work(shards: &[ShardOutcome], stream: usize, bar: f64) -> Verdict {
    let ratio = shards.iter().map(|s| s.events).sum::<u64>() as f64 / stream as f64;
    let long = stream > DEFAULT_CHUNK_EVENTS;
    prop_assert!(!long || ratio <= bar, "work {ratio:.3}x > {bar}x");
    Ok(())
}
