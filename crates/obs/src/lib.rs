//! Unified observability for the detector stack: structured metrics, span
//! tracing, and JSON export.
//!
//! The paper's evaluation is all about *seeing inside* the access history —
//! interval counts, coalescing rates, where detection time goes. This crate
//! is the single substrate every layer reports into:
//!
//! * **Counters** ([`Counter`]) — named monotonic `u64`s declared as
//!   `static`s per crate (`om.relabels`, `ivtree.rotations`, …).
//! * **Gauges** ([`Gauge`]) — current value plus high watermark for
//!   quantities that go both up and down, chiefly live byte accounting
//!   (`ivtree.bytes`, `shadow.word_bytes`, …). [`Gauge::reconcile`] is the
//!   arena pattern: owners track the bytes they last reported and publish
//!   deltas, so the gauge stays exact across reallocation and drop. A
//!   periodic [`sampler`] snapshots every gauge into a time series.
//! * **Histograms** ([`Histogram`]) — log2-bucketed value distributions
//!   (relabel widths, per-op nodes visited).
//! * **Spans** ([`span`]) — lightweight start/stop timing with thread-local
//!   buffers, gated by the span mode of the process-wide [`ObsConfig`].
//! * **Events** ([`event`]) — zero-duration instants tagged into the same
//!   stream (fault injections, lost timing overrides).
//!
//! Spans are one of two clock gates in the workspace. The other is
//! `stint::timing`: its `FlushTimer` times access-history flushes for the
//! `ah_time` column under its own mode (`STINT_AH_TIMING`), latched once per
//! process. `ah_time` is a result the figures report, so it must be
//! measurable with observability off, and a detector must not change how it
//! times itself when observability is enabled or disabled mid-run.
//!
//! The exporters serialize one [`snapshot`] of the registry with no
//! external dependencies: [`metrics_json`] (a flat document keyed by metric
//! name), [`prometheus_text`], [`write_mem_series_json`] and [`trace_json`]
//! (Chrome/Perfetto `trace_event` format — load the file at
//! `ui.perfetto.dev` or `chrome://tracing`). Every JSON document in the
//! workspace is written and read with the [`json`] module.
//!
//! # Zero cost when disabled
//!
//! The layer follows the `stint-faults` pattern exactly: every counter add,
//! histogram observe, span open and event goes through one relaxed load of a
//! global `AtomicBool` ([`is_enabled`]); with observability off that load is
//! the **entire** cost, nothing registers, and the global registry is never
//! initialized ([`registry_initialized`] stays `false`). Two checks hold the
//! claim: `tests/obs_disabled.rs` runs detection, a work-stealing pool and a
//! serve session with observability off and finds no registry, and the repo
//! benchmark's measuring child fails a run whose registry came up.
//!
//! Configuration comes from the `STINT_OBS` environment variable
//! ([`enable_from_env`]) or the CLI `--obs` flag; specs look like
//! `on`, `counters`, `spans=full`, `full` (see [`ObsConfig::parse`]).
//!
//! # Registration without life-before-main
//!
//! Rust has no portable static constructors, so metrics self-register
//! lazily: the first enabled touch of a counter, gauge or histogram pushes
//! `&'static self` into the registry under a mutex (one cold function serves
//! all three kinds); every later touch is a relaxed flag check plus the
//! relaxed update itself. A metric that is never touched (or only touched
//! while disabled) is invisible to the exporters.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod json;

/// Span recording mode. It has the three settings of `stint::timing`'s
/// `FlushTimer` gate but is a separate gate (see the crate docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanMode {
    /// Never read the clock; [`span`] returns an inert guard.
    Off,
    /// Record every [`SAMPLE_PERIOD`]th span per thread (cheap, unbiased
    /// when span cost is stationary). Instant events are always recorded.
    #[default]
    Sampled,
    /// Record every span (exact; two clock reads per span).
    Full,
}

/// Spans are sampled one-in-`SAMPLE_PERIOD` per thread under
/// [`SpanMode::Sampled`] (matches `stint::timing::SAMPLE_PERIOD`).
pub const SAMPLE_PERIOD: u32 = 64;

/// Process-wide observability configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    pub spans: SpanMode,
    /// Periodic gauge-snapshot interval in milliseconds (`None` = sampler
    /// off). Set via the `sample=N` spec key; snapshots feed the memory
    /// time-series exporter and the Perfetto counter track.
    pub sample_ms: Option<u64>,
}

impl ObsConfig {
    /// Counters only, spans off.
    pub const COUNTERS: ObsConfig = ObsConfig {
        spans: SpanMode::Off,
        sample_ms: None,
    };
    /// Counters plus full (every-span) tracing.
    pub const FULL: ObsConfig = ObsConfig {
        spans: SpanMode::Full,
        sample_ms: None,
    };

    /// Parse an `STINT_OBS` / `--obs` spec. Returns `Ok(None)` when the spec
    /// explicitly disables observability (`off` / `0` / empty).
    ///
    /// | spec | meaning |
    /// |---|---|
    /// | `off`, `0`, `` | disabled (zero-cost path) |
    /// | `on`, `1`, `sampled` | counters + sampled spans (the default config) |
    /// | `counters` | counters only, spans off |
    /// | `full` | counters + every span recorded |
    /// | `spans=off\|sampled\|full` | counters + explicit span mode |
    /// | `sample=N` | counters + gauge snapshots every `N` ms (`0` = off) |
    ///
    /// Comma-separated parts compose (`counters,spans=full` ≡ `full`); the
    /// last span setting wins. Unknown keys are errors (surfaced as CLI
    /// usage errors, exit 2).
    pub fn parse(spec: &str) -> Result<Option<ObsConfig>, String> {
        let mut cfg = ObsConfig::default();
        let mut enabled = false;
        for part in spec.split(',') {
            let part = part.trim();
            match part {
                "" => continue,
                "off" | "0" => enabled = false,
                "on" | "1" | "sampled" => {
                    enabled = true;
                    cfg.spans = SpanMode::Sampled;
                }
                "counters" => {
                    enabled = true;
                    cfg.spans = SpanMode::Off;
                }
                "full" => {
                    enabled = true;
                    cfg.spans = SpanMode::Full;
                }
                _ => match part.split_once('=') {
                    Some(("spans", v)) => {
                        enabled = true;
                        cfg.spans = match v.trim() {
                            "off" => SpanMode::Off,
                            "sampled" => SpanMode::Sampled,
                            "full" => SpanMode::Full,
                            other => return Err(format!("unknown span mode {other:?}")),
                        };
                    }
                    Some(("sample", v)) => {
                        enabled = true;
                        let ms: u64 = v
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad sample interval {v:?}"))?;
                        cfg.sample_ms = (ms > 0).then_some(ms);
                    }
                    _ => return Err(format!("unknown obs setting {part:?}")),
                },
            }
        }
        Ok(enabled.then_some(cfg))
    }
}

/// Fast gate: true only while observability is enabled. One relaxed atomic
/// load — this is the entire disabled-path cost of the layer.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Encoded [`SpanMode`]; only consulted when [`ENABLED`] is set.
static SPAN_MODE: AtomicU32 = AtomicU32::new(0);
/// Monotonic per-thread trace ids, handed out on first span per thread.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// True while observability is enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The effective span mode ([`SpanMode::Off`] whenever disabled).
fn span_mode() -> SpanMode {
    if !is_enabled() {
        return SpanMode::Off;
    }
    match SPAN_MODE.load(Ordering::Relaxed) {
        2 => SpanMode::Full,
        1 => SpanMode::Sampled,
        _ => SpanMode::Off,
    }
}

/// Enable observability process-wide with the given configuration.
pub fn enable(cfg: ObsConfig) {
    let mode = match cfg.spans {
        SpanMode::Off => 0,
        SpanMode::Sampled => 1,
        SpanMode::Full => 2,
    };
    SPAN_MODE.store(mode, Ordering::Relaxed);
    sampler::set_interval_ms(cfg.sample_ms.unwrap_or(0));
    ENABLED.store(true, Ordering::Release);
    if cfg.sample_ms.is_some() {
        sampler::start();
    }
}

/// Back to the zero-cost disabled state. Already-recorded data stays in the
/// registry (exporters still see it); nothing new is recorded. A running
/// sampler thread notices and exits on its next wakeup.
pub fn disable() {
    sampler::set_interval_ms(0);
    ENABLED.store(false, Ordering::Release);
}

/// Environment variable consulted by [`enable_from_env`].
pub const ENV_VAR: &str = "STINT_OBS";

/// Enable from the `STINT_OBS` environment variable, if set to an enabling
/// spec. Returns whether observability was enabled; a malformed spec is an
/// error.
pub fn enable_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) => {
            match ObsConfig::parse(&spec).map_err(|e| format!("{ENV_VAR}={spec:?}: {e}"))? {
                Some(cfg) => {
                    enable(cfg);
                    Ok(true)
                }
                None => Ok(false),
            }
        }
        _ => Ok(false),
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A recorded span or instant event.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    instant: bool,
}

/// One periodic gauge snapshot taken by the [`sampler`].
#[derive(Clone, Debug)]
struct Sample {
    /// Nanoseconds since the registry epoch (the span time origin).
    t_ns: u64,
    /// `(gauge name, current value)` pairs at snapshot time.
    values: Vec<(&'static str, u64)>,
}

struct Registry {
    /// Every touched static, in first-touch order.
    metrics: Vec<Metric>,
    /// Late-bound named values (e.g. `DetectorStats` published at the end of
    /// a run) that have no static `Counter` declaration.
    named: BTreeMap<&'static str, u64>,
    spans: Vec<SpanRec>,
    /// Periodic gauge snapshots (memory time series).
    samples: Vec<Sample>,
    /// Process time origin for span timestamps, fixed at first registry use.
    epoch: Instant,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| {
            Mutex::new(Registry {
                metrics: Vec::new(),
                named: BTreeMap::new(),
                spans: Vec::new(),
                samples: Vec::new(),
                epoch: Instant::now(),
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run `f` on the locked registry, or return `R::default()` — without
/// initializing it — when nothing has ever registered (in particular
/// whenever observability was never enabled).
fn with_registry<R: Default>(f: impl FnOnce(&mut Registry) -> R) -> R {
    if REGISTRY.get().is_none() {
        return R::default();
    }
    f(&mut registry())
}

/// A point-in-time copy of every registered metric, each list sorted by
/// name — what all the exporters format from.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Static [`Counter`]s and the late-bound [`add`] values, one namespace.
    pub counters: BTreeMap<&'static str, u64>,
    /// `(name, current, high watermark)`.
    pub gauges: Vec<(&'static str, u64, u64)>,
    pub histograms: Vec<HistSnapshot>,
    /// Spans and instant events flushed into the registry so far.
    pub spans_recorded: usize,
}

impl Registry {
    /// The one walk of the registered statics (besides [`reset`]).
    fn snapshot(&self) -> Snapshot {
        let mut counters = self.named.clone();
        let (mut gauges, mut histograms) = (Vec::new(), Vec::new());
        for m in &self.metrics {
            match *m {
                Metric::Counter(c) => *counters.entry(c.name).or_insert(0) += c.get(),
                Metric::Gauge(g) => gauges.push((g.name, g.get(), g.high_water())),
                Metric::Histogram(h) => histograms.push(HistSnapshot {
                    name: h.name,
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.bucket_counts(),
                }),
            }
        }
        gauges.sort_by_key(|(name, ..)| *name);
        histograms.sort_by_key(|h| h.name);
        Snapshot {
            counters,
            gauges,
            histograms,
            spans_recorded: self.spans.len(),
        }
    }
}

/// Snapshot the registry under its lock. Empty — without initializing the
/// registry — when nothing has registered.
pub fn snapshot() -> Snapshot {
    with_registry(|reg| reg.snapshot())
}

/// True once anything has actually been recorded. With observability
/// disabled nothing ever registers, so a full benchmark run leaves this
/// `false` — the disabled-path guarantee mirrored from `stint-faults`
/// (asserted by `tests/obs_disabled.rs` and the perf gate).
pub fn registry_initialized() -> bool {
    REGISTRY.get().is_some()
}

/// Add `n` to the late-bound named counter `name` (cold path: takes the
/// registry lock every call). Used to publish end-of-run `DetectorStats`
/// into the same namespace as the static counters.
pub fn add(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    *registry().named.entry(name).or_insert(0) += n;
}

/// Reset every registered counter, histogram, named value and recorded span
/// to zero/empty (test isolation; spans buffered in *other* threads that
/// have not yet flushed are not reachable and survive a reset).
pub fn reset() {
    flush_thread_spans();
    if !registry_initialized() {
        return;
    }
    let mut reg = registry();
    let zero = |cells: &[&AtomicU64]| cells.iter().for_each(|c| c.store(0, Ordering::Relaxed));
    for m in &reg.metrics {
        match *m {
            Metric::Counter(c) => zero(&[&c.value]),
            Metric::Gauge(g) => zero(&[&g.value, &g.hw]),
            Metric::Histogram(h) => {
                zero(&[&h.count, &h.sum]);
                zero(&h.buckets.each_ref());
            }
        }
    }
    reg.named.clear();
    reg.spans.clear();
    reg.samples.clear();
    reg.epoch = Instant::now();
}

/// A registered static of any kind.
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// The one registration path of all three metric kinds: take the registry
/// lock, swap the static's flag and push it. Each kind reaches it through
/// its `#[cold] first_touch`, which only names the kind, so the code inlined
/// at every metric touch passes the static alone.
#[cold]
#[inline(never)]
fn register_metric(m: Metric) {
    let registered = match m {
        Metric::Counter(c) => &c.registered,
        Metric::Gauge(g) => &g.registered,
        Metric::Histogram(h) => &h.registered,
    };
    let mut reg = registry();
    // The swap under the lock makes the registration unique even when two
    // threads race their first touch.
    if !registered.swap(true, Ordering::Relaxed) {
        reg.metrics.push(m);
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named monotonic counter (or, via [`Counter::record_max`], a high-water
/// gauge). Declare as a `static` and touch from anywhere:
///
/// ```
/// static RELABELS: stint_obs::Counter = stint_obs::Counter::new("om.relabels");
/// let _scope = stint_obs::ScopedObs::enable(stint_obs::ObsConfig::COUNTERS);
/// RELABELS.incr();
/// assert_eq!(RELABELS.get(), 1);
/// ```
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current value (0 until first enabled touch).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Add `n`. No-op (one relaxed load) while disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !is_enabled() {
            return;
        }
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1. No-op (one relaxed load) while disabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1)
    }

    /// Raise the value to at least `v` (high-water gauge). No-op while
    /// disabled.
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if !is_enabled() {
            return;
        }
        self.register();
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) {
            self.first_touch();
        }
    }

    #[cold]
    fn first_touch(&'static self) {
        register_metric(Metric::Counter(self));
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// A named up-down gauge with a high watermark — the primitive for "bytes
/// currently held" accounting. Same lazily-self-registering statics and
/// one-relaxed-load disabled path as [`Counter`]; unlike a counter, a gauge
/// can go down, and its peak is tracked separately so currents and
/// watermarks are never conflated in the metrics export:
///
/// ```
/// static BYTES: stint_obs::Gauge = stint_obs::Gauge::new("test.doc_bytes");
/// let _scope = stint_obs::ScopedObs::enable(stint_obs::ObsConfig::COUNTERS);
/// BYTES.add(4096);
/// BYTES.sub(1024);
/// assert_eq!(BYTES.get(), 3072);
/// assert_eq!(BYTES.high_water(), 4096);
/// ```
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    hw: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
            hw: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current value (0 until first enabled touch).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever reached (0 until first enabled touch).
    pub fn high_water(&self) -> u64 {
        self.hw.load(Ordering::Relaxed)
    }

    /// Raise the gauge by `n` and push the watermark. No-op (one relaxed
    /// load) while disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !is_enabled() {
            return;
        }
        self.register();
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.hw.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the gauge by `n`, saturating at zero (an enable mid-lifetime
    /// can observe a release without its matching acquire). No-op (one
    /// relaxed load) while disabled.
    #[inline]
    pub fn sub(&'static self, n: u64) {
        if !is_enabled() {
            return;
        }
        self.register();
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Reconcile an instance-local accounted size with the gauge: `*owned`
    /// holds the bytes this instance last reported; the difference to `now`
    /// is added to / subtracted from the gauge and `*owned` becomes `now`.
    /// This is the one-line pattern every arena uses after a growth step
    /// (and in `Drop` with `now = 0`). No-op while disabled — `*owned` is
    /// then left untouched, so a later enabled drop cannot underflow.
    #[inline]
    pub fn reconcile(&'static self, owned: &mut u64, now: u64) {
        if !is_enabled() {
            return;
        }
        let old = *owned;
        *owned = now;
        if now > old {
            self.add(now - old);
        } else if old > now {
            self.sub(old - now);
        }
    }

    #[inline]
    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) {
            self.first_touch();
        }
    }

    #[cold]
    fn first_touch(&'static self) {
        register_metric(Metric::Gauge(self));
    }
}

/// Snapshot every registered gauge as `(name, current, high_water)` triples,
/// sorted by name. Empty — without initializing the registry — when nothing
/// has registered (in particular whenever observability was never enabled).
pub fn gauges_snapshot() -> Vec<(&'static str, u64, u64)> {
    snapshot().gauges
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (relabel widths, per-op nodes
/// visited, treap depths). Same registration discipline as [`Counter`].
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample. No-op (one relaxed load) while disabled.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !is_enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.first_touch();
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of all `BUCKETS` bucket counts (index = log2 bucket).
    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) of the recorded samples
    /// from the log2 buckets. The target rank is `ceil(q * count)` clamped
    /// to `[1, count]`; within the bucket holding that rank the estimate
    /// interpolates linearly between the bucket bounds. Empty → 0.0.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.bucket_counts();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut before = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if before + n >= target {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u128 << (i - 1)) as f64;
                let hi = (1u128 << i) as f64;
                // Midpoint-rank interpolation keeps the estimate strictly
                // inside the half-open bucket even at q = 1.0.
                let frac = ((target - before) as f64 - 0.5) / n as f64;
                return lo + frac * (hi - lo);
            }
            before += n;
        }
        // Unreachable: target ≤ total and the loop covers every sample.
        0.0
    }

    #[cold]
    fn first_touch(&'static self) {
        register_metric(Metric::Histogram(self));
    }
}

/// One histogram in a [`Snapshot`]: name, sample count, sample sum, and all
/// `BUCKETS` bucket counts (index = log2 bucket).
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Spans and events
// ---------------------------------------------------------------------------

struct ThreadSpans {
    tid: u32,
    epoch: Instant,
    buf: Vec<SpanRec>,
    /// Per-thread span sequence number driving [`SpanMode::Sampled`].
    seq: u32,
}

impl ThreadSpans {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            registry().spans.append(&mut self.buf);
        }
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static SPANS: RefCell<Option<ThreadSpans>> = const { RefCell::new(None) };
}

/// Thread-local buffers flush into the global registry at this size.
const SPAN_FLUSH_AT: usize = 1024;

fn with_thread_spans<R>(f: impl FnOnce(&mut ThreadSpans) -> R) -> Option<R> {
    SPANS
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            let ts = slot.get_or_insert_with(|| {
                let epoch = registry().epoch;
                ThreadSpans {
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    epoch,
                    buf: Vec::new(),
                    seq: 0,
                }
            });
            f(ts)
        })
        .ok()
}

/// Flush the current thread's span buffer into the registry (exporters call
/// this so same-thread spans are always visible; other threads flush at
/// `SPAN_FLUSH_AT` and on thread exit).
fn flush_thread_spans() {
    if REGISTRY.get().is_none() {
        return;
    }
    SPANS
        .try_with(|cell| {
            if let Some(ts) = cell.borrow_mut().as_mut() {
                ts.flush();
            }
        })
        .ok();
}

/// RAII guard returned by [`span`]; records the span on drop.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// True if this span is actually being timed (false when disabled or
    /// skipped by sampling) — lets callers gate *extra* work, never needed
    /// for correctness.
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            with_thread_spans(|ts| {
                let start_ns = t0.duration_since(ts.epoch).as_nanos() as u64;
                ts.buf.push(SpanRec {
                    name: self.name,
                    tid: ts.tid,
                    start_ns,
                    dur_ns,
                    instant: false,
                });
                if ts.buf.len() >= SPAN_FLUSH_AT {
                    ts.flush();
                }
            });
        }
    }
}

/// Open a timed span; the returned guard records `name` with its duration
/// when dropped. Costs one relaxed load when disabled; under
/// [`SpanMode::Sampled`] one span in [`SAMPLE_PERIOD`] per thread is timed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let start = match span_mode() {
        SpanMode::Off => None,
        SpanMode::Full => Some(Instant::now()),
        SpanMode::Sampled => with_thread_spans(|ts| {
            let take = ts.seq & (SAMPLE_PERIOD - 1) == 0;
            ts.seq = ts.seq.wrapping_add(1);
            take
        })
        .unwrap_or(false)
        .then(Instant::now),
    };
    SpanGuard { name, start }
}

/// Record a zero-duration instant event (fault injections, lost overrides).
/// Never sampled away: when spans are on at all, every event is kept.
#[inline]
pub fn event(name: &'static str) {
    if span_mode() == SpanMode::Off {
        return;
    }
    let now = Instant::now();
    with_thread_spans(|ts| {
        let start_ns = now.duration_since(ts.epoch).as_nanos() as u64;
        ts.buf.push(SpanRec {
            name,
            tid: ts.tid,
            start_ns,
            dur_ns: 0,
            instant: true,
        });
        if ts.buf.len() >= SPAN_FLUSH_AT {
            ts.flush();
        }
    });
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Periodic gauge-snapshot sampler.
///
/// When [`ObsConfig::sample_ms`] is set, [`enable`] starts one background
/// thread that calls [`sampler::sample_now`] on the configured interval.
/// Each snapshot records every registered gauge's current value against the
/// registry epoch (the same time origin spans use), building the memory
/// time series exported by [`write_mem_series_json`] and merged into the
/// Perfetto trace as `counter`-phase events by [`write_trace_json`]. The
/// thread exits on [`disable`] (or when the interval is set to 0) at its
/// next wakeup; sampling threads never outlive an enabled configuration by
/// more than one interval.
pub mod sampler {
    use super::*;
    use std::time::Duration;

    /// Interval in ms; 0 means the sampler is off (thread exits).
    static INTERVAL_MS: AtomicU64 = AtomicU64::new(0);
    /// True while a sampler thread is alive (spawn guard).
    static RUNNING: AtomicBool = AtomicBool::new(false);

    pub(crate) fn set_interval_ms(ms: u64) {
        INTERVAL_MS.store(ms, Ordering::Relaxed);
    }

    /// The configured snapshot interval, if sampling is on.
    pub fn interval_ms() -> Option<u64> {
        match INTERVAL_MS.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(ms),
        }
    }

    /// Take one gauge snapshot right now (the sampler thread's body; also
    /// callable directly, e.g. by tests or at run boundaries, so a series
    /// exists even when the run is shorter than one interval).
    pub fn sample_now() {
        if !is_enabled() {
            return;
        }
        // One lock for the reading and the push keeps `t_ns` monotone
        // across concurrent callers.
        let mut reg = registry();
        let t_ns = reg.epoch.elapsed().as_nanos() as u64;
        let values = (reg.snapshot().gauges.iter())
            .map(|&(name, current, _)| (name, current))
            .collect();
        reg.samples.push(Sample { t_ns, values });
    }

    pub(crate) fn start() {
        if RUNNING.swap(true, Ordering::AcqRel) {
            return; // a sampler thread is already alive
        }
        let spawned = std::thread::Builder::new()
            .name("stint-obs-sampler".into())
            .spawn(|| {
                loop {
                    let ms = INTERVAL_MS.load(Ordering::Relaxed);
                    if ms == 0 || !is_enabled() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(ms));
                    sample_now();
                }
                RUNNING.store(false, Ordering::Release);
            });
        if spawned.is_err() {
            // Thread spawn failure degrades to no sampling; callers can
            // still `sample_now` manually.
            RUNNING.store(false, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Lock-free bounded ring buffer of fixed-size structured events — the
/// daemon's black box. Writers claim a slot with one `fetch_add` on a
/// global cursor and publish the record with a stamp protocol (stamp 0 =
/// being written; stamp `i+1` = record `i` complete), so concurrent
/// writers never block and a reader can always take a consistent snapshot:
/// it re-reads each slot's stamp after the payload words and drops torn
/// slots. The ring holds the most recent [`flight::CAP`] records; older
/// ones are overwritten.
///
/// Recording is gated on [`is_enabled`] — one relaxed load, no record, no
/// cursor movement while disabled — and keeps its own statics, so it never
/// initializes the metrics registry.
pub mod flight {
    use super::*;

    /// Ring capacity (power of two). The last `CAP` records survive.
    pub const CAP: usize = 1024;

    /// One decoded flight-recorder record.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FlightEvent {
        /// Nanoseconds since the recorder epoch (first enabled record).
        pub t_ns: u64,
        /// Session id the event belongs to (0 = daemon-level).
        pub session: u32,
        /// Event kind code — the *caller's* namespace (the serve crate
        /// defines its lifecycle kinds); the recorder stores it opaquely.
        pub kind: u16,
        /// Status/verdict code, caller-defined.
        pub status: u16,
        /// One payload word (queue depth, latency ms, error code, …).
        pub payload: u64,
    }

    struct Slot {
        /// 0 = empty or mid-write; `i + 1` = holds record number `i`.
        stamp: AtomicU64,
        t_ns: AtomicU64,
        /// `session << 32 | kind << 16 | status`.
        meta: AtomicU64,
        payload: AtomicU64,
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Slot = Slot {
        stamp: AtomicU64::new(0),
        t_ns: AtomicU64::new(0),
        meta: AtomicU64::new(0),
        payload: AtomicU64::new(0),
    };
    static SLOTS: [Slot; CAP] = [EMPTY; CAP];
    /// Total records ever written (also the next record number).
    static CURSOR: AtomicU64 = AtomicU64::new(0);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    fn epoch() -> Instant {
        *EPOCH.get_or_init(Instant::now)
    }

    /// Record one event. No-op (one relaxed load) while disabled.
    #[inline]
    pub fn record(session: u32, kind: u16, status: u16, payload: u64) {
        if !is_enabled() {
            return;
        }
        let t_ns = epoch().elapsed().as_nanos() as u64;
        let i = CURSOR.fetch_add(1, Ordering::Relaxed);
        let slot = &SLOTS[(i as usize) & (CAP - 1)];
        // Invalidate, write the words, then publish the new stamp; a
        // reader that races sees stamp 0 or mismatched stamps and skips.
        slot.stamp.store(0, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        let meta = ((session as u64) << 32) | ((kind as u64) << 16) | status as u64;
        slot.meta.store(meta, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.stamp.store(i + 1, Ordering::Release);
    }

    /// Total records ever written (monotone; records beyond [`CAP`] ago
    /// have been overwritten).
    pub fn records_written() -> u64 {
        CURSOR.load(Ordering::Relaxed)
    }

    /// Consistent snapshot of the surviving records, oldest first. Slots
    /// being overwritten during the scan are skipped (torn-read check via
    /// the stamp protocol), so a snapshot under concurrent writers returns
    /// slightly fewer than [`CAP`] records rather than garbage.
    pub fn snapshot() -> Vec<FlightEvent> {
        let cursor = CURSOR.load(Ordering::Acquire);
        let oldest = cursor.saturating_sub(CAP as u64);
        let mut rows: Vec<(u64, FlightEvent)> = Vec::new();
        for slot in &SLOTS {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            let s2 = slot.stamp.load(Ordering::Acquire);
            let rec = s1 - 1;
            if s1 != s2 || rec < oldest || rec >= cursor.max(s1) {
                continue; // torn or stale slot
            }
            rows.push((
                rec,
                FlightEvent {
                    t_ns,
                    session: (meta >> 32) as u32,
                    kind: ((meta >> 16) & 0xffff) as u16,
                    status: (meta & 0xffff) as u16,
                    payload,
                },
            ));
        }
        rows.sort_by_key(|(rec, _)| *rec);
        rows.into_iter().map(|(_, e)| e).collect()
    }

    /// Drop every record and rewind the cursor (test isolation / fresh
    /// soak phases). Not linearizable against concurrent writers.
    pub fn reset() {
        for slot in &SLOTS {
            slot.stamp.store(0, Ordering::Release);
        }
        CURSOR.store(0, Ordering::Release);
    }

    /// Dump the snapshot as JSON (`stint-flight-v1`):
    ///
    /// ```json
    /// {
    ///   "schema": "stint-flight-v1",
    ///   "records_written": 2048,
    ///   "records": [
    ///     { "t_ns": 12345, "session": 7, "kind": 2, "status": 0,
    ///       "payload": 42 },
    ///     ...
    ///   ]
    /// }
    /// ```
    pub fn write_json<W: Write>(mut w: W) -> std::io::Result<()> {
        let mut j = json::Writer::new(&mut w);
        j.begin_object();
        j.key("schema").str("stint-flight-v1");
        j.key("records_written").u64(records_written());
        j.key("records").begin_array();
        for r in snapshot() {
            j.begin_object();
            j.key("t_ns").u64(r.t_ns);
            j.key("session").u64(r.session.into());
            j.key("kind").u64(r.kind.into());
            j.key("status").u64(r.status.into());
            j.key("payload").u64(r.payload);
            j.end();
        }
        j.end().end();
        j.finish()
    }

    /// [`write_json`] into a `String`.
    pub fn json() -> String {
        render(|buf| write_json(buf))
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Run an exporter into a `String` (the `*_json()` / `*_text()` forms).
fn render(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporters write UTF-8")
}

/// Write the `"gauges"` member — `{ name: { "current": n, "hw": n }, … }` —
/// into an open object. Shared by the metrics document and the CLI's
/// `--stats-json`, which carries the same gauge section.
pub fn write_gauges(j: &mut json::Writer<'_>, gauges: &[(&'static str, u64, u64)]) {
    j.key("gauges").begin_object();
    for (name, current, hw) in gauges {
        j.key(name).begin_object();
        j.key("current").u64(*current);
        j.key("hw").u64(*hw);
        j.end();
    }
    j.end();
}

/// Serialize the registry as a flat metrics JSON object:
///
/// ```json
/// {
///   "schema": "stint-obs-metrics-v1",
///   "counters": { "om.relabels": 3, ... },
///   "gauges": { "ivtree.bytes": { "current": 0, "hw": 8192 }, ... },
///   "histograms": {
///     "ivtree.op_visited": {
///       "count": 10, "sum": 57,
///       "buckets": [ { "log2": 2, "count": 4 }, ... ]
///     }
///   },
///   "spans_recorded": 128
/// }
/// ```
///
/// Bucket `log2 = i` counts samples in `[2^(i-1), 2^i)` (`log2 = 0` counts
/// exact zeros); empty buckets are omitted. Keys are sorted, so the output
/// is deterministic for a deterministic run.
pub fn write_metrics_json<W: Write>(mut w: W) -> std::io::Result<()> {
    flush_thread_spans();
    let snap = snapshot();
    let mut j = json::Writer::new(&mut w);
    j.begin_object();
    j.key("schema").str("stint-obs-metrics-v1");
    j.key("counters").begin_object();
    for (name, v) in &snap.counters {
        j.key(name).u64(*v);
    }
    j.end();
    write_gauges(&mut j, &snap.gauges);
    j.key("histograms").begin_object();
    for h in &snap.histograms {
        j.key(h.name).begin_object();
        j.key("count").u64(h.count);
        j.key("sum").u64(h.sum);
        j.key("buckets").begin_array();
        for (log2, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
            j.begin_object();
            j.key("log2").u64(log2 as u64);
            j.key("count").u64(*n);
            j.end();
        }
        j.end().end();
    }
    j.end();
    j.key("spans_recorded").u64(snap.spans_recorded as u64);
    j.end();
    j.finish()
}

/// [`write_metrics_json`] into a `String`.
pub fn metrics_json() -> String {
    render(|buf| write_metrics_json(buf))
}

/// Serialize recorded spans in Chrome/Perfetto `trace_event` JSON: an array
/// of complete (`"ph": "X"`, with `ts`/`dur` in microseconds) and instant
/// (`"ph": "i"`) events, followed by one `counter` (`"ph": "C"`) event per
/// gauge per sampler snapshot — memory growth renders as counter tracks on
/// the same timeline as the spans. Load the file at `ui.perfetto.dev` or
/// `chrome://tracing`.
pub fn write_trace_json<W: Write>(mut w: W) -> std::io::Result<()> {
    // The fields every event starts with, and a time in microseconds.
    fn event(j: &mut json::Writer<'_>, name: &str, ph: &str) {
        j.begin_object();
        j.key("name").str(name);
        j.key("cat").str("stint");
        j.key("ph").str(ph);
    }
    fn us(j: &mut json::Writer<'_>, key: &str, ns: u64) {
        j.key(key).f64(ns as f64 / 1000.0);
    }
    flush_thread_spans();
    let (spans, samples) = with_registry(|reg| (reg.spans.clone(), reg.samples.clone()));
    let mut j = json::Writer::new(&mut w);
    j.begin_array();
    for s in &spans {
        if s.instant {
            event(&mut j, s.name, "i");
            j.key("s").str("t");
            us(&mut j, "ts", s.start_ns);
        } else {
            event(&mut j, s.name, "X");
            us(&mut j, "ts", s.start_ns);
            us(&mut j, "dur", s.dur_ns);
        }
        j.key("pid").u64(1);
        j.key("tid").u64(s.tid.into());
        j.end();
    }
    for snap in &samples {
        for (name, v) in &snap.values {
            event(&mut j, name, "C");
            us(&mut j, "ts", snap.t_ns);
            j.key("pid").u64(1);
            j.key("args").begin_object();
            j.key("value").u64(*v);
            j.end().end();
        }
    }
    j.end();
    j.finish()
}

/// [`write_trace_json`] into a `String`.
pub fn trace_json() -> String {
    render(|buf| write_trace_json(buf))
}

/// Serialize the sampler's gauge snapshots as a memory time series:
///
/// ```json
/// {
///   "schema": "stint-obs-memseries-v1",
///   "interval_ms": 10,
///   "samples": [
///     { "t_ns": 1000, "gauges": { "ivtree.bytes": 8192, ... } },
///     ...
///   ]
/// }
/// ```
///
/// Timestamps are nanoseconds since the registry epoch and strictly
/// non-decreasing (snapshots are taken under the registry lock).
pub fn write_mem_series_json<W: Write>(mut w: W) -> std::io::Result<()> {
    let samples = with_registry(|reg| reg.samples.clone());
    let mut j = json::Writer::new(&mut w);
    j.begin_object();
    j.key("schema").str("stint-obs-memseries-v1");
    j.key("interval_ms")
        .u64(sampler::interval_ms().unwrap_or(0));
    j.key("samples").begin_array();
    for snap in &samples {
        j.begin_object();
        j.key("t_ns").u64(snap.t_ns);
        j.key("gauges").begin_object();
        for (name, v) in &snap.values {
            j.key(name).u64(*v);
        }
        j.end().end();
    }
    j.end().end();
    j.finish()
}

/// Sanitize a metric name for Prometheus exposition: every character
/// outside `[a-zA-Z0-9_:]` becomes `_` (so `serve.latency_ms.ok` →
/// `serve_latency_ms_ok`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Serialize the registry in the Prometheus text exposition format
/// (version 0.0.4): every metric is preceded by `# HELP` and `# TYPE`
/// lines; counters (including late-bound named values) export as
/// `counter`, gauges as two `gauge` families (`<name>` current and
/// `<name>_hw` watermark), histograms as the native `histogram` type with
/// cumulative `le` buckets on the log2 boundaries (`le="2^i - 1"` for
/// bucket `i`, integer samples) closed by `le="+Inf"`, `_sum` and
/// `_count`. Families are sorted by name, so output is deterministic for
/// a deterministic run. Produces only the two header comment lines when
/// the registry was never initialized.
pub fn write_prometheus_text<W: Write>(mut w: W) -> std::io::Result<()> {
    let snap = snapshot();
    writeln!(w, "# stint-obs Prometheus exposition")?;
    writeln!(
        w,
        "# (counters, gauges with _hw watermarks, log2 histograms)"
    )?;
    for (name, v) in &snap.counters {
        let p = prom_name(name);
        writeln!(w, "# HELP {p} stint counter {name}")?;
        writeln!(w, "# TYPE {p} counter")?;
        writeln!(w, "{p} {v}")?;
    }
    for (name, cur, hw) in &snap.gauges {
        let p = prom_name(name);
        writeln!(w, "# HELP {p} stint gauge {name}")?;
        writeln!(w, "# TYPE {p} gauge")?;
        writeln!(w, "{p} {cur}")?;
        writeln!(w, "# HELP {p}_hw high watermark of {name}")?;
        writeln!(w, "# TYPE {p}_hw gauge")?;
        writeln!(w, "{p}_hw {hw}")?;
    }
    for h in &snap.histograms {
        let (name, count) = (h.name, h.count);
        let p = prom_name(name);
        writeln!(w, "# HELP {p} stint log2 histogram {name}")?;
        writeln!(w, "# TYPE {p} histogram")?;
        let mut cum = 0u64;
        for (i, n) in h.buckets.iter().enumerate() {
            cum += n;
            if *n == 0 && i > 0 && i + 1 < h.buckets.len() {
                continue; // keep output compact: first/last + non-empty
            }
            let le = (1u128 << i) - 1; // bucket i holds integers ≤ 2^i - 1
            writeln!(w, "{p}_bucket{{le=\"{le}\"}} {cum}")?;
        }
        writeln!(w, "{p}_bucket{{le=\"+Inf\"}} {count}")?;
        writeln!(w, "{p}_sum {}", h.sum)?;
        writeln!(w, "{p}_count {count}")?;
    }
    Ok(())
}

/// [`write_prometheus_text`] into a `String`.
pub fn prometheus_text() -> String {
    render(|buf| write_prometheus_text(buf))
}

// ---------------------------------------------------------------------------
// Test scoping
// ---------------------------------------------------------------------------

/// RAII guard for tests: enables observability with a fresh (reset) registry
/// and restores the previous enabled state (and span mode) on drop, so
/// obs-enabled test cases cannot leak state into later cases. Tests sharing
/// a process must serialize around it — the registry is process-global.
pub struct ScopedObs {
    prev_enabled: bool,
    prev_mode: u32,
    prev_sample_ms: u64,
}

impl ScopedObs {
    pub fn enable(cfg: ObsConfig) -> ScopedObs {
        let prev_enabled = is_enabled();
        let prev_mode = SPAN_MODE.load(Ordering::Relaxed);
        let prev_sample_ms = sampler::interval_ms().unwrap_or(0);
        enable(cfg);
        reset();
        ScopedObs {
            prev_enabled,
            prev_mode,
            prev_sample_ms,
        }
    }
}

impl Drop for ScopedObs {
    fn drop(&mut self) {
        flush_thread_spans();
        SPAN_MODE.store(self.prev_mode, Ordering::Relaxed);
        sampler::set_interval_ms(self.prev_sample_ms);
        ENABLED.store(self.prev_enabled, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The `(log2, count)` pairs of histogram `name` in a metrics document.
    fn buckets_of(metrics: &str, name: &str) -> Vec<(u64, u64)> {
        let doc = json::parse(metrics).expect("metrics JSON parses");
        let hist = doc.get("histograms").and_then(|h| h.get(name));
        let buckets = hist
            .and_then(|h| h.get("buckets"))
            .and_then(|b| b.as_array());
        (buckets.expect("histogram with a buckets array").iter())
            .map(|b| {
                (
                    b.uint("log2", 64).unwrap(),
                    b.uint("count", u64::MAX).unwrap(),
                )
            })
            .collect()
    }

    /// The registry is process-global; tests that enable obs serialize here.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_specs() {
        assert_eq!(ObsConfig::parse("").unwrap(), None);
        assert_eq!(ObsConfig::parse("off").unwrap(), None);
        assert_eq!(ObsConfig::parse("0").unwrap(), None);
        assert_eq!(
            ObsConfig::parse("on").unwrap(),
            Some(ObsConfig {
                spans: SpanMode::Sampled,
                sample_ms: None,
            })
        );
        assert_eq!(
            ObsConfig::parse("counters").unwrap(),
            Some(ObsConfig::COUNTERS)
        );
        assert_eq!(ObsConfig::parse("full").unwrap(), Some(ObsConfig::FULL));
        assert_eq!(
            ObsConfig::parse("counters,spans=full").unwrap(),
            Some(ObsConfig::FULL)
        );
        assert_eq!(
            ObsConfig::parse("spans=off").unwrap(),
            Some(ObsConfig::COUNTERS)
        );
        assert_eq!(
            ObsConfig::parse("counters,sample=5").unwrap(),
            Some(ObsConfig {
                spans: SpanMode::Off,
                sample_ms: Some(5),
            })
        );
        // `sample=0` enables observability (with the default sampled spans)
        // but leaves the sampler off.
        assert_eq!(
            ObsConfig::parse("sample=0").unwrap(),
            Some(ObsConfig {
                spans: SpanMode::Sampled,
                sample_ms: None,
            })
        );
        assert!(ObsConfig::parse("frobnicate").is_err());
        assert!(ObsConfig::parse("spans=lots").is_err());
        assert!(ObsConfig::parse("sample=soon").is_err());
    }

    #[test]
    fn disabled_touches_record_nothing() {
        let _g = global_lock();
        static C: Counter = Counter::new("test.disabled_counter");
        static H: Histogram = Histogram::new("test.disabled_hist");
        assert!(!is_enabled());
        C.add(5);
        C.record_max(9);
        H.observe(3);
        add("test.disabled_named", 1);
        event("test.disabled_event");
        {
            let _s = span("test.disabled_span");
        }
        assert_eq!(C.get(), 0);
        assert_eq!(H.count(), 0);
        // Counters stay unregistered, so an enabled run elsewhere would not
        // even list them.
        assert!(!C.registered.load(Ordering::Relaxed));
    }

    #[test]
    fn counters_and_histograms_register_and_accumulate() {
        let _g = global_lock();
        static C: Counter = Counter::new("test.counter");
        static HW: Counter = Counter::new("test.high_water");
        static H: Histogram = Histogram::new("test.hist");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        C.add(2);
        C.incr();
        HW.record_max(7);
        HW.record_max(3);
        H.observe(0);
        H.observe(1);
        H.observe(5);
        add("test.named", 40);
        add("test.named", 2);
        assert_eq!(C.get(), 3);
        assert_eq!(HW.get(), 7);
        assert_eq!(H.count(), 3);
        assert_eq!(H.sum(), 6);
        let json = metrics_json();
        assert!(json.contains("\"test.counter\": 3"), "{json}");
        assert!(json.contains("\"test.high_water\": 7"), "{json}");
        assert!(json.contains("\"test.named\": 42"), "{json}");
        // 5 lands in bucket 3 ([4, 8)); 0 in bucket 0; 1 in bucket 1.
        assert_eq!(buckets_of(&json, "test.hist"), [(0, 1), (1, 1), (3, 1)]);
    }

    #[test]
    fn racing_first_touches_register_each_metric_once() {
        let _g = global_lock();
        static C: Counter = Counter::new("test.race_counter");
        static G: Gauge = Gauge::new("test.race_gauge");
        static H: Histogram = Histogram::new("test.race_hist");
        const THREADS: u64 = 6;
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        let touches: [&(dyn Fn() + Sync); 3] = [&|| C.add(2), &|| G.add(3), &|| H.observe(5)];
        let start = std::sync::Barrier::new(THREADS as usize + 1);
        // Every thread starts on a different kind (two threads per kind) and
        // finds the registry locked, so each kind's first touch is raced:
        // the threads see an unset flag and queue on the lock together. The
        // sleep only gives all of them time to get there; a slow thread
        // weakens the race, never the assertions.
        let held = registry();
        std::thread::scope(|s| {
            for t in 0..THREADS as usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    (0..3).for_each(|k| touches[(t + k) % 3]());
                });
            }
            start.wait();
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held);
        });
        let snap = snapshot();
        let gauges: Vec<_> = snap.gauges.iter().filter(|g| g.0 == G.name()).collect();
        let hists: Vec<_> = (snap.histograms.iter())
            .filter(|h| h.name == H.name())
            .collect();
        assert_eq!(snap.counters.get(C.name()), Some(&(2 * THREADS)));
        assert_eq!(gauges, [&(G.name(), 3 * THREADS, 3 * THREADS)]);
        assert_eq!(hists.len(), 1, "{hists:?}");
        assert_eq!((hists[0].count, hists[0].sum), (THREADS, 5 * THREADS));
        // A counter registered twice would be summed twice above; the
        // registry itself must hold each static once.
        let copies = with_registry(|reg| {
            (reg.metrics.iter())
                .filter(|m| match **m {
                    Metric::Counter(c) => std::ptr::eq(c, &C),
                    Metric::Gauge(g) => std::ptr::eq(g, &G),
                    Metric::Histogram(h) => std::ptr::eq(h, &H),
                })
                .count()
        });
        assert_eq!(copies, 3);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counters.get(C.name()), Some(&0));
        assert!(snap.gauges.contains(&(G.name(), 0, 0)), "{:?}", snap.gauges);
        let h = snap.histograms.iter().find(|h| h.name == H.name());
        assert!(h.is_some_and(|h| h.count == 0 && h.sum == 0 && h.buckets.iter().all(|&b| b == 0)));
    }

    #[test]
    fn spans_and_events_export_as_trace_events() {
        let _g = global_lock();
        let _scope = ScopedObs::enable(ObsConfig::FULL);
        {
            let s = span("test.work");
            assert!(s.is_recording());
            std::hint::black_box(0);
        }
        event("test.instant");
        let json = trace_json();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"name\": \"test.work\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert!(json.contains("\"dur\": "), "{json}");
        let metrics = metrics_json();
        assert!(!metrics.contains("\"spans_recorded\": 0"), "{metrics}");
    }

    #[test]
    fn sampled_mode_records_first_span_per_thread() {
        let _g = global_lock();
        let _scope = ScopedObs::enable(ObsConfig {
            spans: SpanMode::Sampled,
            sample_ms: None,
        });
        let recorded: usize = std::thread::spawn(|| {
            (0..(SAMPLE_PERIOD * 2))
                .map(|_| span("test.sampled").is_recording() as usize)
                .sum()
        })
        .join()
        .expect("thread");
        assert_eq!(recorded, 2, "one span per SAMPLE_PERIOD per thread");
    }

    #[test]
    fn scoped_obs_restores_disabled_state() {
        let _g = global_lock();
        assert!(!is_enabled());
        {
            let _scope = ScopedObs::enable(ObsConfig::FULL);
            assert!(is_enabled());
            assert_eq!(span_mode(), SpanMode::Full);
        }
        assert!(!is_enabled());
        assert_eq!(span_mode(), SpanMode::Off);
    }

    #[test]
    fn exporters_work_uninitialized() {
        // Before anything registers, exporters produce valid empty JSON and
        // do NOT initialize the registry as a side effect.
        let json = metrics_json();
        assert!(json.contains("\"counters\""), "{json}");
        let trace = trace_json();
        assert!(trace.trim_start().starts_with('['), "{trace}");
    }

    #[test]
    fn escape_is_sound() {
        assert_eq!(json::escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json::escape("tab\tend"), "tab\\u0009end");
    }

    #[test]
    fn gauge_add_sub_and_watermark() {
        let _g = global_lock();
        static G: Gauge = Gauge::new("test.gauge");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        G.add(100);
        G.add(50);
        G.sub(120);
        assert_eq!(G.get(), 30);
        assert_eq!(G.high_water(), 150);
        // Saturating: over-subtraction clamps at zero, watermark survives.
        G.sub(1000);
        assert_eq!(G.get(), 0);
        assert_eq!(G.high_water(), 150);
        let doc = json::parse(&metrics_json()).expect("metrics JSON parses");
        let g = doc.get("gauges").and_then(|g| g.get("test.gauge"));
        let g = g.expect("test.gauge in the metrics document");
        assert_eq!((g.uint("current", 0), g.uint("hw", 150)), (Ok(0), Ok(150)));
        let snap = gauges_snapshot();
        assert!(snap.contains(&("test.gauge", 0, 150)), "{snap:?}");
    }

    #[test]
    fn gauge_reconcile_tracks_deltas() {
        let _g = global_lock();
        static G: Gauge = Gauge::new("test.reconcile_gauge");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        let mut owned = 0u64;
        G.reconcile(&mut owned, 4096);
        assert_eq!((G.get(), owned), (4096, 4096));
        G.reconcile(&mut owned, 1024);
        assert_eq!((G.get(), owned), (1024, 1024));
        G.reconcile(&mut owned, 0);
        assert_eq!((G.get(), owned), (0, 0));
        assert_eq!(G.high_water(), 4096);
    }

    #[test]
    fn gauge_disabled_path_leaves_registry_untouched() {
        let _g = global_lock();
        static G: Gauge = Gauge::new("test.disabled_gauge");
        assert!(!is_enabled());
        G.add(7);
        G.sub(3);
        let mut owned = 0u64;
        G.reconcile(&mut owned, 9);
        assert_eq!(G.get(), 0);
        assert_eq!(G.high_water(), 0);
        assert_eq!(owned, 0, "reconcile must not track while disabled");
        assert!(!G.registered.load(Ordering::Relaxed));
        assert!(!gauges_snapshot().iter().any(|(n, ..)| *n == G.name()));
    }

    #[test]
    fn gauge_reset_zeroes_current_and_watermark() {
        let _g = global_lock();
        static G: Gauge = Gauge::new("test.reset_gauge");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        G.add(10);
        reset();
        assert_eq!(G.get(), 0);
        assert_eq!(G.high_water(), 0);
    }

    #[test]
    fn histogram_log2_bucket_boundaries() {
        let _g = global_lock();
        static H: Histogram = Histogram::new("test.bucket_hist");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i). Probe
        // both edges of several buckets, including the top one.
        H.observe(0); // bucket 0
        H.observe(1); // bucket 1: [1, 2)
        H.observe(2); // bucket 2: [2, 4)
        H.observe(3); // bucket 2
        H.observe(4); // bucket 3: [4, 8)
        H.observe(7); // bucket 3
        H.observe(8); // bucket 4: [8, 16)
        H.observe(u64::MAX); // bucket 64: [2^63, 2^64)
        assert_eq!(
            buckets_of(&metrics_json(), "test.bucket_hist"),
            [(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (64, 1)]
        );
        assert_eq!(H.count(), 8);
    }

    #[test]
    fn quantile_over_log2_buckets() {
        let _g = global_lock();
        static H: Histogram = Histogram::new("test.quantile_hist");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        assert_eq!(H.quantile(0.5), 0.0, "empty histogram");
        // 100 samples of exactly 8 → every quantile lands in bucket 4
        // ([8, 16)), so estimates are within that bucket.
        for _ in 0..100 {
            H.observe(8);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = H.quantile(q);
            assert!((8.0..16.0).contains(&v), "q={q} → {v}");
        }
        // Mixed: 90 zeros and 10 large values — p50 is 0, p99 is large.
        reset();
        for _ in 0..90 {
            H.observe(0);
        }
        for _ in 0..10 {
            H.observe(1 << 20);
        }
        assert_eq!(H.quantile(0.5), 0.0);
        let p99 = H.quantile(0.99);
        assert!(
            ((1 << 20) as f64..(1 << 21) as f64).contains(&p99),
            "p99={p99}"
        );
    }

    #[test]
    fn flight_recorder_round_trip_and_wrap() {
        let _g = global_lock();
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        flight::reset();
        assert_eq!(flight::records_written(), 0);
        assert!(flight::snapshot().is_empty());
        flight::record(7, 2, 1, 42);
        flight::record(8, 3, 0, 0);
        let snap = flight::snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            (
                snap[0].session,
                snap[0].kind,
                snap[0].status,
                snap[0].payload
            ),
            (7, 2, 1, 42)
        );
        assert!(snap[1].t_ns >= snap[0].t_ns, "oldest first");
        // Overflow the ring: only the last CAP records survive, in order.
        flight::reset();
        for i in 0..(flight::CAP as u64 + 100) {
            flight::record(i as u32, 0, 0, i);
        }
        let snap = flight::snapshot();
        assert_eq!(snap.len(), flight::CAP);
        assert_eq!(snap[0].payload, 100, "oldest surviving record");
        assert_eq!(
            snap.last().map(|e| e.payload),
            Some(flight::CAP as u64 + 99)
        );
        assert_eq!(flight::records_written(), flight::CAP as u64 + 100);
        let json = flight::json();
        assert!(json.contains("\"schema\": \"stint-flight-v1\""), "{json}");
        assert!(json.contains("\"records_written\": 1124"), "{json}");
        flight::reset();
    }

    #[test]
    fn flight_recorder_disabled_is_inert() {
        let _g = global_lock();
        flight::reset();
        assert!(!is_enabled());
        flight::record(1, 1, 1, 1);
        assert_eq!(flight::records_written(), 0);
        assert!(flight::snapshot().is_empty());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let _g = global_lock();
        static C: Counter = Counter::new("test.prom.counter");
        static G: Gauge = Gauge::new("test.prom.gauge");
        static H: Histogram = Histogram::new("test.prom_hist_ms");
        let _scope = ScopedObs::enable(ObsConfig::COUNTERS);
        C.add(3);
        G.add(100);
        G.sub(40);
        H.observe(0);
        H.observe(5);
        H.observe(900);
        let text = prometheus_text();
        assert!(text.contains("# TYPE test_prom_counter counter"), "{text}");
        assert!(text.contains("\ntest_prom_counter 3\n"), "{text}");
        assert!(text.contains("# TYPE test_prom_gauge gauge"), "{text}");
        assert!(text.contains("\ntest_prom_gauge 60\n"), "{text}");
        assert!(text.contains("\ntest_prom_gauge_hw 100\n"), "{text}");
        assert!(
            text.contains("# TYPE test_prom_hist_ms histogram"),
            "{text}"
        );
        assert!(
            text.contains("test_prom_hist_ms_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("test_prom_hist_ms_sum 905"), "{text}");
        assert!(text.contains("test_prom_hist_ms_count 3"), "{text}");
        // Cumulative bucket counts are monotone and end at the count.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("test_prom_hist_ms_bucket{le=\"") {
                let v: u64 = rest
                    .split("} ")
                    .nth(1)
                    .expect("bucket value")
                    .parse()
                    .expect("numeric");
                assert!(v >= last, "buckets regressed:\n{text}");
                last = v;
            }
        }
        assert_eq!(last, 3);
        // Every sample line's family has a preceding # TYPE line.
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split(' ').next().expect("name").to_string());
            } else if !line.starts_with('#') && !line.is_empty() {
                let name = line
                    .split(['{', ' '])
                    .next()
                    .expect("metric name")
                    .to_string();
                let family = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or(&name);
                assert!(
                    typed.iter().any(|t| t == family || t == &name),
                    "sample {name} lacks a # TYPE line:\n{text}"
                );
            }
        }
    }

    #[test]
    fn sampler_snapshots_and_mem_series_export() {
        let _g = global_lock();
        static G: Gauge = Gauge::new("test.sampled_gauge");
        let _scope = ScopedObs::enable(ObsConfig {
            spans: SpanMode::Off,
            sample_ms: Some(1),
        });
        assert_eq!(sampler::interval_ms(), Some(1));
        G.add(512);
        sampler::sample_now();
        G.add(512);
        sampler::sample_now();
        let json = render(|buf| write_mem_series_json(buf));
        assert!(
            json.contains("\"schema\": \"stint-obs-memseries-v1\""),
            "{json}"
        );
        assert!(json.contains("\"test.sampled_gauge\": 512"), "{json}");
        assert!(json.contains("\"test.sampled_gauge\": 1024"), "{json}");
        // Timestamps are non-decreasing.
        let doc = json::parse(&json).expect("mem-series JSON parses");
        let samples = doc.get("samples").and_then(|s| s.as_array());
        let times: Vec<u64> = (samples.expect("samples array").iter())
            .map(|s| s.uint("t_ns", u64::MAX).unwrap())
            .collect();
        assert!(times.len() >= 2 && times.windows(2).all(|w| w[0] <= w[1]));
        // Snapshots render as Perfetto counter events on the trace timeline.
        let trace = json::parse(&trace_json()).expect("trace JSON parses");
        let counter_event = trace.as_array().expect("event array").iter().find(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("C")
                && e.get("args")
                    .is_some_and(|a| a.uint("value", 1024) == Ok(1024))
        });
        assert!(counter_event.is_some(), "{trace:?}");
    }
}
