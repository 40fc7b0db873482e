//! Deterministic fault injection and the stack-wide failure model.
//!
//! Production-shaped race detectors treat resource exhaustion as a
//! first-class, tested state. This crate provides the two halves of that
//! story for the whole workspace:
//!
//! * [`FaultPlan`] — a process-wide, seedable description of which faults to
//!   inject: forced order-maintenance relabel storms and artificially
//!   narrowed tag spaces (`om`), shadow-page allocation caps and simulated
//!   OOM (`shadow`), worst-case treap priorities (`ivtree`), worker
//!   spawn/panic failures (`cilkrt`), and an injected panic mid-detection
//!   (`core`). Plans are parsed from a compact `key=value,flag,...` spec
//!   (the CLI's `--fault-plan`, or the `STINT_FAULTS` environment variable)
//!   and installed globally with [`install`].
//! * [`DetectorError`] — the structured error that replaces
//!   abort-on-exhaustion everywhere: a resource ran out
//!   ([`DetectorError::ResourceExhausted`], CLI exit code 3) or the detector
//!   state was poisoned by a panic ([`DetectorError::Poisoned`], exit
//!   code 4). Components that cannot thread a `Result` through their hot
//!   call chain [`raise`](DetectorError::raise) the error as a typed panic
//!   payload; the panic-safe session in `stint::try_detect_with` catches it
//!   and hands the caller the structured value.
//!
//! # Zero cost when disabled
//!
//! Every query goes through one relaxed load of a global `AtomicBool`
//! ([`is_active`]); with no plan installed that is the entire cost. All
//! consumers additionally *sample* their knobs at construction time (a
//! detector run constructs fresh structures), so the per-operation fault
//! checks are plain field tests on already-constructed structures — the
//! perf gate asserts the disabled path stays within noise of the committed
//! baselines.
//!
//! # Determinism
//!
//! A plan is a pure value plus a `seed`; the helpers derive any "when does
//! the fault fire" decision from `splitmix64(seed ^ salt)`, so two runs with
//! the same plan inject exactly the same faults at exactly the same points.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Which resource a [`DetectorError::ResourceExhausted`] ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Shadow-memory pages (word shadow) or chunks (bit shadow).
    ShadowPages,
    /// Stored intervals across the read/write access-history trees.
    Intervals,
    /// Order-maintenance tag space (list-labelling universe).
    OmTags,
    /// Work-stealing runtime workers.
    Workers,
    /// Wall-clock budget of a detection session (`stint-serve` per-session
    /// timeouts). The `limit` field carries the timeout in milliseconds.
    WallClock,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::ShadowPages => write!(f, "shadow memory"),
            Resource::Intervals => write!(f, "interval store"),
            Resource::OmTags => write!(f, "order-maintenance tag space"),
            Resource::Workers => write!(f, "runtime workers"),
            Resource::WallClock => write!(f, "wall-clock budget"),
        }
    }
}

/// Structured failure of a detection run. This is the value that flows from
/// the core detectors up through `cilk`/`cilkrt` to the CLI instead of an
/// abort: either a resource budget was exhausted (the verdict so far is
/// sound — "results sound up to that point") or a panic poisoned the
/// detector state (no verdict can be trusted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetectorError {
    /// A resource limit — injected by a fault plan or set by a real
    /// `--max-*` budget — was reached. Detection stopped recording at that
    /// point; every race reported before it is real.
    ResourceExhausted {
        resource: Resource,
        /// The limit that was hit, in the resource's own unit (pages,
        /// intervals, tags, workers).
        limit: u64,
        /// First 4-byte shadow word that could no longer be tracked, when
        /// the resource is address-shaped.
        at_word: Option<u64>,
    },
    /// A panic unwound through the detector; its state is poisoned and the
    /// partial verdict must not be trusted.
    Poisoned { detail: String },
    /// A recorded trace failed to parse or validate (truncated file, flipped
    /// bits, wrong format version, strand ids outside the frozen
    /// reachability snapshot). Nothing was detected; there is no partial
    /// verdict at all.
    CorruptTrace { detail: String },
}

impl DetectorError {
    /// CLI exit code for this failure (3 = resource-exhausted, 4 = internal).
    pub fn exit_code(&self) -> u8 {
        match self {
            DetectorError::ResourceExhausted { .. } => 3,
            DetectorError::Poisoned { .. } | DetectorError::CorruptTrace { .. } => 4,
        }
    }

    /// Raise this error as a typed panic payload. Components whose call
    /// chains cannot return `Result` (e.g. order-maintenance insertion deep
    /// under a spawn) use this; `stint::try_detect_with` catches the payload
    /// and returns it as a structured `Err`.
    pub fn raise(self) -> ! {
        OBS_ERRORS_RAISED.incr();
        stint_obs::event("fault.raise");
        std::panic::panic_any(self)
    }

    /// Recover a structured error from a caught panic payload: a payload
    /// raised via [`DetectorError::raise`] comes back as-is; anything else
    /// becomes [`DetectorError::Poisoned`] with the panic message.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> DetectorError {
        match payload.downcast::<DetectorError>() {
            Ok(e) => *e,
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic with non-string payload")
                    .to_string();
                DetectorError::Poisoned { detail }
            }
        }
    }
}

impl std::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorError::ResourceExhausted {
                resource,
                limit,
                at_word,
            } => {
                write!(
                    f,
                    "detector overloaded: {resource} exhausted (limit {limit})"
                )?;
                if let Some(w) = at_word {
                    write!(f, " at address {:#x}", w * 4)?;
                }
                write!(f, "; results sound up to that point")
            }
            DetectorError::Poisoned { detail } => {
                write!(f, "detector state poisoned by panic: {detail}")
            }
            DetectorError::CorruptTrace { detail } => {
                write!(f, "corrupt trace: {detail}")
            }
        }
    }
}

impl std::error::Error for DetectorError {}

/// A deterministic description of the faults to inject into a run.
///
/// The default plan injects nothing. Specs are comma-separated
/// `key=value` pairs (or bare flags):
///
/// | spec key | field | fault |
/// |---|---|---|
/// | `seed=N` | `seed` | perturbs *when* scheduled faults fire |
/// | `om-tags=N` | `om_tag_bits` | narrow the OM tag universe to `2^N` tags |
/// | `om-storm=N` | `om_relabel_storm` | force a relabel pass every ~N inserts |
/// | `shadow-pages=N` | `shadow_page_cap` | cap shadow page/chunk allocations at N |
/// | `shadow-oom-at=N` | `shadow_oom_at` | the ~Nth page/chunk allocation fails |
/// | `treap-degenerate` | `treap_degenerate` | worst-case (monotone) treap priorities |
/// | `worker-spawn-fail=N` | `worker_spawn_fail_from` | spawning worker N (and later) fails |
/// | `worker-panic=N` | `worker_panic_from` | worker N (and later) panics at startup |
/// | `panic-at-flush=N` | `panic_at_flush` | inject a panic at the Nth strand flush |
/// | `serve-panic-session=N` | `serve_panic_session` | every ~Nth served session panics mid-flight |
/// | `serve-trunc-frame=N` | `serve_trunc_frame` | every ~Nth response frame is truncated on the wire |
/// | `serve-journal-kill=N` | `serve_journal_kill` | write half of the Nth record a journal writer appends, then abort the process |
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub om_tag_bits: Option<u32>,
    pub om_relabel_storm: Option<u64>,
    pub shadow_page_cap: Option<u64>,
    pub shadow_oom_at: Option<u64>,
    pub treap_degenerate: bool,
    pub worker_spawn_fail_from: Option<u32>,
    pub worker_panic_from: Option<u32>,
    pub panic_at_flush: Option<u64>,
    pub serve_panic_session: Option<u64>,
    pub serve_trunc_frame: Option<u64>,
    pub serve_journal_kill: Option<u64>,
}

/// Structured failure of [`FaultPlan::parse`]: the spec token that could not
/// be understood, plus why. The CLI surfaces this as a usage error (exit
/// code 2); `stint-serve` answers the session with the `Usage` status. The
/// token is carried verbatim so the caller's diagnostic can point at exactly
/// the part of `STINT_FAULTS`/`--fault-plan` that was wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending `key=value` (or bare flag) token, verbatim.
    pub token: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec token {:?}: {}", self.token, self.reason)
    }
}

impl std::error::Error for FaultParseError {}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// True if this plan injects at least one fault.
    pub fn injects_anything(&self) -> bool {
        *self
            != FaultPlan {
                seed: self.seed,
                ..FaultPlan::default()
            }
    }

    /// Deterministic per-site jitter in `0..period` derived from the seed,
    /// so the same plan fires its scheduled faults at the same points while
    /// different seeds shift the phase.
    pub fn jitter(&self, salt: u64, period: u64) -> u64 {
        if period == 0 {
            0
        } else {
            splitmix64(self.seed ^ salt) % period
        }
    }

    /// Parse a `key=value,flag,...` spec. Unknown keys, missing values and
    /// out-of-range numbers come back as a structured [`FaultParseError`]
    /// naming the offending token (surfaced as CLI usage errors / the serve
    /// `Usage` status) — a malformed spec must never panic or abort.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let err = |reason: String| FaultParseError {
                token: part.to_string(),
                reason,
            };
            let (key, val) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (part, None),
            };
            let num = |what: &str| -> Result<u64, FaultParseError> {
                val.ok_or_else(|| err(format!("fault {what:?} needs a value (e.g. {what}=4)")))?
                    .parse::<u64>()
                    .map_err(|_| err("value must be a non-negative integer".into()))
            };
            let index = |k: &str| u32::try_from(num(k)?).map_err(|_| err("above u32::MAX".into()));
            match key {
                "seed" => plan.seed = num("seed")?,
                "om-tags" => {
                    let bits = num("om-tags")?;
                    if !(4..=64).contains(&bits) {
                        return Err(err("bits must be in 4..=64".into()));
                    }
                    plan.om_tag_bits = Some(bits as u32);
                }
                "om-storm" => {
                    let n = num("om-storm")?;
                    if n == 0 {
                        return Err(err("period must be at least 1".into()));
                    }
                    plan.om_relabel_storm = Some(n);
                }
                "shadow-pages" => plan.shadow_page_cap = Some(num("shadow-pages")?),
                "shadow-oom-at" => plan.shadow_oom_at = Some(num("shadow-oom-at")?),
                "treap-degenerate" => plan.treap_degenerate = true,
                "worker-spawn-fail" => plan.worker_spawn_fail_from = Some(index(key)?),
                "worker-panic" => plan.worker_panic_from = Some(index(key)?),
                "panic-at-flush" => plan.panic_at_flush = Some(num("panic-at-flush")?),
                "serve-panic-session" => {
                    let n = num("serve-panic-session")?;
                    if n == 0 {
                        return Err(err("period must be at least 1".into()));
                    }
                    plan.serve_panic_session = Some(n);
                }
                "serve-trunc-frame" => {
                    let n = num("serve-trunc-frame")?;
                    if n == 0 {
                        return Err(err("period must be at least 1".into()));
                    }
                    plan.serve_trunc_frame = Some(n);
                }
                "serve-journal-kill" => {
                    let n = num("serve-journal-kill")?;
                    if n == 0 {
                        return Err(err("record number must be at least 1".into()));
                    }
                    plan.serve_journal_kill = Some(n);
                }
                _ => return Err(err("unknown fault".into())),
            }
        }
        Ok(plan)
    }
}

/// Fast gate: true only while a plan is installed. One relaxed atomic load —
/// this is the entire disabled-path cost of the fault layer.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

// Fault events surfaced into the observability stream so a trace of a
// fault-injected run shows where the plan actually bit.
static OBS_PLANS_INSTALLED: stint_obs::Counter = stint_obs::Counter::new("faults.plans_installed");
static OBS_ERRORS_RAISED: stint_obs::Counter = stint_obs::Counter::new("faults.errors_raised");

/// True if a fault plan is currently installed.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn plan_slot() -> std::sync::MutexGuard<'static, Option<FaultPlan>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install `plan` process-wide. Structures sample their knobs at
/// construction, so install a plan *before* building the run it should
/// affect.
pub fn install(plan: FaultPlan) {
    OBS_PLANS_INSTALLED.incr();
    *plan_slot() = Some(plan);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove any installed plan (back to the zero-cost disabled state).
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *plan_slot() = None;
}

/// The currently installed plan, if any.
pub fn current() -> Option<FaultPlan> {
    if !is_active() {
        return None;
    }
    plan_slot().clone()
}

/// Environment variable consulted by [`install_from_env`].
pub const ENV_VAR: &str = "STINT_FAULTS";

/// Install a plan from the `STINT_FAULTS` environment variable, if set.
/// Returns whether a plan was installed; a malformed spec is an error.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(&spec).map_err(|e| format!("{ENV_VAR}={spec:?}: {e}"))?;
            install(plan);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// RAII guard for tests: installs a plan on construction and restores the
/// previous global state on drop (including panics), so fault-injected test
/// cases cannot leak their plan into later cases.
pub struct ScopedPlan {
    previous: Option<FaultPlan>,
}

impl ScopedPlan {
    pub fn install(plan: FaultPlan) -> ScopedPlan {
        let previous = current();
        install(plan);
        ScopedPlan { previous }
    }
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(p) => install(p),
            None => clear(),
        }
    }
}

// ---------------------------------------------------------------------------
// Construction-time sampling helpers. Each returns the disabled default with
// one relaxed load when no plan is installed; consumers call these when a
// structure is built and keep plain fields thereafter.
// ---------------------------------------------------------------------------

/// Narrowed OM tag universe (bits), if injected.
pub fn om_tag_bits() -> Option<u32> {
    current().and_then(|p| p.om_tag_bits)
}

/// Forced OM relabel period (a relabel storm fires every ~N inserts), plus a
/// seed-derived phase offset, if injected.
pub fn om_relabel_storm() -> Option<(u64, u64)> {
    let p = current()?;
    let period = p.om_relabel_storm?;
    Some((period, p.jitter(0x6F6D_5354_4F52_4D00, period)))
}

/// Shadow page/chunk allocation cap, if injected.
pub fn shadow_page_cap() -> Option<u64> {
    current().and_then(|p| p.shadow_page_cap)
}

/// Index of the shadow page/chunk allocation that should fail (simulated
/// OOM), if injected. Jittered by ±`seed % 3` so different seeds fail
/// different allocations.
pub fn shadow_oom_at() -> Option<u64> {
    let p = current()?;
    let n = p.shadow_oom_at?;
    Some(n + p.jitter(0x5348_4144_4F4F_4D00, 3))
}

/// True if treaps should draw worst-case (monotone) priorities.
pub fn treap_degenerate() -> bool {
    current().is_some_and(|p| p.treap_degenerate)
}

/// True if spawning worker `index` should fail.
pub fn worker_spawn_fails(index: usize) -> bool {
    current()
        .and_then(|p| p.worker_spawn_fail_from)
        .is_some_and(|from| index >= from as usize)
}

/// True if worker `index` should panic at startup.
pub fn worker_panics(index: usize) -> bool {
    current()
        .and_then(|p| p.worker_panic_from)
        .is_some_and(|from| index >= from as usize)
}

/// Number of strand flushes after which an injected panic fires, if any.
pub fn panic_at_flush() -> Option<u64> {
    current().and_then(|p| p.panic_at_flush)
}

/// Serve-path chaos: period `N` such that every ~Nth session should panic
/// mid-flight (sampled by `stint-serve` when a session starts), if injected.
pub fn serve_panic_session() -> Option<u64> {
    current().and_then(|p| p.serve_panic_session)
}

/// Serve-path chaos: period `N` such that every ~Nth response frame should
/// be truncated on the wire, if injected.
pub fn serve_trunc_frame() -> Option<u64> {
    current().and_then(|p| p.serve_trunc_frame)
}

/// Journal chaos: record number `N` at which the writer should abort the
/// whole process mid-append (a simulated crash leaving a torn tail), if
/// injected.
pub fn serve_journal_kill() -> Option<u64> {
    current().and_then(|p| p.serve_journal_kill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The plan is process-global; tests that install one serialize here.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=7, om-tags=16, om-storm=8, shadow-pages=4, shadow-oom-at=9, \
             treap-degenerate, worker-spawn-fail=2, worker-panic=3, panic-at-flush=100, \
             serve-panic-session=50, serve-trunc-frame=9, serve-journal-kill=11",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.om_tag_bits, Some(16));
        assert_eq!(p.om_relabel_storm, Some(8));
        assert_eq!(p.shadow_page_cap, Some(4));
        assert_eq!(p.shadow_oom_at, Some(9));
        assert!(p.treap_degenerate);
        assert_eq!(p.worker_spawn_fail_from, Some(2));
        assert_eq!(p.worker_panic_from, Some(3));
        assert_eq!(p.panic_at_flush, Some(100));
        assert_eq!(p.serve_panic_session, Some(50));
        assert_eq!(p.serve_trunc_frame, Some(9));
        assert_eq!(p.serve_journal_kill, Some(11));
        assert!(p.injects_anything());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("om-tags").is_err());
        assert!(FaultPlan::parse("om-tags=3").is_err());
        assert!(FaultPlan::parse("om-tags=65").is_err());
        assert!(FaultPlan::parse("om-storm=0").is_err());
        assert!(FaultPlan::parse("shadow-pages=lots").is_err());
        assert!(FaultPlan::parse("frobnicate").is_err());
        assert!(FaultPlan::parse("serve-panic-session=0").is_err());
        assert!(FaultPlan::parse("serve-journal-kill=0").is_err());
        assert!(FaultPlan::parse("serve-journal-kill=never").is_err());
        for key in ["worker-spawn-fail", "worker-panic"] {
            let max = FaultPlan::parse(&format!("{key}=4294967295")).unwrap();
            let from = max.worker_spawn_fail_from.or(max.worker_panic_from);
            assert_eq!(from, Some(u32::MAX), "{key}");
            let e = FaultPlan::parse(&format!("{key}=4294967296")).expect_err(key);
            assert_eq!(e.token, format!("{key}=4294967296"));
        }
        assert!(!FaultPlan::parse("").unwrap().injects_anything());
        assert!(!FaultPlan::parse("seed=9").unwrap().injects_anything());
    }

    /// Satellite: a malformed spec comes back as a *structured* error naming
    /// the offending token verbatim — the CLI maps it to exit 2 and the
    /// serve daemon to the `Usage` status, and neither ever sees a panic.
    #[test]
    fn parse_errors_carry_the_offending_token() {
        let cases = [
            ("om-tags=16,frobnicate=1,seed=3", "frobnicate=1"),
            ("om-storm", "om-storm"),
            ("shadow-pages=lots", "shadow-pages=lots"),
            ("om-tags=3", "om-tags=3"),
            (" serve-trunc-frame=0 ,seed=1", "serve-trunc-frame=0"),
        ];
        for (spec, token) in cases {
            let e = FaultPlan::parse(spec).expect_err(spec);
            assert_eq!(e.token, token, "spec {spec:?}");
            assert!(!e.reason.is_empty(), "spec {spec:?}");
            let shown = e.to_string();
            assert!(
                shown.contains(token),
                "display must name the token: {shown}"
            );
        }
        // A valid spec is unaffected by the error plumbing.
        assert!(FaultPlan::parse("serve-panic-session=7").is_ok());
    }

    #[test]
    fn install_and_scoped_restore() {
        let _g = global_lock();
        assert!(!is_active());
        assert_eq!(om_tag_bits(), None);
        {
            let _s = ScopedPlan::install(FaultPlan {
                om_tag_bits: Some(12),
                ..FaultPlan::default()
            });
            assert!(is_active());
            assert_eq!(om_tag_bits(), Some(12));
            {
                let _inner = ScopedPlan::install(FaultPlan {
                    treap_degenerate: true,
                    ..FaultPlan::default()
                });
                assert!(treap_degenerate());
                assert_eq!(om_tag_bits(), None);
            }
            assert_eq!(om_tag_bits(), Some(12));
            assert!(!treap_degenerate());
        }
        assert!(!is_active());
    }

    #[test]
    fn worker_fault_predicates_use_from_semantics() {
        let _g = global_lock();
        let _s = ScopedPlan::install(FaultPlan {
            worker_spawn_fail_from: Some(2),
            worker_panic_from: Some(1),
            ..FaultPlan::default()
        });
        assert!(!worker_spawn_fails(0));
        assert!(!worker_spawn_fails(1));
        assert!(worker_spawn_fails(2));
        assert!(worker_spawn_fails(5));
        assert!(!worker_panics(0));
        assert!(worker_panics(1));
    }

    #[test]
    fn storm_jitter_is_deterministic_and_seed_dependent() {
        let _g = global_lock();
        let plan = |seed| FaultPlan {
            seed,
            om_relabel_storm: Some(64),
            ..FaultPlan::default()
        };
        let _s = ScopedPlan::install(plan(1));
        let a = om_relabel_storm().unwrap();
        let b = om_relabel_storm().unwrap();
        assert_eq!(a, b, "same plan, same phase");
        assert_eq!(a.0, 64);
        assert!(a.1 < 64);
        let _s2 = ScopedPlan::install(plan(2));
        let c = om_relabel_storm().unwrap();
        // Not guaranteed distinct for every pair of seeds, but these two are.
        assert_ne!(a.1, c.1, "different seed should shift the phase");
    }

    #[test]
    fn detector_error_display_and_exit_codes() {
        let e = DetectorError::ResourceExhausted {
            resource: Resource::ShadowPages,
            limit: 4,
            at_word: Some(0x100),
        };
        let s = e.to_string();
        assert!(s.contains("shadow memory"), "{s}");
        assert!(s.contains("0x400"), "{s}");
        assert!(s.contains("sound up to that point"), "{s}");
        assert_eq!(e.exit_code(), 3);
        let p = DetectorError::Poisoned {
            detail: "boom".into(),
        };
        assert_eq!(p.exit_code(), 4);
        assert!(p.to_string().contains("boom"));
    }

    #[test]
    fn raise_round_trips_through_panic() {
        let e = DetectorError::ResourceExhausted {
            resource: Resource::OmTags,
            limit: 64,
            at_word: None,
        };
        let e2 = e.clone();
        let caught = std::panic::catch_unwind(move || e2.raise()).unwrap_err();
        assert_eq!(DetectorError::from_panic(caught), e);
        let plain = std::panic::catch_unwind(|| panic!("plain {}", 42)).unwrap_err();
        match DetectorError::from_panic(plain) {
            DetectorError::Poisoned { detail } => assert_eq!(detail, "plain 42"),
            other => panic!("expected Poisoned, got {other:?}"),
        }
    }
}
