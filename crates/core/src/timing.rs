//! Access-history timing gate.
//!
//! The batching detectors (`comp+rts`, `STINT`) time each strand-end flush to
//! produce the `ah_time` figure (paper Figure 7/8 overhead columns). Two
//! `Instant::now` calls per flush are measurable on fine-grained workloads —
//! strands can flush in well under a microsecond — so the clock reads are
//! gated behind a process-wide mode:
//!
//! * `full` (default) — time every flush, so `ah_time` is exact and never
//!   exceeds the run it is part of;
//! * `off` — never read the clock; `ah_time` stays zero.
//!
//! The mode is `full` unless a binary calls [`set_mode`] before the first
//! detector runs (the benchmark forces `off`).
//!
//! The mode is a **latch**: whichever of [`mode`] and [`set_mode`] runs first
//! fixes the mode for the rest of the process, and later [`set_mode`] calls
//! do *not* change it. This is deliberate — `FlushTimer`s snapshot the mode
//! at construction, so flipping it mid-process would silently produce
//! detectors with mixed timing policies. A caller that loses the race gets
//! the latched mode back from [`set_mode`] and must decide whether that mode
//! is acceptable for its measurement.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingMode {
    Off,
    Full,
}

static MODE: OnceLock<TimingMode> = OnceLock::new();

/// The process-wide timing mode. First call latches it (default `full`).
pub fn mode() -> TimingMode {
    *MODE.get_or_init(|| TimingMode::Full)
}

/// Force the timing mode and return the mode actually in effect. If the
/// mode was already latched (by an earlier [`mode`] or `set_mode` call) the
/// request is ignored and the latched mode is returned — callers that need
/// `m` specifically must compare the return value rather than assume the
/// override took. A lost override is surfaced on the observability stream
/// (`timing.set_mode_lost`) so silent mixed-mode measurements are
/// diagnosable.
pub fn set_mode(m: TimingMode) -> TimingMode {
    if MODE.set(m).is_err() {
        let latched = mode();
        if latched != m {
            OBS_SET_MODE_LOST.incr();
            stint_obs::event("timing.set_mode_lost");
        }
        return latched;
    }
    m
}

static OBS_SET_MODE_LOST: stint_obs::Counter = stint_obs::Counter::new("timing.set_mode_lost");

/// Per-detector flush timer implementing the gate. One instance per detector;
/// the mode is latched at construction.
#[derive(Debug)]
pub struct FlushTimer {
    mode: TimingMode,
}

impl Default for FlushTimer {
    fn default() -> Self {
        FlushTimer { mode: mode() }
    }
}

impl FlushTimer {
    /// Start timing a flush. `None` means this flush is not being timed.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        (self.mode == TimingMode::Full).then(Instant::now)
    }

    /// Account a flush started by [`begin`](Self::begin) into `acc`.
    #[inline]
    pub fn end(&self, t0: Option<Instant>, acc: &mut Duration) {
        if let Some(t0) = t0 {
            *acc += t0.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `mode()` is process-global, so tests exercise FlushTimer with explicit
    // modes rather than racing over the OnceLock.
    fn timer(mode: TimingMode) -> FlushTimer {
        FlushTimer { mode }
    }

    #[test]
    fn off_never_reads_clock() {
        let t = timer(TimingMode::Off);
        let mut acc = Duration::ZERO;
        for _ in 0..200 {
            let t0 = t.begin();
            assert!(t0.is_none());
            t.end(t0, &mut acc);
        }
        assert_eq!(acc, Duration::ZERO);
    }

    #[test]
    fn full_times_every_flush() {
        let t = timer(TimingMode::Full);
        for _ in 0..5 {
            assert!(t.begin().is_some());
        }
    }
}
