//! Umbrella crate for the STINT reproduction workspace: re-exports the
//! public surface used by the examples and integration tests.
//!
//! * [`stint`] (re-exported at the root) — the race detector itself;
//! * [`suite`] — the seven instrumented benchmarks of the paper;
//! * [`cilkrt`] — the work-stealing runtime for running kernels in parallel;
//! * [`serve`] — the detection-as-a-service daemon (framed protocol,
//!   concurrent budgeted sessions, backpressure, fault-tolerant drain);
//! * [`grid`] — the 2-D grid (wavefront/pipeline) detector built on the same
//!   access history (the paper's Section 7 generalization).

pub use stint::*;

/// [`stint_batchdet`], plus the pool-less streamed form the differential
/// battery (`tests/prop_batchdet.rs`) is written against.
pub mod batchdet {
    pub use stint_batchdet::*;

    /// [`batch_detect_any`] over `r` on a fresh pool built from `cfg`.
    pub fn batch_detect_chunked<R: std::io::BufRead + Send>(
        mut r: R,
        cfg: &BatchConfig,
    ) -> Result<BatchOutcome, stint::DetectorError> {
        batch_detect_any(&new_pool(cfg.workers, cfg.steal_seed), &mut r, cfg)
    }
}
pub use stint_cilkrt as cilkrt;
pub use stint_grid as grid;
pub use stint_serve as serve;
pub use stint_suite as suite;
