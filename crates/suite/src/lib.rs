//! The seven task-parallel benchmarks of the paper's evaluation (Section 5),
//! written against the [`stint_cilk::Cilk`] trait:
//!
//! | name    | kernel | paper parameters |
//! |---------|--------|------------------|
//! | `chol`  | recursive blocked Cholesky factorization | n=2000, b=16 (paper uses a sparse quadtree variant; see DESIGN.md §2) |
//! | `fft`   | recursive radix-2 Cooley–Tukey FFT       | n=2^26, b=128 |
//! | `heat`  | 2-D Jacobi heat diffusion                | 2048×2048, b=10 |
//! | `mmul`  | recursive divide-and-conquer matmul      | n=2048, b=64 |
//! | `sort`  | cilksort (4-way mergesort, parallel merge, quicksort/insertion base) | n=2.5e7, b=2048 |
//! | `stra`  | Strassen multiplication, row-major       | n=2048, b=64 |
//! | `straz` | Strassen multiplication, Morton-Z layout | n=2048, b=64 |
//!
//! Every kernel performs its real computation on real data, and issues
//! instrumentation hooks for exactly the bytes it touches. Accesses the
//! paper's Tapir analysis can prove contiguous use the coalesced hooks
//! (`load_range`/`store_range`); statically non-contiguous or data-dependent
//! accesses (matmul's column-major `B` reads — Algorithm 1; sorting's
//! value-dependent moves — Algorithm 2; FFT's strided deinterleave) use the
//! plain hooks. All benchmarks are determinacy-race-free; the `buggy` module
//! provides broken variants for positive detector tests.

pub mod buggy;
pub mod chol;
pub mod fft;
pub mod heat;
pub mod mmul;
pub mod sort;
pub mod strassen;
pub mod util;

use stint_cilk::{Cilk, CilkProgram};

/// Input-size presets.
///
/// `Paper` reproduces the paper's parameters (minutes to hours under
/// detection — the paper's machine needed 84–488 s per benchmark under
/// `vanilla`); `S` is sized so the full figure harness completes in minutes
/// on a laptop; `Test` is for the test suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Test,
    S,
    M,
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "s" | "small" => Some(Scale::S),
            "m" | "medium" => Some(Scale::M),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The benchmark names in the paper's (alphabetical) table order.
pub const NAMES: [&str; 7] = ["chol", "fft", "heat", "mmul", "sort", "stra", "straz"];

/// Seeded-bug variants constructible by name — deterministic *racy*
/// workloads for positive-path tooling (recording racy traces, witness
/// tests). Not part of [`NAMES`]: the figure harness iterates the
/// race-free suite only.
pub const BUGGY_NAMES: [&str; 3] = ["buggy-heat", "buggy-merge", "buggy-mmul"];

/// A ready-to-run benchmark instance. Construction is deterministic; run it
/// once (kernels mutate their data in place).
pub enum Workload {
    Chol(chol::Chol),
    Fft(fft::Fft),
    Heat(heat::Heat),
    Mmul(mmul::Mmul),
    Sort(sort::Sort),
    Stra(strassen::Strassen),
    Straz(strassen::StrassenZ),
    BuggyHeat(buggy::HeatMissingBarrier),
    BuggyMerge(buggy::OverlappingMerge),
    BuggyMmul(buggy::MmulMissingSync),
}

impl Workload {
    /// Build a fresh instance of the named benchmark at the given scale.
    /// Accepts the race-free [`NAMES`] and the seeded-bug [`BUGGY_NAMES`].
    ///
    /// # Panics
    /// Panics on an unknown name.
    pub fn by_name(name: &str, scale: Scale) -> Workload {
        match name {
            "chol" => Workload::Chol(chol::Chol::with_scale(scale)),
            "fft" => Workload::Fft(fft::Fft::with_scale(scale)),
            "heat" => Workload::Heat(heat::Heat::with_scale(scale)),
            "mmul" => Workload::Mmul(mmul::Mmul::with_scale(scale)),
            "sort" => Workload::Sort(sort::Sort::with_scale(scale)),
            "stra" => Workload::Stra(strassen::Strassen::with_scale(scale)),
            "straz" => Workload::Straz(strassen::StrassenZ::with_scale(scale)),
            "buggy-heat" => {
                let (n, steps, b) = match scale {
                    Scale::Test => (16, 3, 4),
                    Scale::S => (64, 4, 8),
                    Scale::M | Scale::Paper => (128, 5, 8),
                };
                Workload::BuggyHeat(buggy::HeatMissingBarrier::new(n, n, steps, b, 7))
            }
            "buggy-merge" => {
                let (n, overlap) = match scale {
                    Scale::Test => (64, 4),
                    Scale::S => (1024, 16),
                    Scale::M | Scale::Paper => (8192, 32),
                };
                Workload::BuggyMerge(buggy::OverlappingMerge::new(n, overlap, 7))
            }
            "buggy-mmul" => {
                let (n, b) = match scale {
                    Scale::Test => (16, 4),
                    Scale::S => (64, 8),
                    Scale::M | Scale::Paper => (128, 16),
                };
                Workload::BuggyMmul(buggy::MmulMissingSync::new(n, b, 7))
            }
            _ => panic!("unknown benchmark {name:?}"),
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Chol(_) => "chol",
            Workload::Fft(_) => "fft",
            Workload::Heat(_) => "heat",
            Workload::Mmul(_) => "mmul",
            Workload::Sort(_) => "sort",
            Workload::Stra(_) => "stra",
            Workload::Straz(_) => "straz",
            Workload::BuggyHeat(_) => "buggy-heat",
            Workload::BuggyMerge(_) => "buggy-merge",
            Workload::BuggyMmul(_) => "buggy-mmul",
        }
    }

    /// Check the computation's output (call after running). Returns an error
    /// description on failure. Verification may be skipped (Ok) at large
    /// scales where the reference computation would dominate. The buggy
    /// variants always pass: their outputs are deliberately undefined — the
    /// race report is the interesting artifact.
    pub fn verify(&self) -> Result<(), String> {
        match self {
            Workload::Chol(b) => b.verify(),
            Workload::Fft(b) => b.verify(),
            Workload::Heat(b) => b.verify(),
            Workload::Mmul(b) => b.verify(),
            Workload::Sort(b) => b.verify(),
            Workload::Stra(b) => b.verify(),
            Workload::Straz(b) => b.verify(),
            Workload::BuggyHeat(_) | Workload::BuggyMerge(_) | Workload::BuggyMmul(_) => Ok(()),
        }
    }
}

impl CilkProgram for Workload {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        match self {
            Workload::Chol(b) => b.run(ctx),
            Workload::Fft(b) => b.run(ctx),
            Workload::Heat(b) => b.run(ctx),
            Workload::Mmul(b) => b.run(ctx),
            Workload::Sort(b) => b.run(ctx),
            Workload::Stra(b) => b.run(ctx),
            Workload::Straz(b) => b.run(ctx),
            Workload::BuggyHeat(b) => b.run(ctx),
            Workload::BuggyMerge(b) => b.run(ctx),
            Workload::BuggyMmul(b) => b.run(ctx),
        }
    }
}
