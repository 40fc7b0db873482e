//! Race detection for **2-D grid computations** — the generalization the
//! paper sketches in Section 7:
//!
//! > "our design would work out of the box in other instances, such as race
//! > detector for pipelines or 2D grids, since it is still sufficient to
//! > store one reader and one writer for each memory location."
//!
//! A 2-D grid computation (pipelines, wavefront dynamic programming — cf.
//! Dimitrov, Vechev & Sarkar, SPAA 2015; Xu, Lee & Agrawal, PPoPP 2018)
//! executes a `rows × cols` grid of cells where cell `(i, j)` depends on its
//! north and west neighbours: `(i, j) ≺ (i', j')` iff `i ≤ i'` and
//! `j ≤ j'`. Reachability is therefore a coordinate comparison — no data
//! structure at all — and the whole access-history machinery (the bit-shadow
//! runtime coalescer, the interval treap, the word shadow) plugs in
//! unchanged through the [`Reachability`] trait.
//!
//! Cells are executed in row-major order (a valid sequential schedule) and
//! each cell is one *strand*.

use std::time::Instant;
use stint::{Detector, DetectorError, RaceReport, StintDetector, VanillaDetector};
use stint_sporder::{Reachability, StrandId};

/// Coordinate-based reachability for a `rows × cols` grid: strand ids encode
/// `(i, j)` as `i * cols + j`.
#[derive(Clone, Copy, Debug)]
pub struct GridReach {
    pub rows: u32,
    pub cols: u32,
}

impl GridReach {
    pub fn new(rows: usize, cols: usize) -> GridReach {
        assert!(rows > 0 && cols > 0);
        assert!((rows as u64) * (cols as u64) < u32::MAX as u64);
        GridReach {
            rows: rows as u32,
            cols: cols as u32,
        }
    }

    /// Strand id of cell `(i, j)`.
    #[inline]
    pub fn strand(&self, i: usize, j: usize) -> StrandId {
        debug_assert!(i < self.rows as usize && j < self.cols as usize);
        StrandId(i as u32 * self.cols + j as u32)
    }

    /// Cell coordinates of a strand id.
    #[inline]
    pub fn cell(&self, s: StrandId) -> (u32, u32) {
        (s.0 / self.cols, s.0 % self.cols)
    }
}

impl Reachability for GridReach {
    #[inline]
    fn series(&self, a: StrandId, b: StrandId) -> bool {
        if a == b {
            return false;
        }
        let (ai, aj) = self.cell(a);
        let (bi, bj) = self.cell(b);
        ai <= bi && aj <= bj
    }

    #[inline]
    fn parallel(&self, a: StrandId, b: StrandId) -> bool {
        if a == b {
            return false;
        }
        let (ai, aj) = self.cell(a);
        let (bi, bj) = self.cell(b);
        // Strictly incomparable under the coordinate-wise partial order.
        (ai < bi && aj > bj) || (ai > bi && aj < bj)
    }

    #[inline]
    fn left_of(&self, a: StrandId, b: StrandId) -> bool {
        if a == b {
            return false;
        }
        // Definition (paper §2): a ∥ b and a precedes b in the sequential
        // (here: row-major) order, or b ≺ a.
        (self.parallel(a, b) && a.0 < b.0) || self.series(b, a)
    }
}

/// Per-cell instrumentation context: the grid analogue of the `Cilk` trait's
/// memory hooks (there is no spawn/sync — the grid shape *is* the dag).
pub struct CellCtx<'a, R: Reachability, D: Detector<R>> {
    det: &'a mut D,
    reach: &'a R,
    strand: StrandId,
}

impl<R: Reachability, D: Detector<R>> CellCtx<'_, R, D> {
    #[inline]
    pub fn load(&mut self, addr: usize, bytes: usize) {
        self.det.load(self.strand, addr, bytes, self.reach);
    }
    #[inline]
    pub fn store(&mut self, addr: usize, bytes: usize) {
        self.det.store(self.strand, addr, bytes, self.reach);
    }
    #[inline]
    pub fn load_range(&mut self, addr: usize, bytes: usize) {
        self.det.load_range(self.strand, addr, bytes, self.reach);
    }
    #[inline]
    pub fn store_range(&mut self, addr: usize, bytes: usize) {
        self.det.store_range(self.strand, addr, bytes, self.reach);
    }
    #[inline]
    pub fn free(&mut self, addr: usize, bytes: usize) {
        self.det.free(self.strand, addr, bytes, self.reach);
    }
}

/// Execute a `rows × cols` grid program sequentially (row-major), feeding
/// the detector one strand per cell. Returns the detector.
pub fn run_grid<D, F>(rows: usize, cols: usize, mut cell: F, mut det: D) -> (D, GridReach)
where
    D: Detector<GridReach>,
    F: FnMut(usize, usize, &mut CellCtx<'_, GridReach, D>),
{
    let reach = GridReach::new(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let strand = reach.strand(i, j);
            {
                let mut ctx = CellCtx {
                    det: &mut det,
                    reach: &reach,
                    strand,
                };
                cell(i, j, &mut ctx);
            }
            det.strand_end(strand, &reach);
        }
    }
    let last = reach.strand(rows - 1, cols - 1);
    det.finish(last, &reach);
    (det, reach)
}

/// A grid run's report, and the failure that degraded it (sound up to that
/// point) if the detector hit a budget or an injected fault.
pub type Verdict = (RaceReport, Option<DetectorError>);

/// Race detect a grid program with STINT's interval-treap access history.
///
/// ```
/// // A legal wavefront: cell (i, j) reads its north/west neighbours.
/// let dp = vec![0u64; 16];
/// let at = |i: usize, j: usize| dp.as_ptr() as usize + (i * 4 + j) * 8;
/// let (report, failure) = stint_grid::detect_grid_stint(4, 4, |i, j, ctx| {
///     if i > 0 { ctx.load(at(i - 1, j), 8); }
///     if j > 0 { ctx.load(at(i, j - 1), 8); }
///     ctx.store(at(i, j), 8);
/// });
/// assert!(report.is_race_free() && failure.is_none());
/// ```
pub fn detect_grid_stint<F>(rows: usize, cols: usize, cell: F) -> Verdict
where
    F: FnMut(usize, usize, &mut CellCtx<'_, GridReach, StintDetector>),
{
    let t0 = Instant::now();
    let (det, _) = run_grid(rows, cols, cell, StintDetector::new(RaceReport::default()));
    let failure = Detector::<GridReach>::failure(&det);
    det.stats
        .publish(t0.elapsed(), rows * cols, det.report.total);
    (det.report, failure)
}

/// Race detect a grid program with the vanilla word-granularity history.
pub fn detect_grid_vanilla<F>(rows: usize, cols: usize, cell: F) -> Verdict
where
    F: FnMut(usize, usize, &mut CellCtx<'_, GridReach, VanillaDetector>),
{
    let t0 = Instant::now();
    let (det, _) = run_grid(
        rows,
        cols,
        cell,
        VanillaDetector::new(true, RaceReport::default()),
    );
    let failure = Detector::<GridReach>::failure(&det);
    det.stats
        .publish(t0.elapsed(), rows * cols, det.report.total);
    (det.report, failure)
}

pub mod wavefront;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_axioms() {
        let g = GridReach::new(4, 5);
        let a = g.strand(1, 2);
        let b = g.strand(2, 3);
        let c = g.strand(0, 4);
        assert!(g.series(a, b));
        assert!(!g.series(b, a));
        assert!(!g.parallel(a, b));
        assert!(g.parallel(a, c)); // (1,2) vs (0,4): incomparable
        assert!(g.parallel(c, a));
        assert!(!g.series(a, a) && !g.parallel(a, a));
    }

    #[test]
    fn left_of_matches_definition() {
        let g = GridReach::new(4, 4);
        let a = g.strand(0, 3);
        let b = g.strand(1, 1);
        // a ∥ b, a earlier in row-major: a left of b, not vice versa.
        assert!(g.parallel(a, b));
        assert!(g.left_of(a, b));
        assert!(!g.left_of(b, a));
        // series successor is left of its predecessor.
        let p = g.strand(0, 0);
        let q = g.strand(2, 2);
        assert!(g.series(p, q));
        assert!(g.left_of(q, p));
        assert!(!g.left_of(p, q));
    }

    #[test]
    fn wavefront_stencil_is_race_free() {
        // dp[i][j] reads dp[i-1][j], dp[i][j-1], dp[i-1][j-1]: the canonical
        // legal wavefront pattern.
        let (n, m) = (8, 9);
        let dp = vec![0u64; n * m];
        let base = dp.as_ptr() as usize;
        let at = |i: usize, j: usize| base + (i * m + j) * 8;
        let (report, _) = detect_grid_stint(n, m, |i, j, ctx| {
            if i > 0 {
                ctx.load(at(i - 1, j), 8);
            }
            if j > 0 {
                ctx.load(at(i, j - 1), 8);
            }
            if i > 0 && j > 0 {
                ctx.load(at(i - 1, j - 1), 8);
            }
            ctx.store(at(i, j), 8);
        });
        assert!(report.is_race_free(), "{:?}", report.races().first());
    }

    #[test]
    fn anti_dependency_violation_races() {
        // Cell (i, j) also reads dp[i+1][j-1] — a south-west neighbour,
        // which is parallel to (i, j): racy with that cell's write.
        let (n, m) = (6, 6);
        let dp = vec![0u64; n * m];
        let base = dp.as_ptr() as usize;
        let at = |i: usize, j: usize| base + (i * m + j) * 8;
        let (report, _) = detect_grid_stint(n, m, |i, j, ctx| {
            if i + 1 < n && j > 0 {
                ctx.load(at(i + 1, j - 1), 8); // BUG
            }
            ctx.store(at(i, j), 8);
        });
        assert!(!report.is_race_free());
    }

    #[test]
    fn vanilla_and_stint_agree_on_grid() {
        let (n, m) = (5, 7);
        let dp = vec![0u64; n * m];
        let base = dp.as_ptr() as usize;
        let at = |i: usize, j: usize| base + (i * m + j) * 8;
        let cellfn = |i: usize, j: usize, l: &mut dyn FnMut(usize), s: &mut dyn FnMut(usize)| {
            if i > 0 {
                l(at(i - 1, j));
            }
            if j > 1 {
                l(at(i, j - 2)); // skip-one read: still legal (series)
            }
            if i + 1 < n && j + 2 < m {
                l(at(i + 1, j + 2)); // illegal: (i+1, j+2) not ≺ (i, j)...
            }
            s(at(i, j));
        };
        // Note: reading (i+1, j+2) is a *forward* read — (i,j) ≺ (i+1,j+2),
        // so the read races with the later write? No: the read strand (i,j)
        // precedes the writer (i+1,j+2) in series — NOT a race. Use a
        // genuinely parallel cell instead: (i+1, j-1).
        let _ = cellfn;
        let run_words = |stint: bool| {
            let f = |i: usize, j: usize, loads: &mut Vec<usize>, stores: &mut Vec<usize>| {
                if i + 1 < n && j > 0 {
                    loads.push(at(i + 1, j - 1));
                }
                stores.push(at(i, j));
            };
            let mut loads = Vec::new();
            let mut stores = Vec::new();
            let cell = move |i: usize, j: usize, ctx: &mut dyn FnMut(bool, usize)| {
                loads.clear();
                stores.clear();
                f(i, j, &mut loads, &mut stores);
                for &a in &loads {
                    ctx(false, a);
                }
                for &a in &stores {
                    ctx(true, a);
                }
            };
            let mut cell = cell;
            if stint {
                detect_grid_stint(n, m, |i, j, ctx| {
                    cell(i, j, &mut |w, a| {
                        if w {
                            ctx.store(a, 8)
                        } else {
                            ctx.load(a, 8)
                        }
                    })
                })
                .0
                .racy_words()
            } else {
                detect_grid_vanilla(n, m, |i, j, ctx| {
                    cell(i, j, &mut |w, a| {
                        if w {
                            ctx.store(a, 8)
                        } else {
                            ctx.load(a, 8)
                        }
                    })
                })
                .0
                .racy_words()
            }
        };
        let a = run_words(true);
        let b = run_words(false);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
