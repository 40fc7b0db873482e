//! Real 2-D grid applications: wavefront dynamic programming
//! (Smith–Waterman local alignment) and a software pipeline — the two
//! program classes the paper names for its Section 7 generalization.

use crate::{detect_grid_stint, CellCtx, Verdict};
use stint::Detector;

/// Smith–Waterman local alignment over byte sequences `a` (rows) and `b`
/// (columns) with linear gap penalty. Cell `(i, j)` reads its NW/N/W
/// neighbours and writes `h[i][j]` — the canonical wavefront.
pub struct SmithWaterman {
    pub a: Vec<u8>,
    pub b: Vec<u8>,
    /// Scoring matrix, (len(a)+1) × (len(b)+1), row-major.
    pub h: Vec<i32>,
    /// Inject a bug: cells also read their *south-west* neighbour, which is
    /// logically parallel — a race.
    pub buggy: bool,
}

impl SmithWaterman {
    pub fn new(a: &[u8], b: &[u8]) -> SmithWaterman {
        SmithWaterman {
            h: vec![0; (a.len() + 1) * (b.len() + 1)],
            a: a.to_vec(),
            b: b.to_vec(),
            buggy: false,
        }
    }

    fn dims(&self) -> (usize, usize) {
        (self.a.len() + 1, self.b.len() + 1)
    }

    /// Run under STINT with grid reachability; returns the race report and
    /// the failure, if any. The scoring matrix is computed for real as a
    /// side effect.
    pub fn detect(&mut self) -> Verdict {
        let (rows, cols) = self.dims();
        let base = self.h.as_ptr() as usize;
        let h = &mut self.h;
        let a = &self.a;
        let b = &self.b;
        let buggy = self.buggy;
        detect_grid_stint(rows, cols, move |i, j, ctx| {
            cell(h, base, a, b, cols, i, j, buggy, ctx)
        })
    }

    /// Best local-alignment score.
    pub fn score(&self) -> i32 {
        self.h.iter().copied().max().unwrap_or(0)
    }

    /// Serial reference (no instrumentation) for verification.
    pub fn reference_score(a: &[u8], b: &[u8]) -> i32 {
        let (rows, cols) = (a.len() + 1, b.len() + 1);
        let mut h = vec![0i32; rows * cols];
        for i in 1..rows {
            for j in 1..cols {
                let m = if a[i - 1] == b[j - 1] { 2 } else { -1 };
                let v = (h[(i - 1) * cols + j - 1] + m)
                    .max(h[(i - 1) * cols + j] - 1)
                    .max(h[i * cols + j - 1] - 1)
                    .max(0);
                h[i * cols + j] = v;
            }
        }
        h.into_iter().max().unwrap_or(0)
    }
}

#[allow(clippy::too_many_arguments)]
fn cell<R: stint_sporder::Reachability, D: Detector<R>>(
    h: &mut [i32],
    base: usize,
    a: &[u8],
    b: &[u8],
    cols: usize,
    i: usize,
    j: usize,
    buggy: bool,
    ctx: &mut CellCtx<'_, R, D>,
) {
    let at = |r: usize, c: usize| base + (r * cols + c) * 4;
    if i == 0 || j == 0 {
        ctx.store(at(i, j), 4);
        h[i * cols + j] = 0;
        return;
    }
    ctx.load(at(i - 1, j - 1), 4);
    ctx.load(at(i - 1, j), 4);
    ctx.load(at(i, j - 1), 4);
    if buggy && i + 1 < a.len() + 1 && j > 0 {
        // BUG: south-west neighbour is parallel to (i, j).
        ctx.load(at(i + 1, j - 1), 4);
    }
    ctx.store(at(i, j), 4);
    let m = if a[i - 1] == b[j - 1] { 2 } else { -1 };
    let v = (h[(i - 1) * cols + j - 1] + m)
        .max(h[(i - 1) * cols + j] - 1)
        .max(h[i * cols + j - 1] - 1)
        .max(0);
    h[i * cols + j] = v;
}

/// A software pipeline: `stages` filters over a stream of `items`. Stage `s`
/// of item `t` reads the buffer cell written by stage `s-1` of item `t` and
/// its own state from item `t-1` — i.e. exactly the 2-D grid dependence
/// structure (rows = items, cols = stages, like Cilk-P pipelines).
pub struct Pipeline {
    pub items: usize,
    pub stages: usize,
    /// `buf[t][s]`: output of stage `s` on item `t`.
    pub buf: Vec<u64>,
    /// Per-stage running state, updated serially down each column.
    pub state: Vec<u64>,
    /// Inject a bug: stage `s` peeks at the *next* item's stage-`s-1` output
    /// (`buf[t+1][s-1]`), which is parallel to cell `(t, s)`.
    pub buggy: bool,
}

impl Pipeline {
    pub fn new(items: usize, stages: usize) -> Pipeline {
        Pipeline {
            items,
            stages,
            buf: vec![0; items * stages],
            state: vec![0xABCD; stages],
            buggy: false,
        }
    }

    pub fn detect(&mut self) -> Verdict {
        let (items, stages) = (self.items, self.stages);
        let bbase = self.buf.as_ptr() as usize;
        let sbase = self.state.as_ptr() as usize;
        let buf = &mut self.buf;
        let state = &mut self.state;
        let buggy = self.buggy;
        // Grid: rows = items (t), cols = stages (s).
        detect_grid_stint(items, stages, move |t, s, ctx| {
            let b_at = |t: usize, s: usize| bbase + (t * stages + s) * 8;
            // Read the previous stage's output for this item (west-ish: the
            // dependence (t, s-1) ≺ (t, s) holds since t ≤ t, s-1 ≤ s).
            let input = if s == 0 {
                t as u64
            } else {
                ctx.load(b_at(t, s - 1), 8);
                buf[t * stages + s - 1]
            };
            if buggy && t + 1 < items && s > 0 {
                // BUG: peeks at the next item's previous-stage slot, which
                // is written by cell (t+1, s-1) — parallel to (t, s).
                ctx.load(b_at(t + 1, s - 1), 8);
            }
            // Serial per-stage state: written by (t-1, s), read by (t, s) —
            // legal since (t-1, s) ≺ (t, s).
            ctx.load(sbase + s * 8, 8);
            ctx.store(sbase + s * 8, 8);
            state[s] = state[s]
                .wrapping_mul(6364136223846793005)
                .wrapping_add(input);
            ctx.store(b_at(t, s), 8);
            buf[t * stages + s] = state[s] ^ (input << 1);
        })
    }

    /// Serial reference of the final buffer (no instrumentation).
    pub fn reference(items: usize, stages: usize) -> Vec<u64> {
        let mut buf = vec![0u64; items * stages];
        let mut state = vec![0xABCDu64; stages];
        for t in 0..items {
            for s in 0..stages {
                let input = if s == 0 {
                    t as u64
                } else {
                    buf[t * stages + s - 1]
                };
                state[s] = state[s]
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(input);
                buf[t * stages + s] = state[s] ^ (input << 1);
            }
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridReach;

    #[test]
    fn smith_waterman_race_free_and_correct() {
        let a = b"GATTACAGATTACAGGGACT";
        let b = b"GCATGCGATTACATTTACGT";
        let mut sw = SmithWaterman::new(a, b);
        let (report, failure) = sw.detect();
        assert!(report.is_race_free(), "{:?}", report.races().first());
        assert!(failure.is_none());
        assert_eq!(sw.score(), SmithWaterman::reference_score(a, b));
        assert!(sw.score() > 0, "related sequences must align");
    }

    #[test]
    fn smith_waterman_buggy_races() {
        let mut sw = SmithWaterman::new(b"ACGTACGT", b"TGCATGCA");
        sw.buggy = true;
        let (report, _) = sw.detect();
        assert!(!report.is_race_free());
        // Every report must involve genuinely parallel cells.
        let g = GridReach::new(sw.a.len() + 1, sw.b.len() + 1);
        for r in report.races() {
            assert!(
                stint_sporder::Reachability::parallel(&g, r.prev, r.cur),
                "reported race between non-parallel cells"
            );
        }
    }

    #[test]
    fn pipeline_race_free_and_correct() {
        let mut p = Pipeline::new(12, 5);
        let (report, _) = p.detect();
        assert!(report.is_race_free(), "{:?}", report.races().first());
        assert_eq!(p.buf, Pipeline::reference(12, 5));
    }

    #[test]
    fn pipeline_peeking_races() {
        let mut p = Pipeline::new(10, 4);
        p.buggy = true;
        assert!(!p.detect().0.is_race_free());
    }
}
