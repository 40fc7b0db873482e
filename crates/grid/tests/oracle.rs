//! Differential test of the grid detector against a brute-force all-pairs
//! oracle: random per-cell access patterns over a small word space, compared
//! on the exact set of racy words. This empirically validates the paper's
//! Section 7 claim that one stored reader + one stored writer per location
//! suffice for 2-D grid computations, under the row-major sequential
//! schedule and the leftmost-reader replacement rule.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use stint_grid::{detect_grid_stint, detect_grid_vanilla, GridReach};
use stint_sporder::Reachability;

#[derive(Clone, Copy)]
struct Acc {
    write: bool,
    word: u64,
    len: u64,
    coalesced: bool,
}

/// Random grid program: per cell, a few random accesses.
fn random_cells(rng: &mut StdRng, rows: usize, cols: usize, space: u64) -> Vec<Vec<Acc>> {
    (0..rows * cols)
        .map(|_| {
            let k = rng.random_range(0..4);
            (0..k)
                .map(|_| Acc {
                    write: rng.random_bool(0.45),
                    word: rng.random_range(0..space),
                    len: rng.random_range(1..6),
                    coalesced: rng.random_bool(0.5),
                })
                .collect()
        })
        .collect()
}

/// Brute force: all pairs of cells, all pairs of conflicting accesses.
fn oracle(cells: &[Vec<Acc>], g: &GridReach) -> Vec<u64> {
    let n = cells.len() as u32;
    let mut racy = BTreeSet::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.parallel(stint_sporder::StrandId(a), stint_sporder::StrandId(b)) {
                continue;
            }
            for x in &cells[a as usize] {
                for y in &cells[b as usize] {
                    if !x.write && !y.write {
                        continue;
                    }
                    let lo = x.word.max(y.word);
                    let hi = (x.word + x.len).min(y.word + y.len);
                    for w in lo..hi {
                        racy.insert(w);
                    }
                }
            }
        }
    }
    racy.into_iter().collect()
}

fn run_case(rows: usize, cols: usize, cells: &[Vec<Acc>]) {
    let g = GridReach::new(rows, cols);
    let expected = oracle(cells, &g);
    let drive = |ctx_load: &mut dyn FnMut(bool, bool, usize, usize), i: usize, j: usize| {
        for a in &cells[i * cols + j] {
            ctx_load(
                a.write,
                a.coalesced,
                (a.word * 4) as usize,
                (a.len * 4) as usize,
            );
        }
    };
    let stint_words = detect_grid_stint(rows, cols, |i, j, ctx| {
        drive(
            &mut |w, co, addr, bytes| match (w, co) {
                (true, true) => ctx.store_range(addr, bytes),
                (true, false) => ctx.store(addr, bytes),
                (false, true) => ctx.load_range(addr, bytes),
                (false, false) => ctx.load(addr, bytes),
            },
            i,
            j,
        )
    })
    .0
    .racy_words();
    assert_eq!(stint_words, expected, "STINT vs oracle on {rows}x{cols}");
    let vanilla_words = detect_grid_vanilla(rows, cols, |i, j, ctx| {
        drive(
            &mut |w, co, addr, bytes| match (w, co) {
                (true, true) => ctx.store_range(addr, bytes),
                (true, false) => ctx.store(addr, bytes),
                (false, true) => ctx.load_range(addr, bytes),
                (false, false) => ctx.load(addr, bytes),
            },
            i,
            j,
        )
    })
    .0
    .racy_words();
    assert_eq!(
        vanilla_words, expected,
        "vanilla vs oracle on {rows}x{cols}"
    );
}

#[test]
fn random_grids_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x6121D);
    for round in 0..150 {
        let rows = rng.random_range(1..8);
        let cols = rng.random_range(1..8);
        let cells = random_cells(&mut rng, rows, cols, 24);
        run_case(rows, cols, &cells);
        let _ = round;
    }
}

#[test]
fn degenerate_grids_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD0D0);
    // 1×n and n×1 grids are totally ordered: never any race.
    for _ in 0..40 {
        let n = rng.random_range(1..12);
        let cells = random_cells(&mut rng, 1, n, 12);
        let g = GridReach::new(1, n);
        assert!(oracle(&cells, &g).is_empty(), "1xN grid cannot race");
        run_case(1, n, &cells);
        let cells = random_cells(&mut rng, n, 1, 12);
        run_case(n, 1, &cells);
    }
}

#[test]
fn antichain_heavy_grids_match_oracle() {
    // Tall-thin and wide grids maximize antichains (many parallel pairs):
    // the stress case for the single-reader-slot policy.
    let mut rng = StdRng::seed_from_u64(0xA57A);
    for _ in 0..60 {
        let cells = random_cells(&mut rng, 12, 2, 10);
        run_case(12, 2, &cells);
        let cells = random_cells(&mut rng, 2, 12, 10);
        run_case(2, 12, &cells);
    }
}
