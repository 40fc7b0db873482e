//! Differential battery for the interval treap's bulk entry points.
//!
//! Random op sequences mixing single inserts, queries and **sorted batches**
//! are driven into three stores at once: a `Treap` through
//! `insert_writes_for` / `insert_reads_for` (the split–join splice), a
//! same-seed `Treap` through one `insert_write` / `insert_read` per run, and
//! the `BTreeMap`-backed `FlatStore` oracle. After every op the two treaps
//! must hold identical *un-normalised* contents, have reported the same
//! conflicts in the same order, counted the same inserts and watermark (Lemma 4.1's `m` and
//! bound, asserted inside `check_invariants`), and have the same height;
//! both must agree with the oracle up to fragmentation.

use proptest::prelude::*;
use stint_ivtree::{normalize, FlatStore, Interval, IntervalStore, Treap};

type Hit = (u32, u64, u64);

/// A deterministic, arbitrary (but fixed per test case) "left-of" relation.
fn left_of(key: u64, a: u32, b: u32) -> bool {
    let h = |x: u32| (x as u64 ^ key).wrapping_mul(0x9E3779B97F4A7C15);
    h(a) < h(b)
}

/// Merge adjacent same-accessor regions: the stores may legally fragment a
/// logically contiguous conflict into touching pieces.
fn normalize_hits(mut v: Vec<Hit>) -> Vec<Hit> {
    v.sort_unstable_by_key(|&(_, lo, _)| lo);
    let mut out: Vec<Hit> = Vec::with_capacity(v.len());
    for (w, lo, hi) in v {
        match out.last_mut() {
            Some((pw, _, phi)) if *pw == w && *phi == lo => *phi = hi,
            _ => out.push((w, lo, hi)),
        }
    }
    out.sort_unstable();
    out
}

/// The three stores under one key (treap seed and left-of relation).
struct Trio {
    key: u64,
    bulk: Treap<u32>,
    looped: Treap<u32>,
    flat: FlatStore<u32>,
}

impl Trio {
    fn new(key: u64) -> Self {
        Trio {
            key,
            bulk: Treap::with_seed(key),
            looped: Treap::with_seed(key),
            flat: FlatStore::new(),
        }
    }

    fn write_batch(&mut self, who: u32, runs: &[(u64, u64)]) {
        let (mut cb, mut cl, mut cf) = (Vec::new(), Vec::new(), Vec::new());
        self.bulk
            .insert_writes_for(who, runs, |w, lo, hi| cb.push((w, lo, hi)));
        for &(lo, hi) in runs {
            self.looped
                .insert_write(Interval::new(lo, hi, who), |w, lo, hi| cl.push((w, lo, hi)));
        }
        self.flat
            .insert_writes_for(who, runs, |w, lo, hi| cf.push((w, lo, hi)));
        // Same shape, same walk: even the order of the reports is the same.
        assert_eq!(cb, cl, "bulk and per-run conflicts differ");
        assert_eq!(normalize_hits(cb), normalize_hits(cf), "conflicts vs flat");
        self.check();
    }

    fn read_batch(&mut self, who: u32, runs: &[(u64, u64)]) {
        let key = self.key;
        self.bulk
            .insert_reads_for(who, runs, |old| left_of(key, who, old));
        for &(lo, hi) in runs {
            self.looped
                .insert_read(Interval::new(lo, hi, who), |old| left_of(key, who, old));
        }
        self.flat
            .insert_reads_for(who, runs, |old| left_of(key, who, old));
        self.check();
    }

    fn query(&mut self, lo: u64, hi: u64) {
        let (mut cb, mut cl, mut cf) = (Vec::new(), Vec::new(), Vec::new());
        self.bulk
            .query_overlaps(lo, hi, |w, lo, hi| cb.push((w, lo, hi)));
        self.looped
            .query_overlaps(lo, hi, |w, lo, hi| cl.push((w, lo, hi)));
        self.flat
            .query_overlaps(lo, hi, |w, lo, hi| cf.push((w, lo, hi)));
        assert_eq!(cb, cl, "bulk and per-run query results differ");
        assert_eq!(normalize_hits(cb), normalize_hits(cf), "query vs flat");
    }

    fn check(&self) {
        self.bulk.check_invariants();
        self.looped.check_invariants();
        self.flat.check_invariants();
        assert_eq!(self.bulk.to_vec(), self.looped.to_vec(), "treaps differ");
        assert_eq!(
            normalize(self.bulk.to_vec()),
            normalize(self.flat.to_vec()),
            "treap and flat store differ"
        );
        assert_eq!(self.bulk.insert_ops(), self.looped.insert_ops());
        assert_eq!(self.bulk.insert_ops(), self.flat.insert_ops());
        assert_eq!(self.bulk.len_high_water(), self.looped.len_high_water());
        // Equal priorities are ranked by key on every path, so the shape is
        // a function of the contents even when two 32-bit draws tie.
        assert_eq!(self.bulk.height(), self.looped.height(), "shapes differ");
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write {
        start: u64,
        len: u64,
        who: u32,
    },
    Read {
        start: u64,
        len: u64,
        who: u32,
    },
    Query {
        start: u64,
        len: u64,
    },
    /// A sorted batch: run `i` starts `gap_i` words after run `i-1` ended
    /// (gap 0: adjacent-touching runs) and is `len_i` words long.
    Batch {
        write: bool,
        who: u32,
        start: u64,
        steps: Vec<(u64, u64)>,
        /// Hand the runs over back to front: not sorted, must fall back.
        reversed: bool,
    },
    /// A batch of exactly the intervals stored at that moment, from the
    /// `skip`-th on, at most `take` of them.
    Echo {
        write: bool,
        who: u32,
        skip: usize,
        take: usize,
    },
}

fn op_strategy(space: u64, max_len: u64, max_gap: u64) -> impl Strategy<Value = Op> {
    let single = (0..space, 1..=max_len, 0..50u32);
    prop_oneof![
        3 => single.clone().prop_map(|(start, len, who)| Op::Write { start, len, who }),
        3 => single.prop_map(|(start, len, who)| Op::Read { start, len, who }),
        2 => (0..space, 1..=max_len).prop_map(|(start, len)| Op::Query { start, len }),
        4 => (
            any::<bool>(),
            0..50u32,
            0..space,
            proptest::collection::vec((0..=max_gap, 1..=max_len), 1..=200),
            0..8u32,
        )
            .prop_map(|(write, who, start, steps, r)| Op::Batch {
                write,
                who,
                start,
                steps,
                reversed: r == 0,
            }),
        1 => (any::<bool>(), 0..50u32, 0..40usize, 1..=200usize)
            .prop_map(|(write, who, skip, take)| Op::Echo { write, who, skip, take }),
    ]
}

fn runs_of(start: u64, steps: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut at = start;
    steps
        .iter()
        .map(|&(gap, len)| {
            let lo = at + gap;
            at = lo + len;
            (lo, at)
        })
        .collect()
}

fn run_case(ops: &[Op], key: u64) {
    let mut trio = Trio::new(key);
    for op in ops {
        match *op {
            Op::Write { start, len, who } => trio.write_batch(who, &[(start, start + len)]),
            Op::Read { start, len, who } => trio.read_batch(who, &[(start, start + len)]),
            Op::Query { start, len } => trio.query(start, start + len),
            Op::Batch {
                write,
                who,
                start,
                ref steps,
                reversed,
            } => {
                let mut runs = runs_of(start, steps);
                if reversed {
                    runs.reverse();
                }
                if write {
                    trio.write_batch(who, &runs);
                } else {
                    trio.read_batch(who, &runs);
                }
            }
            Op::Echo {
                write,
                who,
                skip,
                take,
            } => {
                let runs: Vec<(u64, u64)> = trio
                    .looped
                    .to_vec()
                    .iter()
                    .skip(skip)
                    .take(take)
                    .map(|iv| (iv.start, iv.end))
                    .collect();
                if write {
                    trio.write_batch(who, &runs);
                } else {
                    trio.read_batch(who, &runs);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense address space: every batch overlaps stored intervals, long ones
    /// straddle both edges of the cover or bury the whole tree.
    #[test]
    fn bulk_matches_per_run_and_flat_dense(
        ops in proptest::collection::vec(op_strategy(256, 6, 3), 1..40),
        key in any::<u64>(),
    ) {
        run_case(&ops, key);
    }

    /// Sparse address space: batches land inside a deep tree, mostly in the
    /// gaps between stored intervals (the build path when they hit none).
    #[test]
    fn bulk_matches_per_run_and_flat_sparse(
        ops in proptest::collection::vec(op_strategy(50_000, 40, 300), 1..60),
        key in any::<u64>(),
    ) {
        run_case(&ops, key);
    }
}

/// The shapes the issue names, one by one, on a fixed store.
#[test]
fn named_batch_shapes() {
    let seed_store = |trio: &mut Trio| {
        // 64 stored writes [100+10i, 106+10i) and reads over the same span.
        let runs: Vec<(u64, u64)> = (0..64).map(|i| (100 + 10 * i, 106 + 10 * i)).collect();
        trio.write_batch(1, &runs);
        trio.read_batch(2, &runs);
    };
    let shapes: Vec<(&str, Vec<(u64, u64)>)> = vec![
        (
            "inside the cover, in the gaps",
            (10..40).map(|i| (106 + 10 * i, 110 + 10 * i)).collect(),
        ),
        (
            "inside the cover, both ends inside stored intervals",
            (10..40).map(|i| (103 + 10 * i, 112 + 10 * i)).collect(),
        ),
        (
            "straddling both edges",
            (0..100).map(|i| (50 + 8 * i, 55 + 8 * i)).collect(),
        ),
        (
            "covering the whole tree",
            vec![(0, 50), (60, 2000), (2000, 2001), (2100, 2200)],
        ),
        (
            "exactly the stored intervals",
            (0..64).map(|i| (100 + 10 * i, 106 + 10 * i)).collect(),
        ),
        (
            "adjacent-touching runs",
            (0..50).map(|i| (200 + 3 * i, 203 + 3 * i)).collect(),
        ),
        (
            "below the minimum batch length",
            vec![(105, 112), (300, 301), (640, 900)],
        ),
        (
            "at the minimum batch length",
            vec![(105, 112), (300, 301), (640, 700), (735, 900)],
        ),
        (
            "append",
            (0..10).map(|i| (5000 + 4 * i, 5002 + 4 * i)).collect(),
        ),
        ("prepend", (0..10).map(|i| (4 * i, 2 + 4 * i)).collect()),
        (
            "unsorted",
            vec![(400, 410), (300, 310), (500, 510), (100, 110), (0, 5)],
        ),
    ];
    for (name, runs) in &shapes {
        for write in [true, false] {
            let mut trio = Trio::new(0xC0FFEE);
            seed_store(&mut trio);
            if write {
                trio.write_batch(7, runs);
            } else {
                trio.read_batch(7, runs);
            }
            // A second strand over the same runs meets what the first left.
            trio.read_batch(8, runs);
            trio.write_batch(9, runs);
            assert!(!trio.bulk.is_empty(), "{name}");
        }
    }
}

/// Drive `ops` into a bulk and a per-run treap and return, for each, the
/// stored readers `is_new_left_of` was asked about, in the order asked.
fn questions(ops: &[Op], key: u64) -> [Vec<u32>; 2] {
    let (mut bulk, mut looped) = (Treap::with_seed(key), Treap::with_seed(key));
    let (mut asked_bulk, mut asked_looped) = (Vec::new(), Vec::new());
    let mut batch = |write: bool, who: u32, runs: &[(u64, u64)]| {
        if write {
            bulk.insert_writes_for(who, runs, |_, _, _| {});
            looped.insert_writes_for(who, runs, |_, _, _| {});
            return;
        }
        bulk.insert_reads_for(who, runs, |old| {
            asked_bulk.push(old);
            left_of(key, who, old)
        });
        for &(lo, hi) in runs {
            looped.insert_read(Interval::new(lo, hi, who), |old| {
                asked_looped.push(old);
                left_of(key, who, old)
            });
        }
    };
    for op in ops {
        match *op {
            Op::Write { start, len, who } => batch(true, who, &[(start, start + len)]),
            Op::Read { start, len, who } => batch(false, who, &[(start, start + len)]),
            Op::Batch {
                write,
                who,
                start,
                ref steps,
                reversed: false,
            } => batch(write, who, &runs_of(start, steps)),
            _ => {}
        }
    }
    [asked_bulk, asked_looped]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The probe asks before it acts, the recursive path asked on its way
    /// down: the same questions in the same order, whether a run was probed
    /// from the root, from the middle of a cut or from where the last run's
    /// path left off.
    #[test]
    fn left_of_questions_match_on_both_paths(
        dense in proptest::collection::vec(op_strategy(256, 6, 3), 1..40),
        sparse in proptest::collection::vec(op_strategy(50_000, 40, 300), 1..60),
        key in any::<u64>(),
    ) {
        for ops in [&dense, &sparse] {
            let [bulk, looped] = questions(ops, key);
            prop_assert_eq!(bulk, looped);
        }
    }
}
