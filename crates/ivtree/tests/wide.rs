//! Wide runs against the oracle: the treap stores a run of 2^31 words or more
//! (a large `free` is one) with its end in a side table, so every case that
//! reads or rewrites bounds must agree with the flat store on runs of any
//! width, up to the whole word space `[0, u64::MAX)`.

use proptest::prelude::*;
use stint_ivtree::{normalize, FlatStore, Interval, IntervalStore, Treap};

/// Words per unit of the generated bounds: a run of one unit is narrow, one
/// of two or more is wide.
const UNIT: u64 = 1 << 30;

/// A bound: `k` units plus a word offset, or the top of the space.
fn point() -> impl Strategy<Value = u64> {
    prop_oneof![
        8 => (0..24u64, 0..3u64).prop_map(|(k, off)| k * UNIT + off),
        1 => Just(u64::MAX),
    ]
}

/// A non-empty run between two points (one word where they coincide).
fn run() -> impl Strategy<Value = (u64, u64)> {
    (point(), point()).prop_map(|(a, b)| match a.cmp(&b) {
        std::cmp::Ordering::Equal => (a.min(u64::MAX - 1), a.min(u64::MAX - 1) + 1),
        _ => (a.min(b), a.max(b)),
    })
}

/// Sorted disjoint runs between consecutive distinct points: a strand's
/// batch, spliced when it holds four runs or more.
fn batch() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(point(), 2..20).prop_map(|mut points| {
        points.sort_unstable();
        points.dedup();
        points.chunks_exact(2).map(|p| (p[0], p[1])).collect()
    })
}

#[derive(Clone, Debug)]
enum Op {
    Write((u64, u64), u32),
    Read((u64, u64), u32),
    Query((u64, u64)),
    Writes(Vec<(u64, u64)>, u32),
    Reads(Vec<(u64, u64)>, u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (run(), 0..8u32).prop_map(|(r, who)| Op::Write(r, who)),
        (run(), 0..8u32).prop_map(|(r, who)| Op::Read(r, who)),
        run().prop_map(Op::Query),
        (batch(), 0..8u32).prop_map(|(b, who)| Op::Writes(b, who)),
        (batch(), 0..8u32).prop_map(|(b, who)| Op::Reads(b, who)),
    ]
}

fn left_of(key: u64, a: u32, b: u32) -> bool {
    let h = |x: u32| (x as u64 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h(a) < h(b)
}

type Hits = Vec<(u32, u64, u64)>;

/// Conflicts as a set of maximal same-accessor regions.
fn normalize_hits(mut v: Hits) -> Hits {
    v.sort_unstable_by_key(|&(_, lo, _)| lo);
    let mut out: Hits = Vec::with_capacity(v.len());
    for (w, lo, hi) in v {
        match out.last_mut() {
            Some((pw, _, phi)) if *pw == w && *phi == lo => *phi = hi,
            _ => out.push((w, lo, hi)),
        }
    }
    out.sort_unstable();
    out
}

fn run_case(ops: &[Op], key: u64) {
    let mut treap: Treap<u32> = Treap::with_seed(key);
    let mut flat: FlatStore<u32> = FlatStore::new();
    for (i, op) in ops.iter().enumerate() {
        let (mut ht, mut hf) = (Hits::new(), Hits::new());
        match op {
            &Op::Write((lo, hi), who) => {
                let x = Interval::new(lo, hi, who);
                treap.insert_write(x, |w, lo, hi| ht.push((w, lo, hi)));
                flat.insert_write(x, |w, lo, hi| hf.push((w, lo, hi)));
            }
            &Op::Read((lo, hi), who) => {
                let x = Interval::new(lo, hi, who);
                treap.insert_read(x, |old| left_of(key, who, old));
                flat.insert_read(x, |old| left_of(key, who, old));
            }
            &Op::Query((lo, hi)) => {
                treap.query_overlaps(lo, hi, |w, lo, hi| ht.push((w, lo, hi)));
                flat.query_overlaps(lo, hi, |w, lo, hi| hf.push((w, lo, hi)));
            }
            Op::Writes(runs, who) => {
                treap.insert_writes_for(*who, runs, |w, lo, hi| ht.push((w, lo, hi)));
                flat.insert_writes_for(*who, runs, |w, lo, hi| hf.push((w, lo, hi)));
            }
            Op::Reads(runs, who) => {
                treap.insert_reads_for(*who, runs, |old| left_of(key, *who, old));
                flat.insert_reads_for(*who, runs, |old| left_of(key, *who, old));
            }
        }
        assert_eq!(normalize_hits(ht), normalize_hits(hf), "op {i} ({op:?})");
        treap.check_invariants();
        assert_eq!(
            normalize(treap.to_vec()),
            normalize(flat.to_vec()),
            "contents diverged at op {i} ({op:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Narrow and wide runs mixed, one by one and in batches: every write
    /// and read case, the carve, both REMOVEOVERLAP trims and the splice
    /// meet nodes that are wide, turn wide or turn narrow.
    #[test]
    fn wide_and_narrow_runs_match_flat(
        ops in proptest::collection::vec(op(), 1..60),
        key in any::<u64>(),
    ) {
        run_case(&ops, key);
    }
}

/// The whole space, written and read over a history of wide and narrow
/// runs, under many shapes: each covering run buries every stored interval.
#[test]
fn whole_space_runs_bury_any_history() {
    let history = [
        Op::Writes(
            vec![
                (0, 3 * UNIT),
                (3 * UNIT, 3 * UNIT + 1),
                (5 * UNIT, 9 * UNIT),
                (10 * UNIT, u64::MAX),
            ],
            1,
        ),
        Op::Write((2 * UNIT, 7 * UNIT), 2),
        Op::Write((UNIT, UNIT + 4), 3),
        Op::Write((0, u64::MAX), 4),
        Op::Reads(
            vec![
                (1, 2),
                (UNIT, 4 * UNIT),
                (6 * UNIT, 6 * UNIT + 9),
                (8 * UNIT, u64::MAX),
            ],
            5,
        ),
        Op::Read((0, u64::MAX), 6),
        Op::Query((0, u64::MAX)),
        Op::Write((3, 2 * UNIT + 3), 7),
        Op::Query((0, u64::MAX)),
    ];
    for key in 0..64 {
        run_case(&history, key);
    }
}
