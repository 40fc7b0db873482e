//! Allocator integration: freeing a region must clear its access history in
//! every detector variant, so that heap reuse across logically parallel
//! strands does not produce false races — while races on genuinely live
//! memory are still caught. Each case is a directed program whose compute
//! statements free where a `frees` bit says (the harness's live tier).

use stint_spdag::{Func, Stmt};

mod common;
use common::{access, check, live};

/// `len` words from `word` as one ranged hook.
fn range(write: bool, word: u64, len: u64) -> Stmt {
    Stmt::Compute(vec![access(write, word, len, true)])
}

fn spawn(s: Stmt) -> Stmt {
    Stmt::Spawn(Func(vec![s]))
}

/// The program's racy words under every variant.
fn racy(stmts: Vec<Stmt>, frees: u64) -> Vec<u64> {
    check(&Func(stmts), frees, &live()).unwrap_or_else(|e| panic!("frees={frees:#b}: {e:?}"))
}

/// A child writes a "heap block", reads it and frees it (compute 1); the
/// parallel continuation reuses the same addresses. Without the free this
/// is a false race.
fn reuse_after_free() -> Vec<Stmt> {
    let child = [range(true, 0x400, 64), range(false, 0x400, 64)];
    vec![
        Stmt::Spawn(Func(child.into())),
        range(true, 0x400, 64),
        Stmt::Sync,
    ]
}

#[test]
fn freed_region_does_not_race() {
    assert_eq!(
        racy(reuse_after_free(), 0b10),
        [],
        "false race on reused freed memory"
    );
}

#[test]
fn same_program_without_free_does_race() {
    assert!(!racy(reuse_after_free(), 0).is_empty(), "real race missed");
}

/// The strand's *own* accesses before the free must still be checked: a
/// child reads the region and frees it while a parallel sibling writes it;
/// the free must not suppress that report.
#[test]
fn free_does_not_suppress_prior_race() {
    let stmts = vec![
        spawn(range(true, 0x800, 16)),
        spawn(range(false, 0x800, 16)),
        Stmt::Sync,
    ];
    assert_eq!(racy(stmts, 0b10), (0x800..0x810).collect::<Vec<u64>>());
}

/// After a free, fresh accesses to the recycled region behave like accesses
/// to untouched memory: clean parallel use of disjoint halves, a serial read
/// of the block that frees it (compute 2), then a genuine new race in it.
#[test]
fn recycled_region_detects_new_races_only() {
    let stmts = vec![
        spawn(range(true, 0xC00, 32)),
        range(true, 0xC20, 32),
        Stmt::Sync,
        range(false, 0xC00, 64),
        spawn(range(true, 0xC00, 2)),
        range(false, 0xC01, 2),
        Stmt::Sync,
    ];
    assert_eq!(racy(stmts, 0b100), [0xC01]);
}
