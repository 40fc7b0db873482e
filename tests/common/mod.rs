//! Shared glue for the workspace-level property tests: a proptest strategy
//! generating fork-join programs over a small word space, the adapter that
//! replays a generated AST through a [`Cilk`] context, and the hook-level
//! recording of a program.
#![allow(dead_code)] // each test binary uses its own subset

use proptest::prelude::*;
use stint_repro::Cilk;
use stint_repro::CilkProgram;
use stint_repro::PortableTrace;
use stint_spdag::{Access, Func, Stmt};

/// Proptest strategy for fork-join programs over a small word space (every
/// access inside the first 64-word bitmap group of the runtime coalescer).
pub fn func_strategy(depth: u32) -> BoxedStrategy<Func> {
    let access = (any::<bool>(), 0u64..40, 1u64..10, any::<bool>()).prop_map(
        |(write, word, len, coalesced)| Access {
            write,
            word,
            len,
            coalesced,
        },
    );
    func_strategy_over(depth, access.boxed())
}

/// As [`func_strategy`], over the given access shapes.
pub fn func_strategy_over(depth: u32, access: BoxedStrategy<Access>) -> BoxedStrategy<Func> {
    let compute = proptest::collection::vec(access.clone(), 1..4).prop_map(Stmt::Compute);
    if depth == 0 {
        proptest::collection::vec(prop_oneof![compute, Just(Stmt::Sync)], 1..5)
            .prop_map(Func)
            .boxed()
    } else {
        let inner = func_strategy_over(depth - 1, access);
        let stmt = prop_oneof![
            4 => compute,
            1 => Just(Stmt::Sync),
            3 => inner.clone().prop_map(Stmt::Spawn),
            1 => inner.prop_map(Stmt::Call),
        ];
        proptest::collection::vec(stmt, 1..6).prop_map(Func).boxed()
    }
}

/// Word indices that exercise the bit table's lane and what it outlines:
/// the first groups of chunk 0, and the groups on either side of the
/// boundary between chunks 0 and 1 (so a program alternates chunks).
fn group_base() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(64), Just(128), Just(65472), Just(65536)]
}

fn access_of(range: impl Strategy<Value = (u64, u64)> + 'static) -> BoxedStrategy<Access> {
    (any::<bool>(), range, any::<bool>())
        .prop_map(|(write, (word, len), coalesced)| Access {
            write,
            word,
            len,
            coalesced,
        })
        .boxed()
}

/// Ranges inside one 64-word group, up to the whole group.
pub fn one_group() -> BoxedStrategy<Access> {
    access_of(
        (group_base(), 0u64..64, 0u64..64).prop_map(|(g, off, n)| (g + off, 1 + n % (64 - off))),
    )
}

/// Ranges that straddle at least one group boundary (for the last base, the
/// chunk boundary).
pub fn multi_group() -> BoxedStrategy<Access> {
    access_of(
        (group_base(), 1u64..64, 1u64..100)
            .prop_map(|(g, before, after)| (g + 64 - before, before + after)),
    )
}

pub struct AstProgram<'a>(pub &'a Func);

fn walk<C: Cilk>(f: &Func, ctx: &mut C) {
    for stmt in &f.0 {
        match stmt {
            Stmt::Compute(accs) => {
                for a in accs {
                    let addr = (a.word * 4) as usize;
                    let bytes = (a.len * 4) as usize;
                    match (a.write, a.coalesced) {
                        (true, true) => ctx.store_range(addr, bytes),
                        (true, false) => ctx.store(addr, bytes),
                        (false, true) => ctx.load_range(addr, bytes),
                        (false, false) => ctx.load(addr, bytes),
                    }
                }
            }
            Stmt::Spawn(g) => ctx.spawn(|c| walk(g, c)),
            Stmt::Sync => ctx.sync(),
            Stmt::Call(g) => ctx.call(|c| walk(g, c)),
        }
    }
}

impl CilkProgram for AstProgram<'_> {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        walk(self.0, ctx);
    }
}

/// `p`'s hook stream — one event per hook, as [`stint_repro::record`]
/// returns it — as a portable trace: the stream a live detector numbers its
/// witness events over, and what a file written by a recorder that did not
/// coalesce holds. [`PortableTrace::record`] stores its coalesced form.
pub fn hook_trace<P: CilkProgram>(p: &mut P) -> PortableTrace {
    let (trace, reach) = stint_repro::record(p);
    PortableTrace {
        trace,
        reach: reach.freeze(),
    }
}
