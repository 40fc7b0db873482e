//! Series-parallel DAG model used for *testing* the production pipeline.
//!
//! This crate provides three things, all deliberately simple and slow:
//!
//! 1. An AST for fork-join programs ([`Func`]/[`Stmt`]) that both the
//!    reference simulator here and the real executor in `stint-cilk` can
//!    interpret, so the two can be compared on identical programs.
//! 2. A reference simulator ([`simulate`]) that unfolds the program into its
//!    series-parallel DAG of strands and computes reachability by transitive
//!    closure — the oracle against which SP-Order is differentially tested.
//! 3. A brute-force race detector ([`Sim::racy_words`]) that considers every
//!    pair of accesses — the oracle against which all four production
//!    detectors are differentially tested.
//!
//! Plus a random program generator ([`random_func`]) for property tests.

use rand::{Rng, RngExt};

/// One instrumented memory access performed by a strand.
///
/// Addresses are abstract word indices (a "word" is the paper's 4-byte shadow
/// granule); `len` is the number of consecutive words touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// True for a store, false for a load.
    pub write: bool,
    /// First word touched.
    pub word: u64,
    /// Number of consecutive words touched (>= 1).
    pub len: u64,
    /// Whether the access is emitted through the *coalesced* hook (models
    /// compile-time coalescing); per-word hooks set this to false.
    pub coalesced: bool,
}

/// A statement of a fork-join program.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// Straight-line code performing memory accesses (no parallel control).
    Compute(Vec<Access>),
    /// `spawn f()` — `f` may run in parallel with the continuation.
    Spawn(Func),
    /// `sync` — wait for all children spawned by the enclosing function since
    /// the previous sync.
    Sync,
    /// A plain serial call, which gets its own sync scope (a Cilk function
    /// implicitly syncs before returning).
    Call(Func),
}

/// A function body. Every function implicitly syncs at its end.
#[derive(Clone, Debug, Default)]
pub struct Func(pub Vec<Stmt>);

impl Func {
    /// Total number of `Compute` accesses in the whole program.
    pub fn access_count(&self) -> usize {
        self.0
            .iter()
            .map(|s| match s {
                Stmt::Compute(v) => v.len(),
                Stmt::Spawn(f) | Stmt::Call(f) => f.access_count(),
                Stmt::Sync => 0,
            })
            .sum()
    }

    /// Number of spawns in the whole program.
    pub fn spawn_count(&self) -> usize {
        self.0
            .iter()
            .map(|s| match s {
                Stmt::Spawn(f) => 1 + f.spawn_count(),
                Stmt::Call(f) => f.spawn_count(),
                _ => 0,
            })
            .sum()
    }
}

/// Identifier of a strand in the unfolded DAG (dense, in creation order).
pub type SimStrand = u32;

/// Result of unfolding a program into its series-parallel DAG.
pub struct Sim {
    /// Accesses performed by each strand.
    pub strand_accesses: Vec<Vec<Access>>,
    /// DAG edges (from, to).
    pub edges: Vec<(SimStrand, SimStrand)>,
    /// Strands in sequential (depth-first, spawned-child-first) execution
    /// order. Every strand appears exactly once.
    pub seq_order: Vec<SimStrand>,
    reach: Vec<Vec<u64>>, // reach[a] bitset: strands reachable from a (a excluded)
}

impl Sim {
    /// Number of strands.
    pub fn strand_count(&self) -> usize {
        self.strand_accesses.len()
    }

    /// True if there is a directed path from `a` to `b` (i.e. `a` logically
    /// precedes `b`); false for `a == b`.
    pub fn precedes(&self, a: SimStrand, b: SimStrand) -> bool {
        a != b && (self.reach[a as usize][(b / 64) as usize] >> (b % 64)) & 1 == 1
    }

    /// True if `a` and `b` are logically parallel.
    pub fn parallel(&self, a: SimStrand, b: SimStrand) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// Brute-force race oracle: the set of words on which two parallel
    /// strands perform conflicting accesses, sorted ascending.
    pub fn racy_words(&self) -> Vec<u64> {
        let n = self.strand_count();
        let mut racy = std::collections::BTreeSet::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if !self.parallel(a, b) {
                    continue;
                }
                for x in &self.strand_accesses[a as usize] {
                    for y in &self.strand_accesses[b as usize] {
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
}

struct SimBuilder {
    strand_accesses: Vec<Vec<Access>>,
    edges: Vec<(SimStrand, SimStrand)>,
    seq_order: Vec<SimStrand>,
}

impl SimBuilder {
    fn new_strand(&mut self) -> SimStrand {
        let id = self.strand_accesses.len() as SimStrand;
        self.strand_accesses.push(Vec::new());
        self.seq_order.push(id);
        id
    }

    /// Execute `f` in a fresh frame whose initial strand is `entry`.
    /// Returns the final strand of the frame (after the implicit sync).
    fn run_func(&mut self, f: &Func, entry: SimStrand) -> SimStrand {
        let mut cur = entry;
        // Strands of completed children awaiting the next sync.
        let mut pending: Vec<SimStrand> = Vec::new();
        for stmt in &f.0 {
            match stmt {
                Stmt::Compute(accs) => {
                    self.strand_accesses[cur as usize].extend_from_slice(accs);
                }
                Stmt::Spawn(g) => {
                    let child = self.new_strand();
                    self.edges.push((cur, child));
                    let child_last = self.run_func(g, child);
                    let cont = self.new_strand();
                    self.edges.push((cur, cont));
                    pending.push(child_last);
                    cur = cont;
                }
                Stmt::Sync => {
                    cur = self.do_sync(cur, &mut pending);
                }
                Stmt::Call(g) => {
                    // A serial call shares the caller's strand on entry but
                    // has its own sync scope; its implicit final sync makes
                    // its children precede everything after the call.
                    cur = self.run_func(g, cur);
                }
            }
        }
        self.do_sync(cur, &mut pending)
    }

    fn do_sync(&mut self, cur: SimStrand, pending: &mut Vec<SimStrand>) -> SimStrand {
        if pending.is_empty() {
            return cur; // sync with no outstanding children is a no-op
        }
        let j = self.new_strand();
        self.edges.push((cur, j));
        for c in pending.drain(..) {
            self.edges.push((c, j));
        }
        j
    }
}

/// Unfold `f` into its series-parallel DAG and precompute reachability.
pub fn simulate(f: &Func) -> Sim {
    let mut b = SimBuilder {
        strand_accesses: Vec::new(),
        edges: Vec::new(),
        seq_order: Vec::new(),
    };
    let root = b.new_strand();
    b.run_func(f, root);
    // Transitive closure over the DAG. Strand ids are created in sequential
    // execution order which is a topological order of the DAG, so a single
    // reverse sweep suffices.
    let n = b.strand_accesses.len();
    let wpr = n.div_ceil(64);
    let mut reach = vec![vec![0u64; wpr]; n];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v) in &b.edges {
        assert!(u < v, "edges must go forward in sequential order");
        succs[u as usize].push(v);
    }
    for u in (0..n).rev() {
        // reach[u] = union of succ bits and succ reach sets.
        let mut row = vec![0u64; wpr];
        for &v in &succs[u] {
            row[(v / 64) as usize] |= 1u64 << (v % 64);
            for (r, s) in row.iter_mut().zip(reach[v as usize].iter()) {
                *r |= *s;
            }
        }
        reach[u] = row;
    }
    Sim {
        strand_accesses: b.strand_accesses,
        edges: b.edges,
        seq_order: b.seq_order,
        reach,
    }
}

/// Configuration for the random program generator.
#[derive(Clone, Debug)]
pub struct GenCfg {
    /// Maximum nesting depth of spawned/called functions.
    pub max_depth: u32,
    /// Maximum number of statements per function body.
    pub max_stmts: usize,
    /// Word addresses are drawn from `0..word_space`. Small spaces produce
    /// many conflicts (racy programs); large spaces produce race-free ones.
    pub word_space: u64,
    /// Maximum access length in words.
    pub max_len: u64,
    /// Probability that a statement is a spawn (at depth < max_depth).
    pub p_spawn: f64,
    /// Probability that a statement is a sync.
    pub p_sync: f64,
    /// Probability that a statement is a serial call (at depth < max_depth).
    pub p_call: f64,
    /// Probability an access is a write.
    pub p_write: f64,
    /// Maximum accesses per Compute statement.
    pub max_accesses: usize,
}

impl Default for GenCfg {
    fn default() -> Self {
        GenCfg {
            max_depth: 4,
            max_stmts: 6,
            word_space: 64,
            max_len: 8,
            p_spawn: 0.3,
            p_sync: 0.15,
            p_call: 0.1,
            p_write: 0.4,
            max_accesses: 4,
        }
    }
}

/// Generate a random fork-join program.
pub fn random_func<R: Rng>(rng: &mut R, cfg: &GenCfg) -> Func {
    gen_func(rng, cfg, 0)
}

fn gen_func<R: Rng>(rng: &mut R, cfg: &GenCfg, depth: u32) -> Func {
    let n = rng.random_range(1..=cfg.max_stmts);
    let mut stmts = Vec::with_capacity(n);
    for _ in 0..n {
        let r: f64 = rng.random();
        if depth < cfg.max_depth && r < cfg.p_spawn {
            stmts.push(Stmt::Spawn(gen_func(rng, cfg, depth + 1)));
        } else if r < cfg.p_spawn + cfg.p_sync {
            stmts.push(Stmt::Sync);
        } else if depth < cfg.max_depth && r < cfg.p_spawn + cfg.p_sync + cfg.p_call {
            stmts.push(Stmt::Call(gen_func(rng, cfg, depth + 1)));
        } else {
            let k = rng.random_range(1..=cfg.max_accesses);
            let accs = (0..k)
                .map(|_| {
                    let len = rng.random_range(1..=cfg.max_len);
                    let word = rng.random_range(0..cfg.word_space);
                    Access {
                        write: rng.random_bool(cfg.p_write),
                        word,
                        len,
                        coalesced: rng.random_bool(0.5),
                    }
                })
                .collect();
            stmts.push(Stmt::Compute(accs));
        }
    }
    Func(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn acc(write: bool, word: u64, len: u64) -> Access {
        Access {
            write,
            word,
            len,
            coalesced: false,
        }
    }

    /// spawn { w0 }; w0; sync  — child and continuation race on word 0.
    #[test]
    fn basic_spawn_race() {
        let f = Func(vec![
            Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(true, 0, 1)])])),
            Stmt::Compute(vec![acc(true, 0, 1)]),
            Stmt::Sync,
        ]);
        let sim = simulate(&f);
        assert_eq!(sim.racy_words(), vec![0]);
    }

    /// spawn { w0 }; sync; w0  — no race: sync orders the accesses.
    #[test]
    fn sync_removes_race() {
        let f = Func(vec![
            Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(true, 0, 1)])])),
            Stmt::Sync,
            Stmt::Compute(vec![acc(true, 0, 1)]),
        ]);
        let sim = simulate(&f);
        assert!(sim.racy_words().is_empty());
    }

    /// Two spawned children race with each other.
    #[test]
    fn sibling_race() {
        let f = Func(vec![
            Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(true, 5, 2)])])),
            Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(false, 6, 2)])])),
            Stmt::Sync,
        ]);
        let sim = simulate(&f);
        assert_eq!(sim.racy_words(), vec![6]);
    }

    /// Read-read sharing is not a race.
    #[test]
    fn read_read_is_not_a_race() {
        let f = Func(vec![
            Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(false, 0, 4)])])),
            Stmt::Compute(vec![acc(false, 0, 4)]),
            Stmt::Sync,
        ]);
        assert!(simulate(&f).racy_words().is_empty());
    }

    /// A serial Call's implicit sync orders its children before the caller's
    /// subsequent statements.
    #[test]
    fn call_implicit_sync() {
        let f = Func(vec![
            Stmt::Call(Func(vec![Stmt::Spawn(Func(vec![Stmt::Compute(vec![
                acc(true, 7, 1),
            ])]))])),
            Stmt::Compute(vec![acc(true, 7, 1)]),
        ]);
        assert!(simulate(&f).racy_words().is_empty());
    }

    /// But a Spawn without an intervening sync does race with the caller.
    #[test]
    fn implicit_sync_applies_at_function_end_only() {
        let f = Func(vec![
            Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(true, 7, 1)])])),
            Stmt::Compute(vec![acc(true, 7, 1)]),
            // no sync: implicit one at end of f, after the conflicting access
        ]);
        assert_eq!(simulate(&f).racy_words(), vec![7]);
    }

    #[test]
    fn seq_order_is_topological() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let f = random_func(&mut rng, &GenCfg::default());
            let sim = simulate(&f);
            for &(u, v) in &sim.edges {
                assert!(u < v);
            }
            // Sequential order is just 0..n by construction.
            assert_eq!(
                sim.seq_order,
                (0..sim.strand_count() as u32).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reachability_is_transitive_and_antisymmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let f = random_func(&mut rng, &GenCfg::default());
            let sim = simulate(&f);
            let n = sim.strand_count() as u32;
            for a in 0..n {
                for b in 0..n {
                    if sim.precedes(a, b) {
                        assert!(!sim.precedes(b, a), "antisymmetry violated");
                        for c in 0..n {
                            if sim.precedes(b, c) {
                                assert!(sim.precedes(a, c), "transitivity violated");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nested_spawn_parallelism() {
        // spawn { spawn {A}; B; sync }; C; sync
        // A ∥ B, A ∥ C, B ∥ C.
        let f = Func(vec![
            Stmt::Spawn(Func(vec![
                Stmt::Spawn(Func(vec![Stmt::Compute(vec![acc(true, 1, 1)])])),
                Stmt::Compute(vec![acc(true, 2, 1)]),
                Stmt::Sync,
            ])),
            Stmt::Compute(vec![acc(true, 3, 1)]),
            Stmt::Sync,
        ]);
        let sim = simulate(&f);
        assert!(sim.racy_words().is_empty()); // distinct words: no races
                                              // Find the three strands holding the accesses.
        let find = |w: u64| -> u32 {
            sim.strand_accesses
                .iter()
                .position(|v| v.iter().any(|a| a.word == w))
                .unwrap() as u32
        };
        let (a, b, c) = (find(1), find(2), find(3));
        assert!(sim.parallel(a, b));
        assert!(sim.parallel(a, c));
        assert!(sim.parallel(b, c));
    }
}
