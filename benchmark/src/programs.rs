//! The programs the tiers run: suite kernels at fixed sizes, and the
//! benchmark-owned scatter generator.
//!
//! `--seed` feeds the scatter generator and the serve mix shuffle only; suite
//! kernels keep their fixed constructor seeds, so their work is the same on
//! every run.

use stint::{Cilk, CilkProgram};
use stint_spdag::{Access, Func, Stmt};
use stint_suite::{chol::Chol, heat::Heat, mmul::Mmul, sort::Sort, Scale, Workload};

/// A suite kernel at a fixed size. Kernels mutate their data in place, so a
/// pass builds a fresh instance per run.
#[derive(Clone, Copy)]
pub struct Kernel {
    pub name: &'static str,
    pub make: fn() -> Workload,
}

/// ≥90% of events are single-word plain hooks; the treap is nearly idle.
pub const LIVE_WORDS: [Kernel; 4] = [
    Kernel {
        name: "mmul",
        make: || Workload::by_name("mmul", Scale::S),
    },
    Kernel {
        name: "straz",
        make: || Workload::by_name("straz", Scale::S),
    },
    Kernel {
        name: "sort",
        make: || Workload::by_name("sort", Scale::S),
    },
    Kernel {
        name: "fft",
        make: || Workload::by_name("fft", Scale::S),
    },
];

/// The paper's best case: ~6e8 words arrive in ~1e6 range hooks. The grids
/// are 8 MiB each, not the paper's 32 MiB: on the reference box a pass over
/// the larger working set follows the neighbours' memory traffic (run-to-run
/// spread 7.9% against 3.0%).
pub const LIVE_RANGES: [Kernel; 2] = [
    Kernel {
        name: "heat",
        make: || Workload::Heat(Heat::new(1024, 1024, 40, 10, 2)),
    },
    Kernel {
        name: "chol",
        make: || Workload::Chol(Chol::new(768, 16, 6)),
    },
];

/// Streamed replay inputs: three clean kernels and one seeded bug.
pub const REPLAY_STREAM: [Kernel; 4] = [
    Kernel {
        name: "mmul",
        make: || Workload::Mmul(Mmul::new(128, 32, 1)),
    },
    Kernel {
        name: "sort",
        make: || Workload::Sort(Sort::new(100_000, 2048, 3)),
    },
    Kernel {
        name: "fft",
        make: || Workload::by_name("fft", Scale::S),
    },
    Kernel {
        name: "buggy-mmul",
        make: || Workload::by_name("buggy-mmul", Scale::S),
    },
];

/// Live inputs of the online tier: the two word-hook kernels of `live_words`
/// at the `replay_stream` sizes.
pub const ONLINE_W2: [Kernel; 2] = [REPLAY_STREAM[0], REPLAY_STREAM[1]];

/// Serve payload sources, by traffic class.
pub const SERVE_CLEAN_V2: Kernel = Kernel {
    name: "sort",
    make: || Workload::Sort(Sort::new(6_000, 512, 3)),
};
pub const SERVE_RACY_V2: [Kernel; 2] = [
    Kernel {
        name: "buggy-mmul",
        make: || Workload::by_name("buggy-mmul", Scale::S),
    },
    Kernel {
        name: "buggy-merge",
        make: || Workload::by_name("buggy-merge", Scale::S),
    },
];
pub const SERVE_CLEAN_V1: Kernel = Kernel {
    name: "chol",
    make: || Workload::by_name("chol", Scale::Test),
};

/// Shape of one scatter program.
#[derive(Clone, Copy, Debug)]
pub struct ScatterCfg {
    /// Depth of the binary spawn tree; `2^depth` leaves.
    pub depth: u32,
    /// One-word accesses per leaf per round.
    pub per_leaf: usize,
    /// Words of each leaf's private region.
    pub region_words: u64,
    /// Share of a leaf's accesses that are loads from the shared table, in
    /// percent; the rest are private stores.
    pub read_pct: u64,
    /// Words of the shared, never-written table the loads draw from.
    pub table_words: u64,
    /// Racy sibling pairs planted in round one.
    pub planted: usize,
}

impl ScatterCfg {
    /// Treap-bound write regime: every store lands on an even word offset of
    /// the leaf's private region, so nothing coalesces and every store is an
    /// interval; two serial rounds make round two trim round one's intervals.
    pub const WRITES: ScatterCfg = ScatterCfg {
        depth: 12,
        per_leaf: 128,
        region_words: 512,
        read_pct: 0,
        table_words: 0,
        planted: 64,
    };
    /// Read side of the same layer: parallel readers of the same shared
    /// words exercise `insert_read` left-of splitting and the reach cache.
    pub const READS: ScatterCfg = ScatterCfg {
        read_pct: 90,
        table_words: 1 << 16,
        ..ScatterCfg::WRITES
    };

    /// The same construction rule at a size the brute-force oracle can unfold.
    pub fn reduced(self) -> ScatterCfg {
        ScatterCfg {
            depth: 4,
            per_leaf: 12,
            region_words: 48,
            table_words: self.table_words.min(64),
            planted: 4,
            ..self
        }
    }

    pub fn leaves(&self) -> u64 {
        1 << self.depth
    }
}

const ROUNDS: u64 = 2;
/// First word of leaf 0's region (synthetic addresses: no real memory backs
/// a scatter program, so its word addresses are the same on every run).
const BASE_WORD: u64 = 1 << 22;

/// A generated scatter program and the racy words planted in it.
pub struct Scatter {
    pub func: Func,
    /// Sorted. One word per planted sibling pair; nothing else races.
    pub planted: Vec<u64>,
}

/// splitmix64 — the benchmark's only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `k` distinct values of `0..n` in random order (partial Fisher–Yates).
fn sample(rng: &mut Rng, n: u64, k: usize) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

fn one_word(write: bool, word: u64) -> Access {
    Access {
        write,
        word,
        len: 1,
        coalesced: false,
    }
}

/// Build the scatter program for `cfg` from `seed`.
///
/// Two serial rounds of a binary spawn tree. In each round every leaf makes
/// `per_leaf` one-word accesses: private stores at distinct *even* offsets of
/// its own region, and (reads regime) loads at even offsets of a shared table
/// no strand writes. Private regions are disjoint and the table is read-only,
/// so the only races are the planted ones: for each chosen sibling pair the
/// left leaf stores an *odd* offset of its region in round one (a word no
/// regular access touches) and its right sibling stores (writes regime) or
/// loads (reads regime) the same word.
pub fn scatter(cfg: ScatterCfg, seed: u64) -> Scatter {
    assert!(cfg.per_leaf as u64 <= cfg.region_words / 2 && cfg.planted as u64 <= cfg.leaves() / 2);
    let mut rng = Rng(seed ^ 0x5ca7_7e12);
    let leaves = cfg.leaves();
    let table = BASE_WORD + leaves * cfg.region_words + 1024;
    let region = |leaf: u64| BASE_WORD + leaf * cfg.region_words;

    let mut plant = vec![None; leaves as usize];
    let mut planted = Vec::with_capacity(cfg.planted);
    for pair in sample(&mut rng, leaves / 2, cfg.planted) {
        let word = region(2 * pair) + 2 * rng.below(cfg.region_words / 2) + 1;
        plant[2 * pair as usize] = Some(one_word(true, word));
        plant[2 * pair as usize + 1] = Some(one_word(cfg.read_pct == 0, word));
        planted.push(word);
    }
    planted.sort_unstable();

    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        let mut level: Vec<Func> = (0..leaves)
            .map(|leaf| {
                let offsets = sample(&mut rng, cfg.region_words / 2, cfg.per_leaf);
                let mut accs: Vec<Access> = offsets
                    .into_iter()
                    .map(|o| {
                        if rng.below(100) < cfg.read_pct {
                            one_word(false, table + 2 * rng.below(cfg.table_words / 2))
                        } else {
                            one_word(true, region(leaf) + 2 * o)
                        }
                    })
                    .collect();
                if round == 0 {
                    accs.extend(plant[leaf as usize]);
                }
                Func(vec![Stmt::Compute(accs)])
            })
            .collect();
        while level.len() > 1 {
            let mut it = level.into_iter();
            let mut up = Vec::new();
            while let (Some(l), Some(r)) = (it.next(), it.next()) {
                up.push(Func(vec![Stmt::Spawn(l), Stmt::Spawn(r), Stmt::Sync]));
            }
            level = up;
        }
        rounds.push(Stmt::Call(level.pop().expect("at least one leaf")));
    }
    Scatter {
        func: Func(rounds),
        planted,
    }
}

/// Interpret a [`Func`] on a [`Cilk`] context, one hook per access.
fn walk<C: Cilk>(f: &Func, ctx: &mut C) {
    for stmt in &f.0 {
        match stmt {
            Stmt::Compute(accs) => {
                for a in accs {
                    let (addr, bytes) = ((a.word * 4) as usize, (a.len * 4) as usize);
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

/// One runnable program of a pass: a fresh suite kernel or a scatter AST.
pub enum Prog<'a> {
    Suite(Workload),
    Ast(&'a Func),
}

impl CilkProgram for Prog<'_> {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        match self {
            Prog::Suite(w) => w.run(ctx),
            Prog::Ast(f) => walk(f, ctx),
        }
    }
}

impl Prog<'_> {
    /// Check the computation's own output (suite kernels; a scatter program
    /// computes nothing).
    pub fn verify(&self) -> Result<(), String> {
        match self {
            Prog::Suite(w) => w.verify(),
            Prog::Ast(_) => Ok(()),
        }
    }
}

/// What a sequential tier runs each pass.
pub enum Source {
    Kernels(&'static [Kernel]),
    Scatter(Scatter),
}

impl Source {
    /// Fresh programs for one pass, each with its name and the racy words it
    /// must report (sorted; empty for the race-free suite kernels).
    pub fn instantiate(&self) -> Vec<(&'static str, Prog<'_>, &[u64])> {
        match self {
            Source::Kernels(ks) => ks
                .iter()
                .map(|k| (k.name, Prog::Suite((k.make)()), &[][..]))
                .collect(),
            Source::Scatter(s) => vec![("scatter", Prog::Ast(&s.func), &s.planted[..])],
        }
    }
}
