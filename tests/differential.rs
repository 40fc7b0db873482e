//! End-to-end differential sweeps of the whole detection pipeline: seeded
//! random fork-join programs (dense address spaces, so plenty of real races)
//! report the brute-force all-pairs oracle's racy words under all five
//! detector variants (the harness's live tier). One sweep exercises the
//! executor's strand management, SP-Order maintenance, the per-word
//! protocol, the bit-shadow coalescer and both interval stores.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stint_spdag::{random_func, simulate, GenCfg};

mod common;
use common::{check, live};

fn sweep(seed: u64, rounds: usize, cfg: &GenCfg) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut racy = 0usize;
    for _ in 0..rounds {
        let f = random_func(&mut rng, cfg);
        if simulate(&f).strand_count() > 300 {
            continue;
        }
        let words = check(&f, 0, &live()).unwrap_or_else(|e| panic!("{f:?}: {e:?}"));
        racy += !words.is_empty() as usize;
    }
    assert!(
        racy > rounds / 10,
        "generator produced too few racy programs ({racy}/{rounds}) — test is too weak"
    );
}

/// The default generator over `0..word_space` words, up to `max_len` words
/// an access.
fn words(word_space: u64, max_len: u64) -> GenCfg {
    let mut cfg = GenCfg::default();
    (cfg.word_space, cfg.max_len) = (word_space, max_len);
    cfg
}

#[test]
fn dense_random_programs_match_oracle() {
    sweep(0xD15EA5E, 200, &words(48, 12));
}

#[test]
fn wide_random_programs_match_oracle() {
    let mut cfg = words(32, 16);
    (cfg.max_depth, cfg.max_stmts, cfg.p_spawn, cfg.p_sync) = (2, 10, 0.45, 0.2);
    sweep(0xFACADE, 150, &cfg);
}

#[test]
fn deep_random_programs_match_oracle() {
    let mut cfg = words(64, 24);
    (cfg.max_depth, cfg.max_stmts, cfg.p_spawn, cfg.p_sync) = (7, 4, 0.5, 0.25);
    sweep(0xBADC0DE, 150, &cfg);
}

#[test]
fn mostly_reads_programs_match_oracle() {
    let cfg = GenCfg {
        p_write: 0.12,
        ..words(40, 20)
    };
    sweep(0x5EEDED, 150, &cfg);
}

#[test]
fn mostly_writes_programs_match_oracle() {
    let cfg = GenCfg {
        p_write: 0.9,
        ..words(40, 20)
    };
    sweep(0x33C0DE, 150, &cfg);
}
