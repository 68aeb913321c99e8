//! The analytical model of §2 (Table 1) against trace-driven measurement.
//!
//! The closed forms assume independent uniformly-distributed tags. A
//! uniform-random reference stream satisfies that, so simulation under it
//! must converge to the formulas — the strongest end-to-end check that the
//! probe accounting in `seta-core` + `seta-cache` + `seta-sim` implements
//! exactly the arithmetic the paper analyzes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seta::cache::CacheConfig;
use seta::core::lookup::{Mru, Naive, PartialCompare, StrategyKind, Traditional, TransformKind};
use seta::core::model;
use seta::sim::runner::simulate;
use seta::trace::{TraceEvent, TraceRecord};

/// The independent-reference model over a pool of random blocks drawn from
/// a huge (2^48-byte) address space: every reference picks a pool block
/// uniformly. The huge space makes the stored tags uniform across all 32+
/// tag bits — the assumption behind the partial-compare formulas — while
/// the bounded pool still produces cache hits.
fn random_trace(n: usize, pool_blocks: usize, seed: u64) -> Vec<TraceEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<u64> = (0..pool_blocks)
        .map(|_| rng.gen_range(0u64..(1 << 48)) & !15)
        .collect();
    (0..n)
        .map(|_| TraceEvent::Ref(TraceRecord::read(pool[rng.gen_range(0..pool.len())])))
        .collect()
}

fn strategies(t: u32, s: u32) -> Vec<StrategyKind> {
    vec![
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
        StrategyKind::Partial(PartialCompare::new(t, s, TransformKind::None)),
    ]
}

/// Runs random references through a tiny pass-through L1 into the L2 under
/// test, so virtually every reference reaches the L2.
fn run_random(assoc: u32, t: u32, s: u32) -> seta::sim::RunOutcome {
    let l1 = CacheConfig::direct_mapped(64, 16).expect("valid L1");
    let l2 = CacheConfig::new(16 * 1024, 16, assoc).expect("valid L2");
    // A pool 2x the L2's 1024 block frames gives a healthy hit/miss mix.
    let trace = random_trace(150_000, 2048, 99);
    simulate(l1, l2, trace, &strategies(t, s))
}

#[test]
fn traditional_measures_exactly_one() {
    let out = run_random(4, 16, 1);
    let t = &out.strategies[0].probes;
    assert_eq!(t.hit_mean(), 1.0);
    assert_eq!(t.miss_mean(), 1.0);
}

#[test]
fn naive_converges_to_table1() {
    for assoc in [2u32, 4, 8] {
        let out = run_random(assoc, 16, 1);
        let n = &out.strategies[1].probes;
        assert_eq!(n.miss_mean(), model::naive_miss(assoc), "a={assoc}");
        let predicted = model::naive_hit(assoc);
        assert!(
            (n.hit_mean() - predicted).abs() < 0.12,
            "a={assoc}: measured {} vs predicted {predicted}",
            n.hit_mean()
        );
    }
}

#[test]
fn mru_miss_is_exactly_a_plus_one() {
    for assoc in [2u32, 4, 8] {
        let out = run_random(assoc, 16, 1);
        assert_eq!(
            out.strategies[2].probes.miss_mean(),
            model::mru_miss(assoc),
            "a={assoc}"
        );
    }
}

#[test]
fn mru_hit_matches_measured_distance_distribution() {
    let out = run_random(4, 16, 1);
    let measured = out.strategies[2].probes.hit_mean();
    let implied = model::mru_hit(&out.mru_hist.distribution());
    assert!(
        (measured - implied).abs() < 1e-9,
        "measured {measured} vs distribution-implied {implied}"
    );
}

#[test]
fn partial_converges_to_table1_without_subsets() {
    for (assoc, t) in [(4u32, 16u32), (8, 16), (4, 32)] {
        let k = model::partial_k(t, assoc, 1);
        let out = run_random(assoc, t, 1);
        let p = &out.strategies[3].probes;
        let hit = model::partial_hit(assoc, k, 1);
        let miss = model::partial_miss(assoc, k, 1);
        assert!(
            (p.hit_mean() - hit).abs() < 0.12,
            "a={assoc} t={t}: hit {} vs {hit}",
            p.hit_mean()
        );
        assert!(
            (p.miss_mean() - miss).abs() < 0.12,
            "a={assoc} t={t}: miss {} vs {miss}",
            p.miss_mean()
        );
    }
}

#[test]
fn partial_converges_to_table1_with_subsets() {
    // a=8, s=2, t=16 → k=4: the paper's flagship subset configuration.
    let out = run_random(8, 16, 2);
    let p = &out.strategies[3].probes;
    let hit = model::partial_hit(8, 4, 2);
    let miss = model::partial_miss(8, 4, 2);
    assert!(
        (p.hit_mean() - hit).abs() < 0.12,
        "hit {} vs {hit}",
        p.hit_mean()
    );
    assert!(
        (p.miss_mean() - miss).abs() < 0.12,
        "miss {} vs {miss}",
        p.miss_mean()
    );
}

#[test]
fn subsets_trade_hits_for_misses_as_predicted() {
    // Going 1 → 2 subsets at a=8, t=16 must cut miss cost (3.0 → 2.5)
    // while the hit change stays small — the Table 1 note.
    let one = run_random(8, 16, 1);
    let two = run_random(8, 16, 2);
    let m1 = one.strategies[3].probes.miss_mean();
    let m2 = two.strategies[3].probes.miss_mean();
    assert!(m2 < m1, "misses: s=2 {m2} should beat s=1 {m1}");
}

#[test]
fn uniform_random_references_have_uniform_frame_positions() {
    // Sanity check of the experimental setup itself: with no locality, hit
    // positions in frame order are uniform, which is what makes the naive
    // formula exact. Verify via the naive/traditional probe ratio.
    let out = run_random(4, 16, 1);
    let naive = &out.strategies[1].probes;
    let spread = naive.hit_mean() - 1.0; // mean scan depth beyond the first
    assert!(
        (spread - 1.5).abs() < 0.12,
        "mean extra scan depth {spread} should be (a-1)/2 = 1.5"
    );
}
