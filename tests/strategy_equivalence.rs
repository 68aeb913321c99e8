//! Cross-crate invariants: every lookup implementation sees the same cache
//! behaviour; only the probes differ.

use seta::cache::CacheConfig;
use seta::core::lookup::{Mru, Naive, PartialCompare, StrategyKind, Traditional, TransformKind};
use seta::sim::runner::{simulate, standard_strategies};
use seta::trace::gen::{AtumLike, AtumLikeConfig};

fn workload() -> AtumLike {
    let mut cfg = AtumLikeConfig::paper_like();
    cfg.segments = 2;
    cfg.refs_per_segment = 40_000;
    AtumLike::new(cfg, 2026)
}

fn wide_strategy_set(assoc: u32) -> Vec<StrategyKind> {
    let mut v = vec![
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
        StrategyKind::Mru(Mru::truncated(1)),
        StrategyKind::Mru(Mru::truncated(2)),
    ];
    for kind in [
        TransformKind::None,
        TransformKind::XorFold,
        TransformKind::Improved,
        TransformKind::Swap,
    ] {
        v.push(StrategyKind::Partial(PartialCompare::new(16, 1, kind)));
        if assoc >= 2 {
            v.push(StrategyKind::Partial(PartialCompare::new(32, 2, kind)));
        }
    }
    v
}

#[test]
fn every_strategy_scores_identical_requests() {
    for assoc in [2u32, 4, 8] {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
        let l2 = CacheConfig::new(32 * 1024, 32, assoc).expect("valid L2");
        let out = simulate(l1, l2, workload(), &wide_strategy_set(assoc));
        let h = &out.hierarchy;
        for s in &out.strategies {
            assert_eq!(s.probes.hits.count, h.read_in_hits, "{} a={assoc}", s.name);
            assert_eq!(
                s.probes.misses.count,
                h.read_ins - h.read_in_hits,
                "{} a={assoc}",
                s.name
            );
            assert_eq!(s.probes.write_backs.count, h.write_backs, "{}", s.name);
        }
    }
}

#[test]
fn probe_totals_respect_strategy_bounds() {
    let assoc = 8u32;
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(32 * 1024, 32, assoc).expect("valid L2");
    let out = simulate(l1, l2, workload(), &wide_strategy_set(assoc));
    for s in &out.strategies {
        let hit = s.probes.hit_mean();
        let miss = s.probes.miss_mean();
        match s.name.as_str() {
            "traditional" => {
                assert_eq!(hit, 1.0);
                assert_eq!(miss, 1.0);
            }
            "naive" => {
                assert!(hit >= 1.0 && hit <= assoc as f64);
                assert_eq!(miss, assoc as f64);
            }
            name if name.starts_with("mru") => {
                assert!(hit >= 2.0 && hit <= assoc as f64 + 1.0, "{name}: {hit}");
                assert_eq!(miss, assoc as f64 + 1.0, "{name}");
            }
            name if name.starts_with("partial") => {
                assert!(hit >= 2.0, "{name}: {hit}");
                assert!(miss >= 1.0 && miss <= 2.0 + assoc as f64, "{name}: {miss}");
            }
            other => panic!("unexpected strategy {other}"),
        }
    }
}

#[test]
fn truncated_mru_lists_interpolate_between_full_and_worst() {
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(32 * 1024, 32, 8).expect("valid L2");
    let out = simulate(l1, l2, workload(), &wide_strategy_set(8));
    let full = out.strategy("mru").expect("full mru").probes.hit_mean();
    let l1_list = out.strategy("mru[1]").expect("mru[1]").probes.hit_mean();
    let l2_list = out.strategy("mru[2]").expect("mru[2]").probes.hit_mean();
    assert!(full <= l2_list + 1e-9, "full {full} vs list-2 {l2_list}");
    assert!(
        l2_list <= l1_list + 1e-9,
        "list-2 {l2_list} vs list-1 {l1_list}"
    );
}

#[test]
fn better_transforms_never_cost_more_probes() {
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(32 * 1024, 32, 4).expect("valid L2");
    let out = simulate(l1, l2, workload(), &wide_strategy_set(4));
    let total = |name: &str| {
        out.strategy(name)
            .unwrap_or_else(|| panic!("{name} present"))
            .probes
            .total_mean()
    };
    let none = total("partial[t=16,s=1,none]");
    let xor = total("partial[t=16,s=1,xor]");
    let improved = total("partial[t=16,s=1,improved]");
    assert!(xor <= none + 1e-9, "xor {xor} vs none {none}");
    assert!(
        improved <= none + 1e-9,
        "improved {improved} vs none {none}"
    );
}

#[test]
fn wider_tags_reduce_partial_probes() {
    // Figure 6's left-graph headline: 32-bit tags beat 16-bit tags for the
    // partial scheme (wider k, fewer false matches).
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(32 * 1024, 32, 8).expect("valid L2");
    let strategies = [
        StrategyKind::Partial(PartialCompare::new(16, 2, TransformKind::Improved)),
        StrategyKind::Partial(PartialCompare::new(32, 2, TransformKind::Improved)),
    ];
    let out = simulate(l1, l2, workload(), &strategies);
    let narrow = out.strategies[0].probes.total_mean();
    let wide = out.strategies[1].probes.total_mean();
    assert!(wide <= narrow + 1e-9, "t=32 {wide} vs t=16 {narrow}");
}

#[test]
fn standard_strategy_totals_order_like_figure3() {
    // At a=8 with the calibrated workload: naive > mru > partial > traditional.
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(32 * 1024, 32, 8).expect("valid L2");
    let out = simulate(l1, l2, workload(), &standard_strategies(8, 16));
    let totals: Vec<f64> = out
        .strategies
        .iter()
        .map(|s| s.probes.total_mean())
        .collect();
    let (trad, naive, mru, partial) = (totals[0], totals[1], totals[2], totals[3]);
    assert!(trad < partial, "traditional {trad} vs partial {partial}");
    assert!(partial < mru, "partial {partial} vs mru {mru}");
    assert!(mru < naive, "mru {mru} vs naive {naive}");
}
