//! Property tests pinning the branchless/SWAR fast paths to the scalar
//! reference implementation.
//!
//! Every built-in strategy keeps its original scalar search as
//! `lookup_observed`; the un-instrumented `lookup` runs the rewritten
//! fast path. These tests drive both over the same inputs — ways 1..=32,
//! tag widths 1..=64, all four `TransformKind`s, full and truncated MRU
//! lists — and require bit-identical `(hit_way, probes)` results, plus the
//! same again for `PartialCompare::lookup_packed` against incrementally
//! maintainable lane words, and for `StrategyKind::lookup_lanes`, which
//! decides between the two.

use proptest::prelude::*;
use seta_core::lookup::{
    Banked, Mru, Naive, PartialCompare, ScanOrder, StrategyKind, Traditional, TransformKind,
};
use seta_core::packed::{LaneSpec, PackedLanes};
use seta_core::{SetView, MAX_ASSOC};

/// The scalar reference: `lookup_observed` with a no-op observer runs the
/// retained pre-rewrite search loop in every built-in strategy.
fn scalar(strategy: &StrategyKind, view: &SetView, tag: u64) -> seta_core::Lookup {
    strategy.lookup_observed(view, tag, &mut ())
}

fn transform(idx: u64) -> TransformKind {
    [
        TransformKind::None,
        TransformKind::XorFold,
        TransformKind::Improved,
        TransformKind::Swap,
    ][(idx % 4) as usize]
}

/// Builds a `ways`-way snapshot from oversized raw material, with a
/// pseudo-random MRU permutation, plus a probe tag that points at a stored
/// (possibly invalid, possibly duplicated) tag about half the time.
fn build_case(
    ways: usize,
    tags: &[u64],
    valid: &[bool],
    seed: u64,
    pick: usize,
    raw_tag: u64,
) -> (SetView, u64) {
    let tags = &tags[..ways];
    let valid = &valid[..ways];
    let mut order: Vec<u8> = (0..ways as u8).collect();
    let mut s = seed;
    for i in (1..ways).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    let tag = if pick == 0 {
        raw_tag
    } else {
        tags[(pick - 1) % ways]
    };
    (SetView::from_parts(tags, valid, &order), tag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn whole_set_strategies_match_scalar(
        ways in 1usize..=MAX_ASSOC,
        tags in proptest::collection::vec(any::<u64>(), MAX_ASSOC),
        valid in proptest::collection::vec(any::<bool>(), MAX_ASSOC),
        seed in any::<u64>(),
        pick in 0usize..=MAX_ASSOC,
        raw_tag in any::<u64>(),
        mru_len in 0usize..=40,
        banks in 1u32..=9,
        mru_banks in any::<bool>(),
    ) {
        let (view, tag) = build_case(ways, &tags, &valid, seed, pick, raw_tag);
        let mru = match mru_len {
            0 => Mru::full(),
            l => Mru::truncated(l),
        };
        let banked = Banked::new(
            banks,
            if mru_banks { ScanOrder::Mru } else { ScanOrder::Frame },
        );
        let strategies = [
            StrategyKind::Traditional(Traditional),
            StrategyKind::Naive(Naive),
            StrategyKind::Mru(mru),
            StrategyKind::Banked(banked),
        ];
        for s in &strategies {
            prop_assert_eq!(
                s.lookup(&view, tag),
                scalar(s, &view, tag),
                "{} fast path diverged from scalar reference (ways={})",
                s.name(),
                ways
            );
        }
    }

    #[test]
    fn partial_compare_swar_matches_scalar(
        ways in 1usize..=MAX_ASSOC,
        tags in proptest::collection::vec(any::<u64>(), MAX_ASSOC),
        valid in proptest::collection::vec(any::<bool>(), MAX_ASSOC),
        seed in any::<u64>(),
        pick in 0usize..=MAX_ASSOC,
        raw_tag in any::<u64>(),
        transform_idx in any::<u64>(),
        subsets_sel in any::<u64>(),
        width_sel in any::<u64>(),
    ) {
        let (view, tag) = build_case(ways, &tags, &valid, seed, pick, raw_tag);
        let divisors: Vec<u32> =
            (1..=ways as u32).filter(|d| ways as u32 % d == 0).collect();
        let subsets = divisors[(subsets_sel % divisors.len() as u64) as usize];
        // Any width in per_subset..=64 keeps k ≥ 1; the low end exercises
        // k = 1, and subsets == ways exercises k all the way up to 64.
        let per_subset = ways as u64 / subsets as u64;
        let tag_bits = (per_subset + width_sel % (64 - per_subset + 1)) as u32;
        let kind = transform(transform_idx);
        let p = PartialCompare::new(tag_bits, subsets, kind);

        let fast = p.lookup(&view, tag);
        prop_assert_eq!(
            fast,
            p.lookup_observed(&view, tag, &mut ()),
            "SWAR path diverged (t={}, s={}, {:?}, ways={})",
            tag_bits, subsets, kind, ways
        );

        // The cache-maintained packed path must agree too. rebuild_set is
        // proven equivalent to incremental on_fill in the packed module's
        // unit tests.
        if let Some(spec) = p.lane_spec(ways) {
            let mut lanes = PackedLanes::new(spec, 1);
            lanes.rebuild_set(0, view.tags());
            prop_assert_eq!(
                p.lookup_packed(&view, &lanes.view(0), tag),
                fast,
                "packed-lane path diverged (t={}, s={}, {:?}, ways={})",
                tag_bits, subsets, kind, ways
            );
        }
    }

    /// `lookup_lanes` equals `lookup` for every variant whether it is
    /// handed lanes packed under the strategy's own spec (the partial
    /// compare reads them), lanes packed under another spec (it must fall
    /// back, not misread them), or no lanes at all.
    #[test]
    fn lookup_lanes_matches_lookup_for_every_variant(
        log_ways in 1u32..=5,
        tags in proptest::collection::vec(any::<u64>(), MAX_ASSOC),
        valid in proptest::collection::vec(any::<bool>(), MAX_ASSOC),
        seed in any::<u64>(),
        pick in 0usize..=MAX_ASSOC,
        raw_tag in any::<u64>(),
        transform_idx in any::<u64>(),
        subsets_sel in any::<u32>(),
        other_transform in any::<bool>(),
    ) {
        let ways = 1usize << log_ways;
        let (view, tag) = build_case(ways, &tags, &valid, seed, pick, raw_tag);
        // 32-bit tags keep k >= 1 for every power-of-two subset count.
        let subsets = 1u32 << (subsets_sel % (log_ways + 1));
        let kind = transform(transform_idx);
        let own = PartialCompare::new(32, subsets, kind);
        // A different spec: another subset count, or another transform.
        let other = if other_transform {
            PartialCompare::new(32, subsets, transform(transform_idx + 1))
        } else {
            PartialCompare::new(32, if subsets == 1 { 2 } else { subsets / 2 }, kind)
        };
        let strategies = [
            StrategyKind::Traditional(Traditional),
            StrategyKind::Naive(Naive),
            StrategyKind::Mru(Mru::full()),
            StrategyKind::Mru(Mru::truncated(2)),
            StrategyKind::Partial(own),
            StrategyKind::Banked(Banked::new(2, ScanOrder::Mru)),
        ];
        let lanes_for = |spec: Option<LaneSpec>| {
            spec.map(|spec| {
                let mut lanes = PackedLanes::new(spec, 1);
                lanes.rebuild_set(0, view.tags());
                lanes
            })
        };
        let own_lanes = lanes_for(own.lane_spec(ways));
        let other_lanes = lanes_for(other.lane_spec(ways));
        prop_assert!(ways == 1 || own_lanes.is_some(), "own spec realizable at ways={}", ways);
        if let (Some(a), Some(b)) = (&own_lanes, &other_lanes) {
            prop_assert_ne!(a.spec(), b.spec());
        }
        for s in &strategies {
            let plain = s.lookup(&view, tag);
            for (case, lanes) in [("own", &own_lanes), ("other", &other_lanes), ("none", &None)] {
                prop_assert_eq!(
                    s.lookup_lanes(&view, lanes.as_ref().map(|l| l.view(0)), tag),
                    plain,
                    "{} with {} lanes (ways={})",
                    s.name(),
                    case,
                    ways
                );
            }
        }
    }
}
