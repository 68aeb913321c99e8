//! The four implementations of set-associative lookup.
//!
//! Each strategy prices a search of one cache set in **probes** — the
//! paper's cost unit, one tag-memory read-and-compare. All strategies find
//! exactly the same block (hit/miss behaviour is a property of cache
//! *contents*, not of the lookup implementation); they differ only in how
//! many probes the search costs:
//!
//! * [`Traditional`] — all tags read and compared in parallel: 1 probe
//!   always, but needs an `a×t`-wide tag memory and `a` comparators.
//! * [`Naive`] — direct-mapped-style hardware, tags scanned serially in
//!   frame order.
//! * [`Mru`] — tags scanned serially in most-recently-used order, after one
//!   extra probe to read the per-set MRU list. Supports the paper's
//!   reduced-length MRU lists (Figure 5).
//! * [`PartialCompare`] — one probe compares a k-bit slice of every tag at
//!   once; only tags that pass are full-compared serially. Supports
//!   subsets and tag transformations (§2.2, Figure 6).
//! * [`Banked`] — the `b×t`-wide middle ground the paper's §1 mentions but
//!   does not evaluate: `b` tags read and compared per probe, in frame or
//!   MRU order.
//!
//! A one-way set is a direct-mapped lookup; every strategy prices it at
//! one probe, which is where the curves of Figure 3 converge.
//!
//! [`StrategyKind`] is the closed set of these five: the one strategy type
//! the simulator, the experiments and the concurrent cache take.

mod banked;
mod mru;
mod naive;
mod partial;
mod traditional;

pub use banked::{Banked, ScanOrder};
pub use mru::Mru;
pub use naive::Naive;
pub use partial::{PartialCompare, TransformKind};
pub use traditional::Traditional;

use crate::observe::ProbeObserver;
use crate::packed::{LaneSpec, LaneView};
use crate::set_view::SetView;

/// Result of pricing one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The way where the block was found, or `None` for a miss.
    pub hit_way: Option<u8>,
    /// Number of probes the search cost.
    pub probes: u32,
}

impl Lookup {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        self.hit_way.is_some()
    }
}

/// The built-in lookup implementations as a closed enum — the one
/// strategy type the simulator, the experiments and the concurrent cache
/// all take.
///
/// Each variant wraps its strategy's configuration. Dispatch is one jump
/// table whose arms inline fully, so the per-access loops keep the
/// branchless fast paths; a new lookup method is one more variant and one
/// more arm in each match below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// [`Traditional`] parallel lookup.
    Traditional(Traditional),
    /// [`Naive`] frame-order serial lookup.
    Naive(Naive),
    /// [`Mru`] serial lookup (full or truncated list).
    Mru(Mru),
    /// [`PartialCompare`] two-step lookup.
    Partial(PartialCompare),
    /// [`Banked`] grouped serial lookup.
    Banked(Banked),
}

impl StrategyKind {
    /// Searches `view` for `tag`, returning where it was found and how many
    /// probes the search cost.
    ///
    /// `tag` is the full-width incoming tag; strategies that model narrow
    /// stored tags (e.g. [`PartialCompare`]) extract the bits they need.
    #[inline]
    pub fn lookup(&self, view: &SetView, tag: u64) -> Lookup {
        match self {
            StrategyKind::Traditional(s) => s.lookup(view, tag),
            StrategyKind::Naive(s) => s.lookup(view, tag),
            StrategyKind::Mru(s) => s.lookup(view, tag),
            StrategyKind::Partial(s) => s.lookup(view, tag),
            StrategyKind::Banked(s) => s.lookup(view, tag),
        }
    }

    /// [`lookup`](Self::lookup) through the strategy's scalar reference
    /// search, with a [`ProbeObserver`] receiving the micro-events behind
    /// the probe count (ways scanned, MRU-list reads, partial-compare
    /// candidates and false matches).
    ///
    /// Returns exactly what `lookup` returns: observation never changes
    /// the search. The observer type is generic, so a concrete recorder
    /// monomorphizes its event hooks into the search loop.
    #[inline]
    pub fn lookup_observed<P: ProbeObserver + ?Sized>(
        &self,
        view: &SetView,
        tag: u64,
        obs: &mut P,
    ) -> Lookup {
        match self {
            StrategyKind::Traditional(s) => s.lookup_observed(view, tag, obs),
            StrategyKind::Naive(s) => s.lookup_observed(view, tag, obs),
            StrategyKind::Mru(s) => s.lookup_observed(view, tag, obs),
            StrategyKind::Partial(s) => s.lookup_observed(view, tag, obs),
            StrategyKind::Banked(s) => s.lookup_observed(view, tag, obs),
        }
    }

    /// The packed-lane geometry this strategy reads on an `a`-way cache:
    /// [`PartialCompare::lane_spec`] for a partial compare, `None` for
    /// every strategy that compares whole tags. A cache that maintains
    /// [`PackedLanes`](crate::PackedLanes) under this spec lets
    /// [`lookup_lanes`](Self::lookup_lanes) skip the per-lookup packing.
    pub fn lane_spec(&self, ways: usize) -> Option<LaneSpec> {
        match self {
            StrategyKind::Partial(p) => p.lane_spec(ways),
            _ => None,
        }
    }

    /// [`lookup`](Self::lookup), reading cache-maintained packed lanes
    /// when they fit: a partial compare whose
    /// [`lane_spec`](Self::lane_spec) for this view equals the lanes' spec
    /// runs [`PartialCompare::lookup_packed`]. Every other case — another
    /// strategy, lanes packed under a different spec, or no lanes — falls
    /// back to `lookup`. The result is identical either way.
    #[inline]
    pub fn lookup_lanes(&self, view: &SetView, lanes: Option<LaneView<'_>>, tag: u64) -> Lookup {
        match (self, lanes) {
            // `lane_spec(ways) == Some(spec)` field by field, skipping the
            // divisions that validate a spec: any existing spec is valid.
            (StrategyKind::Partial(p), Some(l))
                if l.spec().ways() as usize == view.ways()
                    && l.spec().tag_bits() == p.tag_bits()
                    && l.spec().subsets() == p.subsets()
                    && l.spec().transform() == p.transform() =>
            {
                p.lookup_packed(view, &l, tag)
            }
            _ => self.lookup(view, tag),
        }
    }

    /// Short name for reports, e.g. `"mru"` or `"partial[t=16,s=1,xor]"`.
    pub fn name(&self) -> String {
        match self {
            StrategyKind::Traditional(s) => s.name(),
            StrategyKind::Naive(s) => s.name(),
            StrategyKind::Mru(s) => s.name(),
            StrategyKind::Partial(s) => s.name(),
            StrategyKind::Banked(s) => s.name(),
        }
    }

    /// Always `Some(*self)`. Kept only for the standalone benchmark
    /// package, whose `perfbench/src/layers.rs` still resolves each
    /// `standard_strategies` element through it; delete it with that
    /// caller.
    #[doc(hidden)]
    pub fn kind(&self) -> Option<StrategyKind> {
        Some(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Counts every observer event; the implied probe total must equal the
    /// [`Lookup`]'s probe count for every strategy.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct EventCount {
        tag_probes: u32,
        group_probes: u32,
        list_reads: u32,
        partial_probes: u32,
        candidates: u32,
        false_matches: u32,
    }

    impl EventCount {
        fn implied_probes(&self) -> u32 {
            self.tag_probes
                + self.group_probes
                + self.list_reads
                + self.partial_probes
                + self.candidates
        }
    }

    impl ProbeObserver for EventCount {
        fn tag_probe(&mut self, _way: u8) {
            self.tag_probes += 1;
        }
        fn group_probe(&mut self, _group: u32, _ways: u8) {
            self.group_probes += 1;
        }
        fn mru_list_read(&mut self) {
            self.list_reads += 1;
        }
        fn partial_probe(&mut self, _subset: u32) {
            self.partial_probes += 1;
        }
        fn partial_candidate(&mut self, _way: u8, matched: bool) {
            self.candidates += 1;
            if !matched {
                self.false_matches += 1;
            }
        }
    }

    fn all_strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Traditional(Traditional),
            StrategyKind::Naive(Naive),
            StrategyKind::Mru(Mru::full()),
            StrategyKind::Mru(Mru::truncated(2)),
            StrategyKind::Partial(PartialCompare::new(16, 1, TransformKind::XorFold)),
            StrategyKind::Partial(PartialCompare::new(16, 2, TransformKind::Improved)),
            StrategyKind::Partial(PartialCompare::new(32, 1, TransformKind::None)),
            StrategyKind::Partial(PartialCompare::new(16, 1, TransformKind::Swap)),
            StrategyKind::Banked(Banked::new(2, ScanOrder::Frame)),
            StrategyKind::Banked(Banked::new(4, ScanOrder::Mru)),
        ]
    }

    proptest! {
        /// Every strategy agrees with ground truth on WHERE the block is —
        /// they only differ in probes.
        #[test]
        fn strategies_agree_with_oracle(
            tags in proptest::collection::vec(0u64..0x10000, 8),
            valid in proptest::collection::vec(any::<bool>(), 8),
            probe_tag in 0u64..0x10000,
            seed in any::<u64>(),
        ) {
            // Derive a pseudo-random permutation for the MRU order.
            let mut order: Vec<u8> = (0..8).collect();
            let mut s = seed;
            for i in (1..8usize).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            // Make tags unique per set (cache invariant).
            let mut tags = tags;
            for (i, t) in tags.iter_mut().enumerate() {
                *t = (*t << 3) | i as u64;
            }
            let view = SetView::from_parts(&tags, &valid, &order);
            let oracle = view.matching_way(probe_tag);
            for strat in all_strategies() {
                let r = strat.lookup(&view, probe_tag);
                prop_assert_eq!(
                    r.hit_way, oracle,
                    "{} disagrees with oracle", strat.name()
                );
                prop_assert!(r.probes >= 1, "{} claims a free lookup", strat.name());
            }
        }

        /// Observation is free of side effects: `lookup_observed` returns
        /// exactly what `lookup` returns, and the emitted events account
        /// for every probe charged.
        #[test]
        fn observed_lookup_matches_and_events_account_for_probes(
            tags in proptest::collection::vec(0u64..0x10000, 8),
            valid in proptest::collection::vec(any::<bool>(), 8),
            probe_tag in 0u64..0x10000,
        ) {
            let mut tags = tags;
            for (i, t) in tags.iter_mut().enumerate() {
                *t = (*t << 3) | i as u64;
            }
            let order: Vec<u8> = [5, 2, 7, 0, 3, 6, 1, 4].to_vec();
            let view = SetView::from_parts(&tags, &valid, &order);
            for strat in all_strategies() {
                let plain = strat.lookup(&view, probe_tag);
                let mut events = EventCount::default();
                let observed = strat.lookup_observed(&view, probe_tag, &mut events);
                prop_assert_eq!(plain, observed, "{} changed under observation", strat.name());
                prop_assert_eq!(
                    events.implied_probes(),
                    plain.probes,
                    "{} events {:?} do not account for the probes",
                    strat.name(),
                    events
                );
                // A hit's final candidate matched; every earlier one was false.
                if plain.is_hit() && events.candidates > 0 {
                    prop_assert_eq!(events.false_matches, events.candidates - 1);
                } else {
                    prop_assert_eq!(events.false_matches, events.candidates);
                }
            }
        }

        /// Probe counts respect the paper's per-strategy bounds.
        #[test]
        fn probe_bounds_hold(
            tags in proptest::collection::vec(0u64..0x10000, 8),
            probe_tag in 0u64..0x10000,
        ) {
            let mut tags = tags;
            for (i, t) in tags.iter_mut().enumerate() {
                *t = (*t << 3) | i as u64;
            }
            let order: Vec<u8> = (0..8).collect();
            let view = SetView::from_parts(&tags, &[true; 8], &order);
            let a = 8u32;

            let r = Traditional.lookup(&view, probe_tag);
            prop_assert_eq!(r.probes, 1);

            let r = Naive.lookup(&view, probe_tag);
            if r.is_hit() {
                prop_assert!(r.probes >= 1 && r.probes <= a);
            } else {
                prop_assert_eq!(r.probes, a);
            }

            let r = Mru::full().lookup(&view, probe_tag);
            if r.is_hit() {
                prop_assert!(r.probes >= 2 && r.probes <= a + 1);
            } else {
                prop_assert_eq!(r.probes, a + 1);
            }

            for s in [1u32, 2, 4] {
                let p = PartialCompare::new(16, s, TransformKind::Improved);
                let r = p.lookup(&view, probe_tag);
                if r.is_hit() {
                    // At least one partial probe + the matching full compare.
                    prop_assert!(r.probes >= 2, "subsets={s}");
                    prop_assert!(r.probes <= s + a, "subsets={s}");
                } else {
                    prop_assert!(r.probes >= s && r.probes <= s + a, "subsets={s}");
                }
            }
        }
    }
}
