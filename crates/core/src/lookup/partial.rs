//! The partial-compare implementation.

use crate::lookup::Lookup;
use crate::observe::ProbeObserver;
use crate::packed::{LaneCodec, LaneSpec, LaneView};
use crate::set_view::SetView;
use crate::transform::{tag_mask, Improved, TagTransform, XorFold};

/// Which tag transformation a [`PartialCompare`] applies (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Store tags untransformed (Figure 6's "None" line).
    None,
    /// XOR the low-order field into every other field — the simple,
    /// self-inverse transform of §2.2 (Figure 6's "XOR" line).
    XorFold,
    /// The improved lower-triangular transform (Figure 6's "New" line).
    Improved,
    /// No transform, but every slot's partial compare uses the low-order
    /// `k` bits of the tag (the bit-*swap* scheme the paper mentions as
    /// effective but costlier to implement).
    Swap,
}

impl std::fmt::Display for TransformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TransformKind::None => "none",
            TransformKind::XorFold => "xor",
            TransformKind::Improved => "improved",
            TransformKind::Swap => "swap",
        };
        f.write_str(name)
    }
}

/// The partial-compare implementation (§2.2 of the paper).
///
/// Step one reads `k = ⌊t·s/a⌋` bits from each of the `a/s` stored tags of
/// a subset — slot `i` contributes bit-slice `i` of its tag — and compares
/// them against the corresponding slices of the incoming tag in a single
/// probe. Step two serially full-compares only the tags that passed. With
/// `s > 1` subsets the set is partitioned and the two-step sequence runs
/// per subset, trading extra step-one probes for wider (more selective)
/// partial compares.
///
/// Because each slot compares a *different* bit-slice, low-entropy high
/// tag bits cause false matches; the configured [`TransformKind`]
/// randomizes stored tags to counter that.
///
/// Full compares are modelled as exact (a real cache's tags uniquely
/// identify blocks within a set), so the strategy always finds the same
/// block as ground truth; only its probe count varies.
///
/// A one-way set is a direct-mapped lookup: one probe.
///
/// # Example
///
/// ```
/// use seta_core::lookup::{PartialCompare, TransformKind};
/// use seta_core::SetView;
///
/// let p = PartialCompare::new(16, 1, TransformKind::None);
/// // Slot i compares nibble i: only way 2's third nibble matches 0x3333.
/// let view = SetView::from_parts(
///     &[0x1111, 0x2222, 0x3333, 0x4444], &[true; 4], &[0, 1, 2, 3]);
/// let r = p.lookup(&view, 0x3333);
/// assert_eq!(r.hit_way, Some(2));
/// assert_eq!(r.probes, 2); // 1 partial probe + 1 full compare
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialCompare {
    tag_bits: u32,
    subsets: u32,
    transform: TransformKind,
}

impl PartialCompare {
    /// Creates the strategy for `t`-bit stored tags, `s` subsets, and the
    /// given transform.
    ///
    /// # Panics
    ///
    /// Panics if `tag_bits` is 0 or exceeds 64, or `subsets` is 0.
    pub fn new(tag_bits: u32, subsets: u32, transform: TransformKind) -> Self {
        assert!(
            (1..=64).contains(&tag_bits),
            "tag width {tag_bits} out of 1..=64"
        );
        assert!(subsets >= 1, "at least one subset is required");
        PartialCompare {
            tag_bits,
            subsets,
            transform,
        }
    }

    /// Stored-tag width `t`.
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Number of subsets `s`.
    pub fn subsets(&self) -> u32 {
        self.subsets
    }

    /// The transform in force.
    pub fn transform(&self) -> TransformKind {
        self.transform
    }

    /// The partial-compare width `k = ⌊t·s/a⌋` for an `a`-way set.
    ///
    /// # Panics
    ///
    /// Panics if `subsets` does not divide `ways` or if the resulting `k`
    /// would be zero (tag too narrow for that many concurrent compares).
    pub fn k_for(&self, ways: usize) -> u32 {
        assert!(
            (ways as u32) % self.subsets == 0,
            "{} subsets do not divide {} ways",
            self.subsets,
            ways
        );
        let per_subset = ways as u32 / self.subsets;
        let k = self.tag_bits / per_subset;
        assert!(
            k >= 1,
            "{}-bit tags cannot supply {} concurrent partial compares",
            self.tag_bits,
            per_subset
        );
        k
    }

    fn transformed(&self, tag: u64, k: u32) -> u64 {
        let masked = tag & crate::transform::tag_mask(self.tag_bits);
        match self.transform {
            TransformKind::None | TransformKind::Swap => masked,
            TransformKind::XorFold => XorFold::new(self.tag_bits, k).forward(masked),
            TransformKind::Improved => Improved::new(self.tag_bits, k).forward(masked),
        }
    }

    /// The k-bit slice slot `slot` contributes.
    fn slice(&self, transformed_tag: u64, slot: u32, k: u32) -> u64 {
        let shift = match self.transform {
            TransformKind::Swap => 0,
            _ => slot * k,
        };
        (transformed_tag >> shift) & tag_mask(k)
    }

    /// Searches `view` for `tag`: per subset, one step-one partial probe,
    /// then a serial full compare of each tag that passed.
    #[inline]
    pub fn lookup(&self, view: &SetView, tag: u64) -> Lookup {
        self.lookup_swar(view, tag)
    }

    /// The scalar reference search behind [`lookup`](Self::lookup),
    /// reporting every step-one probe and full-compare candidate to `obs`.
    /// Returns exactly what `lookup` returns.
    pub fn lookup_observed<P: ProbeObserver + ?Sized>(
        &self,
        view: &SetView,
        tag: u64,
        obs: &mut P,
    ) -> Lookup {
        let ways = view.ways();
        if ways == 1 {
            obs.tag_probe(0);
            return Lookup {
                hit_way: view.matching_way(tag),
                probes: 1,
            };
        }
        let k = self.k_for(ways);
        let per_subset = ways / self.subsets as usize;
        let incoming = self.transformed(tag, k);

        let mut probes = 0u32;
        let mut hit_way = None;
        'subsets: for subset in 0..self.subsets as usize {
            probes += 1; // step one: the concurrent partial compare
            obs.partial_probe(subset as u32);
            for slot in 0..per_subset {
                let w = subset * per_subset + slot;
                if !view.is_valid(w) {
                    continue;
                }
                let stored = self.transformed(view.tag(w), k);
                if self.slice(stored, slot as u32, k) != self.slice(incoming, slot as u32, k) {
                    continue; // failed the partial compare: never examined again
                }
                // Step two: serial full compare of this partial matcher.
                probes += 1;
                let matched = view.tag(w) == tag;
                obs.partial_candidate(w as u8, matched);
                if matched {
                    hit_way = Some(w as u8);
                    break 'subsets;
                }
            }
        }
        Lookup { hit_way, probes }
    }

    /// The packed-lane geometry this strategy induces on an `a`-way cache,
    /// if one exists (see [`LaneSpec::try_new`]). A cache that maintains
    /// [`PackedLanes`](crate::PackedLanes) under this spec lets
    /// [`lookup_packed`](Self::lookup_packed) skip the per-lookup packing.
    pub fn lane_spec(&self, ways: usize) -> Option<LaneSpec> {
        LaneSpec::try_new(self.tag_bits, self.subsets, self.transform, ways as u32)
    }

    /// Probe- and result-identical to `lookup_observed`, evaluated with SWAR: every
    /// slot's step-one slice compare lands in one XOR + zero-field detect
    /// per subset (see [`crate::packed`]). The lane words are packed here
    /// from the view (still branch-free per way); callers that maintain
    /// lanes incrementally use [`lookup_packed`](Self::lookup_packed) and
    /// skip both the packing and the per-lookup codec construction.
    fn lookup_swar(&self, view: &SetView, tag: u64) -> Lookup {
        let ways = view.ways();
        if ways == 1 {
            return Lookup {
                hit_way: view.matching_way(tag),
                probes: 1,
            };
        }
        let k = self.k_for(ways); // same panics as the scalar path
        let n = ways as u32 / self.subsets;
        let codec = LaneCodec::new(self.tag_bits, k, n, self.transform);
        let tags = view.tags();
        let mut words = [0u64; crate::set_view::MAX_ASSOC];
        for (subset, word) in words[..self.subsets as usize].iter_mut().enumerate() {
            let base = subset * n as usize;
            let mut packed = 0u64;
            for slot in 0..n as usize {
                packed |= codec.store_field(tags[base + slot], slot as u32);
            }
            *word = packed;
        }
        codec.swar_lookup(
            &words[..self.subsets as usize],
            tags,
            view.valid_mask(),
            tag,
        )
    }

    /// [`lookup`](Self::lookup) against lane words a cache keeps
    /// incrementally (see [`crate::PackedLanes`]) — the packing loop
    /// disappears entirely from the per-access cost.
    ///
    /// The caller must pass lanes whose [`spec`](LaneView::spec) equals
    /// [`lane_spec`](Self::lane_spec) for this view's associativity;
    /// debug builds assert it, and assert the words are coherent with the
    /// view's tags.
    #[inline]
    pub fn lookup_packed(&self, view: &SetView, lanes: &LaneView<'_>, tag: u64) -> Lookup {
        debug_assert_eq!(
            Some(lanes.spec()),
            self.lane_spec(view.ways()),
            "lane spec does not match strategy/view geometry"
        );
        #[cfg(debug_assertions)]
        {
            let codec = lanes.spec().codec();
            let n = lanes.spec().per_subset() as usize;
            for (subset, &word) in lanes.words().iter().enumerate() {
                let mut expect = 0u64;
                for slot in 0..n {
                    expect |= codec.store_field(view.tag(subset * n + slot), slot as u32);
                }
                debug_assert_eq!(
                    word, expect,
                    "lane word {subset} is stale for this view's tags"
                );
            }
        }
        lanes
            .codec
            .swar_lookup(lanes.words, view.tags(), view.valid_mask(), tag)
    }

    /// Short name for reports, e.g. `"partial[t=16,s=1,xor]"`.
    pub fn name(&self) -> String {
        format!(
            "partial[t={},s={},{}]",
            self.tag_bits, self.subsets, self.transform
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(subsets: u32) -> PartialCompare {
        PartialCompare::new(16, subsets, TransformKind::None)
    }

    #[test]
    fn k_matches_paper_formula() {
        // t=16: a=4,s=1 → k=4; a=8,s=1 → k=2; a=8,s=2 → k=4; a=16,s=4 → k=4.
        assert_eq!(plain(1).k_for(4), 4);
        assert_eq!(plain(1).k_for(8), 2);
        assert_eq!(plain(2).k_for(8), 4);
        assert_eq!(plain(4).k_for(16), 4);
        // t=32: a=16,s=2 → k=4; a=4,s=1 → k=8.
        let wide = PartialCompare::new(32, 2, TransformKind::None);
        assert_eq!(wide.k_for(16), 4);
        let wide = PartialCompare::new(32, 1, TransformKind::None);
        assert_eq!(wide.k_for(4), 8);
    }

    #[test]
    fn hit_with_no_false_matches_costs_two() {
        let view =
            SetView::from_parts(&[0x1111, 0x2222, 0x3333, 0x4444], &[true; 4], &[0, 1, 2, 3]);
        let r = plain(1).lookup(&view, 0x3333);
        assert_eq!(r.hit_way, Some(2));
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn false_matches_cost_extra_full_compares() {
        // Incoming 0x4321: slot 0 reads nibble 0, slot 1 nibble 1, etc.
        // Every stored tag partially matches its own slot.
        let view =
            SetView::from_parts(&[0x0001, 0x0020, 0x0300, 0x4000], &[true; 4], &[0, 1, 2, 3]);
        let r = plain(1).lookup(&view, 0x4321);
        assert_eq!(r.hit_way, None);
        assert_eq!(r.probes, 1 + 4, "one partial probe + four false matches");
    }

    #[test]
    fn miss_with_no_partial_matches_costs_one_per_subset() {
        let view =
            SetView::from_parts(&[0x1111, 0x2222, 0x3333, 0x4444], &[true; 4], &[0, 1, 2, 3]);
        assert_eq!(plain(1).lookup(&view, 0x5555).probes, 1);
        assert_eq!(plain(2).lookup(&view, 0x5555).probes, 2);
        assert_eq!(plain(4).lookup(&view, 0x5555).probes, 4);
    }

    #[test]
    fn search_stops_at_the_hit_subset() {
        // 4 ways, 2 subsets: hit in the first subset never probes the second.
        let view =
            SetView::from_parts(&[0x00AA, 0x00BB, 0x00CC, 0x00DD], &[true; 4], &[0, 1, 2, 3]);
        // k = 16*2/4 = 8. Subset 0 slots use bytes 0 and 1.
        let r = plain(2).lookup(&view, 0x00AA);
        assert_eq!(r.hit_way, Some(0));
        assert_eq!(r.probes, 2); // subset-0 partial + full compare
    }

    #[test]
    fn hit_in_second_subset_pays_first_subset_probes() {
        let view =
            SetView::from_parts(&[0x00AA, 0x00BB, 0x00CC, 0x00DD], &[true; 4], &[0, 1, 2, 3]);
        let r = plain(2).lookup(&view, 0x00CC);
        assert_eq!(r.hit_way, Some(2));
        // Subset 0: partial probe (slot0: AA vs CC ✗; slot1 compares byte 1:
        // stored 0x00BB byte1=0x00, incoming byte1=0x00 ✓ → 1 false match).
        // Subset 1: partial probe + hit full compare.
        assert_eq!(r.probes, 1 + 1 + 1 + 1);
    }

    #[test]
    fn invalid_frames_never_partial_match() {
        let view = SetView::from_parts(&[0x0001, 0x0001], &[false, true], &[0, 1]);
        // k=8; slot 0 reads byte 0 (0x01 == 0x01) but way 0 is invalid.
        let r = plain(1).lookup(&view, 0x0001);
        assert_eq!(r.hit_way, Some(1));
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn swap_compares_low_bits_everywhere() {
        let p = PartialCompare::new(16, 1, TransformKind::Swap);
        // k=4 for 4 ways; all slots compare nibble 0.
        let view =
            SetView::from_parts(&[0x1235, 0x4565, 0x7895, 0x0005], &[true; 4], &[0, 1, 2, 3]);
        // Incoming ends in 5 → every way partial-matches.
        let r = p.lookup(&view, 0xAAA5);
        assert_eq!(r.probes, 1 + 4);
        // Incoming ends in 6 → nothing partial-matches.
        let r = p.lookup(&view, 0xAAA6);
        assert_eq!(r.probes, 1);
    }

    #[test]
    fn transforms_preserve_hits() {
        for kind in [
            TransformKind::None,
            TransformKind::XorFold,
            TransformKind::Improved,
            TransformKind::Swap,
        ] {
            let p = PartialCompare::new(16, 1, kind);
            let view =
                SetView::from_parts(&[0xBEE1, 0xBEE2, 0xBEE3, 0xBEE4], &[true; 4], &[0, 1, 2, 3]);
            for (w, tag) in [(0u8, 0xBEE1u64), (1, 0xBEE2), (2, 0xBEE3), (3, 0xBEE4)] {
                assert_eq!(p.lookup(&view, tag).hit_way, Some(w), "{kind}");
            }
            assert_eq!(p.lookup(&view, 0xBEE5).hit_way, None, "{kind}");
        }
    }

    #[test]
    fn xor_fold_reduces_false_matches_on_correlated_tags() {
        // Tags sharing high-order bits (the virtual-address pathology):
        // without a transform, slots 1..3 all compare identical high slices.
        let tags = [0xABC0u64, 0xABC1, 0xABC2, 0xABC3];
        let view = SetView::from_parts(&tags, &[true; 4], &[0, 1, 2, 3]);
        let incoming = 0xABC4; // same high bits, different low nibble → miss
        let none = PartialCompare::new(16, 1, TransformKind::None)
            .lookup(&view, incoming)
            .probes;
        let xor = PartialCompare::new(16, 1, TransformKind::XorFold)
            .lookup(&view, incoming)
            .probes;
        // None: slots 1-3 partial-match (identical slices) → 1 + 3 probes.
        assert_eq!(none, 4);
        // XorFold spreads the differing low nibble into every slice → no
        // false matches.
        assert_eq!(xor, 1);
    }

    #[test]
    fn one_way_set_is_direct_mapped() {
        let p = plain(1);
        let view = SetView::from_parts(&[7], &[true], &[0]);
        assert_eq!(p.lookup(&view, 7).probes, 1);
        assert_eq!(p.lookup(&view, 8).probes, 1);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn subsets_must_divide_ways() {
        let view = SetView::from_parts(&[1, 2, 3, 4, 5, 6], &[true; 6], &[0, 1, 2, 3, 4, 5]);
        plain(4).lookup(&view, 1);
    }

    #[test]
    #[should_panic(expected = "cannot supply")]
    fn too_narrow_tags_panic() {
        let p = PartialCompare::new(8, 1, TransformKind::None);
        let tags: Vec<u64> = (0..16).collect();
        let valid = vec![true; 16];
        let order: Vec<u8> = (0..16).collect();
        let view = SetView::from_parts(&tags, &valid, &order);
        p.lookup(&view, 0); // k = 8/16 = 0
    }

    #[test]
    fn name_encodes_configuration() {
        assert_eq!(
            PartialCompare::new(32, 2, TransformKind::Improved).name(),
            "partial[t=32,s=2,improved]"
        );
    }
}
