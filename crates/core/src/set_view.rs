//! The input to a lookup: a borrowed view of one cache set.

use std::fmt;

/// Maximum associativity a [`SetView`] can hold.
///
/// A view is a borrowed view of a set's stored tags and recency order
/// plus its valid bits as one `u32` mask, so 32 is the number of bits in
/// that mask. The paper studies associativities up to 16.
pub const MAX_ASSOC: usize = 32;

/// One cache set as a lookup strategy sees it at the start of a cache
/// access: stored tags, valid bits, and the MRU order.
///
/// The view borrows the tags and the order from wherever the set lives
/// (a cache's set-major tag array, a test's local arrays), so building
/// one copies nothing and allocates nothing; the valid bits travel as a
/// mask. Bit `w` of the mask describes way `w`.
///
/// Stored tags are full-width (`u64`). A correctly functioning cache's tags
/// uniquely identify blocks within a set, so *full* compares against a
/// `SetView` are exact; the narrower stored-tag widths the paper studies
/// (16 and 32 bits) matter only to the *partial*-compare strategy, which
/// extracts its k-bit slices from a configured `t`-bit window (see
/// [`PartialCompare`](crate::lookup::PartialCompare)).
///
/// # Example
///
/// ```
/// use seta_core::SetView;
///
/// let view = SetView::from_parts(&[10, 20], &[true, false], &[1, 0]);
/// assert_eq!(view.ways(), 2);
/// assert!(view.is_valid(0));
/// assert!(!view.is_valid(1));
/// assert_eq!(view.order(), &[1, 0]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SetView<'a> {
    tags: &'a [u64],
    valid: u32,
    order: &'a [u8],
}

impl<'a> SetView<'a> {
    /// Builds a view from parallel slices: `tags[w]` and `valid[w]` describe
    /// way `w`, and `order` lists ways most-recently-used first.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length, exceed [`MAX_ASSOC`], are
    /// empty, or if `order` is not a permutation of the ways.
    pub fn from_parts(tags: &'a [u64], valid: &[bool], order: &'a [u8]) -> Self {
        check_shape(tags, order);
        assert_eq!(valid.len(), tags.len(), "valid mask length mismatch");
        SetView {
            tags,
            valid: mask_of(valid),
            order,
        }
    }

    /// [`from_parts`](Self::from_parts) for callers that already guarantee
    /// the invariants — equal slice lengths in `1..=MAX_ASSOC` and `order`
    /// a permutation of the ways. Skips the validation on release builds;
    /// debug builds still check everything.
    pub fn from_trusted_parts(tags: &'a [u64], valid: &[bool], order: &'a [u8]) -> Self {
        #[cfg(debug_assertions)]
        {
            Self::from_parts(tags, valid, order)
        }
        #[cfg(not(debug_assertions))]
        {
            SetView {
                tags,
                valid: mask_of(valid),
                order,
            }
        }
    }

    /// A view over a set stored as a tag row plus a valid bitmask (bit
    /// `w` set iff way `w` holds a block), as a cache keeps it. The
    /// caller vouches for the invariants of
    /// [`from_parts`](Self::from_parts) and for `valid` naming only ways
    /// of the set; debug builds check them, release builds do not.
    #[inline]
    pub fn from_mask(tags: &'a [u64], valid: u32, order: &'a [u8]) -> Self {
        #[cfg(debug_assertions)]
        {
            check_shape(tags, order);
            assert!(
                tags.len() == MAX_ASSOC || valid >> tags.len() == 0,
                "valid mask {valid:#x} names a way beyond {}",
                tags.len()
            );
        }
        SetView { tags, valid, order }
    }

    /// Number of ways in the set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.tags.len()
    }

    /// Stored tag of way `w` (meaningful only if [`is_valid`](Self::is_valid)).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn tag(&self, w: usize) -> u64 {
        assert!(w < self.ways(), "way {w} out of range");
        self.tags[w]
    }

    /// Whether way `w` holds a block.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn is_valid(&self, w: usize) -> bool {
        assert!(w < self.ways(), "way {w} out of range");
        self.valid & (1 << w) != 0
    }

    /// All stored tags as a slice (`tags()[w]` is meaningful only when the
    /// corresponding [`valid_mask`](Self::valid_mask) bit is set).
    #[inline]
    pub fn tags(&self) -> &'a [u64] {
        self.tags
    }

    /// The MRU order: way indices, most-recently-used first.
    #[inline]
    pub fn order(&self) -> &'a [u8] {
        self.order
    }

    /// Bitmask of valid ways: bit `w` set iff way `w` holds a block.
    #[inline]
    pub fn valid_mask(&self) -> u32 {
        self.valid
    }

    /// Whole-set equality bitmask: bit `w` set iff way `w` is valid and its
    /// stored tag equals `tag` — [`tag_eq_mask`] restricted to valid ways,
    /// the branchless core of the fast lookup paths.
    #[inline]
    pub fn eq_mask(&self, tag: u64) -> u32 {
        tag_eq_mask(self.tags, tag) & self.valid
    }

    /// The way whose valid stored tag equals `tag`, if any. This is ground
    /// truth — what an oracle with free parallel compare would find.
    #[inline]
    pub fn matching_way(&self, tag: u64) -> Option<u8> {
        (0..self.ways())
            .find(|&w| self.is_valid(w) && self.tags[w] == tag)
            .map(|w| w as u8)
    }
}

/// Row equality bitmask: bit `w` set iff `tags[w] == tag`, for a row of
/// at most [`MAX_ASSOC`] stored tags. One pass of data-parallel compares
/// over contiguous tags with no early exit, so the compiler is free to
/// vectorize it; a cache finds its hit way with the same compare.
#[inline]
pub fn tag_eq_mask(tags: &[u64], tag: u64) -> u32 {
    let mut m = 0u32;
    for (w, &t) in tags.iter().enumerate() {
        m |= u32::from(t == tag) << w;
    }
    m
}

/// The checks every constructor shares: `1..=MAX_ASSOC` ways and `order`
/// a permutation of them.
fn check_shape(tags: &[u64], order: &[u8]) {
    let ways = tags.len();
    assert!(ways > 0, "a set has at least one way");
    assert!(
        ways <= MAX_ASSOC,
        "associativity {ways} exceeds MAX_ASSOC {MAX_ASSOC}"
    );
    assert_eq!(order.len(), ways, "order length mismatch");
    let mut seen = 0u32;
    for &w in order {
        assert!((w as usize) < ways, "order names way {w} of {ways}");
        assert!(seen & (1 << w) == 0, "order repeats way {w}");
        seen |= 1 << w;
    }
}

/// Packs per-way valid flags into a mask, bit `w` for way `w`.
fn mask_of(valid: &[bool]) -> u32 {
    valid
        .iter()
        .enumerate()
        .fold(0, |m, (w, &v)| m | (u32::from(v) << w))
}

impl fmt::Debug for SetView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SetView");
        d.field("ways", &self.ways());
        let tags: Vec<Option<u64>> = (0..self.ways())
            .map(|w| self.is_valid(w).then(|| self.tags[w]))
            .collect();
        d.field("tags", &tags);
        d.field("order", &self.order());
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let v = SetView::from_parts(&[1, 2, 3, 4], &[true, false, true, false], &[3, 1, 0, 2]);
        assert_eq!(v.ways(), 4);
        assert_eq!(v.tag(2), 3);
        assert!(v.is_valid(0));
        assert!(!v.is_valid(3));
        assert_eq!(v.order(), &[3, 1, 0, 2]);
    }

    #[test]
    fn matching_way_ignores_invalid() {
        let v = SetView::from_parts(&[9, 9], &[false, true], &[0, 1]);
        assert_eq!(v.matching_way(9), Some(1));
        assert_eq!(v.matching_way(8), None);
    }

    #[test]
    fn single_way_view() {
        let v = SetView::from_parts(&[42], &[true], &[0]);
        assert_eq!(v.ways(), 1);
        assert_eq!(v.matching_way(42), Some(0));
    }

    #[test]
    fn max_assoc_is_supported() {
        let tags: Vec<u64> = (0..MAX_ASSOC as u64).collect();
        let valid = vec![true; MAX_ASSOC];
        let order: Vec<u8> = (0..MAX_ASSOC as u8).rev().collect();
        let v = SetView::from_parts(&tags, &valid, &order);
        assert_eq!(
            v.matching_way(MAX_ASSOC as u64 - 1),
            Some(MAX_ASSOC as u8 - 1)
        );
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_view_panics() {
        SetView::from_parts(&[], &[], &[]);
    }

    #[test]
    #[should_panic(expected = "MAX_ASSOC")]
    fn oversized_view_panics() {
        let tags = vec![0u64; MAX_ASSOC + 1];
        let valid = vec![true; MAX_ASSOC + 1];
        let order: Vec<u8> = (0..=MAX_ASSOC as u8).collect();
        SetView::from_parts(&tags, &valid, &order);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn duplicate_order_panics() {
        SetView::from_parts(&[1, 2], &[true, true], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "names way")]
    fn out_of_range_order_panics() {
        SetView::from_parts(&[1, 2], &[true, true], &[0, 2]);
    }

    #[test]
    fn trusted_parts_match_checked_constructor() {
        let tags = [1u64, 2, 3, 4];
        let valid = [true, false, true, true];
        let order = [3u8, 1, 0, 2];
        let checked = SetView::from_parts(&tags, &valid, &order);
        let trusted = SetView::from_trusted_parts(&tags, &valid, &order);
        assert_eq!(checked.ways(), trusted.ways());
        assert_eq!(checked.order(), trusted.order());
        for w in 0..4 {
            assert_eq!(checked.is_valid(w), trusted.is_valid(w));
            assert_eq!(checked.tag(w), trusted.tag(w));
        }
    }

    #[test]
    fn mask_constructor_matches_checked_constructor() {
        let tags = [1u64, 2, 3, 4];
        let order = [3u8, 1, 0, 2];
        let checked = SetView::from_parts(&tags, &[true, false, true, true], &order);
        assert_eq!(SetView::from_mask(&tags, 0b1101, &order), checked);
        assert_eq!(checked.valid_mask(), 0b1101);
    }

    #[test]
    fn full_width_mask_covers_every_way() {
        let tags: Vec<u64> = (0..MAX_ASSOC as u64).collect();
        let order: Vec<u8> = (0..MAX_ASSOC as u8).collect();
        let v = SetView::from_mask(&tags, u32::MAX, &order);
        assert!(v.is_valid(MAX_ASSOC - 1));
        assert_eq!(v.eq_mask(MAX_ASSOC as u64 - 1), 1 << (MAX_ASSOC - 1));
        assert_eq!(v, SetView::from_parts(&tags, &[true; MAX_ASSOC], &order));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "names a way beyond")]
    fn mask_naming_a_missing_way_panics_in_debug() {
        SetView::from_mask(&[1, 2], 0b100, &[0, 1]);
    }

    #[test]
    fn debug_shows_invalid_ways_as_none() {
        let v = SetView::from_parts(&[7, 8], &[true, false], &[0, 1]);
        let s = format!("{v:?}");
        assert!(s.contains("Some(7)"), "{s}");
        assert!(s.contains("None"), "{s}");
    }
}
