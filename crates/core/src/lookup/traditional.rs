//! The traditional parallel implementation.

use crate::lookup::Lookup;
use crate::observe::ProbeObserver;
use crate::set_view::SetView;

/// The traditional implementation: all `a` stored tags are read from an
/// `a×t`-bit-wide tag memory and compared by `a` comparators in parallel —
/// one probe whether the lookup hits or misses.
///
/// This is the expensive baseline every low-cost scheme is measured
/// against (Figure 1a of the paper).
///
/// # Example
///
/// ```
/// use seta_core::lookup::Traditional;
/// use seta_core::SetView;
///
/// let view = SetView::from_parts(&[5, 6], &[true, true], &[0, 1]);
/// assert_eq!(Traditional.lookup(&view, 6).probes, 1);
/// assert_eq!(Traditional.lookup(&view, 7).probes, 1); // misses also cost 1
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traditional;

impl Traditional {
    /// Searches `view` for `tag`: one probe, hit or miss.
    #[inline]
    pub fn lookup(&self, view: &SetView, tag: u64) -> Lookup {
        // Branchless fast path: the whole-set equality bitmask plays the
        // role of the hardware's parallel comparators; `lookup_observed`
        // stays as the scalar reference.
        let m = view.eq_mask(tag);
        Lookup {
            hit_way: (m != 0).then(|| m.trailing_zeros() as u8),
            probes: 1,
        }
    }

    /// The scalar reference search behind [`lookup`](Self::lookup),
    /// reporting its single wide probe to `obs`. Returns exactly what
    /// `lookup` returns.
    pub fn lookup_observed<P: ProbeObserver + ?Sized>(
        &self,
        view: &SetView,
        tag: u64,
        obs: &mut P,
    ) -> Lookup {
        // The whole set is read and compared in a single wide probe.
        obs.group_probe(0, view.ways() as u8);
        Lookup {
            hit_way: view.matching_way(tag),
            probes: 1,
        }
    }

    /// Short name for reports: `"traditional"`.
    pub fn name(&self) -> String {
        "traditional".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_one_probe() {
        let view = SetView::from_parts(&[1, 2, 3, 4], &[true; 4], &[0, 1, 2, 3]);
        for tag in 0u64..8 {
            assert_eq!(Traditional.lookup(&view, tag).probes, 1);
        }
    }

    #[test]
    fn finds_the_right_way() {
        let view = SetView::from_parts(&[1, 2, 3, 4], &[true; 4], &[3, 2, 1, 0]);
        assert_eq!(Traditional.lookup(&view, 3).hit_way, Some(2));
        assert_eq!(Traditional.lookup(&view, 9).hit_way, None);
    }

    #[test]
    fn invalid_ways_do_not_hit() {
        let view = SetView::from_parts(&[7, 7], &[false, true], &[0, 1]);
        assert_eq!(Traditional.lookup(&view, 7).hit_way, Some(1));
    }
}
