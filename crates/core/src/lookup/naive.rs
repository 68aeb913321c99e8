//! The naive serial implementation.

use crate::lookup::Lookup;
use crate::observe::ProbeObserver;
use crate::set_view::SetView;

/// The naive serial implementation (Figure 1b of the paper): the stored
/// tags of the set are read one at a time from a `t`-bit-wide tag memory,
/// in frame order, until a match is found or the set is exhausted.
///
/// On average a hit costs `(a−1)/2 + 1` probes (each resident tag is
/// equally likely to hold the block); a miss always costs `a`.
///
/// # Example
///
/// ```
/// use seta_core::lookup::Naive;
/// use seta_core::SetView;
///
/// let view = SetView::from_parts(&[5, 6, 7, 8], &[true; 4], &[0, 1, 2, 3]);
/// assert_eq!(Naive.lookup(&view, 7).probes, 3); // ways 0, 1, 2 scanned
/// assert_eq!(Naive.lookup(&view, 9).probes, 4); // miss: all 4 scanned
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Naive;

impl Naive {
    /// The scalar reference search behind [`lookup`](Self::lookup),
    /// reporting every way it scans to `obs`. Returns exactly what
    /// `lookup` returns.
    pub fn lookup_observed<P: ProbeObserver + ?Sized>(
        &self,
        view: &SetView,
        tag: u64,
        obs: &mut P,
    ) -> Lookup {
        for w in 0..view.ways() {
            obs.tag_probe(w as u8);
            if view.is_valid(w) && view.tag(w) == tag {
                return Lookup {
                    hit_way: Some(w as u8),
                    probes: w as u32 + 1,
                };
            }
        }
        Lookup {
            hit_way: None,
            probes: view.ways() as u32,
        }
    }

    /// Searches `view` for `tag` in frame order.
    pub fn lookup(&self, view: &SetView, tag: u64) -> Lookup {
        // An early-exit frame-order scan beats a whole-set equality mask
        // here: hits cluster at low scan positions, so the serial loop
        // touches ~half the ways on average while the mask always pays
        // for all of them. This is the walk of `lookup_observed` minus
        // the observer calls.
        for w in 0..view.ways() {
            if view.is_valid(w) && view.tag(w) == tag {
                return Lookup {
                    hit_way: Some(w as u8),
                    probes: w as u32 + 1,
                };
            }
        }
        Lookup {
            hit_way: None,
            probes: view.ways() as u32,
        }
    }

    /// Short name for reports: `"naive"`.
    pub fn name(&self) -> String {
        "naive".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_equal_scan_position() {
        let view = SetView::from_parts(&[10, 11, 12, 13], &[true; 4], &[0, 1, 2, 3]);
        for (i, tag) in [10u64, 11, 12, 13].iter().enumerate() {
            let r = Naive.lookup(&view, *tag);
            assert_eq!(r.hit_way, Some(i as u8));
            assert_eq!(r.probes, i as u32 + 1);
        }
    }

    #[test]
    fn miss_scans_whole_set() {
        let view = SetView::from_parts(&[10, 11], &[true, true], &[0, 1]);
        let r = Naive.lookup(&view, 99);
        assert_eq!(r.hit_way, None);
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn invalid_frames_are_still_probed() {
        // Way 0 is invalid but its frame must still be read in a serial scan.
        let view = SetView::from_parts(&[99, 7], &[false, true], &[0, 1]);
        let r = Naive.lookup(&view, 7);
        assert_eq!(r.hit_way, Some(1));
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn one_way_set_is_direct_mapped() {
        let view = SetView::from_parts(&[3], &[true], &[0]);
        assert_eq!(Naive.lookup(&view, 3).probes, 1);
        assert_eq!(Naive.lookup(&view, 4).probes, 1);
    }

    #[test]
    fn scan_order_ignores_mru() {
        // MRU order is reversed; naive must still scan in frame order.
        let view = SetView::from_parts(&[10, 11, 12, 13], &[true; 4], &[3, 2, 1, 0]);
        assert_eq!(Naive.lookup(&view, 10).probes, 1);
    }
}
