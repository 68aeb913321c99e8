//! Cache block frames.

use serde::{Deserialize, Serialize};
use seta_core::set_view::tag_eq_mask;
use seta_core::SetView;
use std::iter::FusedIterator;

/// One block frame: a place in the cache where a block may reside.
///
/// Frames store the full-width tag; narrower stored-tag widths (the paper
/// studies 16- and 32-bit tags) are applied by the lookup strategies in
/// `seta-core`, not by the content simulation — tag width affects probe
/// counts, never hit/miss behaviour in a correctly functioning cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// Whether the frame holds a block.
    pub valid: bool,
    /// Whether the held block has been written since it was filled
    /// (write-back caches must write dirty victims to the next level).
    pub dirty: bool,
    /// Full-width tag of the held block; meaningless when `!valid`.
    pub tag: u64,
}

impl Frame {
    /// An empty (invalid) frame.
    pub fn empty() -> Self {
        Frame::default()
    }

    /// A frame holding `tag`, clean or dirty.
    pub fn filled(tag: u64, dirty: bool) -> Self {
        Frame {
            valid: true,
            dirty,
            tag,
        }
    }

    /// Whether this frame holds the given tag.
    pub fn matches(&self, tag: u64) -> bool {
        self.valid && self.tag == tag
    }

    /// Invalidates the frame.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.dirty = false;
    }
}

/// One set's frames where the cache keeps them: a borrowed row of stored
/// tags plus the set's valid and dirty bitmasks (bit `w` describes way
/// `w`). A cheap `Copy` handle; [`get`](Self::get) and iteration
/// materialize by-value [`Frame`]s on demand.
///
/// A stored tag outlives its block's invalidation, as tag RAM does, so
/// `tags()[w]` is meaningful only when bit `w` of
/// [`valid_mask`](Self::valid_mask) is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetFrames<'a> {
    tags: &'a [u64],
    valid: u32,
    dirty: u32,
}

impl<'a> SetFrames<'a> {
    /// Frames over a tag row and its masks.
    pub(crate) fn new(tags: &'a [u64], valid: u32, dirty: u32) -> Self {
        SetFrames { tags, valid, dirty }
    }

    /// Number of ways in the set.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the set has no ways (never true for a cache's set).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The stored tags, indexed by way.
    pub fn tags(&self) -> &'a [u64] {
        self.tags
    }

    /// Bitmask of valid ways: bit `w` set iff way `w` holds a block.
    pub fn valid_mask(&self) -> u32 {
        self.valid
    }

    /// The frame of way `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn get(&self, w: usize) -> Frame {
        Frame {
            valid: self.valid & (1 << w) != 0,
            dirty: self.dirty & (1 << w) != 0,
            tag: self.tags[w],
        }
    }

    /// The way holding `tag`, if resident: one equality mask over the
    /// set's contiguous tags, restricted to valid ways.
    #[inline]
    pub fn find(&self, tag: u64) -> Option<u8> {
        let m = tag_eq_mask(self.tags, tag) & self.valid;
        (m != 0).then(|| m.trailing_zeros() as u8)
    }

    /// The frames as a lookup input, with `order` the set's recency list
    /// (most-recently-used first). Copies nothing.
    #[inline]
    pub fn view(&self, order: &'a [u8]) -> SetView<'a> {
        SetView::from_mask(self.tags, self.valid, order)
    }

    /// Iterates over the frames in way order.
    pub fn iter(&self) -> FramesIter<'a> {
        FramesIter {
            frames: *self,
            way: 0,
        }
    }
}

impl<'a> IntoIterator for SetFrames<'a> {
    type Item = Frame;
    type IntoIter = FramesIter<'a>;

    fn into_iter(self) -> FramesIter<'a> {
        self.iter()
    }
}

/// Iterator over a set's frames in way order (see [`SetFrames::iter`]).
#[derive(Debug, Clone)]
pub struct FramesIter<'a> {
    frames: SetFrames<'a>,
    way: usize,
}

impl Iterator for FramesIter<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let w = self.way;
        (w < self.frames.len()).then(|| {
            self.way += 1;
            self.frames.get(w)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.frames.len() - self.way;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FramesIter<'_> {}

impl FusedIterator for FramesIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_frame_matches_nothing() {
        let f = Frame::empty();
        assert!(!f.valid);
        assert!(!f.matches(0));
        assert!(!f.matches(f.tag));
    }

    #[test]
    fn filled_frame_matches_its_tag_only() {
        let f = Frame::filled(0xABC, false);
        assert!(f.matches(0xABC));
        assert!(!f.matches(0xABD));
    }

    #[test]
    fn set_frames_materialize_by_way() {
        let tags = [7u64, 8, 9];
        let frames = SetFrames::new(&tags, 0b011, 0b010);
        let got: Vec<Frame> = frames.into_iter().collect();
        assert_eq!(
            got,
            vec![
                Frame::filled(7, false),
                Frame::filled(8, true),
                Frame {
                    valid: false,
                    dirty: false,
                    tag: 9
                }
            ]
        );
        assert_eq!(frames.iter().len(), 3);
        assert_eq!(frames.find(8), Some(1));
        assert_eq!(
            frames.find(9),
            None,
            "an invalid way's stale tag is not resident"
        );
        assert_eq!(frames.view(&[2, 0, 1]).valid_mask(), 0b011);
    }

    #[test]
    fn invalidate_clears_state() {
        let mut f = Frame::filled(1, true);
        f.invalidate();
        assert!(!f.valid);
        assert!(!f.dirty);
        assert!(!f.matches(1));
    }
}
