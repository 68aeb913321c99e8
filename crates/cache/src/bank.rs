//! Set-local storage shared by [`Cache`](crate::Cache) and concurrent
//! front-ends.
//!
//! A [`SetBank`] owns the stored tags, valid/dirty bits, replacement
//! state, statistics, and optional packed tag lanes for a contiguous range
//! of sets, addressed by `(set, tag)` rather than by full address.
//! [`Cache`](crate::Cache) wraps one bank spanning the whole cache behind
//! an [`AddressMapper`](crate::AddressMapper); a striped concurrent cache
//! wraps many small banks, each behind its own lock, without
//! re-implementing any of the fill/evict/recency logic.
//!
//! # Layout
//!
//! Each set is one row of a set-major tag array plus one valid and one
//! dirty bitmask, so a lookup is priced where the set lives:
//! [`SetBank::view`] borrows the row and the recency list as a
//! [`SetView`] with no copy, and a hit is one equality mask over the
//! row. Masks are `u32`, so a bank holds at most [`MAX_ASSOC`] ways.

use crate::block::SetFrames;
use crate::replacement::{Policy, ReplacementState};
use crate::stats::CacheStats;
use seta_core::packed::{LaneSpec, LaneView, PackedLanes};
use seta_core::{SetView, MAX_ASSOC};

/// Outcome of one [`SetBank::access`], in tag space. Callers that know the
/// bank's address mapping reconstruct the victim's block address from
/// `(victim tag, set)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// Whether the tag was resident.
    pub hit: bool,
    /// The way the block now occupies (the hit way, or the filled way on a
    /// miss).
    pub way: u8,
    /// On a hit, the block's position in the set's recency list *before*
    /// this access (0 = MRU). `None` on a miss.
    pub mru_distance: Option<usize>,
    /// On an evicting miss, the displaced `(tag, dirty)` pair.
    pub evicted: Option<(u64, bool)>,
}

/// The set-local storage of a set-associative write-back cache: stored
/// tags, valid and dirty bits, recency, statistics, and (optionally) the
/// packed-lane mirror of the stored tags. Works purely in `(set, tag)`
/// space — it knows nothing of block sizes or addresses.
#[derive(Debug, Clone)]
pub struct SetBank {
    num_sets: usize,
    assoc: usize,
    /// Stored tags, set-major: way `w` of `set` is `tags[set * assoc + w]`.
    /// Invalidation leaves a tag in place, as tag RAM does.
    tags: Vec<u64>,
    /// Per-set valid bitmask: bit `w` set iff way `w` holds a block.
    valid: Vec<u32>,
    /// Per-set dirty bitmask, always a subset of the valid mask.
    dirty: Vec<u32>,
    replacement: ReplacementState,
    stats: CacheStats,
    /// Packed-lane mirror of the stored tags for SWAR partial compares
    /// (see [`seta_core::packed`]); kept coherent with `tags` at every
    /// tag write. `None` until [`enable_partial_lanes`](Self::enable_partial_lanes).
    lanes: Option<PackedLanes>,
}

impl SetBank {
    /// An empty bank of `num_sets` sets, `assoc` ways each. `seed` feeds
    /// [`Policy::Random`]'s RNG and is ignored by deterministic policies.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or exceeds [`MAX_ASSOC`].
    pub fn new(num_sets: usize, assoc: usize, policy: Policy, seed: u64) -> Self {
        assert!(
            assoc <= MAX_ASSOC,
            "associativity {assoc} exceeds MAX_ASSOC {MAX_ASSOC}"
        );
        SetBank {
            num_sets,
            assoc,
            tags: vec![0; num_sets * assoc],
            valid: vec![0; num_sets],
            dirty: vec![0; num_sets],
            replacement: ReplacementState::new(policy, num_sets, assoc, seed),
            stats: CacheStats::new(),
            lanes: None,
        }
    }

    /// Number of sets in this bank.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The stored tags of one set, indexed by way.
    fn tag_row(&self, set: usize) -> &[u64] {
        &self.tags[set * self.assoc..(set + 1) * self.assoc]
    }

    /// The frames of one set, indexed by way.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn frames(&self, set: usize) -> SetFrames<'_> {
        SetFrames::new(self.tag_row(set), self.valid[set], self.dirty[set])
    }

    /// One set as a lookup input: its tag row, valid mask and recency
    /// list, borrowed in place.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn view(&self, set: usize) -> SetView<'_> {
        self.frames(set).view(self.order(set))
    }

    /// The recency list of one set, most-recently-used way first.
    pub fn order(&self, set: usize) -> &[u8] {
        self.replacement.order(set)
    }

    /// Non-mutating residency check: the way holding `tag` in `set`.
    pub fn probe(&self, set: usize, tag: u64) -> Option<u8> {
        self.frames(set).find(tag)
    }

    /// Number of valid blocks in one set.
    pub fn occupancy(&self, set: usize) -> usize {
        self.valid[set].count_ones() as usize
    }

    /// Number of valid blocks across the whole bank.
    pub fn resident_blocks(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Iterates over `(set, tag)` for every resident block, by set and
    /// then by way.
    pub fn resident_tags(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.tags
            .chunks_exact(self.assoc)
            .zip(&self.valid)
            .enumerate()
            .flat_map(|(set, (row, &valid))| {
                row.iter()
                    .enumerate()
                    .filter(move |&(w, _)| valid & (1 << w) != 0)
                    .map(move |(_, &tag)| (set, tag))
            })
    }

    /// Starts maintaining packed tag lanes under `spec` (see
    /// [`Cache::enable_partial_lanes`](crate::Cache::enable_partial_lanes)).
    /// Returns `false` if `spec`'s associativity does not match the bank's.
    pub fn enable_partial_lanes(&mut self, spec: LaneSpec) -> bool {
        if spec.ways() as usize != self.assoc {
            return false;
        }
        let mut lanes = PackedLanes::new(spec, self.num_sets);
        for set in 0..self.num_sets {
            lanes.rebuild_set(set, self.tag_row(set));
        }
        self.lanes = Some(lanes);
        true
    }

    /// The packed-lane spec in force, if lanes are maintained.
    pub fn lane_spec(&self) -> Option<LaneSpec> {
        self.lanes.as_ref().map(|l| l.spec())
    }

    /// One set's packed lanes for a lookup, if lanes are maintained.
    pub fn lane_view(&self, set: usize) -> Option<LaneView<'_>> {
        self.lanes.as_ref().map(|l| l.view(set))
    }

    /// Debug-build check that the packed lanes still mirror `set`'s stored
    /// tags — the coherence invariant of [`seta_core::packed`], asserted
    /// at every site that mutates a set.
    pub(crate) fn debug_check_lanes(&self, set: usize) {
        #[cfg(debug_assertions)]
        if let Some(lanes) = &self.lanes {
            lanes.assert_coherent(set, self.tag_row(set));
        }
        #[cfg(not(debug_assertions))]
        let _ = set;
    }

    /// Performs one access to `(set, tag)`: refreshes recency on a hit,
    /// fills (evicting if needed) on a miss. `is_write` marks the block
    /// dirty.
    pub fn access(&mut self, set: usize, tag: u64, is_write: bool) -> BankAccess {
        if let Some(way) = self.frames(set).find(tag) {
            let mru_distance = self.replacement.touch(set, way);
            if is_write {
                self.dirty[set] |= 1 << way;
            }
            self.stats.record_access(true, is_write);
            return BankAccess {
                hit: true,
                way,
                mru_distance: Some(mru_distance),
                evicted: None,
            };
        }

        // Miss: choose a victim (preferring invalid frames), evict, fill.
        let valid = self.valid[set];
        let way = self.replacement.victim(set, valid);
        let bit = 1u32 << way;
        let slot = set * self.assoc + way as usize;
        let evicted = (valid & bit != 0).then(|| (self.tags[slot], self.dirty[set] & bit != 0));
        if let Some((_, dirty)) = evicted {
            self.stats.record_eviction(dirty);
        }
        self.tags[slot] = tag;
        self.valid[set] |= bit;
        if is_write {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        // The fill is the only operation that writes a stored tag, so it
        // is the only place the packed lanes need an incremental update.
        if let Some(lanes) = &mut self.lanes {
            lanes.on_fill(set, way as usize, tag);
        }
        self.debug_check_lanes(set);
        self.replacement.fill(set, way);
        self.stats.record_access(false, is_write);
        BankAccess {
            hit: false,
            way,
            mru_distance: None,
            evicted,
        }
    }

    /// Invalidates every block and resets recency lists (statistics are
    /// kept). See [`Cache::flush`](crate::Cache::flush).
    pub fn flush(&mut self) {
        self.valid.fill(0);
        self.dirty.fill(0);
        self.replacement.reset();
        // Invalidation clears valid bits but keeps tags in place, so the
        // packed lanes (which mirror tags regardless of validity) are
        // still coherent without an update.
        #[cfg(debug_assertions)]
        for set in 0..self.num_sets {
            self.debug_check_lanes(set);
        }
    }

    /// Invalidates `(set, tag)` if resident, returning whether a block was
    /// dropped. See [`Cache::invalidate`](crate::Cache::invalidate).
    pub fn invalidate(&mut self, set: usize, tag: u64) -> bool {
        let Some(way) = self.frames(set).find(tag) else {
            return false;
        };
        let keep = !(1u32 << way);
        self.valid[set] &= keep;
        self.dirty[set] &= keep;
        // Tags survive invalidation, so the lanes stay coherent.
        self.debug_check_lanes(set);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Frame;
    use proptest::prelude::*;

    fn bank() -> SetBank {
        SetBank::new(4, 2, Policy::Lru, 0)
    }

    #[test]
    fn tag_space_access_round_trip() {
        let mut b = bank();
        assert!(!b.access(1, 0x10, false).hit);
        let r = b.access(1, 0x10, true);
        assert!(r.hit);
        assert_eq!(r.mru_distance, Some(0));
        assert_eq!(b.probe(1, 0x10), Some(r.way));
        assert_eq!(b.probe(0, 0x10), None, "other sets untouched");
    }

    #[test]
    fn eviction_reports_victim_tag_and_dirty() {
        let mut b = bank();
        b.access(0, 0xa, true);
        b.access(0, 0xb, false);
        let r = b.access(0, 0xc, false);
        assert!(!r.hit);
        assert_eq!(r.evicted, Some((0xa, true)), "LRU dirty victim");
        assert_eq!(b.occupancy(0), 2);
    }

    #[test]
    fn resident_tags_enumerates_by_set() {
        let mut b = bank();
        b.access(0, 0x1, false);
        b.access(3, 0x2, false);
        let mut got: Vec<(usize, u64)> = b.resident_tags().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0x1), (3, 0x2)]);
        assert_eq!(b.resident_blocks(), 2);
    }

    #[test]
    fn flush_and_invalidate_keep_stats() {
        let mut b = bank();
        b.access(2, 0x5, false);
        assert!(b.invalidate(2, 0x5));
        assert!(!b.invalidate(2, 0x5));
        b.access(2, 0x6, false);
        b.flush();
        assert_eq!(b.resident_blocks(), 0);
        assert_eq!(b.stats().accesses(), 2);
    }

    #[test]
    fn lanes_reject_wrong_assoc() {
        use seta_core::lookup::TransformKind;
        let mut b = bank();
        let wrong = LaneSpec::try_new(16, 1, TransformKind::XorFold, 4).unwrap();
        assert!(!b.enable_partial_lanes(wrong));
        let spec = LaneSpec::try_new(16, 1, TransformKind::XorFold, 2).unwrap();
        assert!(b.enable_partial_lanes(spec));
        assert_eq!(b.lane_spec(), Some(spec));
        for t in 0..32u64 {
            b.access((t % 4) as usize, t, t % 3 == 0);
        }
        assert!(b.lane_view(0).is_some());
    }

    /// The reference model of one set: frames by way plus a recency list,
    /// updated the way a frame-array cache updates them.
    #[derive(Clone)]
    struct ModelSet {
        frames: Vec<Frame>,
        order: Vec<u8>,
    }

    impl ModelSet {
        fn new(assoc: usize) -> Self {
            ModelSet {
                frames: vec![Frame::empty(); assoc],
                order: (0..assoc as u8).collect(),
            }
        }

        fn move_to_front(&mut self, way: u8) {
            self.order.retain(|&w| w != way);
            self.order.insert(0, way);
        }

        fn access(&mut self, policy: Policy, tag: u64, is_write: bool) -> BankAccess {
            if let Some(w) = self.frames.iter().position(|f| f.matches(tag)) {
                let way = w as u8;
                let pos = self.order.iter().position(|&o| o == way).unwrap();
                if policy == Policy::Lru {
                    self.move_to_front(way);
                }
                self.frames[w].dirty |= is_write;
                return BankAccess {
                    hit: true,
                    way,
                    mru_distance: Some(pos),
                    evicted: None,
                };
            }
            let w = match self.frames.iter().position(|f| !f.valid) {
                Some(w) => w,
                None => *self.order.last().unwrap() as usize,
            };
            let victim = self.frames[w];
            self.frames[w] = Frame::filled(tag, is_write);
            self.move_to_front(w as u8);
            BankAccess {
                hit: false,
                way: w as u8,
                mru_distance: None,
                evicted: victim.valid.then_some((victim.tag, victim.dirty)),
            }
        }

        fn invalidate(&mut self, tag: u64) -> bool {
            match self.frames.iter_mut().find(|f| f.matches(tag)) {
                Some(f) => {
                    f.invalidate();
                    true
                }
                None => false,
            }
        }
    }

    /// One operation of a generated sequence.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access { set: usize, tag: u64, write: bool },
        Invalidate { set: usize, tag: u64 },
        Flush,
    }

    const SETS: usize = 3;

    /// Raw operations: a selector (mostly access, some invalidate, rare
    /// flush), a set, a raw tag and a write bit.
    fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, u64, bool)>> {
        proptest::collection::vec((0u8..15, 0..SETS, any::<u64>(), any::<bool>()), 0..400)
    }

    /// Maps raw operations onto an `assoc`-way bank, with tags drawn from
    /// about twice the ways so hits, evictions and refills of invalidated
    /// ways all happen.
    fn ops(assoc: usize, raw: &[(u8, usize, u64, bool)]) -> Vec<Op> {
        let tags = 2 * assoc as u64 + 1;
        raw.iter()
            .map(|&(sel, set, tag, write)| {
                let tag = tag % tags;
                match sel {
                    0..=11 => Op::Access { set, tag, write },
                    12 | 13 => Op::Invalidate { set, tag },
                    _ => Op::Flush,
                }
            })
            .collect()
    }

    /// Everything the bank exposes about its contents equals the model's.
    fn assert_matches_model(b: &SetBank, model: &[ModelSet]) {
        let mut resident = Vec::new();
        for (set, m) in model.iter().enumerate() {
            let frames: Vec<Frame> = b.frames(set).iter().collect();
            assert_eq!(frames, m.frames, "frames of set {set}");
            assert_eq!(b.order(set), &m.order[..], "order of set {set}");
            let valid: Vec<bool> = m.frames.iter().map(|f| f.valid).collect();
            let tags: Vec<u64> = m.frames.iter().map(|f| f.tag).collect();
            assert_eq!(b.view(set), SetView::from_parts(&tags, &valid, &m.order));
            assert_eq!(b.occupancy(set), valid.iter().filter(|&&v| v).count());
            resident.extend(m.frames.iter().filter(|f| f.valid).map(|f| (set, f.tag)));
        }
        assert_eq!(b.resident_blocks(), resident.len());
        assert_eq!(b.resident_tags().collect::<Vec<_>>(), resident);
    }

    /// Invariants that hold under every policy, random included.
    fn assert_invariants(b: &SetBank) {
        let mut total = 0;
        for set in 0..b.num_sets() {
            let frames = b.frames(set);
            assert!(frames.iter().all(|f| f.valid || !f.dirty), "dirty ⊆ valid");
            let mut order = b.order(set).to_vec();
            order.sort_unstable();
            assert_eq!(
                order,
                (0..b.assoc() as u8).collect::<Vec<_>>(),
                "order is a permutation"
            );
            let mut tags: Vec<u64> = frames.iter().filter(|f| f.valid).map(|f| f.tag).collect();
            let occupancy = tags.len();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(
                tags.len(),
                occupancy,
                "resident tags are unique within a set"
            );
            assert_eq!(b.occupancy(set), occupancy);
            let valid: Vec<bool> = frames.iter().map(|f| f.valid).collect();
            assert_eq!(
                b.view(set),
                SetView::from_parts(frames.tags(), &valid, b.order(set))
            );
            total += occupancy;
        }
        assert_eq!(b.resident_blocks(), total);
        assert_eq!(b.resident_tags().count(), total);
    }

    fn run_against_model(assoc: usize, policy: Policy, ops: &[Op]) {
        let mut b = SetBank::new(SETS, assoc, policy, 7);
        let mut model = vec![ModelSet::new(assoc); SETS];
        for &op in ops {
            match op {
                Op::Access { set, tag, write } => {
                    let full = b.occupancy(set) == assoc;
                    let was = b.probe(set, tag).map(|w| b.frames(set).get(w as usize));
                    let got = b.access(set, tag, write);
                    if policy == Policy::Random {
                        assert_eq!(got.hit, was.is_some());
                        assert_eq!(got.evicted.is_some(), full && !got.hit);
                        assert_eq!(b.probe(set, tag), Some(got.way));
                        let dirty = b.frames(set).get(got.way as usize).dirty;
                        assert_eq!(dirty, write || was.is_some_and(|f| f.dirty));
                    } else {
                        assert_eq!(got, model[set].access(policy, tag, write), "{op:?}");
                    }
                }
                Op::Invalidate { set, tag } => {
                    let got = b.invalidate(set, tag);
                    assert_eq!(b.probe(set, tag), None);
                    if policy != Policy::Random {
                        assert_eq!(got, model[set].invalidate(tag), "{op:?}");
                    }
                }
                Op::Flush => {
                    b.flush();
                    assert_eq!(b.resident_blocks(), 0);
                    for m in &mut model {
                        m.frames.iter_mut().for_each(Frame::invalidate);
                        m.order = (0..assoc as u8).collect();
                    }
                }
            }
            if policy == Policy::Random {
                assert_invariants(&b);
            } else {
                assert_matches_model(&b, &model);
            }
        }
    }

    proptest! {
        /// The tag-row-plus-bitmask layout behaves exactly like a
        /// frame-array set under LRU and FIFO, and keeps its invariants
        /// under random replacement; a = 32 fills the whole valid mask.
        #[test]
        fn bank_matches_frame_array_model(
            assoc_idx in 0usize..5,
            policy_idx in 0usize..3,
            raw in raw_ops(),
        ) {
            let assoc = [1, 2, 4, 16, 32][assoc_idx];
            run_against_model(assoc, Policy::ALL[policy_idx], &ops(assoc, &raw));
        }
    }
}
