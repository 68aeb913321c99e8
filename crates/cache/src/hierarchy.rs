//! The paper's two-level write-back hierarchy.
//!
//! A direct-mapped write-back level-one cache services processor references
//! and sends two kinds of requests to the set-associative write-back
//! level-two cache:
//!
//! * **read-in** — on an L1 miss, the missing block is fetched from L2;
//! * **write-back** — if the L1 miss displaced a dirty block, that block is
//!   then written to L2 (after the read-in, per the paper's Table 3).
//!
//! Every L2 request is exposed to an [`L2Observer`] *before* it mutates the
//! L2, with a view of the target set's frames and recency order. That
//! pre-state is exactly what the lookup strategies in `seta-core` need to
//! price the lookup, so one simulation pass can score every implementation
//! of set-associativity at once.
//!
//! The hierarchy also maintains the paper's **write-back optimization**
//! state: when a block is read into L1, the L1 remembers which way of the
//! L2 set supplied it (a `log2 a`-bit *position hint*). On a write-back the
//! hint lets the L2 skip tag probes entirely; the hierarchy reports whether
//! each hint was still correct so simulations can quantify the optimization
//! even though multi-level inclusion is not enforced.
//!
//! A hierarchy step is two halves. The L1 half ([`step_l1`]) services the
//! reference in the L1 and, on a miss, returns the [`L1Miss`] traffic; the
//! L2 half ([`L2Half::serve`]) issues that traffic and keeps the hints.
//! The L2 traffic depends only on the trace and the L1, so a sweep can run
//! an L1 over a trace once ([`filter_l1`]) and replay the misses through
//! every L2 behind it ([`L2Half::replay`]); [`TwoLevel`] runs the same two
//! halves back to back.
//!
//! The [`L2Observer`] is the hierarchy's only instrumentation seam.
//! Everything else a run reports is a counter of [`TwoLevelStats`] or of
//! the caches' [`CacheStats`]: L1 hits, for instance, are
//! `processor_refs − read_ins`, since every L1 miss sends exactly one
//! read-in.

use crate::block::SetFrames;
use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use serde::{Deserialize, Serialize};
use seta_trace::{TraceEvent, TraceRecord};

/// The kind of a level-two request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum L2RequestKind {
    /// Fetch a block that missed in L1.
    ReadIn,
    /// Write a dirty block displaced from L1.
    WriteBack,
}

impl std::fmt::Display for L2RequestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L2RequestKind::ReadIn => f.write_str("read-in"),
            L2RequestKind::WriteBack => f.write_str("write-back"),
        }
    }
}

/// A level-two request together with the pre-access state of its target
/// set. Handed to [`L2Observer::on_l2_request`] before the L2 is updated.
#[derive(Debug)]
pub struct L2RequestView<'a> {
    /// Read-in or write-back.
    pub kind: L2RequestKind,
    /// Block-aligned address of the request.
    pub addr: u64,
    /// Target set index in the L2.
    pub set: u64,
    /// Full-width tag of the request in the L2 geometry.
    pub tag: u64,
    /// Whether the request will hit.
    pub hit: bool,
    /// The way holding the block, when `hit`.
    pub hit_way: Option<u8>,
    /// Pre-access recency position of the hit way (0 = MRU), when `hit`.
    pub mru_distance: Option<usize>,
    /// The target set's frames (pre-access).
    pub frames: SetFrames<'a>,
    /// The target set's recency order, MRU first (pre-access).
    pub order: &'a [u8],
    /// For write-backs: whether the L1's position hint still names the way
    /// where the block resides. `None` for read-ins.
    pub hint_correct: Option<bool>,
    /// The target set's packed tag lanes (pre-access), when the cache
    /// maintains them (see [`Cache::enable_partial_lanes`]). Lets
    /// partial-compare scorers skip per-lookup packing via
    /// [`seta_core::lookup::PartialCompare::lookup_packed`].
    pub lanes: Option<seta_core::packed::LaneView<'a>>,
}

/// Receives every level-two request during a simulation.
pub trait L2Observer {
    /// Called once per L2 request, before the L2 is mutated.
    fn on_l2_request(&mut self, req: &L2RequestView<'_>);
}

/// The do-nothing observer, for runs that only need miss ratios.
impl L2Observer for () {
    fn on_l2_request(&mut self, _req: &L2RequestView<'_>) {}
}

impl<F: FnMut(&L2RequestView<'_>)> L2Observer for F {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        self(req)
    }
}

/// Hierarchy-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoLevelStats {
    /// Processor references serviced.
    pub processor_refs: u64,
    /// Flush events processed.
    pub flushes: u64,
    /// Read-in requests sent to L2.
    pub read_ins: u64,
    /// Read-ins that hit in L2.
    pub read_in_hits: u64,
    /// Write-back requests sent to L2.
    pub write_backs: u64,
    /// Write-backs that hit in L2.
    pub write_back_hits: u64,
    /// Write-backs whose position hint was checked (all of them).
    pub hint_checks: u64,
    /// Write-backs whose position hint was still correct.
    pub hint_correct: u64,
}

impl TwoLevelStats {
    /// Fraction of processor references that miss in both levels
    /// (the paper's *global miss ratio*).
    pub fn global_miss_ratio(&self) -> f64 {
        if self.processor_refs == 0 {
            0.0
        } else {
            (self.read_ins - self.read_in_hits) as f64 / self.processor_refs as f64
        }
    }

    /// Fraction of L2 requests (read-ins and write-backs) that miss in L2
    /// (the paper's *local miss ratio* of the level-two cache).
    pub fn local_miss_ratio(&self) -> f64 {
        let reqs = self.read_ins + self.write_backs;
        if reqs == 0 {
            0.0
        } else {
            let misses =
                (self.read_ins - self.read_in_hits) + (self.write_backs - self.write_back_hits);
            misses as f64 / reqs as f64
        }
    }

    /// Fraction of L2 requests that are write-backs (Table 4's
    /// "Fraction Write-Back").
    pub fn write_back_fraction(&self) -> f64 {
        let reqs = self.read_ins + self.write_backs;
        if reqs == 0 {
            0.0
        } else {
            self.write_backs as f64 / reqs as f64
        }
    }

    /// Fraction of processor references that miss in L1.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.processor_refs == 0 {
            0.0
        } else {
            self.read_ins as f64 / self.processor_refs as f64
        }
    }

    /// Fraction of write-backs whose position hint was still correct.
    pub fn hint_accuracy(&self) -> f64 {
        if self.hint_checks == 0 {
            0.0
        } else {
            self.hint_correct as f64 / self.hint_checks as f64
        }
    }

    /// Total L2 requests.
    pub fn l2_requests(&self) -> u64 {
        self.read_ins + self.write_backs
    }
}

/// Merges counters from two disjoint event streams — the ratios of the sum
/// are the ratios of the combined run. This is what lets a sharded sweep
/// runner simulate independent cold-start trace segments in parallel and
/// fold their hierarchy statistics back together.
impl std::ops::AddAssign for TwoLevelStats {
    fn add_assign(&mut self, other: TwoLevelStats) {
        self.processor_refs += other.processor_refs;
        self.flushes += other.flushes;
        self.read_ins += other.read_ins;
        self.read_in_hits += other.read_in_hits;
        self.write_backs += other.write_backs;
        self.write_back_hits += other.write_back_hits;
        self.hint_checks += other.hint_checks;
        self.hint_correct += other.hint_correct;
    }
}

impl std::iter::Sum for TwoLevelStats {
    fn sum<I: Iterator<Item = TwoLevelStats>>(iter: I) -> TwoLevelStats {
        iter.fold(TwoLevelStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// The level-two traffic one L1 miss causes: a read-in of the missing
/// block and, when the L1 victim was dirty, its write-back. This is all
/// the L2 ever sees of a processor reference, and it depends only on the
/// trace and the L1 — so one L1 pass can feed any number of L2s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Miss {
    /// Block-aligned address (in the L1's block size) to read in.
    pub read_addr: u64,
    /// Index of the L1 frame the block fills (`set × assoc + way`): it
    /// keys the position hint the L2 half keeps for that frame.
    pub frame: usize,
    /// Block-aligned address of the dirty L1 victim, when there is one.
    pub write_back: Option<u64>,
}

/// One event of a trace filtered through a private L1: what the L2 half
/// of a hierarchy replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilteredEvent {
    /// An L1 miss and the requests it sends to L2.
    Miss(L1Miss),
    /// A segment boundary: the L2 is flushed and its hints cleared.
    Flush,
}

/// The L1 half of a hierarchy step: services `record` in the private L1
/// and, on a miss, returns the L2 traffic it causes. Counting processor
/// references is the caller's job.
///
/// Inlined into callers in other crates — the simulation and serving
/// loops — as every generic hierarchy step is.
#[inline]
pub fn step_l1(l1: &mut Cache, record: &TraceRecord) -> Option<L1Miss> {
    let set = l1.mapper().set_of(record.addr);
    let r = l1.access(record.addr, record.kind.is_write());
    if r.hit {
        return None;
    }
    Some(L1Miss {
        read_addr: record.block_addr(l1.config().block_size()),
        frame: set as usize * l1.config().associativity() as usize + r.way as usize,
        write_back: r.evicted.filter(|v| v.dirty).map(|v| v.addr),
    })
}

/// Runs the L1 half over `events`, appending every miss and flush to
/// `out`. `stats` receives the L1 side's counters (`processor_refs` and
/// `flushes`); replaying `out` through an [`L2Half`] adds the rest.
pub fn filter_l1<I>(
    l1: &mut Cache,
    events: I,
    stats: &mut TwoLevelStats,
    out: &mut Vec<FilteredEvent>,
) where
    I: IntoIterator<Item = TraceEvent>,
{
    for event in events {
        match event {
            TraceEvent::Ref(r) => {
                stats.processor_refs += 1;
                if let Some(miss) = step_l1(l1, &r) {
                    out.push(FilteredEvent::Miss(miss));
                }
            }
            TraceEvent::Flush => {
                l1.flush();
                stats.flushes += 1;
                out.push(FilteredEvent::Flush);
            }
        }
    }
}

/// The L2 half of the hierarchy: the level-two cache plus the per-L1-frame
/// position hints of the paper's write-back optimization. It owns the
/// read-in, write-back and hint counters of [`TwoLevelStats`]; the L1 side
/// owns `processor_refs` and `flushes`.
#[derive(Debug, Clone)]
pub struct L2Half {
    l2: Cache,
    /// Per-L1-frame hint: the L2 way the frame's block was loaded from.
    hints: Vec<Option<u8>>,
}

impl L2Half {
    /// Creates an empty L2 half behind an L1 of geometry `l1`, using
    /// `l2_policy` (and `seed`, for [`Policy::Random`](crate::Policy)).
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::BlockSizeMismatch`] if the L1 block size
    /// exceeds the L2 block size.
    pub fn new(
        l1: CacheConfig,
        l2: CacheConfig,
        l2_policy: crate::Policy,
        seed: u64,
    ) -> Result<Self, HierarchyError> {
        if l1.block_size() > l2.block_size() {
            return Err(HierarchyError::BlockSizeMismatch {
                l1: l1.block_size(),
                l2: l2.block_size(),
            });
        }
        Ok(L2Half {
            l2: Cache::with_policy(l2, l2_policy, seed),
            hints: vec![None; l1.num_frames() as usize],
        })
    }

    /// The level-two cache.
    pub fn cache(&self) -> &Cache {
        &self.l2
    }

    /// Starts maintaining packed tag lanes on the level-two cache (see
    /// [`TwoLevel::enable_partial_lanes`]).
    pub fn enable_partial_lanes(&mut self, spec: seta_core::packed::LaneSpec) -> bool {
        self.l2.enable_partial_lanes(spec)
    }

    /// The L2 half of a hierarchy step: issues `miss`'s read-in, records
    /// the way it filled as the frame's new hint, then issues the dirty
    /// victim's write-back checked against the frame's *old* hint.
    pub fn serve<O: L2Observer>(
        &mut self,
        miss: L1Miss,
        stats: &mut TwoLevelStats,
        observer: &mut O,
    ) {
        // Read-in first (per Table 3: "the new block is first obtained via a
        // read-in request, then a write-back is issued").
        let victim_hint = self.hints[miss.frame];
        let way = self.issue(L2RequestKind::ReadIn, miss.read_addr, None, stats, observer);
        self.hints[miss.frame] = Some(way);
        if let Some(addr) = miss.write_back {
            self.issue(L2RequestKind::WriteBack, addr, victim_hint, stats, observer);
        }
    }

    /// Replays a trace filtered by [`filter_l1`] (from an L1 of the
    /// geometry this half was built for), counting into `stats`.
    pub fn replay<O: L2Observer>(
        &mut self,
        events: &[FilteredEvent],
        stats: &mut TwoLevelStats,
        observer: &mut O,
    ) {
        for event in events {
            match *event {
                FilteredEvent::Miss(miss) => self.serve(miss, stats, observer),
                FilteredEvent::Flush => self.flush(),
            }
        }
    }

    /// Discards the L2's contents and clears every hint.
    pub fn flush(&mut self) {
        self.l2.flush();
        self.hints.fill(None);
    }

    /// Issues one L2 request: observes the pre-state, then performs the
    /// access. Returns the way the block occupies afterwards.
    fn issue<O: L2Observer>(
        &mut self,
        kind: L2RequestKind,
        addr: u64,
        hint: Option<u8>,
        stats: &mut TwoLevelStats,
        observer: &mut O,
    ) -> u8 {
        let set = self.l2.mapper().set_of(addr);
        let tag = self.l2.mapper().tag_of(addr);
        let frames = self.l2.set_frames(set);
        let order = self.l2.set_order(set);
        let hit_way = frames.find(tag);
        let mru_distance =
            hit_way.map(|w| order.iter().position(|&o| o == w).expect("permutation"));
        let hint_correct = match kind {
            L2RequestKind::ReadIn => None,
            L2RequestKind::WriteBack => Some(hint.is_some() && hint == hit_way),
        };
        let view = L2RequestView {
            kind,
            addr,
            set,
            tag,
            hit: hit_way.is_some(),
            hit_way,
            mru_distance,
            frames,
            order,
            hint_correct,
            lanes: self.l2.lane_view(set),
        };
        observer.on_l2_request(&view);

        let is_write = kind == L2RequestKind::WriteBack;
        let result = self.l2.access(addr, is_write);
        match kind {
            L2RequestKind::ReadIn => {
                stats.read_ins += 1;
                if result.hit {
                    stats.read_in_hits += 1;
                }
            }
            L2RequestKind::WriteBack => {
                stats.write_backs += 1;
                if result.hit {
                    stats.write_back_hits += 1;
                }
                stats.hint_checks += 1;
                if hint_correct == Some(true) {
                    stats.hint_correct += 1;
                }
            }
        }
        result.way
    }
}

/// The two-level write-back hierarchy: a private L1 in front of an
/// [`L2Half`]. Each step runs [`step_l1`] and hands any miss to
/// [`L2Half::serve`].
///
/// # Example
///
/// ```
/// use seta_cache::{CacheConfig, TwoLevel};
/// use seta_trace::TraceRecord;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let l1 = CacheConfig::direct_mapped(4 * 1024, 16)?;
/// let l2 = CacheConfig::new(64 * 1024, 32, 4)?;
/// let mut h = TwoLevel::new(l1, l2)?;
/// h.step(&TraceRecord::read(0x1234), &mut ());
/// assert_eq!(h.stats().read_ins, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevel {
    l1: Cache,
    l2: L2Half,
    stats: TwoLevelStats,
}

/// Errors from constructing a [`TwoLevel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The L1 block size must not exceed the L2 block size (a single L1
    /// block must fit in one L2 block for read-ins and write-backs to be
    /// single requests).
    BlockSizeMismatch {
        /// L1 block size in bytes.
        l1: u64,
        /// L2 block size in bytes.
        l2: u64,
    },
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::BlockSizeMismatch { l1, l2 } => write!(
                f,
                "L1 block size {l1} exceeds L2 block size {l2}; read-ins would span L2 blocks"
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl TwoLevel {
    /// Creates an empty hierarchy. Both caches use LRU replacement.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::BlockSizeMismatch`] if the L1 block size
    /// exceeds the L2 block size.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Result<Self, HierarchyError> {
        Self::with_l2_policy(l1, l2, crate::Policy::Lru, 0)
    }

    /// Creates an empty hierarchy with an explicit L2 replacement policy
    /// (the L1, being direct-mapped in the paper's setup, has no
    /// replacement choice to make; it still accepts wider configurations
    /// and then uses LRU). `seed` feeds [`Policy::Random`](crate::Policy)
    /// and is ignored by the deterministic policies.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::BlockSizeMismatch`] if the L1 block size
    /// exceeds the L2 block size.
    pub fn with_l2_policy(
        l1: CacheConfig,
        l2: CacheConfig,
        l2_policy: crate::Policy,
        seed: u64,
    ) -> Result<Self, HierarchyError> {
        Ok(TwoLevel {
            l2: L2Half::new(l1, l2, l2_policy, seed)?,
            l1: Cache::new(l1),
            stats: TwoLevelStats::default(),
        })
    }

    /// The level-one cache.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The level-two cache.
    pub fn l2(&self) -> &Cache {
        self.l2.cache()
    }

    /// Starts maintaining packed tag lanes on the level-two cache, so every
    /// [`L2RequestView`] carries the set's lanes for SWAR partial compares.
    /// Returns `false` if `spec` does not match the L2's associativity
    /// (see [`Cache::enable_partial_lanes`]).
    pub fn enable_partial_lanes(&mut self, spec: seta_core::packed::LaneSpec) -> bool {
        self.l2.enable_partial_lanes(spec)
    }

    /// Hierarchy-level counters.
    pub fn stats(&self) -> &TwoLevelStats {
        &self.stats
    }

    /// Per-level access statistics `(l1, l2)`.
    pub fn level_stats(&self) -> (CacheStats, CacheStats) {
        (*self.l1.stats(), *self.l2.cache().stats())
    }

    /// Services one processor reference, notifying `observer` of every L2
    /// request it generates: the L1 half ([`step_l1`]), then the L2 half
    /// ([`L2Half::serve`]) on a miss.
    pub fn step<O: L2Observer>(&mut self, record: &TraceRecord, observer: &mut O) {
        self.stats.processor_refs += 1;
        if let Some(miss) = step_l1(&mut self.l1, record) {
            self.l2.serve(miss, &mut self.stats, observer);
        }
    }

    /// Flushes both levels (contents discarded, hints cleared), as at the
    /// cold-start boundaries between trace segments.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.stats.flushes += 1;
    }

    /// Processes one trace event.
    pub fn process<O: L2Observer>(&mut self, event: &TraceEvent, observer: &mut O) {
        match event {
            TraceEvent::Ref(r) => self.step(r, observer),
            TraceEvent::Flush => self.flush(),
        }
    }

    /// Drives an entire event stream.
    pub fn run<I, O>(&mut self, events: I, observer: &mut O)
    where
        I: IntoIterator<Item = TraceEvent>,
        O: L2Observer,
    {
        for e in events {
            self.process(&e, observer);
        }
    }

    /// Applies a coherency invalidation for the block holding `addr`:
    /// drops it from both levels (another processor took exclusive
    /// ownership). Returns `(invalidated_in_l1, invalidated_in_l2)`.
    ///
    /// This is the stand-in for the multiprocessor coherency traffic of
    /// the paper's footnote 1; the freed L2 frame is preferentially reused
    /// by the next miss to its set.
    pub fn invalidate_block(&mut self, addr: u64) -> (bool, bool) {
        let in_l1 = self.l1.invalidate(addr);
        if in_l1 {
            // The hint for that frame is now meaningless.
            let set = self.l1.mapper().set_of(addr);
            let assoc = self.l1.config().associativity() as usize;
            let base = set as usize * assoc;
            for slot in &mut self.l2.hints[base..base + assoc] {
                *slot = None;
            }
        }
        let in_l2 = self.l2.l2.invalidate(addr);
        (in_l1, in_l2)
    }

    /// Number of valid L1 blocks whose data is *not* resident in L2 —
    /// multi-level-inclusion violations. The paper does not enforce
    /// inclusion but monitors how close the hierarchy stays to it.
    pub fn inclusion_violations(&self) -> usize {
        self.l1
            .resident_addrs()
            .filter(|&a| self.l2().probe(a).is_none())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seta_trace::AccessKind;

    fn hierarchy() -> TwoLevel {
        TwoLevel::new(
            CacheConfig::direct_mapped(256, 16).unwrap(),
            CacheConfig::new(1024, 16, 4).unwrap(),
        )
        .unwrap()
    }

    /// Collects every observed request for assertions.
    #[derive(Default)]
    struct Recorder {
        events: Vec<(L2RequestKind, u64, bool, Option<bool>)>,
    }

    impl L2Observer for Recorder {
        fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
            self.events
                .push((req.kind, req.addr, req.hit, req.hint_correct));
        }
    }

    #[test]
    fn l1_hit_generates_no_l2_traffic() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::read(0x40), &mut rec);
        h.step(&TraceRecord::read(0x44), &mut rec);
        assert_eq!(rec.events.len(), 1, "second access hits in L1");
        assert_eq!(h.stats().read_ins, 1);
    }

    #[test]
    fn dirty_l1_victim_generates_write_back_after_read_in() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::write(0x000), &mut rec); // miss, dirty in L1
        h.step(&TraceRecord::read(0x100), &mut rec); // same L1 set → evicts dirty 0x000
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0].0, L2RequestKind::ReadIn);
        assert_eq!(rec.events[1].0, L2RequestKind::ReadIn);
        assert_eq!(rec.events[1].1, 0x100);
        assert_eq!(rec.events[2].0, L2RequestKind::WriteBack);
        assert_eq!(rec.events[2].1, 0x000);
        assert_eq!(h.stats().write_backs, 1);
    }

    #[test]
    fn clean_l1_victim_generates_no_write_back() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::read(0x000), &mut rec);
        h.step(&TraceRecord::read(0x100), &mut rec);
        assert!(rec.events.iter().all(|(k, ..)| *k == L2RequestKind::ReadIn));
    }

    #[test]
    fn write_back_hits_and_hint_is_correct() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::write(0x000), &mut rec);
        h.step(&TraceRecord::read(0x100), &mut rec);
        // The write-back of 0x000 finds the block still in L2 where the
        // read-in loaded it.
        let wb = rec
            .events
            .iter()
            .find(|(k, ..)| *k == L2RequestKind::WriteBack)
            .unwrap();
        assert!(wb.2, "write-back hits");
        assert_eq!(wb.3, Some(true), "hint still correct");
        assert_eq!(h.stats().hint_accuracy(), 1.0);
        assert_eq!(h.stats().write_back_hits, 1);
    }

    #[test]
    fn global_and_local_miss_ratios() {
        let mut h = hierarchy();
        // 4 processor refs, all L1 misses (different L1 sets), all L2 misses.
        for i in 0..4u64 {
            h.step(&TraceRecord::read(i * 16), &mut ());
        }
        let s = h.stats();
        assert_eq!(s.processor_refs, 4);
        assert_eq!(s.read_ins, 4);
        assert_eq!(s.global_miss_ratio(), 1.0);
        assert_eq!(s.local_miss_ratio(), 1.0);
        // Re-reference: L1 hits, nothing reaches L2.
        for i in 0..4u64 {
            h.step(&TraceRecord::read(i * 16), &mut ());
        }
        let s = h.stats();
        assert_eq!(s.processor_refs, 8);
        assert!((s.global_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.l1_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l1_miss_l2_hit_counts_as_global_hit() {
        let mut h = hierarchy();
        h.step(&TraceRecord::read(0x000), &mut ());
        h.step(&TraceRecord::read(0x400), &mut ()); // same L1 set (256 B L1), different L2 set? 0x400/16=64, L2 has 16 sets → set 0 again
                                                    // Evict 0x000 from L1 (clean), then re-read it: L1 miss, L2 hit.
        h.step(&TraceRecord::read(0x000), &mut ());
        let s = h.stats();
        assert_eq!(s.read_ins, 3);
        assert_eq!(s.read_in_hits, 1);
    }

    #[test]
    fn flush_clears_both_levels_and_hints() {
        let mut h = hierarchy();
        h.step(&TraceRecord::write(0x000), &mut ());
        h.flush();
        assert_eq!(h.l1().resident_blocks(), 0);
        assert_eq!(h.l2().resident_blocks(), 0);
        assert_eq!(h.stats().flushes, 1);
        // After the flush the same reference misses again.
        h.step(&TraceRecord::read(0x000), &mut ());
        assert_eq!(h.stats().read_ins, 2);
        assert_eq!(h.stats().read_in_hits, 0);
    }

    #[test]
    fn run_handles_flush_events() {
        let mut h = hierarchy();
        let events = vec![
            TraceEvent::Ref(TraceRecord::read(0x00)),
            TraceEvent::Flush,
            TraceEvent::Ref(TraceRecord::read(0x00)),
        ];
        h.run(events, &mut ());
        assert_eq!(h.stats().read_ins, 2, "flush forces the second miss");
    }

    #[test]
    fn larger_l2_blocks_are_supported() {
        let mut h = TwoLevel::new(
            CacheConfig::direct_mapped(256, 16).unwrap(),
            CacheConfig::new(1024, 64, 4).unwrap(),
        )
        .unwrap();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::write(0x010), &mut rec);
        // Read-in is for the 16 B L1 block; L2 sees its 64 B container.
        h.step(&TraceRecord::read(0x020), &mut rec); // L1 set differs? 0x20/16=2 → different L1 set, miss
                                                     // Second read-in falls in the same 64 B L2 block → L2 hit.
        assert_eq!(h.stats().read_ins, 2);
        assert_eq!(h.stats().read_in_hits, 1);
    }

    #[test]
    fn mismatched_block_sizes_are_rejected() {
        let err = TwoLevel::new(
            CacheConfig::direct_mapped(256, 64).unwrap(),
            CacheConfig::new(1024, 16, 4).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, HierarchyError::BlockSizeMismatch { .. }));
        assert!(err.to_string().contains("block size"));
    }

    #[test]
    fn observer_sees_pre_access_state() {
        let mut h = hierarchy();
        let mut first_view_hit = None;
        let mut obs = |req: &L2RequestView<'_>| {
            if first_view_hit.is_none() {
                first_view_hit = Some((req.hit, req.frames.iter().any(|f| f.valid)));
            }
        };
        h.step(&TraceRecord::read(0x40), &mut obs);
        assert_eq!(
            first_view_hit,
            Some((false, false)),
            "first request sees an empty pre-access set"
        );
    }

    #[test]
    fn inclusion_violations_start_at_zero() {
        let mut h = hierarchy();
        for i in 0..32u64 {
            h.step(&TraceRecord::read(i * 16), &mut ());
        }
        // L2 (1024 B) is larger than L1 (256 B) and nothing was evicted
        // from L2 yet that is still live in L1 — violations possible but
        // should be rare; with this footprint (512 B) L2 holds everything.
        assert_eq!(h.inclusion_violations(), 0);
    }

    #[test]
    fn invalidation_drops_block_from_both_levels() {
        let mut h = hierarchy();
        h.step(&TraceRecord::write(0x40), &mut ());
        assert!(h.l1().probe(0x40).is_some());
        assert!(h.l2().probe(0x40).is_some());
        let (l1, l2) = h.invalidate_block(0x40);
        assert!(l1 && l2);
        assert!(h.l1().probe(0x40).is_none());
        assert!(h.l2().probe(0x40).is_none());
        // The next access misses all the way down.
        let before = h.stats().read_ins;
        h.step(&TraceRecord::read(0x40), &mut ());
        assert_eq!(h.stats().read_ins, before + 1);
        assert_eq!(h.stats().read_in_hits, 0);
    }

    #[test]
    fn invalidation_of_absent_block_is_a_no_op() {
        let mut h = hierarchy();
        assert_eq!(h.invalidate_block(0x1234), (false, false));
    }

    #[test]
    fn stats_ratios_empty_hierarchy() {
        let s = TwoLevelStats::default();
        assert_eq!(s.global_miss_ratio(), 0.0);
        assert_eq!(s.local_miss_ratio(), 0.0);
        assert_eq!(s.write_back_fraction(), 0.0);
        assert_eq!(s.hint_accuracy(), 0.0);
    }

    #[test]
    fn ifetch_is_not_a_write() {
        let mut h = hierarchy();
        h.step(&TraceRecord::new(0x40, AccessKind::InstrFetch), &mut ());
        h.step(&TraceRecord::read(0x140), &mut ()); // evict clean block
        assert_eq!(h.stats().write_backs, 0);
    }

    #[test]
    fn stats_merge_counts_componentwise() {
        // Two streams whose segments both start with a flush: running them
        // through separate hierarchies and summing must equal running the
        // concatenation through one hierarchy.
        let stream = |base: u64| {
            let mut v = vec![TraceEvent::Flush];
            v.extend((0..100u64).map(|i| TraceEvent::Ref(TraceRecord::read(base + (i % 23) * 64))));
            v
        };
        let mut whole = hierarchy();
        whole.run(stream(0), &mut ());
        whole.run(stream(0x10000), &mut ());

        let mut a = hierarchy();
        a.run(stream(0), &mut ());
        let mut b = hierarchy();
        b.run(stream(0x10000), &mut ());

        let merged: TwoLevelStats = [*a.stats(), *b.stats()].into_iter().sum();
        assert_eq!(&merged, whole.stats());
    }
}
