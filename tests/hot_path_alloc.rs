//! Allocation gate for the per-access hot paths.
//!
//! A counting global allocator tallies the allocations made by the
//! measuring thread. The set layout prices every lookup against a borrowed
//! view of the set and fills misses in place, so these paths must not
//! allocate at all per access:
//!
//! * `Cache::access` (every L1 reference and every L2 request);
//! * `TwoLevel::run` with no observer over a cold trace;
//! * the sweep's filtered path: `filter_l1` into a reserved buffer, then
//!   `L2Half::replay` of that buffer with no observer;
//! * `ConcurrentCache::get` / `insert`, inside the stripe lock.
//!
//! `simulate` allocates its outcome and scorer once per run, so its count
//! must not grow with the number of events.
//!
//! The file holds one test so nothing else runs in the process while it
//! counts.

use seta::cache::{filter_l1, Cache, CacheConfig, L2Half, Policy, TwoLevel, TwoLevelStats};
use seta::core::lookup::Mru;
use seta::core::StrategyKind;
use seta::serve::ConcurrentCache;
use seta::sim::runner::{simulate, standard_strategies};
use seta::trace::gen::{AtumLike, AtumLikeConfig};
use seta::trace::TraceEvent;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations per
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` keeps the allocator usable while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only touches a const-initialized thread local,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `n` block addresses from an xorshift stream over `span` bytes.
fn addresses(n: usize, span: u64) -> Vec<u64> {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % span
        })
        .collect()
}

fn cold_trace() -> Vec<TraceEvent> {
    let mut cfg = AtumLikeConfig::paper_like();
    cfg.segments = 5;
    cfg.refs_per_segment = 4_000;
    AtumLike::new(cfg, 0xA110C).collect()
}

#[test]
fn hot_paths_do_not_allocate_per_access() {
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
    let l2 = CacheConfig::new(64 * 1024, 32, 16).unwrap();
    // Four times the L2's capacity: hits, misses and dirty evictions.
    let addrs = addresses(100_000, 4 * l2.size_bytes());

    let mut cache = Cache::new(l2);
    let (n, hits) = allocations(|| {
        addrs
            .iter()
            .enumerate()
            .filter(|&(i, &a)| cache.access(a, i % 3 == 0).hit)
            .count()
    });
    assert!(
        hits > 0 && hits < addrs.len(),
        "the stream mixes hits and misses"
    );
    assert_eq!(n, 0, "100k Cache::access calls allocated {n} times");

    let events = cold_trace();
    assert!(events.iter().any(TraceEvent::is_flush));
    let strategies = standard_strategies(l2.associativity(), 16);
    let mut h = TwoLevel::new(l1, l2).unwrap();
    if let Some(spec) = strategies.iter().find_map(|s| s.lane_spec(16)) {
        assert!(h.enable_partial_lanes(spec));
    }
    let (n, ()) = allocations(|| h.run(events.iter().copied(), &mut ()));
    assert!(h.stats().l2_requests() > 0);
    assert_eq!(
        n,
        0,
        "TwoLevel::run over {} events allocated {n} times",
        events.len()
    );

    let mut l1_cache = Cache::new(l1);
    let mut l1_side = TwoLevelStats::default();
    let mut filtered = Vec::with_capacity(events.len());
    let (n, ()) = allocations(|| {
        filter_l1(
            &mut l1_cache,
            events.iter().copied(),
            &mut l1_side,
            &mut filtered,
        )
    });
    assert_eq!(l1_side.processor_refs, h.stats().processor_refs);
    assert_eq!(
        n,
        0,
        "filter_l1 over {} events allocated {n} times",
        events.len()
    );
    let mut half = L2Half::new(l1, l2, Policy::Lru, 0).unwrap();
    if let Some(spec) = strategies.iter().find_map(|s| s.lane_spec(16)) {
        assert!(half.enable_partial_lanes(spec));
    }
    let mut l2_side = TwoLevelStats::default();
    let (n, ()) = allocations(|| half.replay(&filtered, &mut l2_side, &mut ()));
    assert_eq!(l2_side.l2_requests(), h.stats().l2_requests());
    assert_eq!(
        n,
        0,
        "L2Half::replay of {} filtered events allocated {n} times",
        filtered.len()
    );

    let shared = ConcurrentCache::new(l2, StrategyKind::Mru(Mru::full()), 16);
    let (n, ()) = allocations(|| {
        for (i, &a) in addrs.iter().enumerate() {
            if i % 4 == 0 {
                shared.insert(a);
            } else {
                shared.get(a);
            }
        }
    });
    assert_eq!(shared.stats().accesses(), addrs.len() as u64);
    assert_eq!(n, 0, "100k get/insert calls allocated {n} times");

    let (short, _) = allocations(|| simulate(l1, l2, events[..1_000].iter().copied(), &strategies));
    let (long, _) = allocations(|| simulate(l1, l2, events.iter().copied(), &strategies));
    assert_eq!(
        short,
        long,
        "simulate allocated {short} times over 1k events but {long} over {}",
        events.len()
    );
}
