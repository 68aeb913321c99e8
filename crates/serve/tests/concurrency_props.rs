//! Concurrency correctness properties of the served cache.
//!
//! Three pinned invariants, exercised at 1/2/16 threads like the sharded
//! sweep's property tests:
//!
//! 1. **Sequential identity** — a 1-thread replay of the bundled Dinero
//!    trace produces shared-cache statistics bit-identical to sequential
//!    [`simulate`], probes included, under every lookup strategy.
//! 2. **Disjoint-key occupancy** — when chunks touch disjoint sets, an
//!    N-thread replay leaves exactly the per-set occupancy (and resident
//!    blocks) of a sequential replay.
//! 3. **Conservation** — client-side and cache-side tallies agree at
//!    every thread count, on arbitrary workloads.

use proptest::prelude::*;
use seta_cache::CacheConfig;
use seta_core::lookup::{
    Banked, Mru, Naive, PartialCompare, ScanOrder, Traditional, TransformKind,
};
use seta_core::{model, StrategyKind};
use seta_serve::loadgen::replay_with_cache;
use seta_serve::{replay, LoadSpec};
use seta_sim::runner::simulate;
use seta_trace::format::DineroReader;
use seta_trace::{TraceEvent, TraceRecord};

const TINY_DIN: &str = include_str!("../../../traces/tiny.din");

fn tiny_events() -> Vec<TraceEvent> {
    DineroReader::new(TINY_DIN.as_bytes())
        .collect::<Result<Vec<_>, _>>()
        .expect("bundled trace parses")
}

fn tiny_geometry() -> (CacheConfig, CacheConfig) {
    (
        CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
        CacheConfig::new(64 * 1024, 32, 4).unwrap(),
    )
}

/// Every variant, with the partial compare at §2.2's 4-bit-compare
/// subset count, so the served cache's packed-lane pricing is compared
/// against the sweep scorer's.
fn every_strategy(assoc: u32) -> Vec<StrategyKind> {
    let subsets = if assoc == 1 {
        1
    } else {
        model::subsets_for_four_bit_compares(16, assoc)
    };
    vec![
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
        StrategyKind::Mru(Mru::truncated(2)),
        StrategyKind::Partial(PartialCompare::new(16, subsets, TransformKind::XorFold)),
        StrategyKind::Banked(Banked::new(2, ScanOrder::Frame)),
        StrategyKind::Banked(Banked::new(2, ScanOrder::Mru)),
    ]
}

#[test]
fn one_thread_replay_is_bit_identical_to_sequential_simulate() {
    let events = tiny_events();
    for assoc in [1, 4, 16] {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(64 * 1024, 32, assoc).unwrap();
        let strategies = every_strategy(assoc);
        let sequential = simulate(l1, l2, events.iter().cloned(), &strategies);
        for (strategy, scored) in strategies.iter().zip(&sequential.strategies) {
            let case = format!("{} at a={assoc}", strategy.name());
            let served = replay(&events, 1, &LoadSpec::new(l1, l2, *strategy));

            assert!(served.conserves(), "{case}: {served:?}");
            assert_eq!(
                served.l2_stats, sequential.l2_stats,
                "{case}: shared-cache stats"
            );
            assert_eq!(
                served.l1_stats, sequential.l1_stats,
                "{case}: private L1 stats"
            );
            assert_eq!(served.refs, sequential.hierarchy.processor_refs, "{case}");
            assert_eq!(served.read_ins, sequential.hierarchy.read_ins, "{case}");
            assert_eq!(
                served.read_in_hits, sequential.hierarchy.read_in_hits,
                "{case}"
            );
            assert_eq!(
                served.write_backs, sequential.hierarchy.write_backs,
                "{case}"
            );
            assert_eq!(
                served.l2_probes, scored.probes,
                "{case}: probe pricing matches the sweep scorer"
            );
        }
    }
}

#[test]
fn disjoint_key_chunks_match_sequential_occupancy() {
    // 64-set shared cache; four chunks, each touching only its own 16
    // sets, read-only (so no cross-chunk write-back traffic exists). The
    // final contents must then be independent of interleaving.
    let l1 = CacheConfig::direct_mapped(512, 16).unwrap();
    let l2 = CacheConfig::new(8 * 1024, 32, 4).unwrap(); // 64 sets
    let num_sets = l2.num_sets();
    assert_eq!(num_sets, 64);

    let sets_per_chunk = 16u64;
    let block = 32u64;
    let mut events = Vec::new();
    for chunk in 0..4u64 {
        for i in 0..600u64 {
            let set = chunk * sets_per_chunk + (i % sets_per_chunk);
            // Vary the tag so sets see misses, evictions and re-hits.
            let tag = (i / sets_per_chunk) % 7;
            let addr = (tag * num_sets + set) * block;
            events.push(TraceEvent::Ref(TraceRecord::read(addr)));
        }
    }

    let mut spec = LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
    spec.chunks = Some(4);
    let (base, base_cache) = replay_with_cache(&events, 1, &spec);
    assert!(base.conserves());

    for threads in [2usize, 16] {
        let (out, cache) = replay_with_cache(&events, threads, &spec);
        assert!(out.conserves(), "{threads} threads");
        assert_eq!(out.requests, base.requests, "{threads} threads");
        for set in 0..num_sets {
            assert_eq!(
                cache.occupancy(set),
                base_cache.occupancy(set),
                "set {set} at {threads} threads"
            );
        }
        let mut got = cache.resident_addrs();
        let mut want = base_cache.resident_addrs();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Client and cache tallies conserve for arbitrary mixed workloads at
    /// 1, 2 and 16 threads.
    #[test]
    fn counters_conserve_at_all_thread_counts(
        addrs in proptest::collection::vec((0u64..0x8000, any::<bool>()), 50..400),
        flush_at in 0usize..500,
    ) {
        let (l1, l2) = tiny_geometry();
        let mut events: Vec<TraceEvent> = addrs
            .iter()
            .map(|&(a, w)| {
                TraceEvent::Ref(if w { TraceRecord::write(a) } else { TraceRecord::read(a) })
            })
            .collect();
        // Values past the workload length mean "no flush" — the vendored
        // proptest subset has no option combinator.
        if flush_at < 400 {
            events.insert(flush_at.min(events.len()), TraceEvent::Flush);
        }
        let spec = LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
        let expected_refs = addrs.len() as u64;
        for threads in [1usize, 2, 16] {
            let out = replay(&events, threads, &spec);
            prop_assert_eq!(out.refs, expected_refs, "{} threads", threads);
            prop_assert!(out.conserves(), "{} threads: {:?}", threads, out);
        }
    }
}
