//! Property tests over the full stack: arbitrary reference streams through
//! the two-level hierarchy with all strategies attached.

use proptest::prelude::*;
use seta::cache::{
    filter_l1, Cache, CacheConfig, FilteredEvent, L2Half, L2RequestKind, L2RequestView, Policy,
    TwoLevel, TwoLevelStats,
};
use seta::sim::runner::{simulate, standard_strategies};
use seta::trace::{TraceEvent, TraceRecord};

/// What an observer sees of one L2 request: kind, address, hit way, MRU
/// distance and, for write-backs, whether the position hint was correct.
type Request = (L2RequestKind, u64, Option<u8>, Option<usize>, Option<bool>);

fn request(req: &L2RequestView<'_>) -> Request {
    (
        req.kind,
        req.addr,
        req.hit_way,
        req.mru_distance,
        req.hint_correct,
    )
}

fn arbitrary_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        prop_oneof![
            9 => (0u64..0x8000, 0u8..3).prop_map(|(addr, k)| TraceEvent::Ref(match k {
                0 => TraceRecord::read(addr),
                1 => TraceRecord::write(addr),
                _ => TraceRecord::ifetch(addr),
            })),
            1 => Just(TraceEvent::Flush),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hierarchy never over-fills either level and its counters add up.
    #[test]
    fn hierarchy_counters_are_consistent(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(1024, 32, 4).expect("valid L2");
        let mut h = TwoLevel::new(l1, l2).expect("compatible levels");
        h.run(events.iter().copied(), &mut ());
        let s = h.stats();

        let refs = events.iter().filter(|e| !e.is_flush()).count() as u64;
        let flushes = events.iter().filter(|e| e.is_flush()).count() as u64;
        prop_assert_eq!(s.processor_refs, refs);
        prop_assert_eq!(s.flushes, flushes);
        prop_assert!(s.read_ins <= s.processor_refs);
        prop_assert!(s.read_in_hits <= s.read_ins);
        prop_assert!(s.write_backs <= s.read_ins, "at most one wb per miss");
        prop_assert!(s.write_back_hits <= s.write_backs);
        prop_assert!(h.l1().resident_blocks() <= 16);
        prop_assert!(h.l2().resident_blocks() <= 32);
        prop_assert!(s.global_miss_ratio() <= s.l1_miss_ratio() + 1e-12);
    }

    /// Every strategy agrees with the cache on every hit/miss, for any
    /// stream (enforced by a debug assertion in the runner; this exercises
    /// it and checks the aggregate counts).
    #[test]
    fn strategies_agree_on_arbitrary_streams(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(2048, 32, 8).expect("valid L2");
        let out = simulate(l1, l2, events, &standard_strategies(8, 16));
        for s in &out.strategies {
            prop_assert_eq!(s.probes.hits.count, out.hierarchy.read_in_hits);
        }
    }

    /// Replaying the same stream twice from a fresh hierarchy gives
    /// identical results (full determinism end to end).
    #[test]
    fn simulation_is_deterministic(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(1024, 16, 4).expect("valid L2");
        let a = simulate(l1, l2, events.iter().copied(), &standard_strategies(4, 16));
        let b = simulate(l1, l2, events, &standard_strategies(4, 16));
        prop_assert_eq!(a.hierarchy, b.hierarchy);
        for (x, y) in a.strategies.iter().zip(&b.strategies) {
            prop_assert_eq!(x.probes, y.probes);
        }
    }

    /// Filtering a trace through an L1 once and replaying the misses into
    /// several L2s gives each L2 exactly what `TwoLevel::run` gives it:
    /// the same hierarchy counters, per-level statistics and observed
    /// request sequence. The L2s are served miss by miss in turn, so hints
    /// shared between them would diverge; each write-back's hint is also
    /// checked against the way its block's read-in filled (tracked here,
    /// outside the L2 half), so a hint read after the read-in overwrote it
    /// fails even where both paths agree.
    #[test]
    fn filtered_replay_matches_two_level_run(events in arbitrary_events()) {
        let l1s = [
            CacheConfig::direct_mapped(256, 16).expect("valid L1"),
            CacheConfig::new(512, 16, 2).expect("valid L1"),
        ];
        for l1 in l1s {
            let mut cache = Cache::new(l1);
            let mut l1_side = TwoLevelStats::default();
            let mut filtered = Vec::new();
            filter_l1(&mut cache, events.iter().copied(), &mut l1_side, &mut filtered);

            let l2s = [2u32, 4, 16].map(|a| CacheConfig::new(2048, 32, a).expect("valid L2"));
            let mut halves: Vec<L2Half> = l2s
                .iter()
                .map(|&l2| L2Half::new(l1, l2, Policy::Lru, 0).expect("compatible levels"))
                .collect();
            let mut stats = [TwoLevelStats::default(); 3];
            let mut seen: [Vec<Request>; 3] = Default::default();
            // The way each L1 frame's block was read into, per L2.
            let mut filled = vec![vec![None; l1.num_frames() as usize]; 3];
            for event in &filtered {
                for (k, half) in halves.iter_mut().enumerate() {
                    let miss = match *event {
                        FilteredEvent::Miss(miss) => miss,
                        FilteredEvent::Flush => {
                            half.flush();
                            filled[k].fill(None);
                            continue;
                        }
                    };
                    let hint = filled[k][miss.frame];
                    let seen = &mut seen[k];
                    let mut observe = |r: &L2RequestView<'_>| seen.push(request(r));
                    half.serve(miss, &mut stats[k], &mut observe);
                    if miss.write_back.is_some() {
                        let (kind, _, hit_way, _, hint_correct) = *seen.last().expect("observed");
                        prop_assert_eq!(kind, L2RequestKind::WriteBack);
                        prop_assert_eq!(hint_correct, Some(hint.is_some() && hint == hit_way));
                    }
                    filled[k][miss.frame] = half.cache().probe(miss.read_addr);
                }
            }

            for (k, &l2) in l2s.iter().enumerate() {
                let mut reference = TwoLevel::new(l1, l2).expect("compatible levels");
                let mut expected = Vec::new();
                reference.run(events.iter().copied(), &mut |r: &L2RequestView<'_>| {
                    expected.push(request(r))
                });
                let mut combined = stats[k];
                combined += l1_side;
                prop_assert_eq!(&combined, reference.stats(), "a={}", l2.associativity());
                prop_assert_eq!(
                    (*cache.stats(), *halves[k].cache().stats()),
                    reference.level_stats()
                );
                prop_assert_eq!(&seen[k], &expected, "a={}", l2.associativity());
            }
        }
    }

    /// A flush at any point erases all state: the next reference misses.
    #[test]
    fn flush_always_cold_starts(mut events in arbitrary_events()) {
        events.push(TraceEvent::Flush);
        events.push(TraceEvent::Ref(TraceRecord::read(0x40)));
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(1024, 16, 4).expect("valid L2");
        let mut h = TwoLevel::new(l1, l2).expect("compatible levels");
        let before_last: Vec<_> = events[..events.len() - 1].to_vec();
        h.run(before_last, &mut ());
        let read_ins = h.stats().read_ins;
        let hits = h.stats().read_in_hits;
        h.process(&events[events.len() - 1], &mut ());
        prop_assert_eq!(h.stats().read_ins, read_ins + 1, "post-flush ref reaches L2");
        prop_assert_eq!(h.stats().read_in_hits, hits, "and misses there");
    }
}
