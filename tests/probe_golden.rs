//! Golden probe counts: exact totals for every lookup scheme and every
//! simulation path, pinned as numbers.
//!
//! Probe counts are a function of the inputs alone, so they are the same
//! on every machine, compiler and codegen target. A change to any number
//! below is either an intentional change to an algorithm (update the
//! number and say why) or a bug. The inputs are fixed: a xorshift batch
//! of sets for the per-lookup counts, the bundled `traces/tiny.din` for
//! the hierarchy paths, and one seeded six-segment synthetic trace for
//! the sharded sweep. Next to each count the test asserts the identity
//! that keeps the alternative paths honest: traced, explained, sharded
//! and served runs must match the plain sequential simulation.

use seta::cache::CacheConfig;
use seta::core::lookup::{
    Banked, Mru, Naive, PartialCompare, ScanOrder, StrategyKind, Traditional, TransformKind,
};
use seta::core::{PackedLanes, SetView};
use seta::serve::{replay, replay_contended, LoadSpec};
use seta::sim::explain::{explain, ExplainConfig};
use seta::sim::runner::{
    simulate, simulate_many_with_threads, simulate_traced, standard_strategies, RunOutcome, RunSpec,
};
use seta::trace::format::DineroReader;
use seta::trace::gen::{AtumLike, AtumLikeConfig};
use seta::trace::TraceEvent;

const TINY_DIN: &str = include_str!("../traces/tiny.din");

fn tiny_events() -> Vec<TraceEvent> {
    DineroReader::new(TINY_DIN.as_bytes())
        .collect::<Result<Vec<_>, _>>()
        .expect("bundled trace parses")
}

/// The hierarchy every `tiny.din` check runs: a 4K direct-mapped L1 with
/// 16-byte blocks over a 64K 4-way L2 with 32-byte blocks.
fn tiny_geometry() -> (CacheConfig, CacheConfig) {
    (
        CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1"),
        CacheConfig::new(64 * 1024, 32, 4).expect("valid L2"),
    )
}

/// Total probes a finished run charged, across every strategy and request
/// kind.
fn outcome_probes(out: &RunOutcome) -> u64 {
    out.strategies
        .iter()
        .map(|s| {
            s.probes.hits.probes
                + s.probes.misses.probes
                + s.probes.write_backs.probes
                + s.probes_no_opt.write_backs.probes
        })
        .sum()
}

/// Debug formatting is a faithful fingerprint of every counter and float.
fn fingerprint(out: &RunOutcome) -> String {
    format!("{out:?}")
}

/// A batch of generated sets and probe tags, laid out like a cache bank:
/// a tag row, a valid mask and a recency list per set.
struct ViewBatch {
    ways: usize,
    tags: Vec<u64>,
    valid: Vec<u32>,
    order: Vec<u8>,
    probes: Vec<u64>,
}

impl ViewBatch {
    fn iter(&self) -> impl Iterator<Item = (SetView<'_>, u64)> + '_ {
        self.probes.iter().enumerate().map(move |(i, &probe)| {
            let row = i * self.ways..(i + 1) * self.ways;
            let view = SetView::from_mask(&self.tags[row.clone()], self.valid[i], &self.order[row]);
            (view, probe)
        })
    }
}

/// A deterministic batch of `n` sets of `ways` ways with probe tags,
/// xorshift-mixed from a fixed seed (no RNG dependency, so the stream can
/// never drift with a library upgrade). The draw order is part of the
/// golden: the pinned lookup counts hold for exactly this sequence.
fn lookup_batch_ways(n: usize, ways: usize) -> ViewBatch {
    // Low bits that keep per-way tag uniqueness; 3 at ways ≤ 8, 4 at 16.
    let shift = u64::from((usize::BITS - (ways - 1).leading_zeros()).max(3));
    let mut state = 0x5E7A_BE2C_u64 ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut batch = ViewBatch {
        ways,
        tags: Vec::with_capacity(n * ways),
        valid: Vec::with_capacity(n),
        order: Vec::with_capacity(n * ways),
        probes: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let base = batch.tags.len();
        for w in 0..ways {
            // Unique per way (cache invariant) and 16-bit-ish.
            batch.tags.push(((next() & 0x1FFF) << shift) | w as u64);
        }
        let mut valid = 0u32;
        for w in 0..ways {
            if next() % 10 != 0 {
                valid |= 1 << w; // ~90% occupancy
            }
        }
        batch.valid.push(valid);
        let mut order: Vec<u8> = (0..ways as u8).collect();
        for i in (1..ways).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        batch.order.extend_from_slice(&order);
        let probe = if next() % 10 < 7 {
            batch.tags[base + (next() % ways as u64) as usize] // resident ~70% of the time
        } else {
            ((next() & 0x1FFF) << shift) | (ways as u64 - 1) // usually absent
        };
        batch.probes.push(probe);
    }
    batch
}

/// The five lookup schemes at one associativity, in the order of the
/// golden table. Partial compare follows §2.2's 4-bit-compare rule at
/// t = 16: s = 1, 2, 4 for a = 4, 8, 16, so k stays 4 bits throughout.
fn five_schemes(ways: usize) -> [(&'static str, StrategyKind); 5] {
    let subsets = (ways as u32 / 4).max(1);
    [
        ("traditional", StrategyKind::Traditional(Traditional)),
        ("naive", StrategyKind::Naive(Naive)),
        ("mru", StrategyKind::Mru(Mru::full())),
        (
            "partial",
            StrategyKind::Partial(PartialCompare::new(16, subsets, TransformKind::XorFold)),
        ),
        (
            "banked",
            StrategyKind::Banked(Banked::new(2, ScanOrder::Frame)),
        ),
    ]
}

#[test]
fn lookup_probe_totals_over_1024_generated_sets_are_pinned() {
    // Per associativity: traditional, naive, mru, partial, banked.
    let golden: [(usize, [u64; 5]); 3] = [
        (8, [1024, 6016, 6997, 2599, 3172]),
        (4, [1024, 3146, 4149, 1753, 1729]),
        (16, [1024, 11448, 12339, 4217, 5889]),
    ];
    for (ways, want) in golden {
        let batch = lookup_batch_ways(1024, ways);
        let views: Vec<(SetView<'_>, u64)> = batch.iter().collect();
        for ((name, scheme), want) in five_schemes(ways).into_iter().zip(want) {
            let got: u64 = views
                .iter()
                .map(|(view, tag)| u64::from(scheme.lookup(view, *tag).probes))
                .sum();
            assert_eq!(got, want, "a={ways} {name}: lookup probe total");
        }

        // Partial compare as the simulator prices it: over lane words the
        // cache keeps packed at fill time. Both paths must agree.
        let StrategyKind::Partial(partial) = five_schemes(ways)[3].1 else {
            unreachable!("the fourth scheme is partial compare")
        };
        let spec = partial
            .lane_spec(ways)
            .expect("partial compare packs lanes");
        let mut lanes = PackedLanes::new(spec, views.len());
        for (set, (view, _)) in views.iter().enumerate() {
            lanes.rebuild_set(set, view.tags());
        }
        let packed: u64 = views
            .iter()
            .enumerate()
            .map(|(set, (view, tag))| {
                u64::from(partial.lookup_packed(view, &lanes.view(set), *tag).probes)
            })
            .sum();
        assert_eq!(packed, want[3], "a={ways} partial: packed-lane probe total");
    }
}

#[test]
fn tiny_din_probe_total_is_pinned_on_every_hierarchy_path() {
    let events = tiny_events();
    let (l1, l2) = tiny_geometry();
    let strategies = standard_strategies(4, 16);

    let plain = simulate(l1, l2, events.iter().copied(), &strategies);
    assert_eq!(outcome_probes(&plain), 5_270, "probe total");
    assert_eq!(plain.hierarchy.processor_refs, 8_000, "processor refs");

    let (traced, spans) = simulate_traced(l1, l2, events.iter().copied(), &strategies);
    assert_eq!(
        fingerprint(&traced),
        fingerprint(&plain),
        "traced ≡ simulate"
    );
    assert!(!spans.is_empty(), "traced run recorded no spans");

    let (explained, _report) = explain(
        l1,
        l2,
        events.iter().copied(),
        &strategies,
        &ExplainConfig::default(),
    );
    assert_eq!(
        fingerprint(&explained),
        fingerprint(&plain),
        "explain ≡ simulate"
    );
}

#[test]
fn six_segment_sweep_probe_total_is_pinned_and_sharding_is_invisible() {
    let spec = RunSpec {
        l1: CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1"),
        l2: CacheConfig::new(64 * 1024, 32, 4).expect("valid L2"),
        trace: AtumLikeConfig {
            segments: 6,
            refs_per_segment: 25_000,
            ..AtumLikeConfig::paper_like()
        },
        seed: 0xBE9C,
        tag_bits: 16,
    };
    let sequential = simulate(
        spec.l1,
        spec.l2,
        AtumLike::new(spec.trace.clone(), spec.seed),
        &standard_strategies(spec.l2.associativity(), spec.tag_bits),
    );
    assert_eq!(outcome_probes(&sequential), 148_096, "probe total");
    assert_eq!(
        sequential.hierarchy.processor_refs, 150_000,
        "processor refs"
    );

    let sharded = simulate_many_with_threads(std::slice::from_ref(&spec), 2);
    assert_eq!(
        fingerprint(&sharded[0]),
        fingerprint(&sequential),
        "2-worker sharded sweep ≡ sequential"
    );
}

#[test]
fn served_tiny_din_probe_total_is_pinned_and_requests_conserve() {
    let (l1, l2) = tiny_geometry();
    let mru = StrategyKind::Mru(Mru::full());
    let events: Vec<TraceEvent> = std::iter::repeat(tiny_events()).take(8).flatten().collect();
    let spec = LoadSpec::new(l1, l2, mru);

    let sequential = simulate(l1, l2, events.iter().copied(), &[mru]);
    let one = replay(&events, 1, &spec);
    assert_eq!(
        one.l2_stats, sequential.l2_stats,
        "1-thread serve ≡ simulate"
    );
    assert_eq!(
        one.l2_probes, sequential.strategies[0].probes,
        "1-thread serve probes ≡ simulate"
    );
    assert_eq!(one.probes, 14_912, "1-thread probe total");

    for threads in [1, 2, 4] {
        let out = replay(&events, threads, &spec);
        assert!(out.conserves(), "{threads} threads: {out:?}");
        assert_eq!(out.requests, 5_424, "{threads} threads: requests");
    }

    let (contended, contention) = replay_contended(&events, 4, &spec);
    assert!(contended.conserves(), "{contended:?}");
    assert_eq!(
        contention.total_accesses(),
        contended.l2_stats.accesses(),
        "per-stripe accesses sum to the cache's own total"
    );
}
