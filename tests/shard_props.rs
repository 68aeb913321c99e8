//! Property tests for the sharded sweep runner: splitting a cold-start
//! trace into per-segment shards and merging the counters is invisible.
//! For any sweep spec, `simulate_many` — at any worker count, including
//! the sequential fallback — returns `RunOutcome`s bit-identical to a
//! plain per-spec `simulate` over the whole trace. That holds as well when
//! several specs share one trace and replay a single generation of each
//! segment.

use proptest::prelude::*;
use seta::cache::CacheConfig;
use seta::sim::runner::{
    simulate, simulate_many, simulate_many_with_threads, standard_strategies, RunSpec,
};
use seta::trace::gen::{AtumLike, AtumLikeConfig, MultiprogramConfig};

/// The cache shapes the generated sweeps draw from: distinct L1/L2
/// geometries, every one a valid hierarchy.
fn geometry(shape: usize) -> (CacheConfig, CacheConfig) {
    match shape {
        0 => (
            CacheConfig::direct_mapped(256, 16).expect("valid L1"),
            CacheConfig::new(2048, 32, 4).expect("valid L2"),
        ),
        1 => (
            CacheConfig::direct_mapped(512, 32).expect("valid L1"),
            CacheConfig::new(4096, 32, 8).expect("valid L2"),
        ),
        2 => (
            CacheConfig::new(512, 16, 2).expect("valid L1"),
            CacheConfig::new(2048, 16, 4).expect("valid L2"),
        ),
        3 => (
            CacheConfig::direct_mapped(256, 16).expect("valid L1"),
            CacheConfig::new(4096, 32, 16).expect("valid L2"),
        ),
        _ => (
            CacheConfig::new(512, 16, 2).expect("valid L1"),
            CacheConfig::new(2048, 32, 2).expect("valid L2"),
        ),
    }
}

/// A short-quantum trace, so even tiny segments context switch and touch
/// the OS stream.
fn trace_config(segments: usize, refs_per_segment: u64, cold: bool) -> AtumLikeConfig {
    AtumLikeConfig {
        segments,
        refs_per_segment,
        flush_between_segments: cold,
        multiprogram: MultiprogramConfig {
            mean_quantum: 50,
            os_burst: 8,
            ..MultiprogramConfig::default()
        },
    }
}

/// A small but structurally complete sweep spec: 1–4 segments, cold or
/// warm, mixed cache shapes.
fn arbitrary_spec() -> impl Strategy<Value = RunSpec> {
    (
        (1usize..=4, 100u64..400),
        (any::<bool>(), any::<u64>(), 0usize..3),
    )
        .prop_map(|((segments, refs_per_segment), (cold, seed, shape))| {
            let (l1, l2) = geometry(shape);
            RunSpec {
                l1,
                l2,
                trace: trace_config(segments, refs_per_segment, cold),
                seed,
                tag_bits: 14,
            }
        })
}

/// A sweep whose specs mostly share one trace: 2–5 cold specs on one
/// (trace, seed) over distinct geometries, a twin of the first with the
/// same L1 and another L2 associativity (so one L1 pass always feeds two
/// L2s), plus one cold spec on another seed and one warm spec, all in
/// random order.
fn shared_trace_sweep() -> impl Strategy<Value = Vec<RunSpec>> {
    (
        (1usize..=4, 100u64..400, any::<u64>()),
        (2usize..=5, 0usize..5, any::<u64>(), 1usize..5),
    )
        .prop_map(
            |((segments, refs_per_segment, seed), (sharing, first_shape, order, twin_step))| {
                let spec = |shape: usize, seed: u64, cold: bool| {
                    let (l1, l2) = geometry(shape % 5);
                    RunSpec {
                        l1,
                        l2,
                        trace: trace_config(segments, refs_per_segment, cold),
                        seed,
                        tag_bits: 14,
                    }
                };
                let mut specs: Vec<RunSpec> = (0..sharing)
                    .map(|i| spec(first_shape + i, seed, true))
                    .collect();
                let mut twin = specs[0].clone();
                let assocs = [1u32, 2, 4, 8, 16];
                let at = assocs
                    .iter()
                    .position(|&a| a == twin.l2.associativity())
                    .expect("every shape's L2 associativity is listed");
                twin.l2 = CacheConfig::new(
                    twin.l2.size_bytes(),
                    twin.l2.block_size(),
                    assocs[(at + twin_step) % assocs.len()],
                )
                .expect("valid L2");
                specs.push(twin);
                specs.push(spec(first_shape, seed.wrapping_add(1), true));
                specs.push(spec(first_shape + 1, seed, false));
                // Fisher–Yates driven by a splitmix64 stream from `order`.
                let mut state = order;
                for i in (1..specs.len()).rev() {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    specs.swap(i, (z % (i as u64 + 1)) as usize);
                }
                specs
            },
        )
}

/// Bit-identity via serialization, as in `explain_props`: two outcomes
/// are the same iff every field (including f64 ratios) agrees exactly.
fn fingerprint(outcome: &seta::sim::RunOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

/// The unsharded reference: one sequential pass over the whole trace.
fn sequential(spec: &RunSpec) -> String {
    let strategies = standard_strategies(spec.l2.associativity(), spec.tag_bits);
    fingerprint(&simulate(
        spec.l1,
        spec.l2,
        AtumLike::new(spec.trace.clone(), spec.seed),
        &strategies,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded work queue returns outcomes bit-identical to the
    /// sequential reference, in spec order, at every worker count —
    /// sequential fallback (1), fewer workers than shards, and more
    /// workers than shards.
    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential(
        specs in proptest::collection::vec(arbitrary_spec(), 1..=3),
    ) {
        let expected: Vec<String> = specs.iter().map(sequential).collect();
        for threads in [1usize, 2, 16] {
            let outcomes = simulate_many_with_threads(&specs, threads);
            prop_assert_eq!(outcomes.len(), specs.len());
            for (i, out) in outcomes.iter().enumerate() {
                prop_assert_eq!(
                    &fingerprint(out),
                    &expected[i],
                    "spec {} diverged at {} worker(s)",
                    i,
                    threads
                );
            }
        }
    }

    /// Specs sharing one trace and seed replay a single generation of
    /// each segment; every spec's outcome still equals its own sequential
    /// pass, at every worker count — including 16 workers, where the
    /// short trace splits the group into spec slices.
    #[test]
    fn shared_trace_sweep_is_bit_identical_to_sequential(specs in shared_trace_sweep()) {
        let expected: Vec<String> = specs.iter().map(sequential).collect();
        for threads in [1usize, 2, 16] {
            let outcomes = simulate_many_with_threads(&specs, threads);
            prop_assert_eq!(outcomes.len(), specs.len());
            for (i, out) in outcomes.iter().enumerate() {
                prop_assert_eq!(
                    &fingerprint(out),
                    &expected[i],
                    "spec {} diverged at {} worker(s)",
                    i,
                    threads
                );
            }
        }
    }

    /// The default entry point (auto-sized worker pool) agrees too.
    #[test]
    fn default_worker_pool_agrees_with_sequential(spec in arbitrary_spec()) {
        let expected = sequential(&spec);
        let outcomes = simulate_many(std::slice::from_ref(&spec));
        prop_assert_eq!(outcomes.len(), 1);
        prop_assert_eq!(&fingerprint(&outcomes[0]), &expected);
    }
}
