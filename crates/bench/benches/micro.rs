//! Micro-benchmarks for the building blocks: tag transforms, the trace
//! generator, raw hierarchy throughput and the alternative cache
//! organizations. Per-lookup cost of each strategy is timed by the
//! `core.lookup.*` layers of the standalone benchmark in `perfbench/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seta_cache::{CacheConfig, HashRehashCache, MattsonAnalyzer, MultiLevel, SwapTwoWay, TwoLevel};
use seta_core::transform::{Improved, TagTransform, XorFold};
use seta_trace::gen::{AtumLike, AtumLikeConfig, Multiprogram, MultiprogramConfig};
use std::hint::black_box;

fn bench_transforms(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tags: Vec<u64> = (0..4096).map(|_| rng.gen::<u64>() & 0xFFFF_FFFF).collect();
    let transforms: Vec<(&str, Box<dyn TagTransform>)> = vec![
        ("xor_fold_32_4", Box::new(XorFold::new(32, 4))),
        ("improved_32_4", Box::new(Improved::new(32, 4))),
    ];
    let mut g = c.benchmark_group("transform");
    g.throughput(Throughput::Elements(tags.len() as u64));
    for (name, t) in &transforms {
        g.bench_with_input(BenchmarkId::new("forward", name), t, |b, t| {
            b.iter(|| {
                let mut acc = 0u64;
                for &tag in &tags {
                    acc ^= t.forward(tag);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("round_trip", name), t, |b, t| {
            b.iter(|| {
                let mut acc = 0u64;
                for &tag in &tags {
                    acc ^= t.inverse(t.forward(tag));
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_trace_generator(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut g = c.benchmark_group("trace_gen");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.bench_function("multiprogram_100k", |b| {
        b.iter(|| {
            let mut m = Multiprogram::new(MultiprogramConfig::default(), 11).expect("valid");
            let mut acc = 0u64;
            for _ in 0..N {
                acc ^= m.next_record().addr;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_hierarchy_throughput(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut cfg = AtumLikeConfig::paper_like();
    cfg.segments = 1;
    cfg.refs_per_segment = N;
    let events: Vec<_> = AtumLike::new(cfg, 5).collect();
    let l1 = CacheConfig::direct_mapped(16 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(256 * 1024, 32, 4).expect("valid L2");
    let mut g = c.benchmark_group("hierarchy");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.bench_function("two_level_100k_refs", |b| {
        b.iter(|| {
            let mut h = TwoLevel::new(l1, l2).expect("compatible");
            h.run(events.iter().copied(), &mut ());
            black_box(h.stats().read_ins)
        })
    });
    g.finish();
}

fn bench_alternative_organizations(c: &mut Criterion) {
    const N: usize = 100_000;
    let mut rng = StdRng::seed_from_u64(17);
    let addrs: Vec<u64> = (0..N)
        .map(|_| rng.gen_range(0u64..(1 << 22)) & !15)
        .collect();
    let mut g = c.benchmark_group("organization");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    g.bench_function("hash_rehash_100k", |b| {
        b.iter(|| {
            let mut cache =
                HashRehashCache::new(CacheConfig::direct_mapped(64 * 1024, 16).expect("valid"))
                    .expect("valid");
            for &a in &addrs {
                cache.access(a, false);
            }
            black_box(cache.stats().misses())
        })
    });
    g.bench_function("swap_two_way_100k", |b| {
        b.iter(|| {
            let mut cache =
                SwapTwoWay::new(CacheConfig::new(64 * 1024, 16, 2).expect("valid")).expect("valid");
            for &a in &addrs {
                cache.access(a, false);
            }
            black_box(cache.stats().misses())
        })
    });
    g.bench_function("mattson_100k", |b| {
        b.iter(|| {
            let mut analyzer = MattsonAnalyzer::new(16, 1024);
            for &a in &addrs {
                analyzer.observe(a);
            }
            black_box(analyzer.misses(4))
        })
    });
    g.finish();
}

fn bench_multilevel_throughput(c: &mut Criterion) {
    const N: u64 = 50_000;
    let mut cfg = AtumLikeConfig::paper_like();
    cfg.segments = 1;
    cfg.refs_per_segment = N;
    let events: Vec<_> = AtumLike::new(cfg, 5).collect();
    let configs = vec![
        CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1"),
        CacheConfig::new(64 * 1024, 32, 4).expect("valid L2"),
        CacheConfig::new(512 * 1024, 64, 8).expect("valid L3"),
    ];
    let mut g = c.benchmark_group("hierarchy");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.bench_function("three_level_50k_refs", |b| {
        b.iter(|| {
            let mut h = MultiLevel::new(configs.clone()).expect("valid hierarchy");
            h.run(events.iter().copied(), &mut ());
            black_box(h.global_miss_ratio())
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_transforms,
    bench_trace_generator,
    bench_hierarchy_throughput,
    bench_alternative_organizations,
    bench_multilevel_throughput
);
criterion_main!(micro);
