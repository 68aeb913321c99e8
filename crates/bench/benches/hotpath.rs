//! Hot-path benchmarks mirroring what `bench_guard` gates: per-access
//! lookup cost for all five strategies, the observed-lookup overhead that
//! the un-instrumented path must monomorphize away, end-to-end simulation
//! on the bundled trace, the instrumented `explain` pass, and the sharded
//! sweep runner against its sequential equivalent.
//!
//! `cargo bench -p seta-bench --bench hotpath` explores these
//! interactively; `bench_guard` measures the same paths deterministically
//! and fails CI on regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use seta_bench::guard::bench_inputs;
use seta_cache::CacheConfig;
use seta_core::ProbeObserver;
use seta_sim::explain::{explain, ExplainConfig};
use seta_sim::runner::{simulate, simulate_many_with_threads, standard_strategies};
use seta_trace::gen::AtumLike;
use std::hint::black_box;

/// Per-access cost of every lookup implementation, un-instrumented: the
/// branchless fast paths `StrategyKind::lookup` dispatches to.
fn bench_lookup_per_access(c: &mut Criterion) {
    let inputs = bench_inputs();
    let views: Vec<_> = inputs.views.iter().collect();
    let mut g = c.benchmark_group("hotpath/lookup");
    g.throughput(Throughput::Elements(views.len() as u64));
    for (name, strategy) in &inputs.strategies {
        let short = name.rsplit('/').next().expect("guard names are prefixed");
        g.bench_with_input(BenchmarkId::from_parameter(short), strategy, |b, s| {
            b.iter(|| {
                let mut probes = 0u64;
                for (view, tag) in &views {
                    probes += s.lookup(view, *tag).probes as u64;
                }
                black_box(probes)
            })
        });
    }
    g.finish();
}

/// The same searches through the scalar `lookup_observed` with a
/// do-nothing observer behind a `&mut dyn` — the reference search and the
/// per-event dynamic dispatch the un-instrumented path avoids. If `hotpath/lookup/*` ever climbs toward
/// `hotpath/lookup_observed/*`, the no-op observer has stopped
/// monomorphizing away; `bench_guard`'s wall gate fails the commit.
fn bench_lookup_observed_noop(c: &mut Criterion) {
    struct Noop;
    impl ProbeObserver for Noop {}

    let inputs = bench_inputs();
    let views: Vec<_> = inputs.views.iter().collect();
    let mut g = c.benchmark_group("hotpath/lookup_observed");
    g.throughput(Throughput::Elements(views.len() as u64));
    for (name, strategy) in &inputs.strategies {
        let short = name.rsplit('/').next().expect("guard names are prefixed");
        g.bench_with_input(BenchmarkId::from_parameter(short), strategy, |b, s| {
            b.iter(|| {
                let obs: &mut dyn ProbeObserver = &mut Noop;
                let mut probes = 0u64;
                for (view, tag) in &views {
                    probes += s.lookup_observed(view, *tag, obs).probes as u64;
                }
                black_box(probes)
            })
        });
    }
    g.finish();
}

/// End-to-end simulation of the bundled Dinero trace: the plain path and
/// the fully event-traced `explain` pass, which returns a bit-identical
/// outcome and therefore isolates pure instrumentation overhead.
fn bench_simulate_tiny_trace(c: &mut Criterion) {
    let inputs = bench_inputs();
    let events = &inputs.tiny_events;
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(64 * 1024, 32, 4).expect("valid L2");
    let strategies = standard_strategies(4, 16);
    let refs = events.iter().filter(|e| !e.is_flush()).count() as u64;

    let mut g = c.benchmark_group("hotpath/simulate");
    g.throughput(Throughput::Elements(refs));
    g.sample_size(20);
    g.bench_function("tiny_din", |b| {
        b.iter(|| {
            let out = simulate(l1, l2, events.iter().copied(), &strategies);
            black_box(out.hierarchy.read_ins)
        })
    });
    let cfg = ExplainConfig::default();
    g.bench_function("tiny_din_explain", |b| {
        b.iter(|| {
            let (out, report) = explain(l1, l2, events.iter().copied(), &strategies, &cfg);
            black_box((out.hierarchy.read_ins, report.mru_hits))
        })
    });
    g.finish();
}

/// The sweep runner on one multi-segment cold-start trace: one sequential
/// pass vs the sharded work queue at increasing worker counts.
fn bench_sharded_sweep(c: &mut Criterion) {
    let inputs = bench_inputs();
    let spec = &inputs.sweep_spec;
    let refs = spec.trace.total_refs();

    let mut g = c.benchmark_group("hotpath/sweep");
    g.throughput(Throughput::Elements(refs));
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let out = simulate(
                spec.l1,
                spec.l2,
                AtumLike::new(spec.trace.clone(), spec.seed),
                &standard_strategies(spec.l2.associativity(), spec.tag_bits),
            );
            black_box(out.hierarchy.read_ins)
        })
    });
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let outs = simulate_many_with_threads(std::slice::from_ref(spec), threads);
                    black_box(outs[0].hierarchy.read_ins)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    hotpath,
    bench_lookup_per_access,
    bench_lookup_observed_noop,
    bench_simulate_tiny_trace,
    bench_sharded_sweep
);
criterion_main!(hotpath);
