//! The continuous-benchmarking guard: deterministic, criterion-free
//! measurements with a machine-checkable baseline.
//!
//! `cargo bench` answers "how fast is it today?"; this module answers "did
//! this commit make it slower or change what it computes?". A guard run
//! executes a fixed set of named benchmarks — per-access lookup cost for
//! every strategy, end-to-end simulation on the bundled trace, the sharded
//! sweep runner against its sequential equivalent, and the instrumented
//! `explain` pass — with fixed iteration counts and seeds, records
//! median-of-k wall time plus **exact** probe counts, and writes the
//! result as `BENCH_<n>.json` at the repository root.
//!
//! Two kinds of regression are guarded differently:
//!
//! * **wall time** is noisy, so a run fails only beyond a relative
//!   tolerance (10% by default);
//! * **probe counts** are deterministic — the same trace and seeds must
//!   produce the same probes on every machine — so any change at all
//!   fails the comparison. A probe change is either an intentional
//!   algorithm change (refresh the baseline) or a correctness bug.
//!
//! The guard also cross-checks the hot-path rewrites it exists to protect:
//! every run asserts that the sharded [`simulate_many`] returns outcomes
//! bit-identical to the sequential [`simulate`], and that `explain`'s
//! instrumented pass returns the identical [`RunOutcome`].

use serde::{Deserialize, Serialize};
use seta_cache::CacheConfig;
use seta_core::lookup::{
    Banked, Mru, Naive, PartialCompare, ScanOrder, StrategyKind, Traditional, TransformKind,
};
use seta_core::{PackedLanes, SetView};
use seta_obs::RunManifest;
use seta_obs::SpanTrace;
use seta_sim::explain::{explain, ExplainConfig};
use seta_sim::runner::{
    simulate, simulate_many, simulate_many_traced, simulate_traced, standard_strategies,
    RunOutcome, RunSpec,
};
use seta_trace::format::DineroReader;
use seta_trace::gen::AtumLikeConfig;
use seta_trace::TraceEvent;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Version of the `BENCH_<n>.json` schema; bump on breaking layout change.
pub const SCHEMA_VERSION: u32 = 1;

/// The bundled Dinero trace every guard run replays (self-contained: the
/// trace is compiled into the binary so the guard runs from any directory).
const TINY_DIN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../traces/tiny.din"
));

/// One named measurement in a guard run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Stable benchmark name (`lookup/mru`, `simulate/tiny_din`, ...).
    pub name: String,
    /// Median-of-k wall time per access, nanoseconds.
    pub wall_ns_per_access: f64,
    /// Accesses performed per timed pass (fixed by the workload).
    pub accesses: u64,
    /// Exact probe count per timed pass — deterministic, so compared with
    /// zero tolerance. Zero for benchmarks that do not count probes.
    pub probes: u64,
    /// Accesses per second at the median pass.
    pub throughput: f64,
}

/// A full guard run: everything `BENCH_<n>.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// `git rev-parse --short HEAD` of the measured tree, or `"unknown"`.
    pub git_rev: String,
    /// Seconds since the Unix epoch when the run finished.
    pub created_unix: u64,
    /// `"full"` or `"quick"`; runs in different modes never compare.
    pub mode: String,
    /// Timed passes per benchmark (the `k` of median-of-k).
    pub passes: usize,
    /// Worker threads the sharded sweep used.
    pub sweep_threads: usize,
    /// The measurements, in a stable order.
    pub benchmarks: Vec<BenchRecord>,
    /// Sequential wall time / sharded wall time for the multi-segment
    /// sweep (>1 means the sharded runner is faster; bounded by the
    /// machine's core count).
    pub sharded_speedup: f64,
    /// Served-cache throughput scaling: `serve/scale_4t` requests/sec over
    /// `serve/replay_1t` requests/sec. Like `sharded_speedup` it is
    /// machine-bound (≈1.0 on one core); [`load_report`] defaults it to 0
    /// for baselines written before the serve benchmarks existed.
    pub serve_speedup: f64,
    /// Mean lock-wait nanoseconds per request of a 4-thread contended
    /// serve replay ([`seta_serve::replay_contended`]), measured once
    /// outside the timed passes so the observer's clock reads cannot
    /// perturb the wall benchmarks. Informational — machine- and
    /// load-dependent, so never gated; [`load_report`] defaults it to 0
    /// for baselines written before the contention observatory existed.
    pub serve_wait_ns_mean: f64,
    /// The run's observability manifest: one phase per benchmark.
    pub manifest: RunManifest,
}

impl GuardReport {
    /// The record for a benchmark by name.
    pub fn benchmark(&self, name: &str) -> Option<&BenchRecord> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// Folds a re-measurement into this report, keeping the faster wall
    /// time per benchmark. Wall-time noise on a shared machine is
    /// one-sided — contention only ever slows a run down — so the minimum
    /// across attempts is the better estimate of the code's true cost.
    /// Deterministic counters are asserted identical, never folded.
    pub fn fold_min_wall(&mut self, fresh: &GuardReport) {
        for bench in &mut self.benchmarks {
            let Some(again) = fresh.benchmark(&bench.name) else {
                continue;
            };
            assert_eq!(
                (again.probes, again.accesses),
                (bench.probes, bench.accesses),
                "{}: re-measurement changed deterministic counters",
                bench.name
            );
            if again.wall_ns_per_access < bench.wall_ns_per_access {
                bench.wall_ns_per_access = again.wall_ns_per_access;
                bench.throughput = again.throughput;
            }
        }
        // Scaling ratios are wall-derived, so they fold the same way:
        // contention only ever lowers them, making the max the best
        // estimate across attempts.
        self.serve_speedup = self.serve_speedup.max(fresh.serve_speedup);
        // Ambient machine load only ever inflates lock waits, so the
        // minimum across attempts is the better estimate here too.
        self.serve_wait_ns_mean = self.serve_wait_ns_mean.min(fresh.serve_wait_ns_mean);
    }
}

/// Measurement settings.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Shrink workloads ~10x (for tests and pre-commit smoke runs).
    pub quick: bool,
    /// Timed passes per benchmark; the median is recorded.
    pub passes: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            quick: false,
            passes: 5,
        }
    }
}

/// One benchmark's timed passes: per-pass wall time plus the deterministic
/// work counters, which must not vary across passes.
fn run_passes<F>(passes: usize, mut pass: F) -> (Duration, u64, u64)
where
    F: FnMut() -> (u64, u64),
{
    // Warm-up pass, untimed.
    let (probes, accesses) = pass();
    let mut walls = Vec::with_capacity(passes);
    for i in 0..passes {
        let started = Instant::now();
        let (p, a) = pass();
        walls.push(started.elapsed());
        assert_eq!(
            (p, a),
            (probes, accesses),
            "pass {i} was not deterministic (probes/accesses changed)"
        );
    }
    walls.sort();
    (walls[walls.len() / 2], probes, accesses)
}

fn record(name: &str, median: Duration, probes: u64, accesses: u64) -> BenchRecord {
    let wall_ns = median.as_secs_f64() * 1e9;
    BenchRecord {
        name: name.to_owned(),
        wall_ns_per_access: wall_ns / accesses as f64,
        accesses,
        probes,
        throughput: if wall_ns > 0.0 {
            accesses as f64 / median.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// A deterministic batch of 8-way set views and probe tags (xorshift-mixed
/// from a fixed seed; no RNG dependency so the stream can never drift).
fn lookup_batch(n: usize) -> Vec<(SetView, u64)> {
    lookup_batch_ways(n, 8)
}

/// [`lookup_batch`] generalized to any associativity. At `ways == 8` the
/// draw sequence is identical to the original 8-way batch, so the historic
/// `lookup/*` probe counts are preserved exactly; other widths feed the
/// per-associativity `lookup_a<ways>/*` groups.
fn lookup_batch_ways(n: usize, ways: usize) -> Vec<(SetView, u64)> {
    // Low bits that keep per-way tag uniqueness; 3 at ways ≤ 8 (the
    // original stream), 4 at 16 ways.
    let shift = u64::from((usize::BITS - (ways - 1).leading_zeros()).max(3));
    let mut state = 0x5E7A_BE2C_u64 ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let mut tags = vec![0u64; ways];
            let mut valid = vec![false; ways];
            for (w, t) in tags.iter_mut().enumerate() {
                // Unique per way (cache invariant) and 16-bit-ish.
                *t = ((next() & 0x1FFF) << shift) | w as u64;
            }
            for v in valid.iter_mut() {
                *v = next() % 10 != 0; // ~90% occupancy
            }
            let mut order: Vec<u8> = (0..ways as u8).collect();
            for i in (1..ways).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let probe = if next() % 10 < 7 {
                tags[(next() % ways as u64) as usize] // resident ~70% of the time
            } else {
                ((next() & 0x1FFF) << shift) | (ways as u64 - 1) // usually absent
            };
            (SetView::from_parts(&tags, &valid, &order), probe)
        })
        .collect()
}

/// The five lookup implementations the guard times for one of the
/// paper's table associativities, named `<prefix>/<strategy>`. The
/// partial-compare subset count follows §2.2's 4-bit-compare rule at
/// t = 16: s = 1, 2, 4 for a = 4, 8, 16 — k stays 4 across the groups, so
/// the per-assoc benchmarks isolate the cost of set width, not slice width.
fn assoc_strategies(prefix: &str, ways: usize) -> Vec<(String, StrategyKind)> {
    let subsets = (ways as u32 / 4).max(1);
    let strategies = [
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
        StrategyKind::Partial(PartialCompare::new(16, subsets, TransformKind::XorFold)),
        StrategyKind::Banked(Banked::new(2, ScanOrder::Frame)),
    ];
    ["traditional", "naive", "mru", "partial", "banked"]
        .into_iter()
        .zip(strategies)
        .map(|(name, s)| (format!("{prefix}/{name}"), s))
        .collect()
}

fn tiny_events() -> Vec<TraceEvent> {
    DineroReader::new(TINY_DIN.as_bytes())
        .collect::<Result<Vec<_>, _>>()
        .expect("bundled trace parses")
}

/// Total probes a finished run charged, across every strategy and request
/// kind (the zero-tolerance fingerprint of the simulation's behaviour).
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

/// The multi-segment sweep spec both the sequential and sharded benchmarks
/// run — the workload on which the sharded runner must beat (or at worst
/// match, on a single core) one sequential pass.
fn sweep_spec(quick: bool) -> RunSpec {
    RunSpec {
        l1: CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1"),
        l2: CacheConfig::new(64 * 1024, 32, 4).expect("valid L2"),
        trace: {
            let mut c = AtumLikeConfig::paper_like();
            c.segments = if quick { 3 } else { 6 };
            c.refs_per_segment = if quick { 5_000 } else { 25_000 };
            c
        },
        seed: 0xBE9C,
        tag_bits: 16,
    }
}

/// The workloads the guard measures, exposed for the criterion hot-path
/// benches so `cargo bench` and `bench_guard` time identical inputs.
pub struct BenchInputs {
    /// The fixed batch of set views and probe tags for per-access lookups.
    pub views: Vec<(SetView, u64)>,
    /// The five guarded strategies under their stable `lookup/*` names.
    pub strategies: Vec<(String, StrategyKind)>,
    /// The bundled Dinero trace, parsed.
    pub tiny_events: Vec<TraceEvent>,
    /// The multi-segment sweep spec (full-size variant).
    pub sweep_spec: RunSpec,
}

/// Builds the shared bench inputs (full-size workloads).
pub fn bench_inputs() -> BenchInputs {
    BenchInputs {
        views: lookup_batch(1024),
        strategies: assoc_strategies("lookup", 8),
        tiny_events: tiny_events(),
        sweep_spec: sweep_spec(false),
    }
}

/// Runs every guarded benchmark and assembles the report.
///
/// # Panics
///
/// Panics if a deterministic invariant fails mid-measurement: a probe
/// count that varies between passes, a sharded outcome that is not
/// bit-identical to the sequential one, or an `explain` outcome that
/// diverges from the plain simulation. Each of those is a correctness bug,
/// not a measurement.
pub fn measure(cfg: &GuardConfig) -> GuardReport {
    let mut manifest = RunManifest::new(env!("CARGO_PKG_VERSION"));
    let mode = if cfg.quick { "quick" } else { "full" };
    manifest.label("mode", mode);
    manifest.label("passes", cfg.passes);
    let mut benchmarks = Vec::new();

    // Per-access lookup cost: all five strategies over one fixed batch per
    // associativity. `lookup/*` is the historic 8-way group; `lookup_a4/*`
    // and `lookup_a16/*` track the speedup at the paper's other table
    // widths. Dispatch is monomorphized through `StrategyKind`, matching
    // how the simulation scorer prices lookups.
    let reps: u64 = if cfg.quick { 20 } else { 200 };
    for (ways, prefix) in [(8usize, "lookup"), (4, "lookup_a4"), (16, "lookup_a16")] {
        let views = lookup_batch_ways(1024, ways);
        for (name, strategy) in assoc_strategies(prefix, ways) {
            // Partial compare reads cache-maintained packed lane words in
            // the simulator (kept coherent incrementally at fill time), so
            // its per-access cost is measured over prebuilt lanes — the
            // packing is store-time work, not lookup-time work.
            let lanes = strategy.lane_spec(ways).map(|spec| {
                let mut lanes = PackedLanes::new(spec, views.len());
                for (set, (view, _)) in views.iter().enumerate() {
                    lanes.rebuild_set(set, view.tags());
                }
                lanes
            });
            let phase = manifest.begin_phase(&name);
            let (median, probes, accesses) = run_passes(cfg.passes, || {
                let mut probes = 0u64;
                match (strategy, &lanes) {
                    (StrategyKind::Partial(p), Some(lanes)) => {
                        for _ in 0..reps {
                            for (set, (view, tag)) in views.iter().enumerate() {
                                probes +=
                                    p.lookup_packed(view, &lanes.view(set), *tag).probes as u64;
                            }
                        }
                    }
                    (k, _) => {
                        for _ in 0..reps {
                            for (view, tag) in &views {
                                probes += k.lookup(view, *tag).probes as u64;
                            }
                        }
                    }
                }
                (probes, reps * views.len() as u64)
            });
            manifest.end_phase(phase);
            benchmarks.push(record(&name, median, probes, accesses));
        }
    }

    // End-to-end simulation of the bundled Dinero trace.
    let events = tiny_events();
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).expect("valid L1");
    let l2 = CacheConfig::new(64 * 1024, 32, 4).expect("valid L2");
    let strategies = standard_strategies(4, 16);
    let phase = manifest.begin_phase("simulate/tiny_din");
    let (median, probes, accesses) = run_passes(cfg.passes, || {
        let out = simulate(l1, l2, events.iter().copied(), &strategies);
        (outcome_probes(&out), out.hierarchy.processor_refs)
    });
    manifest.end_phase(phase);
    benchmarks.push(record("simulate/tiny_din", median, probes, accesses));

    // The same simulation with the span recorder on: its outcome must be
    // bit-identical (spans only bracket segments, never the per-access
    // path), and its wall-time trajectory next to simulate/tiny_din IS the
    // span-recorder overhead, guarded like any other benchmark.
    let untraced = simulate(l1, l2, events.iter().copied(), &strategies);
    let phase = manifest.begin_phase("simulate/tiny_din_traced");
    let (median, probes, accesses) = run_passes(cfg.passes, || {
        let (out, trace) = simulate_traced(l1, l2, events.iter().copied(), &strategies);
        assert_eq!(
            fingerprint(&out),
            fingerprint(&untraced),
            "traced simulate diverged from the un-traced simulation"
        );
        assert!(!trace.is_empty(), "traced run recorded no spans");
        (outcome_probes(&out), out.hierarchy.processor_refs)
    });
    manifest.end_phase(phase);
    benchmarks.push(record("simulate/tiny_din_traced", median, probes, accesses));

    // The instrumented explain pass on the same trace: its outcome must be
    // bit-identical, and its wall-time trajectory guards the cost of the
    // always-on ProbeObserver plumbing (the un-instrumented lookup path is
    // guarded by the lookup/* benchmarks above — if `lookup` ever stops
    // monomorphizing the no-op observer away, those regress and fail).
    let plain = simulate(l1, l2, events.iter().copied(), &strategies);
    let explain_cfg = ExplainConfig::default();
    let phase = manifest.begin_phase("explain/tiny_din");
    let (median, probes, accesses) = run_passes(cfg.passes, || {
        let (out, _report) = explain(l1, l2, events.iter().copied(), &strategies, &explain_cfg);
        assert_eq!(
            fingerprint(&out),
            fingerprint(&plain),
            "explain's outcome diverged from the plain simulation"
        );
        (outcome_probes(&out), out.hierarchy.processor_refs)
    });
    manifest.end_phase(phase);
    benchmarks.push(record("explain/tiny_din", median, probes, accesses));

    // Sequential vs sharded sweep on the multi-segment trace.
    let spec = sweep_spec(cfg.quick);
    let phase = manifest.begin_phase("simulate/atum_seq");
    let (seq_median, seq_probes, seq_accesses) = run_passes(cfg.passes, || {
        let out = simulate(
            spec.l1,
            spec.l2,
            seta_trace::gen::AtumLike::new(spec.trace.clone(), spec.seed),
            &standard_strategies(spec.l2.associativity(), spec.tag_bits),
        );
        (outcome_probes(&out), out.hierarchy.processor_refs)
    });
    manifest.end_phase(phase);
    benchmarks.push(record(
        "simulate/atum_seq",
        seq_median,
        seq_probes,
        seq_accesses,
    ));

    let seq_out = simulate(
        spec.l1,
        spec.l2,
        seta_trace::gen::AtumLike::new(spec.trace.clone(), spec.seed),
        &standard_strategies(spec.l2.associativity(), spec.tag_bits),
    );
    let sweep_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(spec.trace.segments);
    let phase = manifest.begin_phase("simulate_many/sharded");
    let (sharded_median, sharded_probes, sharded_accesses) = run_passes(cfg.passes, || {
        let outs = simulate_many(std::slice::from_ref(&spec));
        assert_eq!(
            fingerprint(&outs[0]),
            fingerprint(&seq_out),
            "sharded simulate_many diverged from the sequential runner"
        );
        (outcome_probes(&outs[0]), outs[0].hierarchy.processor_refs)
    });
    manifest.end_phase(phase);
    assert_eq!(
        (sharded_probes, sharded_accesses),
        (seq_probes, seq_accesses),
        "sharded and sequential sweeps disagree on work done"
    );
    benchmarks.push(record(
        "simulate_many/sharded",
        sharded_median,
        sharded_probes,
        sharded_accesses,
    ));
    let sharded_speedup = seq_median.as_secs_f64() / sharded_median.as_secs_f64().max(1e-12);

    // Concurrent serve replay of the bundled trace: single-thread
    // ns/request (real probe counts — bit-identical to the sweep scorer's
    // pricing, asserted against sequential simulate below), plus 2- and
    // 4-thread scaling points. Multi-thread shared-cache hit/miss/probe
    // splits are interleaving-dependent, so the scaling benchmarks record
    // probes as 0 and guard only the deterministic request totals and the
    // wall trajectory.
    let serve_reps = if cfg.quick { 2 } else { 8 };
    let serve_events: Vec<TraceEvent> = std::iter::repeat(events.iter().copied())
        .take(serve_reps)
        .flatten()
        .collect();
    let serve_spec = seta_serve::LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
    let serve_seq = simulate(
        l1,
        l2,
        serve_events.iter().copied(),
        &[StrategyKind::Mru(Mru::full())],
    );
    let baseline_1t = seta_serve::replay(&serve_events, 1, &serve_spec);
    assert!(baseline_1t.conserves(), "serve tallies do not conserve");
    assert_eq!(
        baseline_1t.l2_stats, serve_seq.l2_stats,
        "1-thread serve replay diverged from sequential simulate"
    );
    assert_eq!(
        baseline_1t.l2_probes, serve_seq.strategies[0].probes,
        "1-thread serve probes diverged from the sweep scorer"
    );
    let phase = manifest.begin_phase("serve/replay_1t");
    let (serve_1t_median, probes, accesses) = run_passes(cfg.passes, || {
        let out = seta_serve::replay(&serve_events, 1, &serve_spec);
        assert!(out.conserves(), "serve tallies do not conserve");
        (out.probes, out.requests)
    });
    manifest.end_phase(phase);
    let serve_1t = record("serve/replay_1t", serve_1t_median, probes, accesses);
    let serve_1t_throughput = serve_1t.throughput;
    benchmarks.push(serve_1t);

    let mut serve_4t_throughput = serve_1t_throughput;
    for threads in [2usize, 4] {
        let name = format!("serve/scale_{threads}t");
        let phase = manifest.begin_phase(&name);
        let (median, _probes, accesses) = run_passes(cfg.passes, || {
            let out = seta_serve::replay(&serve_events, threads, &serve_spec);
            assert!(out.conserves(), "serve tallies do not conserve");
            (0, out.requests)
        });
        manifest.end_phase(phase);
        let rec = record(&name, median, 0, accesses);
        if threads == 4 {
            serve_4t_throughput = rec.throughput;
        }
        benchmarks.push(rec);
    }
    let serve_speedup = serve_4t_throughput / serve_1t_throughput.max(1e-12);

    // One contention-instrumented 4-thread replay, outside the timed
    // passes: the mean lock wait it attributes is recorded next to the
    // scaling ratio so a future scaling collapse can be read against the
    // wait trajectory. Its attribution must reconcile exactly.
    let phase = manifest.begin_phase("serve/contended_4t");
    let (contended_out, contention) = seta_serve::replay_contended(&serve_events, 4, &serve_spec);
    manifest.end_phase(phase);
    assert!(
        contended_out.conserves(),
        "contended tallies do not conserve"
    );
    assert_eq!(
        contention.total_accesses(),
        contended_out.l2_stats.accesses(),
        "per-stripe accesses must sum to the cache's own total"
    );
    let serve_wait_ns_mean = contention.mean_wait_ns();

    let git_rev = git_short_rev().unwrap_or_else(|| "unknown".to_owned());
    manifest.label("git_rev", &git_rev);
    manifest.label("sweep_threads", sweep_threads);

    GuardReport {
        schema_version: SCHEMA_VERSION,
        git_rev,
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        mode: mode.to_owned(),
        passes: cfg.passes,
        sweep_threads,
        benchmarks,
        sharded_speedup,
        serve_speedup,
        serve_wait_ns_mean,
        manifest,
    }
}

/// One span-traced sweep over the guard's multi-segment spec, for the
/// `--spans` trace artifact. The outcome is asserted bit-identical to the
/// sequential runner before the trace is handed back, so an exported
/// trace always describes a verified run.
pub fn span_trace_artifact(quick: bool) -> SpanTrace {
    let spec = sweep_spec(quick);
    let seq = simulate(
        spec.l1,
        spec.l2,
        seta_trace::gen::AtumLike::new(spec.trace.clone(), spec.seed),
        &standard_strategies(spec.l2.associativity(), spec.tag_bits),
    );
    let (outs, trace) = simulate_many_traced(std::slice::from_ref(&spec));
    assert_eq!(
        fingerprint(&outs[0]),
        fingerprint(&seq),
        "traced sweep diverged from the sequential runner"
    );
    trace
}

fn git_short_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?;
    let rev = rev.trim();
    (!rev.is_empty()).then(|| rev.to_owned())
}

/// What a [`Violation`] is about. Wall-time violations are the only kind
/// a caller may reasonably retry: wall time is at the mercy of the
/// machine, while every other kind is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ViolationKind {
    /// Schema version drifted; the baseline needs a refresh.
    Schema,
    /// Quick and full runs never compare.
    Mode,
    /// A baseline benchmark disappeared from the suite.
    Missing,
    /// Access count changed: the workload itself drifted.
    Accesses,
    /// Probe count changed: an algorithm change or a bug.
    Probes,
    /// Wall time regressed beyond tolerance.
    Wall,
    /// Served-cache throughput scaling collapsed relative to a baseline
    /// that demonstrated real scaling.
    Scaling,
}

/// One reason a comparison failed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Violation {
    /// Benchmark the violation is about (empty for run-level mismatches).
    pub benchmark: String,
    /// Which check failed.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.benchmark.is_empty() {
            write!(f, "{}", self.detail)
        } else {
            write!(f, "{}: {}", self.benchmark, self.detail)
        }
    }
}

/// Compares a fresh run against a baseline.
///
/// Fails on: schema/mode mismatch, a baseline benchmark missing from the
/// current run, any probe- or access-count change (zero tolerance — these
/// are deterministic), or a wall-time-per-access regression beyond
/// `tolerance` (e.g. `0.10` = 10%). Improvements and new benchmarks never
/// fail.
pub fn compare(baseline: &GuardReport, current: &GuardReport, tolerance: f64) -> Vec<Violation> {
    let mut violations = Vec::new();
    if baseline.schema_version != current.schema_version {
        violations.push(Violation {
            benchmark: String::new(),
            kind: ViolationKind::Schema,
            detail: format!(
                "schema version changed: baseline {} vs current {} (refresh the baseline)",
                baseline.schema_version, current.schema_version
            ),
        });
        return violations;
    }
    if baseline.mode != current.mode {
        violations.push(Violation {
            benchmark: String::new(),
            kind: ViolationKind::Mode,
            detail: format!(
                "mode mismatch: baseline was '{}', current is '{}' — runs in different \
                 modes measure different workloads and never compare",
                baseline.mode, current.mode
            ),
        });
        return violations;
    }
    for base in &baseline.benchmarks {
        let Some(cur) = current.benchmark(&base.name) else {
            violations.push(Violation {
                benchmark: base.name.clone(),
                kind: ViolationKind::Missing,
                detail: "benchmark disappeared from the suite".to_owned(),
            });
            continue;
        };
        if cur.accesses != base.accesses {
            violations.push(Violation {
                benchmark: base.name.clone(),
                kind: ViolationKind::Accesses,
                detail: format!(
                    "workload drifted: {} accesses vs baseline {}",
                    cur.accesses, base.accesses
                ),
            });
            continue;
        }
        if cur.probes != base.probes {
            violations.push(Violation {
                benchmark: base.name.clone(),
                kind: ViolationKind::Probes,
                detail: format!(
                    "probe count changed: {} vs baseline {} (probes are deterministic; \
                     this is an algorithm change or a bug)",
                    cur.probes, base.probes
                ),
            });
        }
        let limit = base.wall_ns_per_access * (1.0 + tolerance);
        if cur.wall_ns_per_access > limit {
            violations.push(Violation {
                benchmark: base.name.clone(),
                kind: ViolationKind::Wall,
                detail: format!(
                    "wall-time regression: {:.2} ns/access vs baseline {:.2} (+{:.1}%, \
                     tolerance {:.0}%)",
                    cur.wall_ns_per_access,
                    base.wall_ns_per_access,
                    (cur.wall_ns_per_access / base.wall_ns_per_access - 1.0) * 100.0,
                    tolerance * 100.0
                ),
            });
        }
    }
    // Scaling-efficiency collapse: armed only when the baseline itself
    // demonstrated scaling (a multi-core measurement recorded ≥ 1.5x).
    // One-core baselines record ≈ 1.0 and keep the check dormant, so a
    // laptop-written baseline can never fail CI for lacking cores.
    if baseline.serve_speedup >= 1.5 && current.serve_speedup < baseline.serve_speedup * 0.5 {
        violations.push(Violation {
            benchmark: "serve/scale_4t".to_owned(),
            kind: ViolationKind::Scaling,
            detail: format!(
                "serve scaling collapsed: {:.2}x at 4 threads vs baseline {:.2}x \
                 (threshold: half the baseline)",
                current.serve_speedup, baseline.serve_speedup
            ),
        });
    }
    violations
}

/// `BENCH_<n>.json` files in `dir`, sorted by `n` ascending.
pub fn baseline_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((n, path));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads a report written by [`write_report`].
///
/// Reports from before the serve benchmarks lack `serve_speedup`, and
/// ones from before the contention observatory lack `serve_wait_ns_mean`;
/// both are defaulted to 0 here (the vendored `serde_derive` has no
/// `#[serde]` attribute support), which keeps the scaling gate dormant
/// against old baselines.
pub fn load_report(path: &Path) -> Result<GuardReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    report_from_value(value).map_err(|e| format!("{}: {e}", path.display()))
}

/// Deserializes a report from an already-parsed JSON value, defaulting
/// the fields newer than the oldest supported baseline.
pub(crate) fn report_from_value(mut value: serde_json::Value) -> Result<GuardReport, String> {
    if let serde_json::Value::Object(map) = &mut value {
        map.entry("serve_speedup".to_owned())
            .or_insert_with(|| serde_json::Value::Number(serde_json::Number::from_f64(0.0)));
        map.entry("serve_wait_ns_mean".to_owned())
            .or_insert_with(|| serde_json::Value::Number(serde_json::Number::from_f64(0.0)));
    }
    serde_json::from_value(value).map_err(|e| e.to_string())
}

/// Writes `report` as the next `BENCH_<n>.json` in `dir`, returning the
/// path written.
pub fn write_report(dir: &Path, report: &GuardReport) -> Result<PathBuf, String> {
    let next = baseline_files(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .last()
        .map(|(n, _)| n + 1)
        .unwrap_or(1);
    let path = dir.join(format!("BENCH_{next}.json"));
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Renders the human-readable summary table of one run.
pub fn render(report: &GuardReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bench_guard  rev {}  mode {}  median-of-{}  sweep threads {}\n",
        report.git_rev, report.mode, report.passes, report.sweep_threads
    ));
    out.push_str(&format!(
        "{:<24} {:>14} {:>14} {:>16}\n",
        "benchmark", "ns/access", "probes", "accesses/s"
    ));
    for b in &report.benchmarks {
        out.push_str(&format!(
            "{:<24} {:>14.2} {:>14} {:>16.0}\n",
            b.name, b.wall_ns_per_access, b.probes, b.throughput
        ));
    }
    out.push_str(&format!(
        "sharded sweep speedup over sequential: {:.2}x\n",
        report.sharded_speedup
    ));
    out.push_str(&format!(
        "serve throughput scaling at 4 threads: {:.2}x\n",
        report.serve_speedup
    ));
    out.push_str(&format!(
        "serve mean lock wait at 4 threads: {:.1} ns\n",
        report.serve_wait_ns_mean
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> GuardConfig {
        GuardConfig {
            quick: true,
            passes: 2,
        }
    }

    fn tiny_report() -> GuardReport {
        GuardReport {
            schema_version: SCHEMA_VERSION,
            git_rev: "abc1234".into(),
            created_unix: 0,
            mode: "quick".into(),
            passes: 2,
            sweep_threads: 1,
            benchmarks: vec![BenchRecord {
                name: "lookup/mru".into(),
                wall_ns_per_access: 10.0,
                accesses: 1000,
                probes: 4200,
                throughput: 1e8,
            }],
            sharded_speedup: 1.0,
            serve_speedup: 1.0,
            serve_wait_ns_mean: 100.0,
            manifest: RunManifest::new("test"),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = tiny_report();
        assert!(compare(&r, &r, 0.10).is_empty());
    }

    #[test]
    fn probe_change_fails_with_zero_tolerance() {
        let base = tiny_report();
        let mut cur = tiny_report();
        cur.benchmarks[0].probes += 1;
        let v = compare(&base, &cur, 0.10);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("probe count changed"), "{}", v[0]);
    }

    #[test]
    fn wall_regression_beyond_tolerance_fails() {
        let base = tiny_report();
        let mut cur = tiny_report();
        cur.benchmarks[0].wall_ns_per_access = 11.5;
        assert_eq!(compare(&base, &cur, 0.10).len(), 1);
        // Inside tolerance passes.
        cur.benchmarks[0].wall_ns_per_access = 10.9;
        assert!(compare(&base, &cur, 0.10).is_empty());
        // Improvements always pass.
        cur.benchmarks[0].wall_ns_per_access = 1.0;
        assert!(compare(&base, &cur, 0.10).is_empty());
    }

    #[test]
    fn violations_carry_their_kind() {
        let base = tiny_report();
        let mut cur = tiny_report();
        cur.benchmarks[0].wall_ns_per_access = 99.0;
        assert_eq!(compare(&base, &cur, 0.10)[0].kind, ViolationKind::Wall);
        cur = tiny_report();
        cur.benchmarks[0].probes += 1;
        assert_eq!(compare(&base, &cur, 0.10)[0].kind, ViolationKind::Probes);
    }

    #[test]
    fn fold_min_wall_keeps_fastest_attempt_per_benchmark() {
        let mut report = tiny_report();
        let mut faster = tiny_report();
        faster.benchmarks[0].wall_ns_per_access = 4.0;
        faster.benchmarks[0].throughput = 2.5e8;
        report.fold_min_wall(&faster);
        assert_eq!(report.benchmarks[0].wall_ns_per_access, 4.0);
        assert_eq!(report.benchmarks[0].throughput, 2.5e8);
        // A slower re-measurement changes nothing.
        let mut slower = tiny_report();
        slower.benchmarks[0].wall_ns_per_access = 40.0;
        report.fold_min_wall(&slower);
        assert_eq!(report.benchmarks[0].wall_ns_per_access, 4.0);
    }

    #[test]
    fn fold_min_wall_keeps_quietest_lock_wait() {
        let mut report = tiny_report();
        let mut noisier = tiny_report();
        noisier.serve_wait_ns_mean = 900.0;
        report.fold_min_wall(&noisier);
        assert_eq!(report.serve_wait_ns_mean, 100.0);
        let mut quieter = tiny_report();
        quieter.serve_wait_ns_mean = 40.0;
        report.fold_min_wall(&quieter);
        assert_eq!(report.serve_wait_ns_mean, 40.0);
    }

    #[test]
    fn pre_contention_baselines_load_with_zero_wait_mean() {
        let mut v = serde_json::to_value(&tiny_report()).unwrap();
        if let serde_json::Value::Object(map) = &mut v {
            map.remove("serve_wait_ns_mean");
            map.remove("serve_speedup");
        }
        let loaded = report_from_value(v).unwrap();
        assert_eq!(loaded.serve_wait_ns_mean, 0.0);
        assert_eq!(loaded.serve_speedup, 0.0, "scaling gate stays dormant");
    }

    #[test]
    #[should_panic(expected = "deterministic counters")]
    fn fold_min_wall_rejects_probe_drift() {
        let mut report = tiny_report();
        let mut drifted = tiny_report();
        drifted.benchmarks[0].probes += 1;
        report.fold_min_wall(&drifted);
    }

    #[test]
    fn missing_benchmark_fails_and_new_benchmark_passes() {
        let base = tiny_report();
        let mut cur = tiny_report();
        cur.benchmarks[0].name = "lookup/other".into();
        let v = compare(&base, &cur, 0.10);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("disappeared"));
        // The reverse direction (baseline ⊂ current) is fine.
        let mut grown = tiny_report();
        grown.benchmarks.push(BenchRecord {
            name: "lookup/new".into(),
            wall_ns_per_access: 1.0,
            accesses: 10,
            probes: 10,
            throughput: 1.0,
        });
        assert!(compare(&base, &grown, 0.10).is_empty());
    }

    #[test]
    fn mode_mismatch_refuses_to_compare() {
        let base = tiny_report();
        let mut cur = tiny_report();
        cur.mode = "full".into();
        let v = compare(&base, &cur, 0.10);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("mode mismatch"));
    }

    #[test]
    fn baseline_files_sort_numerically() {
        let dir = std::env::temp_dir().join(format!("seta_guard_sort_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for n in [2u64, 10, 1] {
            std::fs::write(dir.join(format!("BENCH_{n}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap(); // ignored
        let files = baseline_files(&dir).unwrap();
        let ns: Vec<u64> = files.iter().map(|(n, _)| *n).collect();
        assert_eq!(ns, vec![1, 2, 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measure_quick_produces_stable_deterministic_counts() {
        let a = measure(&quick());
        assert!(a.benchmarks.len() >= 6, "only {}", a.benchmarks.len());
        assert!(a.sharded_speedup > 0.0);
        // Probe counts are identical across fresh runs (wall times differ).
        let b = measure(&quick());
        for (x, y) in a.benchmarks.iter().zip(&b.benchmarks) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.probes, y.probes, "{}", x.name);
            assert_eq!(x.accesses, y.accesses, "{}", x.name);
        }
        // The deterministic checks of --check pass against a fresh run.
        // Wall times are folded to the minimum first: sibling test threads
        // contending for the CPU make raw wall comparison meaningless here
        // (the binary handles that same noise by retry + fold_min_wall).
        let mut b = b;
        b.fold_min_wall(&a);
        let mut a = a;
        a.fold_min_wall(&b);
        let v = compare(&a, &b, 0.01);
        assert!(v.is_empty(), "self-comparison failed: {v:?}");
    }

    #[test]
    fn write_and_load_round_trip_with_sequential_numbering() {
        let dir = std::env::temp_dir().join(format!("seta_guard_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let r = tiny_report();
        let p1 = write_report(&dir, &r).unwrap();
        assert!(p1.ends_with("BENCH_1.json"));
        let p2 = write_report(&dir, &r).unwrap();
        assert!(p2.ends_with("BENCH_2.json"));
        let loaded = load_report(&p2).unwrap();
        assert_eq!(loaded, r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundled_trace_parses() {
        let events = tiny_events();
        assert!(events.len() > 8000);
    }
}
