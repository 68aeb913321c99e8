//! The three workloads: their seeded inputs, the timed end-to-end pass
//! each one repeats, and the checks that every pass's output is right.
//!
//! Each workload exercises one path users run and stresses different
//! layers (see `README.md` in this directory for why each was chosen):
//!
//! * `trace_replay` — one thread decodes a `.seta` binary trace straight
//!   into `simulate`, scoring all four lookup strategies.
//! * `sweep_table4` — the Table 4 grid through the sharded sweep runner.
//! * `serve_shared` — closed-loop clients sharing one striped
//!   set-associative cache.

use crate::report::{interquartile_mean, percentile, Checks, Metrics};
use seta_cache::CacheConfig;
use seta_core::lookup::Mru;
use seta_core::{ProbeStats, StrategyKind};
use seta_obs::SpanTrace;
use seta_serve::{replay, replay_traced, LoadOutcome, LoadSpec};
use seta_sim::config::{table4_presets, TABLE4_ASSOCS};
use seta_sim::runner::{
    simulate, simulate_many_traced_with_threads, simulate_many_with_threads, simulate_traced,
    standard_strategies, RunOutcome, RunSpec,
};
use seta_trace::format::{BinaryReader, BinaryWriter};
use seta_trace::gen::{AtumLike, AtumLikeConfig};
use seta_trace::TraceEvent;
use std::time::Instant;

/// Stored-tag width of the standard strategy set (the paper's t = 16).
pub const TAG_BITS: u32 = 16;
/// Index of the MRU strategy in [`standard_strategies`] order.
pub const MRU: usize = 2;
/// Index of the partial-compare strategy in [`standard_strategies`] order.
pub const PARTIAL: usize = 3;
/// Sweep workers and serving clients asked for; clamped to the host's
/// logical cores so a small host is never oversubscribed.
pub const WANTED_THREADS: usize = 2;
/// How many times a run repeats its set-up to report a median `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TraceReplay,
    SweepTable4,
    ServeShared,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TraceReplay, Kind::SweepTable4, Kind::ServeShared];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TraceReplay => "trace_replay",
            Kind::SweepTable4 => "sweep_table4",
            Kind::ServeShared => "serve_shared",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The generated trace, always the paper's 23-segment structure: cold
    /// with flushes for the two simulation paths (segments shorter for the
    /// 24-run sweep), warm for `serve_shared` so shared contents never
    /// depend on the cross-client flush.
    fn trace_config(self) -> AtumLikeConfig {
        let mut cfg = AtumLikeConfig::paper_like();
        match self {
            Kind::TraceReplay => cfg.refs_per_segment = 50_000,
            Kind::SweepTable4 => cfg.refs_per_segment = 10_000,
            Kind::ServeShared => {
                cfg.refs_per_segment = 50_000;
                cfg.flush_between_segments = false;
            }
        }
        cfg
    }

    /// The L1/L2 geometries the workload simulates.
    fn geometries(self) -> Vec<Geometry> {
        const K: u64 = 1024;
        let l1 = CacheConfig::direct_mapped(4 * K, 16).expect("valid L1");
        match self {
            // Table 4's last row at a = 16: the highest L2 request rate at
            // the widest sets.
            Kind::TraceReplay => vec![Geometry {
                l1,
                l2: CacheConfig::new(64 * K, 32, 16).expect("valid L2"),
            }],
            Kind::SweepTable4 => table4_presets()
                .iter()
                .flat_map(|p| {
                    TABLE4_ASSOCS.map(|a| Geometry {
                        l1: p.l1().expect("valid preset"),
                        l2: p.l2(a).expect("valid preset"),
                    })
                })
                .collect(),
            Kind::ServeShared => vec![Geometry {
                l1,
                l2: CacheConfig::new(64 * K, 32, 4).expect("valid L2"),
            }],
        }
    }
}

/// One L1/L2 pair.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
}

impl Geometry {
    /// The load-generator spec for this geometry with `LoadSpec::new`'s
    /// defaults: MRU pricing, 16 stripes, 1-in-64 latency sampling.
    pub fn load_spec(&self) -> LoadSpec {
        LoadSpec::new(self.l1, self.l2, StrategyKind::Mru(Mru::full()))
    }
}

/// A workload's generated inputs.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub trace: AtumLikeConfig,
    pub events: Vec<TraceEvent>,
    /// The trace as `.seta` binary bytes (`trace_replay`'s timed input).
    pub bytes: Vec<u8>,
    pub geometries: Vec<Geometry>,
    /// Sweep workers or serving clients (1 for `trace_replay`).
    pub threads: usize,
    /// Processor references in the trace.
    pub refs: u64,
}

/// What one pass produced, checked after its clock has stopped.
pub enum Output {
    Sim(Vec<RunOutcome>),
    Serve(Box<LoadOutcome>),
}

/// Encodes `events` as `.seta` binary bytes in memory.
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = BinaryWriter::new(Vec::new());
    w.write_all(events.iter().copied())
        .expect("writing to memory cannot fail");
    w.finish().expect("writing to memory cannot fail")
}

/// Decodes `.seta` bytes; a malformed record ends the stream early, which
/// the outcome checks then report.
pub fn decode(bytes: &[u8]) -> impl Iterator<Item = TraceEvent> + '_ {
    BinaryReader::new(bytes)
        .expect("the benchmark encoded a valid header")
        .map_while(Result::ok)
}

impl Workload {
    /// Generates the inputs from `seed` — the work `setup_s` times. The
    /// sweep has nothing to generate (its workers build their traces), so
    /// its set-up is one untimed warm-up pass over the grid: thread start
    /// and first-touch page faults are paid there, not in the first pass.
    pub fn setup(kind: Kind, seed: u64, nproc: usize) -> Workload {
        let trace = kind.trace_config();
        // One right-sized allocation, so repeated set-ups reuse the same
        // memory instead of leaving a different heap layout each time.
        let mut events = Vec::with_capacity(trace.total_refs() as usize + trace.segments);
        events.extend(AtumLike::new(trace.clone(), seed));
        let bytes = match kind {
            Kind::TraceReplay => encode(&events),
            _ => Vec::new(),
        };
        let w = Workload {
            kind,
            seed,
            refs: events.iter().filter(|e| !e.is_flush()).count() as u64,
            trace,
            events,
            bytes,
            geometries: kind.geometries(),
            threads: match kind {
                Kind::TraceReplay => 1,
                _ => WANTED_THREADS.min(nproc).max(1),
            },
        };
        if kind == Kind::SweepTable4 {
            let _ = w.pass();
        }
        w
    }

    /// The sweep's run specs: every geometry over the same trace and seed.
    pub fn run_specs(&self) -> Vec<RunSpec> {
        self.geometries
            .iter()
            .map(|g| RunSpec {
                l1: g.l1,
                l2: g.l2,
                trace: self.trace.clone(),
                seed: self.seed,
                tag_bits: TAG_BITS,
            })
            .collect()
    }

    /// Processor references one pass replays (each sweep run replays the
    /// whole trace).
    pub fn refs_per_pass(&self) -> u64 {
        self.refs * self.geometries.len() as u64
    }

    /// Sequential `simulate` over the in-memory events, one outcome per
    /// geometry: the reference every timed output is compared with.
    pub fn reference(&self) -> Vec<RunOutcome> {
        self.geometries
            .iter()
            .map(|g| {
                simulate(
                    g.l1,
                    g.l2,
                    self.events.iter().copied(),
                    &standard_strategies(g.l2.associativity(), TAG_BITS),
                )
            })
            .collect()
    }

    /// One timed end-to-end pass, untraced. Returns its wall seconds.
    pub fn pass(&self) -> (f64, Output) {
        let g = self.geometries[0];
        match self.kind {
            Kind::TraceReplay => {
                let strategies = standard_strategies(g.l2.associativity(), TAG_BITS);
                let t = Instant::now();
                let out = simulate(g.l1, g.l2, decode(&self.bytes), &strategies);
                (t.elapsed().as_secs_f64(), Output::Sim(vec![out]))
            }
            Kind::SweepTable4 => {
                let specs = self.run_specs();
                let t = Instant::now();
                let outs = simulate_many_with_threads(&specs, self.threads);
                (t.elapsed().as_secs_f64(), Output::Sim(outs))
            }
            Kind::ServeShared => {
                let spec = g.load_spec();
                let t = Instant::now();
                let out = replay(&self.events, self.threads, &spec);
                (t.elapsed().as_secs_f64(), Output::Serve(Box::new(out)))
            }
        }
    }

    /// The same pass through the program's span-traced entry point.
    pub fn traced_pass(&self) -> (f64, Output, SpanTrace) {
        let g = self.geometries[0];
        match self.kind {
            Kind::TraceReplay => {
                let strategies = standard_strategies(g.l2.associativity(), TAG_BITS);
                let t = Instant::now();
                let (out, trace) = simulate_traced(g.l1, g.l2, decode(&self.bytes), &strategies);
                (t.elapsed().as_secs_f64(), Output::Sim(vec![out]), trace)
            }
            Kind::SweepTable4 => {
                let specs = self.run_specs();
                let t = Instant::now();
                let (outs, trace) = simulate_many_traced_with_threads(&specs, self.threads);
                (t.elapsed().as_secs_f64(), Output::Sim(outs), trace)
            }
            Kind::ServeShared => {
                let spec = g.load_spec();
                let t = Instant::now();
                let (out, trace) = replay_traced(&self.events, self.threads, &spec);
                (
                    t.elapsed().as_secs_f64(),
                    Output::Serve(Box::new(out)),
                    trace,
                )
            }
        }
    }

    /// Checks one pass's output: simulation outcomes must equal the
    /// sequential reference field for field; a serving pass must conserve
    /// every request between the client and cache tallies.
    pub fn check_output(&self, out: &Output, reference: &[RunOutcome], checks: &mut Checks) {
        match out {
            Output::Sim(outs) => {
                checks.check(outs.len() == reference.len(), "one outcome per run");
                for (o, r) in outs.iter().zip(reference) {
                    checks.check(
                        format!("{o:?}") == format!("{r:?}"),
                        &format!(
                            "{} {} outcome equals sequential simulate",
                            o.l1_label, o.l2_label
                        ),
                    );
                }
            }
            Output::Serve(o) => checks.check(o.conserves(), "replay conserves every request"),
        }
    }

    /// Checks that do not belong to any timed pass.
    pub fn check_inputs(&self, reference: &[RunOutcome], checks: &mut Checks) {
        match self.kind {
            Kind::TraceReplay => checks.check(
                decode(&self.bytes).eq(self.events.iter().copied()),
                "decoded stream equals the generated one",
            ),
            Kind::SweepTable4 => {}
            Kind::ServeShared => {
                // At one client the replay is one in-order chunk, so the
                // shared cache must match sequential simulate exactly.
                let one = replay(&self.events, 1, &self.geometries[0].load_spec());
                checks.check(one.conserves(), "1-client replay conserves");
                checks.check(
                    one.l2_stats == reference[0].l2_stats,
                    "1-client replay L2 stats equal sequential simulate",
                );
                checks.check(
                    one.l2_probes == reference[0].strategies[MRU].probes,
                    "1-client replay MRU probes equal sequential simulate",
                );
            }
        }
    }
}

/// Mean probes per read-in of strategy `idx`, pooled over `outcomes`.
pub fn probes_per_read_in(outcomes: &[RunOutcome], idx: usize) -> f64 {
    let p: ProbeStats = outcomes
        .iter()
        .map(|o| o.strategies[idx].probes)
        .fold(ProbeStats::new(), |a, b| a + b);
    (p.hits.probes + p.misses.probes) as f64 / (p.hits.count + p.misses.count) as f64
}

/// L2 requests one pass issues.
pub fn requests(out: &Output) -> u64 {
    match out {
        Output::Sim(outs) => outs.iter().map(|o| o.hierarchy.l2_requests()).sum(),
        Output::Serve(o) => o.requests,
    }
}

/// Facts about the run printed beside the metrics.
pub struct RunInfo {
    pub passes: usize,
    pub latency_samples: u64,
}

/// Repeats the untraced pass for `seconds` and derives the end-to-end
/// metrics. Every pass's output is checked after its clock stops.
///
/// Host speed on a shared machine alternates between an uncontended and
/// a contended level in phases of seconds to tens of seconds, and the
/// share of each varies from run to run: a mean or median pass time jumps
/// between the two levels, while the 90th-percentile pass repeats. Rates
/// are therefore the work of one pass over the 90th-percentile pass time,
/// the rate nine passes in ten sustained.
pub fn measure(
    w: &Workload,
    reference: &[RunOutcome],
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> RunInfo {
    let mut secs = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut latency_samples = 0;
    let mut reqs = 0;
    let start = Instant::now();
    while secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (s, out) = w.pass();
        secs.push(s);
        w.check_output(&out, reference, checks);
        reqs = requests(&out);
        if let Output::Serve(o) = &out {
            p50s.push(o.p50_ns.unwrap_or(0) as f64);
            p99s.push(o.p99_ns.unwrap_or(0) as f64);
            latency_samples += o.latency_samples;
        }
    }
    let sustained_s = percentile(&secs, 90.0);
    metrics.push("refs_per_s", w.refs_per_pass() as f64 / sustained_s, "1/s");
    metrics.push("req_per_s", reqs as f64 / sustained_s, "1/s");
    let (p50, p99) = match w.kind {
        Kind::ServeShared => (interquartile_mean(&p50s), interquartile_mean(&p99s)),
        // A simulation call does not answer requests one at a time: its
        // per-request figure is the host time per L2 request of the
        // sustained (90th-percentile) pass and of the 99th-percentile pass.
        _ => {
            latency_samples = secs.len() as u64;
            let per_req = 1e9 / reqs as f64;
            (sustained_s * per_req, percentile(&secs, 99.0) * per_req)
        }
    };
    metrics.push("req_p50_ns", p50, "ns");
    metrics.push("req_p99_ns", p99, "ns");
    metrics.push(
        "probes_per_read_in.mru",
        probes_per_read_in(reference, MRU),
        "probes",
    );
    metrics.push(
        "probes_per_read_in.partial",
        probes_per_read_in(reference, PARTIAL),
        "probes",
    );
    RunInfo {
        passes: secs.len(),
        latency_samples,
    }
}
