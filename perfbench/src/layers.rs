//! The traced run: per-layer costs, measured from outside by timing calls
//! into each layer's public functions, and a ledger that reconciles them
//! with the end-to-end cost per processor reference.
//!
//! Layers are named after the workspace crates: `trace` (generation and
//! decode), `cache` (private L1, two-level hierarchy, set bank), `core`
//! (set snapshots, lookup strategies, the Table 2 timing model), `sim`
//! (the scoring runner and the sharded sweep), `serve` (the striped
//! shared cache and its load generator) and `obs` (the span writer this
//! run records with and the latency recorder the load generator samples
//! with).
//!
//! Every layer runs over the workload's own inputs. Set snapshots and
//! lookups are replayed from a capture of the workload's L2 request
//! stream in batches small enough to stay in the host's cache after one
//! warm pass, so they time the layer and not DRAM. Every replayed lookup
//! and request is compared with the captured answer and counted as a
//! check, so none of the timed work can be optimized away.

use crate::report::{median, Checks, Metrics};
use crate::workloads::{
    decode, encode, probes_per_read_in, Kind, Workload, MRU, PARTIAL, TAG_BITS, WANTED_THREADS,
};
use seta_cache::{Cache, L2Observer, L2RequestKind, L2RequestView, Policy, SetBank, TwoLevel};
use seta_core::lookup::Mru;
use seta_core::timing::{paper_dram_designs, LookupImpl};
use seta_core::{LaneSpec, PackedLanes, SetView, StrategyKind};
use seta_obs::{
    validate_perfetto, LatencyRecorder, PhasedLatencyRecorder, SpanBuffer, SpanClock, SpanTrace,
};
use seta_serve::{replay_contended, ConcurrentCache};
use seta_sim::runner::{
    simulate, simulate_many_traced_with_threads, standard_strategies, RunOutcome,
};
use seta_sim::SweepReport;
use seta_trace::gen::AtumLike;
use seta_trace::TraceEvent;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Captured requests replayed per timed batch: 256 snapshots of a 16-way
/// set are about 40 KB, which stays in a core's L2 after the warm pass.
const BATCH: usize = 256;
/// Names of the standard strategies, in `standard_strategies` order.
const STRATEGIES: [&str; 4] = ["traditional", "naive", "mru", "partial"];
/// Untraced/traced pass pairs behind `obs.trace_overhead_frac` and the
/// ledger's end-to-end cost.
const OVERHEAD_PAIRS: usize = 5;
/// Fewest measurement rounds per traced run.
const MIN_ROUNDS: usize = 3;

/// One geometry's L2 request stream with each request's pre-access set
/// state, captured once from the sequential hierarchy.
struct Capture {
    assoc: usize,
    addr: Vec<u64>,
    set: Vec<u32>,
    tag: Vec<u64>,
    write_back: Vec<bool>,
    hit_way: Vec<Option<u8>>,
    tags: Vec<u64>,
    valid: Vec<bool>,
    order: Vec<u8>,
    /// Request index at which each flush happened.
    flushes: Vec<usize>,
}

impl L2Observer for Capture {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        self.addr.push(req.addr);
        self.set
            .push(u32::try_from(req.set).expect("set index fits u32"));
        self.tag.push(req.tag);
        self.write_back.push(req.kind == L2RequestKind::WriteBack);
        self.hit_way.push(req.hit_way);
        for f in req.frames {
            self.tags.push(f.tag);
            self.valid.push(f.valid);
        }
        self.order.extend_from_slice(req.order);
    }
}

impl Capture {
    fn record(
        l1: seta_cache::CacheConfig,
        l2: seta_cache::CacheConfig,
        events: &[TraceEvent],
    ) -> Capture {
        let mut c = Capture {
            assoc: l2.associativity() as usize,
            addr: Vec::new(),
            set: Vec::new(),
            tag: Vec::new(),
            write_back: Vec::new(),
            hit_way: Vec::new(),
            tags: Vec::new(),
            valid: Vec::new(),
            order: Vec::new(),
            flushes: Vec::new(),
        };
        let mut h = TwoLevel::new(l1, l2).expect("L1 blocks fit in L2 blocks");
        for e in events {
            if e.is_flush() {
                c.flushes.push(c.len());
            }
            h.process(e, &mut c);
        }
        c
    }

    fn len(&self) -> usize {
        self.addr.len()
    }

    fn read_ins(&self) -> u64 {
        self.write_back.iter().filter(|&&w| !w).count() as u64
    }

    fn view(&self, i: usize) -> SetView {
        let s = i * self.assoc..(i + 1) * self.assoc;
        SetView::from_trusted_parts(
            &self.tags[s.clone()],
            &self.valid[s.clone()],
            &self.order[s],
        )
    }

    /// Request ranges between flushes, each with whether a flush follows.
    fn segments(&self) -> Vec<(Range<usize>, bool)> {
        let mut out = Vec::new();
        let mut start = 0;
        for &f in &self.flushes {
            out.push((start..f, true));
            start = f;
        }
        out.push((start..self.len(), false));
        out
    }
}

/// Totals one round accumulates over the workload's geometries.
#[derive(Default)]
struct Acc {
    refs: u64,
    l1_ns: f64,
    l1_misses: u64,
    hier_ns: f64,
    requests: u64,
    read_ins: u64,
    sim_ns: f64,
    bank_ns: f64,
    snap_ns: f64,
    lookup_ns: [f64; 4],
    lookup_probes: [u64; 4],
    get_ns: f64,
    gets: u64,
    insert_ns: f64,
    inserts: u64,
    wait_ns: f64,
    hold_ns: f64,
    accesses: u64,
}

/// The span writer for the traced run: one track, every span tagged with
/// the run's id so the spans of one workload run can be selected together.
struct Spans {
    buf: SpanBuffer,
    run_id: u64,
}

impl Spans {
    fn open(&mut self, name: &str, cat: &str) -> seta_obs::SpanId {
        let id = self.buf.open(name, cat);
        self.buf.counter(id, "run_id", self.run_id);
        id
    }

    /// Times `f` inside a span named after the layer.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let id = self.open(name, "layer");
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as f64;
        self.buf.close(id);
        (ns, out)
    }
}

fn lane_spec(kinds: &[StrategyKind], assoc: usize) -> Option<LaneSpec> {
    match kinds[PARTIAL] {
        StrategyKind::Partial(p) => p.lane_spec(assoc),
        _ => None,
    }
}

/// The cost of one `Instant::now()`/`elapsed()` pair, subtracted from
/// per-call timings of the shared cache.
fn clock_overhead_ns() -> f64 {
    let v: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Replays one geometry's captured requests through every request-level
/// layer, adding the costs to `acc`.
#[allow(clippy::too_many_arguments)]
fn geometry_round(
    w: &Workload,
    gi: usize,
    cap: &Capture,
    reference: &RunOutcome,
    clock_ns: f64,
    acc: &mut Acc,
    spans: &mut Spans,
    checks: &mut Checks,
) {
    let g = w.geometries[gi];
    let strategies = standard_strategies(g.l2.associativity(), TAG_BITS);
    let kinds: Vec<StrategyKind> = strategies
        .iter()
        .map(|s| s.kind().expect("standard strategies are built in"))
        .collect();
    let lanes_spec = lane_spec(&kinds, cap.assoc);
    let n = cap.len();

    // cache.l1: the private L1 alone, over every reference.
    let (ns, l1) = spans.time("cache.l1", || {
        let mut l1 = Cache::new(g.l1);
        for e in &w.events {
            match e {
                TraceEvent::Ref(r) => {
                    black_box(l1.access(r.addr, r.kind.is_write()));
                }
                TraceEvent::Flush => l1.flush(),
            }
        }
        l1
    });
    acc.l1_ns += ns;
    acc.refs += w.refs;
    acc.l1_misses += l1.stats().misses();
    checks.check(
        l1.stats().misses() == cap.read_ins(),
        "every L1 miss is one read-in",
    );

    // cache.hierarchy: both levels with no scoring, lanes maintained as
    // simulate maintains them.
    let (ns, stats) = spans.time("cache.hierarchy", || {
        let mut h = TwoLevel::new(g.l1, g.l2).expect("L1 blocks fit in L2 blocks");
        if let Some(spec) = lanes_spec {
            h.enable_partial_lanes(spec);
        }
        h.run(w.events.iter().copied(), &mut ());
        *h.stats()
    });
    acc.hier_ns += ns;
    acc.requests += stats.l2_requests();
    acc.read_ins += stats.read_ins;
    checks.check(
        stats == reference.hierarchy,
        "hierarchy-only run counts like simulate",
    );

    // sim.runner: simulate over the in-memory events.
    let (ns, out) = spans.time("sim.runner", || {
        simulate(g.l1, g.l2, w.events.iter().copied(), &strategies)
    });
    acc.sim_ns += ns;
    checks.check(
        format!("{out:?}") == format!("{reference:?}"),
        "in-memory simulate equals the reference",
    );

    // cache.bank: the L2's set bank replaying the captured requests.
    let id = spans.open("cache.bank", "layer");
    let mut bank = SetBank::new(g.l2.num_sets() as usize, cap.assoc, Policy::Lru, 0);
    if let Some(spec) = lanes_spec {
        bank.enable_partial_lanes(spec);
    }
    let mut wrong = 0u64;
    for (range, flush) in cap.segments() {
        let t = Instant::now();
        for i in range {
            let r = bank.access(cap.set[i] as usize, cap.tag[i], cap.write_back[i]);
            wrong += u64::from(r.hit != cap.hit_way[i].is_some());
        }
        acc.bank_ns += t.elapsed().as_nanos() as f64;
        if flush {
            bank.flush();
        }
    }
    spans.buf.close(id);
    checks.count(n as u64, wrong);

    // core.set_view and core.lookup: snapshot then price each captured
    // request, batch by batch, after a warm pass over the batch.
    let id = spans.open("core.lookup", "layer");
    let mut views = vec![cap.view(0); BATCH.min(n.max(1))];
    let mut lanes = lanes_spec.map(|s| PackedLanes::new(s, BATCH));
    let mut wrong = 0u64;
    let mut start = 0;
    while start < n {
        let b = BATCH.min(n - start);
        for (j, v) in views.iter_mut().take(b).enumerate() {
            let i = start + j;
            *v = cap.view(i);
            if let Some(l) = &mut lanes {
                l.rebuild_set(j, &cap.tags[i * cap.assoc..(i + 1) * cap.assoc]);
            }
        }
        let t = Instant::now();
        for (j, v) in views.iter_mut().take(b).enumerate() {
            *v = cap.view(black_box(start + j));
        }
        acc.snap_ns += t.elapsed().as_nanos() as f64;
        for (k, kind) in kinds.iter().enumerate() {
            let mut probes = 0u64;
            let t = Instant::now();
            for (j, v) in views.iter().take(b).enumerate() {
                let i = start + j;
                let l = match (kind, &lanes) {
                    (StrategyKind::Partial(p), Some(l)) => {
                        p.lookup_packed(v, &l.view(j), cap.tag[i])
                    }
                    (k, _) => k.lookup(v, cap.tag[i]),
                };
                wrong += u64::from(l.hit_way != cap.hit_way[i]);
                probes += u64::from(l.probes);
            }
            acc.lookup_ns[k] += t.elapsed().as_nanos() as f64;
            acc.lookup_probes[k] += black_box(probes);
        }
        start += b;
    }
    spans.buf.close(id);
    checks.count(n as u64 * kinds.len() as u64, wrong);

    // serve.cache: single-thread get (read-in) and insert (write-back)
    // on a fresh shared cache, in captured order, each call timed.
    let id = spans.open("serve.cache", "layer");
    let shared = ConcurrentCache::new(g.l2, StrategyKind::Mru(Mru::full()), 16);
    let mut wrong = 0u64;
    for (range, flush) in cap.segments() {
        for i in range {
            let t = Instant::now();
            let r = if cap.write_back[i] {
                shared.insert(cap.addr[i])
            } else {
                shared.get(cap.addr[i])
            };
            let ns = t.elapsed().as_nanos() as f64 - clock_ns;
            if cap.write_back[i] {
                acc.insert_ns += ns;
                acc.inserts += 1;
            } else {
                acc.get_ns += ns;
                acc.gets += 1;
            }
            wrong += u64::from(r.hit != cap.hit_way[i].is_some());
        }
        if flush {
            shared.flush();
        }
    }
    spans.buf.close(id);
    checks.count(n as u64, wrong);
}

/// Lock wait and hold from the program's contention observatory: the
/// workload's trace replayed by two clients against the shared cache.
fn contention(
    w: &Workload,
    clients: usize,
    acc: &mut Acc,
    phases: &mut PhasedLatencyRecorder,
    spans: &mut Spans,
    checks: &mut Checks,
) {
    for g in &w.geometries {
        spans.time("serve.loadgen", || {
            let (out, report) = replay_contended(&w.events, clients, &g.load_spec());
            checks.check(out.conserves(), "contended replay conserves every request");
            let accesses = report.total_accesses();
            acc.wait_ns += report.mean_wait_ns() * accesses as f64;
            acc.hold_ns += report.mean_hold_ns() * accesses as f64;
            acc.accesses += accesses;
            phases.merge(&report.phases);
        });
    }
}

/// Names of the per-strategy lookup metrics, in `standard_strategies` order.
const LOOKUP_NS: [&str; 4] = [
    "core.lookup.traditional.ns_per_lookup",
    "core.lookup.naive.ns_per_lookup",
    "core.lookup.mru.ns_per_lookup",
    "core.lookup.partial.ns_per_lookup",
];
const LOOKUP_PROBES: [&str; 4] = [
    "core.lookup.traditional.probes_per_lookup",
    "core.lookup.naive.probes_per_lookup",
    "core.lookup.mru.probes_per_lookup",
    "core.lookup.partial.probes_per_lookup",
];

/// What every round measures over: the workload plus its captures.
struct Inputs<'a> {
    w: &'a Workload,
    reference: &'a [RunOutcome],
    bytes: Vec<u8>,
    caps: Vec<Capture>,
    /// Event count and address checksum of the setup trace.
    expected: (u64, u64),
    clock_ns: f64,
    clients: usize,
}

fn checksum(events: impl Iterator<Item = TraceEvent>) -> (u64, u64) {
    events.fold((0, 0), |(n, x), e| match e {
        TraceEvent::Ref(r) => (n + 1, x.rotate_left(5) ^ r.addr ^ r.kind as u64),
        TraceEvent::Flush => (n + 1, x.rotate_left(5)),
    })
}

/// One measurement round over every layer: `(metric, value, unit)`.
fn round(
    inp: &Inputs<'_>,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Vec<(&'static str, f64, &'static str)> {
    let w = inp.w;
    let mut acc = Acc::default();
    let (gen_ns, sum) = spans.time("trace.gen", || {
        checksum(AtumLike::new(w.trace.clone(), w.seed))
    });
    checks.check(
        sum == inp.expected,
        "regenerated trace equals the setup trace",
    );
    let (decode_ns, sum) = spans.time("trace.format", || checksum(decode(&inp.bytes)));
    checks.check(
        sum == inp.expected,
        "decoded trace equals the generated trace",
    );
    for (gi, cap) in inp.caps.iter().enumerate() {
        geometry_round(
            w,
            gi,
            cap,
            &inp.reference[gi],
            inp.clock_ns,
            &mut acc,
            spans,
            checks,
        );
    }
    let mut phases = PhasedLatencyRecorder::new(1);
    contention(w, inp.clients, &mut acc, &mut phases, spans, checks);
    let (span_ns, ()) = spans.time("obs.span", || {
        let mut buf = SpanBuffer::new(1, SpanClock::new());
        for _ in 0..10_000 {
            let s = buf.open("s", "bench");
            buf.close(s);
        }
        black_box(buf.spans().len());
    });
    let (record_ns, ()) = spans.time("obs.latency", || {
        let mut rec = LatencyRecorder::new(1);
        for i in 0..100_000u64 {
            if rec.should_sample() {
                rec.record(black_box(i));
            }
        }
        black_box(rec.len());
    });

    let refs = acc.refs as f64;
    let reqs = acc.requests as f64;
    let mut v = vec![
        ("trace.gen.ns_per_ref", gen_ns / w.refs as f64, "ns"),
        (
            "trace.format.decode_ns_per_event",
            decode_ns / w.events.len() as f64,
            "ns",
        ),
        ("cache.l1.ns_per_ref", acc.l1_ns / refs, "ns"),
        ("cache.l1.miss_ratio", acc.l1_misses as f64 / refs, "ratio"),
        ("cache.hierarchy.ns_per_ref", acc.hier_ns / refs, "ns"),
        (
            "cache.hierarchy.l2_requests_per_ref",
            reqs / refs,
            "req/ref",
        ),
        ("cache.bank.ns_per_access", acc.bank_ns / reqs, "ns"),
        ("core.set_view.ns_per_snapshot", acc.snap_ns / reqs, "ns"),
    ];
    v.extend(
        LOOKUP_NS
            .into_iter()
            .zip(acc.lookup_ns)
            .map(|(n, ns)| (n, ns / reqs, "ns")),
    );
    v.extend(
        LOOKUP_PROBES
            .into_iter()
            .zip(acc.lookup_probes)
            .map(|(n, p)| (n, p as f64 / reqs, "probes")),
    );
    let wait_p99 = phases.wait_percentile_ns(99.0).unwrap_or(0);
    let overhead_p99 = phases.overhead_percentile_ns(99.0).unwrap_or(0);
    v.extend([
        (
            "sim.runner.score_ns_per_request",
            (acc.sim_ns - acc.hier_ns) / reqs,
            "ns",
        ),
        ("serve.cache.get_ns", acc.get_ns / acc.gets as f64, "ns"),
        (
            "serve.cache.insert_ns",
            acc.insert_ns / acc.inserts.max(1) as f64,
            "ns",
        ),
        (
            "serve.cache.wait_ns_mean",
            acc.wait_ns / acc.accesses as f64,
            "ns",
        ),
        ("serve.cache.wait_ns_p99", wait_p99 as f64, "ns"),
        (
            "serve.cache.hold_ns_mean",
            acc.hold_ns / acc.accesses as f64,
            "ns",
        ),
        ("serve.loadgen.overhead_ns_p99", overhead_p99 as f64, "ns"),
        ("obs.span.ns_per_span", span_ns / 10_000.0, "ns"),
        ("obs.latency.ns_per_record", record_ns / 100_000.0, "ns"),
    ]);
    v
}

/// Runs the traced measurement for `seconds` and pushes every per-layer
/// metric. Prints the reconciliation ledger and writes the spans as a
/// Perfetto file under `.bench_out/`.
pub fn run(
    w: &Workload,
    reference: &[RunOutcome],
    seconds: f64,
    nproc: usize,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let mut spans = Spans {
        buf: SpanBuffer::new(0, SpanClock::new()),
        run_id: w.seed ^ ((w.kind as u64 + 1) << 56),
    };
    let root = spans.open(&format!("{}-seed{}", w.kind.name(), w.seed), "run");
    let threads = WANTED_THREADS.min(nproc).max(1);

    let id = spans.open("capture", "setup");
    let inp = Inputs {
        w,
        reference,
        bytes: if w.bytes.is_empty() {
            encode(&w.events)
        } else {
            w.bytes.clone()
        },
        caps: w
            .geometries
            .iter()
            .map(|g| Capture::record(g.l1, g.l2, &w.events))
            .collect(),
        expected: checksum(w.events.iter().copied()),
        clock_ns: clock_overhead_ns(),
        clients: threads,
    };
    spans.buf.close(id);

    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let id = spans.open(&format!("round-{}", rounds.len()), "round");
        rounds.push(round(&inp, &mut spans, checks));
        spans.buf.close(id);
    }
    let m = |name: &str| -> f64 {
        let idx = rounds[0]
            .iter()
            .position(|(n, _, _)| *n == name)
            .expect("metric recorded each round");
        median(&rounds.iter().map(|r| r[idx].1).collect::<Vec<_>>())
    };
    for &(name, _, unit) in &rounds[0] {
        metrics.push(name, m(name), unit);
    }

    // The Table 2 DRAM access time at the measured read-in probes: a
    // serial lookup pays base + slope x (probes beyond the first).
    let designs = paper_dram_designs();
    for (name, im, idx) in [
        (
            "core.timing.traditional.modeled_ns",
            LookupImpl::Traditional,
            None,
        ),
        ("core.timing.mru.modeled_ns", LookupImpl::Mru, Some(MRU)),
        (
            "core.timing.partial.modeled_ns",
            LookupImpl::Partial,
            Some(PARTIAL),
        ),
    ] {
        let d = designs
            .iter()
            .find(|d| d.implementation == im)
            .expect("Table 2 covers it");
        let x = idx.map_or(0.0, |i| (probes_per_read_in(reference, i) - 1.0).max(0.0));
        metrics.push(name, d.access_ns(x), "ns");
    }

    // sim.sweep: the program's traced sweep over this workload's runs.
    let id = spans.open("sim.sweep", "layer");
    let (outs, trace) = simulate_many_traced_with_threads(&w.run_specs(), threads);
    spans.buf.close(id);
    for (o, r) in outs.iter().zip(reference) {
        checks.check(
            format!("{o:?}") == format!("{r:?}"),
            "traced sweep equals sequential simulate",
        );
    }
    let report = SweepReport::from_trace(&trace);
    let busy = report.workers.iter().map(|x| x.busy_fraction).sum::<f64>()
        / report.workers.len().max(1) as f64;
    metrics.push("sim.sweep.worker_busy_frac", busy, "frac");
    let critical_us = report.critical_shard.as_ref().map_or(0, |(_, us)| *us);
    metrics.push("sim.sweep.critical_path_s", critical_us as f64 / 1e6, "s");

    // End-to-end cost with and without the program's own span tracing,
    // alternating which goes first.
    let id = spans.open("e2e", "pass");
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..OVERHEAD_PAIRS {
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            if traced_turn {
                let (s, out, trace) = w.traced_pass();
                w.check_output(&out, reference, checks);
                let valid = validate_perfetto(&trace.perfetto_json("pass")).is_ok();
                checks.check(valid, "pass trace is valid Perfetto");
                traced.push(s);
            } else {
                let (s, out) = w.pass();
                w.check_output(&out, reference, checks);
                plain.push(s);
            }
        }
    }
    spans.buf.close(id);
    metrics.push(
        "obs.trace_overhead_frac",
        median(&traced) / median(&plain) - 1.0,
        "frac",
    );

    let e2e = median(&plain) * 1e9 * w.threads as f64 / w.refs_per_pass() as f64;
    let layer_sum = ledger(&inp, &m, e2e);
    metrics.push("recon.e2e_ns_per_ref", e2e, "ns");
    metrics.push("recon.layer_sum_ns_per_ref", layer_sum, "ns");
    metrics.push("recon.residual_ns_per_ref", e2e - layer_sum, "ns");
    metrics.push("recon.residual_frac", (e2e - layer_sum) / e2e, "frac");

    spans.buf.close(root);
    let mut out = SpanTrace::new();
    out.name_track(0, "perfbench");
    out.absorb(spans.buf);
    let json = out.perfetto_json(&format!("perfbench {}", w.kind.name()));
    checks.check(
        validate_perfetto(&json).is_ok(),
        "benchmark spans are valid Perfetto",
    );
    let path = format!(".bench_out/{}-seed{}.perfetto.json", w.kind.name(), w.seed);
    let written = std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, json));
    checks.check(written.is_ok(), &format!("write {path}"));
}

/// Prints the reconciliation ledger — each layer's ns per operation
/// weighted by its operations per processor reference, against the
/// end-to-end `e2e` ns per reference — and returns the layer sum.
fn ledger(inp: &Inputs<'_>, m: &dyn Fn(&str) -> f64, e2e: f64) -> f64 {
    let w = inp.w;
    let refs = (w.refs * inp.caps.len() as u64) as f64;
    let per_ref = |count: u64| count as f64 / refs;
    let reqs = per_ref(inp.caps.iter().map(|c| c.len() as u64).sum());
    let read_ins = per_ref(inp.caps.iter().map(Capture::read_ins).sum());
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    match w.kind {
        Kind::TraceReplay | Kind::SweepTable4 => {
            if w.kind == Kind::TraceReplay {
                let events_per_ref = w.events.len() as f64 / w.refs as f64;
                rows.push((
                    "trace.format.decode".into(),
                    m("trace.format.decode_ns_per_event"),
                    events_per_ref,
                ));
            } else {
                rows.push(("trace.gen".into(), m("trace.gen.ns_per_ref"), 1.0));
            }
            rows.push(("cache.l1".into(), m("cache.l1.ns_per_ref"), 1.0));
            rows.push(("cache.bank".into(), m("cache.bank.ns_per_access"), reqs));
            rows.push((
                "core.set_view".into(),
                m("core.set_view.ns_per_snapshot"),
                reqs,
            ));
            for (s, name) in STRATEGIES.iter().zip(LOOKUP_NS) {
                rows.push((format!("core.lookup.{s}"), m(name), reqs));
            }
        }
        Kind::ServeShared => {
            rows.push(("cache.l1".into(), m("cache.l1.ns_per_ref"), 1.0));
            rows.push(("serve.cache.get".into(), m("serve.cache.get_ns"), read_ins));
            rows.push((
                "serve.cache.insert".into(),
                m("serve.cache.insert_ns"),
                reqs - read_ins,
            ));
            rows.push((
                "serve.cache.wait".into(),
                m("serve.cache.wait_ns_mean"),
                reqs,
            ));
        }
    }
    let layer_sum: f64 = rows.iter().map(|(_, ns, per)| ns * per).sum();
    println!(
        "ledger {} (host ns per processor reference):",
        w.kind.name()
    );
    println!(
        "  {:<28} {:>10} {:>10} {:>10}",
        "layer", "ns/op", "ops/ref", "ns/ref"
    );
    for (layer, ns, per) in &rows {
        println!("  {layer:<28} {ns:>10.2} {per:>10.4} {:>10.2}", ns * per);
    }
    println!("  {:<28} {:>32.2}", "layer sum", layer_sum);
    println!("  {:<28} {:>32.2}", "end to end", e2e);
    println!("  {:<28} {:>32.2}", "residual", e2e - layer_sum);
    layer_sum
}
