//! The multi-client open-loop load generator.
//!
//! Each client thread owns a private L1 (the same direct-mapped
//! [`Cache`] the sequential hierarchy uses) and replays
//! trace chunks against the shared [`ConcurrentCache`]. The L1 runs the
//! hierarchy's own L1 half ([`step_l1`]), so a client issues exactly the
//! requests [`TwoLevel`](seta_cache::TwoLevel) would: a read-in per L1
//! miss, then a write-back per dirty L1 victim. Chunks come off an atomic
//! work queue — the sweep runner's sharding pattern, via
//! [`seta_sim::partition`] — and every client starts each chunk from a
//! flushed (cold) L1, so which client replays which chunk can never change
//! the request totals: per-chunk L1 behaviour depends only on chunk
//! content.
//!
//! At one thread the generator runs the whole trace as a single in-order
//! chunk with a persistent L1, which makes the shared cache's merged
//! [`CacheStats`] bit-identical to sequential
//! [`simulate`](seta_sim::runner::simulate)'s L2 statistics — the identity
//! the `serve-scaling-smoke` CI job asserts.

use crate::cache::ConcurrentCache;
use serde::Serialize;
use seta_cache::{step_l1, Cache, CacheConfig, CacheStats};
use seta_core::{ProbeStats, StrategyKind};
use seta_obs::{
    labeled, ContentionObserver, ContentionReport, LatencyRecorder, NoContention,
    PhasedLatencyRecorder, PhasedSample, ServeHandle, ServeHeartbeat, SpanBuffer, SpanClock,
    SpanTrace, StripeContention,
};
use seta_sim::partition::chunk_ranges;
use seta_trace::TraceEvent;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What to replay and against which geometry.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Per-client L1 geometry (direct-mapped in the paper's hierarchy).
    pub l1: CacheConfig,
    /// Shared cache geometry.
    pub l2: CacheConfig,
    /// Lookup strategy pricing every shared-cache request.
    pub strategy: StrategyKind,
    /// Lock stripes for the shared cache (rounded to a power of two).
    pub stripes: usize,
    /// Work-queue chunks; `None` means one chunk per thread (and a single
    /// chunk at one thread, preserving sequential identity).
    pub chunks: Option<usize>,
    /// Time one in `sample_every` requests (1 = time everything).
    pub sample_every: u64,
}

impl LoadSpec {
    /// A spec with the defaults used by the benchmarks: 16 lock stripes
    /// and 1-in-64 latency sampling.
    pub fn new(l1: CacheConfig, l2: CacheConfig, strategy: StrategyKind) -> Self {
        LoadSpec {
            l1,
            l2,
            strategy,
            stripes: 16,
            chunks: None,
            sample_every: 64,
        }
    }
}

/// Everything one replay measured. Client counters are sums over threads;
/// the cache statistics come from the shared cache itself, so
/// [`conserves`](Self::conserves) cross-checks the two independent
/// tallies.
#[derive(Debug, Clone, Serialize)]
pub struct LoadOutcome {
    /// Client threads that replayed the trace.
    pub threads: usize,
    /// Work-queue chunks the trace was split into.
    pub chunks: usize,
    /// Lock stripes in the shared cache.
    pub stripes: usize,
    /// Trace references replayed (flushes excluded).
    pub refs: u64,
    /// Requests issued to the shared cache.
    pub requests: u64,
    /// Read-in requests (one per client L1 miss).
    pub read_ins: u64,
    /// Read-ins that hit the shared cache.
    pub read_in_hits: u64,
    /// Write-back requests (one per dirty client-L1 victim).
    pub write_backs: u64,
    /// Write-backs that hit the shared cache.
    pub write_back_hits: u64,
    /// Tag probes the strategy spent, summed from client-observed
    /// responses (write-backs cost zero under the optimization).
    pub probes: u64,
    /// Wall-clock time of the replay.
    pub wall_seconds: f64,
    /// Requests per second of wall time.
    pub requests_per_second: f64,
    /// References per second of wall time.
    pub refs_per_second: f64,
    /// Timed request samples behind the percentiles.
    pub latency_samples: u64,
    /// Median sampled request latency, `None` when nothing was sampled.
    pub p50_ns: Option<u64>,
    /// 99th-percentile sampled request latency.
    pub p99_ns: Option<u64>,
    /// Merged private-L1 statistics across clients.
    pub l1_stats: CacheStats,
    /// The shared cache's merged access statistics.
    pub l2_stats: CacheStats,
    /// The shared cache's merged probe statistics.
    pub l2_probes: ProbeStats,
}

impl LoadOutcome {
    /// Whether the client-side and cache-side tallies agree: every request
    /// is accounted as exactly one shared-cache access, hits match, and
    /// probes conserve. Holds at every thread count — interleaving moves
    /// hits between read-ins and write-backs but never loses an event.
    pub fn conserves(&self) -> bool {
        self.requests == self.read_ins + self.write_backs
            && self.l2_stats.accesses() == self.requests
            && self.l2_stats.hits() + self.l2_stats.misses() == self.requests
            && self.read_in_hits + self.write_back_hits == self.l2_stats.hits()
            && self.l2_probes.accesses() == self.requests
            && self.l2_probes.hits.count == self.read_in_hits
            && self.l2_probes.hits.probes + self.l2_probes.misses.probes == self.probes
    }
}

/// One client thread's state: a private L1 plus tallies of the requests
/// it issued to the shared cache. Generic over the contention observer:
/// with [`NoContention`] (every pre-existing entry point) the whole
/// instrumentation — clock reads, phase recording, phase spans —
/// monomorphizes away and the request path is byte-for-byte the old one.
struct Client<'a, O: ContentionObserver> {
    shared: &'a ConcurrentCache,
    l1: Cache,
    refs: u64,
    requests: u64,
    read_ins: u64,
    read_in_hits: u64,
    write_backs: u64,
    write_back_hits: u64,
    probes: u64,
    latency: LatencyRecorder,
    obs: O,
    /// Phase-decomposed samples; only fed when `O::ENABLED`.
    phases: PhasedLatencyRecorder,
    clock: SpanClock,
    buf: SpanBuffer,
}

impl<'a, O: ContentionObserver> Client<'a, O> {
    fn new(
        id: u32,
        shared: &'a ConcurrentCache,
        spec: &LoadSpec,
        clock: SpanClock,
        obs: O,
    ) -> Self {
        Client {
            shared,
            l1: Cache::new(spec.l1),
            refs: 0,
            requests: 0,
            read_ins: 0,
            read_in_hits: 0,
            write_backs: 0,
            write_back_hits: 0,
            probes: 0,
            latency: LatencyRecorder::new(spec.sample_every),
            obs,
            phases: PhasedLatencyRecorder::new(spec.sample_every),
            clock: clock.clone(),
            buf: SpanBuffer::new(id, clock),
        }
    }

    /// Issues one shared-cache request, timing it if sampled. Under an
    /// enabled observer, every request's lock wait/hold is attributed to
    /// its stripe, and each *sampled* request additionally records a
    /// [`PhasedSample`] and emits `wait`/`service` phase spans on this
    /// client's Perfetto track. The wait and hold intervals nest inside
    /// the end-to-end interval, so `wait + service <= total` always.
    fn request(&mut self, addr: u64, is_write_back: bool) -> crate::cache::Response {
        let sampled = self.latency.should_sample();
        let start_us = if O::ENABLED && sampled {
            self.clock.now_us()
        } else {
            0
        };
        let t0 = sampled.then(Instant::now);
        let resp = if is_write_back {
            self.shared.write_back_observed(addr, &mut self.obs)
        } else {
            self.shared.read_in_observed(addr, &mut self.obs)
        };
        if let Some(t0) = t0 {
            let total_ns = t0.elapsed().as_nanos() as u64;
            self.latency.record(total_ns);
            if O::ENABLED {
                let wait_ns = self.obs.last_wait_ns();
                let service_ns = self.obs.last_hold_ns();
                self.phases.record(PhasedSample {
                    total_ns,
                    wait_ns,
                    service_ns,
                });
                // Replay the measured intervals onto the track: a wait
                // phase, then the service phase it unblocked.
                let wait_end_us = start_us + wait_ns / 1000;
                let service_end_us = wait_end_us + service_ns / 1000;
                let w = self.buf.open_at("wait", "phase", start_us);
                self.buf.close_at(w, wait_end_us);
                let s = self.buf.open_at("service", "phase", wait_end_us);
                self.buf.close_at(s, service_end_us);
            }
        }
        self.requests += 1;
        resp
    }

    /// Replays one trace event through the hierarchy's own L1 half
    /// ([`step_l1`]), issuing the requests
    /// [`TwoLevel::step`](seta_cache::TwoLevel) would: read-in first, then
    /// the dirty victim's write-back.
    fn step(&mut self, event: &TraceEvent) {
        let record = match event {
            TraceEvent::Flush => {
                self.l1.flush();
                self.shared.flush();
                return;
            }
            TraceEvent::Ref(r) => r,
        };
        self.refs += 1;
        let Some(miss) = step_l1(&mut self.l1, record) else {
            return;
        };
        let resp = self.request(miss.read_addr, false);
        self.read_ins += 1;
        self.read_in_hits += u64::from(resp.hit);
        self.probes += u64::from(resp.probes);
        if let Some(victim) = miss.write_back {
            let resp = self.request(victim, true);
            self.write_backs += 1;
            self.write_back_hits += u64::from(resp.hit);
        }
    }

    /// Replays chunks off the shared work queue until it drains. Every
    /// chunk starts from a flushed (cold) private L1, so request totals do
    /// not depend on which client replays which chunk.
    fn run(
        &mut self,
        events: &[TraceEvent],
        ranges: &[std::ops::Range<usize>],
        next: &AtomicUsize,
        single_chunk: bool,
        handle: Option<&ServeHandle>,
        started: Instant,
    ) {
        let client = self.buf.track().to_string();
        let root = self.buf.open(format!("client-{client}"), "client");
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(i) else { break };
            if !single_chunk {
                self.l1.flush();
            }
            let span = self.buf.open(format!("chunk-{i}"), "chunk");
            let (refs0, reqs0, probes0) = (self.refs, self.requests, self.probes);
            for event in &events[range.clone()] {
                self.step(event);
            }
            self.buf.counter(span, "refs", self.refs - refs0);
            self.buf.counter(span, "requests", self.requests - reqs0);
            self.buf.counter(span, "probes", self.probes - probes0);
            self.buf.close(span);
            if let Some(handle) = handle {
                let (drefs, dreqs) = (self.refs - refs0, self.requests - reqs0);
                handle.update_metrics(|m| {
                    let c = m.counter("serve_refs_total");
                    m.inc(c, drefs);
                    let c = m.counter("serve_requests_total");
                    m.inc(c, dreqs);
                    let c = m.counter(&labeled("serve_client_chunks_total", "client", &client));
                    m.inc(c, 1);
                });
                let wall = started.elapsed().as_secs_f64();
                handle.publish_heartbeat(&ServeHeartbeat {
                    refs: self.refs,
                    wall_seconds: wall,
                    refs_per_second: if wall > 0.0 {
                        self.refs as f64 / wall
                    } else {
                        0.0
                    },
                    window_miss_ratio: None,
                    active_workers: None,
                });
            }
        }
        // Per-client latency summary rides on the root span, so the
        // Perfetto track for each client carries its own percentiles.
        self.buf
            .counter(root, "latency_samples", self.latency.len() as u64);
        let (p50, p99) = self.latency.p50_p99_ns();
        self.buf.counter(root, "latency_p50_ns", p50.unwrap_or(0));
        self.buf.counter(root, "latency_p99_ns", p99.unwrap_or(0));
        if O::ENABLED {
            let wait = self.phases.wait_percentile_ns(99.0).unwrap_or(0);
            let service = self.phases.service_percentile_ns(99.0).unwrap_or(0);
            self.buf.counter(root, "wait_p99_ns", wait);
            self.buf.counter(root, "service_p99_ns", service);
        }
        self.buf.close(root);
    }
}

/// Replays `events` through `threads` clients against a fresh shared
/// cache, returning the merged outcome. See [`replay_traced`] for the
/// span-traced variant.
pub fn replay(events: &[TraceEvent], threads: usize, spec: &LoadSpec) -> LoadOutcome {
    replay_parts_observed(events, threads, spec, None, || NoContention).0
}

/// [`replay`] that also hands back the shared cache, so callers can
/// inspect final contents — per-set occupancy, resident blocks — after
/// the replay (the concurrency property tests compare these against a
/// sequential run).
pub fn replay_with_cache(
    events: &[TraceEvent],
    threads: usize,
    spec: &LoadSpec,
) -> (LoadOutcome, ConcurrentCache) {
    let (out, _, cache, ..) = replay_parts_observed(events, threads, spec, None, || NoContention);
    (out, cache)
}

/// [`replay`] plus the merged span trace: one Perfetto track per client
/// thread, one span per chunk (with reference/request/probe counters), and
/// per-client latency percentiles on the client root spans.
pub fn replay_traced(
    events: &[TraceEvent],
    threads: usize,
    spec: &LoadSpec,
) -> (LoadOutcome, SpanTrace) {
    let (out, trace, ..) = replay_parts_observed(events, threads, spec, None, || NoContention);
    (out, trace)
}

/// [`replay_traced`] that additionally publishes live progress to a
/// [`ServeHandle`]: running `serve_refs_total`/`serve_requests_total`
/// counters, per-client chunk counters, and a heartbeat at every chunk
/// boundary — all at chunk granularity, never per access.
pub fn replay_served(
    events: &[TraceEvent],
    threads: usize,
    spec: &LoadSpec,
    handle: &ServeHandle,
) -> (LoadOutcome, SpanTrace) {
    let (out, trace, ..) =
        replay_parts_observed(events, threads, spec, Some(handle), || NoContention);
    (out, trace)
}

/// [`replay`] with full contention attribution: every request's lock
/// wait/hold is timed and attributed to its stripe, and sampled requests
/// are decomposed into wait/service/overhead phases. The cache contents,
/// statistics and probe counts are bit-identical to an un-instrumented
/// replay (the contention property tests pin this); only wall time pays
/// for the extra clock reads. Per-stripe `occupancy` is filled from the
/// cache after the run.
pub fn replay_contended(
    events: &[TraceEvent],
    threads: usize,
    spec: &LoadSpec,
) -> (LoadOutcome, ContentionReport) {
    let (out, _, report) = replay_contended_traced(events, threads, spec);
    (out, report)
}

/// [`replay_contended`] that also hands back the span trace, whose client
/// tracks carry `wait`/`service` phase spans for every sampled request.
pub fn replay_contended_traced(
    events: &[TraceEvent],
    threads: usize,
    spec: &LoadSpec,
) -> (LoadOutcome, SpanTrace, ContentionReport) {
    let stripes = ConcurrentCache::effective_stripes(&spec.l2, spec.stripes);
    let (out, trace, cache, observers, phases) =
        replay_parts_observed(events, threads, spec, None, || {
            StripeContention::new(stripes)
        });
    let mut merged = StripeContention::new(stripes);
    for obs in &observers {
        merged.merge(obs);
    }
    for (i, s) in merged.stripes_mut().iter_mut().enumerate() {
        s.occupancy = cache.stripe_occupancy(i) as u64;
    }
    let report = ContentionReport {
        stripes: merged.stripes().to_vec(),
        phases,
    };
    (out, trace, report)
}

fn replay_parts_observed<O: ContentionObserver + Send>(
    events: &[TraceEvent],
    threads: usize,
    spec: &LoadSpec,
    handle: Option<&ServeHandle>,
    make_obs: impl Fn() -> O + Sync,
) -> (
    LoadOutcome,
    SpanTrace,
    ConcurrentCache,
    Vec<O>,
    PhasedLatencyRecorder,
) {
    assert!(
        spec.l1.block_size() <= spec.l2.block_size(),
        "L1 blocks must fit in shared-cache blocks"
    );
    let threads = threads.max(1);
    let chunks = spec.chunks.unwrap_or(threads).max(1);
    let chunks = if threads == 1 && spec.chunks.is_none() {
        1
    } else {
        chunks
    };
    let ranges = chunk_ranges(events.len(), chunks);
    let single_chunk = ranges.len() <= 1;
    let shared = ConcurrentCache::new(spec.l2, spec.strategy, spec.stripes);
    let next = AtomicUsize::new(0);
    let clock = SpanClock::new();
    if let Some(handle) = handle {
        handle.update_metrics(|m| {
            let g = m.gauge("serve_clients");
            m.set_gauge(g, threads as f64);
            m.counter("serve_refs_total");
            m.counter("serve_requests_total");
        });
    }

    let started = Instant::now();
    let clients: Vec<Client<'_, O>> = if threads == 1 {
        let mut c = Client::new(1, &shared, spec, clock, make_obs());
        c.run(events, &ranges, &next, single_chunk, handle, started);
        vec![c]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=threads)
                .map(|id| {
                    let shared = &shared;
                    let ranges = &ranges;
                    let next = &next;
                    let clock = clock.clone();
                    let make_obs = &make_obs;
                    scope.spawn(move || {
                        let mut c = Client::new(id as u32, shared, spec, clock, make_obs());
                        c.run(events, ranges, next, single_chunk, handle, started);
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut trace = SpanTrace::new();
    let mut latency = LatencyRecorder::new(spec.sample_every);
    let mut outcome = LoadOutcome {
        threads,
        chunks: ranges.len(),
        stripes: shared.num_stripes(),
        refs: 0,
        requests: 0,
        read_ins: 0,
        read_in_hits: 0,
        write_backs: 0,
        write_back_hits: 0,
        probes: 0,
        wall_seconds,
        requests_per_second: 0.0,
        refs_per_second: 0.0,
        latency_samples: 0,
        p50_ns: None,
        p99_ns: None,
        l1_stats: CacheStats::new(),
        l2_stats: shared.stats(),
        l2_probes: shared.probe_stats(),
    };
    let mut observers = Vec::with_capacity(clients.len());
    let mut phases = PhasedLatencyRecorder::new(spec.sample_every);
    for c in clients {
        outcome.refs += c.refs;
        outcome.requests += c.requests;
        outcome.read_ins += c.read_ins;
        outcome.read_in_hits += c.read_in_hits;
        outcome.write_backs += c.write_backs;
        outcome.write_back_hits += c.write_back_hits;
        outcome.probes += c.probes;
        outcome.l1_stats += *c.l1.stats();
        latency.merge(&c.latency);
        phases.merge(&c.phases);
        observers.push(c.obs);
        trace.name_track(c.buf.track(), format!("client-{}", c.buf.track()));
        trace.absorb(c.buf);
    }
    outcome.latency_samples = latency.len() as u64;
    (outcome.p50_ns, outcome.p99_ns) = latency.p50_p99_ns();
    if wall_seconds > 0.0 {
        outcome.requests_per_second = outcome.requests as f64 / wall_seconds;
        outcome.refs_per_second = outcome.refs as f64 / wall_seconds;
    }
    if let Some(handle) = handle {
        let hb = ServeHeartbeat {
            refs: outcome.refs,
            wall_seconds,
            refs_per_second: outcome.refs_per_second,
            window_miss_ratio: None,
            active_workers: Some(threads as u64),
        };
        handle.publish_heartbeat(&hb);
    }
    (outcome, trace, shared, observers, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seta_core::lookup::Mru;
    use seta_trace::TraceRecord;

    fn spec() -> LoadSpec {
        LoadSpec::new(
            CacheConfig::direct_mapped(1024, 16).unwrap(),
            CacheConfig::new(16 * 1024, 32, 4).unwrap(),
            StrategyKind::Mru(Mru::full()),
        )
    }

    fn workload(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let addr = (i * 4093) % 0x10000;
                if i % 3 == 0 {
                    TraceEvent::Ref(TraceRecord::write(addr))
                } else {
                    TraceEvent::Ref(TraceRecord::read(addr))
                }
            })
            .collect()
    }

    #[test]
    fn single_thread_conserves_and_counts_refs() {
        let events = workload(4000);
        let out = replay(&events, 1, &spec());
        assert_eq!(out.refs, 4000);
        assert_eq!(out.chunks, 1);
        assert!(out.requests > 0);
        assert!(out.conserves(), "{out:?}");
        assert!(out.latency_samples > 0);
        assert!(out.p50_ns.is_some() && out.p99_ns.is_some());
    }

    #[test]
    fn multi_thread_conserves_at_every_count() {
        let events = workload(4000);
        for threads in [2, 4, 7] {
            let out = replay(&events, threads, &spec());
            assert_eq!(out.refs, 4000, "{threads} threads");
            assert_eq!(out.threads, threads);
            assert!(out.conserves(), "{threads} threads: {out:?}");
        }
    }

    #[test]
    fn request_totals_do_not_depend_on_thread_count() {
        // Cold per-chunk L1s make request totals a function of the chunk
        // plan alone: with the chunk count pinned, any thread count
        // produces identical request totals.
        let events = workload(3000);
        let mut pinned = spec();
        pinned.chunks = Some(4);
        let base = replay(&events, 1, &pinned);
        for threads in [2, 3, 8] {
            let out = replay(&events, threads, &pinned);
            assert_eq!(out.requests, base.requests, "{threads} threads");
            assert_eq!(out.read_ins, base.read_ins);
            assert_eq!(out.write_backs, base.write_backs);
        }
    }

    #[test]
    fn flush_events_cold_start_the_shared_cache() {
        let mut events = workload(500);
        events.push(TraceEvent::Flush);
        let tail = workload(500);
        events.extend(tail);
        let out = replay(&events, 1, &spec());
        assert_eq!(out.refs, 1000);
        assert!(out.conserves(), "{out:?}");
    }

    #[test]
    fn traced_replay_has_one_track_per_client() {
        let events = workload(2000);
        let (out, trace) = replay_traced(&events, 3, &spec());
        assert!(out.conserves());
        assert!(trace.len() >= 3 + out.chunks, "client roots + chunks");
        assert_eq!(trace.counter_sum("refs"), out.refs);
        assert_eq!(trace.counter_sum("requests"), out.requests);
        assert_eq!(trace.counter_sum("probes"), out.probes);
        assert_eq!(trace.counter_sum("latency_samples"), out.latency_samples);
        seta_obs::validate_perfetto(&trace.perfetto_json("serve")).expect("valid perfetto");
    }
}
