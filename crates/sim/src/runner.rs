//! The simulation loop: one trace pass scores every lookup strategy.

use crate::metered::live_heartbeat;
use crate::partition::{chunk_ranges, requested_threads};
use serde::{Deserialize, Serialize};
use seta_cache::{
    filter_l1, Cache, CacheConfig, CacheStats, FilteredEvent, L2Half, L2Observer, L2RequestKind,
    L2RequestView, TwoLevel, TwoLevelStats,
};
use seta_core::lookup::{
    Lookup, Mru, Naive, PartialCompare, StrategyKind, Traditional, TransformKind,
};
use seta_core::packed::LaneSpec;
use seta_core::{model, MruDistanceHistogram, ProbeStats, SetView};
use seta_obs::{labeled, ServeHandle, ServeHeartbeat, SpanBuffer, SpanClock, SpanId, SpanTrace};
use seta_trace::gen::AtumLike;
use seta_trace::TraceEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Probe results for one strategy over one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyResult {
    /// The strategy's [`name`](StrategyKind::name).
    pub name: String,
    /// Probe statistics with the write-back optimization: write-backs cost
    /// zero probes (the paper's default for all figures and Table 4).
    pub probes: ProbeStats,
    /// Probe statistics without the optimization: write-backs are priced as
    /// real lookups (Figure 3's upper curves).
    pub probes_no_opt: ProbeStats,
}

/// Everything measured by one simulation pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Label of the L1 configuration.
    pub l1_label: String,
    /// Label of the L2 configuration.
    pub l2_label: String,
    /// L2 associativity.
    pub assoc: u32,
    /// Hierarchy counters (miss ratios, request mix, hint accuracy).
    pub hierarchy: TwoLevelStats,
    /// L1 access statistics.
    pub l1_stats: CacheStats,
    /// L2 access statistics.
    pub l2_stats: CacheStats,
    /// Per-strategy probe statistics.
    pub strategies: Vec<StrategyResult>,
    /// MRU-distance histogram of read-in hits (Figure 5's `fᵢ`).
    pub mru_hist: MruDistanceHistogram,
    /// Fraction of L2 requests that change the per-set MRU list — the `u`
    /// in Table 2's MRU cycle-time formula `250 + 50(x+u)`.
    pub mru_update_fraction: f64,
}

impl RunOutcome {
    /// The result for a strategy by name.
    pub fn strategy(&self, name: &str) -> Option<&StrategyResult> {
        self.strategies.iter().find(|s| s.name == name)
    }
}

/// Scores every strategy against each L2 request's pre-access set state.
pub(crate) struct Scorer<'a> {
    strategies: &'a [StrategyKind],
    pub(crate) results: Vec<(ProbeStats, ProbeStats)>,
    pub(crate) mru_hist: MruDistanceHistogram,
    /// Requests that change the MRU list (hits away from the MRU position,
    /// plus every miss) — Table 2's update probability `u`.
    pub(crate) mru_updates: u64,
    pub(crate) requests: u64,
}

impl<'a> Scorer<'a> {
    /// The scorer of a hierarchy's L2 requests under `strategies`. When
    /// one of them is a partial compare realizable at `l2`'s associativity,
    /// `enable_lanes` first receives its lane spec, so the L2 maintains the
    /// packed tag lanes the partial fast path reads instead of packing the
    /// set on every access. Every path that prices a hierarchy with the
    /// plain lookups builds its scorer here.
    pub(crate) fn with_lanes(
        strategies: &'a [StrategyKind],
        l2: CacheConfig,
        enable_lanes: impl FnOnce(LaneSpec) -> bool,
    ) -> Self {
        let assoc = l2.associativity();
        if let Some(spec) = strategies.iter().find_map(|s| s.lane_spec(assoc as usize)) {
            enable_lanes(spec);
        }
        Scorer::new(strategies, assoc)
    }

    pub(crate) fn new(strategies: &'a [StrategyKind], assoc: u32) -> Self {
        Scorer {
            strategies,
            results: vec![(ProbeStats::new(), ProbeStats::new()); strategies.len()],
            mru_hist: MruDistanceHistogram::new(assoc as usize),
            mru_updates: 0,
            requests: 0,
        }
    }

    /// Scores one request with `lookup` performing each strategy's search.
    ///
    /// The plain path passes [`StrategyKind::lookup_lanes`]; the explain
    /// pass (see [`crate::explain`]) substitutes `lookup_observed` with its
    /// event recorders, so instrumentation prices exactly the lookups the
    /// statistics record — never a second execution.
    pub(crate) fn score_with<F>(&mut self, req: &L2RequestView<'_>, mut lookup: F)
    where
        F: FnMut(usize, &StrategyKind, &SetView<'_>, u64) -> Lookup,
    {
        // The view borrows the set where the cache stores it; the cache
        // guarantees its invariants, so nothing is copied or re-checked.
        let view = req.frames.view(req.order);

        if req.kind == L2RequestKind::ReadIn && req.hit {
            self.mru_hist
                .record(req.mru_distance.expect("hits have an MRU distance"));
        }
        self.requests += 1;
        if req.mru_distance != Some(0) {
            // A hit away from the front, or any miss, reorders the list;
            // write-backs count too ("they update the MRU list").
            self.mru_updates += 1;
        }

        for (i, (strategy, (opt, no_opt))) in
            self.strategies.iter().zip(&mut self.results).enumerate()
        {
            let lookup = lookup(i, strategy, &view, req.tag);
            debug_assert_eq!(
                lookup.hit_way,
                req.hit_way,
                "{} disagrees with the cache on {:?}",
                strategy.name(),
                req.addr
            );
            match req.kind {
                L2RequestKind::ReadIn => {
                    if req.hit {
                        opt.record_hit(lookup.probes);
                        no_opt.record_hit(lookup.probes);
                    } else {
                        opt.record_miss(lookup.probes);
                        no_opt.record_miss(lookup.probes);
                    }
                }
                L2RequestKind::WriteBack => {
                    // With the optimization the L1's position hint lets the
                    // write-back proceed with no tag probes at all.
                    opt.record_write_back(0);
                    no_opt.record_write_back(lookup.probes);
                }
            }
        }
    }
}

impl L2Observer for Scorer<'_> {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        let lanes = req.lanes;
        self.score_with(req, |_, strategy, view, tag| {
            strategy.lookup_lanes(view, lanes, tag)
        });
    }
}

/// Runs one simulation: drives `events` through a fresh two-level
/// hierarchy and prices every L2 request under each strategy.
///
/// Cache *contents* are strategy-independent, so the single pass yields
/// exact probe statistics for all strategies simultaneously — the same
/// methodology as the paper's trace-driven study.
pub fn simulate<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    events: I,
    strategies: &[StrategyKind],
) -> RunOutcome
where
    I: IntoIterator<Item = TraceEvent>,
{
    simulate_with_l2_policy(l1, l2, seta_cache::Policy::Lru, 0, events, strategies)
}

/// [`simulate`] with an explicit L2 replacement policy — the ablation knob
/// for the paper's assumption that true-LRU replacement provides the MRU
/// lookup's search order for free. Under FIFO the recency list is fill
/// order; under random replacement it never changes, and the MRU scheme
/// degrades to a fixed-order scan.
pub fn simulate_with_l2_policy<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    l2_policy: seta_cache::Policy,
    policy_seed: u64,
    events: I,
    strategies: &[StrategyKind],
) -> RunOutcome
where
    I: IntoIterator<Item = TraceEvent>,
{
    let mut hierarchy = TwoLevel::with_l2_policy(l1, l2, l2_policy, policy_seed).expect(L1_FITS_L2);
    let mut scorer = Scorer::with_lanes(strategies, l2, |s| hierarchy.enable_partial_lanes(s));
    hierarchy.run(events, &mut scorer);
    RunTally::of(&hierarchy, scorer).into_outcome(l1, l2, strategies)
}

/// Why building a hierarchy from checked configurations cannot fail.
pub(crate) const L1_FITS_L2: &str = "L1 blocks must fit in L2 blocks";

/// Totals already attributed to earlier segments of a traced run, so each
/// segment span carries only its own deltas and the per-segment counters
/// sum exactly to the run's aggregate statistics.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentMark {
    refs: u64,
    read_ins: u64,
    read_in_hits: u64,
    write_backs: u64,
    probes: u64,
}

impl SegmentMark {
    /// Closes `span` with this segment's counter deltas and advances the
    /// mark to the current totals.
    fn close_segment(
        &mut self,
        buf: &mut SpanBuffer,
        span: SpanId,
        stats: &TwoLevelStats,
        results: &[(ProbeStats, ProbeStats)],
    ) {
        let probes = probe_total(results);
        buf.counter(span, "refs", stats.processor_refs - self.refs);
        buf.counter(span, "read_ins", stats.read_ins - self.read_ins);
        buf.counter(span, "read_in_hits", stats.read_in_hits - self.read_in_hits);
        buf.counter(span, "write_backs", stats.write_backs - self.write_backs);
        buf.counter(span, "probes", probes - self.probes);
        buf.close(span);
        *self = SegmentMark {
            refs: stats.processor_refs,
            read_ins: stats.read_ins,
            read_in_hits: stats.read_in_hits,
            write_backs: stats.write_backs,
            probes,
        };
    }
}

/// [`simulate`] with span tracing: the identical event loop (the same
/// [`TwoLevel::process`] calls the plain path makes), plus a [`SpanTrace`]
/// with one span per flush-delimited trace segment. Each segment span
/// carries that segment's reference, read-in, write-back and probe deltas,
/// so counter sums over the trace equal the outcome's aggregate statistics
/// exactly. The per-access hot path pays nothing — the clock is read twice
/// per *segment*, not per reference.
pub fn simulate_traced<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    events: I,
    strategies: &[StrategyKind],
) -> (RunOutcome, SpanTrace)
where
    I: IntoIterator<Item = TraceEvent>,
{
    let mut hierarchy = TwoLevel::new(l1, l2).expect(L1_FITS_L2);
    let mut scorer = Scorer::with_lanes(strategies, l2, |s| hierarchy.enable_partial_lanes(s));
    let mut buf = SpanBuffer::new(0, SpanClock::new());
    let root = buf.open("simulate", "run");
    let mut segment = 0u64;
    let mut seg_span = buf.open("segment-0", "segment");
    let mut mark = SegmentMark::default();
    for event in events {
        let is_flush = matches!(event, TraceEvent::Flush);
        hierarchy.process(&event, &mut scorer);
        if is_flush {
            mark.close_segment(&mut buf, seg_span, hierarchy.stats(), &scorer.results);
            segment += 1;
            seg_span = buf.open(format!("segment-{segment}"), "segment");
        }
    }
    mark.close_segment(&mut buf, seg_span, hierarchy.stats(), &scorer.results);
    buf.close(root);
    let mut trace = SpanTrace::new();
    trace.name_track(0, "main");
    trace.absorb(buf);
    let outcome = RunTally::of(&hierarchy, scorer).into_outcome(l1, l2, strategies);
    (outcome, trace)
}

/// One run of a parameter sweep: a hierarchy plus the workload to drive
/// it and the tag width for the standard strategy set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSpec {
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Workload configuration.
    pub trace: seta_trace::gen::AtumLikeConfig,
    /// Workload seed.
    pub seed: u64,
    /// Stored-tag width for the standard strategies.
    pub tag_bits: u32,
}

impl RunSpec {
    /// Whether this spec's trace decomposes into independent per-segment
    /// shards: every segment starts from a cold (flushed) hierarchy, so
    /// simulating segments separately and summing the counters is
    /// bit-identical to one sequential pass.
    fn splits_by_segment(&self) -> bool {
        self.trace.flush_between_segments
    }

    /// Whether `other` replays the identical event stream, so one
    /// generated segment can serve both.
    fn shares_trace_with(&self, other: &RunSpec) -> bool {
        self.trace == other.trace && self.seed == other.seed
    }

    /// Simulates segments `start..end` of this spec on a fresh hierarchy,
    /// streaming them straight from the generator.
    fn run_segments(&self, start: usize, end: usize) -> RunTally {
        self.run_events(AtumLike::segment_range(
            self.trace.clone(),
            self.seed,
            start,
            end,
        ))
    }

    /// Simulates `events` on a fresh hierarchy, returning the mergeable
    /// counters.
    fn run_events(&self, events: impl IntoIterator<Item = TraceEvent>) -> RunTally {
        let strategies = self.strategies();
        let mut hierarchy = TwoLevel::new(self.l1, self.l2).expect(L1_FITS_L2);
        let mut scorer =
            Scorer::with_lanes(&strategies, self.l2, |s| hierarchy.enable_partial_lanes(s));
        hierarchy.run(events, &mut scorer);
        RunTally::of(&hierarchy, scorer)
    }

    /// Replays events already filtered through this spec's L1 into a fresh
    /// L2 half. `l1_side` and `l1_stats` are that L1 pass's counters; the
    /// replay adds the L2 side's.
    fn replay_filtered(
        &self,
        filtered: &[FilteredEvent],
        l1_side: TwoLevelStats,
        l1_stats: CacheStats,
    ) -> RunTally {
        let strategies = self.strategies();
        let mut l2 = L2Half::new(self.l1, self.l2, seta_cache::Policy::Lru, 0).expect(L1_FITS_L2);
        let mut scorer = Scorer::with_lanes(&strategies, self.l2, |s| l2.enable_partial_lanes(s));
        let mut hierarchy = TwoLevelStats::default();
        l2.replay(filtered, &mut hierarchy, &mut scorer);
        hierarchy += l1_side;
        RunTally::new(hierarchy, l1_stats, *l2.cache().stats(), scorer)
    }

    /// The standard strategy set this spec prices.
    fn strategies(&self) -> Vec<StrategyKind> {
        standard_strategies(self.l2.associativity(), self.tag_bits)
    }
}

/// A worker's sweep buffers, reused across shards so that a worker holds
/// at most one segment's events and one L1 pass's misses at a time.
#[derive(Default)]
pub(crate) struct ShardScratch {
    /// The shard's generated events, sized exactly.
    events: Vec<TraceEvent>,
    /// Those events filtered through one L1: its misses and flushes.
    filtered: Vec<FilteredEvent>,
}

/// One work item of a sharded sweep: a contiguous segment range simulated
/// under each of `specs`, which all replay the same trace and seed.
pub(crate) struct Shard {
    /// Ascending indices into the sweep's specs.
    specs: Vec<usize>,
    seg_start: usize,
    seg_end: usize,
}

impl Shard {
    /// Simulates this shard under each of its specs, returning one outcome
    /// per spec and the number of L1 passes made. A single spec streams
    /// straight from the generator. Several specs share one generation of
    /// the segments, buffered in `scratch`; since the L2 sees only L1
    /// traffic, the buffer is then filtered once per distinct L1 and each
    /// spec with that L1 replays the misses through its own L2 half.
    fn run(&self, specs: &[RunSpec], scratch: &mut ShardScratch) -> (Vec<RunTally>, u64) {
        let head = &specs[self.specs[0]];
        if self.specs.len() == 1 {
            return (vec![head.run_segments(self.seg_start, self.seg_end)], 1);
        }
        let segments = self.seg_end - self.seg_start;
        scratch.events.clear();
        scratch
            .events
            .reserve_exact(segments * (head.trace.refs_per_segment as usize + 1));
        scratch.events.extend(AtumLike::segment_range(
            head.trace.clone(),
            head.seed,
            self.seg_start,
            self.seg_end,
        ));
        let mut outs: Vec<Option<RunTally>> = self.specs.iter().map(|_| None).collect();
        let mut l1_passes = 0;
        for (k, &i) in self.specs.iter().enumerate() {
            if outs[k].is_some() {
                continue;
            }
            let l1 = specs[i].l1;
            let mut cache = Cache::new(l1);
            let mut l1_side = TwoLevelStats::default();
            scratch.filtered.clear();
            filter_l1(
                &mut cache,
                scratch.events.iter().copied(),
                &mut l1_side,
                &mut scratch.filtered,
            );
            l1_passes += 1;
            for (out, &j) in outs.iter_mut().zip(&self.specs).skip(k) {
                if specs[j].l1 == l1 {
                    *out =
                        Some(specs[j].replay_filtered(&scratch.filtered, l1_side, *cache.stats()));
                }
            }
        }
        let outs = outs
            .into_iter()
            .map(|o| o.expect("every spec's L1 was filtered"))
            .collect();
        (outs, l1_passes)
    }

    /// Span name: the spec indices (consecutive runs collapsed) and the
    /// segment range, e.g. `specs0-23 seg5..6` or `spec4 seg0..3`.
    fn name(&self) -> String {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &i in &self.specs {
            match runs.last_mut() {
                Some((_, last)) if *last + 1 == i => *last = i,
                _ => runs.push((i, i)),
            }
        }
        let runs: Vec<String> = runs
            .iter()
            .map(|&(first, last)| {
                if first == last {
                    first.to_string()
                } else {
                    format!("{first}-{last}")
                }
            })
            .collect();
        let plural = if self.specs.len() == 1 { "" } else { "s" };
        format!(
            "spec{plural}{} seg{}..{}",
            runs.join(","),
            self.seg_start,
            self.seg_end
        )
    }
}

/// The mergeable counters of a run, or of one shard of one spec in a
/// sweep. Everything in a [`RunOutcome`] except the labels is a sum (or a
/// ratio of sums) of these, and every path assembles its outcome from one.
pub(crate) struct RunTally {
    hierarchy: TwoLevelStats,
    l1_stats: CacheStats,
    l2_stats: CacheStats,
    results: Vec<(ProbeStats, ProbeStats)>,
    mru_hist: MruDistanceHistogram,
    mru_updates: u64,
    requests: u64,
}

impl RunTally {
    /// Collects the counters of hierarchy statistics and a finished scorer.
    fn new(
        hierarchy: TwoLevelStats,
        l1_stats: CacheStats,
        l2_stats: CacheStats,
        scorer: Scorer<'_>,
    ) -> Self {
        RunTally {
            hierarchy,
            l1_stats,
            l2_stats,
            results: scorer.results,
            mru_hist: scorer.mru_hist,
            mru_updates: scorer.mru_updates,
            requests: scorer.requests,
        }
    }

    /// The counters of a finished hierarchy and the scorer that priced it.
    pub(crate) fn of(hierarchy: &TwoLevel, scorer: Scorer<'_>) -> Self {
        let (l1_stats, l2_stats) = hierarchy.level_stats();
        RunTally::new(*hierarchy.stats(), l1_stats, l2_stats, scorer)
    }

    /// Folds `other` (another segment range of the same spec) into `self`.
    fn merge(&mut self, other: RunTally) {
        self.hierarchy += other.hierarchy;
        self.l1_stats += other.l1_stats;
        self.l2_stats += other.l2_stats;
        debug_assert_eq!(self.results.len(), other.results.len());
        for (a, b) in self.results.iter_mut().zip(other.results) {
            a.0 = a.0 + b.0;
            a.1 = a.1 + b.1;
        }
        self.mru_hist.merge(&other.mru_hist);
        self.mru_updates += other.mru_updates;
        self.requests += other.requests;
    }

    /// The public outcome of a run of `strategies` on an `l1`/`l2`
    /// hierarchy.
    pub(crate) fn into_outcome(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        strategies: &[StrategyKind],
    ) -> RunOutcome {
        let mru_update_fraction = if self.requests == 0 {
            0.0
        } else {
            self.mru_updates as f64 / self.requests as f64
        };
        RunOutcome {
            l1_label: l1.label(),
            l2_label: l2.label(),
            assoc: l2.associativity(),
            hierarchy: self.hierarchy,
            l1_stats: self.l1_stats,
            l2_stats: self.l2_stats,
            strategies: strategy_results(strategies, self.results),
            mru_hist: self.mru_hist,
            mru_update_fraction,
        }
    }
}

/// Names each strategy's `(optimized, unoptimized)` probe books.
fn strategy_results(
    strategies: &[StrategyKind],
    results: Vec<(ProbeStats, ProbeStats)>,
) -> Vec<StrategyResult> {
    strategies
        .iter()
        .zip(results)
        .map(|(s, (probes, probes_no_opt))| StrategyResult {
            name: s.name(),
            probes,
            probes_no_opt,
        })
        .collect()
}

/// Splits the sweep into its units of parallelism for `workers` workers.
///
/// Cold specs that replay the same trace and seed form a group (groups in
/// order of first appearance), and each group yields one shard per
/// cold-start segment, so every segment is generated once for the whole
/// group. A group with fewer segments than `2 × workers` also splits its
/// spec list into `⌈2·workers / segments⌉` contiguous slices (at most one
/// per spec), one shard per slice and segment, so a short trace still
/// feeds every worker. Warm specs carry cache state across segment
/// boundaries and run as one whole-spec shard each.
fn shard_plan(specs: &[RunSpec], workers: usize) -> Vec<Shard> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let shared = groups
            .iter_mut()
            .find(|g| spec.splits_by_segment() && specs[g[0]].shares_trace_with(spec));
        match shared {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    let mut shards = Vec::new();
    for group in groups {
        let trace = &specs[group[0]].trace;
        if !specs[group[0]].splits_by_segment() {
            shards.push(Shard {
                specs: group,
                seg_start: 0,
                seg_end: trace.segments,
            });
            continue;
        }
        let slices = if trace.segments < 2 * workers {
            (2 * workers).div_ceil(trace.segments)
        } else {
            1
        };
        let slices = chunk_ranges(group.len(), slices);
        for k in 0..trace.segments {
            for slice in &slices {
                shards.push(Shard {
                    specs: group[slice.clone()].to_vec(),
                    seg_start: k,
                    seg_end: k + 1,
                });
            }
        }
    }
    shards
}

/// Plans a sweep for `requested` workers: the shard list, and the worker
/// count clamped to it so no worker starts with nothing to do.
fn plan(specs: &[RunSpec], requested: usize) -> (Vec<Shard>, usize) {
    let requested = requested.max(1);
    let shards = shard_plan(specs, requested);
    let threads = requested.min(shards.len().max(1));
    (shards, threads)
}

/// Records a sharded sweep at shard granularity, so every sweep records:
/// the per-access hot path inside a shard never sees the recorder.
///
/// Each worker writes spans into a private [`SpanBuffer`] (its root, one
/// span per shard with counter attachments, and queue-wait spans between
/// shards) and hands it back at join. With a [`ServeHandle`] the recorder
/// also publishes live progress: `sweep_shards_total`/`sweep_workers`
/// gauges at start, running `sweep_shards_done_total`/`sweep_refs_total`/
/// `sweep_probes_total` counters, a per-worker
/// `sweep_worker_busy{worker="N"}` gauge flipped around every shard plus a
/// `sweep_worker_shards_total{worker="N"}` counter, and a heartbeat after
/// each shard.
struct SweepRecorder {
    clock: SpanClock,
    serve: Option<ServeHandle>,
    started: Instant,
    workers: usize,
    refs: AtomicU64,
}

/// One worker's span buffer, its root span, and the span now open under
/// it: a queue wait between shards, or the shard being simulated.
struct WorkerSpans {
    buf: SpanBuffer,
    root: SpanId,
    open: SpanId,
}

impl SweepRecorder {
    fn new(serve: Option<ServeHandle>, shards: usize, workers: usize) -> Self {
        if let Some(h) = &serve {
            h.update_metrics(|m| {
                let g = m.gauge("sweep_shards_total");
                m.set_gauge(g, shards as f64);
                let g = m.gauge("sweep_workers");
                m.set_gauge(g, workers as f64);
                // Register the running counters up front so the first
                // scrape already shows the full schema at zero.
                m.counter("sweep_shards_done_total");
                m.counter("sweep_refs_total");
                m.counter("sweep_probes_total");
            });
        }
        SweepRecorder {
            clock: SpanClock::new(),
            serve,
            started: Instant::now(),
            workers,
            refs: AtomicU64::new(0),
        }
    }

    /// Called on a worker's thread before it drains the queue. Track 0 is
    /// the coordinating thread; workers are 1-based.
    fn worker_start(&self, track: u32) -> WorkerSpans {
        self.set_busy(track, false);
        let mut buf = SpanBuffer::new(track, self.clock.clone());
        let root = buf.open(format!("worker-{track}"), "worker");
        let open = buf.open("queue-wait", "queue-wait");
        WorkerSpans { buf, root, open }
    }

    fn shard_begin(&self, w: &mut WorkerSpans, shard: &Shard) {
        w.buf.close(w.open);
        w.open = w.buf.open(shard.name(), "shard");
        self.set_busy(w.buf.track(), true);
    }

    /// Closes the shard span with its counters — sums over `outs`, one per
    /// spec in the shard — and publishes the shard's progress.
    fn shard_end(&self, w: &mut WorkerSpans, outs: &[RunTally], l1_passes: u64) {
        let sum = |f: fn(&RunTally) -> u64| outs.iter().map(f).sum::<u64>();
        let refs = sum(|o| o.hierarchy.processor_refs);
        let probes = sum(|o| probe_total(&o.results));
        let id = w.open;
        w.buf.counter(id, "refs", refs);
        w.buf.counter(id, "read_ins", sum(|o| o.hierarchy.read_ins));
        w.buf
            .counter(id, "read_in_hits", sum(|o| o.hierarchy.read_in_hits));
        w.buf
            .counter(id, "write_backs", sum(|o| o.hierarchy.write_backs));
        w.buf.counter(id, "probes", probes);
        w.buf.counter(id, "l1_passes", l1_passes);
        w.buf.close(id);
        w.open = w.buf.open("queue-wait", "queue-wait");
        let Some(h) = &self.serve else { return };
        let total = self.refs.fetch_add(refs, Ordering::Relaxed) + refs;
        let worker = w.buf.track().to_string();
        h.update_metrics(|m| {
            let c = m.counter("sweep_shards_done_total");
            m.inc(c, 1);
            let c = m.counter("sweep_refs_total");
            m.inc(c, refs);
            let c = m.counter("sweep_probes_total");
            m.inc(c, probes);
            let g = m.gauge(&labeled("sweep_worker_busy", "worker", &worker));
            m.set_gauge(g, 0.0);
            let c = m.counter(&labeled("sweep_worker_shards_total", "worker", &worker));
            m.inc(c, 1);
        });
        h.publish_heartbeat(&self.heartbeat(total));
    }

    /// Called when the queue is drained; returns the worker's spans.
    fn worker_finish(&self, mut w: WorkerSpans) -> SpanBuffer {
        w.buf.close(w.open);
        w.buf.close(w.root);
        w.buf
    }

    /// Sets a served worker's busy gauge (registering its shard counter).
    fn set_busy(&self, track: u32, busy: bool) {
        let Some(h) = &self.serve else { return };
        let worker = track.to_string();
        h.update_metrics(|m| {
            let g = m.gauge(&labeled("sweep_worker_busy", "worker", &worker));
            m.set_gauge(g, if busy { 1.0 } else { 0.0 });
            m.counter(&labeled("sweep_worker_shards_total", "worker", &worker));
        });
    }

    fn heartbeat(&self, refs: u64) -> ServeHeartbeat {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        live_heartbeat(refs, wall_seconds, None, self.workers)
    }
}

/// Total optimized probes charged, summed over every strategy's books —
/// the same accounting as the aggregate `ProbeStats`.
fn probe_total(results: &[(ProbeStats, ProbeStats)]) -> u64 {
    results
        .iter()
        .map(|(opt, _)| opt.hits.probes + opt.misses.probes + opt.write_backs.probes)
        .sum()
}

/// Runs a sweep of independent simulations across a sharded work queue,
/// returning outcomes in spec order.
///
/// The unit of work is one cold-start trace segment of one *trace group*:
/// the specs that replay the same trace and seed, as every geometry of a
/// Table 4 or Figures 3–6 sweep does. A worker generates the segment once,
/// runs it through each distinct L1 of the group once, and replays that
/// L1's misses through the L2 half of every spec sharing it (the L2 sees
/// only L1 traffic, so this is exact). Generation is paid once per segment
/// and the L1 once per distinct L1 rather than once per spec (Table 4's
/// 24 specs have 3 L1s), and even a single multi-segment trace fans out
/// across every worker (the paper's methodology flushes the hierarchy
/// between segments, which makes them independent). A group whose trace
/// has fewer segments than twice the worker count is also split into
/// contiguous slices of specs, so short traces keep every worker busy.
/// Warm traces (no flushes) carry cache state across segments and run as
/// one shard per spec, streamed from the generator. Per-shard counters merge
/// exactly — results are bit-identical to running each spec serially
/// through [`simulate`], whatever the worker count.
///
/// Memory: each worker holds at most one generated segment, 16 bytes per
/// event — 160 KB for 10,000-reference segments, 5.6 MB for the paper's
/// 350,000-reference ones — plus that segment's misses through one L1, 32
/// bytes per miss (the paper's L1s miss on 5–12% of references).
/// Single-spec groups and warm specs buffer nothing.
///
/// Worker count is `min(available_parallelism, shard count)`; set
/// `SETA_THREADS` to pin it (e.g. `SETA_THREADS=1` for a reproducible
/// sequential CI run).
pub fn simulate_many(specs: &[RunSpec]) -> Vec<RunOutcome> {
    simulate_many_with_threads(specs, requested_threads())
}

/// [`simulate_many`] with an explicit worker count, ignoring
/// `SETA_THREADS` and the machine's parallelism. Useful for measuring
/// scaling and for tests that must not depend on the environment.
pub fn simulate_many_with_threads(specs: &[RunSpec], threads: usize) -> Vec<RunOutcome> {
    simulate_many_traced_with_threads(specs, threads).0
}

/// [`simulate_many_with_threads`] returning the sweep's [`SpanTrace`] as
/// well. Every sweep records spans at shard granularity (the per-access
/// hot path is untouched), so the outcomes are the same bits: the trace
/// holds the sweep root, per-worker roots, per-shard spans with counter
/// attachments, queue-wait spans, and the merge span. Feed it to
/// [`SweepReport`](crate::sweep_report::SweepReport) for utilization
/// analysis or export it as Perfetto JSON.
pub fn simulate_many_traced_with_threads(
    specs: &[RunSpec],
    threads: usize,
) -> (Vec<RunOutcome>, SpanTrace) {
    simulate_sharded(specs, threads, None)
}

/// [`simulate_many_traced_with_threads`] additionally publishing live
/// sweep progress — shard/ref/probe counters, per-worker busy gauges, and
/// heartbeats — to a monitoring server's [`ServeHandle`]. Outcomes stay
/// bit-identical to the un-served sweep: publishing happens only between
/// shards.
///
/// The caller keeps responsibility for `finish_run` on the handle, so it
/// can publish final summary metrics after the sweep before the server
/// reports the run as done.
pub fn simulate_many_served_with_threads(
    specs: &[RunSpec],
    threads: usize,
    handle: ServeHandle,
) -> (Vec<RunOutcome>, SpanTrace) {
    simulate_sharded(specs, threads, Some(handle))
}

fn simulate_sharded(
    specs: &[RunSpec],
    threads: usize,
    serve: Option<ServeHandle>,
) -> (Vec<RunOutcome>, SpanTrace) {
    use std::sync::atomic::AtomicUsize;

    // Every counter is an integer sum, so the order outcomes fold in
    // cannot change a bit of the result.
    fn fold(acc: &mut Option<RunTally>, out: RunTally) {
        match acc {
            None => *acc = Some(out),
            Some(acc) => acc.merge(out),
        }
    }

    let (shards, threads) = plan(specs, threads);
    let recorder = SweepRecorder::new(serve, shards.len(), threads);
    let mut main = SpanBuffer::new(0, recorder.clock.clone());
    let sweep = main.open("sweep", "sweep");

    // One worker: drains the shared queue, folding each shard's per-spec
    // outcomes into its own per-spec totals as it goes, and reuses its
    // scratch buffers across shards.
    let next = AtomicUsize::new(0);
    let drain = |track: u32| -> (Vec<Option<RunTally>>, SpanBuffer) {
        let mut spans = recorder.worker_start(track);
        let mut scratch = ShardScratch::default();
        let mut totals: Vec<Option<RunTally>> = specs.iter().map(|_| None).collect();
        while let Some(shard) = shards.get(next.fetch_add(1, Ordering::Relaxed)) {
            recorder.shard_begin(&mut spans, shard);
            let (outs, l1_passes) = shard.run(specs, &mut scratch);
            recorder.shard_end(&mut spans, &outs, l1_passes);
            debug_assert_eq!(shard.specs.len(), outs.len(), "one outcome per spec");
            for (&spec, out) in shard.specs.iter().zip(outs) {
                fold(&mut totals[spec], out);
            }
        }
        (totals, recorder.worker_finish(spans))
    };
    let per_worker: Vec<(Vec<Option<RunTally>>, SpanBuffer)> = if threads <= 1 {
        vec![drain(1)]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..=threads as u32)
                .map(|track| {
                    let drain = &drain;
                    scope.spawn(move || drain(track))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("sweep worker panicked"))
                .collect()
        })
    };

    let mut trace = SpanTrace::new();
    trace.name_track(0, "main");
    let merge = main.open("merge", "merge");
    let mut outcomes: Vec<Option<RunTally>> = specs.iter().map(|_| None).collect();
    for (totals, spans) in per_worker {
        let track = spans.track();
        trace.name_track(track, format!("worker-{track}"));
        trace.absorb(spans);
        for (acc, out) in outcomes.iter_mut().zip(totals) {
            if let Some(out) = out {
                fold(acc, out);
            }
        }
    }
    let outcomes = outcomes
        .into_iter()
        .zip(specs)
        .map(|(acc, spec)| {
            acc.expect("every spec had at least one shard")
                .into_outcome(spec.l1, spec.l2, &spec.strategies())
        })
        .collect();
    main.close(merge);
    main.counter(sweep, "shards", shards.len() as u64);
    main.counter(sweep, "workers", threads as u64);
    main.close(sweep);
    trace.absorb(main);
    if let Some(h) = &recorder.serve {
        h.publish_heartbeat(&recorder.heartbeat(recorder.refs.load(Ordering::Relaxed)));
    }
    (outcomes, trace)
}

/// Results of a deep-hierarchy run: probe statistics at the last level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepOutcome {
    /// Depth of the hierarchy.
    pub depth: usize,
    /// Per-level incoming-request counters (index 0 = processor refs).
    pub traffic: Vec<seta_cache::LevelTraffic>,
    /// Processor references serviced.
    pub processor_refs: u64,
    /// Fraction of processor references missing every level.
    pub global_miss_ratio: f64,
    /// Per-strategy probe statistics at the last level (write-backs priced
    /// at zero, as under the write-back optimization).
    pub strategies: Vec<StrategyResult>,
    /// MRU-distance histogram of last-level read-in hits.
    pub mru_hist: MruDistanceHistogram,
}

impl DeepOutcome {
    /// The result for a strategy by name.
    pub fn strategy(&self, name: &str) -> Option<&StrategyResult> {
        self.strategies.iter().find(|s| s.name == name)
    }
}

/// Runs a hierarchy of any depth and prices every lookup strategy at the
/// **last** level — the paper's "level two (or higher)" case.
///
/// # Panics
///
/// Panics if `configs` is not a valid hierarchy (see
/// [`MultiLevel::new`](seta_cache::MultiLevel)).
pub fn simulate_last_level<I>(
    configs: Vec<CacheConfig>,
    events: I,
    strategies: &[StrategyKind],
) -> DeepOutcome
where
    I: IntoIterator<Item = TraceEvent>,
{
    let last = configs.len() - 1;
    let last_assoc = configs[last].associativity();
    let mut hierarchy =
        seta_cache::MultiLevel::new(configs).expect("hierarchy configuration is valid");
    let mut scorer = Scorer::new(strategies, last_assoc);
    {
        let mut obs = |level: usize, req: &L2RequestView<'_>| {
            if level == last {
                scorer.on_l2_request(req);
            }
        };
        hierarchy.run(events, &mut obs);
    }
    DeepOutcome {
        depth: hierarchy.depth(),
        traffic: (0..hierarchy.depth())
            .map(|l| *hierarchy.traffic(l))
            .collect(),
        processor_refs: hierarchy.processor_refs(),
        global_miss_ratio: hierarchy.global_miss_ratio(),
        strategies: strategy_results(strategies, scorer.results),
        mru_hist: scorer.mru_hist,
    }
}

/// The paper's standard strategy set for an `a`-way L2 with `t`-bit tags:
/// traditional, naive, full-list MRU, and partial compare with the
/// subset count giving at least 4-bit compares (§2.2's rule 3, which
/// reproduces the s = 1, 2, 4 the paper used for a = 4, 8, 16 at t = 16)
/// and the simple self-inverse XOR transform ("this method is used
/// throughout this paper" — §2.2; the improved transform appears only in
/// the Figure 6 study).
pub fn standard_strategies(assoc: u32, tag_bits: u32) -> Vec<StrategyKind> {
    let mut v = vec![
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
    ];
    if assoc >= 1 {
        let subsets = if assoc == 1 {
            1
        } else {
            model::subsets_for_four_bit_compares(tag_bits, assoc)
        };
        v.push(StrategyKind::Partial(PartialCompare::new(
            tag_bits,
            subsets,
            TransformKind::XorFold,
        )));
    }
    v
}

/// Names of the four standard strategies in [`standard_strategies`] order,
/// with the partial name resolved for the given parameters.
pub fn standard_names(assoc: u32, tag_bits: u32) -> Vec<String> {
    standard_strategies(assoc, tag_bits)
        .iter()
        .map(|s| s.name())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seta_trace::gen::{AtumLike, AtumLikeConfig};
    use seta_trace::TraceRecord;

    fn small_trace(refs: u64, seed: u64) -> AtumLike {
        let mut cfg = AtumLikeConfig::paper_like();
        cfg.segments = 2;
        cfg.refs_per_segment = refs;
        AtumLike::new(cfg, seed)
    }

    fn small_run(assoc: u32) -> RunOutcome {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, assoc).unwrap();
        simulate(
            l1,
            l2,
            small_trace(15_000, 7),
            &standard_strategies(assoc, 16),
        )
    }

    #[test]
    fn traditional_always_one_probe() {
        let out = small_run(4);
        let t = out.strategy("traditional").unwrap();
        assert_eq!(t.probes.hit_mean(), 1.0);
        assert_eq!(t.probes.miss_mean(), 1.0);
    }

    #[test]
    fn naive_miss_mean_is_exactly_a() {
        for a in [2u32, 4, 8] {
            let out = small_run(a);
            let n = out.strategy("naive").unwrap();
            assert_eq!(n.probes.miss_mean(), a as f64, "a={a}");
        }
    }

    #[test]
    fn mru_miss_mean_is_exactly_a_plus_one() {
        let out = small_run(4);
        let m = out.strategy("mru").unwrap();
        assert_eq!(m.probes.miss_mean(), 5.0);
    }

    #[test]
    fn mru_hit_mean_matches_distance_histogram() {
        let out = small_run(4);
        let m = out.strategy("mru").unwrap();
        assert!(
            (m.probes.hit_mean() - out.mru_hist.expected_hit_probes()).abs() < 1e-9,
            "measured {} vs histogram {}",
            m.probes.hit_mean(),
            out.mru_hist.expected_hit_probes()
        );
    }

    #[test]
    fn all_strategies_see_identical_request_counts() {
        let out = small_run(8);
        let first = &out.strategies[0].probes;
        for s in &out.strategies {
            assert_eq!(s.probes.hits.count, first.hits.count, "{}", s.name);
            assert_eq!(s.probes.misses.count, first.misses.count, "{}", s.name);
            assert_eq!(
                s.probes.write_backs.count, first.write_backs.count,
                "{}",
                s.name
            );
        }
        // And the counts agree with the hierarchy's own accounting.
        assert_eq!(first.hits.count, out.hierarchy.read_in_hits);
        assert_eq!(
            first.hits.count + first.misses.count,
            out.hierarchy.read_ins
        );
        assert_eq!(first.write_backs.count, out.hierarchy.write_backs);
    }

    #[test]
    fn write_back_optimization_only_affects_write_backs() {
        let out = small_run(4);
        for s in &out.strategies {
            assert_eq!(s.probes.hits, s.probes_no_opt.hits, "{}", s.name);
            assert_eq!(s.probes.misses, s.probes_no_opt.misses, "{}", s.name);
            assert_eq!(s.probes.write_backs.probes, 0, "{}", s.name);
            if s.name != "traditional" {
                // Without the optimization write-backs cost real probes.
                assert!(
                    s.probes_no_opt.total_mean() >= s.probes.total_mean(),
                    "{}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_run(4);
        let b = small_run(4);
        assert_eq!(a.hierarchy, b.hierarchy);
        for (x, y) in a.strategies.iter().zip(&b.strategies) {
            assert_eq!(x.probes, y.probes);
        }
    }

    #[test]
    fn direct_mapped_l2_prices_everything_at_one_probe() {
        let out = small_run(1);
        for s in &out.strategies {
            assert_eq!(s.probes.hit_mean(), 1.0, "{}", s.name);
            if s.probes.misses.count > 0 {
                assert_eq!(s.probes.miss_mean(), 1.0, "{}", s.name);
            }
        }
    }

    #[test]
    fn standard_strategy_set_has_four_members() {
        assert_eq!(standard_names(4, 16).len(), 4);
        assert_eq!(standard_names(8, 16)[3], "partial[t=16,s=2,xor]");
        assert_eq!(standard_names(16, 16)[3], "partial[t=16,s=4,xor]");
    }

    #[test]
    fn simulate_many_matches_serial_runs() {
        let specs: Vec<RunSpec> = [2u32, 4, 8]
            .iter()
            .map(|&a| RunSpec {
                l1: CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
                l2: CacheConfig::new(32 * 1024, 32, a).unwrap(),
                trace: {
                    let mut c = AtumLikeConfig::paper_like();
                    c.segments = 2;
                    c.refs_per_segment = 10_000;
                    c
                },
                seed: 7,
                tag_bits: 16,
            })
            .collect();
        let parallel = simulate_many(&specs);
        for (spec, out) in specs.iter().zip(&parallel) {
            let serial = simulate(
                spec.l1,
                spec.l2,
                AtumLike::new(spec.trace.clone(), spec.seed),
                &standard_strategies(spec.l2.associativity(), spec.tag_bits),
            );
            assert_eq!(out.hierarchy, serial.hierarchy);
            for (a, b) in out.strategies.iter().zip(&serial.strategies) {
                assert_eq!(a.probes, b.probes);
            }
        }
    }

    /// Debug formatting is a faithful fingerprint: every counter and every
    /// f64 (printed in shortest-roundtrip form) must agree bit-for-bit.
    fn fingerprint(out: &RunOutcome) -> String {
        format!("{out:?}")
    }

    fn multiseg_spec(segments: usize, assoc: u32, seed: u64) -> RunSpec {
        RunSpec {
            l1: CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
            l2: CacheConfig::new(32 * 1024, 32, assoc).unwrap(),
            trace: {
                let mut c = AtumLikeConfig::paper_like();
                c.segments = segments;
                c.refs_per_segment = 5_000;
                c
            },
            seed,
            tag_bits: 16,
        }
    }

    fn serial(spec: &RunSpec) -> RunOutcome {
        simulate(
            spec.l1,
            spec.l2,
            AtumLike::new(spec.trace.clone(), spec.seed),
            &standard_strategies(spec.l2.associativity(), spec.tag_bits),
        )
    }

    #[test]
    fn sharded_single_spec_is_bit_identical_to_serial() {
        let spec = multiseg_spec(5, 4, 13);
        let serial_out = serial(&spec);
        for threads in [1, 2, 5, 16] {
            let sharded = simulate_many_with_threads(std::slice::from_ref(&spec), threads);
            assert_eq!(sharded.len(), 1);
            assert_eq!(
                fingerprint(&sharded[0]),
                fingerprint(&serial_out),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn warm_trace_shards_as_one_unit_and_stays_bit_identical() {
        let mut spec = multiseg_spec(3, 4, 21);
        spec.trace.flush_between_segments = false;
        assert!(!spec.splits_by_segment());
        let serial_out = serial(&spec);
        for threads in [1, 4] {
            let sharded = simulate_many_with_threads(std::slice::from_ref(&spec), threads);
            assert_eq!(fingerprint(&sharded[0]), fingerprint(&serial_out));
        }
    }

    /// `(specs, seg_start, seg_end)` of every shard, for plan assertions.
    fn plan_shape(plan: &[Shard]) -> Vec<(Vec<usize>, usize, usize)> {
        plan.iter()
            .map(|s| (s.specs.clone(), s.seg_start, s.seg_end))
            .collect()
    }

    #[test]
    fn shard_plan_splits_cold_specs_per_segment() {
        let cold = multiseg_spec(4, 2, 1);
        let mut warm = multiseg_spec(3, 2, 1);
        warm.trace.flush_between_segments = false;
        let plan = shard_plan(&[cold, warm], 1);
        assert_eq!(plan.len(), 5); // 4 cold segments + 1 warm whole-spec
        assert!(plan[..4].iter().all(|s| s.seg_end - s.seg_start == 1));
        assert_eq!(
            plan_shape(&plan),
            vec![
                (vec![0], 0, 1),
                (vec![0], 1, 2),
                (vec![0], 2, 3),
                (vec![0], 3, 4),
                (vec![1], 0, 3),
            ]
        );
    }

    #[test]
    fn shard_plan_groups_by_trace_and_seed_in_first_appearance_order() {
        let mut warm = multiseg_spec(2, 4, 1);
        warm.trace.flush_between_segments = false;
        let mut longer = multiseg_spec(2, 4, 1);
        longer.trace.refs_per_segment += 1;
        let specs = [
            multiseg_spec(2, 2, 1), // group A
            multiseg_spec(2, 4, 2), // group B: another seed
            multiseg_spec(2, 8, 1), // group A
            warm,                   // same seed as A but warm: alone
            multiseg_spec(2, 2, 2), // group B
            longer,                 // same seed as A, another trace: alone
            multiseg_spec(2, 4, 1), // group A
        ];
        assert_eq!(
            plan_shape(&shard_plan(&specs, 1)),
            vec![
                (vec![0, 2, 6], 0, 1),
                (vec![0, 2, 6], 1, 2),
                (vec![1, 4], 0, 1),
                (vec![1, 4], 1, 2),
                (vec![3], 0, 2),
                (vec![5], 0, 1),
                (vec![5], 1, 2),
            ]
        );
    }

    #[test]
    fn shard_plan_keeps_warm_specs_whole_even_when_they_share_a_trace() {
        let mut warm = multiseg_spec(3, 4, 5);
        warm.trace.flush_between_segments = false;
        let mut warm8 = warm.clone();
        warm8.l2 = CacheConfig::new(32 * 1024, 32, 8).unwrap();
        assert_eq!(
            plan_shape(&shard_plan(&[warm, warm8], 8)),
            vec![(vec![0], 0, 3), (vec![1], 0, 3)]
        );
    }

    #[test]
    fn shard_plan_slices_groups_with_fewer_segments_than_twice_the_workers() {
        let specs: Vec<RunSpec> = [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&a| multiseg_spec(2, a, 3))
            .collect();
        // 2 segments ≥ 2 × 1 worker: the whole group rides each shard.
        assert_eq!(
            plan_shape(&shard_plan(&specs, 1)),
            vec![(vec![0, 1, 2, 3, 4], 0, 1), (vec![0, 1, 2, 3, 4], 1, 2)]
        );
        // 2 segments < 2 × 4 workers: ⌈8 / 2⌉ = 4 contiguous slices.
        let slices = [vec![0, 1], vec![2], vec![3], vec![4]];
        let expected: Vec<_> = (0..2)
            .flat_map(|k| slices.iter().map(move |s| (s.clone(), k, k + 1)))
            .collect();
        assert_eq!(plan_shape(&shard_plan(&specs, 4)), expected);
        // Never more slices than specs.
        let plan = shard_plan(&specs[..3], 16);
        assert_eq!(plan.len(), 2 * 3);
        assert!(plan.iter().all(|s| s.specs.len() == 1));
    }

    #[test]
    fn buffered_events_are_sixteen_bytes() {
        // The documented memory cost of a shared segment buffer and of
        // one L1 pass over it.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
        assert_eq!(std::mem::size_of::<FilteredEvent>(), 32);
    }

    #[test]
    fn shard_names_collapse_consecutive_specs() {
        let shard = |specs: Vec<usize>, seg_start, seg_end| Shard {
            specs,
            seg_start,
            seg_end,
        };
        assert_eq!(shard((0..24).collect(), 5, 6).name(), "specs0-23 seg5..6");
        assert_eq!(shard(vec![4], 0, 3).name(), "spec4 seg0..3");
        assert_eq!(shard(vec![0, 2, 3, 7], 1, 2).name(), "specs0,2-3,7 seg1..2");
    }

    #[test]
    fn traced_sweep_is_bit_identical_and_records_shard_spans() {
        let spec = multiseg_spec(4, 4, 31);
        let plain = simulate_many_with_threads(std::slice::from_ref(&spec), 2);
        for threads in [1, 2, 8] {
            let (traced, trace) =
                simulate_many_traced_with_threads(std::slice::from_ref(&spec), threads);
            assert_eq!(
                fingerprint(&traced[0]),
                fingerprint(&plain[0]),
                "threads={threads}"
            );
            let shard_spans: Vec<_> = trace.with_cat("shard").collect();
            assert_eq!(shard_spans.len(), 4, "one span per cold segment");
            assert!(shard_spans
                .iter()
                .all(|s| s.counter("l1_passes") == Some(1)));
            // Shard counter sums reproduce the aggregate statistics.
            let refs: u64 = shard_spans.iter().filter_map(|s| s.counter("refs")).sum();
            assert_eq!(refs, traced[0].hierarchy.processor_refs);
            let probes: u64 = shard_spans.iter().filter_map(|s| s.counter("probes")).sum();
            let expected: u64 = traced[0]
                .strategies
                .iter()
                .map(|s| {
                    s.probes.hits.probes + s.probes.misses.probes + s.probes.write_backs.probes
                })
                .sum();
            assert_eq!(probes, expected);
            assert_eq!(trace.with_cat("sweep").count(), 1);
            assert_eq!(trace.with_cat("merge").count(), 1);
            let workers = trace.with_cat("worker").count();
            assert_eq!(workers, threads.min(4), "threads={threads}");
            assert!(trace.with_cat("queue-wait").count() >= workers);
        }
    }

    #[test]
    fn shared_trace_group_filters_each_distinct_l1_once_per_shard() {
        let mut specs: Vec<RunSpec> = [2u32, 4, 8].map(|a| multiseg_spec(3, a, 41)).into();
        for a in [4u32, 16] {
            let mut spec = multiseg_spec(3, a, 41);
            spec.l1 = CacheConfig::direct_mapped(16 * 1024, 16).unwrap();
            specs.push(spec);
        }
        let (outcomes, trace) = simulate_many_traced_with_threads(&specs, 1);
        for (spec, out) in specs.iter().zip(&outcomes) {
            assert_eq!(fingerprint(out), fingerprint(&serial(spec)));
        }
        let passes: Vec<_> = trace
            .with_cat("shard")
            .map(|s| s.counter("l1_passes"))
            .collect();
        assert_eq!(passes, vec![Some(2); 3], "two L1s, three segments");
    }

    #[test]
    fn simulate_traced_matches_simulate_and_segments_conserve() {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, 4).unwrap();
        let strategies = standard_strategies(4, 16);
        let plain = simulate(l1, l2, small_trace(8_000, 19), &strategies);
        let (traced, trace) = simulate_traced(l1, l2, small_trace(8_000, 19), &strategies);
        assert_eq!(format!("{traced:?}"), format!("{plain:?}"));
        let segs: Vec<_> = trace.with_cat("segment").collect();
        assert!(segs.len() >= 2, "two trace segments");
        for (counter, expected) in [
            ("refs", traced.hierarchy.processor_refs),
            ("read_ins", traced.hierarchy.read_ins),
            ("read_in_hits", traced.hierarchy.read_in_hits),
            ("write_backs", traced.hierarchy.write_backs),
        ] {
            let sum: u64 = segs.iter().filter_map(|s| s.counter(counter)).sum();
            assert_eq!(sum, expected, "{counter}");
        }
        assert_eq!(trace.with_cat("run").count(), 1);
    }

    #[test]
    fn simulate_last_level_two_levels_matches_simulate() {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, 4).unwrap();
        let two = simulate(l1, l2, small_trace(10_000, 3), &standard_strategies(4, 16));
        let deep = simulate_last_level(
            vec![l1, l2],
            small_trace(10_000, 3),
            &standard_strategies(4, 16),
        );
        assert_eq!(deep.depth, 2);
        assert_eq!(deep.processor_refs, two.hierarchy.processor_refs);
        for (a, b) in deep.strategies.iter().zip(&two.strategies) {
            assert_eq!(a.probes, b.probes, "{}", a.name);
        }
        assert!((deep.global_miss_ratio - two.hierarchy.global_miss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn handcrafted_trace_yields_expected_probes() {
        // One block, referenced twice: first a cold miss, then an L1 hit
        // (no L2 traffic). Then evict it from L1 (clean) and re-reference:
        // L2 read-in hit at MRU distance 0.
        let l1 = CacheConfig::direct_mapped(256, 16).unwrap();
        let l2 = CacheConfig::new(1024, 16, 4).unwrap();
        let events = vec![
            TraceEvent::Ref(TraceRecord::read(0x000)),
            TraceEvent::Ref(TraceRecord::read(0x100)), // evicts 0x000 from L1
            TraceEvent::Ref(TraceRecord::read(0x000)), // L2 hit
        ];
        let out = simulate(l1, l2, events, &standard_strategies(4, 16));
        assert_eq!(out.hierarchy.read_ins, 3);
        assert_eq!(out.hierarchy.read_in_hits, 1);
        let mru = out.strategy("mru").unwrap();
        // The L2 hit is at MRU distance... 0x000 and 0x100 map to L2 sets 0
        // and (0x100/16)%16=0 — same set; 0x000 is at distance 1.
        assert_eq!(mru.probes.hits.probes, 3); // 1 list + 2 scans
        let naive = out.strategy("naive").unwrap();
        assert_eq!(naive.probes.hits.probes, 1); // way 0 holds 0x000
    }
}
