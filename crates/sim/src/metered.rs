//! The instrumented simulation loop.
//!
//! [`simulate_instrumented`] produces the exact same [`RunOutcome`] as
//! [`simulate`](crate::runner::simulate) — the scorer and the hierarchy
//! are shared code — while additionally maintaining a
//! [`MetricsRegistry`]: per-strategy probe counters and log2 probe-count
//! histograms, the MRU-distance histogram, hierarchy counters and ratio
//! gauges, and per-segment wall-time spans in a [`RunManifest`]. Periodic
//! registry snapshots stream to a JSON-lines writer, and an optional
//! [`Progress`] heartbeat reports refs/sec and ETA on stderr.
//!
//! The un-instrumented path never pays for any of this: `simulate` drives
//! the hierarchy with the bare probe scorer as its only observer.

use crate::runner::{RunOutcome, RunTally, Scorer, L1_FITS_L2};
use seta_cache::{CacheConfig, L2Observer, L2RequestKind, L2RequestView, TwoLevel, TwoLevelStats};
use seta_core::lookup::StrategyKind;
use seta_obs::export::{final_snapshot_line, snapshot_line};
use seta_obs::timeseries::{WindowRecord, WindowSeries, DEFAULT_WINDOW_REFS};
use seta_obs::{
    labeled, CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, Progress, RunManifest,
    ServeHandle, ServeHeartbeat, SpanBuffer, SpanClock, SpanTrace,
};
use seta_trace::TraceEvent;
use std::io::{self, Write};
use std::time::Instant;

/// Knobs for an instrumented run.
#[derive(Debug, Clone)]
pub struct MeterConfig {
    /// References between streamed registry snapshots; 0 disables the
    /// periodic lines (the final snapshot is always written).
    pub snapshot_every: u64,
    /// Print a refs/sec + ETA heartbeat to stderr.
    pub progress: bool,
    /// Minimum seconds between heartbeat lines (the CLI's
    /// `--progress-interval`); `None` keeps [`Progress`]'s default.
    pub progress_interval_secs: Option<u64>,
    /// Expected processor references, for the heartbeat's percentage and
    /// ETA columns.
    pub expected_refs: Option<u64>,
    /// References per time-series window (see
    /// [`WindowSeries`]); 0 disables the windowed series.
    pub window_refs: u64,
    /// Publish the run live to a monitoring server (see
    /// [`seta_obs::serve`]): registry snapshots and heartbeats at every
    /// snapshot boundary, window rows as they close, the manifest, and a
    /// final `finish_run` so the last scrape equals the written artifact.
    /// `None` (the default) leaves the hot path exactly as it was — the
    /// handle is only consulted at snapshot and window boundaries.
    pub serve: Option<ServeHandle>,
}

impl Default for MeterConfig {
    fn default() -> Self {
        MeterConfig {
            snapshot_every: 100_000,
            progress: false,
            progress_interval_secs: None,
            expected_refs: None,
            window_refs: DEFAULT_WINDOW_REFS,
            serve: None,
        }
    }
}

/// Everything an instrumented run produces.
#[derive(Debug)]
pub struct MeteredRun {
    /// The simulation results, identical to the un-instrumented path.
    pub outcome: RunOutcome,
    /// Config labels, trace identity and per-segment wall times.
    pub manifest: RunManifest,
    /// Final state of every counter, gauge and histogram.
    pub registry: MetricsRegistry,
    /// JSONL lines written (periodic + final).
    pub snapshots: u64,
    /// Fixed-window time series (empty when
    /// [`window_refs`](MeterConfig::window_refs) is 0). Column sums over
    /// the rows equal the aggregate outcome exactly.
    pub windows: Vec<WindowRecord>,
    /// Span trace of the run: one span per trace segment, mirroring the
    /// manifest's phases, under a `simulate` root.
    pub spans: SpanTrace,
}

/// Registry handles for one strategy's series.
struct StrategyHandles {
    hits: CounterHandle,
    misses: CounterHandle,
    write_backs: CounterHandle,
    hit_probes: CounterHandle,
    miss_probes: CounterHandle,
    write_back_probes: CounterHandle,
    probe_hist: HistogramHandle,
}

/// Hierarchy-wide handles.
struct GlobalHandles {
    refs: CounterHandle,
    l1_hits: CounterHandle,
    flushes: CounterHandle,
    read_ins: CounterHandle,
    read_in_hits: CounterHandle,
    write_backs: CounterHandle,
    write_back_hits: CounterHandle,
    l1_miss_ratio: GaugeHandle,
    local_miss_ratio: GaugeHandle,
    global_miss_ratio: GaugeHandle,
    hint_accuracy: GaugeHandle,
    refs_per_second: GaugeHandle,
    wall_seconds: GaugeHandle,
    mru_distance: HistogramHandle,
    segment_wall: HistogramHandle,
}

/// The instrumented observer: scores strategies exactly like the plain
/// path (it wraps the same [`Scorer`]) and additionally feeds per-request
/// histograms.
struct Meter<'a> {
    scorer: Scorer<'a>,
    registry: MetricsRegistry,
    global: GlobalHandles,
    per_strategy: Vec<StrategyHandles>,
    /// Per-strategy read-in probe totals before the current request, for
    /// per-request deltas into the probe-count histograms.
    prev_probes: Vec<u64>,
    /// Windowed time series (None when disabled).
    windows: Option<WindowSeries>,
    /// Per-strategy all-books probe totals (hits + misses + write-backs)
    /// before the current request, for per-request deltas into the
    /// current window.
    prev_window_probes: Vec<u64>,
}

impl<'a> Meter<'a> {
    fn new(scorer: Scorer<'a>, strategies: &[StrategyKind], window_refs: u64) -> Self {
        let mut registry = MetricsRegistry::new();
        let global = GlobalHandles {
            refs: registry.counter("refs_total"),
            l1_hits: registry.counter("l1_hits_total"),
            flushes: registry.counter("flushes_total"),
            read_ins: registry.counter("l2_read_ins_total"),
            read_in_hits: registry.counter("l2_read_in_hits_total"),
            write_backs: registry.counter("l2_write_backs_total"),
            write_back_hits: registry.counter("l2_write_back_hits_total"),
            l1_miss_ratio: registry.gauge("l1_miss_ratio"),
            local_miss_ratio: registry.gauge("l2_local_miss_ratio"),
            global_miss_ratio: registry.gauge("global_miss_ratio"),
            hint_accuracy: registry.gauge("hint_accuracy"),
            refs_per_second: registry.gauge("refs_per_second"),
            wall_seconds: registry.gauge("wall_seconds"),
            mru_distance: registry.histogram("mru_distance"),
            segment_wall: registry.histogram("segment_wall_micros"),
        };
        let per_strategy = strategies
            .iter()
            .map(|s| {
                let name = s.name();
                StrategyHandles {
                    hits: registry.counter(&labeled("probe_hits_total", "strategy", &name)),
                    misses: registry.counter(&labeled("probe_misses_total", "strategy", &name)),
                    write_backs: registry.counter(&labeled(
                        "probe_write_backs_total",
                        "strategy",
                        &name,
                    )),
                    hit_probes: registry.counter(&labeled("hit_probes_total", "strategy", &name)),
                    miss_probes: registry.counter(&labeled("miss_probes_total", "strategy", &name)),
                    write_back_probes: registry.counter(&labeled(
                        "write_back_probes_total",
                        "strategy",
                        &name,
                    )),
                    probe_hist: registry.histogram(&labeled("read_in_probes", "strategy", &name)),
                }
            })
            .collect();
        let names: Vec<String> = strategies.iter().map(|s| s.name()).collect();
        Meter {
            scorer,
            registry,
            global,
            per_strategy,
            prev_probes: vec![0; strategies.len()],
            windows: (window_refs > 0).then(|| WindowSeries::new(&names, window_refs)),
            prev_window_probes: vec![0; strategies.len()],
        }
    }

    /// Total probes strategy `i` has charged on the optimized books.
    fn probe_total(&self, i: usize) -> u64 {
        let (probes, _) = &self.scorer.results[i];
        probes.hits.probes + probes.misses.probes + probes.write_backs.probes
    }

    /// Records one finished segment's wall time.
    fn observe_segment(&mut self, wall_micros: u64) {
        self.registry.observe(self.global.segment_wall, wall_micros);
    }

    /// Overwrites counters and gauges with the authoritative totals from
    /// the hierarchy and the scorer. All sources are monotone, so
    /// repeated syncs yield monotone counter series. Every L1 miss is
    /// exactly one read-in, so the L1 hits are the references that sent
    /// none.
    fn sync(&mut self, stats: &TwoLevelStats, elapsed_secs: f64) {
        let g = &self.global;
        self.registry.set_counter(g.refs, stats.processor_refs);
        self.registry
            .set_counter(g.l1_hits, stats.processor_refs - stats.read_ins);
        self.registry.set_counter(g.flushes, stats.flushes);
        self.registry.set_counter(g.read_ins, stats.read_ins);
        self.registry
            .set_counter(g.read_in_hits, stats.read_in_hits);
        self.registry.set_counter(g.write_backs, stats.write_backs);
        self.registry
            .set_counter(g.write_back_hits, stats.write_back_hits);
        self.registry
            .set_gauge(g.l1_miss_ratio, stats.l1_miss_ratio());
        self.registry
            .set_gauge(g.local_miss_ratio, stats.local_miss_ratio());
        self.registry
            .set_gauge(g.global_miss_ratio, stats.global_miss_ratio());
        self.registry
            .set_gauge(g.hint_accuracy, stats.hint_accuracy());
        self.registry.set_gauge(g.wall_seconds, elapsed_secs);
        let rate = if elapsed_secs > 0.0 {
            stats.processor_refs as f64 / elapsed_secs
        } else {
            0.0
        };
        self.registry.set_gauge(g.refs_per_second, rate);
        for (h, (probes, _)) in self.per_strategy.iter().zip(&self.scorer.results) {
            self.registry.set_counter(h.hits, probes.hits.count);
            self.registry.set_counter(h.misses, probes.misses.count);
            self.registry
                .set_counter(h.write_backs, probes.write_backs.count);
            self.registry.set_counter(h.hit_probes, probes.hits.probes);
            self.registry
                .set_counter(h.miss_probes, probes.misses.probes);
            self.registry
                .set_counter(h.write_back_probes, probes.write_backs.probes);
        }
    }
}

impl L2Observer for Meter<'_> {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        if req.kind == L2RequestKind::ReadIn {
            if let Some(d) = req.mru_distance.filter(|_| req.hit) {
                self.registry.observe(self.global.mru_distance, d as u64);
            }
            for (prev, (probes, _)) in self.prev_probes.iter_mut().zip(&self.scorer.results) {
                *prev = probes.hits.probes + probes.misses.probes;
            }
        }
        if self.windows.is_some() {
            for i in 0..self.prev_window_probes.len() {
                self.prev_window_probes[i] = self.probe_total(i);
            }
        }
        self.scorer.on_l2_request(req);
        if req.kind == L2RequestKind::ReadIn {
            for (i, h) in self.per_strategy.iter().enumerate() {
                let (probes, _) = &self.scorer.results[i];
                let delta = probes.hits.probes + probes.misses.probes - self.prev_probes[i];
                self.registry.observe(h.probe_hist, delta);
            }
        }
        if self.windows.is_some() {
            for i in 0..self.prev_window_probes.len() {
                let delta = self.probe_total(i) - self.prev_window_probes[i];
                if delta > 0 {
                    if let Some(w) = self.windows.as_mut() {
                        w.add_probes(i, delta);
                    }
                }
            }
        }
        if let Some(windows) = self.windows.as_mut() {
            match req.kind {
                L2RequestKind::ReadIn => {
                    windows.on_read_in(req.hit, req.hit && req.mru_distance == Some(0));
                }
                L2RequestKind::WriteBack => windows.on_write_back(),
            }
        }
    }
}

/// The heartbeat a run publishes to a live server after `refs`
/// references in `wall_seconds` on `workers` workers.
pub(crate) fn live_heartbeat(
    refs: u64,
    wall_seconds: f64,
    window_miss_ratio: Option<f64>,
    workers: usize,
) -> ServeHeartbeat {
    ServeHeartbeat {
        refs,
        wall_seconds,
        refs_per_second: if wall_seconds > 0.0 {
            refs as f64 / wall_seconds
        } else {
            0.0
        },
        window_miss_ratio,
        active_workers: Some(workers as u64),
    }
}

/// [`simulate`](crate::runner::simulate) with full instrumentation.
///
/// Drives `events` through a fresh two-level hierarchy exactly like the
/// plain path, and additionally:
///
/// * maintains a [`MetricsRegistry`] whose final per-strategy probe
///   counters equal the [`RunOutcome`]'s `ProbeStats` totals exactly;
/// * records each trace segment (delimited by flush events) as a timed
///   phase in the [`RunManifest`];
/// * streams a registry snapshot to `metrics_out` as one JSON line every
///   [`snapshot_every`](MeterConfig::snapshot_every) references, plus a
///   final line embedding the manifest;
/// * optionally heartbeats progress to stderr.
///
/// `source` and `seed` identify the workload in the manifest (use a file
/// path for file-borne traces or a `synthetic:` description for generated
/// ones).
///
/// # Errors
///
/// Returns any I/O error from writing `metrics_out`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_instrumented<I, W>(
    l1: CacheConfig,
    l2: CacheConfig,
    events: I,
    strategies: &[StrategyKind],
    source: &str,
    seed: u64,
    cfg: &MeterConfig,
    mut metrics_out: Option<&mut W>,
) -> io::Result<MeteredRun>
where
    I: IntoIterator<Item = TraceEvent>,
    W: Write,
{
    let mut hierarchy = TwoLevel::new(l1, l2).expect(L1_FITS_L2);
    let scorer = Scorer::with_lanes(strategies, l2, |s| hierarchy.enable_partial_lanes(s));
    let mut meter = Meter::new(scorer, strategies, cfg.window_refs);
    let mut span_buf = SpanBuffer::new(0, SpanClock::new());
    let run_span = span_buf.open("simulate", "run");
    let mut seg_span = span_buf.open("segment-0", "segment");

    let mut manifest = RunManifest::new(env!("CARGO_PKG_VERSION"));
    manifest.label("l1", l1.label());
    manifest.label("l2", l2.label());
    manifest.label("assoc", l2.associativity());
    manifest.label("seed", seed);
    let names: Vec<String> = strategies.iter().map(|s| s.name()).collect();
    manifest.label("strategies", names.join(","));

    let mut progress = cfg.progress.then(|| {
        let mut p = match cfg.progress_interval_secs {
            Some(secs) => Progress::with_interval_secs("simulate", cfg.expected_refs, secs),
            None => Progress::new("simulate", cfg.expected_refs),
        };
        // The instrumented loop is the sequential path; heartbeat lines
        // carry the worker count so sweep and single-run output read alike.
        p.set_active_workers(1);
        p
    });
    let started = Instant::now();
    let mut segment = 0u64;
    let mut segment_guard = manifest.begin_phase("segment-0");
    let mut events_seen = 0u64;
    let mut seq = 0u64;
    let mut snapshots = 0u64;
    let mut next_snapshot = if cfg.snapshot_every == 0 {
        u64::MAX
    } else {
        cfg.snapshot_every
    };
    // Window rows already handed to the live server; rows the series
    // closes later are published as the loop passes each close site.
    let mut published_windows = 0usize;
    if let Some(h) = cfg.serve.as_ref() {
        h.publish_manifest(&manifest);
        h.publish_registry(&meter.registry);
    }

    for event in events {
        events_seen += 1;
        let is_flush = matches!(event, TraceEvent::Flush);
        hierarchy.process(&event, &mut meter);
        if is_flush {
            manifest.end_phase(segment_guard);
            let span = manifest
                .phases
                .last()
                .expect("phase just ended")
                .wall_micros;
            meter.observe_segment(span);
            if let Some(w) = meter.windows.as_mut() {
                w.on_segment_boundary();
                if let Some(p) = progress.as_mut() {
                    p.set_window_miss_ratio(w.last_window_miss_ratio());
                }
            }
            if let (Some(h), Some(w)) = (cfg.serve.as_ref(), meter.windows.as_ref()) {
                for row in &w.closed()[published_windows..] {
                    h.publish_window(row);
                }
                published_windows = w.closed().len();
            }
            span_buf.close(seg_span);
            segment += 1;
            segment_guard = manifest.begin_phase(&format!("segment-{segment}"));
            seg_span = span_buf.open(format!("segment-{segment}"), "segment");
            continue;
        }
        if let Some(w) = meter.windows.as_mut() {
            let closed = w.closed().len();
            w.on_ref();
            if w.closed().len() > closed {
                if let Some(p) = progress.as_mut() {
                    p.set_window_miss_ratio(w.last_window_miss_ratio());
                }
            }
        }
        if let (Some(h), Some(w)) = (cfg.serve.as_ref(), meter.windows.as_ref()) {
            for row in &w.closed()[published_windows..] {
                h.publish_window(row);
            }
            published_windows = w.closed().len();
        }
        if let Some(p) = progress.as_mut() {
            p.tick(1);
        }
        let refs = hierarchy.stats().processor_refs;
        if refs >= next_snapshot {
            next_snapshot = refs + cfg.snapshot_every;
            if metrics_out.is_some() || cfg.serve.is_some() {
                meter.sync(hierarchy.stats(), started.elapsed().as_secs_f64());
            }
            if let Some(out) = metrics_out.as_deref_mut() {
                writeln!(out, "{}", snapshot_line(&meter.registry, seq, refs))?;
                seq += 1;
                snapshots += 1;
            }
            if let Some(h) = cfg.serve.as_ref() {
                h.publish_registry(&meter.registry);
                let miss = meter
                    .windows
                    .as_ref()
                    .and_then(|w| w.last_window_miss_ratio());
                let wall = started.elapsed().as_secs_f64();
                h.publish_heartbeat(&live_heartbeat(refs, wall, miss, 1));
            }
        }
    }

    manifest.end_phase(segment_guard);
    let span = manifest
        .phases
        .last()
        .expect("phase just ended")
        .wall_micros;
    meter.observe_segment(span);
    span_buf.close(seg_span);
    span_buf.counter(run_span, "refs", hierarchy.stats().processor_refs);
    span_buf.close(run_span);
    let mut spans = SpanTrace::new();
    spans.name_track(0, "main");
    spans.absorb(span_buf);
    manifest.set_trace(source, events_seen, seed);
    if let Some(p) = progress.as_mut() {
        p.finish();
    }

    meter.sync(hierarchy.stats(), started.elapsed().as_secs_f64());
    let Meter {
        scorer,
        registry,
        windows,
        ..
    } = meter;
    let windows = windows.map(WindowSeries::finish).unwrap_or_default();
    let refs = hierarchy.stats().processor_refs;
    if let Some(out) = metrics_out {
        writeln!(
            out,
            "{}",
            final_snapshot_line(&registry, seq, refs, &manifest)
        )?;
        snapshots += 1;
        out.flush()?;
    }
    if let Some(h) = cfg.serve.as_ref() {
        // End-of-run ordering matters for the acceptance check "the final
        // scrape equals the written artifact": authoritative registry
        // first, then every window row not yet streamed (including the
        // trailing partial window `finish` appends), then the manifest
        // with its trace identity, then the closing heartbeat.
        h.publish_registry(&registry);
        for row in &windows[published_windows..] {
            h.publish_window(row);
        }
        h.publish_manifest(&manifest);
        let miss = windows.last().and_then(WindowRecord::miss_ratio);
        let wall = started.elapsed().as_secs_f64();
        h.publish_heartbeat(&live_heartbeat(refs, wall, miss, 1));
        h.finish_run();
    }
    let outcome = RunTally::of(&hierarchy, scorer).into_outcome(l1, l2, strategies);
    Ok(MeteredRun {
        outcome,
        manifest,
        registry,
        snapshots,
        windows,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate, standard_strategies};
    use seta_trace::gen::{AtumLike, AtumLikeConfig};

    fn small_trace(refs: u64, seed: u64) -> AtumLike {
        let mut cfg = AtumLikeConfig::paper_like();
        cfg.segments = 2;
        cfg.refs_per_segment = refs;
        AtumLike::new(cfg, seed)
    }

    fn geometries() -> (CacheConfig, CacheConfig) {
        (
            CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
            CacheConfig::new(32 * 1024, 32, 4).unwrap(),
        )
    }

    #[test]
    fn instrumented_outcome_matches_plain_simulate() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let plain = simulate(l1, l2, small_trace(8_000, 11), &strategies);
        let metered = simulate_instrumented(
            l1,
            l2,
            small_trace(8_000, 11),
            &strategies,
            "synthetic:test",
            11,
            &MeterConfig::default(),
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        assert_eq!(metered.outcome.hierarchy, plain.hierarchy);
        for (a, b) in metered.outcome.strategies.iter().zip(&plain.strategies) {
            assert_eq!(a.probes, b.probes, "{}", a.name);
            assert_eq!(a.probes_no_opt, b.probes_no_opt, "{}", a.name);
        }
        assert_eq!(metered.outcome.mru_hist, plain.mru_hist);
    }

    #[test]
    fn final_counters_equal_outcome_totals() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(8_000, 5),
            &strategies,
            "synthetic:test",
            5,
            &MeterConfig::default(),
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        for s in &run.outcome.strategies {
            let get = |series: &str| {
                run.registry
                    .counter_by_name(&seta_obs::labeled(series, "strategy", &s.name))
                    .unwrap_or_else(|| panic!("{series} for {}", s.name))
            };
            assert_eq!(get("probe_hits_total"), s.probes.hits.count);
            assert_eq!(get("probe_misses_total"), s.probes.misses.count);
            assert_eq!(get("probe_write_backs_total"), s.probes.write_backs.count);
            assert_eq!(get("hit_probes_total"), s.probes.hits.probes);
            assert_eq!(get("miss_probes_total"), s.probes.misses.probes);
            assert_eq!(get("write_back_probes_total"), s.probes.write_backs.probes);
        }
        let stats = &run.outcome.hierarchy;
        assert_eq!(
            run.registry.counter_by_name("refs_total"),
            Some(stats.processor_refs)
        );
        assert_eq!(
            run.registry.counter_by_name("l2_read_ins_total"),
            Some(stats.read_ins)
        );
        assert_eq!(
            run.registry.counter_by_name("l1_hits_total"),
            Some(stats.processor_refs - stats.read_ins)
        );
    }

    #[test]
    fn probe_histograms_count_read_ins_and_match_sums() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(6_000, 3),
            &strategies,
            "synthetic:test",
            3,
            &MeterConfig::default(),
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        for s in &run.outcome.strategies {
            let h = run
                .registry
                .histogram_by_name(&seta_obs::labeled("read_in_probes", "strategy", &s.name))
                .unwrap();
            assert_eq!(
                h.count,
                s.probes.hits.count + s.probes.misses.count,
                "{}",
                s.name
            );
            assert_eq!(
                h.sum,
                s.probes.hits.probes + s.probes.misses.probes,
                "{}",
                s.name
            );
        }
        let mru = run.registry.histogram_by_name("mru_distance").unwrap();
        assert_eq!(mru.count, run.outcome.hierarchy.read_in_hits);
    }

    #[test]
    fn segments_become_manifest_phases() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(2_000, 9),
            &strategies,
            "synthetic:test",
            9,
            &MeterConfig::default(),
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        // A 2-segment trace has segment-0, segment-1 and (if the stream
        // ends with a flush) a trailing empty span.
        let names: Vec<&str> = run
            .manifest
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(names.contains(&"segment-0"), "{names:?}");
        assert!(names.contains(&"segment-1"), "{names:?}");
        let trace = run.manifest.trace.as_ref().unwrap();
        assert_eq!(trace.seed, 9);
        assert!(trace.events >= 4_000, "{}", trace.events);
        assert_eq!(run.manifest.label_value("assoc"), Some("4"));
        let seg_hist = run
            .registry
            .histogram_by_name("segment_wall_micros")
            .unwrap();
        assert_eq!(seg_hist.count as usize, run.manifest.phases.len());
    }

    #[test]
    fn window_rows_sum_exactly_to_aggregate_stats() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(9_000, 23),
            &strategies,
            "synthetic:test",
            23,
            &MeterConfig {
                window_refs: 1_000,
                ..MeterConfig::default()
            },
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        assert!(run.windows.len() >= 10, "got {} windows", run.windows.len());
        let stats = &run.outcome.hierarchy;
        let sum = |f: fn(&seta_obs::timeseries::WindowRecord) -> u64| -> u64 {
            run.windows.iter().map(f).sum()
        };
        assert_eq!(sum(|w| w.refs_end - w.refs_start), stats.processor_refs);
        assert_eq!(sum(|w| w.read_ins), stats.read_ins);
        assert_eq!(sum(|w| w.read_in_hits), stats.read_in_hits);
        assert_eq!(sum(|w| w.write_backs), stats.write_backs);
        assert_eq!(sum(|w| w.mru_pos0_hits), run.outcome.mru_hist.count(0));
        for (i, s) in run.outcome.strategies.iter().enumerate() {
            let probes: u64 = run.windows.iter().map(|w| w.strategies[i].probes).sum();
            let expected =
                s.probes.hits.probes + s.probes.misses.probes + s.probes.write_backs.probes;
            assert_eq!(probes, expected, "{}", s.name);
            assert_eq!(run.windows[0].strategies[i].strategy, s.name);
        }
        // Windows never span a segment boundary and abut exactly.
        for pair in run.windows.windows(2) {
            assert_eq!(pair[0].refs_end, pair[1].refs_start);
            assert!(pair[0].segment <= pair[1].segment);
        }
        let segments: std::collections::BTreeSet<u64> =
            run.windows.iter().map(|w| w.segment).collect();
        assert_eq!(segments.len(), 2, "one group of windows per trace segment");
    }

    #[test]
    fn disabling_windows_yields_no_rows() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(2_000, 1),
            &strategies,
            "synthetic:test",
            1,
            &MeterConfig {
                window_refs: 0,
                ..MeterConfig::default()
            },
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        assert!(run.windows.is_empty());
        // Spans still record the segment phases.
        assert_eq!(run.spans.with_cat("run").count(), 1);
        assert!(run.spans.with_cat("segment").count() >= 2);
    }

    #[test]
    fn segment_spans_mirror_manifest_phases() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(3_000, 4),
            &strategies,
            "synthetic:test",
            4,
            &MeterConfig::default(),
            None::<&mut Vec<u8>>,
        )
        .unwrap();
        let span_names: Vec<&str> = run
            .spans
            .with_cat("segment")
            .map(|s| s.name.as_str())
            .collect();
        let phase_names: Vec<&str> = run
            .manifest
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(span_names, phase_names);
        let root = run.spans.with_cat("run").next().unwrap();
        assert_eq!(
            root.counter("refs"),
            Some(run.outcome.hierarchy.processor_refs)
        );
    }

    #[test]
    fn jsonl_stream_is_well_formed_and_monotone() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let mut buf: Vec<u8> = Vec::new();
        let run = simulate_instrumented(
            l1,
            l2,
            small_trace(5_000, 13),
            &strategies,
            "synthetic:test",
            13,
            &MeterConfig {
                snapshot_every: 1_000,
                ..MeterConfig::default()
            },
            Some(&mut buf),
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, run.snapshots);
        assert!(lines.len() >= 2, "periodic + final lines");
        let mut prev_refs = 0u64;
        for (i, line) in lines.iter().enumerate() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["seq"].as_u64(), Some(i as u64));
            let refs = v["refs"].as_u64().unwrap();
            assert!(refs >= prev_refs, "refs monotone");
            prev_refs = refs;
            let is_last = i + 1 == lines.len();
            assert_eq!(
                v.get("final").and_then(|f| f.as_bool()),
                is_last.then_some(true)
            );
        }
    }
}
