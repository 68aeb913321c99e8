//! Report sections for the artifacts this crate owns: windowed time
//! series, run manifests, span traces, and numeric artifact diffs.
//!
//! Each builder takes the typed artifact (plus an optional on-disk path
//! to deep-link) and returns a [`Section`] ready to push onto an
//! [`HtmlPage`](super::HtmlPage). Loaders for the JSONL forms live here
//! too, so CLIs can rebuild a section from a file instead of a live run.

use super::svg::StackedBarChart;
use super::svg::{BarChart, HeatCell, HeatGrid, LineChart, Series};
use super::{Cell, HtmlTable, Section};
use crate::contention::ContentionReport;
use crate::export::DiffReport;
use crate::timeseries::WindowRecord;
use crate::{RunManifest, SpanTrace};

/// Parses windowed time-series rows from their JSONL artifact (the
/// `--windows` output of `trace_tool sim`). Errors name the offending
/// line. Blank lines are skipped.
pub fn windows_from_jsonl(text: &str) -> Result<Vec<WindowRecord>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row: WindowRecord =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

/// The per-strategy time-series section: L2 miss ratio and MRU
/// position-0 hit fraction per window, probes/access per strategy per
/// window with segment boundaries marked, and a per-segment phase table.
pub fn timeseries_section(rows: &[WindowRecord], artifact: Option<&str>) -> Section {
    let mut s = Section::new("timeseries", "Windowed time series");
    if rows.is_empty() {
        s.note("no window rows (the run produced no time series)");
        return s;
    }
    let strategy_names: Vec<String> = rows[0]
        .strategies
        .iter()
        .map(|w| w.strategy.clone())
        .collect();
    s.para(&format!(
        "{} windows across {} segments; each point aggregates one fixed-size \
         window of processor references.",
        rows.len(),
        rows.last().map(|r| r.segment + 1).unwrap_or(0),
    ));
    // Segment boundaries as vertical lines, marked where the segment id
    // of consecutive rows changes.
    let mut vlines = Vec::new();
    for pair in rows.windows(2) {
        if pair[1].segment != pair[0].segment {
            vlines.push((
                pair[1].refs_start as f64,
                format!("segment {}", pair[1].segment),
            ));
        }
    }

    let mid = |r: &WindowRecord| (r.refs_start + r.refs_end) as f64 / 2.0;
    let mut ratios = LineChart::new(
        "L2 miss ratio and MRU position-0 hit fraction per window",
        "processor references",
        "fraction",
    );
    ratios.y_zero = true;
    ratios.series.push(Series::new(
        "miss ratio",
        rows.iter()
            .filter_map(|r| r.miss_ratio().map(|v| (mid(r), v)))
            .collect(),
    ));
    ratios.series.push(Series::new(
        "pos0 fraction",
        rows.iter()
            .filter_map(|r| r.pos0_fraction().map(|v| (mid(r), v)))
            .collect(),
    ));
    ratios.vlines.clone_from(&vlines);
    s.push_html(&ratios.svg());

    let mut probes = LineChart::new(
        "Probes per L2 access, by strategy",
        "processor references",
        "probes/access",
    );
    probes.y_zero = true;
    for (idx, name) in strategy_names.iter().enumerate() {
        probes.series.push(Series::new(
            name.clone(),
            rows.iter()
                .filter_map(|r| r.probes_per_access(idx).map(|v| (mid(r), v)))
                .collect(),
        ));
    }
    probes.vlines = vlines;
    s.push_html(&probes.svg());

    // Per-segment phase table (the HTML twin of timeseries::phase_table).
    let mut headers = vec!["segment", "windows", "refs", "miss ratio", "pos0 frac"];
    let owned: Vec<String> = strategy_names
        .iter()
        .map(|n| format!("{n} probes/acc"))
        .collect();
    headers.extend(owned.iter().map(|s| s.as_str()));
    let mut table = HtmlTable::new(&headers);
    let mut segments: Vec<u64> = rows.iter().map(|r| r.segment).collect();
    segments.sort_unstable();
    segments.dedup();
    for seg in segments {
        let seg_rows: Vec<&WindowRecord> = rows.iter().filter(|r| r.segment == seg).collect();
        let refs: u64 = seg_rows.iter().map(|r| r.refs()).sum();
        let read_ins: u64 = seg_rows.iter().map(|r| r.read_ins).sum();
        let hits: u64 = seg_rows.iter().map(|r| r.read_in_hits).sum();
        let pos0: u64 = seg_rows.iter().map(|r| r.mru_pos0_hits).sum();
        let write_backs: u64 = seg_rows.iter().map(|r| r.write_backs).sum();
        let frac = |num: u64, den: u64| {
            if den == 0 {
                Cell::text("-")
            } else {
                Cell::num(num as f64 / den as f64)
            }
        };
        let mut row = vec![
            Cell::int(seg),
            Cell::int(seg_rows.len() as u64),
            Cell::int(refs),
            frac(read_ins - hits, read_ins),
            frac(pos0, hits),
        ];
        for idx in 0..strategy_names.len() {
            let probes: u64 = seg_rows.iter().map(|r| r.strategies[idx].probes).sum();
            row.push(frac(probes, read_ins + write_backs));
        }
        table.row(row);
    }
    s.table(&table);
    if let Some(path) = artifact {
        s.artifact("window rows", path);
    }
    s
}

/// The run-manifest section: what ran (labels, trace identity) and the
/// wall time of each phase as a bar chart.
pub fn manifest_section(m: &RunManifest, artifact: Option<&str>) -> Section {
    let mut s = Section::new("manifest", "Run manifest");
    let mut rows: Vec<(&str, String)> = vec![("version", m.version.clone())];
    for (k, v) in &m.labels {
        rows.push((k.as_str(), v.clone()));
    }
    if let Some(t) = &m.trace {
        rows.push(("trace", t.source.clone()));
        rows.push(("trace events", t.events.to_string()));
        rows.push(("trace seed", t.seed.to_string()));
    }
    s.kv(&rows);
    if !m.phases.is_empty() {
        let mut chart = BarChart::new("Wall time per phase", " us");
        for p in &m.phases {
            chart.bar(p.name.clone(), p.wall_micros as f64);
        }
        s.push_html(&chart.svg());
        s.para(&format!(
            "total wall time {} us across {} phases",
            m.total_wall_micros(),
            m.phases.len()
        ));
    }
    if let Some(path) = artifact {
        s.artifact("metrics snapshot", path);
    }
    s
}

/// The span-trace summary section: per-category span counts and wall
/// time, aggregated deterministically (categories sorted by name).
pub fn spans_section(trace: &SpanTrace, artifact: Option<&str>) -> Section {
    let mut s = Section::new("spans", "Span trace summary");
    if trace.is_empty() {
        s.note("no spans recorded");
        return s;
    }
    let mut cats: Vec<&str> = trace.spans.iter().map(|sp| sp.cat.as_str()).collect();
    cats.sort_unstable();
    cats.dedup();
    let mut table = HtmlTable::new(&["category", "spans", "total us", "max us", "longest span"]);
    for cat in cats {
        let spans: Vec<_> = trace.with_cat(cat).collect();
        let total: u64 = spans.iter().map(|sp| sp.dur_us).sum();
        let longest = spans
            .iter()
            .max_by_key(|sp| sp.dur_us)
            .expect("category has at least one span");
        table.row(vec![
            Cell::text(cat),
            Cell::int(spans.len() as u64),
            Cell::int(total),
            Cell::int(longest.dur_us),
            Cell::text(longest.name.clone()),
        ]);
    }
    s.para(&format!(
        "{} spans over {} tracks",
        trace.len(),
        trace.track_names.len().max(1)
    ));
    s.table(&table);
    if let Some(path) = artifact {
        s.artifact("Perfetto trace", path);
    }
    s
}

/// The artifact-diff section: every numeric delta as a colored table row
/// (red for increases, green for decreases), plus names present on only
/// one side. Probe-divergent rows are highlighted.
pub fn diff_section(report: &DiffReport, path_a: &str, path_b: &str) -> Section {
    let mut s = Section::new("diff", "Artifact diff");
    s.para(&format!(
        "numeric comparison of A = {path_a} against B = {path_b}"
    ));
    let changed = report.changed();
    if changed.is_empty() {
        s.para("no numeric differences");
    } else {
        let mut table = HtmlTable::new(&["metric", "A", "B", "delta"]);
        for row in &changed {
            let delta = row.delta();
            let class = if row.name.contains("probe") {
                "bad"
            } else if delta > 0.0 {
                "pos"
            } else {
                "neg"
            };
            table.row(vec![
                Cell::text(row.name.clone()),
                Cell::num(row.a),
                Cell::num(row.b),
                Cell::classed(format!("{delta:+.6}"), class),
            ]);
        }
        s.table(&table);
    }
    if report.probe_divergence() {
        s.push_html(
            "<p class=\"note\"><strong>probe accounting diverges</strong> \
             between the two artifacts (highlighted rows)</p>",
        );
    }
    if !report.only_a.is_empty() {
        s.para(&format!("only in A: {}", report.only_a.join(", ")));
    }
    if !report.only_b.is_empty() {
        s.para(&format!("only in B: {}", report.only_b.join(", ")));
    }
    s.artifact("artifact A", path_a);
    s.artifact("artifact B", path_b);
    s
}

/// The contention-observatory section: a stripe heat grid (tiles shaded
/// by access intensity, tooltips carrying hits/occupancy/mean wait) from
/// the highest-thread-count run, wait-vs-service stacked p99 bars per
/// thread count, and the attribution table decomposing each run's tail.
///
/// `runs` pairs each client thread count with its merged
/// [`ContentionReport`], in display order.
pub fn contention_section(runs: &[(usize, ContentionReport)], artifact: Option<&str>) -> Section {
    let mut s = Section::new("contention", "Contention observatory");
    let Some((grid_threads, grid_report)) = runs.iter().max_by_key(|(t, _)| *t) else {
        s.note("no contention runs recorded");
        return s;
    };
    s.para(&format!(
        "Per-stripe lock attribution across {} run(s); every shared-cache \
         request is timed for lock wait and hold, and 1-in-N sampled \
         requests are decomposed into wait / service / overhead phases.",
        runs.len()
    ));

    // Stripe heat grid from the most contended (highest thread) run.
    let mut grid = HeatGrid::new(&format!(
        "Stripe access intensity at {grid_threads} client(s)"
    ));
    for stripe in &grid_report.stripes {
        grid.cells.push(HeatCell {
            label: format!("s{} · {}", stripe.stripe, stripe.accesses),
            value: stripe.accesses as f64,
            detail: format!(
                "stripe {}: {} accesses, {} hits, occupancy {}, \
                 mean wait {:.0} ns, mean hold {:.0} ns",
                stripe.stripe,
                stripe.accesses,
                stripe.hits,
                stripe.occupancy,
                stripe.wait_ns.mean(),
                stripe.hold_ns.mean()
            ),
        });
    }
    s.push_html(&grid.svg());

    // p99 attribution: stacked wait/service/overhead bars per run.
    let mut bars = StackedBarChart::new(
        "p99 latency attribution by thread count",
        " ns",
        &["wait", "service", "overhead"],
    );
    for (threads, report) in runs {
        let total = report.phases.total_percentile_ns(99.0).unwrap_or(0) as f64;
        let wait = report.phases.wait_percentile_ns(99.0).unwrap_or(0) as f64;
        let service = report.phases.service_percentile_ns(99.0).unwrap_or(0) as f64;
        let overhead = (total - wait - service).max(0.0);
        bars.bar(
            format!("{threads} thread(s)"),
            vec![wait, service, overhead],
        );
    }
    s.push_html(&bars.svg());

    let mut table = HtmlTable::new(&[
        "threads",
        "accesses",
        "samples",
        "p99 ns",
        "wait p99 ns",
        "service p99 ns",
        "mean wait ns",
        "mean hold ns",
    ]);
    for (threads, report) in runs {
        table.row(vec![
            Cell::int(*threads as u64),
            Cell::int(report.total_accesses()),
            Cell::int(report.phases.len() as u64),
            Cell::int(report.phases.total_percentile_ns(99.0).unwrap_or(0)),
            Cell::int(report.phases.wait_percentile_ns(99.0).unwrap_or(0)),
            Cell::int(report.phases.service_percentile_ns(99.0).unwrap_or(0)),
            Cell::num(report.mean_wait_ns()),
            Cell::num(report.mean_hold_ns()),
        ]);
    }
    s.table(&table);
    if let Some(path) = artifact {
        s.artifact("contention rows", path);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{validate_self_contained, HtmlPage};
    use crate::timeseries::{StrategyWindow, WindowRecord};

    fn window(i: u64, segment: u64) -> WindowRecord {
        WindowRecord {
            window: i,
            segment,
            refs_start: i * 100,
            refs_end: (i + 1) * 100,
            read_ins: 40 + i,
            read_in_hits: 30,
            mru_pos0_hits: 20,
            write_backs: 5,
            strategies: vec![
                StrategyWindow {
                    strategy: "mru".into(),
                    probes: 50 + i,
                },
                StrategyWindow {
                    strategy: "naive <evil>".into(),
                    probes: 90,
                },
            ],
        }
    }

    fn page_with(section: Section) -> String {
        let mut page = HtmlPage::new("t");
        page.push(section);
        page.render()
    }

    #[test]
    fn jsonl_loader_round_trips_and_names_bad_lines() {
        let rows = vec![window(0, 0), window(1, 1)];
        let mut buf = Vec::new();
        crate::timeseries::write_jsonl(&rows, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let back = windows_from_jsonl(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].segment, 1);

        let err = windows_from_jsonl("{}\n{broken").expect_err("bad line");
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn timeseries_section_marks_segments_and_escapes_names() {
        let rows = vec![window(0, 0), window(1, 0), window(2, 1)];
        let html = page_with(timeseries_section(&rows, Some("w.jsonl")));
        assert!(html.contains("segment 1"), "missing boundary marker");
        assert!(!html.contains("<evil>"), "unescaped strategy name");
        assert!(html.contains("w.jsonl"), "missing artifact link");
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn empty_timeseries_degrades_to_a_note() {
        let html = page_with(timeseries_section(&[], None));
        assert!(html.contains("no window rows"));
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn manifest_section_renders_labels_and_phases() {
        let mut m = RunManifest::new("1.2.3");
        m.label("experiment", "sweep <x>");
        m.set_trace("traces/tiny.din", 9, 7);
        m.time_phase("noop", || ());
        let html = page_with(manifest_section(&m, None));
        assert!(html.contains("sweep &lt;x&gt;"));
        assert!(html.contains("traces/tiny.din"));
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn spans_section_aggregates_by_category() {
        let clock = crate::SpanClock::new();
        let mut buf = crate::SpanBuffer::new(1, clock);
        let id = buf.open_at("shard a", "shard", 0);
        buf.close_at(id, 100);
        let id = buf.open_at("shard b", "shard", 100);
        buf.close_at(id, 350);
        let mut trace = SpanTrace::new();
        trace.absorb(buf);
        let html = page_with(spans_section(&trace, Some("t.json")));
        assert!(html.contains("shard b"), "longest span named");
        assert!(html.contains("350") || html.contains("250"), "durations");
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn contention_section_renders_grid_bars_and_table() {
        use crate::contention::{PhasedLatencyRecorder, PhasedSample, StripeStats};
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let mut stripes = Vec::new();
            for i in 0..4usize {
                let mut st = StripeStats::new(i);
                st.acquisitions = 100 + i as u64;
                st.accesses = 100 + i as u64;
                st.hits = 60;
                st.occupancy = 32;
                st.wait_ns.observe(50 * threads as u64);
                st.hold_ns.observe(400);
                stripes.push(st);
            }
            let mut phases = PhasedLatencyRecorder::new(1);
            phases.record(PhasedSample {
                total_ns: 900 * threads as u64,
                wait_ns: 100 * threads as u64,
                service_ns: 500,
            });
            runs.push((threads, ContentionReport { stripes, phases }));
        }
        let html = page_with(contention_section(&runs, Some("contention.jsonl")));
        assert!(html.contains("Contention observatory"));
        assert!(html.contains("4 client(s)"), "grid uses max-thread run");
        assert!(html.contains("wait p99 ns"), "attribution table");
        assert!(html.contains("contention.jsonl"), "artifact link");
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn empty_contention_section_degrades_to_a_note() {
        let html = page_with(contention_section(&[], None));
        assert!(html.contains("no contention runs"));
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn diff_section_colors_deltas() {
        let a = r#"{"counters":{"probes_total":10,"refs":5}}"#;
        let b = r#"{"counters":{"probes_total":12,"refs":5}}"#;
        let report = crate::diff_artifacts(a, b).expect("diff");
        let html = page_with(diff_section(&report, "a.jsonl", "b.jsonl"));
        assert!(html.contains("probes_total"));
        assert!(html.contains("class=\"bad\""), "probe rows highlighted");
        validate_self_contained(&html).expect("well-formed");
    }
}
