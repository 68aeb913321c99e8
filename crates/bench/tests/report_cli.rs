//! CLI contract tests for the HTML report paths: `paper_tables report`,
//! `paper_tables diff --html` and `trace_tool sim --report-html`. Every
//! emitted page must be a single self-contained document
//! ([`validate_self_contained`]) covering its advertised sections.

use seta_obs::report::validate_self_contained;
use std::path::PathBuf;
use std::process::{Command, Output};

fn paper_tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(args)
        .output()
        .expect("spawn paper_tables")
}

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("spawn trace_tool")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("seta-report-cli-{}-{name}", std::process::id()));
    p
}

fn tiny_trace() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/tiny.din")
}

fn read_validated(path: &PathBuf) -> String {
    let html = std::fs::read_to_string(path).expect("report file exists");
    validate_self_contained(&html).expect("page is well-formed and self-contained");
    html
}

#[test]
fn paper_tables_report_emits_a_full_dashboard() {
    let out_path = tmp("dashboard.html");
    let out = paper_tables(&[
        "report",
        "--scale",
        "2000",
        "--threads",
        "2",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = read_validated(&out_path);
    // The acceptance contract: time series, explain attribution, sweep
    // outcomes and utilization, and the served cache's contention.
    for needle in [
        "Windowed time series",
        "Explain: probe attribution",
        "Sweep worker utilization",
        "Sweep outcomes",
        "Contention observatory",
    ] {
        assert!(html.contains(needle), "missing section {needle:?}");
    }
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn trace_tool_sim_report_html_covers_the_run() {
    let out_path = tmp("sim.html");
    let windows = tmp("sim-windows.jsonl");
    let out = trace_tool(&[
        "sim",
        tiny_trace(),
        "--window",
        "2000",
        "--windows",
        windows.to_str().unwrap(),
        "--report-html",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = read_validated(&out_path);
    for needle in ["Run manifest", "Windowed time series", "Span trace summary"] {
        assert!(html.contains(needle), "missing section {needle:?}");
    }
    // The page deep-links the windows artifact it summarizes.
    assert!(html.contains("sim-windows.jsonl"), "artifact link");
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(&windows);
}

#[test]
fn paper_tables_diff_html_renders_colored_deltas() {
    // Two metrics artifacts of the bundled trace at different L2
    // associativities: their probe counters and miss ratios differ.
    let runs = [("2", tmp("diff-a2.jsonl")), ("8", tmp("diff-a8.jsonl"))];
    for (assoc, metrics) in &runs {
        let out = trace_tool(&[
            "sim",
            tiny_trace(),
            "--assoc",
            assoc,
            "--metrics",
            metrics.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out_path = tmp("diff.html");
    let out = paper_tables(&[
        "diff",
        runs[0].1.to_str().unwrap(),
        runs[1].1.to_str().unwrap(),
        "--html",
        out_path.to_str().unwrap(),
    ]);
    // `diff` exits by probe divergence, which these artifacts have; either
    // way the page must be written and well-formed.
    let html = read_validated(&out_path);
    assert!(html.contains("Artifact diff"));
    assert!(html.contains("l2_local_miss_ratio"), "delta rows present");
    assert!(
        html.contains("class=\"pos\"") || html.contains("class=\"neg\""),
        "colored cells present"
    );
    drop(out);
    let _ = std::fs::remove_file(&out_path);
    for (_, metrics) in &runs {
        let _ = std::fs::remove_file(metrics);
    }
}

#[test]
fn report_pages_escape_hostile_paths() {
    // A trace path carrying markup must come out escaped in the page.
    let evil_dir = tmp("evil <dir>");
    std::fs::create_dir_all(&evil_dir).expect("mkdir");
    let trace_path = evil_dir.join("t<i>.din");
    std::fs::copy(tiny_trace(), &trace_path).expect("copy trace");
    let out_path = tmp("evil.html");
    let out = trace_tool(&[
        "sim",
        trace_path.to_str().unwrap(),
        "--window",
        "2000",
        "--report-html",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = read_validated(&out_path);
    assert!(!html.contains("t<i>.din"), "unescaped path in page");
    assert!(html.contains("t&lt;i&gt;.din"), "escaped path present");
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_dir_all(&evil_dir);
}
