//! Golden tests for the HTML report renderer: small committed artifacts
//! in `tests/fixtures/` rendered to pages whose bytes are pinned by
//! committed `.golden.html` files.
//!
//! Byte-stability is the contract — the renderer must not embed
//! timestamps, hash-map iteration order, or machine-dependent float
//! formatting. Each test renders twice (catching any per-process state)
//! and then compares against the committed golden. To regenerate after
//! an intentional renderer change:
//!
//! ```text
//! SETA_BLESS=1 cargo test -p seta-bench --test report_golden
//! ```

use seta_obs::report::sections::{timeseries_section, windows_from_jsonl};
use seta_obs::report::{validate_self_contained, HtmlPage};
use seta_obs::{SpanBuffer, SpanClock, SpanTrace};
use seta_sim::report_html::sweep_section;
use seta_sim::sweep_report::SweepReport;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `html` against the committed golden, or rewrites the golden
/// when `SETA_BLESS` is set.
fn assert_golden(name: &str, html: &str) {
    validate_self_contained(html)
        .unwrap_or_else(|e| panic!("{name}: generated page is not self-contained: {e}"));
    let path = fixture(name);
    if std::env::var_os("SETA_BLESS").is_some() {
        std::fs::write(&path, html).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with SETA_BLESS=1 to create)", path.display()));
    assert!(
        want == html,
        "{name}: rendered HTML differs from the committed golden \
         (intentional change? re-run with SETA_BLESS=1 and commit)"
    );
}

fn timeseries_page() -> String {
    let text = std::fs::read_to_string(fixture("windows.jsonl")).expect("fixture");
    let rows = windows_from_jsonl(&text).expect("fixture parses");
    let mut page = HtmlPage::new("golden: windowed time series");
    page.push(timeseries_section(&rows, Some("windows.jsonl")));
    page.render()
}

fn sweep_page() -> String {
    // A synthetic span trace (fixed virtual clock) — the deterministic
    // stand-in for a live traced sweep.
    let clock = SpanClock::new();
    let mut trace = SpanTrace::new();
    let mut main = SpanBuffer::new(0, clock.clone());
    let sweep = main.open_at("sweep", "sweep", 0);
    let merge = main.open_at("merge", "merge", 90);
    main.close_at(merge, 100);
    main.close_at(sweep, 110);
    trace.name_track(0, "main");
    trace.absorb(main);
    for (track, shards) in [
        (1u32, &[(0u64, 60u64, 1000u64)][..]),
        (2, &[(0, 20, 500), (20, 40, 500)][..]),
    ] {
        let mut w = SpanBuffer::new(track, clock.clone());
        let root = w.open_at(format!("worker-{track}"), "worker", 0);
        for &(start, end, refs) in shards {
            let s = w.open_at(format!("spec0 seg{start}"), "shard", start);
            w.counter(s, "refs", refs);
            w.close_at(s, end);
        }
        let wait = w.open_at("queue-wait", "queue-wait", 60);
        w.close_at(wait, 80);
        w.close_at(root, 80);
        trace.name_track(track, format!("worker-{track}"));
        trace.absorb(w);
    }
    let report = SweepReport::from_trace(&trace);
    let mut page = HtmlPage::new("golden: sweep utilization");
    page.push(sweep_section(&report, Some("sweep.perfetto.json")));
    page.render()
}

#[test]
fn timeseries_golden_is_byte_stable() {
    let html = timeseries_page();
    assert_eq!(html, timeseries_page(), "two renders differ");
    assert_golden("timeseries.golden.html", &html);
}

#[test]
fn sweep_golden_is_byte_stable() {
    let html = sweep_page();
    assert_eq!(html, sweep_page(), "two renders differ");
    assert_golden("sweep.golden.html", &html);
}
