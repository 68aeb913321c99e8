//! End-to-end test of the live monitoring server against a real
//! instrumented simulation: bind an ephemeral port, hold the run at a
//! deterministic mid-point with a gated event iterator, scrape `/metrics`
//! while the run is provably in flight, stream `/events` to completion,
//! and check the final scrape against the run's own outcome. A served
//! sweep's shard counters are checked against its outcomes and spans.

use seta_cache::CacheConfig;
use seta_sim::metered::{simulate_instrumented, MeterConfig};
use seta_sim::runner::{
    simulate_many_served_with_threads, simulate_many_with_threads, standard_strategies, RunSpec,
};
use seta_trace::gen::{AtumLike, AtumLikeConfig};
use seta_trace::TraceEvent;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Yields `inner`'s events, but parks at event index `at` until the test
/// thread has finished its mid-run scrapes — the simulation is then
/// guaranteed to be neither finished nor at a publish boundary of the
/// test's choosing.
struct Gated<I> {
    inner: I,
    at: u64,
    seen: u64,
    reached: mpsc::Sender<()>,
    resume: mpsc::Receiver<()>,
}

impl<I: Iterator<Item = TraceEvent>> Iterator for Gated<I> {
    type Item = TraceEvent;
    fn next(&mut self) -> Option<TraceEvent> {
        if self.seen == self.at {
            let _ = self.reached.send(());
            self.resume
                .recv_timeout(Duration::from_secs(30))
                .expect("test thread releases the gate");
        }
        self.seen += 1;
        self.inner.next()
    }
}

/// One blocking HTTP/1.1 GET, reading until the server closes.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Asserts `text` is well-formed Prometheus exposition: comments are
/// `# TYPE`/`# HELP`, every sample line is `name{labels} value` with a
/// parseable value, and returns the samples.
fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            assert!(
                comment.starts_with("TYPE ") || comment.starts_with("HELP "),
                "unexpected comment: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        let value: f64 = match value {
            "NaN" => f64::NAN,
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().unwrap_or_else(|e| {
                panic!("bad sample value {v:?} in {line:?}: {e}");
            }),
        };
        assert!(!name.is_empty(), "empty metric name: {line}");
        samples.push((name.to_owned(), value));
    }
    samples
}

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn live_server_tracks_a_real_instrumented_run_end_to_end() {
    let server = seta_obs::Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();

    let mut trace_cfg = AtumLikeConfig::paper_like();
    trace_cfg.segments = 3;
    trace_cfg.refs_per_segment = 3_000;
    let (reached_tx, reached_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel();
    let events = Gated {
        inner: AtumLike::new(trace_cfg, 7),
        at: 5_000,
        seen: 0,
        reached: reached_tx,
        resume: resume_rx,
    };

    // Stream /events from before the run so no window row can be missed.
    let sse = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect SSE");
        write!(stream, "GET /events HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
        let mut raw = String::new();
        // The server ends the stream after the run's closing "end" event.
        stream.read_to_string(&mut raw).expect("read SSE to EOF");
        raw
    });

    let run = std::thread::spawn(move || {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, 4).unwrap();
        let strategies = standard_strategies(4, 16);
        let cfg = MeterConfig {
            snapshot_every: 1_000,
            window_refs: 500,
            serve: Some(handle),
            ..MeterConfig::default()
        };
        simulate_instrumented(
            l1,
            l2,
            events,
            &strategies,
            "synthetic:serve-e2e",
            7,
            &cfg,
            None::<&mut Vec<u8>>,
        )
        .expect("instrumented run")
    });

    // --- Mid-run: the simulation is parked at event 5000. ---
    reached_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run reaches the gate");
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let mid = parse_prometheus(&body);
    let mid_refs = sample(&mid, "refs_total");
    assert!(
        mid_refs > 0.0 && mid_refs < 9_000.0,
        "mid-run refs_total should be partial, got {mid_refs}"
    );
    let (status, health) = http_get(addr, "/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"running\""), "{health}");
    let (status, manifest) = http_get(addr, "/manifest.json");
    assert_eq!(status, 200);
    let m: serde_json::Value = serde_json::from_str(&manifest).expect("manifest parses");
    assert!(m.get("labels").is_some(), "{manifest}");

    resume_tx.send(()).expect("release the gate");
    let run = run.join().expect("run thread");

    // --- After the run: the final scrape equals the run's own books. ---
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let fin = parse_prometheus(&body);
    let stats = &run.outcome.hierarchy;
    assert_eq!(sample(&fin, "refs_total") as u64, stats.processor_refs);
    assert_eq!(sample(&fin, "l2_read_ins_total") as u64, stats.read_ins);
    assert_eq!(
        sample(&fin, "l2_write_backs_total") as u64,
        stats.write_backs
    );
    for s in &run.outcome.strategies {
        let name = seta_obs::labeled("hit_probes_total", "strategy", &s.name);
        assert_eq!(sample(&fin, &name) as u64, s.probes.hits.probes, "{name}");
    }
    let (_, health) = http_get(addr, "/health");
    assert!(health.contains("\"status\":\"done\""), "{health}");
    let (status, page) = http_get(addr, "/");
    assert_eq!(status, 200);
    seta_obs::report::validate_live_page(&page).expect("live dashboard validates");

    // --- The SSE stream saw every window, in order, then the end event. ---
    let raw = sse.join().expect("SSE thread");
    let mut kinds: Vec<String> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut window_refs_sum = 0u64;
    let mut current = None;
    for line in raw.lines() {
        if let Some(k) = line.strip_prefix("event: ") {
            current = Some(k.to_owned());
            kinds.push(k.to_owned());
        } else if let Some(id) = line.strip_prefix("id: ") {
            ids.push(id.parse().expect("numeric SSE id"));
        } else if let Some(data) = line.strip_prefix("data: ") {
            if current.as_deref() == Some("window") {
                let w: serde_json::Value = serde_json::from_str(data).expect("window row parses");
                window_refs_sum +=
                    w["refs_end"].as_u64().unwrap() - w["refs_start"].as_u64().unwrap();
            }
        }
    }
    let windows = kinds.iter().filter(|k| *k == "window").count();
    assert!(windows >= 3, "want >=3 window events, got {windows}");
    assert_eq!(kinds.last().map(String::as_str), Some("end"));
    assert!(
        ids.windows(2).all(|p| p[0] < p[1]),
        "SSE ids must be strictly increasing: {ids:?}"
    );
    assert!(
        !raw.contains("\n: dropped "),
        "no events may be dropped at this scale"
    );
    assert_eq!(
        window_refs_sum, stats.processor_refs,
        "streamed windows must sum exactly to the aggregate stats"
    );
    assert_eq!(windows, run.windows.len(), "every window row was streamed");

    // --- Shutdown drains cleanly: it joins the accept loop and every
    // worker, so returning at all is the assertion. A later connection
    // attempt must fail rather than hang on a half-dead listener.
    server.shutdown();
    if let Ok(mut stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let _ = write!(stream, "GET /health HTTP/1.1\r\nHost: test\r\n\r\n");
        let mut buf = String::new();
        let got = stream.read_to_string(&mut buf);
        assert!(
            got.is_err() || buf.is_empty(),
            "a post-shutdown connection must not be serviced: {buf}"
        );
    }
}

#[test]
fn served_sweep_counters_match_its_outcomes_and_shard_spans() {
    let server = seta_obs::Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();

    // Four cold specs sharing one 3-segment trace: at 2 workers the group
    // is sliced, so several shards run on each worker.
    let mut trace = AtumLikeConfig::paper_like();
    trace.segments = 3;
    trace.refs_per_segment = 2_000;
    let specs: Vec<RunSpec> = [1u32, 2, 4, 8]
        .iter()
        .map(|&assoc| RunSpec {
            l1: CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
            l2: CacheConfig::new(32 * 1024, 32, assoc).unwrap(),
            trace: trace.clone(),
            seed: 5,
            tag_bits: 16,
        })
        .collect();
    let plain = simulate_many_with_threads(&specs, 2);
    let (served, spans) = simulate_many_served_with_threads(&specs, 2, server.handle());
    assert_eq!(format!("{served:?}"), format!("{plain:?}"));

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let fin = parse_prometheus(&body);
    let shards = spans.with_cat("shard").count() as f64;
    assert!(shards > 0.0, "the sweep records shard spans");
    assert_eq!(sample(&fin, "sweep_shards_total"), shards);
    assert_eq!(sample(&fin, "sweep_shards_done_total"), shards);
    let refs: u64 = served.iter().map(|o| o.hierarchy.processor_refs).sum();
    assert_eq!(sample(&fin, "sweep_refs_total") as u64, refs);
    let probes: u64 = served
        .iter()
        .flat_map(|o| &o.strategies)
        .map(|s| s.probes.hits.probes + s.probes.misses.probes + s.probes.write_backs.probes)
        .sum();
    assert_eq!(sample(&fin, "sweep_probes_total") as u64, probes);
    let busy: Vec<&(String, f64)> = fin
        .iter()
        .filter(|(name, _)| name.starts_with("sweep_worker_busy{"))
        .collect();
    assert_eq!(busy.len(), 2, "one busy gauge per worker: {busy:?}");
    assert!(
        busy.iter().all(|(_, v)| *v == 0.0),
        "every worker is idle at the end: {busy:?}"
    );
    server.shutdown();
}
