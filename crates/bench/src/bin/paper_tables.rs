//! Regenerates any table or figure of the paper from the command line.
//!
//! ```text
//! paper_tables <experiment> [--scale N] [--seed S] [--json]
//!
//! experiments: table1 table2 fig3 fig4 fig5 fig6 table4 calibrate all
//!              banked hashrehash warmth invalidation timing contention deep policy extensions
//!              run (one fully instrumented simulation)
//!              explain (probe-level event tracing and cost attribution)
//!              sweep (span-traced associativity sweep; --trace-out/--flame/--report/--threads)
//!              diff a b (numeric artifact diff; exit 1 on probe divergence;
//!                        --html F renders the deltas as a colored table)
//!              report (self-contained HTML dashboard; --out report.html)
//!              bench-serve (concurrent-cache scaling: replay a trace through
//!                           seta-serve at each --threads count; p50/p99 and
//!                           req/s per count, JSON artifact via --out,
//!                           per-stripe lock attribution via --contention-out)
//!   --scale N        shrink the trace by N× (default 1 = full 8M references)
//!   --seed S         workload seed (default the experiments' fixed seed)
//!   --json           emit machine-readable JSON instead of text tables
//!   --metrics F      stream metrics snapshots to F as JSON lines
//!                    (for explain: write the JSONL report artifact to F)
//!   --progress       heartbeat refs/sec and ETA to stderr (run only)
//!   --progress-interval S  seconds between heartbeat lines (default 0.5)
//!   --assoc A        L2 associativity for run/explain (default 4)
//!   --prom F         write final Prometheus text exposition to F (run only)
//!   --serve ADDR     serve the run live over HTTP (run/sweep; port 0 = ephemeral)
//!   --serve-linger S keep serving the final state for S seconds after the run
//! ```

use seta_cache::CacheConfig;
use seta_core::lookup::{
    Banked, Mru, Naive, PartialCompare, ScanOrder, StrategyKind, Traditional, TransformKind,
};
use seta_obs::RunManifest;
use seta_serve::LoadSpec;
use seta_sim::config::table3_l1_miss_ratios;
use seta_sim::experiments::{
    banked, contention, deep, fig3, fig4, fig5, fig6, hashrehash, invalidation, policy, table1,
    table2, table4, timing_effective, warmth, ExperimentParams,
};
use seta_sim::explain::{explain, ExplainConfig};
use seta_sim::metered::{simulate_instrumented, MeterConfig};
use seta_sim::partition::requested_threads;
use seta_sim::runner::{
    simulate, simulate_many_served_with_threads, simulate_many_traced_with_threads,
    standard_strategies, RunSpec,
};
use seta_sim::sweep_report::SweepReport;
use seta_trace::format::DineroReader;
use seta_trace::gen::AtumLike;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

struct Options {
    experiment: String,
    scale: u64,
    seed: Option<u64>,
    json: bool,
    csv: bool,
    metrics: Option<String>,
    progress: bool,
    progress_interval: Option<u64>,
    assoc: u32,
    prom: Option<String>,
    trace_out: Option<String>,
    flame: Option<String>,
    report: bool,
    threads: Option<usize>,
    diff_paths: Vec<String>,
    out: Option<String>,
    html: Option<String>,
    serve: Option<String>,
    serve_linger: u64,
    thread_list: Vec<usize>,
    repeat: u64,
    strategy: String,
    stripes: usize,
    trace_path: Option<String>,
    sample_every: u64,
    contention_out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    if experiment == "--version" {
        println!("paper_tables {}", env!("CARGO_PKG_VERSION"));
        std::process::exit(0);
    }
    let mut opts = Options {
        experiment,
        scale: 1,
        seed: None,
        json: false,
        csv: false,
        metrics: None,
        progress: false,
        progress_interval: None,
        assoc: 4,
        prom: None,
        trace_out: None,
        flame: None,
        report: false,
        threads: None,
        diff_paths: Vec::new(),
        out: None,
        html: None,
        serve: None,
        serve_linger: 0,
        thread_list: Vec::new(),
        repeat: 1,
        strategy: "mru".into(),
        stripes: 16,
        trace_path: None,
        sample_every: 64,
        contention_out: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = v.parse().map_err(|e| format!("bad --scale {v}: {e}"))?;
                if opts.scale == 0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = Some(v.parse().map_err(|e| format!("bad --seed {v}: {e}"))?);
            }
            "--assoc" => {
                let v = args.next().ok_or("--assoc needs a value")?;
                opts.assoc = v.parse().map_err(|e| format!("bad --assoc {v}: {e}"))?;
                if !opts.assoc.is_power_of_two() {
                    return Err("--assoc must be a power of two".into());
                }
            }
            "--metrics" => {
                opts.metrics = Some(args.next().ok_or("--metrics needs a path")?);
            }
            "--prom" => {
                opts.prom = Some(args.next().ok_or("--prom needs a path")?);
            }
            "--progress" => opts.progress = true,
            "--progress-interval" => {
                let v = args.next().ok_or("--progress-interval needs a value")?;
                opts.progress_interval = Some(
                    v.parse()
                        .map_err(|e| format!("bad --progress-interval {v}: {e}"))?,
                );
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--flame" => {
                opts.flame = Some(args.next().ok_or("--flame needs a path")?);
            }
            "--report" => opts.report = true,
            "--out" => {
                opts.out = Some(args.next().ok_or("--out needs a path")?);
            }
            "--html" => {
                opts.html = Some(args.next().ok_or("--html needs a path")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let list: Vec<usize> = v
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad --threads {v}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--threads must be positive".into());
                }
                if list.len() > 1 && opts.experiment != "bench-serve" {
                    return Err(format!(
                        "--threads takes one value for {} (lists are for bench-serve)",
                        opts.experiment
                    ));
                }
                opts.threads = Some(list[0]);
                opts.thread_list = list;
            }
            "--serve" => {
                opts.serve = Some(args.next().ok_or("--serve needs an address")?);
            }
            "--serve-linger" => {
                let v = args.next().ok_or("--serve-linger needs a value")?;
                opts.serve_linger = v
                    .parse()
                    .map_err(|e| format!("bad --serve-linger {v}: {e}"))?;
            }
            "--repeat" => {
                let v = args.next().ok_or("--repeat needs a value")?;
                opts.repeat = v.parse().map_err(|e| format!("bad --repeat {v}: {e}"))?;
                if opts.repeat == 0 {
                    return Err("--repeat must be positive".into());
                }
            }
            "--strategy" => {
                opts.strategy = args.next().ok_or("--strategy needs a name")?;
            }
            "--stripes" => {
                let v = args.next().ok_or("--stripes needs a value")?;
                opts.stripes = v.parse().map_err(|e| format!("bad --stripes {v}: {e}"))?;
                if opts.stripes == 0 {
                    return Err("--stripes must be positive".into());
                }
            }
            "--trace" => {
                opts.trace_path = Some(args.next().ok_or("--trace needs a path")?);
            }
            "--contention-out" => {
                opts.contention_out = Some(args.next().ok_or("--contention-out needs a path")?);
            }
            "--sample-every" => {
                let v = args.next().ok_or("--sample-every needs a value")?;
                opts.sample_every = v
                    .parse()
                    .map_err(|e| format!("bad --sample-every {v}: {e}"))?;
            }
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            "--version" => {
                println!("paper_tables {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            other if opts.experiment == "diff" && !other.starts_with("--") => {
                opts.diff_paths.push(other.to_owned());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if opts.serve.is_none() && opts.serve_linger > 0 {
        return Err("--serve-linger needs --serve".into());
    }
    Ok(opts)
}

/// Binds the live monitoring server when `--serve` was given, announcing
/// the resolved address (port 0 binds an ephemeral port).
fn bind_server(opts: &Options, title: &str) -> Result<Option<seta_obs::Server>, String> {
    let Some(addr) = &opts.serve else {
        return Ok(None);
    };
    let server = seta_obs::Server::bind(addr.as_str()).map_err(|e| format!("serve {addr}: {e}"))?;
    server.handle().set_title(title);
    eprintln!("live monitor on http://{}/", server.local_addr());
    Ok(Some(server))
}

/// Keeps the server's final state scrapeable for `--serve-linger` seconds,
/// then shuts it down.
fn linger_and_shutdown(server: Option<seta_obs::Server>, secs: u64) {
    if let Some(server) = server {
        if secs > 0 {
            eprintln!(
                "run finished; serving final state for {secs}s at http://{}/",
                server.local_addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
        server.shutdown();
    }
}

fn usage() -> String {
    "usage: paper_tables <experiment> [--scale N] [--seed S] [--json|--csv]\n\
     \x20                   [--metrics out.jsonl] [--progress] [--progress-interval S]\n\
     \x20                   [--assoc A] [--prom out.prom]\n\
     \x20                   [--serve addr:port] [--serve-linger S] (run/sweep)\n\
     paper:      table1 table2 fig3 fig4 fig5 fig6 table4 calibrate all\n\
     extensions: banked hashrehash warmth invalidation timing contention deep policy extensions\n\
     run:        one fully instrumented simulation of the figures hierarchy\n\
     explain:    probe-level event tracing and cost attribution (JSONL via --metrics)\n\
     sweep:      a span-traced associativity sweep\n\
     \x20        [--trace-out t.json] [--flame t.folded] [--report] [--threads N]\n\
     diff:       paper_tables diff a.jsonl b.jsonl — numeric artifact diff\n\
     \x20        (exit 1 when probe accounting diverges; --html F for an HTML table)\n\
     report:     one self-contained HTML dashboard (time series, explain,\n\
     \x20        sweep outcomes and utilization, contention)\n\
     \x20        [--out report.html] [--threads N]\n\
     bench-serve: concurrent-cache scaling benchmark over a Dinero trace\n\
     \x20        [--threads 1,2,4] [--trace F] [--repeat N] [--strategy S]\n\
     \x20        [--stripes N] [--sample-every N] [--out artifact.json]\n\
     \x20        [--contention-out rows.jsonl] [--serve addr:port] [--assoc A]"
        .into()
}

fn params(opts: &Options) -> ExperimentParams {
    let mut p = if opts.scale == 1 {
        ExperimentParams::paper()
    } else {
        ExperimentParams::scaled(opts.scale)
    };
    if let Some(seed) = opts.seed {
        p.seed = seed;
    }
    p
}

fn emit<T: serde::Serialize>(json: bool, value: &T, text: String) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("results serialize")
        );
    } else {
        println!("{text}");
    }
}

/// Reports the measured L1 miss ratios for the three Table 3 level-one
/// configurations, next to the paper's published values.
fn calibrate(p: &ExperimentParams, json: bool) {
    let mut rows = Vec::new();
    for (preset, published) in table3_l1_miss_ratios() {
        let out = simulate(
            preset.l1().expect("preset geometry is valid"),
            preset.l2(4).expect("preset geometry is valid"),
            AtumLike::new(p.trace.clone(), p.seed),
            &standard_strategies(4, p.tag_bits),
        );
        rows.push(serde_json::json!({
            "l1": format!("{}K-{}", preset.l1_size / 1024, preset.l1_block),
            "paper_miss_ratio": published,
            "measured_miss_ratio": out.hierarchy.l1_miss_ratio(),
            "l2_local_miss_ratio": out.hierarchy.local_miss_ratio(),
            "write_back_fraction": out.hierarchy.write_back_fraction(),
        }));
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("rows serialize")
        );
    } else {
        println!("L1 calibration (paper Table 3 vs this workload)");
        for r in rows {
            println!(
                "  {:>7}: paper {:.4}  measured {:.4}  (L2 local {:.4}, wb frac {:.4})",
                r["l1"].as_str().expect("label is a string"),
                r["paper_miss_ratio"].as_f64().expect("number"),
                r["measured_miss_ratio"].as_f64().expect("number"),
                r["l2_local_miss_ratio"].as_f64().expect("number"),
                r["write_back_fraction"].as_f64().expect("number"),
            );
        }
    }
}

/// One fully instrumented simulation of the figures hierarchy: streams
/// JSONL metrics snapshots, prints a per-strategy summary, and optionally
/// writes the final Prometheus exposition.
fn run_instrumented(p: &ExperimentParams, opts: &Options) -> Result<(), String> {
    let preset = p.preset;
    let l1 = preset.l1().map_err(|e| e.to_string())?;
    let l2 = preset.l2(opts.assoc).map_err(|e| e.to_string())?;
    let strategies = standard_strategies(opts.assoc, p.tag_bits);
    let server = bind_server(opts, "paper_tables run")?;
    let cfg = MeterConfig {
        snapshot_every: 100_000,
        progress: opts.progress,
        progress_interval_secs: opts.progress_interval,
        expected_refs: Some(p.trace.total_refs()),
        window_refs: seta_obs::DEFAULT_WINDOW_REFS,
        serve: server.as_ref().map(|s| s.handle()),
    };
    let mut writer = match &opts.metrics {
        Some(path) => Some(BufWriter::new(
            File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => None,
    };
    let source = format!(
        "synthetic:atum-like {}x{}",
        p.trace.segments, p.trace.refs_per_segment
    );
    let run = simulate_instrumented(
        l1,
        l2,
        AtumLike::new(p.trace.clone(), p.seed),
        &strategies,
        &source,
        p.seed,
        &cfg,
        writer.as_mut(),
    )
    .map_err(|e| format!("write metrics: {e}"))?;
    if let Some(path) = &opts.prom {
        std::fs::write(path, seta_obs::export::prometheus_text(&run.registry))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&run.outcome).expect("outcome serializes")
        );
        linger_and_shutdown(server, opts.serve_linger);
        return Ok(());
    }
    let out = &run.outcome;
    println!(
        "{} over {} ({}-way L2)",
        out.l1_label, out.l2_label, out.assoc
    );
    println!(
        "  refs {}  L1 miss {:.4}  L2 local miss {:.4}  global miss {:.4}",
        out.hierarchy.processor_refs,
        out.hierarchy.l1_miss_ratio(),
        out.hierarchy.local_miss_ratio(),
        out.hierarchy.global_miss_ratio()
    );
    for s in &out.strategies {
        println!(
            "  {:<24} hit probes {:.3}  miss probes {:.3}",
            s.name,
            s.probes.hit_mean(),
            s.probes.miss_mean()
        );
    }
    println!(
        "  wall {:.2}s across {} segments{}",
        run.manifest.total_wall_micros() as f64 / 1e6,
        run.manifest.phases.len(),
        match &opts.metrics {
            Some(path) => format!(", {} snapshots -> {path}", run.snapshots),
            None => String::new(),
        }
    );
    linger_and_shutdown(server, opts.serve_linger);
    Ok(())
}

/// The explain experiment: one fully event-traced simulation of the
/// figures hierarchy. Prints the human-readable attribution report (or the
/// JSONL report with `--json`) and writes the JSONL artifact to the
/// `--metrics` path when given.
fn run_explain(p: &ExperimentParams, opts: &Options) -> Result<(), String> {
    let preset = p.preset;
    let l1 = preset.l1().map_err(|e| e.to_string())?;
    let l2 = preset.l2(opts.assoc).map_err(|e| e.to_string())?;
    let strategies = standard_strategies(opts.assoc, p.tag_bits);
    let (outcome, report) = explain(
        l1,
        l2,
        AtumLike::new(p.trace.clone(), p.seed),
        &strategies,
        &ExplainConfig::default(),
    );
    if let Some(path) = &opts.metrics {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        report
            .write_jsonl(&outcome, &mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if opts.json {
        let mut out = std::io::stdout().lock();
        report
            .write_jsonl(&outcome, &mut out)
            .map_err(|e| format!("write report: {e}"))?;
    } else {
        print!("{}", report.render(&outcome));
    }
    if !report.identities_hold() {
        return Err("explain: an exact accounting identity failed (bug)".into());
    }
    Ok(())
}

/// A span-traced associativity sweep of the figures hierarchy: runs the
/// standard 1/2/4/8-way configurations through the sharded sweep runner
/// with tracing on, then exports the trace (Perfetto JSON and collapsed
/// flamegraph) and the utilization report derived from it.
fn run_sweep(p: &ExperimentParams, opts: &Options) -> Result<(), String> {
    let preset = p.preset;
    let l1 = preset.l1().map_err(|e| e.to_string())?;
    let specs: Vec<RunSpec> = [1u32, 2, 4, 8]
        .iter()
        .map(|&assoc| {
            Ok(RunSpec {
                l1,
                l2: preset.l2(assoc).map_err(|e| e.to_string())?,
                trace: p.trace.clone(),
                seed: p.seed,
                tag_bits: p.tag_bits,
            })
        })
        .collect::<Result<_, String>>()?;
    let server = bind_server(opts, "paper_tables sweep")?;
    let threads = opts.threads.unwrap_or_else(requested_threads);
    let (outcomes, trace) = match server.as_ref() {
        Some(s) => simulate_many_served_with_threads(&specs, threads, s.handle()),
        None => simulate_many_traced_with_threads(&specs, threads),
    };
    if let Some(path) = &opts.trace_out {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        trace
            .write_perfetto("paper_tables sweep", &mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &opts.flame {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        trace
            .write_collapsed(&mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    let report = SweepReport::from_trace(&trace);
    let mut manifest = RunManifest::new(env!("CARGO_PKG_VERSION"));
    manifest.label("experiment", "sweep");
    manifest.label("scale", opts.scale);
    manifest.label("seed", p.seed);
    report.annotate(&mut manifest);
    if let Some(path) = &opts.metrics {
        write_experiment_manifest(path, &manifest)?;
    }
    if let Some(s) = &server {
        // The sweep runner publishes progress as it goes; the annotated
        // manifest and the done flag land once the utilization report
        // exists, so the final scrape carries the whole story.
        let handle = s.handle();
        handle.publish_manifest(&manifest);
        handle.finish_run();
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcomes).expect("outcomes serialize")
        );
    } else {
        println!(
            "sweep of {} specs over {}",
            specs.len(),
            outcomes[0].l1_label
        );
        for out in &outcomes {
            println!(
                "  {:>2}-way {}: L2 local miss {:.4}",
                out.assoc,
                out.l2_label,
                out.hierarchy.local_miss_ratio()
            );
        }
    }
    if opts.report {
        print!("{}", report.render());
    }
    if let Some(path) = &opts.trace_out {
        eprintln!("perfetto trace ({} spans) -> {path}", trace.len());
    }
    linger_and_shutdown(server, opts.serve_linger);
    Ok(())
}

/// `paper_tables report`: one self-contained HTML dashboard over a fresh
/// instrumented run of the figures hierarchy. Covers the per-strategy
/// time series, the explain attribution, the sweep's outcomes and worker
/// utilization, and the served cache's contention — each section
/// deep-linking the artifacts it summarizes.
fn run_report(p: &ExperimentParams, opts: &Options) -> Result<(), String> {
    use seta_obs::report::{sections, HtmlPage};
    use seta_sim::report_html::{explain_section, sweep_outcomes_section, sweep_section};

    let out_path = opts.out.as_deref().unwrap_or("report.html");
    let preset = p.preset;
    let l1 = preset.l1().map_err(|e| e.to_string())?;
    let l2 = preset.l2(opts.assoc).map_err(|e| e.to_string())?;
    let strategies = standard_strategies(opts.assoc, p.tag_bits);
    let source = format!(
        "synthetic:atum-like {}x{}",
        p.trace.segments, p.trace.refs_per_segment
    );

    // One windowed, instrumented run for the time-series section.
    let cfg = MeterConfig {
        snapshot_every: 0,
        progress: opts.progress,
        progress_interval_secs: opts.progress_interval,
        expected_refs: Some(p.trace.total_refs()),
        window_refs: seta_obs::DEFAULT_WINDOW_REFS.min(p.trace.refs_per_segment.max(1)),
        serve: None,
    };
    let run = simulate_instrumented(
        l1,
        l2,
        AtumLike::new(p.trace.clone(), p.seed),
        &strategies,
        &source,
        p.seed,
        &cfg,
        None::<&mut Vec<u8>>,
    )
    .map_err(|e| format!("instrumented run: {e}"))?;

    // One explain pass for the attribution section.
    let (explain_outcome, explain_report) = explain(
        l1,
        l2,
        AtumLike::new(p.trace.clone(), p.seed),
        &strategies,
        &ExplainConfig::default(),
    );

    // The traced associativity sweep for the outcomes/utilization sections.
    let specs: Vec<RunSpec> = [1u32, 2, 4, 8]
        .iter()
        .map(|&assoc| {
            Ok(RunSpec {
                l1,
                l2: preset.l2(assoc).map_err(|e| e.to_string())?,
                trace: p.trace.clone(),
                seed: p.seed,
                tag_bits: p.tag_bits,
            })
        })
        .collect::<Result<_, String>>()?;
    let threads = opts.threads.unwrap_or_else(requested_threads);
    let (outcomes, trace) = simulate_many_traced_with_threads(&specs, threads);
    let sweep = SweepReport::from_trace(&trace);

    // Small contended replays of the same synthetic workload for the
    // contention-observatory section: per-stripe heat and the
    // wait/service/overhead decomposition across client counts.
    let serve_events: Vec<seta_trace::TraceEvent> = AtumLike::new(p.trace.clone(), p.seed)
        .take(20_000)
        .collect();
    let mut cspec = LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
    cspec.sample_every = 16;
    let mut contended = Vec::new();
    for t in [1usize, 2, 4] {
        let (cout, creport) = seta_serve::replay_contended(&serve_events, t, &cspec);
        if !cout.conserves() {
            return Err(format!("{t}-thread contended replay does not conserve"));
        }
        contended.push((t, creport));
    }

    let mut page = HtmlPage::new("seta report");
    page.subtitle(format!(
        "{source}, seed {}, scale {}, {}-way L2 focus",
        p.seed, opts.scale, opts.assoc
    ));
    page.push(sections::manifest_section(
        &run.manifest,
        opts.metrics.as_deref(),
    ));
    page.push(sections::timeseries_section(&run.windows, None));
    page.push(explain_section(&explain_outcome, &explain_report, None));
    page.push(sweep_outcomes_section(&outcomes));
    page.push(sweep_section(&sweep, opts.trace_out.as_deref()));
    page.push(sections::contention_section(
        &contended,
        opts.contention_out.as_deref(),
    ));
    std::fs::write(out_path, page.render()).map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!("report -> {out_path}");
    Ok(())
}

/// `paper_tables diff a b`: numeric comparison of two metrics artifacts.
/// Exits non-zero when probe accounting diverges between the two runs.
fn run_diff(opts: &Options) -> Result<bool, String> {
    let [a, b] = match opts.diff_paths.as_slice() {
        [a, b] => [a, b],
        other => {
            return Err(format!(
                "diff needs exactly two artifact paths, got {}\n{}",
                other.len(),
                usage()
            ))
        }
    };
    let ta = std::fs::read_to_string(a).map_err(|e| format!("read {a}: {e}"))?;
    let tb = std::fs::read_to_string(b).map_err(|e| format!("read {b}: {e}"))?;
    let report = seta_obs::diff_artifacts(&ta, &tb)?;
    print!("{}", report.render());
    if let Some(path) = &opts.html {
        let mut page = seta_obs::report::HtmlPage::new("seta artifact diff");
        page.push(seta_obs::report::sections::diff_section(&report, a, b));
        std::fs::write(path, page.render()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("diff report -> {path}");
    }
    Ok(report.probe_divergence())
}

#[derive(Clone, Copy)]
enum Output {
    Text,
    Json,
    Csv,
}

fn run_one(name: &str, p: &ExperimentParams, out: Output) -> Result<(), String> {
    let json = matches!(out, Output::Json);
    let csv = matches!(out, Output::Csv);
    match name {
        "table1" => {
            let t = table1::run(p.tag_bits);
            emit(json, &t, t.render());
        }
        "table2" => {
            let t = table2::run();
            emit(json, &t, t.render());
        }
        "fig3" => {
            let f = fig3::run(p);
            emit(json, &f, if csv { f.csv() } else { f.render() });
        }
        "fig4" => {
            let f = fig4::run(p);
            emit(json, &f, if csv { f.csv() } else { f.render() });
        }
        "fig5" => {
            let f = fig5::run(p);
            let text = if csv {
                format!("{}\n{}", f.left_csv(), f.right_csv())
            } else {
                f.render()
            };
            emit(json, &f, text);
        }
        "fig6" => {
            let f = fig6::run(p);
            emit(json, &f, if csv { f.csv() } else { f.render() });
        }
        "table4" => {
            let t = table4::run(p);
            emit(json, &t, if csv { t.csv() } else { t.render() });
        }
        "calibrate" => calibrate(p, json),
        "banked" => {
            let b = banked::run(p);
            emit(json, &b, b.render());
        }
        "hashrehash" => {
            let h = hashrehash::run(p);
            emit(json, &h, h.render());
        }
        "warmth" => {
            let w = warmth::run(p);
            emit(json, &w, w.render());
        }
        "invalidation" => {
            let i = invalidation::run(p);
            emit(json, &i, i.render());
        }
        "timing" => {
            let t = timing_effective::run(p);
            emit(json, &t, t.render());
        }
        "contention" => {
            let c = contention::run(p);
            emit(json, &c, c.render());
        }
        "deep" => {
            let d = deep::run(p);
            emit(json, &d, d.render());
        }
        "policy" => {
            let s = policy::run(p);
            emit(json, &s, s.render());
        }
        "all" => {
            for name in [
                "table1",
                "table2",
                "calibrate",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "table4",
            ] {
                run_one(name, p, out)?;
            }
        }
        "extensions" => {
            for name in [
                "banked",
                "hashrehash",
                "warmth",
                "invalidation",
                "timing",
                "contention",
                "deep",
                "policy",
            ] {
                run_one(name, p, out)?;
            }
        }
        other => return Err(format!("unknown experiment {other:?}\n{}", usage())),
    }
    Ok(())
}

/// The lookup strategy pricing every shared-cache request in
/// `bench-serve` and the sequential reference simulation alike.
fn serve_strategy(name: &str, assoc: u32) -> Result<StrategyKind, String> {
    Ok(match name {
        "traditional" => StrategyKind::Traditional(Traditional),
        "naive" => StrategyKind::Naive(Naive),
        "mru" => StrategyKind::Mru(Mru::full()),
        "partial" => {
            let subsets = if assoc == 1 {
                1
            } else {
                seta_core::model::subsets_for_four_bit_compares(16, assoc)
            };
            StrategyKind::Partial(PartialCompare::new(16, subsets, TransformKind::XorFold))
        }
        "banked" => StrategyKind::Banked(Banked::new(2, ScanOrder::Frame)),
        other => {
            return Err(format!(
                "unknown --strategy {other:?} (traditional|naive|mru|partial|banked)"
            ))
        }
    })
}

/// Replays a Dinero trace through the sharded concurrent cache at each
/// requested client-thread count ([`seta_serve::replay`]), printing a
/// scaling table of req/s and sampled p50/p99 request latency, plus a
/// contention-attribution table from a second, instrumented pass per
/// thread count ([`seta_serve::replay_contended`]) — kept separate so
/// the observer's clock reads cannot perturb the timed rows.
///
/// Three correctness gates run inline: every outcome must conserve its
/// tallies ([`seta_serve::LoadOutcome::conserves`]), the 1-thread
/// replay must be bit-identical — shared-cache statistics and probe
/// accounting — to the sequential [`simulate`] of the same events, and
/// every instrumented pass's per-stripe accesses/hits must sum exactly
/// to its cache's own totals.
fn run_bench_serve(opts: &Options) -> Result<(), String> {
    let trace_path = opts.trace_path.as_deref().unwrap_or("traces/tiny.din");
    let text =
        std::fs::read_to_string(trace_path).map_err(|e| format!("read {trace_path}: {e}"))?;
    let base: Vec<seta_trace::TraceEvent> = DineroReader::new(text.as_bytes())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parse {trace_path}: {e}"))?;
    let events: Vec<seta_trace::TraceEvent> = std::iter::repeat(base.iter().copied())
        .take(opts.repeat as usize)
        .flatten()
        .collect();
    if events.is_empty() {
        return Err(format!("{trace_path}: no trace events"));
    }

    // The geometry `tests/probe_golden.rs` pins on this trace, with the
    // L2 associativity overridable so the strategies have something to
    // disagree about.
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).map_err(|e| e.to_string())?;
    let l2 = CacheConfig::new(64 * 1024, 32, opts.assoc).map_err(|e| e.to_string())?;
    let kind = serve_strategy(&opts.strategy, opts.assoc)?;
    let mut spec = LoadSpec::new(l1, l2, kind);
    spec.stripes = opts.stripes;
    spec.sample_every = opts.sample_every.max(1);

    let sequential = simulate(l1, l2, events.iter().copied(), &[kind]);

    let threads = if opts.thread_list.is_empty() {
        vec![1, 2, 4]
    } else {
        opts.thread_list.clone()
    };
    let server = bind_server(opts, "paper_tables bench-serve")?;
    let mut rows = Vec::new();
    let mut contended: Vec<(usize, u64, seta_obs::ContentionReport)> = Vec::new();
    for &t in &threads {
        let out = match server.as_ref() {
            Some(s) => {
                let handle = s.handle();
                seta_serve::replay_served(&events, t, &spec, &handle).0
            }
            None => seta_serve::replay(&events, t, &spec),
        };
        if !out.conserves() {
            return Err(format!("{t}-thread replay does not conserve: {out:?}"));
        }
        if t == 1 {
            if out.l2_stats != sequential.l2_stats {
                return Err(
                    "1-thread replay diverged from sequential simulate (shared-cache stats)".into(),
                );
            }
            if out.l2_probes != sequential.strategies[0].probes {
                return Err(
                    "1-thread replay diverged from sequential simulate (probe accounting)".into(),
                );
            }
        }

        // The contention observatory pass: same events, same spec, with
        // every request's lock wait/hold attributed to its stripe.
        let (cout, creport) = seta_serve::replay_contended(&events, t, &spec);
        if !cout.conserves() {
            return Err(format!("{t}-thread contended replay does not conserve"));
        }
        if creport.total_accesses() != cout.l2_stats.accesses()
            || creport.total_hits() != cout.l2_stats.hits()
        {
            return Err(format!(
                "{t}-thread contention attribution does not reconcile: \
                 stripes say {}/{} accesses/hits, cache says {}/{}",
                creport.total_accesses(),
                creport.total_hits(),
                cout.l2_stats.accesses(),
                cout.l2_stats.hits()
            ));
        }
        if let Some(s) = server.as_ref() {
            s.handle().publish_contention(&creport, t, cout.requests);
        }
        contended.push((t, cout.requests, creport));
        rows.push(out);
    }
    linger_and_shutdown(server, opts.serve_linger);

    if let Some(path) = &opts.contention_out {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        for (t, requests, report) in &contended {
            for row in report.stripe_rows(*t) {
                let line = serde_json::to_string(&row).map_err(|e| e.to_string())?;
                writeln!(f, "{line}").map_err(|e| format!("write {path}: {e}"))?;
            }
            let line = serde_json::to_string(&report.summary_row(*t, *requests))
                .map_err(|e| e.to_string())?;
            writeln!(f, "{line}").map_err(|e| format!("write {path}: {e}"))?;
        }
        f.flush().map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("contention rows -> {path}");
    }

    let summaries: Vec<seta_obs::SummaryArtifactRow> = contended
        .iter()
        .map(|(t, requests, report)| report.summary_row(*t, *requests))
        .collect();
    let artifact = serde_json::json!({
        "schema_version": 1,
        "trace": trace_path,
        "repeat": opts.repeat,
        "strategy": opts.strategy.clone(),
        "stripes": spec.stripes,
        "l2_assoc": opts.assoc,
        "rows": rows.clone(),
        "contention": summaries,
    });
    if let Some(path) = &opts.out {
        let json = serde_json::to_string_pretty(&artifact).map_err(|e| e.to_string())?;
        std::fs::write(
            path,
            json + "
",
        )
        .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&artifact).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    let base_rps = rows[0].requests_per_second;
    println!(
        "bench-serve: {} x{} ({} refs), strategy {}, {} stripes",
        trace_path, opts.repeat, rows[0].refs, opts.strategy, spec.stripes
    );
    println!("threads   requests      req/s   speedup   p50 ns   p99 ns   wait_ns_p99");
    for (out, (_, _, creport)) in rows.iter().zip(&contended) {
        let fmt_ns = |v: Option<u64>| match v {
            Some(ns) => format!("{ns:>8}"),
            None => format!("{:>8}", "-"),
        };
        println!(
            "{:>7} {:>10} {:>10.0} {:>8.2}x {} {} {:>13}",
            out.threads,
            out.requests,
            out.requests_per_second,
            out.requests_per_second / base_rps.max(1e-12),
            fmt_ns(out.p50_ns),
            fmt_ns(out.p99_ns),
            creport.phases.wait_percentile_ns(99.0).unwrap_or(0),
        );
    }

    println!("contention attribution (instrumented pass, sampled p99 ns by phase)");
    println!("threads   total p99   wait p99   service p99   overhead p99   mean wait   mean hold");
    for (t, _, report) in &contended {
        println!(
            "{:>7} {:>11} {:>10} {:>13} {:>14} {:>11.1} {:>11.1}",
            t,
            report.phases.total_percentile_ns(99.0).unwrap_or(0),
            report.phases.wait_percentile_ns(99.0).unwrap_or(0),
            report.phases.service_percentile_ns(99.0).unwrap_or(0),
            report.phases.overhead_percentile_ns(99.0).unwrap_or(0),
            report.mean_wait_ns(),
            report.mean_hold_ns(),
        );
    }
    Ok(())
}

/// For non-`run` experiments with `--metrics`: times the experiment as a
/// manifest phase and appends one final JSONL line recording it.
fn write_experiment_manifest(path: &str, manifest: &RunManifest) -> Result<(), String> {
    let registry = seta_obs::MetricsRegistry::new();
    let line = seta_obs::export::final_snapshot_line(&registry, 0, 0, manifest);
    let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
    writeln!(f, "{line}").map_err(|e| format!("write {path}: {e}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let p = params(&opts);
    if opts.experiment == "diff" {
        return match run_diff(&opts) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => {
                eprintln!("probe accounting diverges between the two artifacts");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if matches!(
        opts.experiment.as_str(),
        "run" | "explain" | "sweep" | "report" | "bench-serve"
    ) {
        let result = match opts.experiment.as_str() {
            "run" => run_instrumented(&p, &opts),
            "sweep" => run_sweep(&p, &opts),
            "report" => run_report(&p, &opts),
            "bench-serve" => run_bench_serve(&opts),
            _ => run_explain(&p, &opts),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = if opts.json {
        Output::Json
    } else if opts.csv {
        Output::Csv
    } else {
        Output::Text
    };
    let mut manifest = RunManifest::new(env!("CARGO_PKG_VERSION"));
    manifest.label("experiment", &opts.experiment);
    manifest.label("scale", opts.scale);
    manifest.label("seed", p.seed);
    let result = manifest.time_phase(&opts.experiment.clone(), || {
        run_one(&opts.experiment, &p, out)
    });
    let result = result.and_then(|()| match &opts.metrics {
        Some(path) => write_experiment_manifest(path, &manifest),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
