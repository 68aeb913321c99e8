//! `seta-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! seta-perfbench --workload <trace_replay|sweep_table4|serve_shared>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's end-to-end path for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! measures every layer instead and prints the reconciliation ledger. The
//! last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py`
//! builds this binary and adds host provenance; see `README.md` beside it.

mod layers;
mod report;
mod workloads;

use report::{median, peak_rss_mb, result_line, Checks, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{measure, Kind, Workload, SETUP_REPEATS};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    Ok(Args {
        kind: kind.ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seta-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous inputs first so peak memory is one set's.
        drop(workload.take());
        let t = Instant::now();
        let w = Workload::setup(args.kind, args.seed, nproc);
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
        if args.traced {
            break;
        }
    }
    let w = workload.expect("set up at least once");

    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let reference = w.reference();
    w.check_inputs(&reference, &mut checks);
    let (passes, latency_samples) = if args.traced {
        layers::run(
            &w,
            &reference,
            args.seconds,
            nproc,
            &mut checks,
            &mut metrics,
        );
        (0, 0)
    } else {
        let info = measure(&w, &reference, args.seconds, &mut checks, &mut metrics);
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
        (info.passes, info.latency_samples)
    };

    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"seconds\": {}, \"nproc\": {}, \"threads\": {}, \"geometries\": {}, \"refs_per_pass\": {}, \"passes\": {}, \"latency_samples\": {}, \"setup_repeats\": {}, \"failed_frac\": {}}}}}",
        w.kind.name(),
        w.seed,
        args.traced,
        args.seconds,
        nproc,
        w.threads,
        w.geometries.len(),
        w.refs_per_pass(),
        passes,
        latency_samples,
        setup_s.len(),
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
