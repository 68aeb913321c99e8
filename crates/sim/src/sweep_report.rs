//! Post-run utilization analysis of a traced sweep.
//!
//! Every sharded sweep records where its wall time went (see
//! [`simulate_many_traced_with_threads`](crate::runner::simulate_many_traced_with_threads)); [`SweepReport::from_trace`]
//! condenses that trace into the questions that matter before scaling the
//! runner further: how busy was each worker, how skewed were the shards,
//! which shard was on the critical path, and how much time was lost to
//! queue handling and the sequential merge.

use serde::{Deserialize, Serialize};
use seta_obs::{Log2Histogram, PhaseSpan, RunManifest, SpanTrace};

/// One worker's share of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerUtilization {
    /// The worker's span track (1-based; track 0 is the coordinator).
    pub track: u32,
    /// Shards the worker ran.
    pub shards: u64,
    /// Microseconds spent simulating shards.
    pub busy_micros: u64,
    /// Microseconds spent in queue handling between shards.
    pub queue_wait_micros: u64,
    /// The worker's total lifetime in microseconds.
    pub wall_micros: u64,
    /// `busy_micros / wall_micros` (0 when the worker recorded no time).
    pub busy_fraction: f64,
}

/// Utilization summary of one traced sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The sweep root span's duration in microseconds.
    pub wall_micros: u64,
    /// Per-worker utilization, by track.
    pub workers: Vec<WorkerUtilization>,
    /// Distribution of shard sizes in references.
    pub shard_refs: Log2Histogram,
    /// Distribution of shard wall times in microseconds.
    pub shard_wall_micros: Log2Histogram,
    /// The longest-running shard — the critical path of the fan-out — as
    /// `(span name, microseconds)`.
    pub critical_shard: Option<(String, u64)>,
    /// Total queue-wait microseconds across workers.
    pub queue_wait_micros: u64,
    /// Microseconds the sequential merge took on the coordinator.
    pub merge_micros: u64,
    /// Mean worker busy time over max worker busy time: 1.0 is a
    /// perfectly balanced sweep, lower means stragglers (0 when the
    /// sweep recorded no busy time).
    pub load_balance: f64,
}

impl SweepReport {
    /// Derives the report from a sweep's span trace (as produced by
    /// `simulate_many_traced_with_threads`; other traces yield an empty
    /// report).
    pub fn from_trace(trace: &SpanTrace) -> SweepReport {
        let wall_micros = trace.with_cat("sweep").map(|s| s.dur_us).max().unwrap_or(0);
        let merge_micros = trace.with_cat("merge").map(|s| s.dur_us).sum();

        let mut workers: Vec<WorkerUtilization> = trace
            .with_cat("worker")
            .map(|root| {
                let track = root.track;
                let on_track =
                    |cat: &'static str| trace.with_cat(cat).filter(move |s| s.track == track);
                let busy_micros: u64 = on_track("shard").map(|s| s.dur_us).sum();
                let queue_wait_micros: u64 = on_track("queue-wait").map(|s| s.dur_us).sum();
                WorkerUtilization {
                    track,
                    shards: on_track("shard").count() as u64,
                    busy_micros,
                    queue_wait_micros,
                    wall_micros: root.dur_us,
                    busy_fraction: if root.dur_us == 0 {
                        0.0
                    } else {
                        busy_micros as f64 / root.dur_us as f64
                    },
                }
            })
            .collect();
        workers.sort_by_key(|w| w.track);

        let mut shard_refs = Log2Histogram::new();
        let mut shard_wall_micros = Log2Histogram::new();
        let mut critical_shard: Option<(String, u64)> = None;
        for s in trace.with_cat("shard") {
            shard_refs.observe(s.counter("refs").unwrap_or(0));
            shard_wall_micros.observe(s.dur_us);
            let on_critical_path = match &critical_shard {
                None => true,
                Some((_, dur)) => s.dur_us > *dur,
            };
            if on_critical_path {
                critical_shard = Some((s.name.clone(), s.dur_us));
            }
        }

        let queue_wait_micros = workers.iter().map(|w| w.queue_wait_micros).sum();
        let max_busy = workers.iter().map(|w| w.busy_micros).max().unwrap_or(0);
        let load_balance = if max_busy == 0 || workers.is_empty() {
            0.0
        } else {
            let mean =
                workers.iter().map(|w| w.busy_micros).sum::<u64>() as f64 / workers.len() as f64;
            mean / max_busy as f64
        };

        SweepReport {
            wall_micros,
            workers,
            shard_refs,
            shard_wall_micros,
            critical_shard,
            queue_wait_micros,
            merge_micros,
            load_balance,
        }
    }

    /// Renders the report as a human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sweep: {} µs wall, merge {} µs, queue-wait {} µs, load balance {:.3}",
            self.wall_micros, self.merge_micros, self.queue_wait_micros, self.load_balance
        );
        let _ = writeln!(
            s,
            "  {:<10} {:>7} {:>12} {:>10} {:>10} {:>6}",
            "worker", "shards", "busy µs", "wait µs", "wall µs", "busy%"
        );
        for w in &self.workers {
            let _ = writeln!(
                s,
                "  {:<10} {:>7} {:>12} {:>10} {:>10} {:>5.1}%",
                format!("worker-{}", w.track),
                w.shards,
                w.busy_micros,
                w.queue_wait_micros,
                w.wall_micros,
                100.0 * w.busy_fraction
            );
        }
        if let Some((name, micros)) = &self.critical_shard {
            let _ = writeln!(s, "  critical shard: {name} ({micros} µs)");
        }
        let _ = writeln!(s, "  shard sizes (refs, log2 buckets):");
        for (i, count) in self.shard_refs.buckets.iter().enumerate() {
            if *count > 0 {
                let _ = writeln!(
                    s,
                    "    <= {:>10}: {count}",
                    Log2Histogram::bucket_upper_bound(i)
                );
            }
        }
        let _ = writeln!(s, "  shard wall (µs, log2 buckets):");
        for (i, count) in self.shard_wall_micros.buckets.iter().enumerate() {
            if *count > 0 {
                let _ = writeln!(
                    s,
                    "    <= {:>10}: {count}",
                    Log2Histogram::bucket_upper_bound(i)
                );
            }
        }
        s
    }

    /// Embeds the report into a [`RunManifest`]: summary numbers as
    /// labels, per-worker busy time as phases.
    pub fn annotate(&self, manifest: &mut RunManifest) {
        manifest.label("sweep_wall_micros", self.wall_micros);
        manifest.label("sweep_workers", self.workers.len());
        manifest.label("sweep_load_balance", format!("{:.4}", self.load_balance));
        manifest.label("sweep_queue_wait_micros", self.queue_wait_micros);
        manifest.label("sweep_merge_micros", self.merge_micros);
        if let Some((name, micros)) = &self.critical_shard {
            manifest.label("sweep_critical_shard", format!("{name} ({micros} µs)"));
        }
        for w in &self.workers {
            manifest.phases.push(PhaseSpan {
                name: format!("worker-{} busy", w.track),
                wall_micros: w.busy_micros,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate_many_traced_with_threads, RunSpec};
    use seta_cache::CacheConfig;
    use seta_obs::{SpanBuffer, SpanClock, SpanTrace};
    use seta_trace::gen::AtumLikeConfig;

    /// A deterministic synthetic sweep trace: two workers, three shards.
    fn synthetic_trace() -> SpanTrace {
        let clock = SpanClock::new();
        let mut trace = SpanTrace::new();
        let mut main = SpanBuffer::new(0, clock.clone());
        let sweep = main.open_at("sweep", "sweep", 0);
        let merge = main.open_at("merge", "merge", 90);
        main.close_at(merge, 100);
        main.close_at(sweep, 110);
        trace.name_track(0, "main");
        trace.absorb(main);

        let mut w1 = SpanBuffer::new(1, clock.clone());
        let root = w1.open_at("worker-1", "worker", 0);
        let a = w1.open_at("specs0-23 seg0..1", "shard", 0);
        w1.counter(a, "refs", 1000);
        w1.close_at(a, 60);
        let wait = w1.open_at("queue-wait", "queue-wait", 60);
        w1.close_at(wait, 80);
        w1.close_at(root, 80);
        trace.name_track(1, "worker-1");
        trace.absorb(w1);

        let mut w2 = SpanBuffer::new(2, clock);
        let root = w2.open_at("worker-2", "worker", 0);
        for (name, start, end, refs) in [
            ("specs0-23 seg1..2", 0u64, 20u64, 500u64),
            ("specs0-23 seg2..3", 20, 40, 500),
        ] {
            let s = w2.open_at(name, "shard", start);
            w2.counter(s, "refs", refs);
            w2.close_at(s, end);
        }
        let wait = w2.open_at("queue-wait", "queue-wait", 40);
        w2.close_at(wait, 80);
        w2.close_at(root, 80);
        trace.name_track(2, "worker-2");
        trace.absorb(w2);
        trace
    }

    #[test]
    fn report_derives_utilization_from_spans() {
        let r = SweepReport::from_trace(&synthetic_trace());
        assert_eq!(r.wall_micros, 110);
        assert_eq!(r.merge_micros, 10);
        assert_eq!(r.workers.len(), 2);
        let w1 = &r.workers[0];
        assert_eq!((w1.track, w1.shards, w1.busy_micros), (1, 1, 60));
        assert_eq!(w1.queue_wait_micros, 20);
        assert!((w1.busy_fraction - 0.75).abs() < 1e-12);
        let w2 = &r.workers[1];
        assert_eq!(
            (w2.shards, w2.busy_micros, w2.queue_wait_micros),
            (2, 40, 40)
        );
        assert_eq!(r.queue_wait_micros, 60);
        // Mean busy (50) over max busy (60).
        assert!((r.load_balance - 50.0 / 60.0).abs() < 1e-12);
        assert_eq!(r.critical_shard, Some(("specs0-23 seg0..1".to_owned(), 60)));
        assert_eq!(r.shard_refs.count, 3);
        assert_eq!(r.shard_refs.sum, 2000);
        assert_eq!(r.shard_wall_micros.count, 3);
    }

    #[test]
    fn report_from_empty_trace_is_all_zeros() {
        let r = SweepReport::from_trace(&SpanTrace::new());
        assert_eq!(r.wall_micros, 0);
        assert!(r.workers.is_empty());
        assert_eq!(r.load_balance, 0.0);
        assert_eq!(r.critical_shard, None);
        assert!(r.render().contains("sweep: 0 µs"));
    }

    #[test]
    fn render_and_annotate_carry_the_numbers() {
        let r = SweepReport::from_trace(&synthetic_trace());
        let text = r.render();
        assert!(text.contains("worker-1"), "{text}");
        assert!(text.contains("critical shard: specs0-23 seg0..1"), "{text}");
        assert!(text.contains("load balance 0.833"), "{text}");
        let mut manifest = RunManifest::new("0.0.0");
        r.annotate(&mut manifest);
        assert_eq!(manifest.label_value("sweep_workers"), Some("2"));
        assert_eq!(manifest.label_value("sweep_wall_micros"), Some("110"));
        assert!(manifest
            .phases
            .iter()
            .any(|p| p.name == "worker-2 busy" && p.wall_micros == 40));
    }

    #[test]
    fn report_from_a_real_traced_sweep_accounts_for_every_shard() {
        let spec = |assoc| RunSpec {
            l1: CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
            l2: CacheConfig::new(32 * 1024, 32, assoc).unwrap(),
            trace: {
                let mut c = AtumLikeConfig::paper_like();
                c.segments = 5;
                c.refs_per_segment = 2_000;
                c
            },
            seed: 3,
            tag_bits: 16,
        };
        let (outcomes, trace) = simulate_many_traced_with_threads(&[spec(4), spec(8)], 2);
        let r = SweepReport::from_trace(&trace);
        assert_eq!(r.workers.len(), 2);
        let shards: u64 = r.workers.iter().map(|w| w.shards).sum();
        assert_eq!(
            shards, 5,
            "every cold segment of the shared trace became a shard"
        );
        assert_eq!(r.shard_refs.count, 5);
        let refs: u64 = outcomes.iter().map(|o| o.hierarchy.processor_refs).sum();
        assert_eq!(r.shard_refs.sum, refs);
        let (name, _) = r.critical_shard.as_ref().expect("a shard ran");
        assert!(name.starts_with("specs0-1 seg"), "{name}");
        assert!(r.load_balance > 0.0 && r.load_balance <= 1.0);
        assert!(r.wall_micros > 0);
        for w in &r.workers {
            assert!(w.busy_fraction >= 0.0 && w.busy_fraction <= 1.0);
        }
    }
}
