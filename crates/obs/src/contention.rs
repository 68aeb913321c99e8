//! Per-stripe lock/latency attribution for striped concurrent caches.
//!
//! "Limited Associativity Makes Concurrent Software Caches a Breeze"
//! argues that set-local operations behind striped locks should keep
//! contention near zero — but the serve benchmarks previously reported
//! only end-to-end p50/p99, so a scaling collapse could not be
//! *attributed* (lock wait vs in-critical-section
//! probe work vs measurement overhead). This module holds the data model
//! that instrumentation threads through the stack:
//!
//! * [`StripeStats`] — per-stripe acquisitions, wait/hold log2
//!   histograms, accesses/hits and final occupancy;
//! * [`ContentionObserver`] — the monomorphized no-op-by-default hook
//!   (same zero-cost pattern as `seta_core::ProbeObserver`): with
//!   [`NoContention`] the cache's request path compiles to exactly the
//!   un-instrumented code, clock reads included;
//! * [`StripeContention`] — the collecting observer, one per client
//!   thread, merged losslessly after a run;
//! * [`PhasedLatencyRecorder`] — decomposes each sampled request into
//!   wait / service / overhead components, so tail percentiles can be
//!   split per phase;
//! * [`StripeArtifactRow`] / [`SummaryArtifactRow`] — the typed rows
//!   behind the `bench-serve --contention-out` JSONL artifact.

use crate::registry::Log2Histogram;
use serde::{Deserialize, Serialize};

/// Everything one lock stripe accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeStats {
    /// Stripe index within the cache.
    pub stripe: usize,
    /// Lock acquisitions (one per request routed to this stripe).
    pub acquisitions: u64,
    /// Nanoseconds spent waiting for the stripe lock, log2-bucketed.
    pub wait_ns: Log2Histogram,
    /// Nanoseconds the lock was held (the critical section), log2-bucketed.
    pub hold_ns: Log2Histogram,
    /// Shared-cache accesses this stripe served.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Valid blocks resident in this stripe's sets (filled after the
    /// run from the cache itself; zero while collecting).
    pub occupancy: u64,
}

impl StripeStats {
    /// An empty record for stripe `stripe`.
    pub fn new(stripe: usize) -> Self {
        StripeStats {
            stripe,
            ..StripeStats::default()
        }
    }

    /// Folds another stripe's tallies into this one (same stripe index
    /// observed from a different thread).
    pub fn merge(&mut self, other: &StripeStats) {
        debug_assert_eq!(self.stripe, other.stripe, "merging different stripes");
        self.acquisitions += other.acquisitions;
        self.wait_ns.merge(&other.wait_ns);
        self.hold_ns.merge(&other.hold_ns);
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.occupancy += other.occupancy;
    }
}

/// Hook invoked by the concurrent cache once per request, after the
/// stripe lock is released. `ENABLED = false` implementations compile
/// the instrumentation — including both clock reads — out of the request
/// path entirely; the observer only ever changes what is *measured*,
/// never what the cache does, so contents, statistics and probe counts
/// are bit-identical with any observer.
pub trait ContentionObserver {
    /// Whether the cache should read the clock for this observer. The
    /// hot path branches on this associated constant, so the disabled
    /// case monomorphizes to the un-instrumented code.
    const ENABLED: bool;

    /// One request completed against `stripe`: it waited `wait_ns` for
    /// the lock, held it for `hold_ns`, and hit or missed.
    fn on_request(&mut self, stripe: usize, wait_ns: u64, hold_ns: u64, hit: bool) {
        let _ = (stripe, wait_ns, hold_ns, hit);
    }

    /// Lock-wait component of the most recent request, nanoseconds.
    fn last_wait_ns(&self) -> u64 {
        0
    }

    /// Lock-hold (service) component of the most recent request.
    fn last_hold_ns(&self) -> u64 {
        0
    }
}

/// The default observer: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoContention;

impl ContentionObserver for NoContention {
    const ENABLED: bool = false;
}

/// The collecting observer: one per client thread, holding a
/// [`StripeStats`] per stripe plus the most recent request's phase
/// components (so the caller can feed a [`PhasedLatencyRecorder`]
/// without re-measuring).
#[derive(Debug, Clone)]
pub struct StripeContention {
    stripes: Vec<StripeStats>,
    last_wait_ns: u64,
    last_hold_ns: u64,
}

impl StripeContention {
    /// A collector for a cache with `num_stripes` lock stripes.
    pub fn new(num_stripes: usize) -> Self {
        StripeContention {
            stripes: (0..num_stripes).map(StripeStats::new).collect(),
            last_wait_ns: 0,
            last_hold_ns: 0,
        }
    }

    /// Per-stripe tallies, indexed by stripe.
    pub fn stripes(&self) -> &[StripeStats] {
        &self.stripes
    }

    /// Mutable access, for filling post-run fields like occupancy.
    pub fn stripes_mut(&mut self) -> &mut [StripeStats] {
        &mut self.stripes
    }

    /// Folds another collector (same stripe count) into this one.
    pub fn merge(&mut self, other: &StripeContention) {
        assert_eq!(
            self.stripes.len(),
            other.stripes.len(),
            "stripe count mismatch"
        );
        for (a, b) in self.stripes.iter_mut().zip(&other.stripes) {
            a.merge(b);
        }
    }

    /// Total accesses across stripes — must equal the cache's own
    /// access count (the reconciliation CI asserts).
    pub fn total_accesses(&self) -> u64 {
        self.stripes.iter().map(|s| s.accesses).sum()
    }

    /// Total hits across stripes.
    pub fn total_hits(&self) -> u64 {
        self.stripes.iter().map(|s| s.hits).sum()
    }

    /// Total lock acquisitions across stripes.
    pub fn total_acquisitions(&self) -> u64 {
        self.stripes.iter().map(|s| s.acquisitions).sum()
    }

    /// Mean lock-wait nanoseconds across every request (exact: the log2
    /// histograms keep exact counts and sums).
    pub fn mean_wait_ns(&self) -> f64 {
        let count: u64 = self.stripes.iter().map(|s| s.wait_ns.count).sum();
        let sum: u64 = self.stripes.iter().map(|s| s.wait_ns.sum).sum();
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Mean lock-hold nanoseconds across every request.
    pub fn mean_hold_ns(&self) -> f64 {
        let count: u64 = self.stripes.iter().map(|s| s.hold_ns.count).sum();
        let sum: u64 = self.stripes.iter().map(|s| s.hold_ns.sum).sum();
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

impl ContentionObserver for StripeContention {
    const ENABLED: bool = true;

    fn on_request(&mut self, stripe: usize, wait_ns: u64, hold_ns: u64, hit: bool) {
        let s = &mut self.stripes[stripe];
        s.acquisitions += 1;
        s.accesses += 1;
        s.hits += u64::from(hit);
        s.wait_ns.observe(wait_ns);
        s.hold_ns.observe(hold_ns);
        self.last_wait_ns = wait_ns;
        self.last_hold_ns = hold_ns;
    }

    fn last_wait_ns(&self) -> u64 {
        self.last_wait_ns
    }

    fn last_hold_ns(&self) -> u64 {
        self.last_hold_ns
    }
}

/// One sampled request decomposed into phases. `total_ns` is the
/// end-to-end client-observed latency; `wait_ns` the lock wait and
/// `service_ns` the critical section inside it. Both sub-intervals nest
/// inside the end-to-end interval, so `wait + service <= total` for
/// every sample (the contention property tests pin this), and the
/// remainder is attributable measurement/queueing overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasedSample {
    /// End-to-end request latency, nanoseconds.
    pub total_ns: u64,
    /// Time spent waiting for the stripe lock.
    pub wait_ns: u64,
    /// Time spent holding the stripe lock (probe + fill work).
    pub service_ns: u64,
}

impl PhasedSample {
    /// Latency not attributable to lock wait or service: call overhead,
    /// clock quantization, scheduler preemption outside the lock.
    pub fn overhead_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.wait_ns + self.service_ns)
    }
}

/// A latency recorder whose samples carry the wait/service split.
///
/// Mirrors [`LatencyRecorder`](crate::LatencyRecorder)'s deterministic
/// 1-in-`every` sampling and lossless [`merge`](Self::merge); retention
/// is capped the same way (evenly spaced order statistics by total
/// latency once over the cap, extremes preserved).
#[derive(Debug, Clone)]
pub struct PhasedLatencyRecorder {
    every: u64,
    seen: u64,
    samples: Vec<PhasedSample>,
    max_samples: usize,
}

impl PhasedLatencyRecorder {
    /// A recorder sampling one in `every` observations, retaining at
    /// most [`DEFAULT_MAX_SAMPLES`](crate::latency::DEFAULT_MAX_SAMPLES).
    pub fn new(every: u64) -> Self {
        Self::with_max_samples(every, crate::latency::DEFAULT_MAX_SAMPLES)
    }

    /// A recorder with an explicit retention cap.
    pub fn with_max_samples(every: u64, max_samples: usize) -> Self {
        PhasedLatencyRecorder {
            every: every.max(1),
            seen: 0,
            samples: Vec::new(),
            max_samples: max_samples.max(1),
        }
    }

    /// Advances the sampling counter; same cadence contract as
    /// [`LatencyRecorder::should_sample`](crate::LatencyRecorder::should_sample).
    pub fn should_sample(&mut self) -> bool {
        let sample = self.seen % self.every == 0;
        self.seen += 1;
        sample
    }

    /// Records one decomposed sample.
    pub fn record(&mut self, sample: PhasedSample) {
        self.samples.push(sample);
        self.recap();
    }

    /// Folds another recorder in; lossless while within the cap.
    pub fn merge(&mut self, other: &PhasedLatencyRecorder) {
        self.seen += other.seen;
        self.samples.extend_from_slice(&other.samples);
        self.recap();
    }

    fn recap(&mut self) {
        if self.samples.len() <= self.max_samples {
            return;
        }
        self.samples.sort_unstable_by_key(|s| s.total_ns);
        let n = self.samples.len();
        let keep = self.max_samples;
        self.samples = (0..keep)
            .map(|i| {
                let rank = if keep == 1 {
                    0
                } else {
                    i * (n - 1) / (keep - 1)
                };
                self.samples[rank]
            })
            .collect();
    }

    /// Retained samples, in unspecified order.
    pub fn samples(&self) -> &[PhasedSample] {
        &self.samples
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total observations counted (sampled or not); exact.
    pub fn observed(&self) -> u64 {
        self.seen
    }

    fn percentile_of(&self, p: f64, component: impl Fn(&PhasedSample) -> u64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut values: Vec<u64> = self.samples.iter().map(component).collect();
        values.sort_unstable();
        let n = values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(values[rank.clamp(1, n) - 1])
    }

    /// Nearest-rank percentile of end-to-end latency.
    pub fn total_percentile_ns(&self, p: f64) -> Option<u64> {
        self.percentile_of(p, |s| s.total_ns)
    }

    /// Nearest-rank percentile of the lock-wait component.
    pub fn wait_percentile_ns(&self, p: f64) -> Option<u64> {
        self.percentile_of(p, |s| s.wait_ns)
    }

    /// Nearest-rank percentile of the service (lock-hold) component.
    pub fn service_percentile_ns(&self, p: f64) -> Option<u64> {
        self.percentile_of(p, |s| s.service_ns)
    }

    /// Nearest-rank percentile of the unattributed overhead component.
    pub fn overhead_percentile_ns(&self, p: f64) -> Option<u64> {
        self.percentile_of(p, |s| s.overhead_ns())
    }
}

/// The merged result of a contention-instrumented replay: per-stripe
/// tallies plus the phase-decomposed latency samples.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Per-stripe tallies, merged across client threads, with
    /// `occupancy` filled from the cache after the run.
    pub stripes: Vec<StripeStats>,
    /// Phase-decomposed latency samples, merged across client threads.
    pub phases: PhasedLatencyRecorder,
}

impl ContentionReport {
    /// Sum of per-stripe accesses (must reconcile with the run total).
    pub fn total_accesses(&self) -> u64 {
        self.stripes.iter().map(|s| s.accesses).sum()
    }

    /// Sum of per-stripe hits.
    pub fn total_hits(&self) -> u64 {
        self.stripes.iter().map(|s| s.hits).sum()
    }

    /// Mean lock-wait nanoseconds over every request.
    pub fn mean_wait_ns(&self) -> f64 {
        let count: u64 = self.stripes.iter().map(|s| s.wait_ns.count).sum();
        let sum: u64 = self.stripes.iter().map(|s| s.wait_ns.sum).sum();
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Mean lock-hold nanoseconds over every request.
    pub fn mean_hold_ns(&self) -> f64 {
        let count: u64 = self.stripes.iter().map(|s| s.hold_ns.count).sum();
        let sum: u64 = self.stripes.iter().map(|s| s.hold_ns.sum).sum();
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// The JSONL stripe rows for this report at `threads` clients.
    pub fn stripe_rows(&self, threads: usize) -> Vec<StripeArtifactRow> {
        self.stripes
            .iter()
            .map(|s| StripeArtifactRow {
                kind: "stripe".to_string(),
                threads,
                stripe: s.stripe,
                acquisitions: s.acquisitions,
                accesses: s.accesses,
                hits: s.hits,
                occupancy: s.occupancy,
                wait_ns: s.wait_ns.clone(),
                hold_ns: s.hold_ns.clone(),
            })
            .collect()
    }

    /// The JSONL summary row for this report at `threads` clients.
    pub fn summary_row(&self, threads: usize, requests: u64) -> SummaryArtifactRow {
        SummaryArtifactRow {
            kind: "summary".to_string(),
            threads,
            requests,
            samples: self.phases.len() as u64,
            total_p99_ns: self.phases.total_percentile_ns(99.0).unwrap_or(0),
            wait_p99_ns: self.phases.wait_percentile_ns(99.0).unwrap_or(0),
            service_p99_ns: self.phases.service_percentile_ns(99.0).unwrap_or(0),
            wait_ns_mean: self.mean_wait_ns(),
            hold_ns_mean: self.mean_hold_ns(),
        }
    }
}

/// One `kind:"stripe"` line of the `--contention-out` JSONL artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeArtifactRow {
    /// Always `"stripe"`.
    pub kind: String,
    /// Client threads in the run this row describes.
    pub threads: usize,
    /// Stripe index.
    pub stripe: usize,
    /// Lock acquisitions.
    pub acquisitions: u64,
    /// Accesses served.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Final resident blocks in this stripe's sets.
    pub occupancy: u64,
    /// Lock-wait nanoseconds, log2-bucketed (exact count and sum).
    pub wait_ns: Log2Histogram,
    /// Lock-hold nanoseconds, log2-bucketed.
    pub hold_ns: Log2Histogram,
}

/// One `kind:"summary"` line of the `--contention-out` JSONL artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryArtifactRow {
    /// Always `"summary"`.
    pub kind: String,
    /// Client threads in the run this row describes.
    pub threads: usize,
    /// Requests issued to the shared cache.
    pub requests: u64,
    /// Phase-decomposed samples retained.
    pub samples: u64,
    /// p99 of end-to-end sampled latency.
    pub total_p99_ns: u64,
    /// p99 of the lock-wait component.
    pub wait_p99_ns: u64,
    /// p99 of the service component.
    pub service_p99_ns: u64,
    /// Mean lock wait over every request (not just sampled ones).
    pub wait_ns_mean: f64,
    /// Mean lock hold over every request.
    pub hold_ns_mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flags are compile-time facts; pin them as constants so
    // a change fails the build, not just a test.
    const _: () = assert!(!NoContention::ENABLED);
    const _: () = assert!(StripeContention::ENABLED);

    #[test]
    fn no_contention_is_disabled_and_inert() {
        let mut obs = NoContention;
        obs.on_request(3, 100, 200, true);
        assert_eq!(obs.last_wait_ns(), 0);
        assert_eq!(obs.last_hold_ns(), 0);
    }

    #[test]
    fn stripe_contention_tallies_per_stripe() {
        let mut obs = StripeContention::new(4);
        obs.on_request(0, 10, 100, true);
        obs.on_request(0, 20, 200, false);
        obs.on_request(3, 5, 50, true);
        assert_eq!(obs.total_accesses(), 3);
        assert_eq!(obs.total_hits(), 2);
        assert_eq!(obs.total_acquisitions(), 3);
        assert_eq!(obs.stripes()[0].accesses, 2);
        assert_eq!(obs.stripes()[0].wait_ns.sum, 30);
        assert_eq!(obs.stripes()[0].hold_ns.count, 2);
        assert_eq!(obs.stripes()[3].hits, 1);
        assert_eq!(obs.stripes()[1].accesses, 0);
        assert_eq!(obs.last_wait_ns(), 5);
        assert_eq!(obs.last_hold_ns(), 50);
        assert!((obs.mean_wait_ns() - 35.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stripe_contention_merge_is_lossless() {
        let mut a = StripeContention::new(2);
        let mut b = StripeContention::new(2);
        a.on_request(0, 10, 1, true);
        b.on_request(0, 30, 3, false);
        b.on_request(1, 7, 2, true);
        a.merge(&b);
        assert_eq!(a.total_accesses(), 3);
        assert_eq!(a.stripes()[0].wait_ns.sum, 40);
        assert_eq!(a.stripes()[0].wait_ns.count, 2);
        assert_eq!(a.stripes()[1].acquisitions, 1);
    }

    #[test]
    fn phased_sample_overhead_saturates() {
        let s = PhasedSample {
            total_ns: 100,
            wait_ns: 30,
            service_ns: 50,
        };
        assert_eq!(s.overhead_ns(), 20);
        let clamped = PhasedSample {
            total_ns: 10,
            wait_ns: 30,
            service_ns: 50,
        };
        assert_eq!(clamped.overhead_ns(), 0, "never underflows");
    }

    #[test]
    fn phased_recorder_percentiles_split_by_component() {
        let mut r = PhasedLatencyRecorder::new(1);
        for (t, w, s) in [(100u64, 10u64, 60u64), (200, 150, 40), (300, 20, 250)] {
            r.record(PhasedSample {
                total_ns: t,
                wait_ns: w,
                service_ns: s,
            });
        }
        assert_eq!(r.total_percentile_ns(50.0), Some(200));
        assert_eq!(r.wait_percentile_ns(99.0), Some(150));
        assert_eq!(r.service_percentile_ns(50.0), Some(60));
        assert_eq!(r.overhead_percentile_ns(99.0), Some(30));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn phased_recorder_merge_and_cap() {
        let mut a = PhasedLatencyRecorder::with_max_samples(1, 8);
        let mut b = PhasedLatencyRecorder::with_max_samples(1, 8);
        for i in 0..8u64 {
            a.should_sample();
            a.record(PhasedSample {
                total_ns: i + 1,
                wait_ns: 0,
                service_ns: i + 1,
            });
            b.should_sample();
            b.record(PhasedSample {
                total_ns: 1000 + i,
                wait_ns: 900,
                service_ns: 100,
            });
        }
        a.merge(&b);
        assert_eq!(a.len(), 8, "merge re-caps");
        assert_eq!(a.observed(), 16, "observed stays exact");
        assert_eq!(a.total_percentile_ns(1.0), Some(1), "min survives");
        assert_eq!(a.total_percentile_ns(100.0), Some(1007), "max survives");
    }

    #[test]
    fn phased_recorder_sampling_cadence_matches_latency_recorder() {
        let mut r = PhasedLatencyRecorder::new(4);
        let sampled: Vec<bool> = (0..9).map(|_| r.should_sample()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, false, true, false, false, false, true]
        );
        assert_eq!(r.observed(), 9);
    }

    #[test]
    fn artifact_rows_round_trip_through_json() {
        let mut obs = StripeContention::new(2);
        obs.on_request(0, 10, 100, true);
        obs.on_request(1, 20, 200, false);
        let mut phases = PhasedLatencyRecorder::new(1);
        phases.should_sample();
        phases.record(PhasedSample {
            total_ns: 150,
            wait_ns: 10,
            service_ns: 100,
        });
        let report = ContentionReport {
            stripes: obs.stripes().to_vec(),
            phases,
        };
        for row in report.stripe_rows(4) {
            let json = serde_json::to_string(&row).unwrap();
            let back: StripeArtifactRow = serde_json::from_str(&json).unwrap();
            assert_eq!(back, row);
        }
        let summary = report.summary_row(4, 2);
        let json = serde_json::to_string(&summary).unwrap();
        let back: SummaryArtifactRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.kind, "summary");
        assert_eq!(back.wait_p99_ns, 10);
    }

    #[test]
    fn report_reconciles_totals() {
        let mut obs = StripeContention::new(4);
        for i in 0..100usize {
            obs.on_request(i % 4, 1, 2, i % 3 == 0);
        }
        let report = ContentionReport {
            stripes: obs.stripes().to_vec(),
            phases: PhasedLatencyRecorder::new(1),
        };
        assert_eq!(report.total_accesses(), 100);
        assert_eq!(report.total_hits(), 34);
        assert!((report.mean_wait_ns() - 1.0).abs() < 1e-12);
        assert!((report.mean_hold_ns() - 2.0).abs() < 1e-12);
    }
}
