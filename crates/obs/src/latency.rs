//! Sampled request-latency recording with exact percentiles.
//!
//! The serve load generator times a deterministic 1-in-`every` sample of
//! requests rather than every request, so the act of measuring does not
//! dominate sub-microsecond lock-and-probe operations. Samples are kept
//! raw (no histogram buckets); percentiles are exact nearest-rank order
//! statistics over the retained samples, and per-thread recorders
//! [`merge`](LatencyRecorder::merge) losslessly while both sides fit the
//! retention cap.
//!
//! Two costs are bounded explicitly:
//!
//! * percentile queries sort the retained samples **once** and reuse the
//!   sorted order until the next mutation (a dirty flag), instead of
//!   cloning and re-sorting per call;
//! * retention is capped at [`max_samples`](LatencyRecorder::max_samples)
//!   via deterministic reservoir sampling (Algorithm R with a fixed-seed
//!   xorshift generator), so arbitrarily long `--repeat` runs hold memory
//!   constant. [`observed`](LatencyRecorder::observed) stays exact
//!   regardless of what the reservoir evicts.

/// Default retention cap: plenty for exact percentiles at bench scale
/// (a serve replay of the bundled trace retains a few thousand samples) while
/// bounding a pathological `--sample-every 1 --repeat 100000` run.
pub const DEFAULT_MAX_SAMPLES: usize = 1 << 16;

/// Records a deterministic sample of observed latencies, in nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    every: u64,
    seen: u64,
    /// Count of `record` calls (reservoir population size), which can
    /// exceed `samples_ns.len()` once the cap kicks in.
    recorded: u64,
    samples_ns: Vec<u64>,
    /// Whether `samples_ns` is currently sorted ascending.
    sorted: bool,
    max_samples: usize,
    /// xorshift64 state for reservoir eviction; fixed seed keeps runs
    /// reproducible.
    rng: u64,
}

impl LatencyRecorder {
    /// A recorder sampling one in `every` observations (`every = 1` times
    /// everything). `every = 0` is treated as 1. Retains at most
    /// [`DEFAULT_MAX_SAMPLES`] samples.
    pub fn new(every: u64) -> Self {
        Self::with_max_samples(every, DEFAULT_MAX_SAMPLES)
    }

    /// A recorder with an explicit retention cap (`max_samples = 0` is
    /// treated as 1).
    pub fn with_max_samples(every: u64, max_samples: usize) -> Self {
        LatencyRecorder {
            every: every.max(1),
            seen: 0,
            recorded: 0,
            samples_ns: Vec::new(),
            sorted: true,
            max_samples: max_samples.max(1),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Advances the sampling counter; returns whether the caller should
    /// time this observation and [`record`](Self::record) it. The first
    /// observation is always sampled, then every `every`-th after that.
    pub fn should_sample(&mut self) -> bool {
        let sample = self.seen % self.every == 0;
        self.seen += 1;
        sample
    }

    /// Records one sampled latency. Once `max_samples` values are
    /// retained, each further value replaces a uniformly random retained
    /// one with probability `max_samples / recorded` (Algorithm R), so
    /// the reservoir stays an unbiased sample of everything recorded.
    pub fn record(&mut self, ns: u64) {
        self.recorded += 1;
        if self.samples_ns.len() < self.max_samples {
            self.samples_ns.push(ns);
            self.sorted = self.samples_ns.len() <= 1;
            return;
        }
        let slot = self.next_u64() % self.recorded;
        if (slot as usize) < self.max_samples {
            self.samples_ns[slot as usize] = ns;
            self.sorted = false;
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Folds another recorder's samples into this one. Lossless while
    /// the combined retained count fits this recorder's cap; beyond
    /// that, evenly spaced order statistics of the merged sorted set are
    /// kept so percentile queries stay representative.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.seen += other.seen;
        self.recorded += other.recorded;
        self.samples_ns.extend_from_slice(&other.samples_ns);
        self.sorted = self.samples_ns.len() <= 1;
        if self.samples_ns.len() > self.max_samples {
            self.samples_ns.sort_unstable();
            let n = self.samples_ns.len();
            let keep = self.max_samples;
            let thinned: Vec<u64> = (0..keep)
                .map(|i| {
                    // Evenly spaced ranks, endpoints included, so min and
                    // max (hence p100) survive thinning.
                    let rank = if keep == 1 {
                        0
                    } else {
                        i * (n - 1) / (keep - 1)
                    };
                    self.samples_ns[rank]
                })
                .collect();
            self.samples_ns = thinned;
            self.sorted = true;
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// Whether no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Total observations counted (sampled or not). Exact even after
    /// the reservoir cap starts evicting.
    pub fn observed(&self) -> u64 {
        self.seen
    }

    /// Total values passed to [`record`](Self::record), retained or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retention cap.
    pub fn max_samples(&self) -> usize {
        self.max_samples
    }

    /// The retained samples, in unspecified order.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    fn sorted_samples(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        &self.samples_ns
    }

    /// The exact nearest-rank `p`-th percentile (`0 < p <= 100`) of the
    /// retained samples, or `None` when empty. Sorts at most once per
    /// batch of mutations; repeated queries are O(1) lookups.
    pub fn percentile_ns(&mut self, p: f64) -> Option<u64> {
        if self.samples_ns.is_empty() {
            return None;
        }
        let sorted = self.sorted_samples();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, n) - 1])
    }

    /// Convenience pair `(p50, p99)`, both `None` when empty.
    pub fn p50_p99_ns(&mut self) -> (Option<u64>, Option<u64>) {
        (self.percentile_ns(50.0), self.percentile_ns(99.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_one_in_every() {
        let mut r = LatencyRecorder::new(4);
        let sampled: Vec<bool> = (0..9).map(|_| r.should_sample()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, false, true, false, false, false, true]
        );
        assert_eq!(r.observed(), 9);
    }

    #[test]
    fn zero_every_means_every() {
        let mut r = LatencyRecorder::new(0);
        assert!(r.should_sample());
        assert!(r.should_sample());
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let mut r = LatencyRecorder::new(1);
        for ns in [50u64, 10, 40, 20, 30] {
            r.record(ns);
        }
        assert_eq!(r.percentile_ns(50.0), Some(30), "rank ceil(2.5)=3 -> 30");
        assert_eq!(r.percentile_ns(99.0), Some(50));
        assert_eq!(r.percentile_ns(100.0), Some(50));
        assert_eq!(r.percentile_ns(1.0), Some(10));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn percentiles_stay_correct_across_interleaved_mutation() {
        // The sorted cache must invalidate on every mutation path.
        let mut r = LatencyRecorder::new(1);
        r.record(30);
        r.record(10);
        assert_eq!(r.percentile_ns(100.0), Some(30));
        r.record(40);
        assert_eq!(r.percentile_ns(100.0), Some(40), "record after sort");
        let mut other = LatencyRecorder::new(1);
        other.record(99);
        r.merge(&other);
        assert_eq!(r.percentile_ns(100.0), Some(99), "merge after sort");
        assert_eq!(r.percentile_ns(1.0), Some(10));
    }

    #[test]
    fn empty_recorder_has_no_percentiles() {
        let mut r = LatencyRecorder::new(8);
        assert!(r.is_empty());
        assert_eq!(r.p50_p99_ns(), (None, None));
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = LatencyRecorder::new(1);
        let mut b = LatencyRecorder::new(1);
        a.record(1);
        a.should_sample();
        b.record(100);
        b.should_sample();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.observed(), 2);
        assert_eq!(a.percentile_ns(99.0), Some(100));
    }

    #[test]
    fn reservoir_caps_retention_and_keeps_observed_exact() {
        let mut r = LatencyRecorder::with_max_samples(1, 64);
        for i in 0..10_000u64 {
            assert!(r.should_sample());
            r.record(i);
        }
        assert_eq!(r.len(), 64, "retention is capped");
        assert_eq!(r.observed(), 10_000, "observation count stays exact");
        assert_eq!(r.recorded(), 10_000);
        // Every retained value is a genuinely recorded value.
        assert!(r.samples_ns().iter().all(|&v| v < 10_000));
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut r = LatencyRecorder::with_max_samples(1, 32);
            for i in 0..1000u64 {
                r.record(i * 7 % 501);
            }
            r.samples_ns().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capped_merge_keeps_extremes() {
        let mut a = LatencyRecorder::with_max_samples(1, 16);
        let mut b = LatencyRecorder::with_max_samples(1, 16);
        for i in 0..16u64 {
            a.record(i + 1);
            b.record(1000 + i);
        }
        a.merge(&b);
        assert_eq!(a.len(), 16, "merge re-caps");
        assert_eq!(a.recorded(), 32);
        assert_eq!(a.percentile_ns(1.0), Some(1), "min survives thinning");
        assert_eq!(a.percentile_ns(100.0), Some(1015), "max survives thinning");
    }
}
