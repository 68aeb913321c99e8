//! The metrics registry: counters, gauges and log2 histograms.

use serde::{Deserialize, Serialize};

/// Handle to a counter in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a gauge in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// Handle to a histogram in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// A histogram with power-of-two buckets: bucket `i` counts observations
/// `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts `v <= 1`, so zero and
/// one land there). Probe counts, MRU distances and span microseconds all
/// have long-tailed distributions for which log2 resolution is enough and
/// the bucket count stays tiny.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Histogram {
    /// Per-bucket observation counts; index = ceil(log2(max(v, 1))).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        // ceil(log2(v)) for v >= 1; 0 and 1 share bucket 0.
        (u64::BITS - value.saturating_sub(1).leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Folds another histogram into this one, bucket by bucket. Exact:
    /// counts and sums add, so the merged mean is the population mean.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observed value; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of bucket `i` (inclusive): `2^i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        1u64 << i.min(63)
    }
}

/// Named counters, gauges and histograms for one run.
///
/// Registration is by name and idempotent — registering the same name
/// twice returns the same handle, so independent phases can share series.
/// The mutation paths take a pre-registered handle and cost an array
/// index; names are only walked at registration and export time.
///
/// # Example
///
/// ```
/// use seta_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// let refs = m.counter("refs_total");
/// m.inc(refs, 3);
/// assert_eq!(m.counter_value(refs), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Log2Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter.
    pub fn counter(&mut self, name: &str) -> CounterHandle {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterHandle(i);
        }
        self.counters.push((name.to_owned(), 0));
        CounterHandle(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeHandle {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeHandle(i);
        }
        self.gauges.push((name.to_owned(), 0.0));
        GaugeHandle(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram.
    pub fn histogram(&mut self, name: &str) -> HistogramHandle {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramHandle(i);
        }
        self.histograms
            .push((name.to_owned(), Log2Histogram::new()));
        HistogramHandle(self.histograms.len() - 1)
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn inc(&mut self, h: CounterHandle, by: u64) {
        self.counters[h.0].1 += by;
    }

    /// Overwrites a counter with an externally-accumulated total.
    ///
    /// Counters are normally monotone through [`inc`](Self::inc); this is
    /// for totals the simulator already tracks elsewhere (e.g. the final
    /// reconciliation against a `RunOutcome`).
    pub fn set_counter(&mut self, h: CounterHandle, value: u64) {
        self.counters[h.0].1 = value;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, h: GaugeHandle, value: f64) {
        self.gauges[h.0].1 = value;
    }

    /// Replaces a histogram wholesale (for publishing histograms
    /// accumulated outside the registry, like per-stripe lock waits).
    pub fn set_histogram(&mut self, h: HistogramHandle, value: Log2Histogram) {
        self.histograms[h.0].1 = value;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, h: HistogramHandle, value: u64) {
        self.histograms[h.0].1.observe(value);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, h: CounterHandle) -> u64 {
        self.counters[h.0].1
    }

    /// The histogram behind a handle.
    pub fn histogram_value(&self, h: HistogramHandle) -> &Log2Histogram {
        &self.histograms[h.0].1
    }

    /// Looks a counter up by name (export paths and tests).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks a gauge up by name.
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks a histogram up by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// All counters, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All gauges, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.histograms.iter().map(|(n, v)| (n.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a, 2);
        m.inc(b, 3);
        assert_eq!(m.counter_value(a), 5);
        assert_eq!(m.counters().count(), 1);
    }

    #[test]
    fn set_counter_overwrites() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("c");
        m.inc(c, 7);
        m.set_counter(c, 2);
        assert_eq!(m.counter_value(c), 2);
    }

    #[test]
    fn gauges_hold_floats() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("ratio");
        m.set_gauge(g, 0.25);
        assert_eq!(m.gauge_by_name("ratio"), Some(0.25));
    }

    #[test]
    fn log2_buckets_are_powers_of_two() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 8, 9, 1024] {
            h.observe(v);
        }
        // 0,1 → bucket 0; 2 → 1; 3,4 → 2; 5,8 → 3; 9 → 4; 1024 → 10.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.count, 9);
        assert_eq!(h.sum, 1056);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.mean(), 0.0);
        h.observe(2);
        h.observe(4);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn bucket_bounds_cover_the_bucket() {
        for v in 1u64..500 {
            let mut h = Log2Histogram::new();
            h.observe(v);
            let b = h.buckets.len() - 1;
            assert!(v <= Log2Histogram::bucket_upper_bound(b), "{v}");
            if b > 0 {
                assert!(v > Log2Histogram::bucket_upper_bound(b - 1), "{v}");
            }
        }
    }
}
