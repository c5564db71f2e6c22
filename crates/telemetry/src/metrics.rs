//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Everything is lock-free on the hot path: registration takes a write
//! lock once per name, after which recording is a handful of relaxed
//! atomic operations. Names are dot-separated paths
//! (`"phase.search.ns"`, `"cloud.index.hits"`); the exporters map them to
//! output-format-legal identifiers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of histogram buckets: one per possible bit length of a `u64`
/// observation, plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` observations (typically
/// nanoseconds). Bucket `0` holds zeros; bucket `i ≥ 1` holds values with
/// bit length `i`, i.e. the range `[2^(i-1), 2^i - 1]`. Power-of-two
/// buckets keep recording branch-free and still resolve latency
/// distributions to within 2×, which is what phase profiling needs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: its bit length (0 for 0).
pub(crate) fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (`None` before the first observation).
    pub fn min(&self) -> Option<u64> {
        let m = self.min.load(Ordering::Relaxed);
        (self.count() > 0).then_some(m)
    }

    /// Largest observation (`None` before the first observation).
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`), estimated by rank
    /// interpolation inside the bucket containing the target rank, with
    /// the bucket's bounds first clamped to the observed `[min, max]`
    /// range. Returns `None` before the first observation.
    ///
    /// The clamp-then-interpolate order matters: a 2-observation
    /// histogram whose values share one power-of-two bucket used to
    /// report p50 == max (the bucket's upper bound clamped to max);
    /// interpolating rank 1-of-2 across the clamped `[min, max]` span
    /// returns their midpoint instead — never above the mean for n = 2.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        if target == count {
            // The top rank is the largest observation — exact, so skip
            // interpolation (which could round it down by one step).
            return self.max();
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                let lo = bucket_lower_bound(i).max(min);
                let hi = bucket_upper_bound(i).min(max);
                if hi <= lo {
                    return Some(lo);
                }
                // `pos` is the target's 1-based rank within this bucket;
                // u128 keeps `width * pos` overflow-free for the full
                // u64 value range.
                let pos = target - cumulative;
                let width = (hi - lo) as u128;
                let value = lo as u128 + width * pos as u128 / n as u128;
                return Some(value as u64);
            }
            cumulative += n;
        }
        self.max()
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Counters only go up; gauges are set to the latest value; histograms
/// accumulate latency-style observations. Lookup order is a `BTreeMap`
/// so exports are deterministically sorted by name.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().expect("metrics lock poisoned").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("metrics lock poisoned");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (registering it if new).
    pub fn count(&self, name: &str, delta: u64) {
        intern(&self.counters, name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge `name` to `value` (registering it if new).
    pub fn gauge(&self, name: &str, value: u64) {
        intern(&self.gauges, name).store(value, Ordering::Relaxed);
    }

    /// Records `value` into the histogram `name` (registering it if new).
    pub fn observe(&self, name: &str, value: u64) {
        intern(&self.histograms, name).observe(value);
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .read()
            .expect("metrics lock poisoned")
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// A handle to the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.histograms
            .read()
            .expect("metrics lock poisoned")
            .get(name)
            .map(Arc::clone)
    }

    /// Sorted `(name, value)` pairs of every counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sorted `(name, value)` pairs of every gauge.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.gauges
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sorted `(name, histogram)` pairs of every histogram.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_cover_their_index() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 65_535, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "value {v} above bound");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "value {v} below bucket");
            }
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::default();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn quantiles_land_in_correct_buckets() {
        let h = Histogram::default();
        // 100 observations, values 1..=100: p50 rank is 50 (bucket of
        // bit length 6, bound 63); p99 rank is 99 (bucket bound 127,
        // clamped to observed max 100).
        for v in 1..=100u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((32..=63).contains(&p50), "p50 {p50}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((64..=100).contains(&p90), "p90 {p90}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p90..=100).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(100), "q=1 is exactly max");
        assert_eq!(h.quantile(0.0), Some(1), "q=0 clamps to min");
    }

    #[test]
    fn small_n_quantiles_interpolate_instead_of_reporting_max() {
        // Regression for the BENCH_search.json skew: two same-bucket
        // observations (these are the actual nanosecond values from the
        // skewed bench run, both in bucket [2^22, 2^23 - 1]) reported
        // p50 == max. Rank 1-of-2 must interpolate to the midpoint.
        let h = Histogram::default();
        h.observe(5_155_578);
        h.observe(5_369_210);
        let mean = (5_155_578 + 5_369_210) / 2;
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= mean, "p50 {p50} above mean {mean}");
        assert!(p50 >= 5_155_578, "p50 {p50} below min");
        assert!(p50 < 5_369_210, "p50 {p50} still pinned to max");
        assert_eq!(p50, mean, "rank 1 of 2 lands on the exact midpoint");
        // The top rank stays exact.
        assert_eq!(h.quantile(0.99), Some(5_369_210));
        assert_eq!(h.quantile(1.0), Some(5_369_210));

        // Small n generally: quantiles stay inside [min, max], are
        // monotone in q, and p50 no longer saturates at max.
        let h = Histogram::default();
        for v in [40u64, 50, 60] {
            h.observe(v);
        }
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((40..=60).contains(&v), "q={q} escaped [min,max]: {v}");
            assert!(v >= prev, "quantiles must be monotone in q");
            prev = v;
        }
        assert!(h.quantile(0.5).unwrap() < 60, "p50 of 3 must be below max");
    }

    #[test]
    fn huge_value_quantiles_do_not_overflow() {
        let h = Histogram::default();
        h.observe(u64::MAX - 1);
        h.observe(u64::MAX);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= u64::MAX - 1);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn single_observation_quantiles_are_exact() {
        let h = Histogram::default();
        h.observe(42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42));
        }
    }

    #[test]
    fn zero_observations_use_the_zero_bucket() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(0);
        h.observe(8);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.quantile(1.0), Some(8));
    }

    #[test]
    fn registry_registers_and_accumulates() {
        let m = Metrics::new();
        m.count("a.b", 2);
        m.count("a.b", 3);
        m.gauge("g", 7);
        m.gauge("g", 9);
        m.observe("h", 100);
        assert_eq!(m.counter_value("a.b"), Some(5));
        assert_eq!(m.counter_value("missing"), None);
        assert_eq!(m.gauges(), vec![("g".to_string(), 9)]);
        assert_eq!(m.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn listings_are_sorted_by_name() {
        let m = Metrics::new();
        m.count("z", 1);
        m.count("a", 1);
        m.count("m", 1);
        let names: Vec<String> = m.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.count("thread.hits", 1);
                    }
                });
            }
        });
        assert_eq!(m.counter_value("thread.hits"), Some(4000));
    }
}
