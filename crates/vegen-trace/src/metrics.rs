//! A zero-dependency metrics registry: named atomic counters, gauges,
//! and log-linear-bucket latency histograms.
//!
//! The trace layer ([`crate::span`] and friends) answers *"what happened
//! inside this one run"*; this module answers the service questions —
//! *"what is p99 compile latency right now"*, *"what fraction of jobs hit
//! the cache"* — with process-lifetime aggregates cheap enough to record
//! unconditionally:
//!
//! * recording is a handful of relaxed atomic ops (no locks on the data
//!   path; the registry mutex is only taken to resolve a name to its
//!   metric, and callers on hot paths should cache the returned handle);
//! * like the trace layer, recording is observation-only — it never feeds
//!   back into what is being measured;
//! * exposition is pull-based: [`snapshot`] materializes every metric,
//!   renders to JSON ([`Snapshot::to_json`]) or Prometheus text format
//!   ([`Snapshot::prometheus`]).
//!
//! ## Histogram bucket scheme
//!
//! Values (typically microseconds) land in **log-linear** buckets: 16
//! linear sub-buckets per power of two, i.e. every bucket's width is at
//! most 1/16th of its value, bounding the relative quantile error at
//! ~6.25% while keeping the whole table at 976 fixed slots (no
//! allocation, no rebalancing, full `u64` range). Percentiles are
//! extracted by a cumulative walk returning the bucket's inclusive upper
//! bound, clamped to the exact recorded maximum (tracked separately), so
//! `p50 ≤ p90 ≤ p99 ≤ max` always holds.
//!
//! ```
//! use vegen_trace::metrics;
//! metrics::counter("demo_jobs_total").inc();
//! metrics::gauge("demo_queue_depth").set(3.0);
//! let h = metrics::histogram("demo_latency_us");
//! for v in [120, 450, 90_000] {
//!     h.record(v);
//! }
//! let snap = metrics::snapshot();
//! let demo = snap.histograms.iter().find(|(n, _)| *n == "demo_latency_us").unwrap();
//! assert_eq!(demo.1.count, 3);
//! assert!(demo.1.p50 <= demo.1.p99 && demo.1.p99 <= demo.1.max);
//! assert!(snap.prometheus().contains("demo_latency_us_bucket"));
//! ```

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Linear sub-buckets per power of two: 2^4 = 16.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` value range.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Index of the log-linear bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
}

/// Inclusive upper bound of bucket `i` (the value reported for
/// percentiles landing in it).
fn bucket_bound(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let shift = (i / SUB as usize - 1) as u32;
    let sub = (i % SUB as usize) as u64;
    let upper = ((SUB + sub + 1) as u128) << shift;
    u128::min(upper - 1, u64::MAX as u128) as u64
}

/// A fixed-size log-linear latency histogram (see the module docs for the
/// bucket scheme). All operations are relaxed atomics; concurrent
/// recording and snapshotting never block each other.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Materialize the histogram's current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_bound(i).min(max);
                }
            }
            max
        };
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                buckets.push((bucket_bound(i), cum));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
            buckets,
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Exact largest observed value.
    pub max: u64,
    /// 50th percentile (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, cumulative count)`,
    /// in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// JSON rendering (the shape embedded in reports and the serve
    /// protocol's `stats` op).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::int(self.count)),
            ("sum", Json::int(self.sum)),
            ("max", Json::int(self.max)),
            ("p50", Json::int(self.p50)),
            ("p90", Json::int(self.p90)),
            ("p99", Json::int(self.p99)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(le, cum)| {
                            Json::obj([("le", Json::int(*le)), ("count", Json::int(*cum))])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static R: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lookup(name: &'static str, make: impl FnOnce() -> Metric) -> Metric {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.entry(name).or_insert_with(make).clone()
}

/// The counter registered under `name` (created on first use). Callers on
/// hot paths should cache the returned handle.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind —
/// that is a programming error, not a runtime condition.
pub fn counter(name: &'static str) -> Arc<Counter> {
    match lookup(name, || Metric::Counter(Arc::new(Counter::default()))) {
        Metric::Counter(c) => c,
        other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
    }
}

/// The gauge registered under `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    match lookup(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
        Metric::Gauge(g) => g,
        other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
    }
}

/// The histogram registered under `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    match lookup(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
        Metric::Histogram(h) => h,
        other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
    }
}

/// Every registered metric's state at one point in time, each section
/// sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters as `(name, value)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges as `(name, value)`.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histograms as `(name, snapshot)`.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl Snapshot {
    /// JSON rendering: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}`.
    pub fn to_json(&self) -> Json {
        let objize = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
        objize(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters.iter().map(|(n, v)| (n.to_string(), Json::int(*v))).collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Obj(
                    self.gauges.iter().map(|(n, v)| (n.to_string(), Json::Num(*v))).collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.histograms.iter().map(|(n, h)| (n.to_string(), h.to_json())).collect(),
                ),
            ),
        ])
    }

    /// Prometheus text exposition (format version 0.0.4): one `# TYPE`
    /// line per metric, histograms as cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`. Metric names are prefixed `vegen_` and
    /// sanitized to `[a-zA-Z0-9_]`.
    pub fn prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("vegen_");
            for ch in name.chars() {
                out.push(if ch.is_ascii_alphanumeric() || ch == '_' { ch } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            for (le, cum) in &h.buckets {
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

/// Materialize every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = Snapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name, c.get())),
            Metric::Gauge(g) => snap.gauges.push((name, g.get())),
            Metric::Histogram(h) => snap.histograms.push((name, h.snapshot())),
        }
    }
    snap
}

/// Zero every registered metric (names stay registered; handles held by
/// callers keep working). Intended for tests and fresh measurement
/// sessions — production exposition never resets.
pub fn reset() {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.bits.store(0f64.to_bits(), Ordering::Relaxed),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Held by every test that writes to the process-wide registry and
    /// then reads it back, so `reset` cannot zero a metric between the
    /// two (the test harness runs tests on parallel threads).
    fn registry_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        // Every value lands in a bucket whose bound interval contains it,
        // and indexes are monotone in the value.
        let mut prev_idx = 0;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 65_535, 65_536, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev_idx, "index monotone at {v}");
            prev_idx = i;
            assert!(bucket_bound(i) >= v, "upper bound covers {v}");
            if i > 0 {
                assert!(bucket_bound(i - 1) < v, "previous bucket excludes {v}");
            }
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Log-linear with 16 sub-buckets: bound/value < 1 + 1/16.
        for v in [100u64, 999, 10_000, 123_456, 9_999_999] {
            let bound = bucket_bound(bucket_index(v));
            assert!((bound as f64) / (v as f64) < 1.0 + 1.0 / 16.0, "v={v} bound={bound}");
        }
    }

    #[test]
    fn percentiles_are_ordered_and_clamped_to_max() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // p50 of uniform 1..=1000 is ~500, within one bucket (6.25%).
        assert!((470..=540).contains(&s.p50), "p50={}", s.p50);
        assert!((950..=1000).contains(&s.p99), "p99={}", s.p99);
    }

    #[test]
    fn single_value_histogram_reports_it_everywhere() {
        let h = Histogram::default();
        h.record(777);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (1, 777, 777));
        assert_eq!(s.p50, 777, "percentile clamps to the exact max");
        assert_eq!(s.p99, 777);
    }

    #[test]
    fn registry_returns_the_same_metric_and_snapshot_sees_it() {
        let _registry = registry_lock();
        counter("test_reg_total").add(3);
        counter("test_reg_total").inc();
        gauge("test_reg_depth").set(2.5);
        histogram("test_reg_us").record(42);
        assert!(counter("test_reg_total").get() >= 4);
        let snap = snapshot();
        assert!(snap.counters.iter().any(|(n, v)| *n == "test_reg_total" && *v >= 4));
        assert!(snap.gauges.iter().any(|(n, v)| *n == "test_reg_depth" && *v == 2.5));
        assert!(snap.histograms.iter().any(|(n, h)| *n == "test_reg_us" && h.count >= 1));
        // Sections are name-sorted (BTreeMap iteration order).
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let _registry = registry_lock();
        counter("test_prom_total").inc();
        gauge("test_prom_gauge").set(1.0);
        let h = histogram("test_prom_us");
        h.record(10);
        h.record(100_000);
        let text = snapshot().prometheus();
        let mut last_bucket: Option<(String, u64)> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap();
                assert!(name.starts_with("vegen_"), "{line}");
                assert!(matches!(parts.next(), Some("counter" | "gauge" | "histogram")), "{line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let v: f64 = value.parse().unwrap_or_else(|_| panic!("numeric value: {line}"));
            if let Some(open) = series.find('{') {
                assert!(series.ends_with('}'), "{line}");
                let name = &series[..open];
                assert!(name.ends_with("_bucket"), "{line}");
                // Cumulative bucket counts never decrease within a series.
                if let Some((prev_name, prev_v)) = &last_bucket {
                    if prev_name == name {
                        assert!(v as u64 >= *prev_v, "cumulative: {line}");
                    }
                }
                last_bucket = Some((name.to_string(), v as u64));
            }
        }
        let h_count = h.snapshot().count;
        assert!(
            text.contains(&format!("vegen_test_prom_us_bucket{{le=\"+Inf\"}} {h_count}")),
            "+Inf bucket equals count"
        );
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _registry = registry_lock();
        let c = counter("test_reset_total");
        c.add(7);
        let h = histogram("test_reset_us");
        h.record(5);
        reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc(); // the old handle still feeds the registered metric
        assert!(snapshot().counters.iter().any(|(n, v)| *n == "test_reset_total" && *v >= 1));
    }
}
