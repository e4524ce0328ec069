//! Lock-light metrics: counters, gauges and fixed-bucket histograms.
//!
//! Updates are plain atomic operations — no locks, no allocation — so
//! instruments can sit directly on the scheduler's hot path. The
//! registry itself takes a mutex only on the *cold* path (registration
//! and snapshotting); handed-out instruments are `Arc`s the caller keeps
//! and updates lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// New gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram.
///
/// Bucket `i` counts observations `x <= bounds[i]`; one implicit
/// overflow bucket counts the rest. Bounds are fixed at construction so
/// `observe` is a bounded scan plus two atomic adds — no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Histogram with the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Log-spaced upper bounds from `lo` to at least `hi` with
    /// `per_decade` buckets per decade (HDR-style geometric grid). The
    /// relative quantile-estimation error is bounded by the bucket
    /// ratio: `10^(1/per_decade) - 1` (≈ 78% at 4/decade, ≈ 33% at
    /// 8/decade).
    pub fn log_bounds(lo: f64, hi: f64, per_decade: u32) -> Vec<f64> {
        assert!(lo > 0.0 && hi > lo && per_decade > 0, "bad log bounds");
        let ratio = 10f64.powf(1.0 / per_decade as f64);
        let mut bounds = Vec::new();
        let mut b = lo;
        while b < hi * (1.0 + 1e-12) {
            bounds.push(b);
            b *= ratio;
        }
        bounds.push(b);
        bounds
    }

    /// The default latency grid: 1 µs … 10 s, 4 buckets per decade
    /// (29 buckets + overflow). Covers everything from a cached
    /// single-machine pass to a cross-rack fan-out round.
    pub fn latency_bounds() -> Vec<f64> {
        Self::log_bounds(1e-6, 10.0, 4)
    }

    /// Histogram on the default latency grid ([`Self::latency_bounds`]).
    pub fn latency() -> Self {
        Self::new(&Self::latency_bounds())
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, x: f64) {
        self.observe_n(x, 1);
    }

    /// Record `n` observations of the same value `x` at the cost of
    /// one: the bucket and the count move by `n`, the sum by `n · x`
    /// (equal to `n` additions up to rounding). `n = 0` records nothing.
    #[inline]
    pub fn observe_n(&self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        // Binary search: bucket i counts x <= bounds[i]; NaN goes to
        // the overflow bucket (matches the old linear-scan behavior).
        let i = if x.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|b| *b < x)
        };
        self.buckets[i].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        // Lock-free f64 accumulation: CAS loop over the bit pattern.
        let add = x * n as f64;
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket holding the target rank. Returns `0.0` when
    /// empty; ranks landing in the overflow bucket clamp to the last
    /// bound. On a log grid the relative error is bounded by the
    /// bucket ratio (see [`Self::log_bounds`]).
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        quantile_from_buckets(&self.bounds, &counts, q)
    }
}

/// Quantile estimation over exported bucket counts — the same math
/// [`Histogram::quantile`] uses, callable on a [`MetricValue`] snapshot.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    // Target rank in 1..=total.
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            if i >= bounds.len() {
                // Overflow bucket: no upper edge to interpolate to.
                return bounds.last().copied().unwrap_or(f64::INFINITY);
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let upper = bounds[i];
            let frac = (rank - seen) as f64 / c as f64;
            if frac >= 1.0 {
                return upper;
            }
            return lower + (upper - lower) * frac;
        }
        seen += c;
    }
    bounds.last().copied().unwrap_or(f64::INFINITY)
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    instrument: Instrument,
}

/// A point-in-time reading of one instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram reading: totals plus the full bucket layout, so a
    /// snapshot can be rendered (and quantile-estimated) without
    /// holding the instrument.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Configured upper bounds.
        bounds: Vec<f64>,
        /// Raw per-bucket counts (`bounds.len() + 1`; last = overflow).
        buckets: Vec<u64>,
    },
}

/// A named point-in-time reading.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Full (prefixed) metric name.
    pub name: String,
    /// The reading.
    pub value: MetricValue,
}

/// A registry of named instruments.
///
/// Cloning is cheap (`Arc`); clones share the same instruments.
/// Registration is idempotent by `(name, kind)`: asking twice for the
/// same counter returns the same `Arc`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A view that prefixes every registered name with `prefix.`.
    pub fn scoped(&self, prefix: &str) -> ScopedMetrics {
        ScopedMetrics {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Register (or fetch) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        for e in entries.iter() {
            if e.name == name {
                if let Instrument::Counter(c) = &e.instrument {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.to_string(),
            instrument: Instrument::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Register (or fetch) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        for e in entries.iter() {
            if e.name == name {
                if let Instrument::Gauge(g) = &e.instrument {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.to_string(),
            instrument: Instrument::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Register (or fetch) the histogram `name`. The bounds of the first
    /// registration win.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        for e in entries.iter() {
            if e.name == name {
                if let Instrument::Histogram(h) = &e.instrument {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::new(bounds));
        entries.push(Entry {
            name: name.to_string(),
            instrument: Instrument::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Read every instrument, in registration order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                    },
                },
            })
            .collect()
    }

    /// Render every instrument in Prometheus-style text exposition:
    /// counters and gauges as `name value`; histograms as cumulative
    /// `name_bucket{le="..."}` lines (ending with `le="+Inf"`),
    /// `name_count`, `name_sum`, and `name{quantile="..."}` estimates
    /// for p50/p90/p99/p999.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in self.snapshot() {
            match s.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", s.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", s.name);
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    bounds,
                    buckets,
                } => {
                    let mut cumulative = 0u64;
                    for (b, c) in bounds.iter().zip(buckets.iter()) {
                        cumulative += c;
                        let _ = writeln!(out, "{}_bucket{{le=\"{b:e}\"}} {cumulative}", s.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {count}", s.name);
                    let _ = writeln!(out, "{}_count {count}", s.name);
                    let _ = writeln!(out, "{}_sum {sum}", s.name);
                    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)]
                    {
                        let v = quantile_from_buckets(&bounds, &buckets, q);
                        let _ = writeln!(out, "{}{{quantile=\"{label}\"}} {v:e}", s.name);
                    }
                }
            }
        }
        out
    }
}

/// A prefixed view over a [`MetricsRegistry`] (per-scheduler scoping).
#[derive(Debug, Clone)]
pub struct ScopedMetrics {
    registry: MetricsRegistry,
    prefix: String,
}

impl ScopedMetrics {
    /// Register (or fetch) the counter `prefix.name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&format!("{}.{name}", self.prefix))
    }

    /// Register (or fetch) the gauge `prefix.name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&format!("{}.{name}", self.prefix))
    }

    /// Register (or fetch) the histogram `prefix.name`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.registry
            .histogram(&format!("{}.{name}", self.prefix), bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_and_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.counter("rounds");
        let b = r.counter("rounds");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = MetricsRegistry::new();
        let g = r.gauge("headroom");
        g.set(12.5);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    /// `observe_n(x, n)` is `n` calls of `observe(x)`: same count, same
    /// buckets, same quantiles, the sum equal up to rounding — and
    /// `n = 0` leaves the histogram untouched.
    #[test]
    fn observe_n_equals_n_observes() {
        let batched = Histogram::latency();
        let single = Histogram::latency();
        for (x, n) in [(3.0e-6, 64u64), (0.02, 7), (1.0e-7, 1), (50.0, 3), (0.4, 0)] {
            batched.observe_n(x, n);
            (0..n).for_each(|_| single.observe(x));
        }
        assert_eq!(batched.count(), 75);
        assert_eq!(batched.count(), single.count());
        assert_eq!(batched.bucket_counts(), single.bucket_counts());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(batched.quantile(q), single.quantile(q));
        }
        assert!((batched.sum() - single.sum()).abs() <= 1e-12 * single.sum());

        let empty = Histogram::latency();
        empty.observe_n(1.0, 0);
        empty.observe_n(f64::NAN, 0);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.sum(), 0.0);
        assert!(empty.bucket_counts().iter().all(|c| *c == 0));
        // NaN still lands in the overflow bucket, n at a time.
        empty.observe_n(f64::NAN, 5);
        assert_eq!(*empty.bucket_counts().last().unwrap(), 5);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        assert!((h.mean() - 105.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn log_bounds_cover_range_geometrically() {
        let b = Histogram::log_bounds(1e-6, 10.0, 4);
        assert!(b.first().copied().unwrap() <= 1e-6 + 1e-18);
        assert!(b.last().copied().unwrap() >= 10.0);
        for w in b.windows(2) {
            let ratio = w[1] / w[0];
            assert!((ratio - 10f64.powf(0.25)).abs() < 1e-9, "ratio {ratio}");
        }
        assert_eq!(Histogram::latency_bounds().len(), 30);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        // 100 observations uniformly in (0, 1]: everything in bucket 0.
        for i in 1..=100 {
            h.observe(i as f64 / 100.0);
        }
        // p50 of a full first bucket interpolates to ~0.5.
        assert!((h.quantile(0.5) - 0.5).abs() < 0.02, "{}", h.quantile(0.5));
        assert!((h.quantile(1.0) - 1.0).abs() < 1e-9);
        // Add a heavy tail: 10 observations in (4, 8].
        for _ in 0..10 {
            h.observe(6.0);
        }
        let p99 = h.quantile(0.99);
        assert!((4.0..=8.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.observe(100.0); // overflow bucket
        assert_eq!(h.quantile(0.99), 2.0, "overflow clamps to last bound");
        h.observe(f64::NAN); // NaN lands in overflow, count still moves
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn observe_binary_search_matches_bucket_semantics() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(1.0); // boundary: x <= bounds[0]
        h.observe(10.0);
        h.observe(10.1);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn scoped_names_are_prefixed() {
        let r = MetricsRegistry::new();
        let s = r.scoped("sched");
        s.counter("rounds").inc();
        let snap = r.snapshot();
        assert_eq!(snap[0].name, "sched.rounds");
        assert_eq!(snap[0].value, MetricValue::Counter(1));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = MetricsRegistry::new();
        let c = r.counter("n");
        let h = r.histogram("h", &[0.5]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.observe(1.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 4000.0).abs() < 1e-9);
    }
}
