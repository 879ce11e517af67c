//! Lock-free observability primitives for the engine.
//!
//! Every subsystem (the AOSI transaction manager, the Cubrick engine,
//! the shard pool, the simulated cluster network) exposes its health
//! through the three primitives here:
//!
//! * [`Counter`] — a monotonically increasing event count.
//! * [`Gauge`] — a point-in-time value (LSE, queue depth, …).
//! * [`Histogram`] — a power-of-two-bucketed latency/size
//!   distribution with count, sum, and estimated percentiles.
//!
//! All three are single `AtomicU64`s (or a fixed array of them) and
//! use `Ordering::Relaxed` throughout: recording a sample is one
//! `fetch_add` with no locks, no allocation, and no fences, so
//! instrumentation can sit directly on the transaction and scan paths
//! without perturbing them. The trade-off is that a report taken
//! while writers are active is a statistical snapshot, not an atomic
//! cut — exactly what an operational metrics dump needs.
//!
//! [`ReportBuilder`] renders metrics into the plain-text
//! `[section]` / `name = value` format used by
//! `Engine::metrics_report()`.
//!
//! [`sync::unpoison`] is the workspace's one lock helper, kept in
//! this dependency-free leaf so every crate that locks can reach it.

pub mod sync;

use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets in a [`Histogram`]: bucket `i`
/// holds samples in `[2^(i-1), 2^i)` (bucket 0 holds zero), which
/// covers the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time value: set wins, no history.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the value by `n`. Callers pair each `sub` with an
    /// earlier `add` of at least `n`, so it never wraps.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram over power-of-two buckets.
///
/// Values are typically nanoseconds ([`Histogram::record_duration`])
/// or byte/row counts. Percentiles are estimated at bucket upper
/// bounds, so they are accurate to within 2x — plenty for spotting
/// regressions and tail behavior.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A consistent-enough copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`] at one moment.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing that rank. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Upper bound of the highest non-empty bucket (zero when empty).
    pub fn max_estimate(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map(bucket_upper_bound)
            .unwrap_or(0)
    }
}

fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// Renders metrics into the engine's plain-text report format:
///
/// ```text
/// [section]
/// name = value
/// ```
#[derive(Debug, Default)]
pub struct ReportBuilder {
    out: String,
}

impl ReportBuilder {
    /// An empty report.
    pub fn new() -> Self {
        ReportBuilder::default()
    }

    /// Opens a `[name]` section; subsequent metrics belong to it.
    pub fn section(&mut self, name: &str) -> &mut Self {
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        let _ = writeln!(self.out, "[{name}]");
        self
    }

    /// Writes one `name = value` line.
    pub fn metric(&mut self, name: &str, value: impl Display) -> &mut Self {
        let _ = writeln!(self.out, "{name} = {value}");
        self
    }

    /// Writes a counter's current value.
    pub fn counter(&mut self, name: &str, counter: &Counter) -> &mut Self {
        self.metric(name, counter.get())
    }

    /// Writes a gauge's current value.
    pub fn gauge(&mut self, name: &str, gauge: &Gauge) -> &mut Self {
        self.metric(name, gauge.get())
    }

    /// Writes a histogram as count/mean/p50/p99/max lines. Values are
    /// reported in the unit they were recorded in (nanoseconds for
    /// `record_duration`).
    pub fn histogram(&mut self, name: &str, histogram: &Histogram) -> &mut Self {
        let snap = histogram.snapshot();
        self.metric(&format!("{name}.count"), snap.count);
        self.metric(&format!("{name}.mean"), format!("{:.0}", snap.mean()));
        self.metric(&format!("{name}.p50"), snap.quantile(0.50));
        self.metric(&format!("{name}.p99"), snap.quantile(0.99));
        self.metric(&format!("{name}.max"), snap.max_estimate())
    }

    /// The rendered report.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set_max(3);
        assert_eq!(g.get(), 7, "set_max never lowers");
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1, "zero bucket");
        assert_eq!(s.buckets[1], 1, "[1,2)");
        assert_eq!(s.buckets[2], 2, "[2,4)");
        assert_eq!(s.buckets[11], 1, "[1024,2048)");
        assert_eq!(s.mean(), 206.0);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8,16), upper bound 15
        }
        h.record(1 << 20); // one outlier
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 15);
        assert_eq!(s.quantile(0.99), 15);
        assert!(s.quantile(1.0) >= 1 << 20);
        assert!(s.max_estimate() >= 1 << 20);
        assert_eq!(HistogramSnapshot::default_empty().quantile(0.5), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            Histogram::new().snapshot()
        }
    }

    #[test]
    fn record_duration_uses_nanos() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(1));
        assert_eq!(h.snapshot().sum, 1000);
    }

    #[test]
    fn report_builder_formats_sections() {
        let mut rb = ReportBuilder::new();
        let c = Counter::new();
        c.add(3);
        let g = Gauge::new();
        g.set(9);
        let h = Histogram::new();
        h.record(100);
        rb.section("aosi").counter("commits", &c).gauge("lse", &g);
        rb.section("engine").histogram("query_nanos", &h);
        let text = rb.finish();
        assert!(text.starts_with("[aosi]\n"));
        assert!(text.contains("commits = 3\n"));
        assert!(text.contains("lse = 9\n"));
        assert!(text.contains("\n[engine]\n"));
        assert!(text.contains("query_nanos.count = 1\n"));
        assert!(text.contains("query_nanos.p50 = 127\n"));
    }
}
