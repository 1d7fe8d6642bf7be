//! # gp-obs — zero-dependency observability for the GraphPrompter stack
//!
//! A process-wide metrics registry with three instrument kinds plus RAII
//! span timers, built on `std` only:
//!
//! * [`Counter`] — monotonically increasing `u64` (hits, evictions, …).
//! * [`Gauge`] — a settable `i64` level (cache residency, workers, …).
//! * [`Histogram`] — fixed log-linear buckets over `u64` samples, 8 per
//!   power of two (latencies in µs, loss in milli-units); tracks
//!   count/sum/min/max and answers quantile queries from the bucket
//!   counts within 12.5%.
//! * [`Histogram::span`] — an RAII timer recording elapsed µs on drop.
//!
//! [`sync`] holds the ranked mutex that every library lock uses.
//!
//! ## Cost model
//!
//! Collection is **off by default**. Every instrument call starts with a
//! single relaxed atomic load ([`enabled`]); while disabled nothing else
//! runs — no clock reads, no locks, no allocation — so instrumented hot
//! paths stay bit-identical and effectively free. [`set_enabled`] turns
//! collection on (`gp --metrics` does this).
//!
//! ## Usage
//!
//! Instruments are declared as `static` handles — name resolution against
//! the global registry happens once, on first use:
//!
//! ```
//! static HITS: gp_obs::Counter = gp_obs::Counter::new("doc.cache.hits");
//! static LOOKUP: gp_obs::Histogram = gp_obs::Histogram::new("doc.lookup_micros");
//!
//! gp_obs::set_enabled(true);
//! {
//!     let _t = LOOKUP.span();   // records elapsed µs when dropped
//!     HITS.add(1);
//! }
//! let snap = gp_obs::snapshot();
//! assert_eq!(snap.counter("doc.cache.hits"), Some(1));
//! gp_obs::set_enabled(false);
//! ```
//!
//! The registry is global: [`snapshot`] returns every instrument the
//! process has touched, sorted by name, and renders as text or JSON.

pub mod sync;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use std::time::Instant;
use sync::{Mutex, Rank};

/// Sub-buckets per power of two in a histogram (log₂ of it).
const SUB_BUCKET_BITS: u32 = 3;

/// Number of histogram buckets. Samples below 16 get a bucket each;
/// above, each power of two `[2^e, 2^(e+1))` splits into 8 equal
/// sub-buckets, so a bucket is at most 1/8 of its lower bound wide.
pub const HISTOGRAM_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize + 1) << SUB_BUCKET_BITS;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metric collection is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Registry locks recover from poisoning (see `sync`): instruments are
// process-global and shared with request threads that may panic
// (gp-serve isolates such panics per request), and metrics must keep
// flowing after one observer crashes. The maps are ordered so snapshots
// come out sorted by name; instruments register once (through their
// `OnceLock`), so the hot path never touches them. Any lock may be held
// while an instrument registers or records: the registry ranks above
// every library lock, and a histogram above the registry.
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Mutex<HistoInner>>>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(Rank::ObsRegistry, BTreeMap::new()),
    gauges: Mutex::new(Rank::ObsRegistry, BTreeMap::new()),
    histograms: Mutex::new(Rank::ObsRegistry, BTreeMap::new()),
};

/// Reset every registered instrument to zero (counters, gauges,
/// histogram contents). Intended for tests and for `gp --metrics`, which
/// resets before the measured run so the report covers only that run.
pub fn reset() {
    for c in REGISTRY.counters.lock().values() {
        c.store(0, Ordering::Relaxed);
    }
    for g in REGISTRY.gauges.lock().values() {
        g.store(0, Ordering::Relaxed);
    }
    for h in REGISTRY.histograms.lock().values() {
        *h.lock() = HistoInner::default();
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter. Declare as a `static`; the
/// registry slot is resolved once on first use.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter handle named `name` (registered lazily).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn slot(&self) -> &AtomicU64 {
        self.cell
            .get_or_init(|| Arc::clone(REGISTRY.counters.lock().entry(self.name).or_default()))
    }

    /// Add `n` events. Free when collection is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.slot().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when collection never ran).
    pub fn value(&self) -> u64 {
        self.slot().load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A settable level (current cache residency, configured workers, …).
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<Arc<AtomicI64>>,
}

impl Gauge {
    /// A gauge handle named `name` (registered lazily).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn slot(&self) -> &AtomicI64 {
        self.cell
            .get_or_init(|| Arc::clone(REGISTRY.gauges.lock().entry(self.name).or_default()))
    }

    /// Set the level. Free when collection is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.slot().store(v, Ordering::Relaxed);
        }
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn offset(&self, delta: i64) {
        if enabled() {
            self.slot().fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.slot().load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct HistoInner {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistoInner {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// Which log-linear bucket a sample falls into: its power of two and the
/// next [`SUB_BUCKET_BITS`] bits below the leading one.
#[inline]
fn bucket_index(v: u64) -> usize {
    let sub = 1u64 << SUB_BUCKET_BITS;
    if v < 2 * sub {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BUCKET_BITS;
    ((shift as usize + 1) << SUB_BUCKET_BITS) + (v >> shift) as usize - sub as usize
}

/// The largest sample that falls into bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    let sub = 1usize << SUB_BUCKET_BITS;
    if i < 2 * sub {
        return i as u64;
    }
    let shift = (i >> SUB_BUCKET_BITS) - 1;
    let lower = ((sub + i % sub) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

/// A fixed-bucket log-linear histogram over `u64` samples. Latencies are
/// recorded in microseconds by convention (`*_micros` names); other units
/// say so in their name (`*_milli` for ×1000 fixed-point).
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<Arc<Mutex<HistoInner>>>,
}

impl Histogram {
    /// A histogram handle named `name` (registered lazily).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn slot(&self) -> &Mutex<HistoInner> {
        self.cell.get_or_init(|| {
            Arc::clone(
                REGISTRY
                    .histograms
                    .lock()
                    .entry(self.name)
                    .or_insert_with(|| {
                        Arc::new(Mutex::new(Rank::ObsHistogram, HistoInner::default()))
                    }),
            )
        })
    }

    /// Record one sample. Free when collection is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let mut h = self.slot().lock();
        h.count += 1;
        h.sum = h.sum.saturating_add(v);
        h.min = h.min.min(v);
        h.max = h.max.max(v);
        h.buckets[bucket_index(v)] += 1;
    }

    /// Record an `f64` sample, clamped to `[0, u64::MAX]` and rounded.
    /// Convenient for loss-like values scaled to fixed point.
    #[inline]
    pub fn record_f64(&self, v: f64) {
        if enabled() {
            self.record(if v.is_finite() && v > 0.0 {
                v.round() as u64
            } else {
                0
            });
        }
    }

    /// Start an RAII timer: elapsed microseconds are recorded when the
    /// guard drops. While collection is disabled no clock is read.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "gp-obs is where timing lives: a span only feeds its histogram, never a result"
    )]
    pub fn span(&self) -> SpanGuard<'_> {
        SpanGuard {
            histogram: self,
            start: enabled().then(Instant::now),
        }
    }
}

/// RAII timer from [`Histogram::span`]; records elapsed µs on drop.
pub struct SpanGuard<'a> {
    histogram: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record(start.elapsed().as_micros() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Log-linear bucket counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest value of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), clamped to [`HistogramSnapshot::max`]: at most
    /// 12.5% above the sample itself.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// Point-in-time copy of every instrument the process has registered.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram copies, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Level of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Human-readable report: one line per instrument, sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::from("metrics report\n");
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("  (no instruments registered — was collection enabled?)\n");
            return out;
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("  counter    {name:<42} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("  gauge      {name:<42} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "  histogram  {:<42} n={} mean={:.1} min={} p50={} p99={} max={}\n",
                h.name,
                h.count,
                h.mean(),
                if h.count == 0 { 0 } else { h.min },
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            ));
        }
        out
    }

    /// JSON report (flat object per instrument kind; buckets omitted —
    /// derived stats carry the signal).
    pub fn to_json(&self) -> String {
        fn push_pairs<T: std::fmt::Display>(out: &mut String, pairs: &[(String, T)]) {
            for (i, (name, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": {v}"));
            }
        }
        let mut out = String::from("{\n  \"counters\": {");
        push_pairs(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_pairs(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.2}, \"min\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                h.name,
                h.count,
                h.sum,
                h.mean(),
                if h.count == 0 { 0 } else { h.min },
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            ));
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Copy every registered instrument, sorted by name. Cheap relative to
/// any measured workload; call at run end (`Engine::metrics_snapshot`,
/// `gp --metrics`).
pub fn snapshot() -> MetricsSnapshot {
    let counters: Vec<(String, u64)> = REGISTRY
        .counters
        .lock()
        .iter()
        .map(|(n, v)| (n.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges: Vec<(String, i64)> = REGISTRY
        .gauges
        .lock()
        .iter()
        .map(|(n, v)| (n.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms: Vec<HistogramSnapshot> = REGISTRY
        .histograms
        .lock()
        .iter()
        .map(|(n, h)| {
            let h = h.lock();
            HistogramSnapshot {
                name: n.to_string(),
                count: h.count,
                sum: h.sum,
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
                buckets: h.buckets,
            }
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and the enabled flag are process-global and the test
    // harness is multi-threaded: every test uses unique instrument names
    // and serializes on LOCK so one test's set_enabled(false) cannot gate
    // another's collection mid-assertion.
    static LOCK: Mutex<()> = Mutex::new(Rank::Harness, ());

    #[test]
    fn counter_counts_only_while_enabled() {
        let _g = LOCK.lock();
        static C: Counter = Counter::new("test.obs.counter_gate");
        set_enabled(false);
        C.add(5);
        assert_eq!(C.value(), 0, "disabled collection must not count");
        set_enabled(true);
        C.add(2);
        C.inc();
        assert_eq!(C.value(), 3);
        assert_eq!(snapshot().counter("test.obs.counter_gate"), Some(3));
    }

    #[test]
    fn gauge_set_and_offset() {
        let _g = LOCK.lock();
        static G: Gauge = Gauge::new("test.obs.gauge");
        set_enabled(true);
        G.set(10);
        G.offset(-3);
        assert_eq!(G.value(), 7);
        assert_eq!(snapshot().gauge("test.obs.gauge"), Some(7));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        static H: Histogram = Histogram::new("test.obs.histo");
        set_enabled(true);
        for v in [0u64, 1, 2, 3, 900, 1000] {
            H.record(v);
        }
        let snap = snapshot();
        let h = snap.histogram("test.obs.histo").expect("registered");
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1906);
        assert!((h.mean() - 1906.0 / 6.0).abs() < 1e-9);
        // Samples below 16 have a bucket each; 900 ∈ [896, 960) is bucket
        // 62 and 1000 ∈ [960, 1024) bucket 63.
        assert_eq!(h.buckets[..4], [1, 1, 1, 1]);
        assert_eq!(h.buckets[62], 1);
        assert_eq!(h.buckets[63], 1);
        // p50 is the third sample, 2, exactly; p99 falls in bucket 63,
        // whose upper value 1023 is clamped to the largest sample.
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.99), 1000);
    }

    #[test]
    fn quantile_of_the_top_bucket_saturates() {
        static H: Histogram = Histogram::new("test.obs.top");
        set_enabled(true);
        H.record(u64::MAX);
        let snap = snapshot();
        let h = snap.histogram("test.obs.top").expect("registered");
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn span_records_elapsed_micros() {
        static H: Histogram = Histogram::new("test.obs.span");
        set_enabled(true);
        {
            let _t = H.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot();
        let h = snap.histogram("test.obs.span").expect("registered");
        assert_eq!(h.count, 1);
        assert!(
            h.max >= 1_000,
            "2ms sleep must record ≥1000µs, got {}",
            h.max
        );
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        static H: Histogram = Histogram::new("test.obs.empty");
        set_enabled(true);
        let _ = H.span(); // touch so it registers, record nothing…
        drop(H.span());
        // (the drops above DO record ~0µs samples; use a snapshot-level
        // empty histogram instead)
        let empty = HistogramSnapshot {
            name: "e".into(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn record_f64_clamps_and_rounds() {
        static H: Histogram = Histogram::new("test.obs.f64");
        set_enabled(true);
        H.record_f64(1.6);
        H.record_f64(-5.0);
        H.record_f64(f64::NAN);
        let snap = snapshot();
        let h = snap.histogram("test.obs.f64").expect("registered");
        assert_eq!(h.count, 3);
        assert_eq!(h.max, 2);
    }

    #[test]
    fn text_and_json_reports_include_instruments() {
        static C: Counter = Counter::new("test.obs.report_counter");
        set_enabled(true);
        C.add(4);
        let snap = snapshot();
        let text = snap.to_text();
        assert!(text.contains("test.obs.report_counter"), "{text}");
        let json = snap.to_json();
        assert!(json.contains("\"test.obs.report_counter\": "), "{json}");
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn bucket_index_is_log_linear() {
        for v in 0..16 {
            assert_eq!(bucket_index(v), v as usize);
        }
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(18), 17);
        assert_eq!(bucket_index(31), 23);
        assert_eq!(bucket_index(32), 24);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Each bucket's upper value maps back to it, the next value to the
        // next bucket, and a bucket spans at most 1/8 of its lower bound.
        for i in 0..HISTOGRAM_BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i);
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_index(upper + 1), i + 1);
            }
            let lower = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
            assert!(upper - lower <= lower / 8, "bucket {i}: [{lower}, {upper}]");
        }
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }
}
