//! Typed counters, gauges, and log-bucketed histograms in a global
//! registry, with a Prometheus text exposition.
//!
//! Handles are cheap `Arc` clones around atomics; call sites cache them in
//! a `OnceLock` via the [`crate::counter!`] / [`crate::gauge!`] /
//! [`crate::histogram!`] macros so steady-state updates are a single
//! atomic op with no registry lock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::trace::{self, TraceId};

/// Monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets; bucket `i` (for `i >= 1`) holds values
/// in `[2^(i-1), 2^i - 1]`, bucket 0 holds exactly 0, and the last bucket
/// additionally absorbs everything above `2^62`.
const BUCKETS: usize = 64;

/// Maximum exemplars a histogram retains (oldest evicted first).
pub const EXEMPLAR_CAP: usize = 4;

/// A sampled observation pinned to the trace that produced it, so a
/// latency spike in a histogram links to a replayable trace id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded value (same unit as the histogram).
    pub value: u64,
    /// Trace id of the request that recorded it.
    pub trace_id: TraceId,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    exemplars: Mutex<VecDeque<Exemplar>>,
}

/// Log-bucketed histogram for latency-like values (record in nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Bucket index for a recorded value: `64 - leading_zeros`, clamped.
fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`None` = +Inf, for the last).
fn bucket_upper(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// Representative value for bucket `i` (geometric midpoint), used for
/// quantile estimates.
fn bucket_mid(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        let lo = (1u64 << (i - 1)) as f64;
        let hi = (1u64 << i.min(63)) as f64;
        (lo * hi).sqrt()
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records one observation and, when a [`trace::TraceContext`] is
    /// installed on this thread, retains `(value, trace_id)` as an
    /// exemplar (ring of [`EXEMPLAR_CAP`], oldest evicted). Untraced
    /// calls cost exactly what [`Histogram::record`] does.
    pub fn record_traced(&self, v: u64) {
        self.record(v);
        if let Some(ctx) = trace::current() {
            let mut ring = self.0.exemplars.lock().expect("exemplar ring poisoned");
            if ring.len() >= EXEMPLAR_CAP {
                ring.pop_front();
            }
            ring.push_back(Exemplar {
                value: v,
                trace_id: ctx.trace_id,
            });
        }
    }

    /// Records a duration in nanoseconds with exemplar capture.
    pub fn record_duration_traced(&self, d: Duration) {
        self.record_traced(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Current exemplar ring contents, oldest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.0
            .exemplars
            .lock()
            .expect("exemplar ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = (0..BUCKETS)
            .filter_map(|i| {
                let c = self.0.buckets[i].load(Ordering::Relaxed);
                (c > 0).then_some((i, c))
            })
            .collect();
        let sum = self.0.sum.load(Ordering::Relaxed);
        HistogramSnapshot::from_parts(name.to_string(), buckets, sum, self.exemplars())
    }
}

/// Estimates the `q`-quantile (0..=1) of a log-bucketed distribution from
/// sparse `(bucket index, count)` pairs, as the geometric midpoint of the
/// bucket containing the target rank. `count` must be the bucket total.
pub fn estimate_quantile(buckets: &[(usize, u64)], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for &(i, c) in buckets {
        seen += c;
        if seen >= target {
            return bucket_mid(i);
        }
    }
    bucket_mid(BUCKETS - 1)
}

/// Point-in-time view of one histogram.
///
/// This is also the *mergeable* wire representation for fleet
/// aggregation: the sparse `(bucket index, count)` pairs plus `sum` are
/// lossless under addition, so snapshots from different processes (whose
/// power-of-two bucket layout is identical by construction) combine with
/// [`HistogramSnapshot::merge`] into exactly the histogram a single
/// process would have produced from the concatenated samples.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observation count (always the sum of `buckets` counts, so the
    /// cumulative `+Inf` bucket equals the total by construction).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `sum / count` (0 when empty).
    pub mean: f64,
    /// Estimated median (bucket geometric midpoint).
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Non-empty `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Retained `(value, trace_id)` exemplars, oldest first (≤ [`EXEMPLAR_CAP`]).
    pub exemplars: Vec<Exemplar>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from its mergeable parts, deriving `count`,
    /// `mean`, and the quantile estimates from the buckets.
    pub fn from_parts(
        name: String,
        buckets: Vec<(usize, u64)>,
        sum: u64,
        exemplars: Vec<Exemplar>,
    ) -> HistogramSnapshot {
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        HistogramSnapshot {
            name,
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: estimate_quantile(&buckets, count, 0.50),
            p95: estimate_quantile(&buckets, count, 0.95),
            p99: estimate_quantile(&buckets, count, 0.99),
            buckets,
            exemplars,
        }
    }

    /// An empty snapshot under `name`, the identity element for [`merge`].
    ///
    /// [`merge`]: HistogramSnapshot::merge
    pub fn empty(name: String) -> HistogramSnapshot {
        HistogramSnapshot::from_parts(name, Vec::new(), 0, Vec::new())
    }

    /// Folds `other` into `self`: bucket counts and sums add, quantile
    /// estimates are recomputed from the merged buckets, and exemplars
    /// concatenate (newest kept, capped at [`EXEMPLAR_CAP`]).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &other.buckets {
            *merged.entry(i).or_insert(0) += c;
        }
        let mut exemplars = std::mem::take(&mut self.exemplars);
        exemplars.extend(other.exemplars.iter().cloned());
        if exemplars.len() > EXEMPLAR_CAP {
            exemplars.drain(..exemplars.len() - EXEMPLAR_CAP);
        }
        // Wrapping add matches the live histogram's atomic `fetch_add`
        // semantics, so merge ≡ concatenation even at u64::MAX samples.
        *self = HistogramSnapshot::from_parts(
            std::mem::take(&mut self.name),
            merged.into_iter().collect(),
            self.sum.wrapping_add(other.sum),
            exemplars,
        );
    }
}

/// Point-in-time view of the whole registry (sorted by name).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge name/value pairs.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Named-metric registry. Use [`Registry::global`] in production code;
/// `Registry::new` exists so tests can work on an isolated instance.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    helps: Mutex<BTreeMap<&'static str, &'static str>>,
}

impl Registry {
    /// Creates an empty registry (tests / tools).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns the counter registered under `name`, creating it if new.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .entry(name)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it if new.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauges
            .lock()
            .expect("metrics registry poisoned")
            .entry(name)
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it if new.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histograms
            .lock()
            .expect("metrics registry poisoned")
            .entry(name)
            .or_insert_with(|| {
                Histogram(Arc::new(HistogramInner {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    exemplars: Mutex::new(VecDeque::new()),
                }))
            })
            .clone()
    }

    /// Registers free-form help text for `name`, emitted as a `# HELP`
    /// line in [`Registry::prometheus_text`] (escaped per the exposition
    /// format). Idempotent; the latest registration wins.
    pub fn describe(&self, name: &'static str, help: &'static str) {
        self.helps
            .lock()
            .expect("metrics registry poisoned")
            .insert(name, help);
    }

    /// Consistent-enough snapshot of every metric (each atomic read is
    /// individually relaxed).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(&name, c)| (name, c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(&name, g)| (name, g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(&name, h)| h.snapshot(name))
                .collect(),
        }
    }

    /// Prometheus text exposition (version 0.0.4) of the registry, with
    /// every metric name prefixed `statleak_`.
    ///
    /// Help text and label values are escaped per the exposition-format
    /// rules, the cumulative `+Inf` bucket always equals `_count` (both
    /// derive from the same bucket totals), and histogram exemplars are
    /// emitted as `# EXEMPLAR` comment lines (ignored by 0.0.4 parsers,
    /// greppable by operators and the fleet tests).
    pub fn prometheus_text(&self) -> String {
        let snapshot = self.snapshot();
        let helps = self
            .helps
            .lock()
            .expect("metrics registry poisoned")
            .clone();
        let mut out = String::new();
        let help_line = |out: &mut String, name: &str| {
            if let Some(help) = helps.get(name) {
                out.push_str(&format!("# HELP statleak_{name} {}\n", escape_help(help)));
            }
        };
        for (name, value) in &snapshot.counters {
            help_line(&mut out, name);
            out.push_str(&format!(
                "# TYPE statleak_{name} counter\nstatleak_{name} {value}\n"
            ));
        }
        for (name, value) in &snapshot.gauges {
            help_line(&mut out, name);
            out.push_str(&format!(
                "# TYPE statleak_{name} gauge\nstatleak_{name} {value}\n"
            ));
        }
        for h in &snapshot.histograms {
            let name = &h.name;
            help_line(&mut out, name);
            out.push_str(&format!("# TYPE statleak_{name} histogram\n"));
            let mut cumulative = 0u64;
            for &(i, c) in &h.buckets {
                cumulative += c;
                if let Some(upper) = bucket_upper(i) {
                    out.push_str(&format!(
                        "statleak_{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"
                    ));
                }
            }
            // `cumulative` now holds the bucket total, so +Inf and _count
            // agree by construction even under concurrent recording.
            out.push_str(&format!(
                "statleak_{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!("statleak_{name}_sum {}\n", h.sum));
            out.push_str(&format!("statleak_{name}_count {cumulative}\n"));
            for ex in &h.exemplars {
                out.push_str(&format!(
                    "# EXEMPLAR statleak_{name}{{trace_id=\"{}\"}} {}\n",
                    escape_label_value(&ex.trace_id.to_hex()),
                    ex.value
                ));
            }
        }
        out
    }
}

/// Escapes a label value per the Prometheus exposition format: backslash,
/// double quote, and newline become `\\`, `\"`, and `\n`.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus exposition format: backslash
/// and newline become `\\` and `\n` (quotes are legal in help text).
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_cover_their_index_range() {
        for i in 1..BUCKETS - 1 {
            let upper = bucket_upper(i).unwrap();
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(upper + 1), i + 1);
        }
        assert_eq!(bucket_upper(BUCKETS - 1), None);
    }

    #[test]
    fn registry_dedups_handles_by_name() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(registry.counter("x").get(), 3);
    }

    #[test]
    fn histogram_snapshot_quantiles_are_monotone() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        for v in [1u64, 10, 100, 1000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }
        let snapshot = &registry.snapshot().histograms[0];
        assert_eq!(snapshot.count, 7);
        assert!(snapshot.p50 <= snapshot.p95);
        assert!(snapshot.p95 <= snapshot.p99);
        assert!(snapshot.mean > 0.0);
    }

    #[test]
    fn prometheus_text_is_cumulative_and_typed() {
        let registry = Registry::new();
        registry.counter("reqs").add(5);
        registry.gauge("depth").set(2.5);
        let h = registry.histogram("svc_ns");
        h.record(3);
        h.record(100);
        let text = registry.prometheus_text();
        assert!(text.contains("# TYPE statleak_reqs counter\nstatleak_reqs 5\n"));
        assert!(text.contains("# TYPE statleak_depth gauge\nstatleak_depth 2.5\n"));
        assert!(text.contains("# TYPE statleak_svc_ns histogram\n"));
        assert!(text.contains("statleak_svc_ns_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("statleak_svc_ns_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("statleak_svc_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("statleak_svc_ns_sum 103\n"));
        assert!(text.contains("statleak_svc_ns_count 2\n"));
    }

    /// Satellite: exposition escaping + the `+Inf`-equals-`_count`
    /// invariant are locked down here.
    #[test]
    fn prometheus_text_escapes_help_and_labels() {
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
        assert_eq!(escape_label_value("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
        let registry = Registry::new();
        registry.counter("esc_reqs").inc();
        registry.describe("esc_reqs", "line one\nline \\two");
        let text = registry.prometheus_text();
        assert!(
            text.contains("# HELP statleak_esc_reqs line one\\nline \\\\two\n"),
            "{text}"
        );
        // Escaped help stays a single exposition line.
        assert!(!text.contains("line one\nline"), "{text}");
    }

    #[test]
    fn prometheus_inf_bucket_equals_count() {
        let registry = Registry::new();
        let h = registry.histogram("inf_ns");
        for v in [0u64, 1, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let text = registry.prometheus_text();
        assert!(
            text.contains("statleak_inf_ns_bucket{le=\"+Inf\"} 5\n"),
            "{text}"
        );
        assert!(text.contains("statleak_inf_ns_count 5\n"), "{text}");
        let snapshot = registry.snapshot().histograms[0].clone();
        assert_eq!(
            snapshot.count,
            snapshot.buckets.iter().map(|&(_, c)| c).sum::<u64>()
        );
    }

    #[test]
    fn record_traced_keeps_a_capped_exemplar_ring() {
        let registry = Registry::new();
        let h = registry.histogram("ex_ns");
        h.record_traced(7); // no context installed: no exemplar
        assert!(h.exemplars().is_empty());
        let ctx = trace::TraceContext::new();
        let _guard = trace::enter(ctx);
        for v in 0..(EXEMPLAR_CAP as u64 + 3) {
            h.record_traced(v);
        }
        let exemplars = h.exemplars();
        assert_eq!(exemplars.len(), EXEMPLAR_CAP);
        // Newest survive, all pinned to the installed trace id.
        assert_eq!(exemplars.last().unwrap().value, EXEMPLAR_CAP as u64 + 2);
        assert!(exemplars.iter().all(|e| e.trace_id == ctx.trace_id));
        let snapshot = registry.snapshot().histograms[0].clone();
        assert_eq!(snapshot.exemplars, exemplars);
        let text = registry.prometheus_text();
        assert!(
            text.contains(&format!(
                "# EXEMPLAR statleak_ex_ns{{trace_id=\"{}\"}}",
                ctx.trace_id.to_hex()
            )),
            "{text}"
        );
    }

    #[test]
    fn merge_matches_single_histogram_over_concatenated_samples() {
        let registry = Registry::new();
        let whole = registry.histogram("whole");
        let part_a = registry.histogram("part_a");
        let part_b = registry.histogram("part_b");
        for v in [0u64, 1, 3, 900, 65_000] {
            part_a.record(v);
            whole.record(v);
        }
        for v in [2u64, 3, 1_000_000] {
            part_b.record(v);
            whole.record(v);
        }
        let snapshot = registry.snapshot();
        let by_name = |n: &str| {
            snapshot
                .histograms
                .iter()
                .find(|h| h.name == n)
                .unwrap()
                .clone()
        };
        let mut merged = HistogramSnapshot::empty("whole".to_string());
        merged.merge(&by_name("part_a"));
        merged.merge(&by_name("part_b"));
        assert_eq!(merged, by_name("whole"));
    }
}
