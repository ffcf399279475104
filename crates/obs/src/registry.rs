//! The global metric registry: named counters, gauges and log2-bucketed
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! shared atomics, so hot paths can resolve a name once per region and
//! then update lock-free.  The name → handle map itself is guarded by a
//! mutex, touched only at registration time.  Each
//! [`counter!`](crate::counter!) call site keeps its counter's handle, and
//! each thread the histogram handle of each span path; [`crate::reset`]
//! retires them all, since the handles it cleared are orphans.
//!
//! Everything here is *always* collectable — the [`crate::enabled`] gate
//! belongs to the instrumentation macros and call sites, not to the
//! primitives, so tests and exporters can drive the registry directly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets.  Bucket `0` holds the value `0`; bucket
/// `b ≥ 1` holds values in `[2^(b−1), 2^b − 1]`; the last bucket absorbs
/// everything from `2^(BUCKETS−2)` up.
pub const BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    // Not derivable: `Default` for arrays stops at 32 elements.
    fn default() -> Self {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (durations are recorded as
/// nanoseconds; see [`Histogram::observe_duration`]).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistInner>);

/// The bucket index a value lands in: `0` for `0`, otherwise
/// `floor(log2(v)) + 1`, clamped to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The inclusive `[lo, hi]` value range of bucket `b` (the last bucket's
/// `hi` is `u64::MAX`).
pub fn bucket_range(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        _ if b >= BUCKETS - 1 => (1u64 << (BUCKETS - 2), u64::MAX),
        _ => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, value: u64) {
        let h = &self.0;
        h.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 before any sample).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((i, c))
            })
            .collect()
    }
}

/// The process-wide name → metric maps.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        // A panic while holding one of these maps cannot leave the data
        // inconsistent (all updates are single insertions), so poisoning
        // is safe to shrug off — observability must not compound a crash.
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The handle called `name`, registered on first use.  A hit
    /// allocates nothing: spans and counters fetch their handle on every
    /// record, and the time they spend here shows in the caller's span as
    /// time no child span covers.
    fn fetch<T: Clone + Default>(m: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
        let mut map = Self::lock(m);
        if let Some(handle) = map.get(name) {
            return handle.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    pub(crate) fn counter(&self, name: &str) -> Counter {
        Self::fetch(&self.counters, name)
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        Self::fetch(&self.gauges, name)
    }

    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        Self::fetch(&self.histograms, name)
    }

    pub(crate) fn counter_snapshot(&self) -> Vec<(String, u64)> {
        Self::lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    pub(crate) fn gauge_snapshot(&self) -> Vec<(String, i64)> {
        Self::lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    pub(crate) fn histogram_snapshot(&self) -> Vec<(String, Histogram)> {
        Self::lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    pub(crate) fn clear(&self) {
        Self::lock(&self.counters).clear();
        Self::lock(&self.gauges).clear();
        Self::lock(&self.histograms).clear();
    }
}

/// The handle of one [`counter!`](crate::counter!) call site: its counter
/// and the generation it was fetched in.  The macro declares one `static`
/// per site; it is not meant to be used directly.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct CounterSite(Mutex<Option<(u64, Counter)>>);

impl CounterSite {
    /// A site with no handle yet.
    pub const fn new() -> Self {
        CounterSite(Mutex::new(None))
    }

    /// Adds `delta` through the site's handle, fetching the counter
    /// called `name` first when the handle is missing or retired.  Kept
    /// out of line so the disabled path of [`counter_site_add`] stays a
    /// load and a branch.
    #[inline(never)]
    fn add(&self, name: &str, delta: u64) {
        let generation = crate::span::GENERATION.load(Ordering::Relaxed);
        let mut slot = Registry::lock(&self.0);
        match &*slot {
            Some((fetched, handle)) if *fetched == generation => handle.add(delta),
            _ => {
                let handle = counter(name);
                handle.add(delta);
                *slot = Some((generation, handle));
            }
        }
    }
}

/// The body of [`counter!`](crate::counter!): adds `delta` to counter
/// `name` through the site's handle when the subscriber is enabled,
/// fetching the handle again after a [`crate::reset`]; the disabled path
/// is one relaxed atomic load.
#[doc(hidden)]
pub fn counter_site_add(site: &'static CounterSite, name: &'static str, delta: u64) {
    if crate::enabled() {
        site.add(name, delta);
    }
}

/// Fetches (registering on first use) the counter called `name`.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Fetches (registering on first use) the gauge called `name`.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Fetches (registering on first use) the histogram called `name`.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Adds `delta` to counter `name` — but only when the subscriber is
/// enabled; the disabled path is one relaxed atomic load.
///
/// Each call looks the name up under the registry's lock; a fixed name
/// belongs in [`counter!`](crate::counter!), which keeps its handle.
/// Call sites in hot loops should accumulate locally and flush once.
pub fn counter_add(name: &str, delta: u64) {
    if crate::enabled() {
        counter(name).add(delta);
    }
}

/// Sets gauge `name` when the subscriber is enabled (no-op otherwise).
pub fn gauge_set(name: &str, value: i64) {
    if crate::enabled() {
        gauge(name).set(value);
    }
}

/// Records a sample into histogram `name` when the subscriber is enabled
/// (no-op otherwise).
pub fn observe(name: &str, value: u64) {
    if crate::enabled() {
        histogram(name).observe(value);
    }
}

/// Records a duration (as nanoseconds) into histogram `name` when the
/// subscriber is enabled (no-op otherwise).
pub fn observe_duration(name: &str, d: std::time::Duration) {
    if crate::enabled() {
        histogram(name).observe_duration(d);
    }
}

/// The current value of counter `name` (0 if never registered).
pub fn counter_value(name: &str) -> u64 {
    counter(name).value()
}

/// Nearest-rank percentile of an already-sorted sample: the smallest
/// element whose rank covers `pct` percent of the data (0 for an empty
/// slice).  `percentile(s, 50)` is the median, `percentile(s, 100)` the
/// maximum.  Shared by the serve bench client and the `top` dashboard.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.max(1).min(sorted.len()) - 1]
}

/// Nearest-rank quantile estimated from log2 `(bucket index, count)`
/// pairs (as produced by [`Histogram::nonzero_buckets`]): the upper
/// bound of the bucket where the cumulative count first reaches the
/// target rank, i.e. an upper estimate with at most one-bucket (2×)
/// resolution.  Returns 0 when the counts are all zero.
pub fn bucket_quantile(buckets: &[(usize, u64)], pct: u32) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = (total * u64::from(pct)).div_ceil(100).max(1);
    let mut cum = 0u64;
    for &(b, c) in buckets {
        cum += c;
        if cum >= rank {
            return bucket_range(b).1;
        }
    }
    bucket_range(buckets.last().map_or(0, |&(b, _)| b)).1
}

/// Maps an internal dotted metric name (`serve.request_ns`) onto the
/// Prometheus metric-name charset `[a-zA-Z0-9_:]`: every other character
/// becomes `_`, and a `_` is prefixed when the result would start with a
/// digit (or be empty).  Deterministic and idempotent; distinct inputs
/// may collide — [`metrics_text`] dedupes with numeric suffixes.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Renders every registered metric in the Prometheus text exposition
/// format (version 0.0.4): counters as `mcds_<name>_total`, gauges bare,
/// histograms as cumulative `_bucket{le="..."}` series (one per occupied
/// log2 bucket, upper bound inclusive) plus `_sum` and `_count`.  Names
/// go through [`sanitize_metric_name`] under the `mcds_` namespace;
/// post-sanitization collisions get `_2`, `_3`, … suffixes in registry
/// (sorted-name) order so the output is deterministic.
pub fn metrics_text() -> String {
    let reg = registry();
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let unique = |san: String, used: &mut std::collections::BTreeSet<String>| -> String {
        if used.insert(san.clone()) {
            return san;
        }
        let mut k = 2usize;
        loop {
            let candidate = format!("{san}_{k}");
            if used.insert(candidate.clone()) {
                return candidate;
            }
            k += 1;
        }
    };
    let mut out = String::new();
    for (name, value) in reg.counter_snapshot() {
        let base = unique(format!("mcds_{}", sanitize_metric_name(&name)), &mut used);
        out.push_str(&format!(
            "# TYPE {base}_total counter\n{base}_total {value}\n"
        ));
    }
    for (name, value) in reg.gauge_snapshot() {
        let base = unique(format!("mcds_{}", sanitize_metric_name(&name)), &mut used);
        out.push_str(&format!("# TYPE {base} gauge\n{base} {value}\n"));
    }
    for (name, hist) in reg.histogram_snapshot() {
        let base = unique(format!("mcds_{}", sanitize_metric_name(&name)), &mut used);
        out.push_str(&format!("# TYPE {base} histogram\n"));
        let mut cum = 0u64;
        for (b, c) in hist.nonzero_buckets() {
            cum += c;
            if b == BUCKETS - 1 {
                // The last log2 bucket is unbounded — it *is* +Inf.
                continue;
            }
            let le = bucket_range(b).1;
            out.push_str(&format!("{base}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "{base}_bucket{{le=\"+Inf\"}} {}\n{base}_sum {}\n{base}_count {}\n",
            hist.count(),
            hist.sum(),
            hist.count()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's range round-trips through bucket_index.
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_index(lo), b, "lo of bucket {b}");
            assert_eq!(bucket_index(hi), b, "hi of bucket {b}");
        }
        // Ranges tile the u64 line without gaps.
        for b in 0..BUCKETS - 1 {
            let (_, hi) = bucket_range(b);
            let (lo_next, _) = bucket_range(b + 1);
            assert_eq!(hi + 1, lo_next, "gap after bucket {b}");
        }
    }

    #[test]
    fn histogram_accumulates_and_tracks_max() {
        let h = Histogram::default();
        for v in [0, 1, 1, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.max(), 1000);
        let buckets = h.nonzero_buckets();
        // 0 → b0; 1,1 → b1; 5 → b3; 1000 → b10.
        assert_eq!(buckets, vec![(0, 1), (1, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn handles_share_state_by_name() {
        let a = counter("test.registry.shared");
        let b = counter("test.registry.shared");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        let g = gauge("test.registry.gauge");
        g.set(-9);
        assert_eq!(gauge("test.registry.gauge").value(), -9);
    }

    #[test]
    fn edge_values_land_in_well_defined_buckets() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        // 0 → bucket 0 ([0,0]); 1 → bucket 1 ([1,1]); u64::MAX → the
        // last bucket, whose range tops out at u64::MAX exactly.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (BUCKETS - 1, 1)]);
        assert_eq!(bucket_range(0), (0, 0));
        assert_eq!(bucket_range(1), (1, 1));
        assert_eq!(bucket_range(BUCKETS - 1).1, u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(1)); // sum wraps by design of AtomicU64
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_monotone() {
        let h = histogram("test.registry.prom_edge");
        for v in [0, 1, 1, 7, 1000, u64::MAX] {
            h.observe(v);
        }
        let text = metrics_text();
        let prefix = "mcds_test_registry_prom_edge_bucket{le=\"";
        let mut counts = Vec::new();
        let mut les = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(prefix) {
                let (le, count) = rest.split_once("\"} ").unwrap();
                les.push(le.to_string());
                counts.push(count.parse::<u64>().unwrap());
            }
        }
        // Cumulative counts are monotone nondecreasing and end at count.
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(les.last().map(String::as_str), Some("+Inf"));
        assert_eq!(counts.last().copied(), Some(h.count()));
        // Spot-check the edges: le="0" covers the single zero sample and
        // le="1" adds the two ones.
        assert_eq!(les[0], "0");
        assert_eq!(counts[0], 1);
        assert_eq!(les[1], "1");
        assert_eq!(counts[1], 3);
        // u64::MAX lives in the unbounded bucket: no finite le line for
        // it, only +Inf.
        assert!(!les.iter().any(|le| le == &u64::MAX.to_string()));
        assert!(text.contains("mcds_test_registry_prom_edge_count 6\n"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 90), 9);
        assert_eq!(percentile(&v, 99), 10);
        assert_eq!(percentile(&v, 100), 10);
    }

    #[test]
    fn bucket_quantile_returns_bucket_upper_bounds() {
        assert_eq!(bucket_quantile(&[], 50), 0);
        // 4 samples at value 1 (b1), 4 in [2,3] (b2), 2 in [1024,2047] (b11).
        let buckets = vec![(1, 4u64), (2, 4), (11, 2)];
        assert_eq!(bucket_quantile(&buckets, 50), 3); // rank 5 → b2 hi
        assert_eq!(bucket_quantile(&buckets, 40), 1); // rank 4 → b1 hi
        assert_eq!(bucket_quantile(&buckets, 99), 2047); // rank 10 → b11 hi
        assert_eq!(bucket_quantile(&buckets, 100), 2047);
    }

    #[test]
    fn sanitize_maps_onto_prometheus_charset_idempotently() {
        assert_eq!(sanitize_metric_name("serve.request_ns"), "serve_request_ns");
        assert_eq!(sanitize_metric_name("a:b_c9"), "a:b_c9");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("Ümlaut→x"), "_mlaut_x");
        for name in ["serve.request_ns", "9lives", "", "Ümlaut→x", "a b\tc"] {
            let once = sanitize_metric_name(name);
            assert_eq!(sanitize_metric_name(&once), once, "idempotent on {name:?}");
            assert!(once
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            assert!(!once.as_bytes()[0].is_ascii_digit());
        }
    }

    #[test]
    fn metrics_text_dedupes_post_sanitization_collisions() {
        counter("test.registry.collide!a").add(1);
        counter("test.registry.collide?a").add(2);
        let text = metrics_text();
        // BTreeMap order: `!a` sorts before `?a`, so it keeps the base
        // name and `?a` gets the `_2` suffix.
        assert!(text.contains("mcds_test_registry_collide_a_total 1\n"));
        assert!(text.contains("mcds_test_registry_collide_a_2_total 2\n"));
    }
}
