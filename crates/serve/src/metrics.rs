//! In-process metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms, rendered in the Prometheus text exposition format.
//!
//! The registry is deliberately clock-free — callers that time things (the
//! HTTP front-end, the [`StageTimer`](crate::timing::StageTimer) wrapped
//! around the batch pipeline) read their own clock and `observe` the
//! elapsed value, so this module stays inside the workspace determinism
//! lint scope and the same registry instruments both the daemon and
//! `coctl analyze --timings`.

use crate::locked::Locked;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket catches the rest.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

/// Default latency buckets in nanoseconds: 1 µs … 10 s by decades.
pub const LATENCY_BUCKETS_NANOS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let counts = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: sorted,
            counts,
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        // `idx` is in 0..=bounds.len() and counts has bounds.len()+1 slots.
        if let Some(slot) = self.counts.get(idx) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics, rendered at `GET /metrics`.
///
/// Registration is idempotent: asking twice for the same name and kind
/// returns the same underlying metric, so independent subsystems can share
/// series without coordinating. Asking for an existing name with a
/// *different* kind is a programming error and returns a fresh, unregistered
/// metric (never a panic): the caller's increments still work, they just
/// don't export.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Locked<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The metric registered under `name`, or `None` after registering
    /// `metric` there.
    fn register(&self, name: &str, help: &str, metric: Metric) -> Option<Metric> {
        let (name, help) = (name.to_owned(), help.to_owned());
        self.entries.with(move |entries| {
            if let Some(e) = entries.iter().find(|e| e.name == name) {
                return Some(e.metric.clone());
            }
            entries.push(Entry { name, help, metric });
            None
        })
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        match self.register(name, help, Metric::Counter(Arc::clone(&c))) {
            Some(Metric::Counter(existing)) => existing,
            Some(Metric::Gauge(_) | Metric::Histogram(_)) | None => c,
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        match self.register(name, help, Metric::Gauge(Arc::clone(&g))) {
            Some(Metric::Gauge(existing)) => existing,
            Some(Metric::Counter(_) | Metric::Histogram(_)) | None => g,
        }
    }

    /// Register (or look up) a histogram with the given bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds));
        match self.register(name, help, Metric::Histogram(Arc::clone(&h))) {
            Some(Metric::Histogram(existing)) => existing,
            Some(Metric::Counter(_) | Metric::Gauge(_)) | None => h,
        }
    }

    /// Current value of a registered counter or gauge, for tests and the
    /// `/summary` endpoint.
    pub fn value(&self, name: &str) -> Option<i64> {
        let name = name.to_owned();
        self.entries.with(move |entries| {
            entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| match &e.metric {
                    Metric::Counter(c) => i64::try_from(c.get()).unwrap_or(i64::MAX),
                    Metric::Gauge(g) => g.get(),
                    Metric::Histogram(h) => i64::try_from(h.count()).unwrap_or(i64::MAX),
                })
        })
    }

    /// Render every metric in the Prometheus text exposition format, sorted
    /// by name for stable scrapes.
    pub fn render_prometheus(&self) -> String {
        self.entries.with(|entries| {
            let mut sorted: Vec<&Entry> = entries.iter().collect();
            sorted.sort_by(|a, b| a.name.cmp(&b.name));
            let mut out = String::new();
            for e in sorted {
                match &e.metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!(
                            "# HELP {n} {h}\n# TYPE {n} counter\n{n} {v}\n",
                            n = e.name,
                            h = e.help,
                            v = c.get()
                        ));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!(
                            "# HELP {n} {h}\n# TYPE {n} gauge\n{n} {v}\n",
                            n = e.name,
                            h = e.help,
                            v = g.get()
                        ));
                    }
                    Metric::Histogram(hist) => {
                        out.push_str(&format!(
                            "# HELP {n} {h}\n# TYPE {n} histogram\n",
                            n = e.name,
                            h = e.help
                        ));
                        let mut cumulative = 0u64;
                        for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                            cumulative += count.load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{n}_bucket{{le=\"{bound}\"}} {cumulative}\n",
                                n = e.name
                            ));
                        }
                        out.push_str(&format!(
                            "{n}_bucket{{le=\"+Inf\"}} {t}\n{n}_sum {s}\n{n}_count {t}\n",
                            n = e.name,
                            t = hist.count(),
                            s = hist.sum()
                        ));
                    }
                }
            }
            out
        })
    }
}

/// The daemon's standard metric set, registered once and shared by the
/// ingest sources, the analysis worker, and the HTTP front-end.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Valid records analyzed.
    pub records_in: Arc<Counter>,
    /// FATAL records among them.
    pub fatal_in: Arc<Counter>,
    /// Records absorbed by a temporal window.
    pub merged_temporal: Arc<Counter>,
    /// Records absorbed by a spatial window.
    pub merged_spatial: Arc<Counter>,
    /// Independent events surfaced.
    pub events_out: Arc<Counter>,
    /// Events that warranted a warning.
    pub warnings: Arc<Counter>,
    /// Ingest lines rejected: unparsable.
    pub rejected_malformed: Arc<Counter>,
    /// Ingest lines rejected: longer than the configured limit.
    pub rejected_oversized: Arc<Counter>,
    /// Times a full ingest queue stalled an ingest source (backpressure).
    pub backpressure_stalls: Arc<Counter>,
    /// Records currently queued for the analysis worker.
    pub queue_depth: Arc<Gauge>,
    /// Ingest connections accepted.
    pub ingest_connections: Arc<Counter>,
    /// Accepted ingest connections dropped because their handler thread
    /// could not be spawned.
    pub ingest_connections_dropped: Arc<Counter>,
    /// HTTP requests served.
    pub http_requests: Arc<Counter>,
    /// HTTP clients disconnected for being too slow (write timeout).
    pub slow_disconnects: Arc<Counter>,
    /// HTTP request service time, nanoseconds.
    pub http_nanos: Arc<Histogram>,
}

impl ServeMetrics {
    /// Register the standard series on `registry`.
    pub fn register(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            records_in: registry.counter("ingest_records_total", "valid records ingested"),
            fatal_in: registry.counter("ingest_fatal_total", "FATAL records ingested"),
            merged_temporal: registry.counter(
                "merged_temporal_total",
                "records merged by the temporal window",
            ),
            merged_spatial: registry.counter(
                "merged_spatial_total",
                "records merged by the spatial window",
            ),
            events_out: registry.counter("events_out_total", "independent fatal events surfaced"),
            warnings: registry.counter("warnings_total", "events that warranted a warning"),
            rejected_malformed: registry
                .counter("ingest_rejected_malformed_total", "unparsable ingest lines"),
            rejected_oversized: registry
                .counter("ingest_rejected_oversized_total", "over-limit ingest lines"),
            backpressure_stalls: registry.counter(
                "ingest_backpressure_stalls_total",
                "sends that blocked on a full ingest queue",
            ),
            queue_depth: registry.gauge(
                "shard_queue_depth",
                "records queued for the analysis worker",
            ),
            ingest_connections: registry
                .counter("ingest_connections_total", "ingest connections accepted"),
            ingest_connections_dropped: registry.counter(
                "ingest_connections_dropped_total",
                "accepted ingest connections dropped (no handler thread)",
            ),
            http_requests: registry.counter("http_requests_total", "HTTP requests served"),
            slow_disconnects: registry.counter(
                "http_slow_disconnects_total",
                "slow HTTP clients disconnected",
            ),
            http_nanos: registry.histogram(
                "http_request_nanos",
                "HTTP request service time (ns)",
                LATENCY_BUCKETS_NANOS,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let r = Registry::new();
        let c = r.counter("a_total", "a");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("depth", "d");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        let h = r.histogram("lat", "l", &[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound -> first bucket
        h.observe(50);
        h.observe(1_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
        assert_eq!(r.value("a_total"), Some(5));
        assert_eq!(r.value("depth"), Some(4));
        assert_eq!(r.value("lat"), Some(4));
        assert_eq!(r.value("missing"), None);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let c1 = r.counter("x_total", "x");
        let c2 = r.counter("x_total", "x");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        // Kind mismatch: caller gets a working but unregistered metric.
        let g = r.gauge("x_total", "x");
        g.set(99);
        assert_eq!(r.value("x_total"), Some(2));
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_cumulative() {
        let r = Registry::new();
        r.counter("zz_total", "last").inc();
        let h = r.histogram("aa_nanos", "hist", &[10, 100]);
        h.observe(5);
        h.observe(120);
        r.gauge("mm_depth", "middle").set(-2);
        let text = r.render_prometheus();
        let aa = text.find("aa_nanos_bucket").unwrap();
        let mm = text.find("mm_depth").unwrap();
        let zz = text.find("zz_total").unwrap();
        assert!(aa < mm && mm < zz, "not sorted:\n{text}");
        assert!(text.contains("aa_nanos_bucket{le=\"10\"} 1"));
        assert!(text.contains("aa_nanos_bucket{le=\"100\"} 1"));
        assert!(text.contains("aa_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("aa_nanos_sum 125"));
        assert!(text.contains("aa_nanos_count 2"));
        assert!(text.contains("# TYPE mm_depth gauge"));
        assert!(text.contains("mm_depth -2"));
        assert!(text.contains("# TYPE zz_total counter"));
    }
}
