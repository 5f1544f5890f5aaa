//! Service telemetry: request counters, gauges and approximate latency
//! histograms, all lock-free atomics so the hot path never serialises
//! on a metrics mutex.
//!
//! One metric table declares every family the service exports, once:
//! its JSON key, its Prometheus name, its HELP text and how to read its
//! sample. [`Telemetry::json`] (the `GET /metrics` document) and
//! [`Telemetry::prometheus`] (`GET /metrics?format=prometheus`) each
//! walk that table in order, so no family can reach one export without
//! the other. A JSON key written `group.key` nests under `group`.
//!
//! Every scalar counter and gauge lives in one array indexed by
//! [`Stat`]. A new one is one `Stat` variant plus one row of the table.

use crate::cache::CacheStats;
use fragalign_core::SolverRegistry;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Power-of-two microsecond buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` µs. 40 buckets reach ~12.7 days — effectively
/// unbounded for a request.
const BUCKETS: usize = 40;

/// A fixed-bucket log₂ latency histogram. Quantiles are read as the
/// upper bound of the bucket where the cumulative count crosses the
/// quantile — clamped to the largest observation ever recorded — so
/// reported p50/p99 are conservative (never understated) and at most
/// 2× the true value. Without the clamp, an observation landing in
/// the open-ended top bucket would report that bucket's ~12.7-day
/// upper bound as the quantile.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    /// Sum of all observations, µs (Prometheus `_sum`).
    sum_micros: AtomicU64,
    /// Largest single observation, µs (the quantile clamp).
    max_micros: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Count one observation.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().max(1) as u64;
        let idx = (micros.ilog2() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate quantile `q ∈ (0, 1]` in milliseconds; 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of bucket i, clamped to the largest
                // observation (both are upper bounds on the true
                // quantile, so the min still never understates).
                let bound_us = 2f64.powi(i as i32 + 1);
                let max_us = self.max_micros.load(Ordering::Relaxed) as f64;
                return bound_us.min(max_us.max(1.0)) / 1000.0;
            }
        }
        unreachable!("cumulative count reaches total");
    }

    /// The JSON summary: observations, p50 and p99 in milliseconds
    /// (bucket upper bounds, clamped to the largest observation).
    fn summary(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), self.count().serialize()),
            ("p50_ms".to_string(), Value::Float(self.quantile_ms(0.50))),
            ("p99_ms".to_string(), Value::Float(self.quantile_ms(0.99))),
        ])
    }

    /// Append this histogram as Prometheus text exposition under
    /// `name` (seconds-unit, cumulative `_bucket` lines up to the last
    /// occupied bound, then `+Inf`, `_sum`, `_count`). `labels` is the
    /// rendered label set without braces (`""` or `solver="csr"`).
    fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let last = counts.iter().rposition(|&c| c > 0);
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        if let Some(last) = last {
            for (i, c) in counts.iter().enumerate().take(last + 1) {
                cum += c;
                let le = 2f64.powi(i as i32 + 1) / 1e6;
                out.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}\n"
                ));
            }
        }
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}\n"
        ));
        out.push_str(&format!(
            "{name}_sum{braces} {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!("{name}_count{braces} {cum}\n"));
    }
}

/// A scalar counter or gauge of [`Telemetry`], stored once and read
/// with [`Telemetry::get`]. What each one counts is its family's HELP
/// text in the metric table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    /// `fragalign_requests_total`.
    Requests,
    /// `fragalign_rejected_503_total`.
    Rejected503,
    /// `fragalign_client_errors_4xx_total`.
    ClientErrors4xx,
    /// `fragalign_unknown_solver_requests_total`.
    UnknownSolverRequests,
    /// `fragalign_batch_requests_total`.
    BatchRequests,
    /// `fragalign_traced_requests_total`.
    TracedRequests,
    /// `fragalign_trace_events_dropped_total`.
    TraceEventsDropped,
    /// `fragalign_sampled_traces_total`.
    SampledTraces,
    /// `fragalign_connections_accepted_total`.
    ConnectionsAccepted,
    /// `fragalign_connections_open` (a gauge).
    ConnectionsOpen,
    /// `fragalign_keepalive_reuse_total`.
    KeepaliveReuse,
    /// `fragalign_admission_degraded_total`.
    AdmissionDegraded,
    /// `fragalign_queue_depth` (a gauge).
    QueueDepth,
    /// `fragalign_busy_workers` (a gauge).
    BusyWorkers,
}

impl Stat {
    /// The number of variants; `BusyWorkers` is the last.
    const COUNT: usize = Stat::BusyWorkers as usize + 1;
}

/// One row of the metric table: a family named once for both exports.
pub(crate) struct Family<'a> {
    /// Key in the JSON document; `group.key` nests under `group`,
    /// whose rows are adjacent in the table.
    pub(crate) json: &'static str,
    /// Prometheus family name.
    prom: &'static str,
    /// Prometheus HELP text.
    help: &'static str,
    sample: Sample<'a>,
}

/// How a family's value is read.
#[derive(Clone, Copy)]
enum Sample<'a> {
    Counter(u64),
    Gauge(u64),
    /// Seconds since the server started (a float gauge).
    Uptime(f64),
    /// A counter per registered solver, registry order.
    PerSolver(&'a [AtomicU64]),
    Histogram(&'a Histogram),
    /// A histogram per registered solver; only solvers with an
    /// observation are rendered, and the family only when one has.
    PerSolverHistogram(&'a [Histogram]),
}

impl Sample<'_> {
    /// Whether the family renders nothing in either export.
    fn is_empty(&self) -> bool {
        match self {
            Sample::PerSolverHistogram(hs) => hs.iter().all(|h| h.count() == 0),
            _ => false,
        }
    }
}

/// All service counters (see module docs). One instance per server,
/// shared by the event loop and every worker.
pub struct Telemetry {
    start: Instant,
    stats: [AtomicU64; Stat::COUNT],
    /// `/v1/solve` requests per registered solver, registry order.
    solve_requests: Vec<AtomicU64>,
    /// Solve wall time per registered solver, registry order.
    solve_latency: Vec<Histogram>,
    /// End-to-end latency: queue wait plus handling.
    pub latency: Histogram,
    /// Time a connection sat in the bounded queue before a worker
    /// picked it up.
    pub queue_wait: Histogram,
    /// Time spent handling a request, by a worker or inline.
    pub service: Histogram,
}

impl Telemetry {
    /// Fresh counters; the per-solver tables are sized from the global
    /// registry.
    pub fn new() -> Self {
        let solvers = SolverRegistry::global().names().len();
        Telemetry {
            start: Instant::now(),
            stats: std::array::from_fn(|_| AtomicU64::new(0)),
            solve_requests: (0..solvers).map(|_| AtomicU64::new(0)).collect(),
            solve_latency: (0..solvers).map(|_| Histogram::new()).collect(),
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
        }
    }

    /// Add `n` to `stat`.
    pub fn add(&self, stat: Stat, n: u64) {
        self.stats[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the gauge `stat`.
    pub fn sub(&self, stat: Stat, n: u64) {
        self.stats[stat as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value of `stat`.
    pub fn get(&self, stat: Stat) -> u64 {
        self.stats[stat as usize].load(Ordering::Relaxed)
    }

    /// One response written with `status`; a 4xx also counts as a
    /// client error.
    pub fn record_response(&self, status: u16) {
        self.add(Stat::Requests, 1);
        if (400..500).contains(&status) {
            self.add(Stat::ClientErrors4xx, 1);
        }
    }

    /// A fully-validated `/v1/solve` request resolved to the solver at
    /// registry position `pos` (cache hits included).
    pub fn record_solve(&self, pos: usize) {
        self.solve_requests[pos].fetch_add(1, Ordering::Relaxed);
    }

    /// Solve wall time for the solver at registry position `pos` (only
    /// actual solves are timed, never cache hits).
    pub fn record_solve_latency(&self, pos: usize, d: Duration) {
        self.solve_latency[pos].record(d);
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The metric table, in exposition order, read at this instant.
    pub(crate) fn families(
        &self,
        workers: usize,
        queue_capacity: usize,
        cache: &CacheStats,
    ) -> [Family<'_>; 27] {
        let row = |json, prom, help, sample| Family {
            json,
            prom,
            help,
            sample,
        };
        let counter = |stat| Sample::Counter(self.get(stat));
        let gauge = |stat| Sample::Gauge(self.get(stat));
        [
            row(
                "uptime_secs",
                "fragalign_uptime_seconds",
                "Seconds since the server started.",
                Sample::Uptime(self.uptime_secs()),
            ),
            row(
                "requests_total",
                "fragalign_requests_total",
                "Responses written by a worker or the event loop (any status).",
                counter(Stat::Requests),
            ),
            row(
                "rejected_503",
                "fragalign_rejected_503_total",
                "503 responses: queue full, connection limit or hard admission watermark.",
                counter(Stat::Rejected503),
            ),
            row(
                "client_errors_4xx",
                "fragalign_client_errors_4xx_total",
                "Responses with a 4xx status, framing errors included.",
                counter(Stat::ClientErrors4xx),
            ),
            row(
                "unknown_solver_requests",
                "fragalign_unknown_solver_requests_total",
                "Solve requests naming an unregistered solver.",
                counter(Stat::UnknownSolverRequests),
            ),
            row(
                "batch_requests",
                "fragalign_batch_requests_total",
                "Batch requests received.",
                counter(Stat::BatchRequests),
            ),
            row(
                "traced_requests",
                "fragalign_traced_requests_total",
                "Requests served with ?trace=1.",
                counter(Stat::TracedRequests),
            ),
            row(
                "trace_events_dropped",
                "fragalign_trace_events_dropped_total",
                "Trace events lost to the ring's drop-oldest overwrite.",
                counter(Stat::TraceEventsDropped),
            ),
            row(
                "sampled_traces",
                "fragalign_sampled_traces_total",
                "Plain requests traced by the 1-in-N sampler.",
                counter(Stat::SampledTraces),
            ),
            row(
                "connections_accepted",
                "fragalign_connections_accepted_total",
                "Connections accepted by the event loop.",
                counter(Stat::ConnectionsAccepted),
            ),
            row(
                "connections_open",
                "fragalign_connections_open",
                "Connections currently alive (idle, reading, or served).",
                gauge(Stat::ConnectionsOpen),
            ),
            row(
                "keepalive_reuse",
                "fragalign_keepalive_reuse_total",
                "Requests served on an already-used keep-alive connection.",
                counter(Stat::KeepaliveReuse),
            ),
            row(
                "admission_degraded",
                "fragalign_admission_degraded_total",
                "Solve requests rerouted to a cheap tier under load.",
                counter(Stat::AdmissionDegraded),
            ),
            row(
                "solve_requests",
                "fragalign_solve_requests_total",
                "Solve requests per registered solver.",
                Sample::PerSolver(&self.solve_requests),
            ),
            row(
                "queue.depth",
                "fragalign_queue_depth",
                "Connections waiting in the bounded queue.",
                gauge(Stat::QueueDepth),
            ),
            row(
                "queue.capacity",
                "fragalign_queue_capacity",
                "The bounded queue's capacity.",
                Sample::Gauge(queue_capacity as u64),
            ),
            row(
                "queue.workers",
                "fragalign_workers",
                "Worker-pool size.",
                Sample::Gauge(workers as u64),
            ),
            row(
                "queue.busy_workers",
                "fragalign_busy_workers",
                "Workers currently mid-connection.",
                gauge(Stat::BusyWorkers),
            ),
            row(
                "cache.hits",
                "fragalign_cache_hits_total",
                "Result-cache hits.",
                Sample::Counter(cache.hits),
            ),
            row(
                "cache.misses",
                "fragalign_cache_misses_total",
                "Result-cache misses.",
                Sample::Counter(cache.misses),
            ),
            row(
                "cache.evictions",
                "fragalign_cache_evictions_total",
                "Result-cache LRU evictions.",
                Sample::Counter(cache.evictions),
            ),
            row(
                "cache.entries",
                "fragalign_cache_entries",
                "Result-cache resident entries.",
                Sample::Gauge(cache.entries as u64),
            ),
            row(
                "cache.bytes",
                "fragalign_cache_bytes",
                "Result-cache resident bytes.",
                Sample::Gauge(cache.bytes as u64),
            ),
            row(
                "latency",
                "fragalign_request_duration_seconds",
                "End-to-end latency (queue wait + handling).",
                Sample::Histogram(&self.latency),
            ),
            row(
                "queue_wait",
                "fragalign_queue_wait_seconds",
                "Time connections waited for a worker.",
                Sample::Histogram(&self.queue_wait),
            ),
            row(
                "service",
                "fragalign_service_seconds",
                "Time spent handling requests, by a worker or as an inline cache hit.",
                Sample::Histogram(&self.service),
            ),
            row(
                "solve_latency",
                "fragalign_solve_duration_seconds",
                "Solve wall time per solver.",
                Sample::PerSolverHistogram(&self.solve_latency),
            ),
        ]
    }

    /// The `/metrics` JSON document: one key per family of the table,
    /// in table order.
    pub fn json(&self, workers: usize, queue_capacity: usize, cache: CacheStats) -> Value {
        let names = SolverRegistry::global().names();
        let mut doc: Vec<(String, Value)> = Vec::new();
        for family in self.families(workers, queue_capacity, &cache) {
            if family.sample.is_empty() {
                continue;
            }
            let value = match family.sample {
                Sample::Counter(v) | Sample::Gauge(v) => v.serialize(),
                Sample::Uptime(secs) => Value::Float(secs),
                Sample::PerSolver(counts) => Value::Object(
                    names
                        .iter()
                        .zip(counts)
                        .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed).serialize()))
                        .collect(),
                ),
                Sample::Histogram(h) => h.summary(),
                Sample::PerSolverHistogram(hs) => Value::Object(
                    names
                        .iter()
                        .zip(hs)
                        .filter(|(_, h)| h.count() > 0)
                        .map(|(name, h)| (name.to_string(), h.summary()))
                        .collect(),
                ),
            };
            match family.json.split_once('.') {
                None => doc.push((family.json.to_string(), value)),
                Some((group, key)) => {
                    if doc.last().is_none_or(|(k, _)| k != group) {
                        doc.push((group.to_string(), Value::Object(Vec::new())));
                    }
                    let Some((_, Value::Object(fields))) = doc.last_mut() else {
                        unreachable!("a group is an object")
                    };
                    fields.push((key.to_string(), value));
                }
            }
        }
        Value::Object(doc)
    }

    /// The Prometheus text exposition (version 0.0.4): one HELP/TYPE
    /// block per family of the table, in table order. Histograms are
    /// real cumulative bucket sets in seconds.
    pub fn prometheus(&self, workers: usize, queue_capacity: usize, cache: CacheStats) -> String {
        let names = SolverRegistry::global().names();
        let mut out = String::with_capacity(4096);
        for Family {
            prom: name,
            help,
            sample,
            ..
        } in self.families(workers, queue_capacity, &cache)
        {
            if sample.is_empty() {
                continue;
            }
            let kind = match sample {
                Sample::Counter(_) | Sample::PerSolver(_) => "counter",
                Sample::Gauge(_) | Sample::Uptime(_) => "gauge",
                Sample::Histogram(_) | Sample::PerSolverHistogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            match sample {
                Sample::Counter(v) | Sample::Gauge(v) => out.push_str(&format!("{name} {v}\n")),
                Sample::Uptime(secs) => out.push_str(&format!("{name} {secs}\n")),
                Sample::PerSolver(counts) => {
                    for (solver, c) in names.iter().zip(counts) {
                        out.push_str(&format!(
                            "{name}{{solver=\"{solver}\"}} {}\n",
                            c.load(Ordering::Relaxed)
                        ));
                    }
                }
                Sample::Histogram(h) => h.render_prometheus(&mut out, name, ""),
                Sample::PerSolverHistogram(hs) => {
                    for (solver, h) in names.iter().zip(hs) {
                        if h.count() > 0 {
                            h.render_prometheus(&mut out, name, &format!("solver=\"{solver}\""));
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_conservative() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64, 128) µs
        }
        h.record(Duration::from_millis(80)); // bucket [65.5, 131) ms
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        assert!((0.1..=0.2).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ms(0.99);
        assert!((0.1..=0.2).contains(&p99), "p99 = {p99}");
        let p100 = h.quantile_ms(1.0);
        assert!((80.0..=160.0).contains(&p100), "p100 = {p100}");
        assert_eq!(Histogram::new().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn quantile_error_at_most_2x_on_seeded_distributions() {
        // Seeded xorshift draws across three decades of latency; the
        // histogram quantile must stay within [true, 2 × true] at
        // every probed q — including q = 1.0, which the unclamped
        // top-bucket read used to overstate.
        for seed in [1u64, 42, 0xdecafbad] {
            let mut s = seed;
            let mut step = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let h = Histogram::new();
            let mut xs: Vec<u64> = (0..500).map(|_| 1 + step() % 200_000).collect();
            for &x in &xs {
                h.record(Duration::from_micros(x));
            }
            xs.sort_unstable();
            for q in [0.5, 0.9, 0.99, 1.0] {
                let target = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
                let true_ms = xs[target - 1] as f64 / 1000.0;
                let est = h.quantile_ms(q);
                assert!(est >= true_ms, "seed {seed} q {q}: {est} < {true_ms}");
                assert!(
                    est <= 2.0 * true_ms,
                    "seed {seed} q {q}: {est} > 2x {true_ms}"
                );
            }
        }
    }

    #[test]
    fn top_bucket_quantile_clamps_to_observed_max() {
        // One observation deep in the open-ended top bucket: the
        // quantile is the observation itself, not the bucket's
        // ~12.7-day upper bound.
        let h = Histogram::new();
        let big = Duration::from_secs(1_000_000); // 1e12 µs, bucket 39
        h.record(big);
        let p100 = h.quantile_ms(1.0);
        assert_eq!(p100, 1e9, "clamped to the observation, got {p100}");
        assert!(p100 < 2f64.powi(40) / 1000.0);
    }

    #[test]
    fn prometheus_document_renders_counters_and_histograms() {
        let t = Telemetry::new();
        t.record_response(200);
        t.record_solve(0);
        t.latency.record(Duration::from_millis(3));
        t.queue_wait.record(Duration::from_micros(40));
        t.service.record(Duration::from_millis(2));
        t.record_solve_latency(0, Duration::from_millis(2));
        t.add(Stat::TracedRequests, 1);
        t.add(Stat::TraceEventsDropped, 5);
        t.add(Stat::ConnectionsAccepted, 2);
        t.add(Stat::ConnectionsOpen, 2);
        t.sub(Stat::ConnectionsOpen, 1);
        t.add(Stat::KeepaliveReuse, 1);
        t.add(Stat::AdmissionDegraded, 1);
        t.add(Stat::SampledTraces, 1);
        let text = t.prometheus(4, 64, crate::ResultCache::new(2, 1024).stats());
        for needle in [
            "fragalign_requests_total 1",
            "fragalign_traced_requests_total 1",
            "fragalign_trace_events_dropped_total 5",
            "fragalign_connections_accepted_total 2",
            "fragalign_connections_open 1",
            "fragalign_keepalive_reuse_total 1",
            "fragalign_admission_degraded_total 1",
            "fragalign_sampled_traces_total 1",
            "fragalign_solve_requests_total{solver=\"csr\"} 1",
            "fragalign_cache_evictions_total 0",
            "# TYPE fragalign_request_duration_seconds histogram",
            "fragalign_request_duration_seconds_count 1",
            "fragalign_queue_wait_seconds_bucket{le=\"+Inf\"} 1",
            "fragalign_solve_duration_seconds_bucket{solver=\"csr\",le=\"+Inf\"} 1",
            "fragalign_solve_duration_seconds_count{solver=\"csr\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_document_reflects_counters() {
        let t = Telemetry::new();
        t.record_response(200);
        t.record_response(400);
        t.add(Stat::Rejected503, 1);
        t.record_solve(0);
        t.record_solve(0);
        t.add(Stat::BatchRequests, 1);
        t.latency.record(Duration::from_millis(3));
        t.add(Stat::QueueDepth, 1);
        t.add(Stat::ConnectionsAccepted, 1);
        t.add(Stat::ConnectionsOpen, 1);
        t.add(Stat::KeepaliveReuse, 1);
        t.add(Stat::AdmissionDegraded, 1);
        t.add(Stat::SampledTraces, 1);
        let doc = t.json(4, 64, crate::ResultCache::new(2, 1024).stats());
        let at = |path: &str| {
            path.split('.')
                .try_fold(&doc, |v, key| v.get(key))
                .unwrap_or_else(|| panic!("no {path} in {doc:?}"))
                .clone()
        };
        for (path, want) in [
            ("requests_total", 2),
            ("connections_accepted", 1),
            ("connections_open", 1),
            ("keepalive_reuse", 1),
            ("admission_degraded", 1),
            ("sampled_traces", 1),
            ("client_errors_4xx", 1),
            ("rejected_503", 1),
            ("solve_requests.csr", 2),
            ("solve_requests.full", 0),
            ("batch_requests", 1),
            ("latency.count", 1),
            ("queue.depth", 1),
            ("queue.capacity", 64),
            ("cache.hits", 0),
        ] {
            assert_eq!(at(path), Value::Int(want), "{path}");
        }
        // No solver ran a solve, so no per-solver latency is listed.
        assert_eq!(doc.get("solve_latency"), None);
        t.record_solve_latency(0, Duration::from_millis(2));
        let doc = t.json(4, 64, crate::ResultCache::new(2, 1024).stats());
        let solve_latency = doc.get("solve_latency").and_then(Value::as_object);
        assert_eq!(
            solve_latency.map(|s| s.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()),
            Some(vec!["csr"])
        );
    }

    /// Every row of the table reaches both exports: its JSON key is at
    /// its path, its family has a `# TYPE` line, and a counter or
    /// gauge reads the same value in both. Each stat holds a distinct
    /// value, so a row that reads the wrong stat shows too.
    #[test]
    fn every_family_reaches_both_exports() {
        let t = Telemetry::new();
        for (i, stat) in t.stats.iter().enumerate() {
            stat.store(100 + i as u64, Ordering::Relaxed);
        }
        t.record_solve(0);
        t.record_solve_latency(0, Duration::from_micros(1_500));
        t.latency.record(Duration::from_micros(2_500));
        t.queue_wait.record(Duration::from_micros(100));
        t.service.record(Duration::from_micros(2_400));
        let cache = CacheStats {
            hits: 5,
            misses: 7,
            evictions: 2,
            entries: 3,
            bytes: 4096,
        };
        let json = t.json(4, 64, cache);
        let prom = t.prometheus(4, 64, cache);
        let families = t.families(4, 64, &cache);
        let mut stats_seen = Vec::new();
        for family in &families {
            let value = family
                .json
                .split('.')
                .try_fold(&json, |v, key| v.get(key))
                .unwrap_or_else(|| panic!("JSON document lacks {}", family.json));
            let type_line = format!("# TYPE {} ", family.prom);
            assert!(prom.contains(&type_line), "exposition lacks {type_line:?}");
            if let Sample::Counter(v) | Sample::Gauge(v) = family.sample {
                assert_eq!(value, &Value::Int(v as i64), "{}", family.json);
                let sample = format!("{} {v}", family.prom);
                assert!(
                    prom.lines().any(|l| l == sample),
                    "exposition lacks {sample:?}"
                );
                if (100..100 + Stat::COUNT as u64).contains(&v) {
                    stats_seen.push(v);
                }
            }
        }
        stats_seen.sort_unstable();
        assert_eq!(
            stats_seen,
            (100..100 + Stat::COUNT as u64).collect::<Vec<_>>(),
            "every stat must be read by exactly one row"
        );
    }
}
