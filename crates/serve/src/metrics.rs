//! Service telemetry: request counters, queue gauges, and an
//! approximate latency histogram, all lock-free atomics so the hot
//! path never serialises on a metrics mutex.

use crate::cache::CacheStats;
use fragalign_core::SolverRegistry;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

    /// Sum of all observations, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1000.0
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

/// All service counters (see module docs). One instance per server,
/// shared by the acceptor and every worker.
pub struct Telemetry {
    start: Instant,
    requests: AtomicU64,
    rejected_busy: AtomicU64,
    client_errors: AtomicU64,
    unknown_solver: AtomicU64,
    batch_requests: AtomicU64,
    /// `/v1/solve` requests per registered solver, registry order.
    solve_requests: Vec<AtomicU64>,
    queue_depth: AtomicUsize,
    busy_workers: AtomicUsize,
    latency: Histogram,
    /// Time a connection sat in the bounded queue before a worker
    /// picked it up.
    queue_wait: Histogram,
    /// Time the worker spent actually handling the connection
    /// (`latency` ≈ `queue_wait` + `service` per request).
    service: Histogram,
    /// Per-solver solve latency (registry order; `/v1/solve` only).
    solve_latency: Vec<Histogram>,
    /// `?trace=1` requests served.
    traced_requests: AtomicU64,
    /// Trace events lost to ring overwrite across all traced requests
    /// (the obs layer's drop-oldest policy, made visible).
    trace_events_dropped: AtomicU64,
    /// Connections the event loop ever accepted.
    connections_accepted: AtomicU64,
    /// Connections currently alive (idle, reading, or being served).
    connections_open: AtomicUsize,
    /// Requests served on an already-used connection (request ≥ 2 on
    /// its keep-alive connection).
    keepalive_reuse: AtomicU64,
    /// Solve requests rerouted to a cheap tier by admission control.
    admission_degraded: AtomicU64,
    /// Plain requests traced by the 1-in-N sampler (`--trace-sample`).
    sampled_traces: AtomicU64,
}

impl Telemetry {
    /// Fresh counters; the per-solver table is sized from the global
    /// registry.
    pub fn new() -> Self {
        Telemetry {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            unknown_solver: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            solve_requests: SolverRegistry::global()
                .names()
                .iter()
                .map(|_| AtomicU64::new(0))
                .collect(),
            queue_depth: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
            solve_latency: SolverRegistry::global()
                .names()
                .iter()
                .map(|_| Histogram::new())
                .collect(),
            traced_requests: AtomicU64::new(0),
            trace_events_dropped: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_open: AtomicUsize::new(0),
            keepalive_reuse: AtomicU64::new(0),
            admission_degraded: AtomicU64::new(0),
            sampled_traces: AtomicU64::new(0),
        }
    }

    /// The event loop accepted a connection (it is now open).
    pub fn note_conn_opened(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection closed (any path: served, idle-timed-out, error).
    pub fn note_conn_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently alive.
    pub fn connections_open(&self) -> usize {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// A request arrived on an already-used keep-alive connection.
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuse.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control rerouted a solve to a cheap tier.
    pub fn record_degraded(&self) {
        self.admission_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// The 1-in-N sampler traced a plain request.
    pub fn record_sampled(&self) {
        self.sampled_traces.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection entered the worker queue.
    pub fn note_queued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection left the worker queue (picked up or rejected).
    pub fn note_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently waiting in the worker queue.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// A worker started (`true`) or finished (`false`) a connection.
    pub fn note_busy(&self, busy: bool) {
        if busy {
            self.busy_workers.fetch_add(1, Ordering::Relaxed);
        } else {
            self.busy_workers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Workers currently handling a connection.
    pub fn busy_workers(&self) -> usize {
        self.busy_workers.load(Ordering::Relaxed)
    }

    /// A worker finished a connection with response `status`.
    pub fn record_response(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if (400..500).contains(&status) {
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The acceptor turned a connection away with `503` (queue full).
    pub fn record_rejected(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// A `/v1/solve` request resolved to the solver at registry
    /// position `pos`.
    pub fn record_solve(&self, pos: usize) {
        self.solve_requests[pos].fetch_add(1, Ordering::Relaxed);
    }

    /// A `/v1/solve` request named an unregistered solver.
    pub fn record_unknown_solver(&self) {
        self.unknown_solver.fetch_add(1, Ordering::Relaxed);
    }

    /// A `/v1/batch` request arrived.
    pub fn record_batch(&self) {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// One end-to-end observation (queue wait + handling).
    pub fn record_latency(&self, d: Duration) {
        self.latency.record(d);
    }

    /// Time one connection waited in the queue before pickup.
    pub fn record_queue_wait(&self, d: Duration) {
        self.queue_wait.record(d);
    }

    /// Time one connection spent being handled by its worker.
    pub fn record_service(&self, d: Duration) {
        self.service.record(d);
    }

    /// Solve wall time for the solver at registry position `pos`.
    pub fn record_solve_latency(&self, pos: usize, d: Duration) {
        self.solve_latency[pos].record(d);
    }

    /// A `?trace=1` request completed, losing `dropped` events to the
    /// trace ring's drop-oldest overwrite.
    pub fn record_traced(&self, dropped: u64) {
        self.traced_requests.fetch_add(1, Ordering::Relaxed);
        self.trace_events_dropped
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Assemble the `/metrics` document.
    pub fn snapshot(
        &self,
        workers: usize,
        queue_capacity: usize,
        cache: CacheStats,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_secs: self.uptime_secs(),
            requests_total: self.requests.load(Ordering::Relaxed),
            rejected_503: self.rejected_busy.load(Ordering::Relaxed),
            client_errors_4xx: self.client_errors.load(Ordering::Relaxed),
            unknown_solver_requests: self.unknown_solver.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            solve_requests: SolverRegistry::global()
                .names()
                .iter()
                .zip(&self.solve_requests)
                .zip(&self.solve_latency)
                .map(|((name, count), lat)| SolverRequests {
                    solver: (*name).to_string(),
                    requests: count.load(Ordering::Relaxed),
                    latency: LatencySnapshot::of(lat),
                })
                .collect(),
            latency: LatencySnapshot::of(&self.latency),
            queue_wait: LatencySnapshot::of(&self.queue_wait),
            service: LatencySnapshot::of(&self.service),
            traced_requests: self.traced_requests.load(Ordering::Relaxed),
            trace_events_dropped: self.trace_events_dropped.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open(),
            keepalive_reuse: self.keepalive_reuse.load(Ordering::Relaxed),
            admission_degraded: self.admission_degraded.load(Ordering::Relaxed),
            sampled_traces: self.sampled_traces.load(Ordering::Relaxed),
            queue: QueueSnapshot {
                depth: self.queue_depth(),
                capacity: queue_capacity,
                workers,
                busy_workers: self.busy_workers(),
            },
            cache,
        }
    }

    /// Render the whole telemetry set in the Prometheus text
    /// exposition format (version 0.0.4): every counter and gauge of
    /// the JSON document plus real cumulative histograms for
    /// end-to-end latency, queue wait, service time, and per-solver
    /// solve latency (solvers that served no request render counters
    /// only, keeping the document compact).
    pub fn prometheus(&self, workers: usize, queue_capacity: usize, cache: CacheStats) -> String {
        let mut out = String::with_capacity(4096);
        let gauge = |out: &mut String, name: &str, help: &str, v: f64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        gauge(
            &mut out,
            "fragalign_uptime_seconds",
            "Seconds since the server started.",
            self.uptime_secs(),
        );
        counter(
            &mut out,
            "fragalign_requests_total",
            "Connections handled by workers (any status).",
            self.requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_rejected_503_total",
            "Connections rejected because the queue was full.",
            self.rejected_busy.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_client_errors_4xx_total",
            "Worker responses with a 4xx status.",
            self.client_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_unknown_solver_requests_total",
            "Solve requests naming an unregistered solver.",
            self.unknown_solver.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_batch_requests_total",
            "Batch requests received.",
            self.batch_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_traced_requests_total",
            "Requests served with ?trace=1.",
            self.traced_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_trace_events_dropped_total",
            "Trace events lost to the ring's drop-oldest overwrite.",
            self.trace_events_dropped.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_sampled_traces_total",
            "Plain requests traced by the 1-in-N sampler.",
            self.sampled_traces.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_connections_accepted_total",
            "Connections accepted by the event loop.",
            self.connections_accepted.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "fragalign_connections_open",
            "Connections currently alive (idle, reading, or served).",
            self.connections_open() as f64,
        );
        counter(
            &mut out,
            "fragalign_keepalive_reuse_total",
            "Requests served on an already-used keep-alive connection.",
            self.keepalive_reuse.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fragalign_admission_degraded_total",
            "Solve requests rerouted to a cheap tier under load.",
            self.admission_degraded.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP fragalign_solve_requests_total Solve requests per registered solver.\n\
             # TYPE fragalign_solve_requests_total counter\n",
        );
        let names = SolverRegistry::global().names();
        for (name, count) in names.iter().zip(&self.solve_requests) {
            out.push_str(&format!(
                "fragalign_solve_requests_total{{solver=\"{name}\"}} {}\n",
                count.load(Ordering::Relaxed)
            ));
        }
        gauge(
            &mut out,
            "fragalign_queue_depth",
            "Connections waiting in the bounded queue.",
            self.queue_depth() as f64,
        );
        gauge(
            &mut out,
            "fragalign_queue_capacity",
            "The bounded queue's capacity.",
            queue_capacity as f64,
        );
        gauge(
            &mut out,
            "fragalign_workers",
            "Worker-pool size.",
            workers as f64,
        );
        gauge(
            &mut out,
            "fragalign_busy_workers",
            "Workers currently mid-connection.",
            self.busy_workers() as f64,
        );
        counter(
            &mut out,
            "fragalign_cache_hits_total",
            "Result-cache hits.",
            cache.hits,
        );
        counter(
            &mut out,
            "fragalign_cache_misses_total",
            "Result-cache misses.",
            cache.misses,
        );
        counter(
            &mut out,
            "fragalign_cache_evictions_total",
            "Result-cache LRU evictions.",
            cache.evictions,
        );
        gauge(
            &mut out,
            "fragalign_cache_entries",
            "Result-cache resident entries.",
            cache.entries as f64,
        );
        gauge(
            &mut out,
            "fragalign_cache_bytes",
            "Result-cache resident bytes.",
            cache.bytes as f64,
        );
        let histo = |out: &mut String, name: &str, help: &str, h: &Histogram, labels: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            h.render_prometheus(out, name, labels);
        };
        histo(
            &mut out,
            "fragalign_request_duration_seconds",
            "End-to-end latency (queue wait + handling).",
            &self.latency,
            "",
        );
        histo(
            &mut out,
            "fragalign_queue_wait_seconds",
            "Time connections waited for a worker.",
            &self.queue_wait,
            "",
        );
        histo(
            &mut out,
            "fragalign_service_seconds",
            "Time workers spent handling connections.",
            &self.service,
            "",
        );
        let mut solver_histos = String::new();
        for (name, h) in names.iter().zip(&self.solve_latency) {
            if h.count() > 0 {
                h.render_prometheus(
                    &mut solver_histos,
                    "fragalign_solve_duration_seconds",
                    &format!("solver=\"{name}\""),
                );
            }
        }
        if !solver_histos.is_empty() {
            out.push_str(
                "# HELP fragalign_solve_duration_seconds Solve wall time per solver.\n\
                 # TYPE fragalign_solve_duration_seconds histogram\n",
            );
            out.push_str(&solver_histos);
        }
        out
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// `/v1/solve` traffic for one registered solver.
#[derive(Serialize)]
pub struct SolverRequests {
    /// Registered solver name.
    pub solver: String,
    /// Fully-validated `/v1/solve` requests that asked for it
    /// (cache hits included; batch traffic and requests rejected
    /// during validation are not counted here).
    pub requests: u64,
    /// Solve wall time for this solver (cache hits excluded — only
    /// actual solves are timed).
    pub latency: LatencySnapshot,
}

/// Latency summary over one histogram.
#[derive(Serialize)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Approximate median, milliseconds (bucket upper bound, clamped
    /// to the largest observation).
    pub p50_ms: f64,
    /// Approximate 99th percentile, milliseconds (bucket upper bound,
    /// clamped to the largest observation).
    pub p99_ms: f64,
}

impl LatencySnapshot {
    fn of(h: &Histogram) -> Self {
        LatencySnapshot {
            count: h.count(),
            p50_ms: h.quantile_ms(0.50),
            p99_ms: h.quantile_ms(0.99),
        }
    }
}

/// Worker-queue occupancy at snapshot time.
#[derive(Serialize)]
pub struct QueueSnapshot {
    /// Connections waiting in the bounded queue.
    pub depth: usize,
    /// The queue's capacity (`--queue-depth`).
    pub capacity: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Workers currently mid-connection.
    pub busy_workers: usize,
}

/// The `/metrics` document.
#[derive(Serialize)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Connections handled by workers (any status).
    pub requests_total: u64,
    /// Connections rejected by the acceptor because the queue was full.
    pub rejected_503: u64,
    /// Worker responses with a 4xx status.
    pub client_errors_4xx: u64,
    /// `/v1/solve` requests naming an unregistered solver.
    pub unknown_solver_requests: u64,
    /// `/v1/batch` requests.
    pub batch_requests: u64,
    /// `/v1/solve` traffic per registered solver, registry order.
    pub solve_requests: Vec<SolverRequests>,
    /// End-to-end latency (queue wait + handling).
    pub latency: LatencySnapshot,
    /// Time connections waited in the bounded queue for a worker.
    pub queue_wait: LatencySnapshot,
    /// Time workers spent handling connections.
    pub service: LatencySnapshot,
    /// Requests served with `?trace=1`.
    pub traced_requests: u64,
    /// Trace events lost to the ring's drop-oldest overwrite.
    pub trace_events_dropped: u64,
    /// Connections the event loop ever accepted.
    pub connections_accepted: u64,
    /// Connections currently alive (idle, reading, or being served).
    pub connections_open: usize,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuse: u64,
    /// Solve requests rerouted to a cheap tier by admission control.
    pub admission_degraded: u64,
    /// Plain requests traced by the 1-in-N sampler.
    pub sampled_traces: u64,
    /// Worker-queue occupancy.
    pub queue: QueueSnapshot,
    /// Result-cache counters.
    pub cache: CacheStats,
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
        t.record_latency(Duration::from_millis(3));
        t.record_queue_wait(Duration::from_micros(40));
        t.record_service(Duration::from_millis(2));
        t.record_solve_latency(0, Duration::from_millis(2));
        t.record_traced(5);
        t.note_conn_opened();
        t.note_conn_opened();
        t.note_conn_closed();
        t.record_keepalive_reuse();
        t.record_degraded();
        t.record_sampled();
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
    fn snapshot_reflects_counters() {
        let t = Telemetry::new();
        t.record_response(200);
        t.record_response(400);
        t.record_rejected();
        t.record_solve(0);
        t.record_solve(0);
        t.record_batch();
        t.record_latency(Duration::from_millis(3));
        t.note_queued();
        t.note_conn_opened();
        t.record_keepalive_reuse();
        t.record_degraded();
        t.record_sampled();
        let snap = t.snapshot(4, 64, crate::ResultCache::new(2, 1024).stats());
        assert_eq!(snap.requests_total, 2);
        assert_eq!(snap.connections_accepted, 1);
        assert_eq!(snap.connections_open, 1);
        assert_eq!(snap.keepalive_reuse, 1);
        assert_eq!(snap.admission_degraded, 1);
        assert_eq!(snap.sampled_traces, 1);
        assert_eq!(snap.client_errors_4xx, 1);
        assert_eq!(snap.rejected_503, 1);
        assert_eq!(snap.solve_requests[0].requests, 2);
        assert_eq!(snap.batch_requests, 1);
        assert_eq!(snap.latency.count, 1);
        assert_eq!(snap.queue.depth, 1);
        assert_eq!(snap.queue.capacity, 64);
        // The whole document serialises.
        assert!(serde_json::to_string(&snap)
            .unwrap()
            .contains("uptime_secs"));
    }
}
