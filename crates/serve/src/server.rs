//! The service: an event-driven connection layer over a fixed worker
//! pool, with load-aware admission control and the sharded result
//! cache in front of the solver engine.
//!
//! ## Concurrency model
//!
//! One event-loop thread owns the nonblocking listener, a `poll(2)`
//! interest list (see [`crate::poll`]), and every connection that is
//! idle, mid-read, or mid-write. Each connection is a connection
//! machine (`Conn`, in `conn.rs`) holding the socket and its read and
//! write buffers. Every turn the loop asks each machine what it waits
//! for — readability, writability alone (it owes output, and reads
//! nothing until that has left), or nothing because it idled out and
//! closes — and pumps the ready ones: a pump writes what is owed, reads
//! what has arrived and feeds it through [`crate::http::try_parse`]
//! until a full request materialises, which the loop hands with its
//! connection to the bounded worker queue. A connection therefore
//! occupies a worker thread only while a fully-parsed request is being
//! solved — thousands of idle keep-alive connections cost zero threads,
//! and a slowloris client dribbling header bytes costs one buffer and
//! an idle timer, never a worker.
//!
//! Every response, whoever answers it, is queued by `Conn::respond` and
//! written by the machine until its buffer empties or the socket is
//! full. A worker answers through `Conn::answer` and, unless the reply
//! has left and the connection is done, hands the connection back over
//! an in-process return queue (plus one wakeup byte on a loopback
//! socket pair, since `poll` cannot watch an mpsc channel), with any
//! unwritten output and pipelined leftover bytes. The machine takes the
//! time from its caller and runs over any byte stream, so a property in
//! `conn.rs` drives it without a socket.
//!
//! The loop frames requests but never decodes a body. For a plain
//! `POST /v1/solve` it fingerprints the raw body and looks it up in the
//! body memo that [`ServeState`] owns; on a memo hit it resolves
//! admission at the current load and answers a cache hit inline.
//! Everything else — an unseen body, a cache miss, a traced request —
//! goes to a worker, which decodes the body once, under
//! `catch_unwind`, and publishes the body's memo entry before it looks
//! up the cache or answers.
//!
//! Backpressure has three stages instead of the old cliff: below the
//! degrade watermark everything is solved as asked; above it, big
//! instances are rerouted to cheap tiers by [`AdmissionPolicy`] (the
//! response says so in `X-Fragalign-Degraded`); above the hard
//! watermark — or when the queue itself is full — the loop answers
//! `503` in microseconds without touching a worker.
//!
//! Each worker owns one [`DpWorkspace`] for its whole lifetime — the
//! same shared-nothing reuse discipline as the batch pipeline, so two
//! concurrent requests never share a DP buffer and results are
//! bit-identical to a direct [`solve_single_traced`] call. The result
//! cache above the workers is the only cross-request state, and it
//! stores finished response bodies keyed by (solver actually run,
//! options, canonical instance) — degraded responses are keyed under
//! the cheap tier that produced them, so a cache entry always equals
//! a direct solve by its key's solver.
//!

use crate::admission::{AdmissionConfig, AdmissionPolicy};
use crate::cache::{self, Fingerprint, ResultCache};
use crate::conn::{Conn, Interest, Pump, MAX_REQUESTS_PER_TURN};
use crate::http::Request;
use crate::metrics::{Stat, Telemetry};
use crate::poll::{self, Poller};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use fragalign_align::DpWorkspace;
use fragalign_core::engine::{InstanceFeatures, TraceHandle, TraceSink};
use fragalign_core::{
    solve_single_traced, BatchOptions, EngineError, EngineOptions, SolveReport, SolverRegistry,
};
use fragalign_model::{Instance, MatchSet, Score};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest fragment a served instance may name, in regions. An `n`-region
/// fragment costs `(n + 1)²` cells in every interval table it is the
/// container of; the longest fragment any benchmark workload generates
/// has 67 regions. The CLI takes larger local inputs.
pub const MAX_FRAGMENT_REGIONS: usize = 1024;

/// Most interval-table cells a served instance may need: `(|g| + 1)²`
/// for every fragment `g`, once per fragment of the other species (one
/// table per plug). Each cell holds two scores, and the border tables
/// need at most twice as many cells again, so this caps a request's
/// score tables at about 64 MiB. The largest benchmark instance needs
/// about 43,000 cells.
pub const MAX_TABLE_CELLS: usize = 1 << 21;

/// The service's configuration. `fragalign serve` sets every field by
/// a flag except `cache_shards` and `max_body_bytes`, and of
/// `admission` only `enabled` (`--admission on|off`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker-pool size (each worker owns a warm DP workspace).
    pub workers: usize,
    /// Bounded request-queue capacity; beyond it the event loop
    /// answers 503.
    pub queue_depth: usize,
    /// Result-cache budget in MiB (0 disables caching).
    pub cache_mb: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Solver used when a request names none.
    pub default_solver: String,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Most connections the event loop will hold open at once; past
    /// it new connections get an immediate 503.
    pub max_conns: usize,
    /// A connection that moves no bytes in either direction for this
    /// long is closed: an idle keep-alive connection, a client that
    /// stops mid-request (the slowloris defense), or one that stops
    /// reading the responses queued for it.
    pub idle_timeout_ms: u64,
    /// The admission-control watermarks.
    pub admission: AdmissionConfig,
    /// Trace one in this many plain solves into a shared sink served
    /// at `GET /debug/trace` (0 disables sampling).
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    /// Loopback, 4 workers, queue of 64, 32 MiB cache over 16 shards,
    /// the shape-routing `auto` solver, 1024 connections, 30 s idle
    /// timeout, admission on at the default watermarks, sampling off.
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_mb: 32,
            cache_shards: 16,
            default_solver: "auto".to_string(),
            max_body_bytes: 16 * 1024 * 1024,
            max_conns: 1024,
            idle_timeout_ms: 30_000,
            admission: AdmissionConfig::default(),
            trace_sample: 0,
        }
    }
}

/// The 1-in-N sampler: a shared sink plus the tick counter that
/// decides which plain solves get a recording handle.
pub(crate) struct Sampler {
    /// The active sink. `GET /debug/trace` swaps in a fresh ring and
    /// snapshots the old one, so each drain returns only spans
    /// recorded since the previous drain (a solve racing the swap may
    /// land its spans in the retired ring and go unreported — fine
    /// for a debug endpoint).
    sink: Mutex<Arc<TraceSink>>,
    every: u64,
    ticks: AtomicU64,
}

impl Sampler {
    /// Whether this tick's request is the 1-in-N one.
    fn fires(&self) -> bool {
        self.ticks
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }

    /// A clone of the currently active sink.
    pub(crate) fn current(&self) -> Arc<TraceSink> {
        Arc::clone(&self.sink.lock().expect("sampler lock poisoned"))
    }

    /// Swap in a fresh ring and return the retired one for draining.
    fn rotate(&self) -> Arc<TraceSink> {
        let mut slot = self.sink.lock().expect("sampler lock poisoned");
        std::mem::replace(&mut slot, TraceSink::new())
    }
}

/// State shared by the event loop and every worker. Tests read the
/// gauges through [`Server::state`].
pub struct ServeState {
    /// All counters and gauges.
    pub telemetry: Telemetry,
    /// The sharded result cache.
    pub cache: ResultCache,
    /// Raw `/v1/solve` body fingerprint → that body's [`PrepMemo`].
    /// Workers publish entries and the event loop reads them; the map
    /// is cleared wholesale at [`PREP_MEMO_CAP`] entries.
    prep_memo: parking_lot::Mutex<HashMap<Fingerprint, PrepMemo>>,
    default_solver: &'static str,
    queue_capacity: usize,
    workers: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) idle_timeout: Duration,
    max_conns: usize,
    admission: AdmissionPolicy,
    pub(crate) sampler: Option<Sampler>,
}

/// One parsed request travelling to a worker, carrying its connection
/// and the queue load observed at enqueue time (so the admission
/// decision is reproducible from the stamped value, not a re-read of
/// a moving gauge).
struct Job {
    conn: Conn<TcpStream>,
    request: Request,
    load: f64,
    enqueued: Instant,
}

/// A running service; dropping it (or calling [`Server::shutdown`])
/// stops accepting, drains the queue, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    events: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, spawn the event loop and worker pool, and
    /// return the running server. Fails fast on an unbindable address
    /// or an unregistered default solver.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let state = Arc::new(ServeState::new(&cfg)?);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::bounded::<Job>(state.queue_capacity);
        let (ret_tx, ret_rx) = mpsc::channel::<Conn<TcpStream>>();
        let (wake_writer, wake_reader) = wake_pair()?;

        let worker_handles: Vec<JoinHandle<()>> = (0..state.workers)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                let ret_tx = ret_tx.clone();
                let wake = wake_writer.try_clone().expect("clone wake socket");
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(rx, ret_tx, wake, state))
                    .expect("spawn worker thread")
            })
            .collect();
        drop(ret_tx);
        let events = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("serve-events".to_string())
                .spawn(move || event_loop(listener, tx, ret_rx, wake_reader, state, shutdown))
                .expect("spawn event-loop thread")
        };

        Ok(Server {
            addr,
            state,
            shutdown,
            events: Some(events),
            workers: worker_handles,
        })
    }

    /// The bound address (the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared gauges and cache, for tests and load harnesses.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Graceful stop: stop accepting, finish every queued and
    /// in-flight request, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(events) = self.events.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the loop out of its poll promptly; it re-checks the
        // flag every turn anyway (the wait is capped).
        let _ = TcpStream::connect(self.addr);
        let _ = events.join();
        // The loop dropped the job sender, so workers drain whatever
        // is queued and then see a disconnected channel.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ServeState {
    /// The state a server configured by `cfg` starts from. Fails on an
    /// unregistered default solver.
    pub(crate) fn new(cfg: &ServeConfig) -> io::Result<ServeState> {
        let default_solver = SolverRegistry::global()
            .spec(&cfg.default_solver)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
            .name;
        Ok(ServeState {
            telemetry: Telemetry::new(),
            cache: ResultCache::new(cfg.cache_shards, cfg.cache_mb * 1024 * 1024),
            prep_memo: parking_lot::Mutex::new(HashMap::new()),
            default_solver,
            queue_capacity: cfg.queue_depth.max(1),
            workers: cfg.workers.max(1),
            max_body_bytes: cfg.max_body_bytes,
            idle_timeout: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
            max_conns: cfg.max_conns.max(1),
            admission: AdmissionPolicy::new(cfg.admission.clone()),
            sampler: (cfg.trace_sample > 0).then(|| Sampler {
                sink: Mutex::new(TraceSink::new()),
                every: cfg.trace_sample,
                ticks: AtomicU64::new(0),
            }),
        })
    }

    /// The `/metrics` JSON document for this instant.
    pub fn metrics(&self) -> Value {
        self.telemetry
            .json(self.workers, self.queue_capacity, self.cache.stats())
    }
}

/// A loopback socket pair: workers write a byte to the writer to wake
/// the event loop's poll after pushing a returned connection. (The
/// portable stand-in for `pipe(2)`/eventfd — no extra binding needed.)
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    // Nonblocking on both ends: a full wake buffer just means the
    // loop has plenty of reasons to wake already.
    writer.set_nonblocking(true)?;
    reader.set_nonblocking(true)?;
    writer.set_nodelay(true)?;
    Ok((writer, reader))
}

fn event_loop(
    listener: TcpListener,
    tx: Sender<Job>,
    ret_rx: mpsc::Receiver<Conn<TcpStream>>,
    wake_reader: TcpStream,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    let mut poller = Poller::new();
    let mut conns: Vec<Conn<TcpStream>> = Vec::new();
    let mut accepted: u64 = 0;

    while !shutdown.load(Ordering::SeqCst) {
        poller.clear();
        let listener_slot = poller.register(poll::listener_fd(&listener), true, false);
        let wake_slot = poller.register(poll::stream_fd(&wake_reader), true, false);
        let base = 2;
        // Close the connections that idled out and register the rest
        // for what each waits for, in order, so slot base+i is
        // conns[i]. Wake by the nearest idle deadline, capped so
        // shutdown and returned-connection checks never starve.
        let now = Instant::now();
        let mut timeout = Duration::from_millis(100);
        let interest = |conn: &mut Conn<TcpStream>| match conn.interest(now) {
            Interest::Idle => true,
            Interest::Poll { write, within } => {
                poller.register(conn.fd(), !write, write);
                timeout = timeout.min(within);
                false
            }
        };
        for conn in conns.extract_if(.., interest) {
            conn.close(now);
        }
        let polled = conns.len();
        if poller.wait(Some(timeout)).is_err() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let now = Instant::now();

        // Drain wake bytes (their only meaning is "check the return
        // queue", which we do unconditionally below).
        if poller.readable(wake_slot) {
            let mut bin = [0u8; 64];
            while matches!((&wake_reader).read(&mut bin), Ok(n) if n > 0) {}
        }

        // Connections back from a worker re-enter the poll set; they
        // are past `polled`, so they get pumped unconditionally this
        // turn: the rest of a reply the worker could not write goes
        // out, and any pipelined leftover parses.
        conns.extend(ret_rx.try_iter());

        if poller.readable(listener_slot) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        state.telemetry.add(Stat::ConnectionsAccepted, 1);
                        let sampled = state
                            .sampler
                            .as_ref()
                            .is_some_and(|s| accepted.is_multiple_of(s.every));
                        accepted += 1;
                        let mut conn = Conn::new(stream, &state, sampled, now);
                        if conns.len() >= state.max_conns {
                            let busy = Reply::busy(
                                "connection limit reached",
                                ("max_conns", state.max_conns),
                            );
                            conn.respond(&busy, false);
                        }
                        conns.push(conn);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Pump back-to-front so swap_remove only disturbs indices we
        // have already visited; slots base+i stay aligned for i <
        // polled.
        let mut i = conns.len();
        while i > 0 {
            i -= 1;
            if i < polled && !poller.readable(base + i) && !poller.writable(base + i) {
                continue;
            }
            for _ in 0..MAX_REQUESTS_PER_TURN {
                match conns[i].pump(now) {
                    Pump::Keep => break,
                    Pump::Close => {
                        conns.swap_remove(i).close(now);
                        break;
                    }
                    Pump::Dispatch(request) => {
                        let load = state.telemetry.get(Stat::QueueDepth) as f64
                            / state.queue_capacity as f64;
                        if state.admission.should_reject(load) {
                            let busy = Reply::busy(
                                "past the hard admission watermark",
                                ("queue_capacity", state.queue_capacity),
                            );
                            conns[i].respond(&busy, request.keep_alive);
                            continue;
                        }
                        // Cache hits (the hot path by construction —
                        // the cache exists because traffic repeats)
                        // are answered right here; only work that
                        // needs a solver costs a queue slot and a
                        // worker wakeup.
                        let t0 = Instant::now();
                        if let Some(reply) = try_inline_hit(&request, &state, load) {
                            state.telemetry.service.record(t0.elapsed());
                            state.telemetry.latency.record(t0.elapsed());
                            conns[i].respond(&reply, request.keep_alive);
                            continue;
                        }
                        state.telemetry.add(Stat::QueueDepth, 1);
                        let conn = conns.swap_remove(i);
                        match tx.try_send(Job {
                            conn,
                            request: *request,
                            load,
                            enqueued: Instant::now(),
                        }) {
                            Ok(()) => {}
                            Err(TrySendError::Full(job)) => {
                                state.telemetry.sub(Stat::QueueDepth, 1);
                                let mut conn = job.conn;
                                let busy = Reply::busy(
                                    "worker queue is full",
                                    ("queue_capacity", state.queue_capacity),
                                );
                                conn.respond(&busy, job.request.keep_alive);
                                conns.push(conn);
                            }
                            Err(TrySendError::Disconnected(job)) => {
                                job.conn.close(now);
                                return;
                            }
                        }
                        break;
                    }
                }
            }
        }
    }
    // Dropping `tx` lets the workers drain and exit; closing the conns
    // closes every remaining socket.
    let now = Instant::now();
    for conn in conns.drain(..) {
        conn.close(now);
    }
}

fn worker_loop(
    rx: Receiver<Job>,
    ret_tx: mpsc::Sender<Conn<TcpStream>>,
    wake: TcpStream,
    state: Arc<ServeState>,
) {
    let mut ws = DpWorkspace::new();
    while let Ok(Job {
        mut conn,
        request,
        load,
        enqueued,
    }) = rx.recv()
    {
        state.telemetry.sub(Stat::QueueDepth, 1);
        state.telemetry.add(Stat::BusyWorkers, 1);
        // Queue wait ends here; everything after is service time. Total
        // latency (wait + service) stays in the original histogram so
        // existing p99 numbers keep their meaning.
        state.telemetry.queue_wait.record(enqueued.elapsed());
        let service_started = Instant::now();
        // Contain panics: a request that trips a solver bug must cost
        // that request a 500, not the pool a worker (N such requests
        // would otherwise silently wedge the whole service).
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(&request, &state, &mut ws, load)
        }));
        let (reply, keep_alive) = match routed {
            Ok(reply) => (reply, request.keep_alive),
            Err(_) => {
                // The unwound handler may have left the scratch
                // workspace mid-surgery; replace it rather than trust
                // it.
                ws = DpWorkspace::new();
                (
                    Reply::error(500, "internal error: request handler panicked"),
                    false,
                )
            }
        };
        // Write what the socket takes now; whatever it does not take
        // goes back to the loop with the connection, so a client that
        // reads slowly costs a buffer, never a worker.
        let now = Instant::now();
        let back = conn.answer(&reply, keep_alive, now);
        state.telemetry.service.record(service_started.elapsed());
        state.telemetry.latency.record(enqueued.elapsed());
        state.telemetry.sub(Stat::BusyWorkers, 1);
        if !back {
            conn.close(now);
        } else if ret_tx.send(conn).is_ok() {
            // One byte wakes the loop's poll; WouldBlock means it is
            // drowning in wakeups already.
            let _ = (&wake).write(&[1]);
        }
    }
}

/// A routed response: status, body, content type, and for `/v1/solve`
/// whether the cache answered and whether admission degraded it.
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) content_type: &'static str,
    pub(crate) cache_marker: Option<&'static str>,
    pub(crate) degraded: Option<&'static str>,
}

impl Reply {
    pub(crate) fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            content_type: "application/json",
            cache_marker: None,
            degraded: None,
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, error_object(message, &[]))
    }

    /// A `/v1/solve` 200 saying how the cache took part (`hit`, `miss`
    /// or `bypass`) and the tier admission degraded it to, if any.
    fn solved(body: String, cache_marker: &'static str, degraded: Option<&'static str>) -> Reply {
        Reply {
            cache_marker: Some(cache_marker),
            degraded,
            ..Reply::json(200, body)
        }
    }

    /// A `503` saying why the server is busy and naming the limit it
    /// hit; [`Conn::respond`] adds `Retry-After`.
    fn busy(why: &str, (limit, value): (&str, usize)) -> Reply {
        Reply::json(
            503,
            error_object(
                &format!("server busy: {why}, retry shortly"),
                &[(limit, Value::Int(value as i64))],
            ),
        )
    }
}

fn route(request: &Request, state: &ServeState, ws: &mut DpWorkspace, load: f64) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => handle_metrics(request, state),
        ("GET", "/v1/solvers") => handle_solvers(),
        ("GET", "/debug/trace") => handle_debug_trace(state),
        ("POST", "/v1/solve") => handle_solve(request, state, ws, load),
        ("POST", "/v1/batch") => handle_batch(request, state),
        (_, "/healthz" | "/metrics" | "/v1/solvers" | "/debug/trace") => {
            Reply::error(405, "use GET on this endpoint")
        }
        (_, "/v1/solve" | "/v1/batch") => Reply::error(405, "use POST on this endpoint"),
        _ => Reply::json(
            404,
            error_object(
                &format!("no such endpoint {:?}", request.path),
                &[(
                    "endpoints",
                    Value::Array(
                        [
                            "POST /v1/solve",
                            "POST /v1/batch",
                            "GET /v1/solvers",
                            "GET /healthz",
                            "GET /metrics",
                            "GET /debug/trace",
                        ]
                        .iter()
                        .map(|e| Value::Str((*e).to_string()))
                        .collect(),
                    ),
                )],
            ),
        ),
    }
}

fn handle_healthz(state: &ServeState) -> Reply {
    let body = Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        (
            "uptime_secs".to_string(),
            Value::Float(state.telemetry.uptime_secs()),
        ),
    ]);
    Reply::json(
        200,
        serde_json::to_string(&body).expect("healthz serialises"),
    )
}

fn handle_metrics(request: &Request, state: &ServeState) -> Reply {
    match request.param("format") {
        // Prometheus text exposition 0.0.4, for scrape targets; the
        // JSON document stays the default for humans and tests.
        Some("prometheus") => Reply {
            status: 200,
            body: state.telemetry.prometheus(
                state.workers,
                state.queue_capacity,
                state.cache.stats(),
            ),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            cache_marker: None,
            degraded: None,
        },
        Some(other) => Reply::error(400, &format!("unknown format {other:?} (try prometheus)")),
        None => Reply::json(
            200,
            serde_json::to_string_pretty(&state.metrics()).expect("metrics serialises"),
        ),
    }
}

/// Drain the 1-in-N sampled sink as a Chrome trace document.
fn handle_debug_trace(state: &ServeState) -> Reply {
    match &state.sampler {
        None => Reply::error(
            400,
            "trace sampling is disabled (start the server with --trace-sample N)",
        ),
        Some(sampler) => {
            let log = sampler.rotate().drain();
            Reply::json(200, log.to_chrome_json())
        }
    }
}

/// One `/v1/solvers` row, straight from the registry.
#[derive(Serialize)]
struct SolverRow {
    name: String,
    paper: String,
    ratio: String,
    in_portfolio: bool,
}

fn handle_solvers() -> Reply {
    let rows: Vec<SolverRow> = SolverRegistry::global()
        .specs()
        .iter()
        .map(|s| SolverRow {
            name: s.name.to_string(),
            paper: s.paper.to_string(),
            ratio: s.ratio.to_string(),
            in_portfolio: s.in_portfolio,
        })
        .collect();
    Reply::json(
        200,
        serde_json::to_string_pretty(&rows).expect("solver rows serialise"),
    )
}

/// The `/v1/solve` success body.
#[derive(Serialize)]
struct SolveResponse {
    solver: &'static str,
    score: Score,
    matches: MatchSet,
    report: SolveReport,
}

/// A decoded `/v1/solve` body: the instance, its engine options, and
/// the memo entry that resolves admission at any load.
struct SolvePrep {
    inst: Instance,
    engine: EngineOptions,
    memo: PrepMemo,
}

/// Decode and validate one `/v1/solve` body, then canonicalise it and
/// compute its admission inputs, each exactly once. Only the worker
/// runs this, under `catch_unwind`.
fn prepare_solve(request: &Request, state: &ServeState) -> Result<SolvePrep, ParseRejection> {
    let parsed = parse_solve_request(&request.body, state, "instance")?;
    let inst = decode_instance(parsed.payload).map_err(|msg| Reply::error(400, &msg))?;
    // Canonicalise through the parsed instance so client formatting
    // (whitespace, pretty-printing) cannot split cache entries.
    let canonical = serde_json::to_string(&inst).expect("instances serialise");
    let tag = options_tag(&parsed.engine);
    let key = |solver: &str| cache::fingerprint(&format!("{solver}\n{tag}\n{canonical}"));
    let degrade = state
        .admission
        .degrade_tier(
            &InstanceFeatures::of(&inst),
            inst.score_upper_bound(),
            parsed.solver,
        )
        .map(|tier| {
            let position = SolverRegistry::global()
                .position(tier)
                .expect("degraded tiers are registered");
            (tier, position, key(tier))
        });
    let memo = PrepMemo {
        admit: (parsed.solver, parsed.position, key(parsed.solver)),
        degrade,
    };
    Ok(SolvePrep {
        inst,
        engine: parsed.engine,
        memo,
    })
}

/// What one `/v1/solve` body resolves to, load aside: the
/// `(solver, registry position, cache key)` it runs as asked, and the
/// same for the cheap tier it degrades to (`None` for bodies that no
/// load degrades). Workers publish it under the raw body's
/// fingerprint, so the event loop answers a repeat of the body
/// without decoding it.
#[derive(Clone, Copy)]
struct PrepMemo {
    admit: (&'static str, usize, Fingerprint),
    degrade: Option<(&'static str, usize, Fingerprint)>,
}

impl PrepMemo {
    /// The solver, its registry position, the degraded tier (if any)
    /// and the cache key at queue load `load`. Past the degrade
    /// watermark a degradable body runs its cheap tier instead of what
    /// it asked for. The substitute flows through everything
    /// downstream — per-solver counters, the cache key, the response's
    /// `solver` field — so a degraded response is indistinguishable
    /// from having asked for the cheap tier, except for the
    /// `X-Fragalign-Degraded` header.
    fn resolve(
        self,
        state: &ServeState,
        load: f64,
    ) -> (&'static str, usize, Option<&'static str>, Fingerprint) {
        match self.degrade {
            Some((tier, position, key)) if state.admission.degrades_at(load) => {
                (tier, position, Some(tier), key)
            }
            _ => {
                let (solver, position, key) = self.admit;
                (solver, position, None, key)
            }
        }
    }
}

/// Cap on memoised bodies; past it the memo is cleared wholesale —
/// entries are cheap to rebuild and the hot set is tiny, so tracking
/// recency would cost more than the occasional cold restart.
const PREP_MEMO_CAP: usize = 4096;

/// The event loop's fast path: answer a plain `/v1/solve` cache hit
/// without occupying a worker. It reads only the raw body's
/// fingerprint, the memo and the cache, and returns `None` for
/// anything that needs a worker — an unseen body, a miss, a traced
/// request. A served hit records the same counters the worker's hit
/// path would.
fn try_inline_hit(request: &Request, state: &ServeState, load: f64) -> Option<Reply> {
    if request.method != "POST"
        || request.path != "/v1/solve"
        || request.param("trace") == Some("1")
    {
        return None;
    }
    let memo = *state
        .prep_memo
        .lock()
        .get(&cache::fingerprint(&request.body))?;
    let (_, position, degraded, key) = memo.resolve(state, load);
    let body = state.cache.peek(key)?;
    if degraded.is_some() {
        state.telemetry.add(Stat::AdmissionDegraded, 1);
    }
    state.telemetry.record_solve(position);
    Some(Reply::solved(body.to_string(), "hit", degraded))
}

fn handle_solve(request: &Request, state: &ServeState, ws: &mut DpWorkspace, load: f64) -> Reply {
    let SolvePrep { inst, engine, memo } = match prepare_solve(request, state) {
        Ok(p) => p,
        Err(rejection) => {
            if rejection.unknown_solver {
                state.telemetry.add(Stat::UnknownSolverRequests, 1);
            }
            return rejection.reply;
        }
    };
    // Publish before the cache lookup and the reply, so a repeat of
    // this body finds its entry whichever connection it comes on.
    {
        let mut memos = state.prep_memo.lock();
        if memos.len() >= PREP_MEMO_CAP {
            memos.clear();
        }
        memos.insert(cache::fingerprint(&request.body), memo);
    }
    let (solver, position, degraded, key) = memo.resolve(state, load);
    if degraded.is_some() {
        state.telemetry.add(Stat::AdmissionDegraded, 1);
    }
    // Count only fully-validated solve traffic, so `/metrics` per-
    // solver numbers mean "solves this solver was actually asked to
    // run", not "bodies that mentioned its name".
    state.telemetry.record_solve(position);

    // `?trace=1` turns on span recording for this one request. Traced
    // responses embed a timeline, so they bypass the cache in both
    // directions: a cached plain body has no trace to return, and a
    // traced body must not be served to plain requests.
    let traced = request.param("trace") == Some("1");
    if !traced {
        if let Some(body) = state.cache.get(key) {
            return Reply::solved(body.to_string(), "hit", degraded);
        }
    }
    let opts = BatchOptions {
        solver: solver.to_string(),
        engine,
    };
    let sink = traced.then(TraceSink::new);
    // The 1-in-N sampler ticks on actual solves (cache hits have no
    // spans to record). A sampled solve records into the shared sink
    // served at /debug/trace; tracing is inert on results, so the
    // body is still cached as usual.
    let sampled = !traced && state.sampler.as_ref().is_some_and(|s| s.fires());
    let trace = match (&sink, &state.sampler) {
        (Some(s), _) => TraceHandle::new(Arc::clone(s)),
        (None, Some(sampler)) if sampled => TraceHandle::new(sampler.current()),
        _ => TraceHandle::disabled(),
    };
    if sampled {
        state.telemetry.add(Stat::SampledTraces, 1);
    }
    let solve_started = Instant::now();
    match solve_single_traced(&inst, &opts, ws, trace) {
        Ok((solution, report)) => {
            state
                .telemetry
                .record_solve_latency(position, solve_started.elapsed());
            let mut body = serde_json::to_string(&SolveResponse {
                solver,
                score: solution.score,
                matches: solution.matches,
                report,
            })
            .expect("solve response serialises");
            match sink {
                None => {
                    state.cache.insert(key, Arc::from(body.as_str()));
                    Reply::solved(body, "miss", degraded)
                }
                Some(sink) => {
                    // Splice the Chrome trace document into the
                    // response object: `{...}` → `{...,"trace":{...}}`.
                    let log = sink.drain();
                    state.telemetry.add(Stat::TracedRequests, 1);
                    state.telemetry.add(Stat::TraceEventsDropped, log.dropped);
                    body.pop();
                    body.push_str(",\"trace\":");
                    body.push_str(&log.to_chrome_json());
                    body.push('}');
                    Reply::solved(body, "bypass", degraded)
                }
            }
        }
        Err(err) => engine_error_reply(err),
    }
}

/// The `/v1/batch` success body: one entry per instance, input order.
#[derive(Serialize)]
struct BatchResponse {
    solver: &'static str,
    instances: usize,
    total_score: Score,
    results: Vec<BatchItem>,
}

/// One solved instance of a `/v1/batch` request.
#[derive(Serialize)]
struct BatchItem {
    score: Score,
    matches: MatchSet,
    report: SolveReport,
}

fn handle_batch(request: &Request, state: &ServeState) -> Reply {
    state.telemetry.add(Stat::BatchRequests, 1);
    let parsed = match parse_solve_request(&request.body, state, "instances") {
        Ok(p) => p,
        Err(rejection) => return rejection.reply,
    };
    let Value::Array(list) = parsed.payload else {
        return Reply::error(400, "field \"instances\" must be an array of instances");
    };
    let mut instances = Vec::with_capacity(list.len());
    for (i, value) in list.into_iter().enumerate() {
        match decode_instance(value) {
            Ok(inst) => instances.push(inst),
            Err(msg) => return Reply::error(400, &format!("instances[{i}]: {msg}")),
        }
    }
    let opts = BatchOptions {
        solver: parsed.solver.to_string(),
        engine: parsed.engine,
    };
    // `core::batch` does the mapping: the instances fan out over the
    // rayon pool's worker threads, one warm workspace per worker.
    match fragalign_core::solve_batch_reports(&instances, &opts) {
        Ok(results) => {
            let body = BatchResponse {
                solver: parsed.solver,
                instances: results.len(),
                total_score: results.iter().map(|(s, _)| s.score).sum(),
                results: results
                    .into_iter()
                    .map(|(solution, report)| BatchItem {
                        score: solution.score,
                        matches: solution.matches,
                        report,
                    })
                    .collect(),
            };
            Reply::json(200, serde_json::to_string(&body).expect("batch serialises"))
        }
        Err(err) => engine_error_reply(err),
    }
}

/// The fields shared by `/v1/solve` and `/v1/batch` bodies, already
/// validated: the endpoint's payload (moved out of the document), the
/// registry's name for the solver, and the engine options.
struct ParsedSolveRequest {
    payload: Value,
    solver: &'static str,
    /// The solver's registry position, for per-solver counters.
    position: usize,
    engine: EngineOptions,
}

/// Why a solve-shaped body was refused: the response to send, plus
/// whether the cause was an unregistered solver name (so `/v1/solve`
/// can count those separately without re-parsing the reply).
struct ParseRejection {
    reply: Reply,
    unknown_solver: bool,
}

impl From<Reply> for ParseRejection {
    fn from(reply: Reply) -> Self {
        ParseRejection {
            reply,
            unknown_solver: false,
        }
    }
}

/// Parse and validate a solve-shaped request body: JSON object, no
/// unknown top-level keys, a registered solver (else the friendly
/// 400), well-formed options. `payload_key` is the endpoint's
/// instance-carrying field. Pure parsing — telemetry is the caller's
/// business, so `/v1/batch` traffic never leaks into `/v1/solve`
/// counters.
fn parse_solve_request(
    body: &str,
    state: &ServeState,
    payload_key: &str,
) -> Result<ParsedSolveRequest, ParseRejection> {
    let doc: Value = serde_json::from_str(body)
        .map_err(|e| Reply::error(400, &format!("request body is not valid JSON: {e}")))?;
    let Value::Object(mut fields) = doc else {
        return Err(Reply::error(400, "request body must be a JSON object").into());
    };
    for (key, _) in &fields {
        if key != "solver" && key != "options" && key != payload_key {
            return Err(Reply::error(
                400,
                &format!("unknown field {key:?} (allowed: {payload_key}, solver, options)"),
            )
            .into());
        }
    }
    // A duplicated key's first occurrence wins, as in `Value::get`.
    let Some(payload_at) = fields.iter().position(|(key, _)| key == payload_key) else {
        return Err(Reply::error(400, &format!("missing required field {payload_key:?}")).into());
    };
    let field = |name: &str| fields.iter().find(|(key, _)| key == name).map(|(_, v)| v);
    let registry = SolverRegistry::global();
    let spec = match field("solver") {
        None => registry.spec(state.default_solver),
        Some(Value::Str(s)) => registry.spec(s),
        Some(_) => return Err(Reply::error(400, "field \"solver\" must be a string").into()),
    };
    let solver = match spec {
        Ok(spec) => spec.name,
        Err(err) => {
            return Err(ParseRejection {
                reply: engine_error_reply(err),
                unknown_solver: true,
            })
        }
    };
    let position = registry.position(solver).expect("solver resolved above");
    let engine = match field("options") {
        None => EngineOptions::default(),
        Some(v) => engine_options_from(v).map_err(|msg| Reply::error(400, &msg))?,
    };
    Ok(ParsedSolveRequest {
        payload: fields.swap_remove(payload_at).1,
        solver,
        position,
        engine,
    })
}

/// Decode, bound, re-index, and validate one instance value.
fn decode_instance(value: Value) -> Result<Instance, String> {
    let mut inst: Instance =
        serde_json::from_value(value).map_err(|e| format!("bad instance: {e}"))?;
    check_size(&inst)?;
    inst.alphabet.rebuild_index();
    inst.validate()
        .map_err(|e| format!("invalid instance: {e}"))?;
    Ok(inst)
}

/// Refuse an instance whose score tables would not fit a request: a
/// fragment over [`MAX_FRAGMENT_REGIONS`], or interval tables over
/// [`MAX_TABLE_CELLS`] in total. The error names the limit.
fn check_size(inst: &Instance) -> Result<(), String> {
    let mut cells = 0usize;
    for (frags, plugs) in [(&inst.h, inst.m.len()), (&inst.m, inst.h.len())] {
        for frag in frags {
            let n = frag.len();
            if n > MAX_FRAGMENT_REGIONS {
                return Err(format!(
                    "instance too large: fragment {:?} has {n} regions \
                     (limit {MAX_FRAGMENT_REGIONS} per fragment)",
                    frag.name
                ));
            }
            cells = cells.saturating_add(plugs.saturating_mul((n + 1) * (n + 1)));
        }
    }
    if cells > MAX_TABLE_CELLS {
        return Err(format!(
            "instance too large: its interval tables need {cells} cells \
             (limit {MAX_TABLE_CELLS})"
        ));
    }
    Ok(())
}

/// Strict `options` object → [`EngineOptions`]; every field optional,
/// unknown fields rejected so typos fail loudly instead of silently
/// keeping a default. Only `scaling` is settable over the wire: the
/// exhaustive solver's limits stay at their defaults, so no request
/// can hold a worker for an unbounded search.
fn engine_options_from(value: &Value) -> Result<EngineOptions, String> {
    let Some(fields) = value.as_object() else {
        return Err("field \"options\" must be an object".to_string());
    };
    let mut opts = EngineOptions::default();
    for (key, val) in fields {
        match key.as_str() {
            "scaling" => opts.scaling = expect_bool(val, "options.scaling")?,
            other => return Err(format!("unknown field options.{other} (allowed: scaling)")),
        }
    }
    Ok(opts)
}

fn expect_bool(value: &Value, what: &str) -> Result<bool, String> {
    match value {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{what} must be a boolean")),
    }
}

/// The options part of the cache key.
fn options_tag(opts: &EngineOptions) -> String {
    format!("scaling={}", opts.scaling)
}

/// Engine refusals as HTTP errors: unknown solver → 400 listing every
/// registered name (plus a did-you-mean hint when one is close);
/// solver/instance mismatch → 400 with the solver's explanation.
fn engine_error_reply(err: EngineError) -> Reply {
    match &err {
        EngineError::UnknownSolver {
            known, suggestion, ..
        } => {
            let mut extra = vec![(
                "known",
                Value::Array(known.iter().map(|n| Value::Str((*n).to_string())).collect()),
            )];
            if let Some(s) = suggestion {
                extra.push(("suggestion", Value::Str((*s).to_string())));
            }
            Reply::json(400, error_object(&err.to_string(), &extra))
        }
        EngineError::Unsupported { .. } => Reply::error(400, &err.to_string()),
    }
}

/// `{"error": message, ...extra}` as compact JSON.
fn error_object(message: &str, extra: &[(&str, Value)]) -> String {
    let mut fields = vec![("error".to_string(), Value::Str(message.to_string()))];
    for (key, value) in extra {
        fields.push(((*key).to_string(), value.clone()));
    }
    serde_json::to_string(&Value::Object(fields)).expect("error body serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use fragalign_model::instance::paper_example;

    fn test_server() -> Server {
        Server::start(ServeConfig {
            workers: 2,
            queue_depth: 8,
            ..ServeConfig::default()
        })
        .expect("server starts")
    }

    #[test]
    fn healthz_and_metrics_roundtrip() {
        let server = test_server();
        let health = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""));
        // One solve, so the per-solver latency family is present too.
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instance\":{inst},\"solver\":\"csr\"}}");
        let solved = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(solved.status, 200, "{}", solved.body);
        let metrics = client::get(server.addr(), "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        // The document's top-level keys are the table's, in order,
        // each once.
        let doc: Value = serde_json::from_str(&metrics.body).expect("/metrics is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("/metrics is an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        let state = server.state();
        let mut table: Vec<&str> = state
            .telemetry
            .families(state.workers, state.queue_capacity, &state.cache.stats())
            .iter()
            .map(|family| family.json.split('.').next().expect("split yields a part"))
            .collect();
        table.dedup();
        assert_eq!(keys, table);
        server.shutdown();
    }

    #[test]
    fn solvers_listing_matches_registry() {
        let server = test_server();
        let resp = client::get(server.addr(), "/v1/solvers").unwrap();
        assert_eq!(resp.status, 200);
        for name in SolverRegistry::global().names() {
            assert!(
                resp.body.contains(&format!("\"name\": \"{name}\"")),
                "{name}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn solve_caches_and_solves() {
        let server = test_server();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instance\":{inst},\"solver\":\"csr\"}}");
        let first = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(first.header("x-fragalign-cache"), Some("miss"));
        assert!(first.body.contains("\"score\":11"), "{}", first.body);
        let second = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(second.header("x-fragalign-cache"), Some("hit"));
        assert_eq!(first.body, second.body);
        let stats = server.state().cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        server.shutdown();
    }

    #[test]
    fn event_loop_answers_only_bodies_a_worker_decoded() {
        let server = test_server();
        let state = server.state();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let solve = |body: &str| Request {
            method: "POST".to_string(),
            path: "/v1/solve".to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.to_string(),
            keep_alive: true,
            expect_continue: false,
        };
        // An unseen body is left to a worker: the loop decodes nothing
        // and remembers nothing.
        let body = format!("{{\"instance\":{inst},\"solver\":\"csr\"}}");
        assert!(try_inline_hit(&solve(&body), &state, 0.0).is_none());
        assert!(state.prep_memo.lock().is_empty());
        // The worker that solves it publishes the body's memo entry,
        // after which the loop answers the body from the cache.
        let miss = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(miss.header("x-fragalign-cache"), Some("miss"));
        assert_eq!(state.prep_memo.lock().len(), 1);
        let hit = try_inline_hit(&solve(&body), &state, 0.0).expect("memoised body hits");
        assert_eq!(hit.cache_marker, Some("hit"));
        assert_eq!(hit.body, miss.body);
        // A body the worker refuses publishes no entry.
        let unknown = format!("{{\"instance\":{inst},\"solver\":\"greddy\"}}");
        let refused = client::post(server.addr(), "/v1/solve", &unknown).unwrap();
        assert_eq!(refused.status, 400, "{}", refused.body);
        assert_eq!(state.prep_memo.lock().len(), 1);
        server.shutdown();
    }

    #[test]
    fn prometheus_metrics_format() {
        let server = test_server();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instance\":{inst},\"solver\":\"greedy\"}}");
        let solved = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(solved.status, 200, "{}", solved.body);
        let resp = client::get(server.addr(), "/metrics?format=prometheus").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("content-type"),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        for needle in [
            "# TYPE fragalign_requests_total counter",
            "fragalign_solve_requests_total{solver=\"greedy\"} 1",
            "fragalign_solve_duration_seconds_bucket{solver=\"greedy\",le=\"+Inf\"} 1",
            "fragalign_queue_wait_seconds_count 2",
            "fragalign_service_seconds_count 1",
            "fragalign_cache_evictions_total 0",
            "fragalign_trace_events_dropped_total 0",
            "fragalign_connections_accepted_total 2",
            "# TYPE fragalign_connections_open gauge",
            "fragalign_admission_degraded_total 0",
        ] {
            assert!(
                resp.body.contains(needle),
                "missing {needle}\n{}",
                resp.body
            );
        }
        let bad = client::get(server.addr(), "/metrics?format=xml").unwrap();
        assert_eq!(bad.status, 400);
        server.shutdown();
    }

    #[test]
    fn traced_solve_embeds_timeline_and_bypasses_cache() {
        let server = test_server();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instance\":{inst},\"solver\":\"csr\"}}");
        // Warm the cache with a plain solve, then trace the same
        // request: the traced reply must not be the cached body.
        let plain = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(plain.header("x-fragalign-cache"), Some("miss"));
        let traced = client::post(server.addr(), "/v1/solve?trace=1", &body).unwrap();
        assert_eq!(traced.status, 200, "{}", traced.body);
        assert_eq!(traced.header("x-fragalign-cache"), Some("bypass"));
        assert!(traced.body.contains("\"trace\":{"), "{}", traced.body);
        assert!(
            traced.body.contains("\"name\":\"solve:csr\""),
            "{}",
            traced.body
        );
        // Identical solve result, tracing aside.
        let score = |b: &str| {
            b.split("\"score\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .map(str::to_string)
        };
        assert_eq!(score(&plain.body), score(&traced.body));
        // A traced body never lands in the cache: the next plain
        // request is still answered by the original cached entry.
        let again = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(again.header("x-fragalign-cache"), Some("hit"));
        assert_eq!(again.body, plain.body);
        assert_eq!(server.state().telemetry.get(Stat::TracedRequests), 1);
        server.shutdown();
    }

    #[test]
    fn sampled_tracing_records_and_drains_at_debug_trace() {
        let server = Server::start(ServeConfig {
            workers: 2,
            queue_depth: 8,
            trace_sample: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instance\":{inst},\"solver\":\"csr\"}}");
        // A sampled solve still caches and returns a plain body.
        let first = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(first.header("x-fragalign-cache"), Some("miss"));
        assert!(!first.body.contains("\"trace\":{"), "{}", first.body);
        assert_eq!(server.state().telemetry.get(Stat::SampledTraces), 1);
        // A cache hit does not tick the sampler (nothing solved).
        let hit = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(hit.header("x-fragalign-cache"), Some("hit"));
        assert_eq!(hit.body, first.body);
        assert_eq!(server.state().telemetry.get(Stat::SampledTraces), 1);
        // The sampled spans drain as a Chrome trace document.
        let trace = client::get(server.addr(), "/debug/trace").unwrap();
        assert_eq!(trace.status, 200);
        assert!(
            trace.body.contains("\"name\":\"solve:csr\""),
            "{}",
            trace.body
        );
        // Draining empties the sink.
        let empty = client::get(server.addr(), "/debug/trace").unwrap();
        assert!(!empty.body.contains("solve:csr"), "{}", empty.body);
        server.shutdown();
    }

    #[test]
    fn debug_trace_is_a_400_when_sampling_is_off() {
        let server = test_server();
        let resp = client::get(server.addr(), "/debug/trace").unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("--trace-sample"), "{}", resp.body);
        server.shutdown();
    }

    #[test]
    fn rejects_unknown_fields_and_bad_options() {
        let server = test_server();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        for (body, needle) in [
            ("{]".to_string(), "not valid JSON"),
            ("[]".to_string(), "must be a JSON object"),
            ("{}".to_string(), "missing required field"),
            (
                format!("{{\"instance\":{inst},\"solvr\":\"csr\"}}"),
                "unknown field \\\"solvr\\\"",
            ),
            (
                format!("{{\"instance\":{inst},\"options\":{{\"scaling\":3}}}}"),
                "options.scaling must be a boolean",
            ),
            (
                format!("{{\"instance\":{inst},\"options\":{{\"sclaing\":true}}}}"),
                "unknown field options.sclaing",
            ),
            (
                format!("{{\"instance\":{inst},\"options\":{{\"exact_limits\":{{}}}}}}"),
                "unknown field options.exact_limits (allowed: scaling)",
            ),
        ] {
            let resp = client::post(server.addr(), "/v1/solve", &body).unwrap();
            assert_eq!(resp.status, 400, "{body} → {}", resp.body);
            assert!(resp.body.contains(needle), "{body} → {}", resp.body);
        }
        server.shutdown();
    }

    #[test]
    fn unknown_solver_is_a_friendly_400() {
        let server = test_server();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instance\":{inst},\"solver\":\"greddy\"}}");
        let resp = client::post(server.addr(), "/v1/solve", &body).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"known\""), "{}", resp.body);
        assert!(
            resp.body.contains("\"suggestion\":\"greedy\""),
            "{}",
            resp.body
        );
        assert_eq!(server.state().telemetry.get(Stat::UnknownSolverRequests), 1);
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_mapped() {
        let server = test_server();
        let resp = client::get(server.addr(), "/nope").unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("endpoints"));
        let resp = client::post(server.addr(), "/healthz", "{}").unwrap();
        assert_eq!(resp.status, 405);
        let resp = client::get(server.addr(), "/v1/solve").unwrap();
        assert_eq!(resp.status, 405);
        server.shutdown();
    }

    #[test]
    fn batch_solves_in_input_order() {
        let server = test_server();
        let inst = serde_json::to_string(&paper_example()).unwrap();
        let body = format!("{{\"instances\":[{inst},{inst}],\"solver\":\"greedy\"}}");
        let resp = client::post(server.addr(), "/v1/batch", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"instances\":2"), "{}", resp.body);
        assert_eq!(server.state().telemetry.get(Stat::BatchRequests), 1);
        // Batch traffic must not leak into the per-solver /v1/solve
        // counters.
        let metrics = server.state().metrics();
        let solve_requests = metrics
            .get("solve_requests")
            .and_then(Value::as_object)
            .expect("per-solver counts");
        assert!(solve_requests.iter().all(|(_, n)| *n == Value::Int(0)));
        server.shutdown();
    }

    #[test]
    fn default_solver_must_be_registered() {
        let err = Server::start(ServeConfig {
            default_solver: "greddy".to_string(),
            ..ServeConfig::default()
        })
        .map(|s| s.addr())
        .unwrap_err();
        assert!(err.to_string().contains("did you mean 'greedy'?"));
    }
}
