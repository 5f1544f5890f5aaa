//! `serve_hot` and `serve_cold`: closed loops over keep-alive
//! connections to an in-process server.

use crate::client::{request_bytes, Conn, Reply};
use crate::fold::{self, Span};
use crate::gen::{self, item_seed, Item, Rng, Zipf, STREAM_DRAW, STREAM_RESERVOIR};
use crate::layers::{self, Rendered, SolveBody};
use crate::report::Report;
use crate::stats::{window_of, Reservoir, WINDOWS, WINDOW_SAMPLES};
use crate::work::{self, Counters};
use crate::{Args, SETUP_REPS};
use fragalign::core::Router;
use fragalign::model::Instance;
use fragalign::serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::time::{Duration, Instant};

/// `serve_hot`'s pool: instances × solvers (`None` is the server's
/// default, `auto`).
const HOT_INSTANCES: usize = 32;
const HOT_SOLVERS: [Option<&str>; 4] = [None, Some("csr"), Some("four"), Some("greedy")];
const HOT_ZIPF_S: f64 = 1.1;
/// `serve_cold`'s distinct base instances: twenty blocks of the
/// rule-balanced mix. Requests cycle through them; a body sent again in
/// a later lap carries a fresh tag, so every body is unique.
const COLD_BASES: usize = 40 * gen::COLD_BLOCK;
/// Unique bodies sent before the clock starts, so lazy start-up in the
/// server (threads, first allocations) is not billed to the run. They
/// are σ-desert bodies, the cheapest and most uniform to solve, so the
/// warm-up adds little to `setup_s` and nothing to its spread.
const COLD_WARMUP: usize = 8;
/// Served requests whose exact bytes feed the per-layer replays.
const REPLAY_CAP: usize = 256;
/// `serve_cold` bodies put in the replayed cache before timing its
/// lookups: enough to fill the server's 2 MiB many times over.
const RESIDENT_CAP: usize = 1024;
/// How often the client measures host speed, seconds.
const CALIB_EVERY_S: f64 = 0.5;
/// In traced runs, drain the server's sampled trace every this many
/// requests, well before its ring can wrap.
const DRAIN_EVERY: usize = 10;

/// The base body and tag of `serve_cold` request `i`.
fn cold_slot(i: usize) -> (usize, usize) {
    (i % COLD_BASES, i / COLD_BASES)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Cold,
}

/// One distinct request body and the pool item it carries.
struct Body {
    item: usize,
    solver: String,
    text: String,
    request: Vec<u8>,
}

fn body_text(inst: &Instance, solver: Option<&str>) -> String {
    let inst = serde_json::to_string(inst).expect("instances serialise");
    match solver {
        Some(s) => format!("{{\"instance\":{inst},\"solver\":\"{s}\"}}"),
        None => format!("{{\"instance\":{inst}}}"),
    }
}

fn config(workers: usize, traced: bool) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth: 64,
        // Small enough that serve_cold's insert-only traffic fills it
        // and evicts within a run; serve_hot's pool fits many times.
        cache_mb: 2,
        cache_shards: 16,
        trace_sample: u64::from(traced),
        ..ServeConfig::default()
    }
}

/// The server's result cache shape: `(shards, bytes)`.
pub fn cache_shape() -> (usize, usize) {
    let c = config(1, false);
    (c.cache_shards, c.cache_mb * 1024 * 1024)
}

struct Setup {
    server: Server,
    items: Vec<Item>,
    bodies: Vec<Body>,
    /// serve_hot: the warm-up reply of every body, which every later
    /// reply must equal byte for byte.
    warm: Vec<Reply>,
}

fn setup(mode: Mode, args: &Args, workers: usize) -> Result<Setup, String> {
    let items: Vec<Item> = match mode {
        Mode::Hot => (0..HOT_INSTANCES)
            .map(|i| gen::hot_instance(args.seed, i))
            .collect(),
        Mode::Cold => (0..COLD_BASES)
            .map(|i| gen::cold_instance(args.seed, i))
            .collect(),
    };
    let solvers: &[Option<&str>] = match mode {
        Mode::Hot => &HOT_SOLVERS,
        Mode::Cold => &[None],
    };
    let mut bodies = Vec::new();
    for (i, it) in items.iter().enumerate() {
        for solver in solvers {
            let text = body_text(&it.instance, *solver);
            bodies.push(Body {
                item: i,
                solver: solver.unwrap_or("auto").to_string(),
                request: request_bytes("POST", "/v1/solve", &text),
                text,
            });
        }
    }
    let server = Server::start(config(workers, args.traced))
        .map_err(|e| format!("server did not start: {e}"))?;
    let mut conn = Conn::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut warm = Vec::new();
    let warm_up: Vec<Vec<u8>> = match mode {
        Mode::Hot => bodies.iter().map(|b| b.request.clone()).collect(),
        Mode::Cold => bodies
            .iter()
            .filter(|b| items[b.item].shape == "sigma-desert")
            .take(COLD_WARMUP)
            .map(|b| {
                let text = gen::tag_body(&b.text, usize::MAX - b.item);
                request_bytes("POST", "/v1/solve", &text)
            })
            .collect(),
    };
    for request in &warm_up {
        let r = conn
            .exchange(request)
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up got {}: {}", r.status, r.body()));
        }
        if mode == Mode::Hot {
            warm.push(r);
        }
    }
    Ok(Setup {
        server,
        items,
        bodies,
        warm,
    })
}

/// The result part of a `/v1/solve` body (solver, score and matches,
/// everything before the timing report), hashed.
fn result_hash(body: &str) -> u64 {
    let part = body.find(",\"report\":").map_or(body, |at| &body[..at]);
    let mut h = DefaultHasher::new();
    h.write(part.as_bytes());
    h.finish()
}

/// The engine's solve wall in a `/v1/solve` body, milliseconds (the
/// report's first `wall_secs`; racers come after it).
fn solve_ms(body: &str) -> f64 {
    let key = "\"wall_secs\":";
    body.find(key)
        .and_then(|at| {
            let rest = &body[at + key.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .map_or(0.0, |s| s * 1e3)
}

struct Loop {
    /// Client-side latency, nanoseconds, by window of completion: a
    /// fixed-size uniform sample per window plus the count, so the
    /// record does not grow with throughput (that would move
    /// `rss_peak_mb`).
    windows_ns: Vec<Reservoir<u32>>,
    /// Σ client latency over every request, milliseconds.
    latency_sum_ms: f64,
    /// When the last request of each window completed, seconds into
    /// the run.
    window_end_s: Vec<f64>,
    /// Host-speed readings, and the pauses they cost by window.
    readings: Vec<f64>,
    pause_s: Vec<f64>,
    rss_mb: f64,
    /// Requests per body.
    per_body: Vec<u64>,
    /// serve_cold, per base body: Σ client latency and Σ solve wall
    /// from the reply's report, milliseconds.
    body_latency_ms: Vec<f64>,
    body_solve_ms: Vec<f64>,
    /// serve_cold: the first reply of each base body, kept whole for
    /// the full check and the replays (bounded by the base count), and
    /// the hash of its result part.
    first: Vec<Option<(Reply, u64)>>,
    /// serve_cold: replies that need a full check of their own (a
    /// status other than 200, or a result part unlike the first reply
    /// of their base), by request sequence number.
    odd: Vec<(usize, Reply)>,
    /// serve_hot: bodies whose reply differed from its warm-up reply.
    diverged: Vec<usize>,
    wall_s: f64,
    spans: Vec<Span>,
    dropped: u64,
    prom_before: BTreeMap<String, f64>,
    prom_after: BTreeMap<String, f64>,
}

impl Loop {
    fn sent(&self) -> usize {
        self.windows_ns.iter().map(Reservoir::seen).sum()
    }
}

fn prometheus(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let r = conn
        .exchange(&request_bytes("GET", "/metrics?format=prometheus", ""))
        .map_err(|e| format!("/metrics: {e}"))?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    Ok(r.body()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect())
}

fn drain_trace(conn: &mut Conn, spans: &mut Vec<Span>, dropped: &mut u64) -> Result<(), String> {
    let r = conn
        .exchange(&request_bytes("GET", "/debug/trace", ""))
        .map_err(|e| format!("/debug/trace: {e}"))?;
    if r.status != 200 {
        return Err(format!("/debug/trace answered {}", r.status));
    }
    let (s, d) = fold::from_chrome(r.body())?;
    spans.extend(s);
    *dropped += d;
    Ok(())
}

/// Drive one closed-loop keep-alive connection for `seconds`.
fn closed_loop(mode: Mode, s: &Setup, args: &Args) -> Result<Loop, String> {
    let addr = s.server.addr();
    let open = || Conn::open(addr).map_err(|e| format!("connect: {e}"));
    let zipf = Zipf::new(
        s.bodies.len(),
        HOT_ZIPF_S,
        item_seed(args.seed, STREAM_DRAW, 0),
    );
    let mut rng = Rng::new(item_seed(args.seed, STREAM_DRAW, 1));
    let cold_bases = if mode == Mode::Cold {
        s.bodies.len()
    } else {
        0
    };
    let mut lp = Loop {
        windows_ns: (0..WINDOWS)
            .map(|w| {
                Reservoir::new(
                    WINDOW_SAMPLES,
                    item_seed(args.seed, STREAM_RESERVOIR, w as u64),
                )
            })
            .collect(),
        latency_sum_ms: 0.0,
        window_end_s: vec![0.0; WINDOWS],
        readings: Vec::new(),
        pause_s: vec![0.0; WINDOWS],
        rss_mb: 0.0,
        per_body: vec![0; s.bodies.len()],
        body_latency_ms: vec![0.0; cold_bases],
        body_solve_ms: vec![0.0; cold_bases],
        first: vec![None; cold_bases],
        odd: Vec::new(),
        diverged: Vec::new(),
        wall_s: 0.0,
        spans: Vec::new(),
        dropped: 0,
        prom_before: BTreeMap::new(),
        prom_after: BTreeMap::new(),
    };
    // Control requests ride a connection of their own that is closed
    // before the timed loop starts, so one connection is open meanwhile.
    let mut ctl = open()?;
    if args.traced {
        // Set-up solves (serve_hot's warm-up) were sampled too.
        drain_trace(&mut ctl, &mut lp.spans, &mut lp.dropped)?;
    }
    lp.prom_before = prometheus(&mut ctl)?;
    drop(ctl);
    let mut conn = open()?;
    if mode == Mode::Hot {
        conn.spin()
            .map_err(|e| format!("nonblocking client: {e}"))?;
    }
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut next_calib = 0.0;
    let mut sent = 0usize;
    while start.elapsed() < deadline {
        let now_s = start.elapsed().as_secs_f64();
        if now_s >= next_calib {
            // No request is in flight: the server idles meanwhile, and
            // the pause is taken out of the window's time.
            let w = window_of(now_s, args.seconds);
            lp.readings.push(crate::calib::slowdown());
            lp.pause_s[w] += start.elapsed().as_secs_f64() - now_s;
            next_calib = now_s + CALIB_EVERY_S;
        }
        let cold_request;
        let (key, bytes): (usize, &[u8]) = match mode {
            Mode::Hot => {
                let k = zipf.draw(&mut rng);
                (k, &s.bodies[k].request)
            }
            Mode::Cold => {
                let (b, tag) = cold_slot(sent);
                cold_request =
                    request_bytes("POST", "/v1/solve", &gen::tag_body(&s.bodies[b].text, tag));
                (b, &cold_request)
            }
        };
        let t0 = Instant::now();
        let reply = conn
            .exchange(bytes)
            .map_err(|e| format!("request {sent}: {e}"))?;
        let latency_ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let done_s = start.elapsed().as_secs_f64();
        let w = window_of(done_s, args.seconds);
        lp.windows_ns[w].push(latency_ns);
        lp.window_end_s[w] = done_s;
        let latency_ms = f64::from(latency_ns) / 1e6;
        lp.latency_sum_ms += latency_ms;
        lp.per_body[key] += 1;
        match mode {
            Mode::Hot => {
                if reply.status != 200 || reply.body_bytes() != s.warm[key].body_bytes() {
                    lp.diverged.push(key);
                }
            }
            Mode::Cold => {
                lp.body_latency_ms[key] += latency_ms;
                lp.body_solve_ms[key] += solve_ms(reply.body());
                let hash = result_hash(reply.body());
                let fresh = lp.first[key].is_none();
                let same = lp.first[key].as_ref().is_some_and(|(_, h)| *h == hash);
                if reply.status != 200 || !(fresh || same) {
                    lp.odd.push((sent, reply));
                } else if fresh {
                    lp.first[key] = Some((reply, hash));
                }
            }
        }
        sent += 1;
        // serve_hot solves nothing in the timed loop; its sampled spans
        // are the warm-up's, drained before the loop.
        if args.traced && mode == Mode::Cold && sent.is_multiple_of(DRAIN_EVERY) {
            drain_trace(&mut conn, &mut lp.spans, &mut lp.dropped)?;
        }
    }
    lp.wall_s = start.elapsed().as_secs_f64();
    // The run's memory peak, read before the benchmark's own analysis
    // allocates anything.
    lp.rss_mb = crate::report::rss_peak_mb()?;
    drop(conn);
    let mut ctl = open()?;
    lp.prom_after = prometheus(&mut ctl)?;
    if args.traced {
        drain_trace(&mut ctl, &mut lp.spans, &mut lp.dropped)?;
    }
    Ok(lp)
}

/// The reference: the router's pick for `auto`, the named solver
/// otherwise.
fn actual_solver(inst: &Instance, solver: &str) -> String {
    if solver == "auto" {
        Router::default().route(inst, &work::width1()).to_string()
    } else {
        solver.to_string()
    }
}

/// serve_cold's share of requests, client time and solve time by the
/// `Router::default` rule each base instance falls under.
fn rule_shares(report: &mut Report, items: &[Item], lp: &Loop) {
    let router = Router::default();
    // rule -> (solver, requests, client ms, solve ms)
    let mut rows: BTreeMap<&str, (&str, u64, f64, f64)> = BTreeMap::new();
    for (b, item) in items.iter().enumerate() {
        let (solver, rule, _) = router.route_explain(&item.instance, &work::width1());
        let row = rows.entry(rule).or_insert((solver, 0, 0.0, 0.0));
        row.1 += lp.per_body[b];
        row.2 += lp.body_latency_ms[b];
        row.3 += lp.body_solve_ms[b];
    }
    let total = |f: fn(&(&str, u64, f64, f64)) -> f64| rows.values().map(f).sum::<f64>().max(1e-12);
    let (requests, client, solve) = (total(|r| r.1 as f64), total(|r| r.2), total(|r| r.3));
    report.line("requests, client time and solve time by router rule (kind: timing)");
    report.line(format!(
        "  {:<16} {:<8} {:>9} {:>9} {:>9}",
        "rule", "solver", "requests", "client", "solve"
    ));
    for (rule, (solver, n, c, s)) in &rows {
        report.line(format!(
            "  {rule:<16} {solver:<8} {:>9.4} {:>9.4} {:>9.4}",
            *n as f64 / requests,
            c / client,
            s / solve
        ));
    }
}

pub fn run(mode: Mode, args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(4);
    let mut report = Report::default();
    let reps = if args.traced { 1 } else { SETUP_REPS };
    let (mut setup_times, mut readings) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..reps {
        // Shut the previous set-up's server down before timing the
        // next one.
        drop(ready.take());
        // Set-up is CPU-bound, so it is corrected for host speed too.
        readings.push(crate::calib::slowdown());
        let t0 = Instant::now();
        let s = setup(mode, args, workers)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    let lp = closed_loop(mode, &s, args)?;
    let Setup {
        server,
        items,
        bodies,
        warm,
    } = s;
    // Stop the server before the in-process passes so its threads
    // cannot compete with them.
    server.shutdown();

    // The width-1 pass: the correctness reference and, in traced runs,
    // the exact counters and the nested spans.
    let pass_items: Vec<(usize, String)> = bodies
        .iter()
        .map(|b| (b.item, actual_solver(&items[b.item].instance, &b.solver)))
        .collect();
    let refs: Vec<(&Instance, &str)> = pass_items
        .iter()
        .map(|(i, solver)| (&items[*i].instance, solver.as_str()))
        .collect();
    // Traced runs pair every reference solve with a traced one.
    let (plain, traced_pass) = if args.traced {
        let (plain, traced) = work::width1_pair(&refs)?;
        (plain, Some(traced))
    } else {
        (work::width1_pass(&refs, false)?, None)
    };

    // Correctness gate over every reply.
    let n = lp.sent();
    report.attempted = n as u64;
    for key in &lp.diverged {
        report.fail(format!(
            "body {key}: hit reply diverged from its warm-up reply"
        ));
    }
    // The solver that actually ran, by body.
    let mut ran: Vec<String> = pass_items.iter().map(|(_, s)| s.clone()).collect();
    let mut check_body = |b: usize, reply: &Reply| -> Result<(), String> {
        if reply.status != 200 {
            return Err(format!("status {}", reply.status));
        }
        let served = work::parse_served(reply.body(), reply.header("X-Fragalign-Degraded"))?;
        let item = &items[bodies[b].item];
        let reference = if served.ran == pass_items[b].1 {
            plain.runs[b].0.score
        } else {
            // Admission degraded the request: compare with the tier
            // that actually ran.
            let one = work::width1_pass(&[(&item.instance, served.ran.as_str())], false)?;
            one.runs[0].0.score
        };
        ran[b].clone_from(&served.ran);
        work::check(&item.instance, served.score, &served.matches, reference)
    };
    match mode {
        Mode::Hot => {
            for (b, reply) in warm.iter().enumerate() {
                if let Err(e) = check_body(b, reply) {
                    report.fail(format!("body {b}: {e}"));
                }
            }
        }
        Mode::Cold => {
            // The first reply of every base is checked in full; a later
            // reply of the same base passes by carrying the same result
            // part, and is checked in full when it does not.
            for (b, first) in lp.first.iter().enumerate() {
                if let Some((reply, _)) = first {
                    if let Err(e) = check_body(b, reply) {
                        report.fail(format!("base {b}: {e}"));
                    }
                }
            }
            for (seq, reply) in &lp.odd {
                if let Err(e) = check_body(cold_slot(*seq).0, reply) {
                    report.fail(format!("request {seq}: {e}"));
                }
            }
        }
    }

    report.line(format!(
        "workload {} seed {} traced {}: {n} requests over one keep-alive connection, {workers} workers, nproc {nproc}, {:.3} s",
        if mode == Mode::Hot { "serve_hot" } else { "serve_cold" },
        args.seed,
        args.traced,
        lp.wall_s
    ));
    if mode == Mode::Cold {
        let firsts = lp.first.iter().flatten().count();
        report.line(format!(
            "correctness: {firsts} first replies and {} others checked in full; {} matched their base's first reply",
            lp.odd.len(),
            n - firsts - lp.odd.len()
        ));
        rule_shares(&mut report, &items, &lp);
    }
    // Score ratio over the distinct work items (every body once), so it
    // is a pure function of the seed.
    let score: i64 = plain.runs.iter().map(|(sol, _)| sol.score).sum();
    let bound: i64 = pass_items
        .iter()
        .map(|(i, _)| items[*i].instance.score_upper_bound())
        .sum();
    let score_ratio = score as f64 / bound.max(1) as f64;

    if !args.traced {
        // A window lasts from the previous window's last completion to
        // its own, less the calibration pauses inside it.
        let spans_s: Vec<f64> = (0..WINDOWS)
            .map(|w| {
                let begin = if w == 0 { 0.0 } else { lp.window_end_s[w - 1] };
                lp.window_end_s[w] - begin - lp.pause_s[w]
            })
            .collect();
        readings.extend(&lp.readings);
        let windows: Vec<Vec<f64>> = lp
            .windows_ns
            .iter()
            .map(|w| w.kept().iter().map(|&ns| f64::from(ns) / 1e6).collect())
            .collect();
        let counts: Vec<usize> = lp.windows_ns.iter().map(Reservoir::seen).collect();
        crate::end_to_end(
            &mut report,
            windows,
            &counts,
            &spans_s,
            &readings,
            score_ratio,
            &setup_times,
            lp.rss_mb,
        )?;
        return Ok(report);
    }

    // ---- traced run: per-layer metrics ----
    let traced_pass = traced_pass.expect("traced runs make the traced pass");
    let counters = Counters::of(&plain.runs);
    if Counters::of(&traced_pass.runs) != counters {
        report.fail("traced width-1 pass changed the exact counters".to_string());
    }
    crate::pass_metrics(&mut report, &plain, &traced_pass, counters);
    report.line(format!(
        "score_ratio {score_ratio:.6} (exact; {} distinct bodies)",
        refs.len()
    ));

    // Server-side decomposition of the client's latency over the
    // measured window, from the server's exact Prometheus sums.
    let d = |k: &str| {
        lp.prom_after.get(k).copied().unwrap_or(0.0) - lp.prom_before.get(k).copied().unwrap_or(0.0)
    };
    let client_sum_ms = lp.latency_sum_ms;
    let queue_ms = d("fragalign_queue_wait_seconds_sum") * 1e3;
    let service_ms = d("fragalign_service_seconds_sum") * 1e3;
    let outside_ms = client_sum_ms - queue_ms - service_ms;
    let (hits, misses) = (
        d("fragalign_cache_hits_total"),
        d("fragalign_cache_misses_total"),
    );
    report.set("serve.queue_wait_share", queue_ms / client_sum_ms);
    report.set("serve.service_share", service_ms / client_sum_ms);
    report.set("serve.outside_share", outside_ms / client_sum_ms);
    report.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    report.set(
        "serve.keepalive_reuse_ratio",
        d("fragalign_keepalive_reuse_total") / d("fragalign_requests_total").max(1.0),
    );
    report.set(
        "serve.cache.evictions",
        d("fragalign_cache_evictions_total"),
    );
    report.set(
        "serve.admission.degraded",
        d("fragalign_admission_degraded_total"),
    );
    report.set("serve.rejected_503", d("fragalign_rejected_503_total"));
    let busy_s = lp.wall_s - lp.pause_s.iter().sum::<f64>();
    report.set(
        "par.busy_ratio",
        service_ms / (busy_s * 1e3 * workers as f64),
    );
    report.set(
        "bench.trace_dropped",
        (traced_pass.dropped + lp.dropped) as f64,
    );

    let per = |ms: f64| ms / n.max(1) as f64;
    let server_layers = fold::inclusive_by_layer(&lp.spans);
    let solve_ms = server_layers
        .get("engine.solve")
        .map_or(0.0, |r| r.0 as f64 / 1e6);
    report.line("serve decomposition, ms per request over the measured window (kind: timing)");
    report.line(format!(
        "  client latency mean            {:>12.4}",
        per(client_sum_ms)
    ));
    report.line(format!(
        "  serve.outside_mean_ms          {:>12.4}  (client - queue wait - service)",
        per(outside_ms)
    ));
    report.line(format!(
        "  serve.queue_wait_mean_ms       {:>12.4}",
        per(queue_ms)
    ));
    report.line(format!(
        "  serve.queue_wait_p99_ms        {:>12.4}  (histogram bucket bound)",
        queue_p99(&lp.prom_before, &lp.prom_after)
    ));
    report.line(format!(
        "  serve.service_mean_ms          {:>12.4}",
        per(service_ms)
    ));
    report.line(format!(
        "    engine.solve (sampled spans) {:>12.4}  inclusive",
        per(solve_ms)
    ));
    report.line(format!(
        "    worker outside solve         {:>12.4}",
        per(service_ms - solve_ms)
    ));
    report.line("server-sampled spans, inclusive ms per request (concurrent solves share a track, so not nested)");
    for (layer, (ns, count)) in &server_layers {
        report.line(format!(
            "  {layer:<28} {:>12.4}  spans {count}",
            per(*ns as f64 / 1e6)
        ));
    }

    // Routed shares among `auto` requests, by the solver that ran.
    let mut routed: BTreeMap<&str, u64> = BTreeMap::new();
    let mut autos = 0u64;
    for (b, count) in lp.per_body.iter().enumerate() {
        if bodies[b].solver == "auto" {
            autos += count;
            *routed.entry(ran[b].as_str()).or_default() += count;
        }
    }
    report.line(format!(
        "engine.routed shares among {autos} auto requests (kind: timing)"
    ));
    for (solver, count) in &routed {
        report.line(format!(
            "  engine.routed.{solver:<14} {:>8.4}",
            *count as f64 / autos.max(1) as f64
        ));
    }
    let mut shapes: BTreeMap<&str, usize> = BTreeMap::new();
    for it in &items {
        *shapes.entry(it.shape).or_default() += 1;
    }
    report.line(format!("pool shapes: {shapes:?}"));

    // Replays over the run's exact bytes: every body of serve_hot with
    // its warm-up reply; the first bodies serve_cold sent (tag 0, so
    // the generated text itself) with their first replies.
    let replayed: Vec<(usize, &Reply)> = match mode {
        Mode::Hot => warm.iter().enumerate().collect(),
        Mode::Cold => lp
            .first
            .iter()
            .enumerate()
            .filter_map(|(b, f)| f.as_ref().map(|(r, _)| (b, r)))
            .take(REPLAY_CAP)
            .collect(),
    };
    let requests: Vec<Vec<u8>> = replayed
        .iter()
        .map(|(b, _)| bodies[*b].request.clone())
        .collect();
    let rendered = replayed
        .iter()
        .map(|(_, r)| Rendered::of(r))
        .collect::<Result<Vec<_>, _>>()?;
    let raw_bodies: Vec<String> = replayed
        .iter()
        .map(|(b, _)| bodies[*b].text.clone())
        .collect();
    // The lookup replay: a cache of the server's shape holding what the
    // run left in it, probed the way the run probed it.
    let (shards, bytes) = cache_shape();
    let lookup_us = match mode {
        Mode::Hot => {
            let resident: Vec<(String, &str)> = raw_bodies
                .iter()
                .zip(&replayed)
                .map(|(text, (_, r))| (text.clone(), r.body()))
                .collect();
            layers::lookup_us(shards, bytes, &resident, &raw_bodies)
        }
        Mode::Cold => {
            // The run's last bodies, each with its base's reply as the
            // cached value, and as probes the bodies the run would have
            // sent next, which it never inserted.
            let tagged = |seq: usize| {
                let (b, tag) = cold_slot(seq);
                gen::tag_body(&bodies[b].text, tag)
            };
            let resident: Vec<(String, &str)> = (n.saturating_sub(RESIDENT_CAP)..n)
                .filter_map(|seq| {
                    let (b, _) = cold_slot(seq);
                    lp.first[b].as_ref().map(|(r, _)| (tagged(seq), r.body()))
                })
                .collect();
            let probes: Vec<String> = (n..n + REPLAY_CAP).map(tagged).collect();
            layers::lookup_us(shards, bytes, &resident, &probes)
        }
    };
    let instances: Vec<&Instance> = items.iter().map(|i| &i.instance).collect();
    let serialise: Vec<(&Instance, SolveBody)> = bodies
        .iter()
        .enumerate()
        .take(REPLAY_CAP)
        .map(|(b, body)| {
            let (sol, rep) = &plain.runs[b];
            (
                &items[body.item].instance,
                SolveBody {
                    solver: body.solver.clone(),
                    score: sol.score,
                    matches: sol.matches.clone(),
                    report: rep.clone(),
                },
            )
        })
        .collect();
    crate::replay_metrics(
        &mut report,
        args.seed,
        &requests,
        &rendered,
        &raw_bodies,
        lookup_us,
        &serialise,
        &instances,
    );

    // What share of the client's time the layers account for: exact
    // queue and service sums from the server; the unattributed rest is
    // the client, the kernel's loopback and the event loop.
    let attributed = queue_ms + service_ms;
    report.line(format!(
        "serve attribution: queue + service = {:.4} of client time; outside (client, loopback, event loop) = {:.4}",
        attributed / client_sum_ms,
        outside_ms / client_sum_ms
    ));
    Ok(report)
}

/// Approximate p99 queue wait over the window from the cumulative
/// histogram buckets (the bucket's upper bound).
fn queue_p99(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> f64 {
    let mut buckets: Vec<(f64, f64)> = after
        .iter()
        .filter_map(|(k, v)| {
            let le = k
                .strip_prefix("fragalign_queue_wait_seconds_bucket{le=\"")?
                .strip_suffix("\"}")?;
            let le: f64 = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, v - before.get(k).copied().unwrap_or(0.0)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    buckets
        .iter()
        .find(|(_, cum)| *cum >= 0.99 * total)
        .map_or(
            0.0,
            |(le, _)| if le.is_finite() { le * 1e3 } else { f64::NAN },
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_part_ignores_the_timing_report() {
        let a =
            r#"{"solver":"auto","score":7,"matches":[1],"report":{"wall_secs":0.25,"rounds":1}}"#;
        let b =
            r#"{"solver":"auto","score":7,"matches":[1],"report":{"wall_secs":0.5,"rounds":1}}"#;
        let c =
            r#"{"solver":"auto","score":8,"matches":[1],"report":{"wall_secs":0.25,"rounds":1}}"#;
        assert_eq!(result_hash(a), result_hash(b));
        assert_ne!(result_hash(a), result_hash(c));
        assert_eq!(solve_ms(a), 250.0);
        assert_eq!(solve_ms(b), 500.0);
        assert_eq!(solve_ms("{}"), 0.0);
    }
}
