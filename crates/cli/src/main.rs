//! `fragalign` — solve CSR instances from the command line.
//!
//! ```text
//! fragalign solve  [--algo NAME] [--scaling] [--threads N] [--report json] [--trace out.json] <instance.json|->
//! fragalign solve  --batch [--algo NAME] [--scaling] [--threads N] [--report json] <dir|instances.jsonl>
//! fragalign serve  [--addr A] [--workers N] [--queue-depth N] [--cache-mb N] [--default-solver NAME]
//!                  [--max-conns N] [--idle-timeout MS] [--admission on|off] [--trace-sample N]
//! fragalign gen    [--channel C] [--regions N] [--seed S] [channel knobs...]
//! fragalign demo
//! fragalign solvers
//! ```
//!
//! * `solve` reads an instance (JSON), runs the chosen solver and
//!   prints the score, the matches and the two-row layout. `--algo`
//!   takes any name the [`SolverRegistry`] knows — including
//!   `one-csr`, `exact` (small instances) and the racing `portfolio`
//!   meta-solver; `--report json` emits the engine's uniform
//!   telemetry record instead of the human-readable layout;
//!   `--threads N` runs the solve on a dedicated N-thread pool
//!   (`0`, the default, uses one thread per core — results are
//!   bit-identical at any width); `--trace out.json` records the
//!   solve's phase/racer timeline and writes it as a Chrome
//!   trace-event file (open in `chrome://tracing` or Perfetto) —
//!   tracing never changes results.
//! * `solve --batch` reads many instances — every `*.json` file of a
//!   directory, or one JSON instance per line of a `.jsonl` file — and
//!   solves them all through the batch pipeline (one summary line per
//!   instance instead of full layouts).
//! * `serve` runs the concurrent HTTP alignment service
//!   (`fragalign-serve`): a poll(2)-driven event loop feeding a fixed
//!   worker pool through a bounded queue (503 when full), HTTP/1.1
//!   keep-alive and pipelining, load-aware admission control
//!   (`--admission off` restores solve-as-asked), the sharded result
//!   cache, and the JSON endpoints listed in its startup banner.
//!   `--max-conns`/`--idle-timeout` bound concurrent sockets and evict
//!   idle ones; `--trace-sample N` records every Nth solve into the
//!   ring served at `GET /debug/trace`. SIGINT/ctrl-c drains
//!   in-flight requests before exiting.
//! * `gen` emits a synthetic instance as JSON (pipe into `solve`).
//!   `--channel` picks the workload: `clean` (the default simulator),
//!   the adversarial `torn` (torn-paper breakpoints, drops,
//!   duplications) and `soup` (short overlapping noisy reads)
//!   channels, or a degenerate shape (`mega`, `singletons`,
//!   `desert`). Channel-specific knobs on the wrong channel are a
//!   usage error.
//! * `demo` runs the paper's Fig. 2 example end to end.
//! * `solvers` lists every registered solver with its paper reference.

use fragalign_align::DpAligner;
use fragalign_core as core;
use fragalign_core::{BatchOptions, EngineOptions, SolveReport, SolverRegistry};
use fragalign_model::{Instance, LayoutBuilder, MatchSet};
use fragalign_serve::{ServeConfig, Server};
use fragalign_sim::{
    generate, generate_degenerate, generate_soup, generate_torn, DegenerateShape, SimConfig,
    SoupConfig, TornConfig,
};
use serde::Serialize;
use std::io::{Read, Write};
use std::process::ExitCode;

/// Write to stdout, exiting quietly (status 0) when its reader has gone
/// away, as in `fragalign gen … | head`: a closed pipe ends the output
/// early but is no error of this program. Any other write error panics,
/// as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn algo_names() -> String {
    SolverRegistry::global().names().join("|")
}

fn usage() -> ExitCode {
    let names = algo_names();
    eprintln!(
        "usage:\n  fragalign solve [--algo {names}] [--scaling] [--threads N] [--report json] [--trace out.json] <instance.json|->\n  fragalign solve --batch [--algo {names}] [--scaling] [--threads N] [--report json] <dir|instances.jsonl>\n  fragalign serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--cache-mb N] [--default-solver {names}]\n                  [--max-conns N] [--idle-timeout MS] [--admission on|off] [--trace-sample N]\n  fragalign gen [--channel clean|torn|soup|mega|singletons|desert] [--regions N] [--seed S]\n                [--h-frags N] [--m-frags N] [--noise X]           (clean; noise also soup)\n                [--tear-rate X] [--drop-rate X] [--dup-rate X]    (torn)\n                [--read-len N] [--coverage X] [--sub-rate X]      (soup)\n  fragalign demo\n  fragalign solvers"
    );
    ExitCode::from(2)
}

fn parse_instance(data: &str) -> Result<Instance, String> {
    let mut inst: Instance = serde_json::from_str(data).map_err(|e| e.to_string())?;
    inst.alphabet.rebuild_index();
    inst.validate()?;
    Ok(inst)
}

fn read_instance(path: &str) -> Result<Instance, String> {
    let data = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    parse_instance(&data)
}

/// Load a batch: every `*.json` file of a directory (sorted by name,
/// so batch order is deterministic), a single `.json` instance file
/// (a batch of one), or one instance per non-empty line of a JSONL
/// file.
fn read_batch(path: &str) -> Result<(Vec<String>, Vec<Instance>), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
    let mut names = Vec::new();
    let mut instances = Vec::new();
    if meta.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{path}: no *.json instances found"));
        }
        for file in files {
            let name = file.display().to_string();
            let data = std::fs::read_to_string(&file).map_err(|e| format!("{name}: {e}"))?;
            instances.push(parse_instance(&data).map_err(|e| format!("{name}: {e}"))?);
            names.push(name);
        }
    } else if std::path::Path::new(path)
        .extension()
        .is_some_and(|ext| ext == "json")
    {
        // A lone instance file (the format `gen` emits is pretty-printed,
        // so line-wise JSONL parsing would reject it).
        let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        instances.push(parse_instance(&data).map_err(|e| format!("{path}: {e}"))?);
        names.push(path.to_owned());
    } else {
        let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (lineno, line) in data.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            instances
                .push(parse_instance(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?);
            names.push(format!("{path}:{}", lineno + 1));
        }
        if instances.is_empty() {
            return Err(format!("{path}: no instances found"));
        }
    }
    Ok((names, instances))
}

/// One instance of the batch JSON report: the input name (file path
/// or `file:line` for JSONL) plus the engine's telemetry record.
#[derive(Serialize)]
struct BatchResult {
    name: String,
    report: SolveReport,
}

/// The batch summary `--batch --report json` emits.
#[derive(Serialize)]
struct BatchReport {
    solver: String,
    instances: usize,
    total_score: i64,
    instances_per_sec: f64,
    results: Vec<BatchResult>,
}

fn solve_batch_cmd(algo: &str, scaling: bool, threads: usize, json: bool, path: &str) -> ExitCode {
    let (names, instances) = match read_batch(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = BatchOptions::new(algo);
    opts.engine.scaling = scaling;
    opts.engine.threads = threads;
    let start = std::time::Instant::now();
    let solutions = match core::solve_batch_reports(&instances, &opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();
    let total: i64 = solutions.iter().map(|(sol, _)| sol.score).sum();
    let per_sec = solutions.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    if json {
        let report = BatchReport {
            solver: algo.to_owned(),
            instances: solutions.len(),
            total_score: total,
            instances_per_sec: per_sec,
            results: names
                .into_iter()
                .zip(solutions)
                .map(|(name, (_, report))| BatchResult { name, report })
                .collect(),
        };
        match serde_json::to_string_pretty(&report) {
            Ok(s) => outln!("{s}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    for (name, (sol, _)) in names.iter().zip(&solutions) {
        outln!("{name}: score {}, {} matches", sol.score, sol.matches.len());
    }
    outln!(
        "batch: {} instances, total score {total}, algo {algo}, {per_sec:.1} instances/s",
        solutions.len(),
    );
    ExitCode::SUCCESS
}

fn report(inst: &Instance, matches: &MatchSet) {
    match core::solution_stats(inst, matches) {
        Ok(stats) => out!("{stats}"),
        Err(e) => outln!("inconsistent solution: {e}"),
    }
    for (id, m) in matches.iter() {
        outln!(
            "  #{id}: {:?} ~ {:?} ({:?}, score {})",
            m.h,
            m.m,
            m.orient,
            m.score
        );
    }
    match LayoutBuilder::new(inst, &DpAligner).layout(matches) {
        Ok(pair) => {
            outln!("layout (H over M):\n{}", pair.render(inst));
        }
        Err(e) => outln!("layout failed: {e}"),
    }
}

fn solve_cmd(
    algo: &str,
    scaling: bool,
    threads: usize,
    json: bool,
    trace_path: Option<&str>,
    inst: &Instance,
) -> ExitCode {
    let opts = BatchOptions {
        solver: algo.to_owned(),
        engine: EngineOptions { scaling, threads },
    };
    let sink = trace_path.map(|_| core::obs::TraceSink::new());
    let trace = sink
        .as_ref()
        .map_or_else(core::obs::TraceHandle::disabled, |s| {
            core::obs::TraceHandle::new(std::sync::Arc::clone(s))
        });
    let mut ws = fragalign_align::DpWorkspace::new();
    let (solution, run_report) = match core::solve_single_traced(inst, &opts, &mut ws, trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(sink)) = (trace_path, sink) {
        let log = sink.drain();
        if let Err(e) = std::fs::write(path, log.to_chrome_json()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: {} events ({} dropped) -> {path} (load in chrome://tracing or Perfetto)",
            log.events.len(),
            log.dropped
        );
    }
    if json {
        return match serde_json::to_string_pretty(&run_report) {
            Ok(s) => {
                outln!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(winner) = &run_report.winner {
        outln!("portfolio winner: {winner}");
    }
    report(inst, &solution.matches);
    ExitCode::SUCCESS
}

/// Cooperative SIGINT/SIGTERM handling without a signals crate: the
/// handler just flips an atomic, and the serve loop polls it. Storing
/// an `AtomicBool` is async-signal-safe; everything else (draining
/// workers, printing) happens on the main thread afterwards.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn flag_shutdown(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // std links libc, so `signal` is declarable directly — the
        // container has no crate registry for the `libc` crate.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, flag_shutdown);
            signal(SIGTERM, flag_shutdown);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Whether a graceful stop was requested. Only unix delivers one
/// (SIGINT/SIGTERM); elsewhere `serve` runs until the process is
/// killed, and this indirection keeps the shutdown path compiled (and
/// warning-free) on every target.
fn shutdown_requested() -> bool {
    #[cfg(unix)]
    {
        sigint::requested()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

fn serve_cmd(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => cfg.addr = v.clone(),
                None => return usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.workers = v,
                None => return usage(),
            },
            "--queue-depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.queue_depth = v,
                None => return usage(),
            },
            "--cache-mb" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.cache_mb = v,
                None => return usage(),
            },
            "--default-solver" => match it.next() {
                Some(v) => cfg.default_solver = v.clone(),
                None => return usage(),
            },
            "--max-conns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_conns = v,
                None => return usage(),
            },
            "--idle-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.idle_timeout_ms = v,
                None => return usage(),
            },
            "--admission" => match it.next().map(|v| v.as_str()) {
                Some("on") => cfg.admission.enabled = true,
                Some("off") => cfg.admission.enabled = false,
                _ => return usage(),
            },
            "--trace-sample" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.trace_sample = v,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    #[cfg(unix)]
    sigint::install();
    let banner_cfg = cfg.clone();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!("fragalign-serve listening on http://{}", server.addr());
    outln!(
        "  workers {} | queue depth {} | cache {} MiB in {} shards | default solver {}",
        banner_cfg.workers.max(1),
        banner_cfg.queue_depth.max(1),
        banner_cfg.cache_mb,
        banner_cfg.cache_shards,
        banner_cfg.default_solver
    );
    outln!(
        "  max conns {} | idle timeout {} ms | admission {} | trace sample {}",
        banner_cfg.max_conns.max(1),
        banner_cfg.idle_timeout_ms.max(1),
        if banner_cfg.admission.enabled {
            "on"
        } else {
            "off"
        },
        if banner_cfg.trace_sample > 0 {
            format!("1-in-{}", banner_cfg.trace_sample)
        } else {
            "off".to_string()
        }
    );
    outln!(
        "  endpoints: POST /v1/solve, POST /v1/batch, GET /v1/solvers, GET /healthz, GET /metrics"
    );
    outln!("  press ctrl-c to drain and stop");
    // Stdout is block-buffered when piped; the banner must reach
    // process supervisors (and the golden test) before the first
    // request arrives.
    let _ = std::io::stdout().flush();
    while !shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    outln!("fragalign-serve: draining workers and stopping");
    server.shutdown();
    outln!("fragalign-serve: stopped cleanly");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "demo" => {
            let inst = fragalign_model::instance::paper_example();
            outln!("instance: the paper's Fig. 2 example");
            solve_cmd("csr", false, 0, false, None, &inst)
        }
        "solvers" => {
            out!("{}", SolverRegistry::global().markdown_table());
            ExitCode::SUCCESS
        }
        "serve" => serve_cmd(&args[1..]),
        "solve" => {
            let mut algo = "csr".to_owned();
            let mut scaling = false;
            let mut threads = 0usize;
            let mut batch = false;
            let mut json = false;
            let mut trace: Option<String> = None;
            let mut path: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--algo" => match it.next() {
                        Some(v) => algo = v.clone(),
                        None => return usage(),
                    },
                    "--trace" => match it.next() {
                        Some(v) => trace = Some(v.clone()),
                        None => return usage(),
                    },
                    "--report" => match it.next().map(String::as_str) {
                        Some("json") => json = true,
                        _ => return usage(),
                    },
                    // 0 (the default) = available parallelism: the
                    // ambient pool is already one thread per core.
                    "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(v) => threads = v,
                        None => return usage(),
                    },
                    "--scaling" => scaling = true,
                    "--batch" => batch = true,
                    other => path = Some(other.to_owned()),
                }
            }
            let Some(path) = path else { return usage() };
            if batch {
                if trace.is_some() {
                    eprintln!("error: --trace applies to single solves, not --batch");
                    return usage();
                }
                return solve_batch_cmd(&algo, scaling, threads, json, &path);
            }
            let inst = match read_instance(&path) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            solve_cmd(&algo, scaling, threads, json, trace.as_deref(), &inst)
        }
        "gen" => {
            // Flags are parsed channel-agnostically and folded into
            // whichever generator `--channel` selects; a knob the
            // selected channel has no use for is a usage error, so a
            // typo'd sweep script fails loudly instead of silently
            // generating the wrong workload.
            fn next_parsed<T: std::str::FromStr>(
                it: &mut std::slice::Iter<'_, String>,
            ) -> Option<T> {
                it.next().and_then(|v| v.parse().ok())
            }
            let mut channel = "clean".to_owned();
            let mut regions: Option<usize> = None;
            let mut h_frags: Option<usize> = None;
            let mut m_frags: Option<usize> = None;
            let mut seed: Option<u64> = None;
            let mut noise: Option<f64> = None;
            let mut tear_rate: Option<f64> = None;
            let mut drop_rate: Option<f64> = None;
            let mut dup_rate: Option<f64> = None;
            let mut read_len: Option<usize> = None;
            let mut coverage: Option<f64> = None;
            let mut sub_rate: Option<f64> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--channel" => match it.next() {
                        Some(v) => channel = v.clone(),
                        None => return usage(),
                    },
                    "--regions" => match next_parsed(&mut it) {
                        Some(v) => regions = Some(v),
                        None => return usage(),
                    },
                    "--h-frags" => match next_parsed(&mut it) {
                        Some(v) => h_frags = Some(v),
                        None => return usage(),
                    },
                    "--m-frags" => match next_parsed(&mut it) {
                        Some(v) => m_frags = Some(v),
                        None => return usage(),
                    },
                    "--seed" => match next_parsed(&mut it) {
                        Some(v) => seed = Some(v),
                        None => return usage(),
                    },
                    "--noise" => match next_parsed(&mut it) {
                        Some(v) => noise = Some(v),
                        None => return usage(),
                    },
                    "--tear-rate" => match next_parsed(&mut it) {
                        Some(v) => tear_rate = Some(v),
                        None => return usage(),
                    },
                    "--drop-rate" => match next_parsed(&mut it) {
                        Some(v) => drop_rate = Some(v),
                        None => return usage(),
                    },
                    "--dup-rate" => match next_parsed(&mut it) {
                        Some(v) => dup_rate = Some(v),
                        None => return usage(),
                    },
                    "--read-len" => match next_parsed(&mut it) {
                        Some(v) => read_len = Some(v),
                        None => return usage(),
                    },
                    "--coverage" => match next_parsed(&mut it) {
                        Some(v) => coverage = Some(v),
                        None => return usage(),
                    },
                    "--sub-rate" => match next_parsed(&mut it) {
                        Some(v) => sub_rate = Some(v),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            // Reject knobs the selected channel cannot honour.
            let misapplied = match channel.as_str() {
                "clean" => [
                    tear_rate.is_some(),
                    drop_rate.is_some(),
                    dup_rate.is_some(),
                    read_len.is_some(),
                    coverage.is_some(),
                    sub_rate.is_some(),
                ]
                .iter()
                .any(|&b| b),
                "torn" => [
                    m_frags.is_some(),
                    noise.is_some(),
                    read_len.is_some(),
                    coverage.is_some(),
                    sub_rate.is_some(),
                ]
                .iter()
                .any(|&b| b),
                "soup" => [
                    m_frags.is_some(),
                    tear_rate.is_some(),
                    drop_rate.is_some(),
                    dup_rate.is_some(),
                ]
                .iter()
                .any(|&b| b),
                "mega" | "singletons" | "desert" => [
                    h_frags.is_some(),
                    m_frags.is_some(),
                    noise.is_some(),
                    tear_rate.is_some(),
                    drop_rate.is_some(),
                    dup_rate.is_some(),
                    read_len.is_some(),
                    coverage.is_some(),
                    sub_rate.is_some(),
                ]
                .iter()
                .any(|&b| b),
                _ => return usage(),
            };
            if misapplied {
                eprintln!("error: a flag does not apply to --channel {channel}");
                return usage();
            }
            let instance = match channel.as_str() {
                "clean" => {
                    let mut cfg = SimConfig::default();
                    if let Some(v) = regions {
                        cfg.regions = v;
                    }
                    if let Some(v) = h_frags {
                        cfg.h_frags = v;
                    }
                    if let Some(v) = m_frags {
                        cfg.m_frags = v;
                    }
                    if let Some(v) = seed {
                        cfg.seed = v;
                    }
                    if let Some(v) = noise {
                        cfg.loss_rate = v;
                        cfg.spurious = (v * 20.0) as usize;
                        cfg.shuffles = (v * 10.0) as usize;
                    }
                    generate(&cfg).instance
                }
                "torn" => {
                    let mut cfg = TornConfig::default();
                    if let Some(v) = regions {
                        cfg.regions = v;
                    }
                    if let Some(v) = h_frags {
                        cfg.h_frags = v;
                    }
                    if let Some(v) = seed {
                        cfg.seed = v;
                    }
                    if let Some(v) = tear_rate {
                        cfg.tear_rate = v;
                    }
                    if let Some(v) = drop_rate {
                        cfg.drop_rate = v;
                    }
                    if let Some(v) = dup_rate {
                        cfg.dup_rate = v;
                    }
                    generate_torn(&cfg).instance
                }
                "soup" => {
                    let mut cfg = SoupConfig::default();
                    if let Some(v) = regions {
                        cfg.regions = v;
                    }
                    if let Some(v) = h_frags {
                        cfg.h_frags = v;
                    }
                    if let Some(v) = seed {
                        cfg.seed = v;
                    }
                    if let Some(v) = noise {
                        cfg.noise = v;
                    }
                    if let Some(v) = read_len {
                        cfg.read_len = v;
                    }
                    if let Some(v) = coverage {
                        cfg.coverage = v;
                    }
                    if let Some(v) = sub_rate {
                        cfg.sub_rate = v;
                    }
                    generate_soup(&cfg).instance
                }
                shape => {
                    let shape = match shape {
                        "mega" => DegenerateShape::MegaFragment,
                        "singletons" => DegenerateShape::AllSingletons,
                        _ => DegenerateShape::SigmaDesert,
                    };
                    generate_degenerate(shape, regions.unwrap_or(24), seed.unwrap_or(0)).instance
                }
            };
            match serde_json::to_string_pretty(&instance) {
                Ok(s) => {
                    outln!("{s}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
