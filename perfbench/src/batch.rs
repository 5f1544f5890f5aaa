//! `batch_offline`: `core::batch::solve_batch_reports` over a fixed
//! seeded instance set, solver by solver, with no HTTP anywhere.

use crate::client::request_bytes;
use crate::gen::{self, Item};
use crate::layers::{self, Rendered, SolveBody};
use crate::report::Report;
use crate::stats::WINDOWS;
use crate::work::{self, Counters};
use crate::{Args, SETUP_REPS};
use fragalign::core::{solve_batch_reports, BatchOptions, BatchSolution};
use fragalign::model::Instance;
use std::time::{Duration, Instant};

const MULTI_M: usize = 192;
const SINGLE_M: usize = 48;
/// `portfolio` is left out: its racers stop at timing-dependent points,
/// so its counters do not repeat.
const SOLVERS: [&str; 6] = ["csr", "full", "four", "greedy", "chain", "matching"];

struct Setup {
    multi: Vec<Item>,
    single: Vec<Item>,
}

fn setup(seed: u64) -> Setup {
    Setup {
        multi: (0..MULTI_M).map(|i| gen::batch_instance(seed, i)).collect(),
        single: (0..SINGLE_M)
            .map(|i| gen::one_m_instance(seed, i))
            .collect(),
    }
}

/// The pass order: every solver over the multi-M set, then `one-csr`
/// over the single-M slice.
fn jobs(s: &Setup) -> Vec<(&'static str, Vec<&Instance>)> {
    let multi: Vec<&Instance> = s.multi.iter().map(|i| &i.instance).collect();
    let mut out: Vec<(&'static str, Vec<&Instance>)> = SOLVERS
        .iter()
        .map(|&solver| (solver, multi.clone()))
        .collect();
    out.push(("one-csr", s.single.iter().map(|i| &i.instance).collect()));
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = if args.traced { 1 } else { SETUP_REPS };
    let (mut setup_times, mut readings) = (Vec::new(), Vec::new());
    let mut s = None;
    for _ in 0..reps {
        drop(s.take());
        readings.push(crate::calib::slowdown());
        let t0 = Instant::now();
        s = Some(setup(args.seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let jobs = jobs(&s);
    let owned: Vec<Vec<Instance>> = jobs
        .iter()
        .map(|(_, insts)| insts.iter().map(|i| (*i).clone()).collect())
        .collect();

    // Reference pass first: every result of every pass is checked
    // against it as it arrives, so nothing accumulates across passes
    // (a run's memory must not grow with how many passes it fits).
    let items: Vec<(&Instance, &str)> = jobs
        .iter()
        .flat_map(|(solver, insts)| insts.iter().map(move |i| (*i, *solver)))
        .collect();
    // Traced runs pair every reference solve with a traced one.
    let (plain, traced_pass) = if args.traced {
        let (plain, traced) = work::width1_pair(&items)?;
        (plain, Some(traced))
    } else {
        (work::width1_pass(&items, false)?, None)
    };
    let mut first: Option<Vec<BatchSolution>> = None;
    let mut run_pass = |report: &mut Report| -> Result<(Vec<f64>, f64, f64), String> {
        let t0 = Instant::now();
        let (mut lat, mut busy) = (Vec::new(), 0.0);
        let mut sols = Vec::with_capacity(items.len());
        for ((solver, _), insts) in jobs.iter().zip(&owned) {
            let results = solve_batch_reports(insts, &BatchOptions::new(*solver))
                .map_err(|e| format!("batch {solver}: {e}"))?;
            for (sol, rep) in results {
                lat.push(rep.wall_secs * 1e3);
                busy += rep.wall_secs;
                sols.push(sol);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        for (k, sol) in sols.iter().enumerate() {
            // A result equal to the checked first pass's needs no second
            // consistency check.
            if first.as_ref().is_some_and(|f| &f[k] == sol) {
                continue;
            }
            let (inst, solver) = items[k];
            if let Err(e) = work::check(inst, sol.score, &sol.matches, plain.runs[k].0.score) {
                report.fail(format!("{solver} instance {k}: {e}"));
            }
        }
        first.get_or_insert(sols);
        Ok((lat, secs, busy))
    };
    // One untimed pass first, so first-use allocation and cold caches
    // are not billed to the run; its results are checked like the rest.
    run_pass(&mut report)?;
    // Timed loop: whole passes until the deadline, so every window
    // below holds the same mix of solvers.
    let mut timed: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut busy_s = 0.0;
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while timed.is_empty() || start.elapsed() < deadline {
        let (lat, secs, busy) = run_pass(&mut report)?;
        busy_s += busy;
        timed.push((lat, secs));
        // Host speed, measured between passes, outside their timing.
        readings.push(crate::calib::slowdown());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mb = crate::report::rss_peak_mb()?;
    let n_timed = timed.len();
    let groups = WINDOWS.min(n_timed);
    let mut windows = vec![Vec::new(); groups];
    let mut spans_s = vec![0.0; groups];
    for (j, (lat, secs)) in timed.into_iter().enumerate() {
        let w = j * groups / n_timed;
        windows[w].extend(lat);
        spans_s[w] += secs;
    }
    let width = fragalign::par::current_threads();
    let n: usize = windows.iter().map(Vec::len).sum();
    // The warm-up pass is checked too.
    report.attempted = (n + items.len()) as u64;

    let score: i64 = plain.runs.iter().map(|(sol, _)| sol.score).sum();
    let bound: i64 = items.iter().map(|(i, _)| i.score_upper_bound()).sum();
    let score_ratio = score as f64 / bound.max(1) as f64;
    report.line(format!(
        "workload batch_offline seed {} traced {}: {n_timed} timed passes, {n} instance solves, width {width}, {wall_s:.3} s",
        args.seed, args.traced
    ));

    if !args.traced {
        let counts: Vec<usize> = windows.iter().map(Vec::len).collect();
        crate::end_to_end(
            &mut report,
            windows,
            &counts,
            &spans_s,
            &readings,
            score_ratio,
            &setup_times,
            rss_mb,
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
        "score_ratio {score_ratio:.6} (exact; {} solves)",
        items.len()
    ));
    let pass_s: f64 = spans_s.iter().sum();
    report.set("par.busy_ratio", busy_s / (pass_s * width as f64));
    report.set("bench.trace_dropped", traced_pass.dropped as f64);
    // No server runs here: the serve-only counters and shares read 0.
    for name in [
        "serve.cache.hit_ratio",
        "serve.keepalive_reuse_ratio",
        "serve.cache.evictions",
        "serve.admission.degraded",
        "serve.rejected_503",
        "serve.queue_wait_share",
        "serve.service_share",
        "serve.outside_share",
    ] {
        report.set(name, 0.0);
    }

    // Replays: the serve layers on the bodies these instances would
    // travel in, and the oracle and kernel on the instances.
    let serialise: Vec<(&Instance, SolveBody)> = items
        .iter()
        .zip(&plain.runs)
        .map(|((inst, solver), (sol, rep))| {
            (
                *inst,
                SolveBody {
                    solver: solver.to_string(),
                    score: sol.score,
                    matches: sol.matches.clone(),
                    report: rep.clone(),
                },
            )
        })
        .collect();
    let bodies: Vec<String> = items
        .iter()
        .map(|(inst, solver)| {
            format!(
                "{{\"instance\":{},\"solver\":\"{solver}\"}}",
                serde_json::to_string(*inst).expect("instances serialise")
            )
        })
        .collect();
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| request_bytes("POST", "/v1/solve", b))
        .collect();
    let rendered: Vec<Rendered> = serialise
        .iter()
        .map(|(_, body)| Rendered::miss(serde_json::to_string(body).expect("bodies serialise")))
        .collect();
    let instances: Vec<&Instance> = s
        .multi
        .iter()
        .chain(&s.single)
        .map(|i| &i.instance)
        .collect();
    // Nothing is cached offline: every lookup misses an empty cache of
    // the server's shape.
    let (shards, bytes) = crate::serve::cache_shape();
    let lookup_us = layers::lookup_us(shards, bytes, &[], &bodies);
    crate::replay_metrics(
        &mut report,
        args.seed,
        &requests,
        &rendered,
        &bodies,
        lookup_us,
        &serialise,
        &instances,
    );
    Ok(report)
}
