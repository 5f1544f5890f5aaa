//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_hot`, `serve_cold`, `batch_offline` (see
//! README.md for why each exists and what it predicts). An untraced
//! run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer table and metrics. The last line
//! of standard output is always one JSON object. Every result is
//! checked against a width-1 in-process solve; a mismatch makes the
//! run exit 1, and a run that cannot measure exits 2 without a JSON
//! line.

mod batch;
mod calib;
mod client;
mod fold;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod work;

use fold::Span;
use fragalign::model::Instance;
use layers::{Rendered, SolveBody};
use report::{Kind, Report, PER_LAYER};
use stats::{median, samples_needed, windowed_percentile};
use work::{Counters, Pass};

/// Set-up is repeated this many times in an untraced run and its
/// median reported, so one slow start cannot move `setup_s`.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        let report = match args.workload.as_str() {
            "serve_hot" => serve::run(serve::Mode::Hot, &args),
            "serve_cold" => serve::run(serve::Mode::Cold, &args),
            "batch_offline" => batch::run(&args),
            other => Err(format!(
                "unknown workload {other} (serve_hot, serve_cold, batch_offline)"
            )),
        }?;
        Ok((report.render(args.traced)?, report.correct()))
    });
    match outcome {
        Ok((text, correct)) => {
            print!("{text}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The end-to-end metrics of an untraced run from its per-window
/// latency samples (milliseconds), how many requests or solves each
/// window completed, the time each window's work took, the host-speed
/// readings taken during the run (set-up included) and the set-up
/// times. Timing figures are divided by the run's host factor, the
/// median reading (see `calib`); the raw ones are printed beside them.
#[allow(clippy::too_many_arguments)]
pub fn end_to_end(
    report: &mut Report,
    windows: Vec<Vec<f64>>,
    counts: &[usize],
    spans_s: &[f64],
    readings: &[f64],
    score_ratio: f64,
    setup_s: &[f64],
    rss_mb: f64,
) -> Result<(), String> {
    let n: usize = counts.iter().sum();
    let sampled: usize = windows.iter().map(Vec::len).sum();
    let host = median(readings);
    let windows: Vec<Vec<f64>> = windows
        .into_iter()
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            w
        })
        .collect();
    let rates: Vec<f64> = counts
        .iter()
        .zip(spans_s)
        .map(|(&count, span)| count as f64 / span)
        .collect();
    let throughput = median(&rates);
    report.set("throughput_per_s", throughput * host);
    let mut raw_line = format!("raw (uncorrected): throughput_per_s {throughput:.4}");
    for (name, q) in [("latency_p50_ms", 0.50), ("latency_p90_ms", 0.90)] {
        let value = windowed_percentile(&windows, q).ok_or_else(|| {
            format!(
                "{sampled} samples are too few for {name}, which needs {}",
                samples_needed(q)
            )
        })?;
        report.set(name, value / host);
        raw_line.push_str(&format!(" {name} {value:.6}"));
    }
    // p99 is printed, not bounded: on a shared host it mostly measures
    // how often the host preempts its virtual CPUs (see README.md).
    if let Some(p99) = windowed_percentile(&windows, 0.99) {
        report.line(format!(
            "latency_p99_ms {:.6} (table only; {sampled} samples)",
            p99 / host
        ));
    }
    let setup = median(setup_s);
    report.set("score_ratio", score_ratio);
    report.set("setup_s", setup / host);
    report.set("rss_peak_mb", rss_mb);
    raw_line.push_str(&format!(" setup_s {setup:.6}"));
    let (lo, hi) = readings
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    report.line(format!(
        "completed {n} in {} windows {counts:?}; latency samples {sampled} (at most {} a window); host factor {host:.4}, median of {} readings in [{lo:.3}, {hi:.3}]",
        windows.len(),
        stats::WINDOW_SAMPLES,
        readings.len(),
    ));
    report.line(raw_line);
    Ok(())
}

fn self_ms(
    layers: &std::collections::BTreeMap<String, (u64, u64)>,
    pred: impl Fn(&str) -> bool,
) -> f64 {
    layers
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(_, (ns, _))| *ns as f64 / 1e6)
        .sum()
}

/// Metrics and table rows of the width-1 pass: self time by layer from
/// the traced copy, exact counters from the untraced one.
pub fn pass_metrics(report: &mut Report, plain: &Pass, traced: &Pass, c: Counters) {
    let layers = fold::self_by_layer(&traced.spans);
    let span_ms = self_ms(&layers, |_| true);
    let traced_ms = traced.wall_s * 1e3;
    report.set("engine.width1_pass_ms", plain.wall_s * 1e3);
    report.set(
        "engine.solve_self_ms",
        self_ms(&layers, |k| k == "engine.solve"),
    );
    report.set(
        "solver.phase_self_ms",
        self_ms(&layers, |k| {
            k.starts_with("phase.") || k.starts_with("chain.")
        }),
    );
    report.set(
        "improve.round_self_ms",
        self_ms(&layers, |k| k == "improve.round"),
    );
    report.set(
        "oracle.table_fill_ms",
        self_ms(&layers, |k| k == "oracle.table_fill"),
    );
    report.set("bench.trace_coverage", span_ms / traced_ms);
    report.set("bench.trace_overhead_ratio", traced.wall_s / plain.wall_s);
    report.set("improve.rounds", c.rounds as f64);
    report.set("improve.attempts", c.attempts as f64);
    report.set(
        "improve.commit_ratio",
        if c.attempts == 0 {
            0.0
        } else {
            c.rounds as f64 / c.attempts as f64
        },
    );
    report.set("oracle.table_misses", c.table_misses as f64);
    report.set("oracle.pair_misses", c.pair_misses as f64);
    report.set("oracle.dp_fills", c.dp_fills as f64);
    report.set("oracle.dp_reallocs", c.dp_reallocs as f64);
    let tables: Vec<&Span> = traced
        .spans
        .iter()
        .filter(|s| s.name == "table_fill")
        .collect();
    let profiled = tables.iter().filter(|s| s.label == "profiled").count();
    report.set(
        "oracle.table_profiled_share",
        if tables.is_empty() {
            0.0
        } else {
            profiled as f64 / tables.len() as f64
        },
    );

    report.line(format!(
        "self time by layer: width-1 traced pass, {} solves, {traced_ms:.3} ms of solve calls (kind: timing)",
        traced.runs.len()
    ));
    report.line(format!(
        "  {:<28} {:>12} {:>8} {:>8}",
        "layer", "self_ms", "spans", "share"
    ));
    for (layer, (ns, count)) in &layers {
        let ms = *ns as f64 / 1e6;
        report.line(format!(
            "  {layer:<28} {ms:>12.4} {count:>8} {:>8.4}",
            ms / traced_ms
        ));
    }
    report.line(format!(
        "  {:<28} {:>12.4} {:>8} {:>8.4}",
        "(outside any span)",
        traced_ms - span_ms,
        "",
        (traced_ms - span_ms) / traced_ms
    ));
    report.line(format!(
        "  bench.trace_coverage {:.4}, bench.trace_overhead_ratio {:.4} (traced {traced_ms:.3} ms vs untraced {:.3} ms)",
        span_ms / traced_ms,
        traced.wall_s / plain.wall_s,
        plain.wall_s * 1e3
    ));

    let mut per_solver: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for (_, r) in &plain.runs {
        let row = per_solver.entry(r.solver.as_str()).or_default();
        row.0 += r.wall_secs * 1e3;
        row.1 += 1;
    }
    report.line("engine.solve_ms.<solver>: mean width-1 solve wall (kind: timing)");
    for (solver, (ms, count)) in &per_solver {
        report.line(format!(
            "  engine.solve_ms.{solver:<12} {:>10.4}  solves {count}",
            ms / *count as f64
        ));
    }
    report.line(format!(
        "exact counters of the width-1 pass (the oracle's miss counters do not repeat at width > 1): {c:?}"
    ));
    let kinds: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, _, k)| format!("{n}={}", if *k == Kind::Exact { "exact" } else { "timing" }))
        .collect();
    report.line(format!("metric kinds: {}", kinds.join(" ")));
}

/// The outside-call replays over a workload's own inputs.
#[allow(clippy::too_many_arguments)]
pub fn replay_metrics(
    report: &mut Report,
    seed: u64,
    requests: &[Vec<u8>],
    rendered: &[Rendered],
    bodies: &[String],
    lookup_us: f64,
    serialise: &[(&Instance, SolveBody)],
    instances: &[&Instance],
) {
    const TABLE_INSTANCES: usize = 32;
    const PAIRS_PER_INSTANCE: usize = 24;
    let subset = &instances[..instances.len().min(TABLE_INSTANCES)];
    let pairs = layers::site_pairs(seed, subset, PAIRS_PER_INSTANCE);
    let rows = [
        ("serve.http.frame_us", layers::frame_us(requests)),
        ("serve.http.render_us", layers::render_us(rendered)),
        ("serve.cache.lookup_us", lookup_us),
        ("serve.decode_us", layers::decode_us(bodies)),
        ("serve.serialise_us", layers::serialise_us(serialise)),
        ("engine.route_us", layers::route_us(instances)),
        ("engine.bound_us", layers::bound_us(instances)),
        ("oracle.table_us", layers::table_us(subset)),
        ("oracle.pair_us", layers::pair_us(subset, &pairs)),
        ("kernel.ms_words_us", layers::ms_words_us(subset, &pairs)),
        ("kernel.cells_per_s", layers::cells_per_s(subset, &pairs)),
    ];
    report.line(format!(
        "replayed layers, per call, median over samples (kind: timing): {} requests, {} replies, {} instances",
        requests.len(),
        rendered.len(),
        instances.len()
    ));
    for (name, value) in rows {
        report.line(format!("  {name:<28} {value:>14.4}"));
        report.set(name, value);
    }
}
