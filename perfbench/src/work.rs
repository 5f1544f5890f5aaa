//! The width-1 pass and the correctness gate.
//!
//! Every result the benchmark sees, served or batched, is checked
//! against an in-process solve at engine width 1 by the solver that
//! actually ran. The same pass is where exact counters come from: the
//! oracle's miss counters only repeat at width 1.

use crate::fold::{self, Span};
use fragalign::core::{
    solve_single_traced, BatchOptions, BatchSolution, EngineOptions, SolveReport, TraceHandle,
    TraceSink,
};
use fragalign::model::{check_consistency, Instance, MatchSet, Score};
use fragalign::prelude::DpWorkspace;
use serde::Value;
use std::time::Instant;

/// Engine options of the reference pass: a dedicated one-thread pool.
pub fn width1() -> EngineOptions {
    EngineOptions {
        threads: 1,
        ..EngineOptions::default()
    }
}

/// A finished width-1 pass over `(instance, solver)` items.
#[derive(Default)]
pub struct Pass {
    /// Seconds spent inside the solve calls.
    pub wall_s: f64,
    pub runs: Vec<(BatchSolution, SolveReport)>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

/// Solve every item once at width 1 through one warm workspace, like
/// a one-worker batch. With `traced`, each solve records into its own
/// sink and the spans are kept.
pub fn width1_pass(items: &[(&Instance, &str)], traced: bool) -> Result<Pass, String> {
    let mut ws = DpWorkspace::new();
    let mut runs = Vec::with_capacity(items.len());
    let mut spans = Vec::new();
    let mut dropped = 0;
    let mut wall_s = 0.0;
    let epoch = Instant::now();
    for (inst, solver) in items {
        let opts = BatchOptions {
            solver: solver.to_string(),
            engine: width1(),
        };
        // Each solve records into a fresh sink whose clock starts at
        // zero; shifting by the sink's birth keeps solves apart on one
        // timeline so no span nests under another solve's.
        let sink = traced.then(TraceSink::new);
        let shift = epoch.elapsed().as_nanos() as u64;
        let handle = sink
            .as_ref()
            .map_or_else(TraceHandle::disabled, |s| TraceHandle::new(s.clone()));
        // Only the solve call is timed: sink allocation and draining
        // are the benchmark's cost, not the program's.
        let start = Instant::now();
        let run = solve_single_traced(inst, &opts, &mut ws, handle);
        wall_s += start.elapsed().as_secs_f64();
        let run = run.map_err(|e| format!("width-1 {solver} solve failed: {e}"))?;
        if let Some(sink) = sink {
            let log = sink.drain();
            dropped += log.dropped;
            spans.extend(fold::from_log(&log).into_iter().map(|mut sp| {
                sp.t0_ns += shift;
                sp
            }));
        }
        runs.push(run);
    }
    Ok(Pass {
        wall_s,
        runs,
        spans,
        dropped,
    })
}

/// The untraced and traced width-1 passes, run item by item in
/// alternating order so that neither copy always meets the warmer
/// caches; their walls then differ only by the cost of tracing.
pub fn width1_pair(items: &[(&Instance, &str)]) -> Result<(Pass, Pass), String> {
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    for (i, item) in items.iter().enumerate() {
        let one = std::slice::from_ref(item);
        let (p, t) = if i % 2 == 0 {
            let p = width1_pass(one, false)?;
            (p, width1_pass(one, true)?)
        } else {
            let t = width1_pass(one, true)?;
            (width1_pass(one, false)?, t)
        };
        plain.absorb(p);
        traced.absorb(t);
    }
    Ok((plain, traced))
}

impl Pass {
    fn absorb(&mut self, other: Pass) {
        // Each one-item pass has its own clock origin; stack them end to
        // end so no span nests under another solve's.
        let shift = self
            .spans
            .iter()
            .map(|s| s.t0_ns + s.dur_ns)
            .max()
            .unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.t0_ns += shift + 1;
            s
        }));
        self.wall_s += other.wall_s;
        self.runs.extend(other.runs);
        self.dropped += other.dropped;
    }
}

/// The exact work counters of a pass, summed over its solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub rounds: u64,
    pub attempts: u64,
    pub table_misses: u64,
    pub pair_misses: u64,
    pub dp_fills: u64,
    pub dp_reallocs: u64,
}

impl Counters {
    pub fn of(runs: &[(BatchSolution, SolveReport)]) -> Counters {
        let mut c = Counters::default();
        for (_, r) in runs {
            c.rounds += r.rounds as u64;
            c.attempts += r.attempts as u64;
            c.table_misses += r.table_misses;
            c.pair_misses += r.pair_misses;
            c.dp_fills += r.dp_fills;
            c.dp_reallocs += r.dp_reallocs;
        }
        c
    }
}

/// What a `/v1/solve` response claims: its score, its matches, and the
/// solver that actually ran (the admission tier when degraded, else
/// the router's pick for `auto`, else the named solver).
pub struct Served {
    pub score: Score,
    pub matches: MatchSet,
    pub ran: String,
}

pub fn parse_served(body: &str, degraded: Option<&str>) -> Result<Served, String> {
    let doc: Value = serde_json::from_str(body).map_err(|e| format!("response not JSON: {e}"))?;
    let score = match doc.get("score") {
        Some(Value::Int(s)) => *s as Score,
        other => return Err(format!("response score is {other:?}")),
    };
    let matches: MatchSet = serde_json::from_value(
        doc.get("matches")
            .cloned()
            .ok_or("response has no matches")?,
    )
    .map_err(|e| format!("response matches do not decode: {e}"))?;
    let field = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let ran = degraded
        .map(str::to_string)
        .or_else(|| field(doc.get("report").and_then(|r| r.get("routed_by"))))
        .or_else(|| field(doc.get("solver")))
        .ok_or("response names no solver")?;
    Ok(Served {
        score,
        matches,
        ran,
    })
}

/// The gate: `matches` is consistent on `inst`, adds up to `score`,
/// and `score` equals the width-1 reference score.
pub fn check(
    inst: &Instance,
    score: Score,
    matches: &MatchSet,
    reference: Score,
) -> Result<(), String> {
    check_consistency(inst, matches).map_err(|e| format!("inconsistent result: {e:?}"))?;
    if matches.total_score() != score {
        return Err(format!(
            "claimed score {score} but matches add up to {}",
            matches.total_score()
        ));
    }
    if score != reference {
        return Err(format!(
            "score {score} differs from the width-1 solve's {reference}"
        ));
    }
    Ok(())
}
