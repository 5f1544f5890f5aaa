//! Self time by layer, folded from the spans the program already
//! emits.
//!
//! A span's self time is its duration minus the part of it that its
//! direct children cover. Children are found by containment on one
//! track, which is exact for sequential solves (the benchmark's
//! width-1 pass). Spans of concurrent solves share track 0 in the
//! server's sampled trace, so those are only summed inclusively (see
//! [`inclusive_by_layer`]), never nested.

use fragalign::obs::{EventKind, TraceLog};
use serde::Value;
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub label: String,
    pub track: u64,
    pub t0_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    fn end(&self) -> u64 {
        self.t0_ns + self.dur_ns
    }
}

/// The spans of an in-process trace log (instants dropped).
pub fn from_log(log: &TraceLog) -> Vec<Span> {
    log.events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| Span {
            name: e.name.to_string(),
            label: e.label.to_string(),
            track: u64::from(e.track),
            t0_ns: e.t0_ns,
            dur_ns: e.dur_ns,
        })
        .collect()
}

/// The spans of a Chrome trace document (as served at
/// `GET /debug/trace`), plus its count of events lost to the ring's
/// drop-oldest overwrite.
pub fn from_chrome(json: &str) -> Result<(Vec<Span>, u64), String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("trace is not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace has no traceEvents array")?;
    let micros_to_ns = |v: Option<&Value>| -> Result<u64, String> {
        match v {
            Some(Value::Float(x)) => Ok((x * 1000.0).round() as u64),
            Some(Value::Int(i)) => Ok(*i as u64 * 1000),
            other => Err(format!("bad trace timestamp {other:?}")),
        }
    };
    let mut spans = Vec::new();
    for ev in events {
        if ev.get("ph") != Some(&Value::Str("X".to_string())) {
            continue;
        }
        let Some(Value::Str(full)) = ev.get("name") else {
            return Err("trace event without a name".to_string());
        };
        let (name, label) = full.split_once(':').unwrap_or((full, ""));
        let track = match ev.get("tid") {
            Some(Value::Int(t)) => *t as u64,
            _ => 0,
        };
        spans.push(Span {
            name: name.to_string(),
            label: label.to_string(),
            track,
            t0_ns: micros_to_ns(ev.get("ts"))?,
            dur_ns: micros_to_ns(ev.get("dur"))?,
        });
    }
    let dropped = match doc.get("dropped") {
        Some(Value::Int(d)) => *d as u64,
        _ => 0,
    };
    Ok((spans, dropped))
}

/// Self time of every span, aligned with `spans`. A child that runs
/// past its parent's end is only charged for the overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.track, s.t0_ns, std::cmp::Reverse(s.dur_ns))
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.track != s.track || t.end() <= s.t0_ns {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            let covered = s.end().min(spans[parent].end()) - s.t0_ns;
            own[parent] = own[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    own
}

/// The layer a span belongs to in the benchmark's table.
pub fn layer_of(span: &Span) -> String {
    match span.name.as_str() {
        "solve" => "engine.solve".to_string(),
        "phase" => format!("phase.{}", span.label),
        "improve_round" => "improve.round".to_string(),
        "table_fill" => "oracle.table_fill".to_string(),
        "racer" => "portfolio.racer".to_string(),
        "anchor_index" | "chaining" | "window_select" | "window_dp" | "assemble" => {
            format!("chain.{}", span.name)
        }
        other => format!("other.{other}"),
    }
}

/// Layer → (self nanoseconds, span count), layers in name order.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let row = out.entry(layer_of(s)).or_default();
        row.0 += ns;
        row.1 += 1;
    }
    out
}

/// Layer → (inclusive nanoseconds, span count), for traces whose spans
/// may overlap without nesting.
pub fn inclusive_by_layer(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = out.entry(layer_of(s)).or_default();
        row.0 += s.dur_ns;
        row.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, t0: u64, dur: u64) -> Span {
        Span {
            name: name.to_string(),
            label: String::new(),
            track: 0,
            t0_ns: t0,
            dur_ns: dur,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span("solve", 0, 100),
            span("improve_round", 10, 30),
            span("table_fill", 15, 10),
            span("improve_round", 50, 20),
            span("solve", 200, 10),
        ];
        let own = self_times(&spans);
        // solve: 100 - 30 - 20; the table fill is the round's child,
        // not the solve's.
        assert_eq!(own, vec![50, 20, 10, 20, 10]);
        // Self times partition the root spans exactly.
        assert_eq!(own.iter().sum::<u64>(), 110);
        let by = self_by_layer(&spans);
        assert_eq!(by["engine.solve"], (60, 2));
        assert_eq!(by["improve.round"], (40, 2));
        assert_eq!(by["oracle.table_fill"], (10, 1));
    }

    #[test]
    fn tracks_do_not_nest_and_overhangs_are_clamped() {
        let mut other = span("solve", 10, 20);
        other.track = 1;
        let spans = vec![span("solve", 0, 50), other, span("phase", 40, 30)];
        let own = self_times(&spans);
        // The track-1 solve is not the track-0 solve's child; the
        // phase overhangs its parent by 20 and is charged 10.
        assert_eq!(own, vec![40, 20, 30]);
    }

    #[test]
    fn chrome_documents_round_trip() {
        let doc = concat!(
            "{\"traceEvents\":[",
            "{\"name\":\"solve:csr\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1.500,\"pid\":1,\"tid\":0},",
            "{\"name\":\"routed\",\"ph\":\"i\",\"ts\":0.100,\"s\":\"t\",\"pid\":1,\"tid\":0},",
            "{\"name\":\"table_fill:profiled\",\"ph\":\"X\",\"ts\":0.250,\"dur\":0.500,\"pid\":1,\"tid\":0}",
            "],\"displayTimeUnit\":\"ms\",\"emitted\":3,\"dropped\":2}"
        );
        let (spans, dropped) = from_chrome(doc).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name.as_str(), spans[0].label.as_str()),
            ("solve", "csr")
        );
        assert_eq!((spans[0].t0_ns, spans[0].dur_ns), (0, 1500));
        assert_eq!(spans[1].label, "profiled");
        assert_eq!(self_times(&spans), vec![1000, 500]);
    }
}
