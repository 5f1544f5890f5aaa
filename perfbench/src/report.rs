//! The metric catalogue and the output format: human-readable lines,
//! then one JSON object as the last line of standard output.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("score_ratio", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// How a per-layer metric may be compared across runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A count or ratio of counts from the width-1 pass: a pure
    /// function of the seed, compared exactly.
    Exact,
    /// A timing, or a count that depends on how far a timed loop got.
    Timing,
}

/// Per-layer metrics, printed by every traced run (`--trace 1`), with
/// their unit and kind. Layers a workload does not exercise read 0
/// (only counts and ratios are ever 0; every time is measured on
/// every workload).
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("serve.http.frame_us", "us", Kind::Timing),
    ("serve.http.render_us", "us", Kind::Timing),
    ("serve.cache.lookup_us", "us", Kind::Timing),
    ("serve.decode_us", "us", Kind::Timing),
    ("serve.serialise_us", "us", Kind::Timing),
    ("engine.route_us", "us", Kind::Timing),
    ("engine.bound_us", "us", Kind::Timing),
    ("oracle.table_us", "us", Kind::Timing),
    ("oracle.pair_us", "us", Kind::Timing),
    ("kernel.ms_words_us", "us", Kind::Timing),
    ("kernel.cells_per_s", "cells/s", Kind::Timing),
    ("engine.width1_pass_ms", "ms", Kind::Timing),
    ("engine.solve_self_ms", "ms", Kind::Timing),
    ("solver.phase_self_ms", "ms", Kind::Timing),
    ("improve.round_self_ms", "ms", Kind::Timing),
    ("oracle.table_fill_ms", "ms", Kind::Timing),
    ("improve.rounds", "count", Kind::Exact),
    ("improve.attempts", "count", Kind::Exact),
    ("improve.commit_ratio", "ratio", Kind::Exact),
    ("oracle.table_misses", "count", Kind::Exact),
    ("oracle.pair_misses", "count", Kind::Exact),
    ("oracle.dp_fills", "count", Kind::Exact),
    ("oracle.dp_reallocs", "count", Kind::Exact),
    ("oracle.table_profiled_share", "ratio", Kind::Exact),
    ("par.busy_ratio", "ratio", Kind::Timing),
    ("serve.cache.hit_ratio", "ratio", Kind::Timing),
    ("serve.keepalive_reuse_ratio", "ratio", Kind::Timing),
    ("serve.cache.evictions", "count", Kind::Timing),
    ("serve.admission.degraded", "count", Kind::Timing),
    ("serve.rejected_503", "count", Kind::Timing),
    ("serve.queue_wait_share", "ratio", Kind::Timing),
    ("serve.service_share", "ratio", Kind::Timing),
    ("serve.outside_share", "ratio", Kind::Timing),
    ("bench.trace_coverage", "ratio", Kind::Timing),
    ("bench.trace_overhead_ratio", "ratio", Kind::Timing),
    ("bench.trace_dropped", "count", Kind::Timing),
];

/// One run's result.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
    lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn fail(&mut self, error: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The table lines, then the JSON line, restricted to (and
    /// required to contain exactly) the catalogue for this mode.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let catalogue: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for e in &self.errors {
            out.push_str(&format!("correctness: {e}\n"));
        }
        let mut fields = Vec::new();
        for (name, unit) in &catalogue {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number ({value})"));
            }
            out.push_str(&format!("{name:<30} {value:>16.6} {unit}\n"));
            fields.push(format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        out.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(",")
        ));
        Ok(out)
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the metric lists in BENCHMARK.json are
    /// one contract; this keeps them from drifting apart.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc: serde::Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(serde::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{f} is {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn json_line_is_last_and_complete() {
        let mut r = Report::default();
        for &(n, _) in END_TO_END {
            r.set(n, 1.25);
        }
        r.attempted = 3;
        r.line("table");
        let text = r.render(false).unwrap();
        let last = text.lines().last().unwrap();
        let doc: serde::Value = serde_json::from_str(last).unwrap();
        assert_eq!(doc.get("correct"), Some(&serde::Value::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&serde::Value::Int(3)));
        let m = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        // A missing metric is an error, not a silent gap.
        assert!(Report::default().render(false).is_err());
        r.fail("mismatch");
        assert!(r
            .render(false)
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\":false"));
    }
}
