//! Per-layer costs measured from outside the program: each layer's
//! public entry point is called on the run's own inputs and timed
//! here. Nothing inside the program is instrumented for this.

use crate::client::Reply;
use crate::gen::{item_seed, Rng, STREAM_PAIRS};
use crate::stats::median;
use fragalign::core::{EngineOptions, Router, SolveReport};
use fragalign::model::{FragId, Instance, MatchSet, Score, Site, Species};
use fragalign::prelude::{DpWorkspace, ScoreOracle};
use fragalign::serve::{cache, http, ResultCache};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median per-call microseconds of `round`, which makes `calls` calls.
/// Rounds are grouped into samples of at least 2 ms; at least nine
/// samples are taken, and more while the replay is under 60 ms.
fn per_call_us(calls: usize, mut round: impl FnMut()) -> f64 {
    assert!(calls > 0, "a replay needs at least one call");
    round();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 9 || (start.elapsed() < Duration::from_millis(60) && samples.len() < 100)
    {
        let t0 = Instant::now();
        let mut made = 0;
        while made == 0 || t0.elapsed() < Duration::from_millis(2) {
            round();
            made += calls;
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / made as f64);
    }
    median(&samples)
}

/// `http::try_parse` over exact request bytes.
pub fn frame_us(requests: &[Vec<u8>]) -> f64 {
    per_call_us(requests.len(), || {
        for r in requests {
            black_box(http::try_parse(black_box(r), 16 * 1024 * 1024).is_ok());
        }
    })
}

/// The arguments `http::render_response` needs to reproduce `reply`.
pub struct Rendered {
    status: u16,
    content_type: String,
    extra: Vec<(String, String)>,
    body: String,
    keep_alive: bool,
}

impl Rendered {
    /// Recover the render call behind a captured response, and prove
    /// the replay is faithful: rendering it must give the same bytes.
    pub fn of(reply: &Reply) -> Result<Rendered, String> {
        let mut content_type = String::new();
        let mut keep_alive = true;
        let mut extra = Vec::new();
        for (name, value) in reply.headers() {
            match name {
                "Content-Type" => content_type = value.to_string(),
                "Content-Length" => {}
                "Connection" => keep_alive = value == "keep-alive",
                _ => extra.push((name.to_string(), value.to_string())),
            }
        }
        let r = Rendered {
            status: reply.status,
            content_type,
            extra,
            body: reply.body().to_string(),
            keep_alive,
        };
        if r.render() != reply.raw {
            return Err("render replay does not reproduce the served bytes".to_string());
        }
        Ok(r)
    }

    /// A `/v1/solve` miss response around `body`, for workloads that
    /// serve nothing.
    pub fn miss(body: String) -> Rendered {
        Rendered {
            status: 200,
            content_type: "application/json".to_string(),
            extra: vec![("X-Fragalign-Cache".to_string(), "miss".to_string())],
            body,
            keep_alive: true,
        }
    }

    fn render(&self) -> Vec<u8> {
        let extra: Vec<(&str, &str)> = self
            .extra
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        http::render_response(
            self.status,
            &self.content_type,
            &extra,
            &self.body,
            self.keep_alive,
        )
    }
}

/// `http::render_response` over exact response arguments.
pub fn render_us(replies: &[Rendered]) -> f64 {
    per_call_us(replies.len(), || {
        for r in replies {
            black_box(r.render());
        }
    })
}

/// `cache::fingerprint` of a raw body plus `ResultCache::peek`, on a
/// cache of the server's own shape (`shards`, `bytes`) filled with
/// `resident` (body, cached reply) pairs in order, as the run left it,
/// and probed with `probes`: the same bodies for a hit workload,
/// bodies never inserted for a miss workload.
pub fn lookup_us(
    shards: usize,
    bytes: usize,
    resident: &[(String, &str)],
    probes: &[String],
) -> f64 {
    let cache = ResultCache::new(shards, bytes);
    for (body, reply) in resident {
        cache.insert(cache::fingerprint(body), Arc::from(*reply));
    }
    per_call_us(probes.len(), || {
        for b in probes {
            black_box(cache.peek(cache::fingerprint(black_box(b))));
        }
    })
}

/// The server's per-body decode: JSON parse, instance decode,
/// re-index, validate.
pub fn decode(body: &str) -> Result<Instance, String> {
    let doc: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let mut inst: Instance =
        serde_json::from_value(doc.get("instance").cloned().ok_or("no instance")?)
            .map_err(|e| e.to_string())?;
    inst.alphabet.rebuild_index();
    inst.validate()?;
    Ok(inst)
}

pub fn decode_us(bodies: &[String]) -> f64 {
    per_call_us(bodies.len(), || {
        for b in bodies {
            black_box(decode(black_box(b)).is_ok());
        }
    })
}

/// The shape of a `/v1/solve` success body.
#[derive(Serialize)]
pub struct SolveBody {
    pub solver: String,
    pub score: Score,
    pub matches: MatchSet,
    pub report: SolveReport,
}

/// `serde_json` on the response side of a miss: the canonical instance
/// text (the cache key) and the response body.
pub fn serialise_us(work: &[(&Instance, SolveBody)]) -> f64 {
    per_call_us(work.len(), || {
        for (inst, body) in work {
            black_box(serde_json::to_string(*inst).map(|s| s.len()).unwrap_or(0));
            black_box(serde_json::to_string(body).map(|s| s.len()).unwrap_or(0));
        }
    })
}

pub fn route_us(instances: &[&Instance]) -> f64 {
    let router = Router::default();
    let opts = EngineOptions::default();
    per_call_us(instances.len(), || {
        for inst in instances {
            black_box(router.route_explain(black_box(inst), &opts).0);
        }
    })
}

pub fn bound_us(instances: &[&Instance]) -> f64 {
    per_call_us(instances.len(), || {
        for inst in instances {
            black_box(black_box(inst).score_upper_bound());
        }
    })
}

/// `ScoreOracle::interval_table` over every (H, M) fragment pair, on a
/// fresh oracle so every call fills.
pub fn table_us(instances: &[&Instance]) -> f64 {
    let tables: usize = instances.iter().map(|i| i.h.len() * i.m.len()).sum();
    per_call_us(tables, || {
        for inst in instances {
            let oracle = ScoreOracle::new(inst);
            for h in inst.frag_ids(Species::H) {
                for m in inst.frag_ids(Species::M) {
                    black_box(oracle.interval_table(h, m));
                }
            }
        }
    })
}

fn random_site(rng: &mut Rng, inst: &Instance, species: Species) -> Site {
    let frags = match species {
        Species::H => inst.h.len(),
        Species::M => inst.m.len(),
    };
    let frag = FragId {
        species,
        index: rng.below(frags),
    };
    let len = inst.frag_len(frag);
    let lo = rng.below(len);
    let hi = rng.range(lo + 1, len);
    Site::new(frag, lo, hi)
}

/// A seeded sample of distinct (H site, M site) pairs per instance.
pub fn site_pairs(
    seed: u64,
    instances: &[&Instance],
    per_instance: usize,
) -> Vec<Vec<(Site, Site)>> {
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let mut rng = Rng::new(item_seed(seed, STREAM_PAIRS, i as u64));
            let mut pairs = Vec::new();
            for _ in 0..per_instance * 4 {
                if pairs.len() == per_instance {
                    break;
                }
                let p = (
                    random_site(&mut rng, inst, Species::H),
                    random_site(&mut rng, inst, Species::M),
                );
                if !pairs.contains(&p) {
                    pairs.push(p);
                }
            }
            pairs
        })
        .collect()
}

/// `ScoreOracle::ms` over the sampled pairs, on a fresh oracle so every
/// call computes.
pub fn pair_us(instances: &[&Instance], pairs: &[Vec<(Site, Site)>]) -> f64 {
    let calls: usize = pairs.iter().map(Vec::len).sum();
    per_call_us(calls, || {
        for (inst, ps) in instances.iter().zip(pairs) {
            let oracle = ScoreOracle::new(inst);
            for &(h, m) in ps {
                black_box(oracle.ms(h, m));
            }
        }
    })
}

/// `DpWorkspace::ms_words` on the sampled pairs' words.
pub fn ms_words_us(instances: &[&Instance], pairs: &[Vec<(Site, Site)>]) -> f64 {
    let calls: usize = pairs.iter().map(Vec::len).sum();
    let mut ws = DpWorkspace::new();
    per_call_us(calls, || {
        for (inst, ps) in instances.iter().zip(pairs) {
            for &(h, m) in ps {
                black_box(ws.ms_words(&inst.sigma, inst.site_word(h), inst.site_word(m)));
            }
        }
    })
}

/// `DpWorkspace::p_score` on the sampled pairs' words, as DP cells per
/// second with cells counted as |u|·|v| (cells the recurrence defines,
/// not cells a kernel may skip).
pub fn cells_per_s(instances: &[&Instance], pairs: &[Vec<(Site, Site)>]) -> f64 {
    let cells: usize = instances
        .iter()
        .zip(pairs)
        .flat_map(|(inst, ps)| {
            ps.iter()
                .map(|&(h, m)| inst.site_word(h).len() * inst.site_word(m).len())
        })
        .sum();
    let calls: usize = pairs.iter().map(Vec::len).sum();
    let mut ws = DpWorkspace::new();
    let us_per_call = per_call_us(calls, || {
        for (inst, ps) in instances.iter().zip(pairs) {
            for &(h, m) in ps {
                black_box(ws.p_score(&inst.sigma, inst.site_word(h), inst.site_word(m)));
            }
        }
    });
    cells as f64 / (us_per_call * calls as f64 / 1e6)
}
