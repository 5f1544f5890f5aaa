//! Seeded workload inputs.
//!
//! Every input is a pure function of `(seed, stream, index)`: one seed
//! always yields the same instances and the same request order, and a
//! longer run only appends to the sequence a shorter run saw
//! (prefix-stable). The program under test receives only the generated
//! instances, never the seed.

use fragalign::core::{EngineOptions, Router};
use fragalign::model::Instance;
use fragalign::sim::{generate, generate_soup, generate_torn, SimConfig, SoupConfig, TornConfig};

/// SplitMix64: small, fast and fully specified, so the benchmark's
/// draws do not depend on any library's generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-high; the bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of item `index` of stream `stream` under run seed `seed`.
pub fn item_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let base = r.next_u64();
    Rng::new(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Streams keep the workloads' draws independent of each other.
pub const STREAM_HOT: u64 = 1;
pub const STREAM_COLD: u64 = 2;
pub const STREAM_BATCH: u64 = 3;
pub const STREAM_ONE_M: u64 = 4;
pub const STREAM_DRAW: u64 = 5;
pub const STREAM_PAIRS: u64 = 6;
pub const STREAM_RESERVOIR: u64 = 7;

/// A Zipf-like draw over `n` items: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`, and a seeded permutation decides which item holds
/// which rank.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "a draw needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed);
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, item_of_rank }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// One generated instance and the shape family it was drawn from.
#[derive(Clone, Debug)]
pub struct Item {
    pub shape: &'static str,
    pub instance: Instance,
}

fn clean(seed: u64, regions: usize, h_frags: usize, m_frags: usize, spurious: usize) -> Instance {
    generate(&SimConfig {
        regions,
        h_frags,
        m_frags,
        loss_rate: 0.1,
        shuffles: 2,
        spurious,
        seed,
        ..SimConfig::default()
    })
    .instance
}

/// `serve_hot`'s pool: small clean instances, all inside the router's
/// fallback (`csr`) cell.
pub fn hot_instance(seed: u64, index: usize) -> Item {
    let mut rng = Rng::new(item_seed(seed, STREAM_HOT, index as u64));
    let regions = rng.range(14, 22);
    let frags = rng.range(3, 4);
    Item {
        shape: "small-dense",
        instance: clean(rng.next_u64(), regions, frags, frags, 2),
    }
}

/// `serve_cold`'s base instances, laid out in blocks of [`COLD_BLOCK`]
/// so every run sees the same proportions; only the instances change
/// with the seed.
///
/// No traffic data exists for the service, so the mix is an
/// assumption, chosen to be rule-balanced: each of the five outcomes of
/// `Router::default` (its four rules and the `csr` fallback) gets two
/// slots of every block, one fifth of the requests, so no routed solver
/// is a rounding error in the end-to-end figures. The shredded rule's
/// two slots are one torn and one read-soup instance. The run prints
/// the share of requests and of solve time each rule actually got.
pub const COLD_BLOCK: usize = 10;

/// The `Router::default` rule each slot of a block must land in.
const COLD_RULES: [&str; COLD_BLOCK] = [
    "fallback",
    "fallback",
    "sigma-desert",
    "sigma-desert",
    "single-m-heavy",
    "single-m-heavy",
    "shredded",
    "shredded",
    "genome-scale",
    "genome-scale",
];

/// Draws per slot before settling for an instance in another rule;
/// the shapes below land in their rule on almost every draw.
const COLD_TRIES: usize = 64;

pub fn cold_instance(seed: u64, index: usize) -> Item {
    let mut rng = Rng::new(item_seed(seed, STREAM_COLD, index as u64));
    let slot = index % COLD_BLOCK;
    let router = Router::default();
    let opts = EngineOptions::default();
    let mut item = cold_draw(&mut rng, slot);
    // A draw near a rule's size threshold can fall into the next rule
    // (fragment loss is random); draw again so every seed gets exactly
    // the same share per rule.
    for _ in 1..COLD_TRIES {
        if router.route_explain(&item.instance, &opts).1 == COLD_RULES[slot] {
            break;
        }
        item = cold_draw(&mut rng, slot);
    }
    item
}

fn cold_draw(rng: &mut Rng, slot: usize) -> Item {
    let s = rng.next_u64();
    let (shape, instance) = match slot {
        0 | 1 => {
            let frags = rng.range(3, 4);
            ("small-dense", clean(s, rng.range(14, 20), frags, frags, 2))
        }
        2 | 3 => ("sigma-desert", clean(s, 3, 1, 1, 0)),
        4 | 5 => ("single-m", clean(s, rng.range(26, 34), 3, 1, 2)),
        6 => {
            let inst = generate_torn(&TornConfig {
                regions: rng.range(34, 40),
                h_frags: 3,
                tear_rate: 0.35,
                seed: s,
                ..TornConfig::default()
            })
            .instance;
            ("torn", inst)
        }
        7 => {
            let inst = generate_soup(&SoupConfig {
                regions: rng.range(30, 36),
                h_frags: 3,
                read_len: 4,
                coverage: 2.0,
                seed: s,
                ..SoupConfig::default()
            })
            .instance;
            ("soup", inst)
        }
        _ => ("genome-scale", clean(s, 88, 6, 6, 4)),
    };
    Item { shape, instance }
}

/// `batch_offline`'s multi-M instance set.
pub fn batch_instance(seed: u64, index: usize) -> Item {
    let mut rng = Rng::new(item_seed(seed, STREAM_BATCH, index as u64));
    let frags = rng.range(3, 4);
    let regions = rng.range(18, 26);
    Item {
        shape: "clean",
        instance: clean(rng.next_u64(), regions, frags, frags, 3),
    }
}

/// `batch_offline`'s single-M slice, the only instances `one-csr`
/// accepts.
pub fn one_m_instance(seed: u64, index: usize) -> Item {
    let mut rng = Rng::new(item_seed(seed, STREAM_ONE_M, index as u64));
    let regions = rng.range(18, 26);
    Item {
        shape: "single-m",
        instance: clean(rng.next_u64(), regions, 3, 1, 3),
    }
}

/// Make a request body unique without changing the work it asks for:
/// the first fragment's name gets a `~tag` suffix, which changes the
/// canonical instance text (and so every cache key) while names play
/// no part in solving. Tag 0 leaves the body as generated.
pub fn tag_body(body: &str, tag: usize) -> String {
    if tag == 0 {
        return body.to_string();
    }
    let needle = "\"name\":\"";
    let at = body
        .find(needle)
        .expect("instance bodies carry fragment names")
        + needle.len();
    let end = at + body[at..].find('"').expect("names are closed strings");
    format!("{}~{tag}{}", &body[..end], &body[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(inst: &Instance) -> String {
        serde_json::to_string(inst).unwrap()
    }

    #[test]
    fn generation_is_identical_across_runs_and_prefix_stable() {
        for gen in [hot_instance, cold_instance, batch_instance, one_m_instance] {
            let short: Vec<String> = (0..6).map(|i| json(&gen(7, i).instance)).collect();
            let long: Vec<String> = (0..12).map(|i| json(&gen(7, i).instance)).collect();
            assert_eq!(
                short[..],
                long[..6],
                "a longer run must extend, not reshuffle"
            );
            let again: Vec<String> = (0..6).map(|i| json(&gen(7, i).instance)).collect();
            assert_eq!(short, again);
            let other: Vec<String> = (0..6).map(|i| json(&gen(8, i).instance)).collect();
            assert_ne!(short, other, "the seed must matter");
        }
    }

    #[test]
    fn every_cold_slot_lands_in_its_router_rule() {
        let router = Router::default();
        for seed in [1, 2] {
            for i in 0..2 * COLD_BLOCK {
                let item = cold_instance(seed, i);
                let rule = router
                    .route_explain(&item.instance, &EngineOptions::default())
                    .1;
                assert_eq!(
                    rule,
                    COLD_RULES[i % COLD_BLOCK],
                    "seed {seed} slot {i} ({})",
                    item.shape
                );
            }
        }
    }

    #[test]
    fn skewed_draw_is_deterministic_per_seed_and_skewed() {
        let draws = |seed: u64| -> Vec<usize> {
            let z = Zipf::new(64, 1.1, seed);
            let mut rng = Rng::new(seed ^ 1);
            (0..2000).map(|_| z.draw(&mut rng)).collect()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        let d = draws(3);
        let mut counts = vec![0usize; 64];
        for &i in &d {
            counts[i] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 0 of a 1.1-Zipf over 64 items holds about a fifth of
        // the mass; a uniform draw would give each item 1/64.
        assert!(counts[0] > 2000 / 10, "head {}", counts[0]);
        assert!(counts[0] > 8 * counts[40].max(1));
    }

    #[test]
    fn tagging_changes_the_body_but_not_the_instance_shape() {
        let body = format!(
            "{{\"instance\":{},\"solver\":\"auto\"}}",
            json(&hot_instance(1, 0).instance)
        );
        assert_eq!(tag_body(&body, 0), body);
        let tagged = tag_body(&body, 3);
        assert_ne!(tagged, body);
        assert_ne!(tagged, tag_body(&body, 4));
        let parse = |b: &str| -> Instance {
            let v: serde::Value = serde_json::from_str(b).unwrap();
            serde_json::from_value(v.get("instance").unwrap().clone()).unwrap()
        };
        let (a, b) = (parse(&body), parse(&tagged));
        assert_eq!(a.h[0].regions, b.h[0].regions);
        assert_ne!(a.h[0].name, b.h[0].name);
    }
}
