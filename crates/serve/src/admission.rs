//! Load-aware admission control: what the server does between "all
//! clear" and "hard 503".
//!
//! The old overload story was binary — queue full, turn the request
//! away. That wastes the portfolio: the cheap tiers (`greedy`,
//! `chain`) answer big instances orders of magnitude faster than the
//! DP family at a bounded quality cost, so a loaded server can keep
//! answering by *degrading* expensive requests instead of rejecting
//! them. The policy reads two signals that are already lying around:
//! the queue-depth gauge (stamped into the job at enqueue time, so a
//! decision is reproducible from the response alone) and the
//! instance's size — its region count plus the O(n) assignment-
//! relaxation [`score_upper_bound`], which is a better "how much work
//! could this be" proxy than byte length.
//!
//! Two watermarks, both fractions of queue capacity:
//!
//! * `load ≥ degrade_at` — big instances are rerouted to the router's
//!   [`degraded_pick`] tier and the response carries
//!   `X-Fragalign-Degraded: <tier>` so clients can tell;
//! * `load ≥ reject_at` — hard 503 with `Retry-After`, same as the
//!   queue-full rejection.
//!
//! Small instances are never degraded (they are cheap either way),
//! and requests that already name a cheap tier pass through
//! untouched.
//!
//! The degrade decision splits along those two signals.
//! [`AdmissionPolicy::degrade_tier`] reads only the instance and the
//! requested solver, so the server computes it once per request body;
//! [`AdmissionPolicy::degrades_at`] reads only the load. A request
//! degrades when both say so.
//!
//! [`score_upper_bound`]: fragalign_model::Instance::score_upper_bound
//! [`degraded_pick`]: fragalign_core::engine::Router::degraded_pick

use fragalign_core::engine::{InstanceFeatures, Router};
use fragalign_model::Score;

/// Instances below this many total regions are never degraded: they
/// are cheap for every solver.
const MIN_REGIONS: usize = 48;

/// Instances whose assignment-relaxation score bound stays below this
/// are never degraded, whatever their region count (low bound ⇒
/// little σ mass ⇒ little DP work worth saving).
const MIN_BOUND: Score = 500;

/// The admission knobs. Of these, `fragalign serve` sets only
/// `enabled` (`--admission on|off`); the watermarks keep their
/// defaults there.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Master switch (`--admission on|off`). Off restores the old
    /// behaviour: solve everything as asked, 503 only on a full queue.
    pub enabled: bool,
    /// Queue-load fraction at or above which big instances degrade to
    /// a cheap tier.
    pub degrade_at: f64,
    /// Queue-load fraction at or above which requests are hard-503ed
    /// before touching a worker.
    pub reject_at: f64,
}

impl Default for AdmissionConfig {
    /// Degrade at half-full, hard-reject only at a full queue, and
    /// only for instances that are big on both axes.
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            degrade_at: 0.5,
            reject_at: 1.0,
        }
    }
}

/// The policy object: config plus the router whose `degraded_pick`
/// names the cheap tier.
pub struct AdmissionPolicy {
    cfg: AdmissionConfig,
    router: Router,
}

/// Solvers that are already cheap tiers — degrading them would be a
/// no-op (or an upgrade), so they always pass through.
const CHEAP_TIERS: [&str; 2] = ["greedy", "chain"];

impl AdmissionPolicy {
    /// A policy over the shipped routing table.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionPolicy {
            cfg,
            router: Router::default(),
        }
    }

    /// Whether a request arriving at queue-load `load` (depth over
    /// capacity) is past the hard-reject watermark.
    pub fn should_reject(&self, load: f64) -> bool {
        self.cfg.enabled && load >= self.cfg.reject_at
    }

    /// Whether a request arriving at queue-load `load` is past the
    /// degrade watermark, where a body with a [`degrade_tier`] runs
    /// that tier instead of what it asked for.
    ///
    /// [`degrade_tier`]: Self::degrade_tier
    pub fn degrades_at(&self, load: f64) -> bool {
        self.cfg.enabled && load >= self.cfg.degrade_at
    }

    /// The cheap tier a solve request runs past the degrade watermark,
    /// or `None` when no load degrades it. `features`/`bound` describe
    /// the instance and `requested` is the solver the client asked for
    /// (or defaulted to). The answer does not depend on load, so the
    /// server computes it once per request body.
    pub fn degrade_tier(
        &self,
        features: &InstanceFeatures,
        bound: Score,
        requested: &str,
    ) -> Option<&'static str> {
        if !self.cfg.enabled || CHEAP_TIERS.contains(&requested) {
            return None;
        }
        let big = features.total_regions() >= MIN_REGIONS && bound >= MIN_BOUND;
        big.then(|| self.router.degraded_pick(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_features() -> InstanceFeatures {
        InstanceFeatures {
            h_frags: 8,
            m_frags: 8,
            h_regions: 80,
            m_regions: 80,
            max_frag_len: 16,
            sigma_entries: 400,
            sigma_density: 0.06,
            mass_skew: 1.4,
        }
    }

    fn small_features() -> InstanceFeatures {
        InstanceFeatures {
            h_regions: 8,
            m_regions: 6,
            sigma_entries: 12,
            ..big_features()
        }
    }

    #[test]
    fn below_watermark_everything_admits() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        assert!(!p.degrades_at(0.49));
        assert!(!p.should_reject(0.99));
    }

    #[test]
    fn above_watermark_big_instances_degrade_small_ones_pass() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        assert!(p.degrades_at(0.5));
        assert_eq!(
            p.degrade_tier(&big_features(), 10_000, "csr"),
            Some("chain")
        );
        // Small region count or small bound: cheap anyway, admit.
        assert_eq!(p.degrade_tier(&small_features(), 10_000, "csr"), None);
        assert_eq!(p.degrade_tier(&big_features(), 3, "csr"), None);
    }

    #[test]
    fn cheap_tiers_are_never_degraded() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        for tier in CHEAP_TIERS {
            assert_eq!(p.degrade_tier(&big_features(), 10_000, tier), None);
        }
    }

    #[test]
    fn hard_reject_needs_the_second_watermark() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        assert!(!p.should_reject(0.9));
        assert!(p.should_reject(1.0));
        let off = AdmissionPolicy::new(AdmissionConfig {
            enabled: false,
            ..AdmissionConfig::default()
        });
        assert!(!off.should_reject(5.0));
        assert!(!off.degrades_at(5.0));
        assert_eq!(off.degrade_tier(&big_features(), 10_000, "csr"), None);
    }
}
