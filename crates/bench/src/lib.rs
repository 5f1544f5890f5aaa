//! # fragalign-bench
//!
//! Shared workload builders for the experiment binaries.
//!
//! The experiment binaries live in `src/bin/`: `exp_ratio`,
//! `exp_isp`, `exp_reductions`, `exp_recovery` and `exp_ablation`
//! reproduce the paper's results (T1–T9: approximation ratios, ISP,
//! reductions, recovery and ablations), and `exp_router` fits the
//! engine's shape → solver table. Run them with
//! `cargo run --release -p fragalign-bench --bin <name>`. They report
//! scores and ratios; none of them checks a wall time, which is the
//! repository benchmark's job (`perfbench/`).

use fragalign::isp::{Interval, IspInstance};
use fragalign::model::Instance;
use fragalign::prelude::SimConfig;
use fragalign::sim::generate;

/// Deterministic xorshift stream for workload construction.
struct Stream(u64);

impl Stream {
    /// Uniform value below `n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }
}

/// Simulator instance at a benchmark scale.
pub fn sim_instance(regions: usize, frags: usize, seed: u64) -> Instance {
    generate(&SimConfig {
        regions,
        h_frags: frags,
        m_frags: frags,
        loss_rate: 0.1,
        shuffles: 2,
        spurious: regions / 8,
        seed,
        ..SimConfig::default()
    })
    .instance
}

/// Random ISP instance with `jobs` jobs and `cands` candidates over a
/// coordinate span.
pub fn isp_instance(seed: u64, jobs: usize, cands: usize, span: i64) -> IspInstance {
    let mut s = Stream(seed | 1);
    let mut inst = IspInstance::new(jobs);
    for tag in 0..cands {
        let job = s.below(jobs as u64) as usize;
        let lo = s.below(span as u64) as i64;
        let len = 1 + s.below(8) as i64;
        let profit = 1 + s.below(100) as i64;
        inst.push(job, Interval::new(lo, lo + len), profit, tag);
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic() {
        let a = sim_instance(20, 3, 1);
        let b = sim_instance(20, 3, 1);
        assert_eq!(a.h, b.h);
        let i = isp_instance(2, 3, 10, 50);
        assert_eq!(i.candidates.len(), 10);
    }
}
