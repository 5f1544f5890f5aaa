//! Summary statistics with the benchmark's sample-count rule.

use crate::gen::Rng;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of outliers, not a
/// measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The smallest sample count at which [`percentile`] answers for `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("every q < 1 is reachable")
}

/// A run is cut into this many equal windows by completion time and
/// its end-to-end figures are the median over the windows, so a few
/// seconds of interference from outside the benchmark move a run's
/// figures by at most one window's worth.
pub const WINDOWS: usize = 10;

/// Each window keeps a uniform sample of at most this many latencies
/// (see [`Reservoir`]); its percentiles come from the sample, its
/// throughput from the full count.
pub const WINDOW_SAMPLES: usize = 4096;

/// The window a sample completing `elapsed_s` into a run of `run_s`
/// belongs to (late completions count in the last window).
pub fn window_of(elapsed_s: f64, run_s: f64) -> usize {
    ((elapsed_s / run_s * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Percentile `q` as the median of the per-window percentiles when
/// every window has the samples [`percentile`] needs, and over all
/// samples pooled otherwise. Windows must be sorted ascending.
pub fn windowed_percentile(windows: &[Vec<f64>], q: f64) -> Option<f64> {
    let per: Option<Vec<f64>> = windows.iter().map(|w| percentile(w, q)).collect();
    match per {
        Some(per) if !per.is_empty() => Some(median(&per)),
        _ => {
            let mut all: Vec<f64> = windows.iter().flatten().copied().collect();
            all.sort_by(f64::total_cmp);
            percentile(&all, q)
        }
    }
}

/// A uniform sample of at most `cap` values out of a stream of any
/// length (reservoir sampling, Algorithm R, with a seeded draw). A
/// run's latency record then stays the same size however many
/// requests it completes, so a faster program does not read as a
/// memory regression in `rss_peak_mb`.
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    cap: usize,
    seen: usize,
    rng: Rng,
    kept: Vec<T>,
}

impl<T: Copy> Reservoir<T> {
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0, "a reservoir keeps at least one value");
        Reservoir {
            cap,
            seen: 0,
            rng: Rng::new(seed),
            kept: Vec::new(),
        }
    }

    pub fn push(&mut self, value: T) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(value);
        } else {
            let j = self.rng.below(self.seen);
            if j < self.cap {
                self.kept[j] = value;
            }
        }
    }

    /// How many values were pushed.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The sample: every value while fewer than `cap` were pushed.
    pub fn kept(&self) -> &[T] {
        &self.kept
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990, with exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(samples_needed(0.99), 1000);
        // p90 needs 100, p50 needs 20.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(samples_needed(0.90), 100);
        assert_eq!(samples_needed(0.50), 20);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windows_use_their_median_only_when_each_can_answer() {
        let a: Vec<f64> = (1..=100).map(f64::from).collect();
        let b: Vec<f64> = (101..=200).map(f64::from).collect();
        let c: Vec<f64> = (201..=300).map(f64::from).collect();
        let windows = vec![a.clone(), c, b];
        // Each window answers p50: the median of 50, 250, 150.
        assert_eq!(windowed_percentile(&windows, 0.5), Some(150.0));
        // No window of 100 has ten samples beyond its p95, so p95 pools
        // to rank 285 of 300; p99 of the pooled 300 has only 3 beyond.
        assert_eq!(percentile(&a, 0.95), None);
        assert_eq!(windowed_percentile(&windows, 0.95), Some(285.0));
        assert_eq!(windowed_percentile(&windows, 0.99), None);
        assert_eq!(window_of(0.0, 10.0), 0);
        assert_eq!(window_of(9.99, 10.0), WINDOWS - 1);
        assert_eq!(window_of(12.0, 10.0), WINDOWS - 1);
    }

    #[test]
    fn reservoir_keeps_everything_below_its_cap_and_a_fixed_sample_above() {
        let mut small = Reservoir::new(8, 1);
        for i in 0..5u32 {
            small.push(i);
        }
        assert_eq!(small.kept(), &[0, 1, 2, 3, 4]);
        let fill = |seed: u64| {
            let mut r = Reservoir::new(100, seed);
            for i in 0..10_000u32 {
                r.push(i);
            }
            r
        };
        let r = fill(3);
        assert_eq!(r.seen(), 10_000);
        assert_eq!(r.kept().len(), 100);
        assert_eq!(
            r.kept(),
            fill(3).kept(),
            "the sample is a function of the seed"
        );
        assert_ne!(r.kept(), fill(4).kept());
        // A uniform sample of 0..10000 has its median near 5000.
        let mut v: Vec<f64> = r.kept().iter().map(|&x| f64::from(x)).collect();
        v.sort_by(f64::total_cmp);
        let m = median(&v);
        assert!((3500.0..6500.0).contains(&m), "median {m}");
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
