#![warn(missing_docs)]

//! # fragalign-par
//!
//! Parallel execution substrate.
//!
//! The original venue (IPPS) evaluated parallel machines; our
//! laptop-scale substitute is data parallelism over a configured rayon
//! pool (real `std::thread` workers since the shim rebuild — see
//! `shims/README.md`). Callers map work over the pool with rayon's own
//! parallel iterators, whose ordered output keeps results identical at
//! any thread count. This crate adds the pool plumbing around them:
//! [`with_threads`] runs a job on a dedicated pool of a given width,
//! and [`current_threads`] reports the width parallel operations
//! submit to.

use std::time::{Duration, Instant};

/// Width of the rayon pool parallel operations currently submit to:
/// the innermost installed pool, or the global one (one thread per
/// core) outside any [`with_threads`] scope.
pub fn current_threads() -> usize {
    rayon::current_num_threads()
}

/// Run `job` on a dedicated rayon pool with `threads` workers,
/// returning the job's result and its wall-clock duration.
///
/// Building a scoped pool (instead of mutating the global one) keeps
/// measurements independent and lets speedup sweeps run in one
/// process.
pub fn with_threads<T: Send>(threads: usize, job: impl FnOnce() -> T + Send) -> (T, Duration) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("pool construction");
    let start = Instant::now();
    let out = pool.install(job);
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_runs_job() {
        let ((), d) = with_threads(2, || ());
        assert!(d < Duration::from_secs(5));
        let (sum, _) = with_threads(3, || {
            use rayon::prelude::*;
            (0..1000i64).into_par_iter().sum::<i64>()
        });
        assert_eq!(sum, 499_500);
    }
}
