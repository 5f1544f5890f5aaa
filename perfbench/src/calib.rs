//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts
//! with their neighbours' load. On the calibration host the drift is
//! mostly rationing: in phases of seconds to tens of seconds, two
//! threads of a fixed CPU-bound kernel took twice as long as one, while
//! one alone kept its speed, so work as wide as the machine ran at half
//! speed. Timing figures therefore carry a host factor measured in the
//! same run, between the program's own work, by a fixed kernel that is
//! the benchmark's code and shares nothing with the program, so a
//! change to the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on an unloaded reference host, seconds. Only the
/// ratio to it matters, so its exact value is a unit, not a claim.
const REFERENCE_S: f64 = 0.009;

/// One run of the fixed kernel: a small integer DP, hash-map traffic
/// and allocation, the mix the solvers themselves do.
fn kernel() {
    let a: Vec<u8> = (0..400u32).map(|i| (i * 7 % 13) as u8).collect();
    let b: Vec<u8> = (0..400u32).map(|i| (i * 5 % 11) as u8).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0i64;
    for _ in 0..8 {
        let mut prev = vec![0i32; b.len() + 1];
        let mut cur = vec![0i32; b.len() + 1];
        for &ca in black_box(&a) {
            for (j, &cb) in b.iter().enumerate() {
                let s = if ca == cb { 2 } else { -1 };
                cur[j + 1] = (prev[j] + s).max(prev[j + 1]).max(cur[j]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        acc += i64::from(prev[b.len()]);
        let mut m: HashMap<u64, u64> = HashMap::new();
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *m.entry(x % 4096).or_insert(0) += i;
        }
        acc += m.len() as i64;
    }
    black_box(acc);
}

/// How slow the host is right now for work as wide as the machine:
/// `nproc` threads run the kernel at once, each timing its own runs,
/// and their mean time is taken over the reference time (1.0 on the
/// reference host, 1.5 when everything takes half as long again). The
/// work it corrects runs on every core (pool width `nproc`, or a
/// client, an event loop and workers), so rationing that leaves the
/// machine one core must show here too. Each thread times only its own
/// runs, so thread start-up is not read as slowness.
pub fn slowdown() -> f64 {
    const RUNS: usize = 3;
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timed = || {
        let t = Instant::now();
        for _ in 0..RUNS {
            kernel();
        }
        t.elapsed().as_secs_f64()
    };
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..width).map(|_| s.spawn(timed)).collect();
        let own = timed();
        own + others
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .sum::<f64>()
    });
    total / (width * RUNS) as f64 / REFERENCE_S
}
