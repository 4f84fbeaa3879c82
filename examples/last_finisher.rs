//! Last-finisher election vs an inter-WG barrier (paper §3.4).
//!
//! The fused kernel elects the workgroup that triggers a slice's
//! communication with one atomic `WG_Done` update instead of an inter-WG
//! barrier, so WGs "make forward progress after setting their flag
//! instead of waiting". This example prices both designs on real
//! threads: W workers complete a slice, exactly one must fire.
//!
//! ```sh
//! cargo run --release --example last_finisher
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const ROUNDS: u32 = 20;

/// Mean wall time of one round of `design`, microseconds.
fn time_us(design: impl Fn()) -> f64 {
    design(); // warm-up
    let start = Instant::now();
    for _ in 0..ROUNDS {
        design();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}

fn atomic_election(workers: usize) {
    let counter = AtomicU64::new(0);
    let fired = AtomicU64::new(0);
    rayon::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| {
                // Non-last workers continue immediately.
                if counter.fetch_add(1, Ordering::AcqRel) + 1 == workers as u64 {
                    fired.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(fired.load(Ordering::Relaxed), 1);
}

fn barrier(workers: usize) {
    let barrier = Barrier::new(workers);
    let fired = AtomicU64::new(0);
    // Dedicated threads: a barrier inside a rayon scope can deadlock on a
    // small pool, which is itself part of why kernels avoid inter-WG
    // barriers.
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                if barrier.wait().is_leader() {
                    fired.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(fired.load(Ordering::Relaxed), 1);
}

fn main() {
    println!("last finisher: one of W workers must trigger the slice's communication");
    println!(
        "{:>8}  {:>18}  {:>12}",
        "workers", "atomic election us", "barrier us"
    );
    for workers in [16usize, 64] {
        let election = time_us(|| atomic_election(workers));
        let barrier = time_us(|| barrier(workers));
        println!("{workers:>8}  {election:>18.1}  {barrier:>12.1}");
    }
}
