//! `run_all`'s `threads` caps every thread a sweep starts, each run's
//! pair fan-out included: `Some(1)` runs a five-pair scenario on the
//! calling thread alone, and `Some(2)` lets it start one more.
//!
//! The test counts the process's threads (`/proc/self/task`) while the
//! run is going, so it is Linux only and the only test in its binary:
//! no other test's threads come and go meanwhile.

#![cfg(target_os = "linux")]

use experiments::sweep::run_all;
use fabric::Gbps;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;
use workload::{Mix, RuntimeKind, Scenario};

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The most threads alive at once while `f` runs, the sampling thread
/// itself included.
#[allow(
    clippy::disallowed_methods,
    reason = "a sampling thread counts the run's threads"
)]
fn peak_threads_during(f: impl FnOnce()) -> usize {
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads_now());
                thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        f();
        done.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    })
}

#[test]
fn one_thread_starts_no_thread_for_the_pairs() {
    let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 1);
    sc.pairs = 5;
    sc.warmup_s = 0.01;
    sc.measure_s = 0.05;
    let scenarios = [sc];
    let idle = threads_now() + 1;
    let peak = peak_threads_during(|| assert_eq!(run_all(&scenarios, Some(1)).len(), 1));
    assert_eq!(peak, idle, "threads: Some(1) started a thread");
    // The same count sees the second worker `Some(2)` allows.
    let peak = peak_threads_during(|| assert_eq!(run_all(&scenarios, Some(2)).len(), 1));
    assert_eq!(peak, idle + 1, "threads: Some(2)");
}
