//! Parallel execution of independent simulation runs.
//!
//! Every simulation kernel is single-threaded and deterministic; a
//! figure is a set of independent points (scenarios, h5bench configs,
//! replayed traces), so the sweep fans them out across OS threads (guide
//! idiom: data-race freedom by construction — each worker owns its
//! points, results come back through a mutex-guarded vector indexed by
//! position).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use workload::{run_on, RunResult, Scenario};

/// Run all scenarios, preserving input order, on up to `threads`
/// threads (defaults to available parallelism). The grid and each run's
/// own pair fan-out ([`run_on`]) share that budget, so `threads` caps
/// the total and `Some(1)` starts no thread.
pub fn run_all(scenarios: &[Scenario], threads: Option<usize>) -> Vec<RunResult> {
    let (grid, per_run) = split(threads.unwrap_or_else(cores), scenarios.len());
    map(scenarios, Some(grid), |sc| run_on(sc, per_run))
}

/// Share `threads` between `n` grid points and each point's own
/// workers: one grid worker per point up to `threads`, and what that
/// leaves (at least one) to every point. A grid at least as large as
/// `threads` gives each point one worker.
fn split(threads: usize, n: usize) -> (usize, usize) {
    let grid = threads.clamp(1, n.max(1));
    (grid, (threads / grid).max(1))
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// `items.iter().map(f)`, fanned out over up to `threads` workers
/// (defaults to available parallelism) with results in input order.
pub fn map<T: Sync, R: Send>(
    items: &[T],
    threads: Option<usize>,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.unwrap_or_else(cores).clamp(1, n);
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Gbps;
    use workload::{Mix, RuntimeKind};

    fn tiny(seed: u64) -> Scenario {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 0, 1);
        sc.warmup_s = 0.01;
        sc.measure_s = 0.03;
        sc.seed = seed;
        sc
    }

    #[test]
    fn parallel_matches_serial() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let serial = run_all(&scenarios, Some(1));
        let parallel = run_all(&scenarios, Some(4));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.events, b.events);
        }
    }

    /// The grid and the runs' pair fan-out share the thread budget
    /// instead of multiplying it.
    #[test]
    fn the_grid_and_the_pairs_share_the_threads() {
        assert_eq!(split(1, 1), (1, 1));
        assert_eq!(split(1, 60), (1, 1));
        assert_eq!(split(2, 60), (2, 1));
        assert_eq!(split(8, 1), (1, 8));
        assert_eq!(split(8, 3), (3, 2));
        for threads in 1..=16 {
            for n in 0..=20 {
                let (grid, per_run) = split(threads, n);
                assert!(grid >= 1 && per_run >= 1 && grid * per_run <= threads);
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(run_all(&[], None).is_empty());
    }

    #[test]
    fn order_preserved() {
        // Different seeds give different event counts; check positions.
        let scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        let serial = run_all(&scenarios, Some(1));
        let parallel = run_all(&scenarios, Some(2));
        let se: Vec<u64> = serial.iter().map(|r| r.events).collect();
        let pe: Vec<u64> = parallel.iter().map(|r| r.events).collect();
        assert_eq!(se, pe);
    }
}
