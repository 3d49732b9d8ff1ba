//! The workspace's one thread pool. Every simulation kernel is
//! single-threaded and deterministic, and a figure is a set of
//! independent units (a run's pair groups, h5bench configs, replayed
//! traces), so parallelism is one order-preserving map over those units
//! (DESIGN.md §8). Each worker owns the results it computes and hands
//! them back when it is joined: nothing is shared but the next index.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// `items.iter().map(f)` on up to `threads` workers (defaults to
/// available parallelism), results in input order. The calling thread
/// is one of the workers, so `Some(1)` starts no thread and `Some(2)`
/// starts one. Each worker takes the next item as it finishes one.
///
/// # Panics
/// A panic in `f` is re-raised here with its own payload. A worker the
/// system cannot start is simply absent: the others drain the items.
#[expect(
    clippy::disallowed_methods,
    reason = "the one pool: scoped fan-out over independent simulations, results in input order"
)]
pub fn map<T: Sync, R: Send>(
    items: &[T],
    threads: Option<usize>,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
        .clamp(1, items.len().max(1));
    // `Relaxed`: the index only hands out items; each worker's results
    // reach the calling thread through its join.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = thread::scope(|s| {
        let spawned: Vec<_> = (1..workers)
            .filter_map(|_| thread::Builder::new().spawn_scoped(s, work).ok())
            .collect();
        let mut done = work();
        for h in spawned {
            done.extend(h.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..50).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for threads in [None, Some(1), Some(2), Some(4), Some(64)] {
            assert_eq!(map(&items, threads, |i| i * i), want, "{threads:?}");
        }
        assert!(map(&[] as &[u64], Some(4), |i| *i).is_empty());
    }

    /// `Some(1)` runs every item on the calling thread.
    #[test]
    fn one_thread_runs_every_item_in_line() {
        let caller = thread::current().id();
        let ids = map(&[0, 1, 2], Some(1), |_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    /// A panicking item surfaces on the calling thread as itself, not
    /// as a generic "a scoped thread panicked", on one worker or many.
    #[test]
    fn a_panic_surfaces_with_its_own_payload() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [Some(1), Some(4)] {
            let got = panic::catch_unwind(|| {
                map(&items, threads, |&i| {
                    if i == 11 {
                        panic!("item {i} failed");
                    }
                    i
                })
            });
            let payload = got.err().map(|p| p.downcast::<String>().map(|s| *s));
            let want = Some(Some("item 11 failed".to_string()));
            assert_eq!(payload.map(Result::ok), want, "{threads:?}");
        }
    }
}
