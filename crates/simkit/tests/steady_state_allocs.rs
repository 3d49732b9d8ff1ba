//! The kernel schedules without allocating once it is warm.
//!
//! A hold loop keeps 4096 events pending: each event, when it runs,
//! schedules one successor a random gap ahead. After a warm-up that
//! lets the record table and the current tick's run reach their
//! working size, one million more events must average below
//! 1e-3 allocations each. This binary installs its own counting global
//! allocator, so it holds exactly this one test.

#![allow(unsafe_code, reason = "a counting global allocator")]

use simkit::{Kernel, Pcg32, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// layout/pointer, unchanged; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DEPTH: usize = 4096;
const WARMUP: u64 = 200_000;
const EVENTS: u64 = 1_000_000;

fn hold(k: &mut Kernel, rng: Rc<RefCell<Pcg32>>) {
    let gap = 1 + u64::from(rng.borrow_mut().gen_below(2_000));
    k.schedule_in(SimDuration::from_nanos(gap), move |k| hold(k, rng));
}

#[test]
fn hold_loop_at_depth_4096_does_not_allocate() {
    let mut k = Kernel::new(7);
    let rng = Rc::new(RefCell::new(Pcg32::new(1)));
    let mut fill = Pcg32::new(2);
    for _ in 0..DEPTH {
        let at = SimTime::from_nanos(fill.gen_range(0, DEPTH as u64 * 1_000));
        let rng = rng.clone();
        k.schedule_at(at, move |k| hold(k, rng));
    }
    for _ in 0..WARMUP {
        assert!(k.step());
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..EVENTS {
        assert!(k.step());
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(k.events_pending(), DEPTH);
    let per_event = allocs as f64 / EVENTS as f64;
    assert!(
        per_event < 1e-3,
        "{allocs} allocations over {EVENTS} steady-state events ({per_event:.2e} each)"
    );
}
