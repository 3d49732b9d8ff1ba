//! A counting global allocator for the `opfbench` binary. It forwards
//! every call to the system allocator unchanged — the program under test
//! runs on the allocator its users run it on — and only counts.
//!
//! The type lives in the library so the drivers can read the counters;
//! only the binary installs it (`#[global_allocator]`), so tests and any
//! other consumer of the library run on the system allocator and read
//! zeros. Counting is off until [`set_counting`] turns it on — the
//! end-to-end runs (`--trace 0`) pay one relaxed load per allocation and
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: nothing is published through these, so every access
// is `Relaxed` (the bench is single-threaded wherever it reads them).
static COUNTING: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus allocation / byte / peak-live counters.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
            let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
            PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
        }
    }

    #[inline]
    fn on_free(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            // Frees of blocks allocated before counting began would
            // underflow; saturate instead (live is an estimate then).
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                Some(l.saturating_sub(size as u64))
            });
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// layout/pointer, unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::alloc_zeroed`'s contract, passed through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_free(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::on_free(layout.size());
        Self::on_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Called once by the binary that installs [`CountingAlloc`], so the
/// library can tell "zero allocations" from "not counting".
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// True when the running binary installed the counting allocator.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Turn counting on or off (a no-op without the allocator installed).
pub fn set_counting(on: bool) {
    COUNTING.store(on && installed(), Ordering::Relaxed);
}

/// Whether counting is on.
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// A reading of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live byte count seen while counting.
    pub peak_live: u64,
    /// Live bytes now (allocated while counting and not yet freed).
    pub live: u64,
}

impl AllocSnapshot {
    /// Allocations and bytes since `earlier`; `peak_live` and `live`
    /// stay absolute.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            ..*self
        }
    }
}

/// Read the counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live: PEAK_LIVE.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

/// Run `f` and return its result with the allocations it made.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocSnapshot) {
    let before = snapshot();
    let r = f();
    (r, snapshot().since(&before))
}
