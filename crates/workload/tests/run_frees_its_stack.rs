//! Every `run` used to leak its stack through two `Rc` cycles (target ↔
//! initiator receive closures, initiator → in-flight callback →
//! driver). Once a run returns and its result is dropped, every byte it
//! allocated must be free again — in any run shape, with commands still
//! in flight at the horizon or (zero length) none ever issued. This
//! binary installs its own counting global allocator, so it holds
//! exactly this one test.

#![allow(unsafe_code, reason = "a counting global allocator")]

use fabric::Gbps;
use std::alloc::{GlobalAlloc, Layout, System};
use std::slice;
use std::sync::atomic::{AtomicIsize, Ordering};
use workload::{run_all, Mix, RuntimeKind, Scenario};

/// The system allocator plus a count of the bytes live.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// layout/pointer, unchanged; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes still allocated after running `sc` on the calling thread and
/// dropping its result.
fn left_behind(sc: &Scenario) -> isize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(run_all(slice::from_ref(sc), Some(1)));
    LIVE.load(Ordering::Relaxed) - before
}

#[test]
fn run_frees_its_stack() {
    let classic = |rt| Scenario::ratio(rt, Gbps::G100, Mix::MIXED, 1, 2);
    let mut three_pairs = classic(RuntimeKind::Spdk);
    three_pairs.pairs = 3;
    let mut lossy_open = classic(RuntimeKind::Opf);
    lossy_open.traffic = Some(workload::TrafficSpec::default());
    lossy_open.faults = Some(faults::FaultProfile {
        drop_p: 0.02,
        ..faults::FaultProfile::default()
    });
    // Trace arrivals, LS and TC, reads and writes, faster than the
    // queue pairs take them, so requests wait application-side.
    let text: String = (0..400u64)
        .map(|i| {
            let class = if i % 5 == 0 { "LS" } else { "TC" };
            let op = if i % 3 == 0 { "W" } else { "R" };
            format!("{},{},{class},{op},{i},2\n", i * 10, i % 2)
        })
        .collect();
    let log = workload::TraceLog::from_text(&text).expect("a valid trace");
    let mut traced = classic(RuntimeKind::Opf);
    traced.traffic = Some(workload::TrafficSpec {
        model: workload::ArrivalModel::Trace(std::sync::Arc::new(log)),
        ..workload::TrafficSpec::default()
    });
    let mut cluster = classic(RuntimeKind::Opf);
    cluster.targets = 2;
    cluster.migrations = vec![workload::MigrationSpec {
        tenant: 1,
        at_s: 0.001,
        to_target: 0,
    }];
    let shapes = [
        classic(RuntimeKind::Spdk),
        classic(RuntimeKind::Opf),
        lossy_open,
        traced,
        cluster,
        three_pairs,
    ];
    // One run first, so whatever the process allocates once and keeps
    // (the test harness's own state included) is in place.
    left_behind(&shapes[0]);
    for mut sc in shapes {
        for measure_s in [0.0, 0.003] {
            sc.warmup_s = 0.0;
            sc.measure_s = measure_s;
            assert_eq!(left_behind(&sc), 0, "bytes outlive the run ({sc:?})");
        }
    }
}
