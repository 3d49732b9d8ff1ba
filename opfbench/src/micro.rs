//! Micro loops over the hot data structures, shared by every driver.
//!
//! Each loop calls only public functions of one crate and reports the
//! best of [`REPS`] fixed-size repetitions: a micro loop is a property
//! of the code, so the least-disturbed repetition is the estimate. Input
//! variation comes from `Pcg32` instances of the bench's own, never from
//! the RNG of the code under test.

use crate::alloc::{self, AllocSnapshot};
use simkit::{Kernel, Pcg32, SimDuration, SimTime, Stopwatch};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

/// Repetitions per micro measurement.
pub const REPS: usize = 3;

/// How much work a micro loop does: full length, or 1/50 for `--smoke`
/// runs and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    divisor: u64,
}

impl Budget {
    /// The benchmark's fixed iteration counts.
    pub const FULL: Budget = Budget { divisor: 1 };
    /// 1/50 of them.
    pub const SMOKE: Budget = Budget { divisor: 50 };

    /// Iterations to run out of a full-length count.
    pub fn of(self, full: u64) -> u64 {
        (full / self.divisor).max(1)
    }

    /// Simulated seconds to run out of a full-length duration.
    pub fn secs(self, full: f64) -> f64 {
        full / self.divisor as f64
    }
}

/// One micro measurement.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Operations per repetition (deterministic).
    pub ops: u64,
    /// Wall time of the fastest repetition.
    pub wall_s: f64,
    /// Simulation events executed per repetition (0 for kernel-free loops).
    pub events: u64,
    /// Allocations made by the last repetition (zeros unless the binary
    /// installed the counting allocator and counting is on).
    pub allocs: AllocSnapshot,
    /// Pending-event depth seen mid-run (kernel drivers only).
    pub depth: usize,
}

impl Timed {
    /// Host nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_s * 1e9 / self.ops as f64
    }

    /// Events per operation.
    pub fn events_per_op(&self) -> f64 {
        self.events as f64 / self.ops as f64
    }

    /// Allocations per operation.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs.allocs as f64 / self.ops as f64
    }

    /// Allocated bytes per operation.
    pub fn alloc_bytes_per_op(&self) -> f64 {
        self.allocs.bytes as f64 / self.ops as f64
    }
}

/// What one repetition of a kernel driver reports back.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepCounts {
    /// Events executed inside the timed region.
    pub events: u64,
    /// Pending-event depth sampled inside the timed region.
    pub depth: usize,
}

/// Time `rep` (one warm-up call, then [`REPS`] timed calls). `rep`
/// performs `ops` operations and returns the wall time of its own timed
/// region, so set-up inside it stays untimed.
pub fn best_of(ops: u64, mut rep: impl FnMut() -> (f64, RepCounts)) -> Timed {
    rep();
    let mut best = f64::INFINITY;
    let mut counts = RepCounts::default();
    let mut allocs = AllocSnapshot::default();
    for _ in 0..REPS {
        let ((wall, c), a) = alloc::counted(&mut rep);
        best = best.min(wall);
        counts = c;
        allocs = a;
    }
    Timed {
        ops,
        wall_s: best,
        events: counts.events,
        allocs,
        depth: counts.depth,
    }
}

/// Time a kernel-free loop body `iters` times per repetition.
pub fn time_loop(iters: u64, mut f: impl FnMut()) -> Timed {
    best_of(iters, || {
        let sw = Stopwatch::start();
        for _ in 0..iters {
            f();
        }
        (sw.elapsed_secs(), RepCounts::default())
    })
}

struct HoldState {
    rng: RefCell<Pcg32>,
    /// Route each successor to the next lane (exercises the mesh).
    hop_lanes: bool,
}

fn hold_event(k: &mut Kernel, st: Rc<HoldState>) {
    let gap = 1 + u64::from(st.rng.borrow_mut().next_u32() % 2_000);
    let at = k.now() + SimDuration::from_nanos(gap);
    if st.hop_lanes {
        let lane = (k.current_shard() + 1) % k.shards() as u32;
        k.schedule_at_on(lane, at, move |k| hold_event(k, st));
    } else {
        k.schedule_at(at, move |k| hold_event(k, st));
    }
}

/// The steady-state *hold model* of the event queue: with `depth`
/// events pending, pop one and schedule one, `events` times. This is the
/// regime a long simulation keeps the queue in; a fill-then-drain loop
/// (hotpath's `kernel/schedule_run_10k`) measures a ramp instead.
///
/// `shards > 1` spreads the pending set over that many lanes; `meshed`
/// additionally sends every successor to the next lane through the
/// mailbox-doorbell mesh.
pub fn hold_model(shards: usize, meshed: bool, depth: usize, events: u64) -> Timed {
    best_of(events, || {
        let mut k = Kernel::with_shards(7, shards);
        k.set_parallel(meshed);
        let st = Rc::new(HoldState {
            rng: RefCell::new(Pcg32::new(1)),
            hop_lanes: meshed,
        });
        let mut fill = Pcg32::new(2);
        for i in 0..depth {
            let at = SimTime::from_nanos(fill.gen_range(0, (depth as u64 * 1_000).max(1)));
            let st = st.clone();
            k.schedule_at_on((i % shards) as u32, at, move |k| hold_event(k, st));
        }
        let sw = Stopwatch::start();
        for _ in 0..events {
            k.step();
        }
        let wall = sw.elapsed_secs();
        let counts = RepCounts {
            events,
            depth: k.events_pending(),
        };
        black_box(k.now());
        (wall, counts)
    })
}

/// Hold-model cost at three pending depths; [`HoldCurve::at`]
/// interpolates between them on a log2(depth) axis.
#[derive(Clone, Copy, Debug)]
pub struct HoldCurve {
    /// ns/event at depth 64.
    pub d64: f64,
    /// ns/event at depth 4096.
    pub d4096: f64,
    /// ns/event at depth 65536.
    pub d65536: f64,
}

impl HoldCurve {
    /// Estimated ns/event at `depth` (clamped to the measured range).
    pub fn at(&self, depth: usize) -> f64 {
        let x = (depth.max(1) as f64).log2();
        let lerp = |x0: f64, y0: f64, x1: f64, y1: f64| y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        if x <= 6.0 {
            self.d64
        } else if x <= 12.0 {
            lerp(6.0, self.d64, 12.0, self.d4096)
        } else if x <= 16.0 {
            lerp(12.0, self.d4096, 16.0, self.d65536)
        } else {
            self.d65536
        }
    }
}

/// `CidQueue`: push a window of 32 CIDs, complete through the last.
/// One operation = one CID.
pub fn cid_window32(b: Budget) -> Timed {
    let mut q = queues::CidQueue::new(256);
    let mut scratch = Vec::new();
    let t = time_loop(b.of(100_000), || {
        for cid in 0..32u16 {
            q.push(cid).expect("queue sized above the window");
        }
        black_box(q.complete_through_into(31, &mut scratch));
    });
    Timed {
        ops: t.ops * 32,
        ..t
    }
}

/// SPSC ring: one push + one pop.
pub fn spsc_push_pop(b: Budget) -> Timed {
    let (mut tx, mut rx) = queues::spsc_channel::<u64>(256);
    time_loop(b.of(2_000_000), || {
        tx.push(42).expect("ring has room");
        black_box(rx.pop());
    })
}

/// Cross-reactor mailbox: one send (post + doorbell) + one take.
pub fn mailbox_send_take(b: Budget) -> Timed {
    let (mut tx, mut rx) = queues::mailbox::<u64>(256);
    time_loop(b.of(2_000_000), || {
        tx.send(42).expect("mailbox has room");
        black_box(rx.take());
    })
}

fn cmd_pdu() -> nvmf::Pdu {
    nvmf::Pdu::CapsuleCmd {
        sqe: nvme::Sqe::read(7, 1, 123_456, 1),
        priority: nvmf::Priority::ThroughputCritical { draining: true },
        initiator: 3,
    }
}

fn data_pdu(bytes: usize) -> nvmf::Pdu {
    nvmf::Pdu::C2HData {
        cccid: 9,
        data: bytes::Bytes::from(vec![0u8; bytes]),
    }
}

/// Encode one command capsule.
pub fn pdu_encode_cmd(b: Budget) -> Timed {
    let pdu = cmd_pdu();
    time_loop(b.of(500_000), || {
        black_box(pdu.encode());
    })
}

/// Decode one command capsule.
pub fn pdu_decode_cmd(b: Budget) -> Timed {
    let raw = cmd_pdu().encode();
    time_loop(b.of(500_000), || {
        black_box(nvmf::Pdu::decode(&raw));
    })
}

/// Encode one C2H data PDU carrying `bytes` of payload.
pub fn pdu_encode_data(bytes: usize, b: Budget) -> Timed {
    let pdu = data_pdu(bytes);
    time_loop(
        b.of((400_000_000 / bytes as u64).clamp(2_000, 200_000)),
        || {
            black_box(pdu.encode());
        },
    )
}

/// Decode one C2H data PDU carrying `bytes` of payload.
pub fn pdu_decode_data(bytes: usize, b: Budget) -> Timed {
    let raw = data_pdu(bytes).encode();
    time_loop(
        b.of((400_000_000 / bytes as u64).clamp(2_000, 200_000)),
        || {
            black_box(nvmf::Pdu::decode(&raw));
        },
    )
}

/// Record one latency into the log-linear histogram.
pub fn hist_record(b: Budget) -> Timed {
    let mut h = workload::Histogram::new();
    let mut rng = Pcg32::new(3);
    let t = time_loop(b.of(2_000_000), || {
        h.record(20_000 + u64::from(rng.next_u32() % 4_000_000));
    });
    black_box(h.percentile(0.99));
    t
}

/// One open-loop arrival: draw the request shape and the next gap
/// (Poisson with Zipf skew and a size mix — the costliest spec shape).
pub fn traffic_arrival(b: Budget) -> Timed {
    let spec = workload::TrafficSpec {
        rate_kiops: 60.0,
        zipf: Some(1.0),
        size_mix: vec![(1, 0.7), (4, 0.2), (16, 0.1)],
        ..workload::TrafficSpec::default()
    };
    let mut gen = workload::TenantTraffic::new(&spec, 42, 1, 3);
    let mut now = 0u64;
    time_loop(b.of(1_000_000), || {
        black_box(gen.draw(now, 1, workload::Mix::READ));
        now += gen.next_gap_ns(now);
    })
}

/// One drain completion fed to the §IV-D hill-climbing window optimizer.
pub fn window_update(b: Budget) -> Timed {
    let mut w = opf::DynamicWindow::new(16);
    let mut now = 0u64;
    let mut rng = Pcg32::new(4);
    time_loop(b.of(2_000_000), || {
        now += 50_000 + u64::from(rng.next_u32() % 50_000);
        black_box(w.on_drain_complete(SimTime::from_nanos(now), 32));
    })
}

/// Parse a metrics-snapshot-shaped JSON document; one operation = 1 KiB.
pub fn json_parse_kib(b: Budget) -> Timed {
    let mut m = simkit::Metrics::at(SimTime::from_nanos(1));
    for i in 0..400 {
        m.set(
            format!("ini{i}.ep.link.uplink_util"),
            i as f64 * 0.001_234_5,
        );
    }
    let doc = m.to_json();
    let iters = b.of(400);
    let t = time_loop(iters, || {
        black_box(simkit::json::parse(&doc).is_ok());
    });
    Timed {
        ops: iters * doc.len() as u64 / 1024,
        ..t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_keeps_depth_and_counts_events() {
        let t = hold_model(1, false, 64, 10_000);
        assert_eq!((t.events, t.depth), (10_000, 64));
        let t = hold_model(8, true, 256, 10_000);
        assert_eq!((t.events, t.depth), (10_000, 256));
        assert!(t.ns_per_op() > 0.0);
    }

    #[test]
    fn hold_curve_interpolates_on_log_depth() {
        let c = HoldCurve {
            d64: 100.0,
            d4096: 160.0,
            d65536: 200.0,
        };
        assert_eq!(c.at(1), 100.0);
        assert_eq!(c.at(64), 100.0);
        assert!((c.at(512) - 130.0).abs() < 1e-9);
        assert_eq!(c.at(4096), 160.0);
        assert!((c.at(16_384) - 180.0).abs() < 1e-9);
        assert_eq!(c.at(1 << 20), 200.0);
    }
}
