//! The traced twin of the three 1 LS : 4 TC workloads.
//!
//! `workload::run` takes no tracer, so the traced run drives the same
//! shape (one oPF target, tenant 0 an LS probe with one request in
//! flight, tenants 1–4 TC at queue depth 128) through
//! `workload::build_pair_traced` with a bench-owned closed-loop pump, as
//! `experiments::breakdown` does, and reduces the target's trace events
//! per class to simulated-time waits. The same pump without a tracer
//! gives the tracing overhead.

use crate::drivers::{pump, PumpSpec};
use crate::workloads::Workload;
use bytes::Bytes;
use nvme::BLOCK_SIZE;
use opf::ReqClass;
use simkit::{FxHashMap, Kernel, SimTime, Stopwatch, TraceEvent, Tracer};
use std::rc::Rc;
use workload::scenario::Speed;
use workload::Mix;

const WARM_S: f64 = 0.02;
const TOTAL_S: f64 = 0.12;
const LS_TENANT: u32 = 0;

/// Mean simulated waits (µs) per class, from the target's trace events.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Waits {
    /// Command receipt → device submit, LS.
    pub staging_us_ls: f64,
    /// Command receipt → device submit, TC (the priority manager's queue).
    pub staging_us_tc: f64,
    /// Device submit → device completion, LS.
    pub device_us_ls: f64,
    /// Device submit → device completion, TC.
    pub device_us_tc: f64,
    /// A batch's drain command completing at the device → its coalesced
    /// response on the wire.
    pub completion_us_tc: f64,
}

/// The twin's result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TwinResult {
    /// Per-class waits.
    pub waits: Waits,
    /// Traced pump host time / untraced pump host time.
    pub trace_overhead_ratio: f64,
}

fn shape(w: Workload) -> Option<(Speed, Mix, u16)> {
    match w {
        Workload::Read4k100g => Some((Speed::G100, Mix::READ, 1)),
        Workload::Write4k10g => Some((Speed::G10, Mix::WRITE, 1)),
        Workload::Bulk128kMixed100g => Some((Speed::G100, Mix::MIXED, 32)),
        _ => None,
    }
}

/// One pump run; returns host seconds and whatever the tracer recorded.
fn drive(speed: Speed, mix: Mix, blocks: u16, seed: u64, traced: bool) -> (f64, Vec<TraceEvent>) {
    let mut k = Kernel::new(seed);
    let (sink, tracer) = if traced {
        let (s, t) = Tracer::recording();
        (Some(s), t)
    } else {
        (None, Tracer::disabled())
    };
    let pair = Rc::new(workload::build_pair_traced(
        &mut k,
        workload::RuntimeKind::Opf,
        speed,
        5,
        128,
        opf::WindowPolicy::Static(32),
        seed,
        true,
        tracer,
    ));
    let end = SimTime::from_nanos((TOTAL_S * 1e9) as u64);
    let spec = |class| {
        Rc::new(PumpSpec {
            class,
            mix,
            blocks,
            payload: Bytes::from(vec![0u8; BLOCK_SIZE * blocks as usize]),
            end,
        })
    };
    let (ls, tc) = (
        spec(ReqClass::LatencySensitive),
        spec(ReqClass::ThroughputCritical),
    );
    k.set_horizon(end);
    let sw = Stopwatch::start();
    for tenant in 1..5 {
        for q in 0..128 {
            pump(pair.clone(), &mut k, tenant, tc.clone(), q);
        }
    }
    pump(pair.clone(), &mut k, LS_TENANT as usize, ls, 0);
    k.run_to_completion();
    let wall = sw.elapsed_secs();
    let events = sink.map_or_else(Vec::new, |s| std::mem::take(&mut s.borrow_mut().events));
    (wall, events)
}

#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, us: f64) {
        self.sum += us;
        self.n += 1;
    }

    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Pair the target's trace events per `(initiator, CID)` and average the
/// gaps after the warm-up instant.
pub fn reduce(events: &[TraceEvent], warm: SimTime) -> Waits {
    let mut rx: FxHashMap<(u32, u64), SimTime> = FxHashMap::default();
    let mut submit: FxHashMap<(u32, u64), SimTime> = FxHashMap::default();
    // Latest TC device completion per CID, whichever tenant: a coalesced
    // response names only its drain CID, and it leaves right after that
    // drain command (the last of its window) completes.
    let mut tc_done: FxHashMap<u64, SimTime> = FxHashMap::default();
    let (mut st_ls, mut st_tc, mut dev_ls, mut dev_tc, mut comp_tc) = (
        Mean::default(),
        Mean::default(),
        Mean::default(),
        Mean::default(),
        Mean::default(),
    );
    for ev in events {
        let key = (ev.who, ev.detail);
        let ls = ev.who == LS_TENANT;
        match ev.kind {
            "opf.cmd_rx" => {
                rx.insert(key, ev.at);
            }
            "opf.dev_submit" => {
                if let Some(t) = rx.remove(&key).filter(|_| ev.at >= warm) {
                    let us = ev.at.since(t).as_micros_f64();
                    if ls { &mut st_ls } else { &mut st_tc }.add(us);
                }
                submit.insert(key, ev.at);
            }
            "opf.dev_done" => {
                if let Some(t) = submit.remove(&key).filter(|_| ev.at >= warm) {
                    let us = ev.at.since(t).as_micros_f64();
                    if ls { &mut dev_ls } else { &mut dev_tc }.add(us);
                }
                if !ls {
                    tc_done.insert(ev.detail, ev.at);
                }
            }
            "opf.coalesced_tx" => {
                if let Some(t) = tc_done.remove(&ev.detail).filter(|_| ev.at >= warm) {
                    comp_tc.add(ev.at.since(t).as_micros_f64());
                }
            }
            _ => {}
        }
    }
    Waits {
        staging_us_ls: st_ls.get(),
        staging_us_tc: st_tc.get(),
        device_us_ls: dev_ls.get(),
        device_us_tc: dev_tc.get(),
        completion_us_tc: comp_tc.get(),
    }
}

/// Run the twin for `w`; `None` for workloads of another shape.
pub fn run(w: Workload, seed: u64) -> Option<TwinResult> {
    let (speed, mix, blocks) = shape(w)?;
    // Alternate untraced / traced twice and keep each side's faster run.
    let mut best = [f64::INFINITY; 2];
    let mut recorded = Vec::new();
    for _ in 0..2 {
        for traced in [false, true] {
            let (wall, events) = drive(speed, mix, blocks, seed, traced);
            best[usize::from(traced)] = best[usize::from(traced)].min(wall);
            if traced {
                recorded = events;
            }
        }
    }
    Some(TwinResult {
        waits: reduce(&recorded, SimTime::from_nanos((WARM_S * 1e9) as u64)),
        trace_overhead_ratio: best[1] / best[0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: &'static str, who: u32, detail: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(at_us),
            kind,
            who,
            detail,
        }
    }

    #[test]
    fn reduce_pairs_events_per_class() {
        let events = [
            ev(10, "opf.cmd_rx", 0, 1),
            ev(11, "opf.dev_submit", 0, 1),
            ev(31, "opf.dev_done", 0, 1),
            ev(10, "opf.cmd_rx", 2, 7),
            ev(50, "opf.dev_submit", 2, 7),
            ev(90, "opf.dev_done", 2, 7),
            ev(93, "opf.coalesced_tx", 0, 7),
            // Before the warm instant: ignored.
            ev(1, "opf.cmd_rx", 3, 9),
            ev(2, "opf.dev_submit", 3, 9),
        ];
        let w = reduce(&events, SimTime::from_micros(5));
        assert_eq!(
            w,
            Waits {
                staging_us_ls: 1.0,
                staging_us_tc: 40.0,
                device_us_ls: 20.0,
                device_us_tc: 40.0,
                completion_us_tc: 3.0,
            }
        );
    }

    #[test]
    fn only_ratio_workloads_have_a_twin() {
        assert!(shape(Workload::Read4k100g).is_some());
        assert!(shape(Workload::Scale256Sh8).is_none());
    }
}
