//! Extension experiment: per-phase latency breakdown.
//!
//! Figure 3 of the paper sketches where time goes for LS and TC requests
//! under each runtime; this experiment measures it. The targets emit
//! trace events at command receipt, device submit, device completion and
//! response transmit; pairing consecutive events per (initiator, CID)
//! splits a request's target-side residence into:
//!
//! * **staging** — command receipt → device submit (the PM's TC queue
//!   wait under NVMe-oPF, ~reactor parse time under SPDK);
//! * **device** — flash unit queueing + media service;
//! * **completion** — device completion → response on the wire (per
//!   request under SPDK; per batch and drain-ordered under NVMe-oPF).

use crate::Durations;
use nvme::Opcode;
use opf::ReqClass;
use simkit::{Kernel, SimTime, Tracer};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use workload::report::fmt_us;
use workload::{build_pair_traced, Pair, RuntimeKind, Table};

/// Mean gaps (µs) between target-side phases.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    staging_us: f64,
    device_us: f64,
    completion_us: f64,
    samples: u64,
}

fn drive(runtime: RuntimeKind, d: Durations) -> Phases {
    let mut k = Kernel::new(31);
    let (sink, tracer) = Tracer::recording();
    let pair = Rc::new(build_pair_traced(
        &mut k,
        runtime,
        workload::scenario::Speed::G100,
        5,
        128,
        opf::WindowPolicy::Static(32),
        31,
        true,
        tracer,
    ));
    // Tenant 0 is the LS probe (QD 1 semantics by just keeping one
    // in flight); tenants 1..5 run TC closed loops.
    fn pump(pair: Rc<Pair>, k: &mut Kernel, tenant: usize, class: ReqClass, n: u64, end: SimTime) {
        if k.now() >= end {
            return;
        }
        let p2 = pair.clone();
        pair.initiators[tenant].submit(
            k,
            class,
            Opcode::Read,
            n % 4096,
            1,
            None,
            Box::new(move |k, _| pump(p2, k, tenant, class, n + 1, end)),
        );
    }
    let end = SimTime::from_nanos(((d.warmup_s + d.measure_s) * 1e9) as u64);
    for tenant in 1..5 {
        for q in 0..128u64 {
            pump(
                pair.clone(),
                &mut k,
                tenant,
                ReqClass::ThroughputCritical,
                q,
                end,
            );
        }
    }
    pump(pair.clone(), &mut k, 0, ReqClass::LatencySensitive, 0, end);
    k.set_horizon(end);
    k.run_to_completion();
    pair.teardown();

    // Pair events per (who, cid): cmd_rx -> dev_submit -> dev_done.
    let mut last_rx: HashMap<(u32, u64), SimTime> = HashMap::new();
    let mut last_submit: HashMap<(u32, u64), SimTime> = HashMap::new();
    let mut last_done: HashMap<(u32, u64), SimTime> = HashMap::new();
    let mut phases = Phases::default();
    let mut completion_sum = 0.0f64;
    let mut completion_n = 0u64;
    let warm = SimTime::from_nanos((d.warmup_s * 1e9) as u64);
    for ev in &sink.borrow().events {
        let key = (ev.who, ev.detail);
        match ev.kind {
            "tgt.cmd_rx" | "opf.cmd_rx" => {
                last_rx.insert(key, ev.at);
            }
            "tgt.dev_submit" | "opf.dev_submit" => {
                if let Some(rx) = last_rx.remove(&key) {
                    if ev.at >= warm {
                        phases.staging_us += ev.at.since(rx).as_micros_f64();
                        phases.samples += 1;
                    }
                }
                last_submit.insert(key, ev.at);
            }
            "tgt.dev_done" | "opf.dev_done" => {
                if let Some(sub) = last_submit.remove(&key) {
                    if ev.at >= warm {
                        phases.device_us += ev.at.since(sub).as_micros_f64();
                    }
                }
                last_done.insert(key, ev.at);
            }
            "tgt.resp_tx" | "opf.coalesced_tx" | "opf.ls_resp_tx" => {
                if let Some(done) = last_done.remove(&key) {
                    if ev.at >= warm {
                        completion_sum += ev.at.since(done).as_micros_f64();
                        completion_n += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let n = phases.samples.max(1) as f64;
    Phases {
        staging_us: phases.staging_us / n,
        device_us: phases.device_us / n,
        completion_us: completion_sum / completion_n.max(1) as f64,
        samples: phases.samples,
    }
}

/// Run the breakdown for both runtimes and print the comparison.
pub fn all(d: Durations, _threads: Option<usize>) {
    crate::put("== Extension: target-side latency breakdown (1 LS : 4 TC, read, 100 Gbps) ==\n");
    let results: Rc<RefCell<Vec<(RuntimeKind, Phases)>>> = Rc::new(RefCell::new(Vec::new()));
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let p = drive(runtime, d);
        results.borrow_mut().push((runtime, p));
    }
    let mut t = Table::new([
        "runtime",
        "staging (PM queue)",
        "device",
        "resp path (per resp)",
        "samples",
    ]);
    for (runtime, p) in results.borrow().iter() {
        t.row([
            runtime.label().to_string(),
            fmt_us(p.staging_us),
            fmt_us(p.device_us),
            fmt_us(p.completion_us),
            p.samples.to_string(),
        ]);
    }
    crate::put(&workload::render_table(&t));
    crate::put(
        "NVMe-oPF trades staging time (TC requests wait in the per-tenant\n\
         PM queue for their drain) for a bounded device queue and a\n\
         per-batch response path; SPDK submits immediately but every\n\
         request then queues at the device and pays its own response.\n",
    );
    crate::save_csv("breakdown", &t);
}
