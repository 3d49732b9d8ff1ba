//! Property-based protocol tests: randomized multi-tenant scenarios must
//! preserve the NVMe-oPF protocol invariants regardless of window size,
//! queue depth, tenant count, workload mix, or injected device faults.
//!
//! Invariants checked:
//! 1. every submitted request completes exactly once (no hang, no dup);
//! 2. TC completions fire in issue order per tenant (Algorithm 2);
//! 3. coalescing factor: responses ≤ drains + LS requests + flushes;
//! 4. injected device errors surface as error completions without
//!    stalling any tenant.

use bytes::Bytes;
use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, BLOCK_SIZE};
use nvmf::initiator::TargetRx;
use nvmf::{CpuCosts, PduRx};
use opf::{OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, ReqClass, WindowPolicy};
use proptest::prelude::*;
use simkit::{shared, Kernel, Shared, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-tenant completion log: (lba, success) in completion order.
type CompletionLog = Rc<RefCell<Vec<Vec<(u64, bool)>>>>;

#[derive(Clone, Debug)]
struct Params {
    tenants: usize,
    window: u32,
    qd: usize,
    reqs_per_tenant: usize,
    write_every: usize, // every n-th request is a write (0 = never)
    ls_every: usize,    // every n-th request is LS (0 = never)
    error_rate: f64,
    seed: u64,
}

fn params() -> impl Strategy<Value = Params> {
    (
        1usize..5,
        1u32..40,
        1usize..40,
        1usize..80,
        0usize..5,
        0usize..7,
        prop_oneof![Just(0.0), Just(0.05), Just(0.3)],
        any::<u64>(),
    )
        .prop_map(
            |(tenants, window, qd, reqs_per_tenant, write_every, ls_every, error_rate, seed)| {
                Params {
                    tenants,
                    window,
                    qd,
                    reqs_per_tenant,
                    write_every,
                    ls_every,
                    error_rate,
                    seed,
                }
            },
        )
}

struct Outcome {
    completions: Vec<Vec<(u64, bool)>>, // per tenant: (req index, ok)
    resps_tx: u64,
    drains_rx: u64,
    ls_rx: u64,
}

fn run_scenario(p: &Params) -> Outcome {
    let mut k = Kernel::new(p.seed);
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let tep = net.add_endpoint("tgt");
    let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 24, p.seed ^ 7));
    device.borrow_mut().set_store_data(false);
    device.borrow_mut().inject_errors(p.error_rate);
    let target = shared(OpfTarget::new(
        0,
        net.clone(),
        tep.clone(),
        device,
        CpuCosts::cl(),
        OpfTargetConfig::default(),
        Tracer::disabled(),
    ));
    let t2 = target.clone();
    let target_rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));

    let completions: CompletionLog = Rc::new(RefCell::new(vec![Vec::new(); p.tenants]));
    let payload = Bytes::from(vec![0u8; BLOCK_SIZE]);

    let mut inis = Vec::new();
    for t in 0..p.tenants {
        let iep = net.add_endpoint(format!("ini{t}"));
        let ini = shared(OpfInitiator::new(
            t as u8,
            p.qd,
            net.clone(),
            iep.clone(),
            tep.clone(),
            target_rx.clone(),
            CpuCosts::cl(),
            OpfInitiatorConfig {
                window: WindowPolicy::Static(p.window),
                ..OpfInitiatorConfig::default()
            },
        ));
        let i2 = ini.clone();
        let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
        target.borrow_mut().connect(t as u8, iep, rx);
        inis.push(ini);
    }

    // Closed-loop driver per tenant issuing a fixed request count.
    struct Drv {
        ini: Shared<OpfInitiator>,
        tenant: usize,
        issued: usize,
        total: usize,
        p: Params,
        completions: CompletionLog,
        payload: Bytes,
    }
    fn issue(d: Rc<RefCell<Drv>>, k: &mut Kernel) {
        loop {
            let (ini, class, opcode, n, payload, tenant) = {
                let mut dr = d.borrow_mut();
                if dr.issued >= dr.total || !dr.ini.borrow().has_capacity() {
                    break;
                }
                let n = dr.issued as u64;
                dr.issued += 1;
                let is_ls = dr.p.ls_every > 0 && (n as usize) % dr.p.ls_every == dr.p.ls_every - 1;
                let class = if is_ls {
                    ReqClass::LatencySensitive
                } else {
                    ReqClass::ThroughputCritical
                };
                let is_write =
                    dr.p.write_every > 0 && (n as usize) % dr.p.write_every == dr.p.write_every - 1;
                let opcode = if is_write {
                    Opcode::Write
                } else {
                    Opcode::Read
                };
                let payload = if is_write {
                    Some(dr.payload.clone())
                } else {
                    None
                };
                (dr.ini.clone(), class, opcode, n, payload, dr.tenant)
            };
            let d2 = d.clone();
            let comp = d.borrow().completions.clone();
            OpfInitiator::submit(
                &ini,
                k,
                class,
                opcode,
                n % 1024,
                1,
                payload,
                Box::new(move |k, out| {
                    comp.borrow_mut()[tenant].push((n, out.status.is_ok()));
                    issue(d2.clone(), k);
                    // Once everything is issued, make sure the tail of a
                    // partial window drains.
                    let (ini, done) = {
                        let dr = d2.borrow();
                        (dr.ini.clone(), dr.issued >= dr.total)
                    };
                    if done {
                        OpfInitiator::flush(&ini, k, Box::new(|_, _| {}));
                    }
                }),
            )
            .expect("capacity checked");
        }
    }
    for (t, ini) in inis.iter().enumerate() {
        let d = Rc::new(RefCell::new(Drv {
            ini: ini.clone(),
            tenant: t,
            issued: 0,
            total: p.reqs_per_tenant,
            p: p.clone(),
            completions: completions.clone(),
            payload: payload.clone(),
        }));
        issue(d, &mut k);
        // A short stream may fit entirely in the queue depth: force the
        // initial tail drain too.
        OpfInitiator::flush(ini, &mut k, Box::new(|_, _| {}));
    }
    k.run_to_completion();

    let completions_out = completions.borrow().clone();
    let t = target.borrow();
    let out = Outcome {
        completions: completions_out,
        resps_tx: t.io.stats.resps_tx,
        drains_rx: t.stats.drains_rx,
        ls_rx: t.stats.ls_rx,
    };
    drop(t);
    out
}

fn check_invariants(p: &Params, out: &Outcome) {
    for (tenant, comps) in out.completions.iter().enumerate() {
        // 1. Everything completes exactly once.
        assert_eq!(
            comps.len(),
            p.reqs_per_tenant,
            "tenant {} completed {}/{} (p={:?})",
            tenant,
            comps.len(),
            p.reqs_per_tenant,
            p
        );
        let mut seen: Vec<u64> = comps.iter().map(|(n, _)| *n).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), p.reqs_per_tenant, "duplicate completions");

        // 2. TC completions in issue order (LS may overtake — that
        // is the point of the bypass).
        let tc_only: Vec<u64> = comps
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !(p.ls_every > 0 && (*n as usize) % p.ls_every == p.ls_every - 1))
            .collect();
        assert!(
            tc_only.windows(2).all(|w| w[0] < w[1]),
            "TC completions out of issue order for tenant {}: {:?}",
            tenant,
            tc_only
        );

        // 4. No injected errors => no error completions.
        if p.error_rate == 0.0 {
            assert!(comps.iter().all(|(_, ok)| *ok));
        }
    }

    // 3. Coalescing factor: one response per drain or LS request
    // (plus at most one flush-drain per tenant per retry).
    assert!(
        out.resps_tx <= out.drains_rx + out.ls_rx,
        "responses {} > drains {} + LS {}",
        out.resps_tx,
        out.drains_rx,
        out.ls_rx
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, ..ProptestConfig::default()
    })]

    #[test]
    fn protocol_invariants(p in params()) {
        let out = run_scenario(&p);
        check_invariants(&p, &out);
    }
}

/// The shrunk case from `protocol_props.proptest-regressions`, pinned as a
/// deterministic test: a single LS request behind a static window (7) larger
/// than the queue depth (1) — the paper's §IV-A lock-up hazard. The window
/// clamp in `OpfInitiator::new` plus the tail flush must still complete it.
#[test]
fn regression_window_exceeds_qd() {
    let p = Params {
        tenants: 1,
        window: 7,
        qd: 1,
        reqs_per_tenant: 1,
        write_every: 0,
        ls_every: 2,
        error_rate: 0.0,
        seed: 0,
    };
    let out = run_scenario(&p);
    check_invariants(&p, &out);
}

/// Sweep the hazard region exhaustively: every (window, qd, reqs) combination
/// with window around and beyond qd must drain to completion — no strand, no
/// duplicate — including streams that end mid-window.
#[test]
fn regression_window_qd_sweep() {
    for window in [1u32, 2, 3, 7, 8, 33] {
        for qd in [1usize, 2, 7, 8] {
            for reqs in [1usize, 2, 7, 15] {
                for ls_every in [0usize, 2] {
                    let p = Params {
                        tenants: 2,
                        window,
                        qd,
                        reqs_per_tenant: reqs,
                        write_every: 3,
                        ls_every,
                        error_rate: 0.0,
                        seed: 42,
                    };
                    let out = run_scenario(&p);
                    check_invariants(&p, &out);
                }
            }
        }
    }
}

#[test]
#[ignore]
fn hunt_exhaustive() {
    let mut n = 0u64;
    for tenants in [1usize, 2, 4] {
        for window in [1u32, 2, 3, 7, 8, 16, 39] {
            for qd in [1usize, 2, 3, 7, 8, 39] {
                for reqs in [1usize, 2, 7, 8, 20, 79] {
                    for write_every in [0usize, 1, 3] {
                        for ls_every in [0usize, 1, 2, 6] {
                            for error_rate in [0.0, 0.3] {
                                let p = Params {
                                    tenants,
                                    window,
                                    qd,
                                    reqs_per_tenant: reqs,
                                    write_every,
                                    ls_every,
                                    error_rate,
                                    seed: 7,
                                };
                                let out = run_scenario(&p);
                                check_invariants(&p, &out);
                                n += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    eprintln!("hunted {n} combos");
}
