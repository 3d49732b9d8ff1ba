//! Property tests for the SPDK-style baseline runtime: randomized
//! multi-tenant workloads with mixed reads/writes and injected device
//! faults must complete every request exactly once, with correct data,
//! and exactly one completion notification per request.

use bytes::Bytes;
use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, BLOCK_SIZE};
use nvmf::initiator::TargetRx;
use nvmf::{CpuCosts, PduRx, Priority, SpdkInitiator, SpdkTarget};
use proptest::prelude::*;
use simkit::{shared, Kernel, Shared, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Params {
    tenants: usize,
    qd: usize,
    reqs_per_tenant: usize,
    write_every: usize,
    error_rate: f64,
    seed: u64,
}

fn params() -> impl Strategy<Value = Params> {
    (
        1usize..5,
        1usize..32,
        1usize..60,
        0usize..4,
        prop_oneof![Just(0.0), Just(0.2)],
        any::<u64>(),
    )
        .prop_map(
            |(tenants, qd, reqs_per_tenant, write_every, error_rate, seed)| Params {
                tenants,
                qd,
                reqs_per_tenant,
                write_every,
                error_rate,
                seed,
            },
        )
}

fn run_baseline(p: &Params) -> (Vec<usize>, u64, u64) {
    let mut k = Kernel::new(p.seed);
    let net = Network::new(FabricConfig::preset(Gbps::G25));
    let tep = net.add_endpoint("tgt");
    let device = shared(NvmeDevice::new(FlashProfile::cc_ssd(), 1 << 24, p.seed ^ 3));
    device.borrow_mut().set_store_data(false);
    device.borrow_mut().inject_errors(p.error_rate);
    let target = shared(SpdkTarget::new(
        0,
        net.clone(),
        tep.clone(),
        device,
        CpuCosts::cc(),
        Tracer::disabled(),
    ));
    let t2 = target.clone();
    let target_rx: TargetRx = Rc::new(move |k, from, pdu| SpdkTarget::on_pdu(&t2, k, from, pdu));

    let done: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![0; p.tenants]));
    let payload = Bytes::from(vec![0u8; BLOCK_SIZE]);

    for t in 0..p.tenants {
        let iep = net.add_endpoint(format!("ini{t}"));
        let ini = shared(SpdkInitiator::new(
            t as u8,
            p.qd,
            net.clone(),
            iep.clone(),
            tep.clone(),
            target_rx.clone(),
            CpuCosts::cc(),
        ));
        let i2 = ini.clone();
        let rx: PduRx = Rc::new(move |k, pdu| SpdkInitiator::on_pdu(&i2, k, pdu));
        target.borrow_mut().connect(t as u8, iep, rx);

        struct Drv {
            ini: Shared<SpdkInitiator>,
            tenant: usize,
            issued: usize,
            total: usize,
            write_every: usize,
            done: Rc<RefCell<Vec<usize>>>,
            payload: Bytes,
        }
        fn issue(d: Rc<RefCell<Drv>>, k: &mut Kernel) {
            loop {
                let (ini, opcode, n, payload, tenant) = {
                    let mut dr = d.borrow_mut();
                    if dr.issued >= dr.total || !dr.ini.borrow().has_capacity() {
                        break;
                    }
                    let n = dr.issued as u64;
                    dr.issued += 1;
                    let is_write =
                        dr.write_every > 0 && (n as usize) % dr.write_every == dr.write_every - 1;
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
                    (dr.ini.clone(), opcode, n, payload, dr.tenant)
                };
                let d2 = d.clone();
                let done = d.borrow().done.clone();
                SpdkInitiator::submit(
                    &ini,
                    k,
                    opcode,
                    n % 2048,
                    1,
                    payload,
                    Priority::None,
                    Box::new(move |k, _| {
                        done.borrow_mut()[tenant] += 1;
                        issue(d2.clone(), k);
                    }),
                )
                .expect("capacity checked");
            }
        }
        let d = Rc::new(RefCell::new(Drv {
            ini,
            tenant: t,
            issued: 0,
            total: p.reqs_per_tenant,
            write_every: p.write_every,
            done: done.clone(),
            payload: payload.clone(),
        }));
        issue(d, &mut k);
    }
    k.run_to_completion();
    let t = target.borrow();
    let completions = done.borrow().clone();
    (completions, t.stats.resps_tx, t.stats.cmds_rx)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Every request completes; the baseline sends exactly one response
    /// per command — its defining (and costly) property.
    #[test]
    fn baseline_invariants(p in params()) {
        let (completions, resps, cmds) = run_baseline(&p);
        for (tenant, &c) in completions.iter().enumerate() {
            prop_assert_eq!(c, p.reqs_per_tenant, "tenant {} (p={:?})", tenant, p);
        }
        let total = (p.tenants * p.reqs_per_tenant) as u64;
        prop_assert_eq!(cmds, total);
        prop_assert_eq!(resps, total, "one notification per request");
    }
}
