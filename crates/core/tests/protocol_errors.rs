//! Malformed / misdirected PDUs must degrade gracefully: the affected
//! engine records a typed [`opf::ProtocolError`], drops the PDU, and the
//! simulation — including every *other* tenant — keeps running. These used
//! to be `panic!`s that aborted the whole sim.

use fabric::{FabricConfig, Gbps, Network};
use nvme::{Cqe, FlashProfile, NvmeDevice, Opcode, Sqe, Status};
use nvmf::initiator::TargetRx;
use nvmf::{CpuCosts, Pdu, PduRx, Priority};
use opf::{
    OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, ProtocolError, ProtocolSide,
    ReqClass, WindowPolicy,
};
use simkit::{shared, Kernel, Shared, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

struct Rig {
    k: Kernel,
    target: Shared<OpfTarget>,
    inis: Vec<Shared<OpfInitiator>>,
    completions: Rc<RefCell<Vec<Vec<u64>>>>,
}

fn rig(tenants: usize) -> Rig {
    let k = Kernel::new(9);
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let tep = net.add_endpoint("tgt");
    let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 5));
    device.borrow_mut().set_store_data(false);
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
    let mut inis = Vec::new();
    for t in 0..tenants {
        let iep = net.add_endpoint(format!("ini{t}"));
        let ini = shared(OpfInitiator::new(
            t as u8,
            8,
            net.clone(),
            iep.clone(),
            tep.clone(),
            target_rx.clone(),
            CpuCosts::cl(),
            OpfInitiatorConfig {
                window: WindowPolicy::Static(4),
                ..OpfInitiatorConfig::default()
            },
        ));
        let i2 = ini.clone();
        let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
        target.borrow_mut().connect(t as u8, iep, rx);
        inis.push(ini);
    }
    Rig {
        k,
        target,
        inis,
        completions: Rc::new(RefCell::new(vec![Vec::new(); tenants])),
    }
}

fn submit(r: &mut Rig, tenant: usize, class: ReqClass, n: u64) {
    let comp = r.completions.clone();
    OpfInitiator::submit(
        &r.inis[tenant],
        &mut r.k,
        class,
        Opcode::Read,
        n,
        1,
        None,
        Box::new(move |_, out| {
            assert!(out.status.is_ok());
            comp.borrow_mut()[tenant].push(n);
        }),
    )
    .expect("has capacity");
}

#[test]
fn target_drops_unexpected_pdu() {
    let mut r = rig(1);
    // An R2T and a response capsule arriving host -> controller are both
    // protocol violations.
    OpfTarget::on_pdu(
        &r.target,
        &mut r.k,
        0,
        Pdu::R2T {
            cccid: 7,
            r2tl: 512,
        },
    );
    OpfTarget::on_pdu(
        &r.target,
        &mut r.k,
        0,
        Pdu::CapsuleResp {
            cqe: Cqe {
                cid: 3,
                status: Status::Success,
                sq_head: 0,
                result: 0,
            },
            priority: Priority::None,
        },
    );
    assert_eq!(r.target.borrow().io.stats.protocol_errors, 2);
    assert!(matches!(
        r.target.borrow().io.last_protocol_error(),
        Some(ProtocolError::UnexpectedPdu {
            side: ProtocolSide::Target(0),
            ..
        })
    ));
    // The target still serves traffic afterwards.
    submit(&mut r, 0, ReqClass::LatencySensitive, 0);
    r.k.run_to_completion();
    assert_eq!(r.completions.borrow()[0], vec![0]);
}

#[test]
fn initiator_drops_unexpected_pdu() {
    let mut r = rig(1);
    let stray = Pdu::CapsuleCmd {
        sqe: Sqe::read(1, 1, 0, 1),
        priority: Priority::None,
        initiator: 0,
    };
    OpfInitiator::on_pdu(&r.inis[0], &mut r.k, stray);
    let ini = r.inis[0].borrow();
    assert_eq!(ini.io.stats.protocol_errors, 1);
    assert!(matches!(
        ini.io.last_protocol_error(),
        Some(ProtocolError::UnexpectedPdu {
            side: ProtocolSide::Initiator(0),
            ..
        })
    ));
}

#[test]
fn initiator_drops_unknown_cid_completion() {
    let mut r = rig(1);
    // An LS response for a CID that was never issued.
    OpfInitiator::on_pdu(
        &r.inis[0],
        &mut r.k,
        Pdu::CapsuleResp {
            cqe: Cqe {
                cid: 42,
                status: Status::Success,
                sq_head: 0,
                result: 0,
            },
            priority: Priority::LatencySensitive,
        },
    );
    r.k.run_to_completion();
    let ini = r.inis[0].borrow();
    assert_eq!(ini.io.stats.protocol_errors, 1);
    assert!(matches!(
        ini.io.last_protocol_error(),
        Some(ProtocolError::UnknownCid {
            side: ProtocolSide::Initiator(0),
            cid: 42,
        })
    ));
    assert_eq!(ini.io.stats.completed, 0);
}

#[test]
fn initiator_handles_missing_coalesced_cid() {
    let mut r = rig(1);
    // A coalesced TC response whose drain CID was never queued.
    OpfInitiator::on_pdu(
        &r.inis[0],
        &mut r.k,
        Pdu::CapsuleResp {
            cqe: Cqe {
                cid: 17,
                status: Status::Success,
                sq_head: 0,
                result: 0,
            },
            priority: Priority::ThroughputCritical { draining: true },
        },
    );
    r.k.run_to_completion();
    let ini = r.inis[0].borrow();
    assert!(ini.io.stats.protocol_errors >= 1);
    assert!(matches!(
        ini.io.last_protocol_error(),
        Some(
            ProtocolError::CoalescedCidMissing { cid: 17, .. }
                | ProtocolError::UnknownCid { cid: 17, .. }
        )
    ));
}

#[test]
fn r2t_without_payload_is_dropped() {
    let mut r = rig(1);
    // Issue a read (no payload), then forge an R2T against its CID.
    submit(&mut r, 0, ReqClass::LatencySensitive, 0);
    OpfInitiator::on_pdu(
        &r.inis[0],
        &mut r.k,
        Pdu::R2T {
            cccid: 0,
            r2tl: 512,
        },
    );
    r.k.run_to_completion();
    let ini = r.inis[0].borrow();
    assert_eq!(ini.io.stats.protocol_errors, 1);
    assert!(matches!(
        ini.io.last_protocol_error(),
        Some(ProtocolError::R2tWithoutPayload {
            initiator: 0,
            cid: 0
        })
    ));
    // The read itself still completed normally.
    assert_eq!(r.completions.borrow()[0], vec![0]);
}

/// The headline property: a malformed capsule degrades *one* tenant while
/// the other tenants' traffic completes untouched.
#[test]
fn malformed_capsule_degrades_one_tenant_only() {
    let mut r = rig(2);
    for n in 0..6 {
        submit(&mut r, 0, ReqClass::ThroughputCritical, n);
        submit(&mut r, 1, ReqClass::ThroughputCritical, n);
    }
    // Tenant 0's initiator is hit by a stray command capsule and a forged
    // LS completion mid-run.
    OpfInitiator::on_pdu(
        &r.inis[0],
        &mut r.k,
        Pdu::CapsuleCmd {
            sqe: Sqe::read(9, 1, 0, 1),
            priority: Priority::None,
            initiator: 0,
        },
    );
    OpfInitiator::on_pdu(
        &r.inis[0],
        &mut r.k,
        Pdu::CapsuleResp {
            cqe: Cqe {
                cid: 999,
                status: Status::Success,
                sq_head: 0,
                result: 0,
            },
            priority: Priority::LatencySensitive,
        },
    );
    OpfInitiator::flush(&r.inis[0], &mut r.k, Box::new(|_, _| {}));
    OpfInitiator::flush(&r.inis[1], &mut r.k, Box::new(|_, _| {}));
    r.k.run_to_completion();

    // Both tenants finish all traffic; tenant 0 carries the error marks.
    let comps = r.completions.borrow();
    assert_eq!(comps[0], (0..6).collect::<Vec<u64>>());
    assert_eq!(comps[1], (0..6).collect::<Vec<u64>>());
    assert_eq!(r.inis[0].borrow().io.stats.protocol_errors, 2);
    assert_eq!(r.inis[1].borrow().io.stats.protocol_errors, 0);
    assert_eq!(r.target.borrow().io.stats.protocol_errors, 0);
}
