//! Adversarial-tenant hardening of the target Priority Manager
//! (DESIGN.md §14): forged identity bytes, drain floods, queue
//! overflows and double connects must all degrade to counted drops —
//! never a panic, never a misrouted command.

use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Sqe};
use nvmf::{CpuCosts, Pdu, PduRx, Priority};
use opf::{DrainRateLimit, OpfTarget, OpfTargetConfig, ProtocolError, ProtocolSide};
use simkit::{shared, Kernel, Shared, Tracer};
use std::rc::Rc;

/// A target with `tenants` no-op connections: PDUs are injected
/// directly via [`OpfTarget::on_pdu`] and responses are discarded, so
/// every assertion reads target-side state only.
fn rig(tenants: u8, cfg: OpfTargetConfig) -> (Kernel, Shared<OpfTarget>) {
    let k = Kernel::new(11);
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let tep = net.add_endpoint("tgt");
    let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 5));
    device.borrow_mut().set_store_data(false);
    let target = shared(OpfTarget::new(
        0,
        net.clone(),
        tep,
        device,
        CpuCosts::cl(),
        cfg,
        Tracer::disabled(),
    ));
    for t in 0..tenants {
        let iep = net.add_endpoint(format!("ini{t}"));
        let rx: PduRx = Rc::new(|_, _| {});
        target.borrow_mut().connect(t, iep, rx);
    }
    (k, target)
}

fn tc_read(cid: u16, initiator: u8, draining: bool) -> Pdu {
    Pdu::CapsuleCmd {
        sqe: Sqe::read(cid, 1, 0, 1),
        priority: Priority::ThroughputCritical { draining },
        initiator,
    }
}

#[test]
fn double_connect_is_counted_not_fatal() {
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let (_k, target) = rig(1, OpfTargetConfig::default());
    let dup_ep = net.add_endpoint("dup");
    let rx: PduRx = Rc::new(|_, _| {});
    target.borrow_mut().connect(0, dup_ep, rx);
    let t = target.borrow();
    assert_eq!(t.io.stats.protocol_errors, 1);
    assert!(matches!(
        t.io.last_protocol_error(),
        Some(ProtocolError::UnknownInitiator {
            side: ProtocolSide::Target(0),
            initiator: 0,
        })
    ));
    // The original registration is intact: exactly one tenant slot.
    assert_eq!(t.tenant_ids(), [0]);
}

#[test]
fn spoofed_initiator_byte_is_dropped_when_enforcing() {
    let (mut k, target) = rig(2, OpfTargetConfig::default());
    // Tenant 0's connection carries a capsule claiming to be tenant 1.
    OpfTarget::on_pdu(&target, &mut k, 0, tc_read(3, 1, false));
    k.run_to_completion();
    let t = target.borrow();
    assert_eq!(t.io.stats.spoofs_dropped, 1);
    assert_eq!(t.io.stats.protocol_errors, 1);
    assert!(matches!(
        t.io.last_protocol_error(),
        Some(ProtocolError::IdentityMismatch {
            side: ProtocolSide::Target(0),
            claimed: 1,
            expected: 0,
        })
    ));
    // Dropped before classification: nothing was counted or staged.
    assert_eq!(t.io.stats.cmds_rx, 0);
    assert_eq!(t.tc_queue_depth(0) + t.tc_queue_depth(1), 0);
}

/// A bit-14 flip of CID 48, as a corrupting fabric delivers it. At
/// 8b0c8ff it reached `encode_key`: a debug panic, and in release the
/// CID's high bits were ORed into the key's owner field.
#[test]
fn out_of_range_cid_is_dropped_before_it_keys_anything() {
    let (mut k, target) = rig(1, OpfTargetConfig::default());
    OpfTarget::on_pdu(&target, &mut k, 0, tc_read(48 | 1 << 14, 0, true));
    OpfTarget::on_pdu(&target, &mut k, 0, tc_read(1023, 0, false));
    k.run_to_completion();
    let t = target.borrow();
    assert_eq!(
        t.io.last_protocol_error(),
        Some(&ProtocolError::CidOutOfRange {
            target: 0,
            cid: 16432,
        })
    );
    assert_eq!(t.io.stats.protocol_errors, 1);
    // Only the in-range command was counted and staged.
    assert_eq!(t.io.stats.cmds_rx, 1);
    assert_eq!(t.tc_queue_depth(0), 1);
    assert_eq!(t.io.stats.completed, 0);
}

#[test]
fn reserved_initiator_id_is_counted_not_fatal() {
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let (_k, target) = rig(0, OpfTargetConfig::default());
    let rx: PduRx = Rc::new(|_, _| {});
    target.borrow_mut().connect(255, net.add_endpoint("x"), rx);
    let t = target.borrow();
    assert_eq!(t.io.stats.protocol_errors, 1);
    assert!(t.tenant_ids().is_empty());
}

#[test]
fn enforcement_off_trusts_the_wire() {
    let cfg = OpfTargetConfig {
        enforce_identity: false,
        ..OpfTargetConfig::default()
    };
    let (mut k, target) = rig(2, cfg);
    // The same spoofed capsule now lands in the *victim's* queue — the
    // unhardened behaviour the adversary experiment's baseline column
    // demonstrates.
    OpfTarget::on_pdu(&target, &mut k, 0, tc_read(3, 1, false));
    k.run_to_completion();
    let t = target.borrow();
    assert_eq!(t.io.stats.spoofs_dropped, 0);
    assert_eq!(t.io.stats.cmds_rx, 1);
    assert_eq!(t.tc_queue_depth(1), 1);
    assert_eq!(t.tc_queue_depth(0), 0);
}

#[test]
fn enforcement_off_send_to_unknown_initiator_is_counted() {
    let cfg = OpfTargetConfig {
        enforce_identity: false,
        ..OpfTargetConfig::default()
    };
    let (mut k, target) = rig(1, cfg);
    // An LS read claiming initiator 7 (never connected) executes and
    // routes its response by the forged ID: counted drop, no panic.
    OpfTarget::on_pdu(
        &target,
        &mut k,
        0,
        Pdu::CapsuleCmd {
            sqe: Sqe::read(4, 1, 0, 1),
            priority: Priority::LatencySensitive,
            initiator: 7,
        },
    );
    k.run_to_completion();
    let t = target.borrow();
    assert!(t.io.stats.protocol_errors >= 1);
    assert!(matches!(
        t.io.last_protocol_error(),
        Some(ProtocolError::UnknownInitiator {
            side: ProtocolSide::Target(0),
            initiator: 7,
        })
    ));
    assert_eq!(t.io.stats.completed, 1);
}

#[test]
fn drain_flood_is_rate_limited_and_commands_survive() {
    let cfg = OpfTargetConfig {
        drain_rate: Some(DrainRateLimit {
            // Effectively no refill over a microsecond-scale test: the
            // burst is the whole allowance.
            per_sec: 0.001,
            burst: 2,
        }),
        ..OpfTargetConfig::default()
    };
    let (mut k, target) = rig(1, cfg);
    // Five draining TC reads: a flood setting the flag on every command.
    for cid in 0..5u16 {
        OpfTarget::on_pdu(&target, &mut k, 0, tc_read(cid, 0, true));
        k.run_to_completion();
    }
    let t = target.borrow();
    assert_eq!(t.stats.drains_rx, 5);
    assert_eq!(t.stats.drains_suppressed, 3);
    // The two in-rate drains flushed their commands; the suppressed
    // drains' commands stay staged (coalesced into the next flush, had
    // one come) rather than being lost.
    assert_eq!(t.io.stats.completed, 2);
    assert_eq!(t.tc_queue_depth(0), 3);
    assert_eq!(t.io.stats.protocol_errors, 0);
}

#[test]
fn honest_drain_rate_never_trips_the_default_limit() {
    let cfg = OpfTargetConfig {
        drain_rate: Some(DrainRateLimit::default()),
        ..OpfTargetConfig::default()
    };
    let (mut k, target) = rig(1, cfg);
    // A window-4 tenant: three commands then a drain, repeatedly.
    let mut cid = 0u16;
    for _ in 0..8 {
        for i in 0..4u16 {
            OpfTarget::on_pdu(&target, &mut k, 0, tc_read(cid, 0, i == 3));
            cid += 1;
        }
        k.run_to_completion();
    }
    let t = target.borrow();
    assert_eq!(t.stats.drains_rx, 8);
    assert_eq!(t.stats.drains_suppressed, 0);
    assert_eq!(t.io.stats.completed, 32);
}

#[test]
fn tc_queue_overflow_drops_and_counts() {
    let (mut k, target) = rig(1, OpfTargetConfig::default());
    // 2049 undrained TC commands against the 2048-slot staging queue
    // (CIDs cycle under the shared-queue encoding bound; duplicates are
    // legal with recovery off).
    for i in 0..2049u32 {
        OpfTarget::on_pdu(&target, &mut k, 0, tc_read((i % 1024) as u16, 0, false));
    }
    k.run_to_completion();
    let t = target.borrow();
    assert_eq!(t.stats.tc_overflow_drops, 1);
    assert_eq!(t.io.stats.protocol_errors, 1);
    assert!(matches!(
        t.io.last_protocol_error(),
        Some(ProtocolError::TcQueueOverflow {
            target: 0,
            initiator: 0,
            cid: 0,
        })
    ));
    assert_eq!(t.tc_queue_depth(0), 2048);
}

#[test]
fn spoof_collision_leaves_stale_queue_key_counted_on_flush() {
    let cfg = OpfTargetConfig {
        enforce_identity: false,
        ..OpfTargetConfig::default()
    };
    let (mut k, target) = rig(2, cfg);
    // Victim (tenant 1) stages CID 5; the adversary (tenant 0) spoofs a
    // duplicate (1, 5) into the victim's queue. The queue now holds the
    // key twice while the staged map holds one command.
    OpfTarget::on_pdu(&target, &mut k, 1, tc_read(5, 1, false));
    k.run_to_completion();
    OpfTarget::on_pdu(&target, &mut k, 0, tc_read(5, 1, false));
    k.run_to_completion();
    assert_eq!(target.borrow().tc_queue_depth(1), 2);
    // The victim's drain flushes: one command executes, the stale key is
    // counted — no panic, accounting stays consistent.
    OpfTarget::on_pdu(&target, &mut k, 1, tc_read(6, 1, true));
    k.run_to_completion();
    let t = target.borrow();
    assert_eq!(t.io.stats.completed, 2);
    assert_eq!(t.tc_queue_depth(1), 0);
    assert!(t.io.stats.protocol_errors >= 1);
    assert!(matches!(
        t.io.last_protocol_error(),
        Some(ProtocolError::UnknownCid {
            side: ProtocolSide::Target(0),
            cid: 5,
        })
    ));
}
