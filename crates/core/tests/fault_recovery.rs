//! Protocol recovery under loss: lost drains are retransmitted by the
//! redrain watchdog, lost LS commands by the per-command retry timer,
//! lost coalesced responses by re-executing the drain at the target —
//! and in every case each request completes exactly once.

use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, Status};
use nvmf::initiator::TargetRx;
use nvmf::{CpuCosts, Pdu, PduRx, RetryPolicy};
use opf::{OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, ReqClass, WindowPolicy};
use simkit::{shared, Kernel, Shared, SimDuration, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// Which PDUs the lossy rig should eat, and how many of them.
#[derive(Clone, Copy)]
enum Drop {
    /// Drop the first `n` draining command capsules (host → target).
    Drains(u32),
    /// Drop the first `n` LS command capsules (host → target).
    LsCmds(u32),
    /// Drop the first `n` TC response capsules (target → host).
    TcResps(u32),
}

struct Rig {
    k: Kernel,
    ini: Shared<OpfInitiator>,
    tgt: Shared<OpfTarget>,
    completions: Rc<RefCell<Vec<(u64, Status)>>>,
}

fn rig(qd: usize, window: u32, cfg_patch: impl FnOnce(&mut OpfInitiatorConfig), drop: Drop) -> Rig {
    let k = Kernel::new(7);
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let tep = net.add_endpoint("tgt");
    let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 3));
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
    target.borrow_mut().set_recovery(true);
    let t2 = target.clone();
    let inner_tx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));
    let budget = Rc::new(RefCell::new(match drop {
        Drop::Drains(n) | Drop::LsCmds(n) | Drop::TcResps(n) => n,
    }));
    let b2 = budget.clone();
    let target_rx: TargetRx = Rc::new(move |k, from, pdu| {
        let eat = match (&pdu, drop) {
            (Pdu::CapsuleCmd { priority, .. }, Drop::Drains(_)) => priority.is_draining(),
            (Pdu::CapsuleCmd { priority, .. }, Drop::LsCmds(_)) => priority.is_ls(),
            _ => false,
        };
        if eat && *b2.borrow() > 0 {
            *b2.borrow_mut() -= 1;
            return;
        }
        inner_tx(k, from, pdu);
    });
    let iep = net.add_endpoint("ini");
    let mut cfg = OpfInitiatorConfig {
        window: WindowPolicy::Static(window),
        drain_timeout: None,
        ..OpfInitiatorConfig::default()
    };
    cfg_patch(&mut cfg);
    let ini = shared(OpfInitiator::new(
        0,
        qd,
        net,
        iep.clone(),
        tep,
        target_rx,
        CpuCosts::cl(),
        cfg,
    ));
    let i2 = ini.clone();
    let b3 = budget;
    let rx: PduRx = Rc::new(move |k, pdu| {
        let eat = matches!(
            (&pdu, drop),
            (Pdu::CapsuleResp { priority, .. }, Drop::TcResps(_)) if priority.is_tc()
        );
        if eat && *b3.borrow() > 0 {
            *b3.borrow_mut() -= 1;
            return;
        }
        OpfInitiator::on_pdu(&i2, k, pdu);
    });
    target.borrow_mut().connect(0, iep, rx);
    Rig {
        k,
        ini,
        tgt: target,
        completions: Rc::new(RefCell::new(Vec::new())),
    }
}

fn submit(r: &mut Rig, class: ReqClass, n: u64) {
    let comp = r.completions.clone();
    OpfInitiator::submit(
        &r.ini,
        &mut r.k,
        class,
        Opcode::Read,
        n,
        1,
        None,
        Box::new(move |_, out| comp.borrow_mut().push((n, out.status))),
    )
    .expect("queue depth not exceeded");
}

fn assert_exactly_once(completions: &[(u64, Status)], expected: &[u64]) {
    let mut seen: Vec<u64> = completions.iter().map(|&(n, _)| n).collect();
    seen.sort_unstable();
    let mut deduped = seen.clone();
    deduped.dedup();
    assert_eq!(seen, deduped, "double completion: {completions:?}");
    assert_eq!(seen, expected, "stranded or spurious CIDs: {completions:?}");
}

/// A drain capsule lost on the wire: `sent_in_window` is already zero, so
/// only the redrain watchdog can notice. Before the fix the timeout path
/// returned outright and the window hung forever.
#[test]
fn redrain_recovers_a_lost_drain() {
    let mut r = rig(
        8,
        4,
        |c| c.redrain_timeout = Some(SimDuration::from_micros(300)),
        Drop::Drains(1),
    );
    for n in 0..4 {
        submit(&mut r, ReqClass::ThroughputCritical, n);
    }
    r.k.run_to_completion();
    assert_exactly_once(&r.completions.borrow(), &[0, 1, 2, 3]);
    let ini = r.ini.borrow();
    assert_eq!(ini.stats.redrains, 1, "exactly one retransmitted drain");
    assert_eq!(ini.io.stats.errors, 0);
    assert_eq!(ini.io.stats.protocol_errors, 0);
}

/// A lost LS command is retransmitted by its expiry timer.
#[test]
fn retry_recovers_a_lost_ls_command() {
    let mut r = rig(
        8,
        4,
        |c| {
            c.retry = Some(RetryPolicy {
                timeout: SimDuration::from_micros(200),
                max_retries: 4,
            })
        },
        Drop::LsCmds(1),
    );
    submit(&mut r, ReqClass::LatencySensitive, 0);
    r.k.run_to_completion();
    assert_exactly_once(&r.completions.borrow(), &[0]);
    let ini = r.ini.borrow();
    assert_eq!(ini.io.stats.retries, 1);
    assert_eq!(ini.io.stats.errors, 0);
}

/// A lost *coalesced response*: the drain executed at the target but the
/// ack vanished. The redrain re-executes it (its live entry was cleared
/// at device completion) and the second response completes the window.
#[test]
fn lost_coalesced_response_is_redrained() {
    let mut r = rig(
        8,
        4,
        |c| c.redrain_timeout = Some(SimDuration::from_micros(300)),
        Drop::TcResps(1),
    );
    for n in 0..4 {
        submit(&mut r, ReqClass::ThroughputCritical, n);
    }
    r.k.run_to_completion();
    assert_exactly_once(&r.completions.borrow(), &[0, 1, 2, 3]);
    let ini = r.ini.borrow();
    assert!(ini.stats.redrains >= 1, "watchdog must have fired");
    assert_eq!(ini.io.stats.errors, 0);
    assert_eq!(ini.io.stats.protocol_errors, 0);
}

/// Retry budget exhaustion: a command the fabric always eats must fail
/// locally with an internal error — and release its CID.
#[test]
fn retry_exhaustion_fails_locally() {
    let mut r = rig(
        8,
        4,
        |c| {
            c.retry = Some(RetryPolicy {
                timeout: SimDuration::from_micros(200),
                max_retries: 2,
            })
        },
        Drop::LsCmds(u32::MAX),
    );
    submit(&mut r, ReqClass::LatencySensitive, 0);
    r.k.run_to_completion();
    let completions = r.completions.borrow();
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0], (0, Status::InternalError));
    let ini = r.ini.borrow();
    assert_eq!(ini.io.stats.retries, 2);
    assert_eq!(ini.io.stats.retry_exhausted, 1);
    assert_eq!(ini.io.stats.errors, 1);
    assert!(ini.has_capacity(), "failed CID must be released");
}

/// A duplicate drain arriving while the original is still queued at the
/// target must be suppressed there, not re-staged.
#[test]
fn target_suppresses_duplicate_commands() {
    // Redrain fires twice as fast as anything completes: the second
    // transmission races the first, which the fabric did NOT drop.
    let mut r = rig(
        8,
        4,
        |c| c.redrain_timeout = Some(SimDuration::from_micros(30)),
        Drop::Drains(0),
    );
    for n in 0..4 {
        submit(&mut r, ReqClass::ThroughputCritical, n);
    }
    r.k.run_to_completion();
    assert_exactly_once(&r.completions.borrow(), &[0, 1, 2, 3]);
    let tgt = r.tgt.borrow();
    let ini = r.ini.borrow();
    // Either the duplicate was caught at the target (still live) or the
    // re-executed drain's second response was suppressed at the
    // initiator — both keep completion exactly-once.
    assert!(
        tgt.io.stats.dup_cmds_dropped + ini.io.stats.dup_resps_suppressed >= 1,
        "the raced retransmission must be absorbed somewhere"
    );
    assert_eq!(ini.io.stats.errors, 0);
    assert_eq!(ini.io.stats.protocol_errors, 0);
    assert_eq!(tgt.io.stats.protocol_errors, 0);
}
