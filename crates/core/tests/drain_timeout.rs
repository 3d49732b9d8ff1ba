//! Drain-timeout edge cases (§III-C / §IV-A): a partially filled window
//! must never strand CIDs or complete them twice — whether the rescue is
//! an explicit flush (`drain_timeout: None`), the timeout timer, or a
//! timeout racing a natural drain.

use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode};
use nvmf::initiator::TargetRx;
use nvmf::{CpuCosts, PduRx};
use opf::{OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, ReqClass, WindowPolicy};
use simkit::{shared, Kernel, Shared, SimDuration, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

struct Pair {
    k: Kernel,
    ini: Shared<OpfInitiator>,
    /// Request indices completed, in completion order.
    completions: Rc<RefCell<Vec<u64>>>,
}

fn pair(qd: usize, window: u32, drain_timeout: Option<SimDuration>) -> Pair {
    let k = Kernel::new(1);
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
    let t2 = target.clone();
    let target_rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));
    let iep = net.add_endpoint("ini");
    let ini = shared(OpfInitiator::new(
        0,
        qd,
        net,
        iep.clone(),
        tep,
        target_rx,
        CpuCosts::cl(),
        OpfInitiatorConfig {
            window: WindowPolicy::Static(window),
            drain_timeout,
            ..OpfInitiatorConfig::default()
        },
    ));
    let i2 = ini.clone();
    let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
    target.borrow_mut().connect(0, iep, rx);
    Pair {
        k,
        ini,
        completions: Rc::new(RefCell::new(Vec::new())),
    }
}

fn submit_tc(p: &mut Pair, n: u64) {
    let comp = p.completions.clone();
    OpfInitiator::submit(
        &p.ini,
        &mut p.k,
        ReqClass::ThroughputCritical,
        Opcode::Read,
        n,
        1,
        None,
        Box::new(move |_, out| {
            assert!(out.status.is_ok());
            comp.borrow_mut().push(n);
        }),
    )
    .expect("queue depth not exceeded");
}

fn assert_exactly_once(completions: &[u64], expected: &[u64]) {
    let mut seen = completions.to_vec();
    seen.sort_unstable();
    let mut deduped = seen.clone();
    deduped.dedup();
    assert_eq!(seen, deduped, "double completion: {completions:?}");
    assert_eq!(seen, expected, "stranded or spurious CIDs: {completions:?}");
}

/// With `drain_timeout: None` nothing rescues a partial window on its own:
/// the sim must still terminate (no timer re-arm loop), and an explicit
/// flush must then complete every pending request exactly once.
#[test]
fn partial_window_no_timeout_flush_rescues() {
    let mut p = pair(8, 8, None);
    for n in 0..3 {
        submit_tc(&mut p, n);
    }
    // No flush yet: the partial window stays staged at the target, the
    // event queue drains, and nothing completes — but nothing hangs.
    p.k.run_to_completion();
    assert!(
        p.completions.borrow().is_empty(),
        "completed without a drain"
    );

    // The explicit flush drains the partial window.
    OpfInitiator::flush(
        &p.ini,
        &mut p.k,
        Box::new(|_, out| assert!(out.status.is_ok())),
    );
    p.k.run_to_completion();
    assert_exactly_once(&p.completions.borrow(), &[0, 1, 2]);
}

/// A second flush while the first flush's drain is still in flight must be
/// a no-op — not a second drain, not a double completion.
#[test]
fn double_flush_is_single_drain() {
    let mut p = pair(8, 8, None);
    for n in 0..3 {
        submit_tc(&mut p, n);
    }
    OpfInitiator::flush(&p.ini, &mut p.k, Box::new(|_, _| {}));
    assert!(
        OpfInitiator::flush(&p.ini, &mut p.k, Box::new(|_, _| {})).is_none(),
        "second flush with an outstanding drain must be a no-op"
    );
    p.k.run_to_completion();
    assert_exactly_once(&p.completions.borrow(), &[0, 1, 2]);
    assert_eq!(p.ini.borrow().stats.drains_sent, 1);
}

/// The timeout alone (no flush call, no further traffic) must drain a
/// partial window.
#[test]
fn timeout_drains_partial_window() {
    let mut p = pair(8, 8, Some(SimDuration::from_micros(500)));
    for n in 0..3 {
        submit_tc(&mut p, n);
    }
    p.k.run_to_completion();
    assert_exactly_once(&p.completions.borrow(), &[0, 1, 2]);
    assert_eq!(
        p.ini.borrow().stats.drains_sent,
        1,
        "exactly one rescue drain"
    );
}

/// A natural drain (window fills) while the timeout is armed: the timer
/// fires with nothing pending and must not issue a second drain or
/// double-complete anything.
#[test]
fn timeout_concurrent_with_natural_drain() {
    let mut p = pair(8, 4, Some(SimDuration::from_micros(500)));
    // 3 partial submissions arm the timer; the 4th fills the window and
    // drains naturally before the timer fires.
    for n in 0..4 {
        submit_tc(&mut p, n);
    }
    p.k.run_to_completion();
    assert_exactly_once(&p.completions.borrow(), &[0, 1, 2, 3]);
    let ini = p.ini.borrow();
    assert_eq!(ini.stats.drains_sent, 1, "timer must not add a drain");
    assert_eq!(ini.pending_in_window(), 0);
}

/// A drain goes out, then a *new* partial window starts before the stale
/// timer fires: the timer must re-arm for the new window generation (not
/// flush it early, not strand it).
#[test]
fn stale_timer_rearms_for_new_window() {
    let mut p = pair(8, 4, Some(SimDuration::from_micros(500)));
    for n in 0..4 {
        submit_tc(&mut p, n); // fills window -> natural drain
    }
    submit_tc(&mut p, 4); // new partial window, old timer still armed
    p.k.run_to_completion();
    assert_exactly_once(&p.completions.borrow(), &[0, 1, 2, 3, 4]);
    let ini = p.ini.borrow();
    assert_eq!(
        ini.stats.drains_sent, 2,
        "one natural drain plus one timeout rescue"
    );
    assert_eq!(ini.pending_in_window(), 0);
}

/// Timer rescue with a *full* queue pair: the flush cannot get a slot at
/// first fire and must retry until completions free one — without losing
/// the pending window.
#[test]
fn timeout_retries_when_qpair_full() {
    // qd 4, window 4: submit 3 TC (partial) + 1 LS to fill the qpair.
    let mut p = pair(4, 4, Some(SimDuration::from_micros(500)));
    for n in 0..3 {
        submit_tc(&mut p, n);
    }
    let comp = p.completions.clone();
    OpfInitiator::submit(
        &p.ini,
        &mut p.k,
        ReqClass::LatencySensitive,
        Opcode::Read,
        99,
        1,
        None,
        Box::new(move |_, out| {
            assert!(out.status.is_ok());
            comp.borrow_mut().push(99);
        }),
    )
    .expect("qpair has room for the LS request");
    p.k.run_to_completion();
    assert_exactly_once(&p.completions.borrow(), &[0, 1, 2, 99]);
}
