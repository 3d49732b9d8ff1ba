//! The NVMe-oF fabrics control plane, as far as a keep-alive loop
//! drives it: Connect, Identify and Keep-Alive between an
//! [`AdminClient`] on a host node and an [`AdminService`] on a target
//! node, with controller expiry after the keep-alive timeout (KATO) and
//! a transparent reconnect once the client finds its controller gone.
//!
//! Commands carry only what sets simulated cost. Capsule sizes follow
//! the spec shapes (Connect carries 1024 B of connect data, Identify
//! returns the 4096 B controller structure, the rest are bare capsules),
//! the client pays its submit cost per command and the service a 3 µs
//! reactor slot.

use std::collections::BTreeMap;
use std::rc::Rc;

use fabric::{Endpoint, Network};
use simkit::{Kernel, Resource, Shared, SimDuration, SimTime};

use crate::pdu::{CAPSULE_CMD_LEN, CAPSULE_RESP_LEN};

/// Reactor time the service spends on one command (parse + state machine).
const ADMIN_COST: SimDuration = SimDuration::from_micros(3);

/// A fabrics/admin command, as carried in a command capsule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AdminCmd {
    /// Connect queue `qid`; queue 0 (the admin queue) allocates a
    /// controller, any other needs one.
    Connect { qid: u16 },
    /// Identify Controller.
    Identify,
    /// Keep-alive heartbeat.
    KeepAlive,
}

impl AdminCmd {
    fn wire_len(self) -> usize {
        match self {
            AdminCmd::Connect { .. } => CAPSULE_CMD_LEN + 1024,
            _ => CAPSULE_CMD_LEN,
        }
    }
}

/// An admin command's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AdminResp {
    /// The queue is up on controller `cntlid`.
    Connected { cntlid: u16 },
    /// Identify data.
    Identify,
    /// Keep-alive acknowledged.
    KeepAliveOk,
    /// The caller has no live controller (never connected, or expired),
    /// or it asked for an I/O queue its controller already has.
    Refused,
}

impl AdminResp {
    fn wire_len(self) -> usize {
        match self {
            AdminResp::Identify => CAPSULE_RESP_LEN + 4096,
            _ => CAPSULE_RESP_LEN,
        }
    }
}

/// One controller on the target.
struct Controller {
    last_keepalive: SimTime,
    io_queue: bool,
}

/// The target-side admin service: the controller table plus its reactor
/// share on the target node.
pub struct AdminService {
    /// Ascending-id order, so expiry is deterministic.
    controllers: BTreeMap<u16, Controller>,
    next_cntlid: u16,
    /// Keep-alive timeout; controllers expire past it.
    kato: SimDuration,
    reactor: Resource,
    net: Network,
    ep: Shared<Endpoint>,
}

impl AdminService {
    /// Serve on target endpoint `ep`; a controller expires once `kato`
    /// passes without a keep-alive.
    pub fn new(kato: SimDuration, net: Network, ep: Shared<Endpoint>) -> Self {
        AdminService {
            controllers: BTreeMap::new(),
            next_cntlid: 1,
            kato,
            reactor: Resource::new("admin_reactor"),
            net,
            ep,
        }
    }

    /// Expire every controller whose keep-alive lapsed, like a timer
    /// sweep on the reactor, then answer `cmd` from `cntlid` (None
    /// before Connect).
    fn handle(&mut self, now: SimTime, cntlid: Option<u16>, cmd: AdminCmd) -> AdminResp {
        let kato = self.kato;
        self.controllers
            .retain(|_, c| now.since(c.last_keepalive) <= kato);
        if cmd == (AdminCmd::Connect { qid: 0 }) {
            let id = self.next_cntlid;
            self.next_cntlid = id.wrapping_add(1);
            let c = Controller {
                last_keepalive: now,
                io_queue: false,
            };
            self.controllers.insert(id, c);
            return AdminResp::Connected { cntlid: id };
        }
        let live = cntlid.and_then(|id| self.controllers.get_mut(&id).map(|c| (id, c)));
        let Some((id, c)) = live else {
            return AdminResp::Refused;
        };
        match cmd {
            AdminCmd::Connect { .. } if c.io_queue => AdminResp::Refused,
            AdminCmd::Connect { .. } => {
                c.io_queue = true;
                c.last_keepalive = now;
                AdminResp::Connected { cntlid: id }
            }
            AdminCmd::Identify => AdminResp::Identify,
            AdminCmd::KeepAlive => {
                c.last_keepalive = now;
                AdminResp::KeepAliveOk
            }
        }
    }

    /// Handle an arriving admin capsule and send the response back.
    fn on_cmd(
        this: &Shared<AdminService>,
        k: &mut Kernel,
        from: Shared<Endpoint>,
        cntlid: Option<u16>,
        cmd: AdminCmd,
        deliver: impl FnOnce(&mut Kernel, AdminResp) + 'static,
    ) {
        let now = k.now();
        let finish = this.borrow_mut().reactor.reserve(now, ADMIN_COST).finish;
        let this = this.clone();
        k.schedule_at(finish, move |k| {
            let resp = this.borrow_mut().handle(k.now(), cntlid, cmd);
            let s = this.borrow();
            s.net
                .send(k, &s.ep, &from, resp.wire_len(), move |k| deliver(k, resp));
        });
    }
}

/// Keep-alive loop counters (read directly by runners — the admin plane
/// is control traffic, not a data-path metrics source).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeepAliveStats {
    /// Keep-alive heartbeats sent.
    pub heartbeats: u64,
    /// Ticks skipped because the link was down.
    pub heartbeat_misses: u64,
    /// Reconnects performed after the controller expired.
    pub reconnects: u64,
}

/// Host-side admin client of one [`AdminService`].
pub struct AdminClient {
    /// Controller ID once the admin queue is connected.
    cntlid: Option<u16>,
    ep: Shared<Endpoint>,
    service: Shared<AdminService>,
    cpu: Resource,
    /// Host CPU time to build and post one command.
    submit: SimDuration,
    /// Keep-alive loop counters.
    pub ka_stats: KeepAliveStats,
}

impl AdminClient {
    /// A client on host endpoint `ep` that spends `submit` of host CPU
    /// per command.
    pub fn new(ep: Shared<Endpoint>, service: Shared<AdminService>, submit: SimDuration) -> Self {
        AdminClient {
            cntlid: None,
            ep,
            service,
            cpu: Resource::new("admin_client_cpu"),
            submit,
            ka_stats: KeepAliveStats::default(),
        }
    }

    /// Send one admin command; `cb` receives the response.
    fn send(
        this: &Shared<AdminClient>,
        k: &mut Kernel,
        cmd: AdminCmd,
        cb: impl FnOnce(&mut Kernel, AdminResp) + 'static,
    ) {
        let finish = {
            let mut c = this.borrow_mut();
            let cost = c.submit;
            c.cpu.reserve(k.now(), cost).finish
        };
        let this = this.clone();
        k.schedule_at(finish, move |k| {
            let (ep, cntlid, service) = {
                let c = this.borrow();
                (c.ep.clone(), c.cntlid, c.service.clone())
            };
            let (net, sep) = {
                let s = service.borrow();
                (s.net.clone(), s.ep.clone())
            };
            let from = ep.clone();
            net.send(k, &ep, &sep, cmd.wire_len(), move |k| {
                AdminService::on_cmd(&service, k, from, cntlid, cmd, move |k, resp| {
                    if let AdminResp::Connected { cntlid } = resp {
                        this.borrow_mut().cntlid = Some(cntlid);
                    }
                    cb(k, resp);
                });
            });
        });
    }

    /// Connect the admin queue, then I/O queue 1 on the controller it
    /// allocated, then run `then`. A refused or lost step ends the
    /// chain.
    fn connect(
        this: &Shared<AdminClient>,
        k: &mut Kernel,
        then: impl FnOnce(&mut Kernel) + 'static,
    ) {
        let this2 = this.clone();
        Self::send(this, k, AdminCmd::Connect { qid: 0 }, move |k, resp| {
            if let AdminResp::Connected { .. } = resp {
                Self::send(&this2, k, AdminCmd::Connect { qid: 1 }, move |k, resp| {
                    if let AdminResp::Connected { .. } = resp {
                        then(k);
                    }
                });
            }
        });
    }

    /// Bring the host up: connect the admin and I/O queues, then
    /// identify the controller.
    pub fn bring_up(this: &Shared<AdminClient>, k: &mut Kernel) {
        let this2 = this.clone();
        Self::connect(this, k, move |k| {
            Self::send(&this2, k, AdminCmd::Identify, |_, _| {});
        });
    }

    /// Heartbeat every `every`. A tick is skipped (and counted) while
    /// `link_up` reports the path down, and a heartbeat the service
    /// refuses (the controller expired during an outage) triggers a
    /// reconnect of the admin and I/O queues.
    pub fn start_keepalive_with_reconnect(
        this: &Shared<AdminClient>,
        k: &mut Kernel,
        every: SimDuration,
        link_up: Rc<dyn Fn(SimTime) -> bool>,
    ) {
        let this = this.clone();
        k.schedule_in(every, move |k| {
            if link_up(k.now()) {
                this.borrow_mut().ka_stats.heartbeats += 1;
                let this2 = this.clone();
                Self::send(&this, k, AdminCmd::KeepAlive, move |k, resp| {
                    if resp == AdminResp::Refused {
                        // The controller expired: connect from scratch. A
                        // reconnect racing another outage is retried by
                        // the next refused heartbeat.
                        let mut c = this2.borrow_mut();
                        c.ka_stats.reconnects += 1;
                        c.cntlid = None;
                        drop(c);
                        Self::connect(&this2, k, |_| {});
                    }
                });
            } else {
                // Heartbeating into a dead link only inflates the loss
                // counters; note the miss and wait for the link.
                this.borrow_mut().ka_stats.heartbeat_misses += 1;
            }
            Self::start_keepalive_with_reconnect(&this, k, every, link_up);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{FabricConfig, Gbps};
    use simkit::shared;

    fn service(kato: SimDuration) -> AdminService {
        let net = Network::new(FabricConfig::preset(Gbps::G25));
        let ep = net.add_endpoint("tgt");
        AdminService::new(kato, net, ep)
    }

    fn connect(s: &mut AdminService, now: SimTime) -> u16 {
        match s.handle(now, None, AdminCmd::Connect { qid: 0 }) {
            AdminResp::Connected { cntlid } => cntlid,
            other => panic!("connect failed: {other:?}"),
        }
    }

    #[test]
    fn keepalive_expiry() {
        let mut s = service(SimDuration::from_secs(2));
        let a = connect(&mut s, SimTime::ZERO);
        let b = connect(&mut s, SimTime::ZERO);
        assert_ne!(a, b);
        // a heartbeats at t=1.5s; b never does.
        let t = SimTime::from_millis(1500);
        assert_eq!(
            s.handle(t, Some(a), AdminCmd::KeepAlive),
            AdminResp::KeepAliveOk
        );
        // Past b's KATO its commands are refused and its controller gone.
        assert_eq!(
            s.handle(SimTime::from_millis(2600), Some(b), AdminCmd::KeepAlive),
            AdminResp::Refused
        );
        assert_eq!(s.controllers.keys().copied().collect::<Vec<_>>(), [a]);
        // a survives as long as it heartbeats.
        assert_eq!(
            s.handle(SimTime::from_millis(2700), Some(a), AdminCmd::KeepAlive),
            AdminResp::KeepAliveOk
        );
    }

    #[test]
    fn io_queue_requires_admin_queue() {
        let mut s = service(SimDuration::from_secs(2));
        let io = AdminCmd::Connect { qid: 1 };
        assert_eq!(s.handle(SimTime::ZERO, None, io), AdminResp::Refused);
        assert_eq!(
            s.handle(SimTime::ZERO, None, AdminCmd::Identify),
            AdminResp::Refused
        );
        let id = connect(&mut s, SimTime::ZERO);
        assert_eq!(
            s.handle(SimTime::ZERO, Some(id), io),
            AdminResp::Connected { cntlid: id }
        );
        // A second I/O queue Connect on the same controller is refused.
        assert_eq!(s.handle(SimTime::ZERO, Some(id), io), AdminResp::Refused);
        assert_eq!(
            s.handle(SimTime::ZERO, Some(id), AdminCmd::Identify),
            AdminResp::Identify
        );
    }

    fn rig() -> (Kernel, Shared<AdminService>, Shared<AdminClient>) {
        let k = Kernel::new(5);
        let net = Network::new(FabricConfig::preset(Gbps::G25));
        let tep = net.add_endpoint("tgt");
        let ep = net.add_endpoint("host");
        let service = shared(AdminService::new(SimDuration::from_millis(10), net, tep));
        let client = shared(AdminClient::new(
            ep,
            service.clone(),
            SimDuration::from_nanos(700),
        ));
        (k, service, client)
    }

    #[test]
    fn full_bring_up_over_fabric() {
        let (mut k, service, a) = rig();
        AdminClient::bring_up(&a, &mut k);
        k.run_to_completion();
        let id = a
            .borrow()
            .cntlid
            .expect("bring-up connects the admin queue");
        let s = service.borrow();
        assert_eq!(s.controllers.len(), 1);
        assert!(s.controllers[&id].io_queue, "and then the I/O queue");
        // Connect, Connect, Identify: three round trips of wire time.
        assert!(k.now() > SimTime::from_micros(30), "{}", k.now());
    }

    #[test]
    fn keepalive_reconnects_after_outage() {
        let (mut k, service, a) = rig();
        AdminClient::bring_up(&a, &mut k);
        k.run_to_completion();
        let first_cntlid = a.borrow().cntlid;
        // Link dark from 5ms to 18ms — longer than the 10ms KATO, so the
        // controller expires while the client cannot heartbeat.
        let link_up: Rc<dyn Fn(SimTime) -> bool> = Rc::new(|now: SimTime| {
            !(SimTime::from_millis(5)..SimTime::from_millis(18)).contains(&now)
        });
        AdminClient::start_keepalive_with_reconnect(
            &a,
            &mut k,
            SimDuration::from_millis(4),
            link_up,
        );
        k.set_horizon(SimTime::from_millis(40));
        k.run_to_completion();
        let c = a.borrow();
        assert!(c.ka_stats.heartbeat_misses >= 2, "{:?}", c.ka_stats);
        assert_eq!(c.ka_stats.reconnects, 1, "{:?}", c.ka_stats);
        assert!(c.cntlid.is_some(), "reconnect must re-establish qid 0");
        assert_ne!(c.cntlid, first_cntlid, "a fresh controller is allocated");
        assert_eq!(service.borrow().controllers.len(), 1);
    }
}
