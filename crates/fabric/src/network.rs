//! The network: endpoints wired through an ideal non-blocking switch,
//! optionally extended to switched multi-hop paths via [`LinkProfile`].

use crate::config::FabricConfig;
use crate::endpoint::{Endpoint, EndpointId};
use simkit::{shared, slot, Kernel, Shared, SimDuration, SimTime};
use std::rc::Rc;

/// A time-varying wire-time multiplier: `f(now)` returns the factor by
/// which serialization is inflated at `now` (1.0 = nominal bandwidth).
pub type BandwidthModel = Rc<dyn Fn(SimTime) -> f64>;

/// Path shape of one directed (src, dst) link through a switched
/// topology. The default single-switch star needs no profile at all;
/// cluster topologies install profiles on cross-rack paths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// Switch hops on the path (1 = the plain single-switch star). Each
    /// extra hop store-and-forwards the message: one more serialization
    /// plus one more propagation delay.
    pub hops: u32,
    /// Serialization multiplier for the path's bottleneck link
    /// (> 1.0 slows the path; ≤ 1.0 leaves wire time untouched).
    pub bw_factor: f64,
    /// Flat extra one-way latency (e.g. longer cross-rack cabling).
    pub extra_latency: SimDuration,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            hops: 1,
            bw_factor: 1.0,
            extra_latency: SimDuration::ZERO,
        }
    }
}

/// A star-topology fabric. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct Network {
    config: FabricConfig,
    endpoints: Shared<Vec<Shared<Endpoint>>>,
    bw_model: Shared<Option<BandwidthModel>>,
    /// Path profiles: one row per source endpoint, indexed by the
    /// destination's id. Empty in every single-switch scenario, in which
    /// case `send` never consults it.
    links: Shared<Vec<Vec<Option<LinkProfile>>>>,
}

impl Network {
    /// Create a fabric with the given configuration.
    pub fn new(config: FabricConfig) -> Self {
        Network {
            config,
            endpoints: shared(Vec::new()),
            bw_model: shared(None),
            links: shared(Vec::new()),
        }
    }

    /// Install a bandwidth-degradation model. Serialization time is
    /// multiplied by `f(now)` whenever that factor exceeds 1.0; absent a
    /// model (or at factor 1.0) the wire time is untouched, bit for bit.
    pub fn set_bandwidth_model(&self, f: BandwidthModel) {
        *self.bw_model.borrow_mut() = Some(f);
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Attach a new endpoint (a node) to the fabric.
    pub fn add_endpoint(&self, name: impl Into<String>) -> Shared<Endpoint> {
        let mut eps = self.endpoints.borrow_mut();
        let id = EndpointId(eps.len() as u32);
        let ep = shared(Endpoint::new(id, name.into(), &self.config));
        eps.push(ep.clone());
        ep
    }

    /// Install a path profile on the directed (src, dst) link. Profiles
    /// are consulted by `send` only once at least one is installed, so
    /// single-switch scenarios stay bit-identical.
    pub fn set_link_profile(&self, src: EndpointId, dst: EndpointId, profile: LinkProfile) {
        let mut links = self.links.borrow_mut();
        let row = slot(&mut links, src.0 as usize, Vec::new);
        *slot(row, dst.0 as usize, || None) = Some(profile);
    }

    /// The profile installed on (src, dst), if any.
    pub fn link_profile(&self, src: EndpointId, dst: EndpointId) -> Option<LinkProfile> {
        *self
            .links
            .borrow()
            .get(src.0 as usize)?
            .get(dst.0 as usize)?
    }

    /// Number of attached endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.borrow().len()
    }

    /// True when no endpoints are attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Endpoint by id.
    pub fn endpoint(&self, id: EndpointId) -> Shared<Endpoint> {
        self.endpoints.borrow()[id.0 as usize].clone()
    }

    /// Whether `ep` is an endpoint this network attached.
    fn attached(&self, ep: &Shared<Endpoint>) -> bool {
        let id = ep.borrow().id.0 as usize;
        self.endpoints
            .borrow()
            .get(id)
            .is_some_and(|e| Rc::ptr_eq(e, ep))
    }

    /// Transfer `bytes` of payload from `src` to `dst`, invoking
    /// `on_delivered` when the last frame has been received.
    ///
    /// The path is: src TX-NIC → src uplink → dst downlink (store-and-
    /// forward at the switch) → propagation → dst RX-NIC. Every stage is
    /// a FIFO single server, so concurrent transfers queue exactly as
    /// they would on real ports. Returns the delivery instant.
    ///
    /// `src` must belong to this network: it keeps the wire costs of
    /// the sizes it last sent, computed under this network's config.
    /// Debug builds check it.
    pub fn send(
        &self,
        k: &mut Kernel,
        src: &Shared<Endpoint>,
        dst: &Shared<Endpoint>,
        bytes: usize,
        on_delivered: impl FnOnce(&mut Kernel) + 'static,
    ) -> SimTime {
        debug_assert!(self.attached(src), "sender attached by another network");
        let cfg = &self.config;
        let now = k.now();
        let factor = self.bw_model.borrow().as_ref().map(|f| f(now));
        // Multi-hop path shape: each extra switch hop store-and-forwards
        // (one more serialization + propagation), plus any flat extra
        // latency. The table is empty outside cluster topologies, so the
        // single-switch path never consults it.
        let profile = if self.links.borrow().is_empty() {
            None
        } else {
            self.link_profile(src.borrow().id, dst.borrow().id)
        };

        let (sid, cost, ser, tx_done) = {
            let mut s = src.borrow_mut();
            let cost = s.costs.get(cfg, bytes);
            let mut ser = cost.ser;
            if let Some(factor) = factor.filter(|&f| f > 1.0) {
                ser = SimDuration::from_secs_f64(ser.as_secs_f64() * factor);
            }
            if let Some(p) = profile.filter(|p| p.bw_factor > 1.0) {
                ser = SimDuration::from_secs_f64(ser.as_secs_f64() * p.bw_factor);
            }
            s.stats.msgs_tx += 1;
            s.stats.bytes_tx += bytes as u64;
            s.stats.frames_tx += cost.frames;
            let nic = s.tx_nic.reserve(now, cost.tx);
            (s.id, cost, ser, s.uplink.reserve(nic.finish, ser).finish)
        };

        let rx_done = {
            let mut d = dst.borrow_mut();
            d.stats.msgs_rx += 1;
            d.stats.bytes_rx += bytes as u64;
            d.stats.frames_rx += cost.frames;
            // Incast detection: track the distinct sources feeding this
            // downlink within its current busy period. Bulk data from
            // two or more concurrent sources suffers TCP incast goodput
            // collapse — modelled as inflated effective wire time.
            let bulk = cost.frames as usize >= cfg.incast_min_frames;
            let mut ser_eff = ser;
            if bulk {
                if d.downlink.backlog(now).is_zero() {
                    d.downlink_senders.clear();
                }
                if !d.downlink_senders.contains(&sid) {
                    d.downlink_senders.push(sid);
                }
                if d.downlink_senders.len() >= 2 {
                    ser_eff = SimDuration::from_secs_f64(ser.as_secs_f64() * cfg.incast_factor);
                }
            }
            // Switch forwards the stream as it arrives; the downlink can
            // start no earlier than the uplink finished serializing
            // (store-and-forward of the final frame).
            let wire = d.downlink.reserve(tx_done, ser_eff);
            let (extra_hops, extra_latency) = profile.map_or((0, SimDuration::ZERO), |p| {
                (u64::from(p.hops.saturating_sub(1)), p.extra_latency)
            });
            let arrival = wire.finish
                + cfg.propagation
                + (ser + cfg.propagation) * extra_hops
                + extra_latency;
            d.rx_nic.reserve(arrival, cost.rx).finish
        };

        k.schedule_at(rx_done, on_delivered);
        rx_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Gbps;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup(speed: Gbps) -> (Kernel, Network, Shared<Endpoint>, Shared<Endpoint>) {
        let k = Kernel::new(1);
        let net = Network::new(FabricConfig::preset(speed));
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        (k, net, a, b)
    }

    #[test]
    fn single_message_latency_breakdown() {
        let (mut k, net, a, b) = setup(Gbps::G100);
        let cfg = net.config().clone();
        let delivered = Rc::new(RefCell::new(None));
        let d = delivered.clone();
        let at = net.send(&mut k, &a, &b, 4096, move |k| {
            *d.borrow_mut() = Some(k.now());
        });
        k.run_to_completion();
        assert_eq!(*delivered.borrow(), Some(at));
        // tx nic + 2x serialization + propagation + rx nic
        let expect = SimTime::ZERO
            + cfg.tx_cost(4096)
            + cfg.serialization(4096)
            + cfg.serialization(4096)
            + cfg.propagation
            + cfg.rx_cost(4096);
        assert_eq!(at, expect);
    }

    #[test]
    fn bandwidth_model_inflates_serialization_inside_window() {
        let (mut k, net, a, b) = setup(Gbps::G100);
        let cfg = net.config().clone();
        let nominal = net.send(&mut k, &a, &b, 4096, |_| {});
        // Degrade to half bandwidth from 1ms onward.
        net.set_bandwidth_model(Rc::new(|now: SimTime| {
            if now >= SimTime::from_millis(1) {
                2.0
            } else {
                1.0
            }
        }));
        k.run_to_completion();
        // Outside the window (factor 1.0) the path is bit-identical.
        let before = net.send(&mut k, &a, &b, 4096, |_| {});
        assert_eq!(before.since(k.now()), nominal.since(SimTime::ZERO));
        // Inside the window both serialization stages double.
        let mut k2 = Kernel::new(1);
        k2.schedule_at(SimTime::from_millis(2), |_| {});
        k2.run_to_completion();
        let slowed = net.send(&mut k2, &a, &b, 4096, |_| {});
        let ser = cfg.serialization(4096);
        let expect = k2.now()
            + cfg.tx_cost(4096)
            + simkit::SimDuration::from_secs_f64(ser.as_secs_f64() * 2.0)
            + simkit::SimDuration::from_secs_f64(ser.as_secs_f64() * 2.0)
            + cfg.propagation
            + cfg.rx_cost(4096);
        assert_eq!(slowed, expect);
    }

    #[test]
    fn messages_queue_fifo_on_shared_uplink() {
        let (mut k, net, a, b) = setup(Gbps::G10);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = times.clone();
            net.send(&mut k, &a, &b, 4096, move |k| {
                t.borrow_mut().push(k.now());
            });
        }
        k.run_to_completion();
        let times = times.borrow();
        assert_eq!(times.len(), 3);
        // Deliveries are spaced by at least one serialization time each.
        let ser = net.config().serialization(4096);
        assert!(times[1].since(times[0]) >= ser);
        assert!(times[2].since(times[1]) >= ser);
    }

    #[test]
    fn distinct_endpoint_pairs_do_not_interfere() {
        let k = Kernel::new(1);
        let net = Network::new(FabricConfig::preset(Gbps::G10));
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let c = net.add_endpoint("c");
        let d = net.add_endpoint("d");
        let mut k = k;
        let t_ab = net.send(&mut k, &a, &b, 65536, |_| {});
        let t_cd = net.send(&mut k, &c, &d, 65536, |_| {});
        // Same size, same start, disjoint links: identical delivery time.
        assert_eq!(t_ab, t_cd);
    }

    #[test]
    fn two_senders_share_receiver_downlink() {
        let k = Kernel::new(1);
        let net = Network::new(FabricConfig::preset(Gbps::G10));
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let dst = net.add_endpoint("dst");
        let mut k = k;
        let t1 = net.send(&mut k, &a, &dst, 8192, |_| {});
        let t2 = net.send(&mut k, &b, &dst, 8192, |_| {});
        // Second transfer must queue behind the first on dst's downlink.
        assert!(t2 > t1);
        assert!(t2.since(t1) >= net.config().serialization(8192));
    }

    #[test]
    fn faster_fabric_delivers_sooner() {
        let (mut k10, net10, a10, b10) = setup(Gbps::G10);
        let t10 = net10.send(&mut k10, &a10, &b10, 1 << 20, |_| {});
        let (mut k100, net100, a100, b100) = setup(Gbps::G100);
        let t100 = net100.send(&mut k100, &a100, &b100, 1 << 20, |_| {});
        assert!(t100 < t10);
    }

    #[test]
    fn stats_account_messages_and_frames() {
        let (mut k, net, a, b) = setup(Gbps::G25);
        net.send(&mut k, &a, &b, 4096, |_| {});
        net.send(&mut k, &a, &b, 24, |_| {});
        k.run_to_completion();
        let a = a.borrow();
        let b = b.borrow();
        assert_eq!(a.stats.msgs_tx, 2);
        assert_eq!(a.stats.bytes_tx, 4096 + 24);
        assert_eq!(a.stats.frames_tx, 3 + 1);
        assert_eq!(b.stats.msgs_rx, 2);
        assert_eq!(b.stats.frames_rx, 4);
        assert_eq!(b.stats.msgs_tx, 0);
    }

    #[test]
    fn utilization_reflects_load() {
        let (mut k, net, a, b) = setup(Gbps::G10);
        for _ in 0..100 {
            net.send(&mut k, &a, &b, 4096, |_| {});
        }
        k.run_to_completion();
        let now = k.now();
        let up = a.borrow().uplink_utilization(now);
        assert!(
            up > 0.8,
            "back-to-back sends should keep the link busy: {up}"
        );
        assert_eq!(a.borrow().downlink_utilization(now), 0.0);
    }

    #[test]
    fn incast_inflates_bulk_transfers_from_multiple_senders() {
        // One sender saturating a downlink: no collapse.
        let k = Kernel::new(1);
        let net = Network::new(FabricConfig::preset(Gbps::G10));
        let a = net.add_endpoint("a");
        let dst = net.add_endpoint("dst");
        let mut k = k;
        let mut last = net.send(&mut k, &a, &dst, 4096, |_| {});
        for _ in 0..9 {
            last = net.send(&mut k, &a, &dst, 4096, |_| {});
        }
        let single_sender_span = last.as_nanos();

        // Two senders converging: collapse inflates the same byte volume.
        let k2 = Kernel::new(1);
        let net2 = Network::new(FabricConfig::preset(Gbps::G10));
        let a2 = net2.add_endpoint("a");
        let b2 = net2.add_endpoint("b");
        let dst2 = net2.add_endpoint("dst");
        let mut k2 = k2;
        let mut last2 = net2.send(&mut k2, &a2, &dst2, 4096, |_| {});
        for i in 0..9 {
            let src = if i % 2 == 0 { &b2 } else { &a2 };
            last2 = net2.send(&mut k2, src, &dst2, 4096, |_| {});
        }
        let incast_span = last2.as_nanos();
        let ratio = incast_span as f64 / single_sender_span as f64;
        assert!(
            ratio > 1.8,
            "incast should inflate delivery times: {ratio:.2} ({incast_span} vs {single_sender_span})"
        );
    }

    #[test]
    fn small_messages_do_not_trigger_incast() {
        // Completions (single-frame) from two senders don't collapse.
        let k = Kernel::new(1);
        let net = Network::new(FabricConfig::preset(Gbps::G10));
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let dst = net.add_endpoint("dst");
        let mut k = k;
        let t1 = net.send(&mut k, &a, &dst, 24, |_| {});
        let t2 = net.send(&mut k, &b, &dst, 24, |_| {});
        // Second delivery queues behind the first by the per-frame RX
        // cost (which exceeds the 102-byte wire time) — crucially NOT by
        // an incast-inflated serialization.
        let cfg = net.config();
        assert_eq!(t2.since(t1), cfg.rx_cost(24));
    }

    #[test]
    fn incast_state_resets_when_downlink_drains() {
        let k = Kernel::new(1);
        let net = Network::new(FabricConfig::preset(Gbps::G10));
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let dst = net.add_endpoint("dst");
        let mut k = k;
        // Trigger incast.
        net.send(&mut k, &a, &dst, 4096, |_| {});
        net.send(&mut k, &b, &dst, 4096, |_| {});
        k.run_to_completion();
        // Long idle: the busy period ended. A single sender afterwards
        // pays plain serialization.
        let start = k.now();
        let t = net.send(&mut k, &a, &dst, 4096, |_| {});
        let cfg = net.config();
        let plain = cfg.tx_cost(4096)
            + cfg.serialization(4096)
            + cfg.serialization(4096)
            + cfg.propagation
            + cfg.rx_cost(4096);
        assert_eq!(t.since(start), plain, "no residual incast inflation");
    }

    #[test]
    fn link_profile_adds_store_and_forward_hops() {
        let (mut k, net, a, b) = setup(Gbps::G100);
        let cfg = net.config().clone();
        // Profile-free delivery first: the baseline single-switch path.
        let base = net.send(&mut k, &a, &b, 4096, |_| {});
        let plain = SimTime::ZERO
            + cfg.tx_cost(4096)
            + cfg.serialization(4096)
            + cfg.serialization(4096)
            + cfg.propagation
            + cfg.rx_cost(4096);
        assert_eq!(base, plain);
        // A 3-hop path with flat extra latency: two extra
        // store-and-forward stages (serialization + propagation each).
        let (mut k2, net2, a2, b2) = setup(Gbps::G100);
        net2.set_link_profile(
            a2.borrow().id,
            b2.borrow().id,
            LinkProfile {
                hops: 3,
                bw_factor: 1.0,
                extra_latency: SimDuration::from_micros(2),
            },
        );
        let multi = net2.send(&mut k2, &a2, &b2, 4096, |_| {});
        let expect =
            plain + (cfg.serialization(4096) + cfg.propagation) * 2 + SimDuration::from_micros(2);
        assert_eq!(multi, expect);
        // The reverse direction carries no profile: plain path cost.
        let (mut k3, net3, a3, b3) = setup(Gbps::G100);
        net3.set_link_profile(a3.borrow().id, b3.borrow().id, LinkProfile::default());
        assert_eq!(net3.send(&mut k3, &b3, &a3, 4096, |_| {}), plain);
    }

    #[test]
    fn link_profile_bw_factor_inflates_serialization() {
        let (mut k, net, a, b) = setup(Gbps::G100);
        let cfg = net.config().clone();
        net.set_link_profile(
            a.borrow().id,
            b.borrow().id,
            LinkProfile {
                hops: 1,
                bw_factor: 2.0,
                extra_latency: SimDuration::ZERO,
            },
        );
        let slowed = net.send(&mut k, &a, &b, 4096, |_| {});
        let ser2 = SimDuration::from_secs_f64(cfg.serialization(4096).as_secs_f64() * 2.0);
        let expect =
            SimTime::ZERO + cfg.tx_cost(4096) + ser2 + ser2 + cfg.propagation + cfg.rx_cost(4096);
        assert_eq!(slowed, expect);
    }

    /// Every preset, sizes around the frame edges, and more distinct
    /// sizes than an endpoint's memo holds, revisited in an order that
    /// hits kept and evicted entries: each delivery instant and frame
    /// count is what `FabricConfig`'s per-size functions give directly.
    #[test]
    fn memoised_wire_costs_match_the_config() {
        const SIZES: [usize; 8] = [0, 1, 24, 72, 1448, 1449, 4120, 131_096];
        let revisits = [4120, 24, 4120, 72, 0, 131_096, 24, 1, 1449, 1449];
        let order = SIZES.iter().chain(SIZES.iter().rev()).chain(&revisits);
        for speed in Gbps::ALL {
            let (mut k, net, a, b) = setup(speed);
            let cfg = net.config().clone();
            let mut frames = 0;
            for &bytes in order.clone() {
                // Every stage is idle again: the send pays its bare costs.
                let start = k.now();
                let at = net.send(&mut k, &a, &b, bytes, |_| {});
                k.run_to_completion();
                let expect = start
                    + cfg.tx_cost(bytes)
                    + cfg.serialization(bytes)
                    + cfg.serialization(bytes)
                    + cfg.propagation
                    + cfg.rx_cost(bytes);
                assert_eq!(at, expect, "{speed}, {bytes} B");
                frames += cfg.frames_for(bytes) as u64;
            }
            assert_eq!(a.borrow().stats.frames_tx, frames, "{speed}");
            assert_eq!(b.borrow().stats.frames_rx, frames, "{speed}");
        }
    }

    /// An endpoint of another network carries that network's memoised
    /// costs, so a send from it is refused rather than mispriced.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sender attached by another network")]
    fn send_from_a_foreign_endpoint_is_refused() {
        let (mut k, net, _, b) = setup(Gbps::G100);
        let (_, _other, foreign, _) = setup(Gbps::G10);
        net.send(&mut k, &foreign, &b, 4096, |_| {});
    }

    #[test]
    fn sustained_throughput_matches_line_rate() {
        // Pump 4KiB messages back-to-back for 10ms of virtual time and
        // check goodput against the analytic line rate.
        let (mut k, net, a, b) = setup(Gbps::G10);
        let delivered = Rc::new(RefCell::new(0u64));
        let n = 700u64; // ~2.9ms serialization each at 10G => ~2.4s... keep small
        for _ in 0..n {
            let d = delivered.clone();
            net.send(&mut k, &a, &b, 4096, move |_| {
                *d.borrow_mut() += 1;
            });
        }
        k.run_to_completion();
        assert_eq!(*delivered.borrow(), n);
        let elapsed = k.now().as_secs_f64();
        let goodput_bps = (n * 4096) as f64 * 8.0 / elapsed;
        let wire_eff = 4096.0 / net.config().wire_bytes(4096) as f64;
        let expected = 10e9 * wire_eff;
        let err = (goodput_bps - expected).abs() / expected;
        assert!(err < 0.05, "goodput {goodput_bps:.3e} vs {expected:.3e}");
    }
}
