//! # faults — deterministic fault injection for the oPF fabric
//!
//! The simulated fabric in `crates/fabric` is lossless: every PDU that is
//! sent arrives, once, in order. Real NVMe-oF deployments are not so lucky —
//! links drop and reorder frames, switches flap, tenants crash mid-exchange.
//! This crate interposes a **fault plane** between the network delivery
//! closures and the protocol engines: per-link drop / extra-delay /
//! duplicate / reorder / corrupt probabilities, scheduled link flaps,
//! bandwidth-degradation windows, target stalls, and tenant-crash windows.
//!
//! Everything is driven by a [`simkit::Pcg32`] stream forked from the run
//! seed and by virtual time, so a faulty run is exactly as reproducible as a
//! clean one: same seed, same profile → bit-identical event sequence.
//!
//! The plane is purely an *injector*; the recovery machinery it exercises
//! (command retry with exponential backoff, duplicate-completion
//! suppression, re-drain on drain loss, keep-alive reconnect) lives in
//! `nvmf` and `core` and is switched on through [`FaultProfile::retry`] /
//! [`FaultProfile::redrain_timeout`] / [`FaultProfile::keepalive`]. With no
//! profile installed, none of those paths allocate, draw randomness, or
//! schedule events — fault-free runs stay bit-identical to builds without
//! this crate wired in at all.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use bytes::Bytes;
use nvmf::{Pdu, PduRx, Priority, RetryPolicy, TargetRx};
use simkit::{Kernel, Metrics, MetricsSource, Pcg32, Shared, SimDuration, SimTime};
use std::rc::Rc;

/// Lag applied to the duplicate copy of a duplicated PDU, so the original
/// and its ghost never race at the exact same instant.
const DUP_LAG: SimDuration = SimDuration::from_micros(3);

/// Lag applied to a replayed capsule, so the replay never races the
/// capsule it was cloned from.
const REPLAY_LAG: SimDuration = SimDuration::from_micros(7);

/// How many recently sent capsules the adversary keeps for replay.
const ADV_STASH_CAP: usize = 16;

/// A scheduled link outage: every PDU on `link` in `[at, at + dur)` is
/// dropped, in both directions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFlap {
    /// Global initiator slot index whose link flaps.
    pub link: usize,
    /// Outage start (virtual time).
    pub at: SimTime,
    /// Outage length.
    pub dur: SimDuration,
}

/// A bandwidth-degradation window: serialization cost is scaled by
/// `factor` (> 1.0 slows the fabric) while `now ∈ [at, at + dur)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Degrade {
    /// Window start.
    pub at: SimTime,
    /// Window length.
    pub dur: SimDuration,
    /// Serialization-time multiplier (1.0 = nominal, 2.0 = half speed).
    pub factor: f64,
}

/// A target stall window: PDUs heading *toward* the target during the
/// window are held and delivered at its end (the target stops polling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stall {
    /// Window start.
    pub at: SimTime,
    /// Window length.
    pub dur: SimDuration,
}

/// A tenant-crash window: all traffic to and from `tenant`'s link is
/// dropped while `now ∈ [at, at + dur)` (the process is gone; recovery is
/// the surviving peer's problem).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Crash {
    /// Global initiator slot index of the crashed tenant.
    pub tenant: usize,
    /// Crash start.
    pub at: SimTime,
    /// Time until the tenant restarts.
    pub dur: SimDuration,
}

/// Expand a churn storm — a mass disconnect/reconnect of `tenants`
/// consecutive links starting at `first_link` — into per-tenant
/// [`Crash`] windows staggered `stagger` apart (a thundering herd, not
/// a lockstep blackout). Each crashed tenant reconnects through the
/// same epoch-guarded re-issue path as a lone crash; the storm is the
/// scale, not a new mechanism.
pub fn churn_storm(
    first_link: usize,
    tenants: usize,
    at: SimTime,
    dur: SimDuration,
    stagger: SimDuration,
) -> Vec<Crash> {
    (0..tenants)
        .map(|i| Crash {
            tenant: first_link + i,
            // Saturating: a storm at the end of time must not wrap to
            // its start.
            at: at + SimDuration::from_nanos(stagger.as_nanos().saturating_mul(i as u64)),
            dur,
        })
        .collect()
}

/// A protocol-level adversary riding one tenant's link (DESIGN.md §14).
///
/// Unlike the stochastic fault knobs — which model a *hostile fabric* —
/// the adversary models a *hostile tenant*: it interposes on the chosen
/// link's initiator→target capsule stream and mangles the reserved-bit
/// protocol fields the oPF design rides on. It can only touch what a
/// real malicious host could: the bytes it transmits. The connection's
/// `from` identity is established at connect time and is not forgeable
/// here, which is exactly why the wire initiator byte must never be
/// trusted over it.
///
/// All draws come from a dedicated `Pcg32` stream forked from the plane's
/// (only when an adversary is configured, so adversary-free runs keep
/// their fault draw sequences bit-identical), making every attack
/// bit-reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adversary {
    /// Global initiator slot index whose outbound stream is mangled.
    pub link: usize,
    /// Per-capsule probability of rewriting a TC priority to LS — the
    /// queue-jumping attack.
    pub forge_ls_p: f64,
    /// Per-capsule probability of forging the contradictory LS|TC flag
    /// combination. `Pdu` cannot represent it (decode rejects LS|TC), so
    /// the capsule dies at the simulated CRC/parse layer: the attempt is
    /// counted and the capsule dropped.
    pub invalid_flags_p: f64,
    /// Per-capsule probability of setting the draining flag on TC
    /// traffic — the drain-flood attack on completion coalescing.
    pub drain_flood_p: f64,
    /// Per-capsule probability of re-injecting a previously sent capsule
    /// (same CID, possibly across a recovery epoch), delivered
    /// `REPLAY_LAG` (7 µs) later.
    pub replay_p: f64,
    /// Per-capsule probability of rewriting the SQE initiator byte to
    /// `spoof_victim` — the identity-spoofing attack.
    pub spoof_p: f64,
    /// Tenant ID planted by the spoofing attack.
    pub spoof_victim: u8,
    /// Whether the targets keep their §14 defenses on. The runner reads
    /// this to configure identity enforcement and the drain rate limit;
    /// `false` reproduces the unhardened wire-trusting baseline for the
    /// adversary experiment's violation column.
    pub harden: bool,
}

impl Default for Adversary {
    fn default() -> Self {
        Adversary {
            link: 0,
            forge_ls_p: 0.0,
            invalid_flags_p: 0.0,
            drain_flood_p: 0.0,
            replay_p: 0.0,
            spoof_p: 0.0,
            spoof_victim: 0,
            harden: true,
        }
    }
}

/// Attack counters, one per attack kind, surfaced through the plane's
/// [`MetricsSource`] (only when an adversary is configured).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// TC capsules whose priority was rewritten to LS.
    pub forged_ls: u64,
    /// Capsules destroyed by forging the invalid LS|TC combination.
    pub forged_invalid: u64,
    /// TC capsules given a forged draining flag.
    pub drain_floods: u64,
    /// Previously sent capsules re-injected.
    pub replays: u64,
    /// Capsules whose SQE initiator byte was rewritten.
    pub spoofs: u64,
}

/// Live adversary state: its config, its private RNG stream and the
/// stash of recently sent capsules it replays from.
struct AdvState {
    cfg: Adversary,
    rng: Pcg32,
    stash: Vec<Pdu>,
    stats: AdversaryStats,
}

/// Keep-alive/reconnect configuration for the admin plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeepAliveSpec {
    /// Heartbeat period.
    pub every: SimDuration,
    /// Server-side keep-alive timeout (KATO).
    pub kato: SimDuration,
}

/// A complete fault profile for one run.
///
/// Probabilities are per-PDU and independent; all fields default to "no
/// faults" except the recovery knobs, which default *on* (retry + re-drain)
/// so that any nonzero fault probability is survivable out of the box.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultProfile {
    /// Per-PDU probability of silent loss.
    pub drop_p: f64,
    /// Per-PDU probability of an extra ghost copy (delivered `DUP_LAG`
    /// later).
    pub dup_p: f64,
    /// Per-PDU probability of an extra uniform delay in
    /// `[0, delay_max)`.
    pub delay_p: f64,
    /// Upper bound of the injected extra delay.
    pub delay_max: SimDuration,
    /// Per-PDU probability of a single-bit flip on the encoded capsule.
    /// Flips that no longer parse are dropped (the CRC caught them).
    pub corrupt_p: f64,
    /// Per-PDU probability of being held for `reorder_hold`, letting
    /// later PDUs overtake it.
    pub reorder_p: f64,
    /// Hold time for reordered PDUs.
    pub reorder_hold: SimDuration,
    /// Scheduled link outages.
    pub flaps: Vec<LinkFlap>,
    /// Scheduled bandwidth-degradation windows.
    pub degrades: Vec<Degrade>,
    /// Scheduled target stalls.
    pub stalls: Vec<Stall>,
    /// Scheduled tenant crashes.
    pub crashes: Vec<Crash>,
    /// Command retry policy installed on every initiator (`None`
    /// disables retransmission).
    pub retry: Option<RetryPolicy>,
    /// Re-drain timeout for lost drain flags in the oPF initiator
    /// (`None` disables re-drain).
    pub redrain_timeout: Option<SimDuration>,
    /// Admin keep-alive + reconnect loop (`None` disables it).
    pub keepalive: Option<KeepAliveSpec>,
    /// Protocol-level adversary riding one tenant's link (`None`
    /// disables it; the default). Configuring one never perturbs the
    /// fault draw stream (see [`FaultPlane::new`]), so fault sequences
    /// stay bit-identical to pre-adversary builds either way.
    pub adversary: Option<Adversary>,
    /// Extra simulated seconds past the measurement window during which
    /// retry/re-drain timers may still fire, so in-flight recovery can
    /// complete instead of being cut off by the horizon.
    pub settle_s: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_max: SimDuration::from_micros(20),
            corrupt_p: 0.0,
            reorder_p: 0.0,
            reorder_hold: SimDuration::from_micros(5),
            flaps: Vec::new(),
            degrades: Vec::new(),
            stalls: Vec::new(),
            crashes: Vec::new(),
            retry: Some(RetryPolicy {
                timeout: SimDuration::from_micros(300),
                max_retries: 6,
            }),
            redrain_timeout: Some(SimDuration::from_micros(500)),
            keepalive: None,
            adversary: None,
            settle_s: 0.05,
        }
    }
}

/// Injection counters, surfaced through [`MetricsSource`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// PDUs silently dropped by `drop_p`.
    pub drops: u64,
    /// PDUs duplicated.
    pub dups: u64,
    /// PDUs given extra delay.
    pub delays: u64,
    /// PDUs held for reordering.
    pub reorders: u64,
    /// Bit-flips that still parsed (delivered corrupted).
    pub corrupts: u64,
    /// Bit-flips that broke framing (dropped, as a CRC failure would be).
    pub corrupt_drops: u64,
    /// PDUs dropped inside a link-flap window.
    pub flap_drops: u64,
    /// PDUs deferred by a target stall window.
    pub stall_defers: u64,
    /// PDUs dropped inside a tenant-crash window.
    pub crash_drops: u64,
}

/// The fault plane: one per run, shared by every wrapped delivery closure.
pub struct FaultPlane {
    profile: FaultProfile,
    rng: Pcg32,
    /// Injection counters.
    pub stats: FaultStats,
    /// Live adversary, if the profile configured one.
    adversary: Option<AdvState>,
    /// Emptied buffers for [`dispatch`] to fill, so routing a PDU does
    /// not allocate once one exists per level of nested delivery.
    spare: Vec<Deliveries>,
}

/// One routing decision: deliver after `Option<SimDuration>` (inline when
/// `None`). A dropped PDU produces no entries; a duplicated one produces
/// two.
type Deliveries = Vec<(Option<SimDuration>, Pdu)>;

impl FaultPlane {
    /// Build a plane from a profile and a forked RNG stream. When the
    /// profile carries an adversary, its private stream is derived from
    /// a *clone* of the parent RNG, never the parent itself: the fault
    /// draw sequence is bit-identical with and without an adversary
    /// configured, so attack on/off comparisons share their fault
    /// realizations and adversary-free goldens cannot shift.
    pub fn new(profile: FaultProfile, rng: Pcg32) -> Self {
        let adversary = profile.adversary.map(|cfg| AdvState {
            cfg,
            rng: rng.clone().fork(0xADF0),
            stash: Vec::new(),
            stats: AdversaryStats::default(),
        });
        FaultPlane {
            profile,
            rng,
            stats: FaultStats::default(),
            adversary,
            spare: Vec::new(),
        }
    }

    /// The installed profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Attack counters, if an adversary is configured.
    pub fn adversary_stats(&self) -> Option<AdversaryStats> {
        self.adversary.as_ref().map(|a| a.stats)
    }

    /// Is `link` up at `now` (outside every flap window)?
    pub fn link_up(&self, link: usize, now: SimTime) -> bool {
        !self
            .profile
            .flaps
            .iter()
            .any(|f| f.link == link && f.at <= now && now < f.at + f.dur)
    }

    /// Can the plane alter a PDU on `link`: a non-zero probability, a
    /// stall window, a flap or crash naming the link, or the adversary
    /// riding it? If not, `decide` draws nothing and delivers inline.
    fn touches(&self, link: usize) -> bool {
        let p = &self.profile;
        [p.drop_p, p.dup_p, p.delay_p, p.corrupt_p, p.reorder_p]
            .iter()
            .any(|&x| x > 0.0)
            || !p.stalls.is_empty()
            || p.flaps.iter().any(|f| f.link == link)
            || p.crashes.iter().any(|c| c.tenant == link)
            || p.adversary.is_some_and(|a| a.link == link)
    }

    /// Is the tenant on `link` inside a crash window at `now`?
    fn crashed(&self, link: usize, now: SimTime) -> bool {
        self.profile
            .crashes
            .iter()
            .any(|c| c.tenant == link && c.at <= now && now < c.at + c.dur)
    }

    /// If `at` falls inside a stall window, the window's end.
    fn stalled_until(&self, at: SimTime) -> Option<SimTime> {
        self.profile
            .stalls
            .iter()
            .find(|s| s.at <= at && at < s.at + s.dur)
            .map(|s| s.at + s.dur)
    }

    /// Run one capsule through the adversary, if one rides this link.
    /// Returns the (possibly mangled) PDU to keep routing, or `None` when
    /// the attack destroyed it; replayed copies are pushed into `out`
    /// directly. The attack draw order is fixed (replay, invalid flags,
    /// forge LS, drain flood, spoof) so identical seeds replay
    /// identically.
    fn adversary_intercept(
        &mut self,
        link: usize,
        toward_target: bool,
        pdu: Pdu,
        out: &mut Deliveries,
    ) -> Option<Pdu> {
        let Some(adv) = self.adversary.as_mut() else {
            return Some(pdu);
        };
        // The adversary is a tenant: it mangles only its own outbound
        // capsule stream, before the fabric's stochastic faults apply.
        if !toward_target || link != adv.cfg.link {
            return Some(pdu);
        }
        let Pdu::CapsuleCmd {
            sqe,
            mut priority,
            mut initiator,
        } = pdu
        else {
            return Some(pdu);
        };
        if adv.cfg.replay_p > 0.0 && !adv.stash.is_empty() && adv.rng.gen_bool(adv.cfg.replay_p) {
            adv.stats.replays += 1;
            let idx = adv.rng.gen_range(0, adv.stash.len() as u64) as usize;
            out.push((Some(REPLAY_LAG), adv.stash[idx].clone()));
        }
        if adv.cfg.invalid_flags_p > 0.0 && adv.rng.gen_bool(adv.cfg.invalid_flags_p) {
            // LS|TC cannot exist in a parsed `Pdu`: the forged capsule
            // dies at the decode/CRC layer before any target sees it.
            adv.stats.forged_invalid += 1;
            return None;
        }
        if adv.cfg.forge_ls_p > 0.0 && priority.is_tc() && adv.rng.gen_bool(adv.cfg.forge_ls_p) {
            adv.stats.forged_ls += 1;
            priority = Priority::LatencySensitive;
        }
        if adv.cfg.drain_flood_p > 0.0
            && priority.is_tc()
            && adv.rng.gen_bool(adv.cfg.drain_flood_p)
        {
            adv.stats.drain_floods += 1;
            priority = Priority::ThroughputCritical { draining: true };
        }
        if adv.cfg.spoof_p > 0.0 && adv.rng.gen_bool(adv.cfg.spoof_p) {
            adv.stats.spoofs += 1;
            initiator = adv.cfg.spoof_victim;
        }
        let mangled = Pdu::CapsuleCmd {
            sqe,
            priority,
            initiator,
        };
        // Stash what actually went on the wire for later replay.
        if adv.stash.len() < ADV_STASH_CAP {
            adv.stash.push(mangled.clone());
        } else {
            let slot = adv.rng.gen_range(0, ADV_STASH_CAP as u64) as usize;
            adv.stash[slot] = mangled.clone();
        }
        Some(mangled)
    }

    /// Decide the fate of one PDU, pushing its surviving copies into
    /// `out`. The draw order is fixed (adversary, crash, flap, drop,
    /// corrupt, dup, delay/reorder) so identical seeds replay identically.
    fn decide(
        &mut self,
        now: SimTime,
        link: usize,
        toward_target: bool,
        pdu: Pdu,
        out: &mut Deliveries,
    ) {
        let Some(pdu) = self.adversary_intercept(link, toward_target, pdu, out) else {
            return;
        };
        if self.crashed(link, now) {
            self.stats.crash_drops += 1;
            return;
        }
        if !self.link_up(link, now) {
            self.stats.flap_drops += 1;
            return;
        }
        if self.profile.drop_p > 0.0 && self.rng.gen_bool(self.profile.drop_p) {
            self.stats.drops += 1;
            return;
        }
        let mut pdu = pdu;
        if self.profile.corrupt_p > 0.0 && self.rng.gen_bool(self.profile.corrupt_p) {
            match corrupt_one_bit(&mut self.rng, &pdu) {
                Some(mangled) => {
                    self.stats.corrupts += 1;
                    pdu = mangled;
                }
                None => {
                    self.stats.corrupt_drops += 1;
                    return;
                }
            }
        }
        if self.profile.dup_p > 0.0 && self.rng.gen_bool(self.profile.dup_p) {
            self.stats.dups += 1;
            out.push((Some(DUP_LAG), pdu.clone()));
        }
        let mut hold = SimDuration::ZERO;
        if self.profile.delay_p > 0.0 && self.rng.gen_bool(self.profile.delay_p) {
            self.stats.delays += 1;
            hold = SimDuration::from_secs_f64(
                self.rng.gen_f64() * self.profile.delay_max.as_secs_f64(),
            );
        } else if self.profile.reorder_p > 0.0 && self.rng.gen_bool(self.profile.reorder_p) {
            self.stats.reorders += 1;
            hold = self.profile.reorder_hold;
        }
        // A stalled target stops polling: anything arriving toward it
        // during the window is picked up when the window ends.
        if toward_target {
            if let Some(end) = self.stalled_until(now + hold) {
                self.stats.stall_defers += 1;
                hold = end.since(now);
            }
        }
        if hold == SimDuration::ZERO {
            out.push((None, pdu));
        } else {
            out.push((Some(hold), pdu));
        }
    }
}

impl MetricsSource for FaultPlane {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        let s = &self.stats;
        m.set("drops", s.drops as f64);
        m.set("dups", s.dups as f64);
        m.set("delays", s.delays as f64);
        m.set("reorders", s.reorders as f64);
        m.set("corrupts", s.corrupts as f64);
        m.set("corrupt_drops", s.corrupt_drops as f64);
        m.set("flap_drops", s.flap_drops as f64);
        m.set("stall_defers", s.stall_defers as f64);
        m.set("crash_drops", s.crash_drops as f64);
        // Attack counters exist only when an adversary is configured, so
        // adversary-free snapshots stay byte-identical.
        if let Some(adv) = &self.adversary {
            let a = &adv.stats;
            m.set("adv_forged_ls", a.forged_ls as f64);
            m.set("adv_forged_invalid", a.forged_invalid as f64);
            m.set("adv_drain_floods", a.drain_floods as f64);
            m.set("adv_replays", a.replays as f64);
            m.set("adv_spoofs", a.spoofs as f64);
        }
        m
    }
}

/// Flip one random bit of the encoded PDU and re-parse. `None` means the
/// flip broke framing (the simulated CRC catches it → treated as a drop).
fn corrupt_one_bit(rng: &mut Pcg32, pdu: &Pdu) -> Option<Pdu> {
    let wire: Bytes = pdu.encode();
    #[expect(
        clippy::disallowed_methods,
        reason = "copy-on-write: the flip must not reach any view of the shared payload"
    )]
    let mut buf = wire.to_vec();
    if buf.is_empty() {
        return None;
    }
    let bit = rng.gen_range(0, buf.len() as u64 * 8) as usize;
    buf[bit / 8] ^= 1 << (bit % 8);
    Pdu::decode(&buf)
}

/// Run one PDU through the plane and hand the surviving copies to
/// `deliver` (inline, or via scheduled events for delayed copies).
fn dispatch<D>(
    plane: &Shared<FaultPlane>,
    k: &mut Kernel,
    link: usize,
    toward_target: bool,
    pdu: Pdu,
    deliver: D,
) where
    D: Fn(&mut Kernel, Pdu) + Clone + 'static,
{
    let mut out = {
        let mut p = plane.borrow_mut();
        let mut out = p.spare.pop().unwrap_or_default();
        p.decide(k.now(), link, toward_target, pdu, &mut out);
        out
    };
    // An inline delivery may route another PDU through the plane, so
    // the plane is not borrowed while delivering.
    for (after, pdu) in out.drain(..) {
        match after {
            None => deliver(k, pdu),
            Some(d) => {
                let deliver = deliver.clone();
                k.schedule_in(d, move |k| deliver(k, pdu));
            }
        }
    }
    plane.borrow_mut().spare.push(out);
}

/// Interpose the plane on an initiator→target delivery closure.
/// `link` is the global initiator slot index the closure serves. A link
/// the plane cannot alter keeps `inner` itself.
pub fn wrap_target_rx(plane: &Shared<FaultPlane>, link: usize, inner: TargetRx) -> TargetRx {
    if !plane.borrow().touches(link) {
        return inner;
    }
    let plane = plane.clone();
    Rc::new(move |k: &mut Kernel, from: u8, pdu: Pdu| {
        let inner = inner.clone();
        dispatch(&plane, k, link, true, pdu, move |k, pdu| {
            inner(k, from, pdu)
        });
    })
}

/// Interpose the plane on a target→initiator delivery closure; a link
/// the plane cannot alter keeps `inner` itself.
pub fn wrap_pdu_rx(plane: &Shared<FaultPlane>, link: usize, inner: PduRx) -> PduRx {
    if !plane.borrow().touches(link) {
        return inner;
    }
    let plane = plane.clone();
    Rc::new(move |k: &mut Kernel, pdu: Pdu| {
        let inner = inner.clone();
        dispatch(&plane, k, link, false, pdu, move |k, pdu| inner(k, pdu));
    })
}

/// The serialization-time multiplier as a function of virtual time, for
/// `fabric::Network::set_bandwidth_model`-style hooks.
pub fn bandwidth_model(plane: &Shared<FaultPlane>) -> Rc<dyn Fn(SimTime) -> f64> {
    let plane = plane.clone();
    Rc::new(move |t| {
        plane
            .borrow()
            .profile
            .degrades
            .iter()
            .find(|d| d.at <= t && t < d.at + d.dur)
            .map_or(1.0, |d| d.factor)
    })
}

/// A link-status probe for the keep-alive loop: `true` while `link` is up.
pub fn link_up_probe(plane: &Shared<FaultPlane>, link: usize) -> Rc<dyn Fn(SimTime) -> bool> {
    let plane = plane.clone();
    Rc::new(move |t| plane.borrow().link_up(link, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmf::Priority;
    use simkit::shared;
    use std::cell::RefCell;

    fn cmd(cid: u16) -> Pdu {
        Pdu::CapsuleCmd {
            sqe: nvme::Sqe::read(cid, 1, 8, 1),
            priority: Priority::ThroughputCritical { draining: false },
            initiator: 3,
        }
    }

    fn plane_with(profile: FaultProfile) -> Shared<FaultPlane> {
        shared(FaultPlane::new(profile, Pcg32::new(7)))
    }

    fn run_n_through(profile: FaultProfile, n: usize) -> (Vec<(u8, u16)>, FaultStats, u64) {
        let mut k = Kernel::new(1);
        let plane = plane_with(profile);
        let got: Rc<RefCell<Vec<(u8, u16)>>> = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        let inner: TargetRx = Rc::new(move |k: &mut Kernel, from: u8, pdu: Pdu| {
            if let Pdu::CapsuleCmd { sqe, .. } = pdu {
                got2.borrow_mut().push((from, sqe.cid));
            }
            let _ = k.now();
        });
        let wrapped = wrap_target_rx(&plane, 0, inner);
        for i in 0..n {
            let w = wrapped.clone();
            k.schedule_in(SimDuration::from_micros(i as u64), move |k| {
                w(k, 3, cmd(i as u16))
            });
        }
        k.run_to_completion();
        let stats = plane.borrow().stats;
        let order = got.borrow().clone();
        (order, stats, k.events_executed())
    }

    fn zero_profile() -> FaultProfile {
        FaultProfile {
            retry: None,
            redrain_timeout: None,
            ..FaultProfile::default()
        }
    }

    #[test]
    fn zero_profile_is_transparent() {
        let (order, stats, _) = run_n_through(zero_profile(), 50);
        assert_eq!(order.len(), 50);
        assert!(order.iter().enumerate().all(|(i, &(f, c))| {
            f == 3 && c == i as u16 // in order, untouched
        }));
        assert_eq!(stats, FaultStats::default());
    }

    /// Whether `wrap_target_rx` and `wrap_pdu_rx` interpose the plane
    /// on `link` rather than hand back `inner` itself.
    fn wraps(profile: FaultProfile, link: usize) -> bool {
        let plane = plane_with(profile);
        let tx: TargetRx = Rc::new(|_, _, _| {});
        let rx: PduRx = Rc::new(|_, _| {});
        let tx_wrapped = !Rc::ptr_eq(&wrap_target_rx(&plane, link, tx.clone()), &tx);
        let rx_wrapped = !Rc::ptr_eq(&wrap_pdu_rx(&plane, link, rx.clone()), &rx);
        assert_eq!(tx_wrapped, rx_wrapped, "both directions agree");
        tx_wrapped
    }

    #[test]
    fn a_link_the_plane_cannot_alter_keeps_its_closure() {
        // Retry, re-drain and keep-alive timers and a bandwidth window
        // never touch a PDU.
        let timers_only = FaultProfile {
            keepalive: Some(KeepAliveSpec {
                every: SimDuration::from_micros(100),
                kato: SimDuration::from_micros(500),
            }),
            degrades: vec![Degrade {
                at: SimTime::ZERO,
                dur: SimDuration::from_millis(1),
                factor: 2.0,
            }],
            ..FaultProfile::default()
        };
        assert!(!wraps(FaultProfile::default(), 0));
        assert!(!wraps(timers_only, 0));
        assert!(!wraps(zero_profile(), 5));
        let window = (SimTime::from_millis(1), SimDuration::from_millis(1));
        let flap = |link| LinkFlap {
            link,
            at: window.0,
            dur: window.1,
        };
        let crash = |tenant| Crash {
            tenant,
            at: window.0,
            dur: window.1,
        };
        let adversary = |link| Adversary {
            link,
            ..Adversary::default()
        };
        let p = FaultProfile::default;
        let one_link = [
            (
                FaultProfile {
                    flaps: vec![flap(1)],
                    ..p()
                },
                1,
            ),
            (
                FaultProfile {
                    crashes: vec![crash(1)],
                    ..p()
                },
                1,
            ),
            (
                FaultProfile {
                    adversary: Some(adversary(1)),
                    ..p()
                },
                1,
            ),
        ];
        for (profile, link) in one_link {
            assert!(wraps(profile.clone(), link), "{profile:?}");
            assert!(!wraps(profile, link + 1), "another link is untouched");
        }
        let every_link = [
            FaultProfile {
                drop_p: 0.01,
                ..p()
            },
            FaultProfile { dup_p: 0.01, ..p() },
            FaultProfile {
                delay_p: 0.01,
                ..p()
            },
            FaultProfile {
                corrupt_p: 0.01,
                ..p()
            },
            FaultProfile {
                reorder_p: 0.01,
                ..p()
            },
            FaultProfile {
                stalls: vec![Stall {
                    at: window.0,
                    dur: window.1,
                }],
                ..p()
            },
        ];
        for profile in every_link {
            assert!(
                wraps(profile.clone(), 0) && wraps(profile.clone(), 7),
                "{profile:?}"
            );
        }
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let (order, stats, _) = run_n_through(
            FaultProfile {
                drop_p: 1.0,
                ..zero_profile()
            },
            20,
        );
        assert!(order.is_empty());
        assert_eq!(stats.drops, 20);
    }

    #[test]
    fn duplicates_add_ghost_copies() {
        let (order, stats, _) = run_n_through(
            FaultProfile {
                dup_p: 1.0,
                ..zero_profile()
            },
            10,
        );
        assert_eq!(stats.dups, 10);
        assert_eq!(order.len(), 20);
        // Each CID arrives exactly twice.
        for cid in 0..10u16 {
            assert_eq!(order.iter().filter(|&&(_, c)| c == cid).count(), 2);
        }
    }

    #[test]
    fn reorder_holds_let_later_pdus_overtake() {
        // Hold longer than the 1µs submit spacing so every held PDU is
        // overtaken by its successor.
        let (order, stats, _) = run_n_through(
            FaultProfile {
                reorder_p: 0.5,
                reorder_hold: SimDuration::from_micros(10),
                ..zero_profile()
            },
            40,
        );
        assert_eq!(order.len(), 40, "reordering must not lose PDUs");
        assert!(stats.reorders > 0);
        let cids: Vec<u16> = order.iter().map(|&(_, c)| c).collect();
        let mut sorted = cids.clone();
        sorted.sort_unstable();
        assert_ne!(cids, sorted, "some PDU must arrive out of order");
    }

    #[test]
    fn corruption_counts_parse_failures_as_drops() {
        let (order, stats, _) = run_n_through(
            FaultProfile {
                corrupt_p: 1.0,
                ..zero_profile()
            },
            200,
        );
        assert_eq!(stats.corrupts + stats.corrupt_drops, 200);
        assert_eq!(order.len() as u64, 200 - stats.corrupt_drops);
        // Single-bit flips on a structured capsule must sometimes break
        // framing and sometimes survive it.
        assert!(stats.corrupts > 0, "{stats:?}");
        assert!(stats.corrupt_drops > 0, "{stats:?}");
    }

    #[test]
    fn flap_window_drops_only_inside_it() {
        let profile = FaultProfile {
            flaps: vec![LinkFlap {
                link: 0,
                at: SimTime::from_micros(10),
                dur: SimDuration::from_micros(10),
            }],
            ..zero_profile()
        };
        let (order, stats, _) = run_n_through(profile, 30);
        // Sends at t = 10..19 µs hit the window.
        assert_eq!(stats.flap_drops, 10);
        assert_eq!(order.len(), 20);
        assert!(order.iter().all(|&(_, c)| !(10..20).contains(&c)));
    }

    #[test]
    fn crash_window_is_per_tenant() {
        let profile = FaultProfile {
            crashes: vec![Crash {
                tenant: 4,
                at: SimTime::ZERO,
                dur: SimDuration::from_secs(1),
            }],
            ..zero_profile()
        };
        // This rig wraps link 0, so tenant 4's crash must not touch it.
        let (order, stats, _) = run_n_through(profile, 5);
        assert_eq!(order.len(), 5);
        assert_eq!(stats.crash_drops, 0);
        let plane = plane_with(FaultProfile {
            crashes: vec![Crash {
                tenant: 0,
                at: SimTime::ZERO,
                dur: SimDuration::from_secs(1),
            }],
            ..zero_profile()
        });
        assert!(plane.borrow().link_up(0, SimTime::ZERO));
        let mut k = Kernel::new(1);
        let sink: PduRx = Rc::new(|_, _| unreachable!("crashed tenant must receive nothing"));
        let wrapped = wrap_pdu_rx(&plane, 0, sink);
        wrapped(&mut k, cmd(1));
        assert_eq!(plane.borrow().stats.crash_drops, 1);
    }

    #[test]
    fn stall_defers_toward_target_only() {
        let profile = FaultProfile {
            stalls: vec![Stall {
                at: SimTime::ZERO,
                dur: SimDuration::from_micros(50),
            }],
            ..zero_profile()
        };
        let mut k = Kernel::new(1);
        let plane = plane_with(profile.clone());
        let seen_at = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen_at.clone();
        let inner: TargetRx = Rc::new(move |k: &mut Kernel, _, _| s2.borrow_mut().push(k.now()));
        let wrapped = wrap_target_rx(&plane, 0, inner);
        wrapped(&mut k, 0, cmd(1));
        k.run_to_completion();
        assert_eq!(*seen_at.borrow(), vec![SimTime::from_micros(50)]);
        assert_eq!(plane.borrow().stats.stall_defers, 1);
        // The reverse direction passes through a stall untouched.
        let plane = plane_with(profile);
        let mut k = Kernel::new(1);
        let seen = Rc::new(RefCell::new(0u32));
        let s2 = seen.clone();
        let sink: PduRx = Rc::new(move |_, _| *s2.borrow_mut() += 1);
        let wrapped = wrap_pdu_rx(&plane, 0, sink);
        wrapped(&mut k, cmd(1));
        assert_eq!(*seen.borrow(), 1);
        assert_eq!(plane.borrow().stats.stall_defers, 0);
    }

    #[test]
    fn bandwidth_model_tracks_degrade_windows() {
        let plane = plane_with(FaultProfile {
            degrades: vec![Degrade {
                at: SimTime::from_millis(1),
                dur: SimDuration::from_millis(2),
                factor: 3.0,
            }],
            ..zero_profile()
        });
        let bw = bandwidth_model(&plane);
        assert_eq!(bw(SimTime::ZERO), 1.0);
        assert_eq!(bw(SimTime::from_millis(1)), 3.0);
        assert_eq!(bw(SimTime::from_millis(2)), 3.0);
        assert_eq!(bw(SimTime::from_millis(3)), 1.0);
    }

    #[test]
    fn link_probe_mirrors_flaps() {
        let plane = plane_with(FaultProfile {
            flaps: vec![LinkFlap {
                link: 2,
                at: SimTime::from_micros(5),
                dur: SimDuration::from_micros(5),
            }],
            ..zero_profile()
        });
        let up = link_up_probe(&plane, 2);
        assert!(up(SimTime::ZERO));
        assert!(!up(SimTime::from_micros(7)));
        assert!(up(SimTime::from_micros(10)));
        let other = link_up_probe(&plane, 1);
        assert!(other(SimTime::from_micros(7)));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let profile = FaultProfile {
            drop_p: 0.2,
            dup_p: 0.1,
            delay_p: 0.3,
            corrupt_p: 0.05,
            reorder_p: 0.1,
            ..zero_profile()
        };
        let (a_order, a_stats, a_events) = run_n_through(profile.clone(), 300);
        let (b_order, b_stats, b_events) = run_n_through(profile, 300);
        assert_eq!(a_order, b_order);
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_events, b_events);
    }

    /// Run `n` TC capsules (tenant 3, link 0) through a plane and record
    /// every delivered capsule's wire fields.
    fn run_adversary(adv: Adversary, n: usize) -> (Vec<(u8, u16, Priority)>, AdversaryStats) {
        let mut k = Kernel::new(1);
        let plane = plane_with(FaultProfile {
            adversary: Some(adv),
            ..zero_profile()
        });
        let got: Rc<RefCell<Vec<(u8, u16, Priority)>>> = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        let inner: TargetRx = Rc::new(move |_k: &mut Kernel, from: u8, pdu: Pdu| {
            if let Pdu::CapsuleCmd {
                sqe,
                priority,
                initiator,
            } = pdu
            {
                let _ = from;
                got2.borrow_mut().push((initiator, sqe.cid, priority));
            }
        });
        let wrapped = wrap_target_rx(&plane, 0, inner);
        for i in 0..n {
            let w = wrapped.clone();
            k.schedule_in(SimDuration::from_micros(i as u64), move |k| {
                w(k, 3, cmd(i as u16))
            });
        }
        k.run_to_completion();
        let stats = plane.borrow().adversary_stats().unwrap();
        let order = got.borrow().clone();
        (order, stats)
    }

    #[test]
    fn adversary_forges_ls_on_tc_traffic() {
        let (order, stats) = run_adversary(
            Adversary {
                forge_ls_p: 1.0,
                ..Adversary::default()
            },
            20,
        );
        assert_eq!(stats.forged_ls, 20);
        assert_eq!(order.len(), 20);
        assert!(order.iter().all(|&(_, _, p)| p.is_ls()));
    }

    #[test]
    fn adversary_invalid_flags_die_at_parse() {
        let (order, stats) = run_adversary(
            Adversary {
                invalid_flags_p: 1.0,
                ..Adversary::default()
            },
            15,
        );
        assert_eq!(stats.forged_invalid, 15);
        assert!(order.is_empty(), "LS|TC forgeries must never be delivered");
    }

    #[test]
    fn adversary_floods_drain_flags() {
        let (order, stats) = run_adversary(
            Adversary {
                drain_flood_p: 1.0,
                ..Adversary::default()
            },
            12,
        );
        assert_eq!(stats.drain_floods, 12);
        assert!(order
            .iter()
            .all(|&(_, _, p)| p == Priority::ThroughputCritical { draining: true }));
    }

    #[test]
    fn adversary_spoofs_initiator_byte() {
        let (order, stats) = run_adversary(
            Adversary {
                spoof_p: 1.0,
                spoof_victim: 9,
                ..Adversary::default()
            },
            10,
        );
        assert_eq!(stats.spoofs, 10);
        assert!(order.iter().all(|&(initiator, _, _)| initiator == 9));
    }

    #[test]
    fn adversary_replays_earlier_capsules() {
        let (order, stats) = run_adversary(
            Adversary {
                replay_p: 1.0,
                ..Adversary::default()
            },
            30,
        );
        // The first capsule finds an empty stash; every later one replays.
        assert_eq!(stats.replays, 29);
        assert_eq!(order.len() as u64, 30 + stats.replays);
        // Replays duplicate CIDs already on the wire.
        let mut cids: Vec<u16> = order.iter().map(|&(_, c, _)| c).collect();
        cids.sort_unstable();
        cids.dedup();
        assert_eq!(cids.len(), 30);
    }

    #[test]
    fn adversary_touches_only_its_link() {
        let mut k = Kernel::new(1);
        let plane = plane_with(FaultProfile {
            adversary: Some(Adversary {
                link: 5,
                forge_ls_p: 1.0,
                spoof_p: 1.0,
                spoof_victim: 9,
                ..Adversary::default()
            }),
            ..zero_profile()
        });
        let got: Rc<RefCell<Vec<(u8, Priority)>>> = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        let inner: TargetRx = Rc::new(move |_k: &mut Kernel, _from: u8, pdu: Pdu| {
            if let Pdu::CapsuleCmd {
                priority,
                initiator,
                ..
            } = pdu
            {
                got2.borrow_mut().push((initiator, priority));
            }
        });
        // Honest tenant on link 0: its stream passes untouched.
        let wrapped = wrap_target_rx(&plane, 0, inner);
        wrapped(&mut k, 3, cmd(1));
        k.run_to_completion();
        assert_eq!(
            *got.borrow(),
            vec![(3, Priority::ThroughputCritical { draining: false })]
        );
        assert_eq!(
            plane.borrow().adversary_stats().unwrap(),
            AdversaryStats::default()
        );
    }

    #[test]
    fn adversary_attacks_replay_identically() {
        let adv = Adversary {
            forge_ls_p: 0.3,
            drain_flood_p: 0.2,
            replay_p: 0.2,
            spoof_p: 0.25,
            spoof_victim: 7,
            invalid_flags_p: 0.1,
            ..Adversary::default()
        };
        let (a_order, a_stats) = run_adversary(adv, 200);
        let (b_order, b_stats) = run_adversary(adv, 200);
        assert_eq!(a_order, b_order);
        assert_eq!(a_stats, b_stats);
        // Every attack kind fired at these rates.
        assert!(a_stats.forged_ls > 0);
        assert!(a_stats.forged_invalid > 0);
        assert!(a_stats.drain_floods > 0);
        assert!(a_stats.replays > 0);
        assert!(a_stats.spoofs > 0);
    }

    #[test]
    fn adversary_free_plane_keeps_fault_draws_identical() {
        // Configuring an adversary must not shift the *fault* stream:
        // the adversary RNG derives from a clone of the parent, never
        // the parent itself. Two planes with identical fault knobs —
        // one with an adversary on an unrelated link — make the same
        // fault decisions.
        let profile = FaultProfile {
            drop_p: 0.2,
            dup_p: 0.1,
            delay_p: 0.3,
            reorder_p: 0.1,
            ..zero_profile()
        };
        let (a_order, a_stats, _) = run_n_through(profile.clone(), 300);
        let (b_order, b_stats, _) = run_n_through(
            FaultProfile {
                adversary: Some(Adversary {
                    link: 99,
                    spoof_p: 1.0,
                    ..Adversary::default()
                }),
                ..profile
            },
            300,
        );
        assert_eq!(a_order, b_order);
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn metrics_gate_adversary_counters_on_presence() {
        let plane = plane_with(zero_profile());
        let m = plane.borrow().metrics(SimTime::ZERO);
        assert_eq!(m.get("adv_spoofs"), None);
        let plane = plane_with(FaultProfile {
            adversary: Some(Adversary::default()),
            ..zero_profile()
        });
        let m = plane.borrow().metrics(SimTime::ZERO);
        for key in [
            "adv_forged_ls",
            "adv_forged_invalid",
            "adv_drain_floods",
            "adv_replays",
            "adv_spoofs",
        ] {
            assert_eq!(m.get(key), Some(0.0), "{key}");
        }
    }

    #[test]
    fn metrics_snapshot_has_all_counters() {
        let plane = plane_with(zero_profile());
        plane.borrow_mut().stats.drops = 3;
        let m = plane.borrow().metrics(SimTime::ZERO);
        assert_eq!(m.get("drops"), Some(3.0));
        for key in [
            "dups",
            "delays",
            "reorders",
            "corrupts",
            "corrupt_drops",
            "flap_drops",
            "stall_defers",
            "crash_drops",
        ] {
            assert_eq!(m.get(key), Some(0.0), "{key}");
        }
    }
}
