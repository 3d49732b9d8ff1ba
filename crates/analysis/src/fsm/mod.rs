//! Explicit-state model checker for the CID lifecycle.
//!
//! A small, exact model of the protocol plane's command-identifier
//! lifecycle: initiator slot epochs (`nvmf::initiator::RetrySlot`), the
//! TC completion queue (`queues::cid::CidQueue` with capacity
//! `qd + window`), the target's recovery live-set keyed by
//! `(cid, epoch)`, and an adversary that can drop, duplicate, replay,
//! and forge the LS class flag on in-flight capsules (PR 6's
//! `faults::Adversary`). The checker DFS-explores every interleaving of
//! a bounded configuration, memoizing canonical states, and asserts:
//!
//! * **exactly-once** — no command is ever completed twice;
//! * **no reachable panic** — the CID queue never exceeds its
//!   `qd + window` capacity (the real initiator `expect`s on that push,
//!   so an overflow state *is* a reachable panic);
//! * **no deadlock** — from every reachable state where work remains,
//!   some transition is enabled.
//!
//! With `hardened: false` the initiator routes completions by the class
//! echoed in the response — exactly the pre-PR 6 code — and the checker
//! re-finds the forged-LS CID-queue overflow as a regression witness.
//! With `hardened: true` it routes by the locally recorded class
//! (`ProtocolError::RespClassMismatch` in `core::initiator::on_resp`)
//! and the bounded state space is proven clean. Counterexamples are
//! action schedules, replayable via [`replay`] and serializable as
//! scenario JSON via [`scenario`].

pub mod scenario;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bounded model configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Initiator queue depth: number of CID slots.
    pub qd: usize,
    /// Drain window: extra CID-queue capacity beyond `qd` (the real
    /// `CidQueue` is sized `qd + window`).
    pub window: usize,
    /// Total commands the workload issues before stopping.
    pub max_cmds: usize,
    /// Bound on concurrently in-flight fabric messages.
    pub net_cap: usize,
    /// Adversary may flip the LS class flag on an in-flight command.
    pub forge_ls: bool,
    /// Adversary may drop any in-flight message.
    pub drop: bool,
    /// Adversary may duplicate any in-flight message.
    pub dup: bool,
    /// Adversary may stash a command capsule and replay it later
    /// (cross-epoch replay once the CID recycles).
    pub replay: bool,
    /// Initiator routes completions by its locally recorded class
    /// (PR 6 hardening) instead of trusting the response's echo.
    pub hardened: bool,
}

impl Config {
    /// The PR 6 regression witness: smallest configuration in which a
    /// forged-LS response strands CID-queue entries until the queue
    /// overflows its `qd + window` capacity. `hardened: false` here is
    /// the pre-PR 6 initiator.
    pub fn forged_ls_witness(hardened: bool) -> Config {
        Config {
            qd: 1,
            window: 1,
            max_cmds: 3,
            net_cap: 2,
            forge_ls: true,
            drop: false,
            dup: false,
            replay: false,
            hardened,
        }
    }

    /// Full adversary (drop/dup/replay/forge) against a hardened
    /// initiator — the configuration the parallel kernel must survive.
    pub fn full_adversary_hardened() -> Config {
        Config {
            qd: 2,
            window: 1,
            max_cmds: 3,
            net_cap: 3,
            forge_ls: true,
            drop: true,
            dup: true,
            replay: true,
            hardened: true,
        }
    }

    fn cid_cap(&self) -> usize {
        self.qd + self.window
    }
}

/// An in-flight fabric message.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Msg {
    /// Command capsule: slot `cid` at incarnation `epoch`, carrying
    /// workload command `cmd`. `forged_ls` is the adversary's flipped
    /// class flag (every honest command in the model is TC).
    Cmd {
        cid: u16,
        epoch: u32,
        cmd: usize,
        forged_ls: bool,
    },
    /// Response capsule, echoing the class the target saw.
    Resp {
        cid: u16,
        epoch: u32,
        cmd: usize,
        ls_echo: bool,
    },
}

/// One transition. `usize` operands index into the in-flight message
/// vector at the moment the action fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Initiator issues the next command on the lowest free slot.
    Issue,
    /// Target consumes in-flight command `i` and responds.
    DeliverCmd(usize),
    /// Initiator consumes in-flight response `i`.
    DeliverResp(usize),
    /// Retry watchdog re-sends the command for slot `cid` (enabled only
    /// when nothing for that incarnation is in flight).
    Expire(u16),
    /// Adversary flips the LS flag on in-flight command `i`.
    ForgeLs(usize),
    /// Adversary drops in-flight message `i`.
    DropMsg(usize),
    /// Adversary duplicates in-flight message `i`.
    DupMsg(usize),
    /// Adversary stashes a copy of in-flight command `i`.
    StashMsg(usize),
    /// Adversary injects the stashed command back into the fabric.
    ReplayStash,
}

/// Initiator slot state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Free,
    /// Command `cmd` in flight at incarnation `epoch`.
    Inflight {
        epoch: u32,
        cmd: usize,
    },
}

/// Canonical model state (Ord so the DFS can memoize in a BTreeSet —
/// deterministic iteration, no hashing).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    issued: usize,
    slots: Vec<Slot>,
    /// TC completion queue: (cid, epoch, cmd) in issue order. The real
    /// structure holds CIDs only; the model tags entries so exactly-once
    /// can be asserted per command.
    cid_queue: Vec<(u16, u32, usize)>,
    net: Vec<Msg>,
    /// Target recovery live-set: (cid, epoch) → (cmd, ls_echo) of the
    /// response already sent, resent verbatim on duplicate delivery.
    live: BTreeMap<(u16, u32), (usize, bool)>,
    stash: Option<Msg>,
    /// Completion count per command id.
    completed: Vec<u8>,
}

impl State {
    fn init(cfg: &Config) -> State {
        State {
            issued: 0,
            slots: vec![Slot::Free; cfg.qd],
            cid_queue: Vec::new(),
            net: Vec::new(),
            live: BTreeMap::new(),
            stash: None,
            completed: vec![0; cfg.max_cmds],
        }
    }

    fn goal_met(&self, cfg: &Config) -> bool {
        self.issued == cfg.max_cmds && self.completed.iter().all(|&c| c == 1)
    }
}

/// A violated model assertion: the hazard a counterexample reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// The CID queue exceeded `qd + window` — the real initiator panics
    /// here (`cid_queue.push(cid).expect(...)` in `core::initiator`).
    CidQueueOverflow,
    /// A command completed more than once.
    DoubleCompletion,
    /// Work remains but no transition is enabled.
    Deadlock,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Hazard::CidQueueOverflow => "cid-queue-overflow",
            Hazard::DoubleCompletion => "double-completion",
            Hazard::Deadlock => "deadlock",
        })
    }
}

/// A violation plus the action schedule that reaches it from the
/// initial state.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub violation: Hazard,
    pub schedule: Vec<Action>,
}

/// Result of exploring a configuration.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every reachable state is clean; counts are distinct states
    /// visited and terminal (goal-met, quiescent) states among them.
    Clean {
        states: usize,
        terminals: usize,
    },
    Violated(Counterexample),
}

impl Outcome {
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Outcome::Clean { .. } => None,
            Outcome::Violated(cx) => Some(cx),
        }
    }
}

/// Every action enabled in `s`. Order is deterministic (system actions
/// first), so counterexamples are stable across runs.
fn enabled(cfg: &Config, s: &State) -> Vec<Action> {
    let mut acts = Vec::new();
    if s.issued < cfg.max_cmds && s.slots.contains(&Slot::Free) && s.net.len() < cfg.net_cap {
        acts.push(Action::Issue);
    }
    for (i, m) in s.net.iter().enumerate() {
        match m {
            Msg::Cmd { .. } => acts.push(Action::DeliverCmd(i)),
            Msg::Resp { .. } => acts.push(Action::DeliverResp(i)),
        }
    }
    // Retry: a slot whose incarnation has nothing in flight may re-send.
    // Only enabled when the adversary can actually lose messages;
    // otherwise it only blows up the state space.
    if cfg.drop {
        for (cid, sl) in s.slots.iter().enumerate() {
            if let Slot::Inflight { epoch, .. } = sl {
                let in_flight = s.net.iter().any(|m| match m {
                    Msg::Cmd {
                        cid: c, epoch: e, ..
                    }
                    | Msg::Resp {
                        cid: c, epoch: e, ..
                    } => *c == cid as u16 && e == epoch,
                });
                if !in_flight && s.net.len() < cfg.net_cap {
                    acts.push(Action::Expire(cid as u16));
                }
            }
        }
    }
    for (i, m) in s.net.iter().enumerate() {
        if cfg.forge_ls {
            if let Msg::Cmd {
                forged_ls: false, ..
            } = m
            {
                acts.push(Action::ForgeLs(i));
            }
        }
        if cfg.drop {
            acts.push(Action::DropMsg(i));
        }
        if cfg.dup && s.net.len() < cfg.net_cap {
            acts.push(Action::DupMsg(i));
        }
        if cfg.replay && s.stash.is_none() {
            if let Msg::Cmd { .. } = m {
                acts.push(Action::StashMsg(i));
            }
        }
    }
    if cfg.replay && s.stash.is_some() && s.net.len() < cfg.net_cap {
        acts.push(Action::ReplayStash);
    }
    acts
}

/// Apply `a` to `s`. Returns the successor state, or the violation the
/// action exposes.
fn step(cfg: &Config, s: &State, a: Action) -> Result<State, Hazard> {
    let mut n = s.clone();
    match a {
        Action::Issue => {
            let cid = n
                .slots
                .iter()
                .position(|sl| *sl == Slot::Free)
                .unwrap_or_default() as u16;
            // Fresh incarnation: one past any epoch the target has seen
            // for this slot (the real slot counter survives recycling).
            let epoch = 1 + n
                .live
                .keys()
                .filter(|(c, _)| *c == cid)
                .map(|(_, e)| *e)
                .max()
                .unwrap_or(0);
            let cmd = n.issued;
            n.issued += 1;
            n.slots[cid as usize] = Slot::Inflight { epoch, cmd };
            // The real initiator pushes the TC CID with
            // `.expect("CID queue sized for QD + window")` — a full
            // queue here is a reachable panic, i.e. a violation.
            if n.cid_queue.len() == cfg.cid_cap() {
                return Err(Hazard::CidQueueOverflow);
            }
            n.cid_queue.push((cid, epoch, cmd));
            n.net.push(Msg::Cmd {
                cid,
                epoch,
                cmd,
                forged_ls: false,
            });
        }
        Action::DeliverCmd(i) => {
            let Msg::Cmd {
                cid,
                epoch,
                cmd,
                forged_ls,
            } = n.net.remove(i)
            else {
                return Ok(n);
            };
            let (resp_cmd, ls_echo) = match n.live.get(&(cid, epoch)) {
                // Duplicate (retransmit or replay): the live-set
                // suppresses re-execution but resends the recorded
                // response so a lost completion can still recover.
                Some(&prev) => prev,
                None => {
                    // The target echoes the class it saw on the wire.
                    n.live.insert((cid, epoch), (cmd, forged_ls));
                    (cmd, forged_ls)
                }
            };
            n.net.push(Msg::Resp {
                cid,
                epoch,
                cmd: resp_cmd,
                ls_echo,
            });
        }
        Action::DeliverResp(i) => {
            let Msg::Resp {
                cid,
                epoch,
                ls_echo,
                ..
            } = n.net.remove(i)
            else {
                return Ok(n);
            };
            let Slot::Inflight {
                epoch: slot_epoch,
                cmd: slot_cmd,
            } = n.slots[cid as usize]
            else {
                return Ok(n); // slot free: stale/duplicate, suppressed
            };
            if slot_epoch != epoch {
                return Ok(n); // epoch guard: cross-incarnation replay
            }
            // PR 6's fix: the hardened initiator ignores the echoed
            // class and routes by what it recorded at submit (always TC
            // here). The unhardened one trusts the wire.
            let ls_path = if cfg.hardened { false } else { ls_echo };
            if ls_path {
                // LS bypass completion: slot done, CID queue untouched —
                // this is what strands TC queue entries.
                n.slots[cid as usize] = Slot::Free;
                bump(&mut n, slot_cmd)?;
            } else {
                // TC path: complete *through* this entry, coalescing
                // everything queued before it (`complete_through_into`).
                let Some(pos) = n
                    .cid_queue
                    .iter()
                    .position(|&(c, e, _)| c == cid && e == epoch)
                else {
                    return Ok(n); // Missing: counted protocol error
                };
                let drained: Vec<_> = n.cid_queue.drain(..=pos).collect();
                for (c, e, queued_cmd) in drained {
                    if let Slot::Inflight { epoch: se, .. } = n.slots[c as usize] {
                        if se == e {
                            n.slots[c as usize] = Slot::Free;
                            bump(&mut n, queued_cmd)?;
                        }
                    }
                }
            }
        }
        Action::Expire(cid) => {
            if let Slot::Inflight { epoch, cmd } = n.slots[cid as usize] {
                n.net.push(Msg::Cmd {
                    cid,
                    epoch,
                    cmd,
                    forged_ls: false,
                });
            }
        }
        Action::ForgeLs(i) => {
            if let Some(Msg::Cmd { forged_ls, .. }) = n.net.get_mut(i) {
                *forged_ls = true;
            }
        }
        Action::DropMsg(i) => {
            n.net.remove(i);
        }
        Action::DupMsg(i) => {
            let m = n.net[i].clone();
            n.net.push(m);
        }
        Action::StashMsg(i) => {
            n.stash = Some(n.net[i].clone());
        }
        Action::ReplayStash => {
            if let Some(m) = n.stash.clone() {
                n.net.push(m);
            }
        }
    }
    // Canonicalize: in-flight message order is not observable (delivery
    // picks an arbitrary index), so sort to collapse permutations.
    n.net.sort();
    Ok(n)
}

fn bump(s: &mut State, cmd: usize) -> Result<(), Hazard> {
    s.completed[cmd] += 1;
    if s.completed[cmd] > 1 {
        return Err(Hazard::DoubleCompletion);
    }
    Ok(())
}

/// Exhaustively explore `cfg` from the initial state.
pub fn check(cfg: &Config) -> Outcome {
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut terminals = 0usize;
    let mut stack: Vec<(State, Vec<Action>)> = vec![(State::init(cfg), Vec::new())];
    while let Some((s, trace)) = stack.pop() {
        if !seen.insert(s.clone()) {
            continue;
        }
        let acts = enabled(cfg, &s);
        if acts.is_empty() {
            if s.goal_met(cfg) {
                terminals += 1;
                continue;
            }
            return Outcome::Violated(Counterexample {
                violation: Hazard::Deadlock,
                schedule: trace,
            });
        }
        for a in acts {
            match step(cfg, &s, a) {
                Ok(next) => {
                    if !seen.contains(&next) {
                        let mut t = trace.clone();
                        t.push(a);
                        stack.push((next, t));
                    }
                }
                Err(violation) => {
                    let mut schedule = trace;
                    schedule.push(a);
                    return Outcome::Violated(Counterexample {
                        violation,
                        schedule,
                    });
                }
            }
        }
    }
    Outcome::Clean {
        states: seen.len(),
        terminals,
    }
}

/// Replay errors: the schedule no longer matches the configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// Action `index` in the schedule was not enabled in the state the
    /// prefix reached.
    NotEnabled { index: usize, action: Action },
}

/// Re-run a recorded schedule against `cfg`. Returns the violation the
/// schedule triggers (`None` if it completes cleanly), or a
/// [`ReplayError`] if the schedule has diverged from the model.
pub fn replay(cfg: &Config, schedule: &[Action]) -> Result<Option<Hazard>, ReplayError> {
    let mut s = State::init(cfg);
    for (index, &action) in schedule.iter().enumerate() {
        if !enabled(cfg, &s).contains(&action) {
            return Err(ReplayError::NotEnabled { index, action });
        }
        match step(cfg, &s, action) {
            Ok(next) => s = next,
            Err(v) => return Ok(Some(v)),
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unhardened_forged_ls_overflows_cid_queue() {
        let cfg = Config::forged_ls_witness(false);
        let out = check(&cfg);
        let cx = out
            .counterexample()
            .expect("pre-PR6 initiator must reach the CID-queue overflow");
        assert_eq!(cx.violation, Hazard::CidQueueOverflow);
        // The witness replays to the same violation.
        assert_eq!(
            replay(&cfg, &cx.schedule),
            Ok(Some(Hazard::CidQueueOverflow))
        );
        // And the schedule really exercises the forged-LS path.
        assert!(cx.schedule.iter().any(|a| matches!(a, Action::ForgeLs(_))));
    }

    #[test]
    fn hardened_forged_ls_is_clean() {
        match check(&Config::forged_ls_witness(true)) {
            Outcome::Clean { states, terminals } => {
                assert!(states > 10, "exploration actually happened: {states}");
                assert!(terminals > 0, "goal state reached");
            }
            Outcome::Violated(cx) => panic!("hardened model must be clean: {cx:?}"),
        }
    }

    #[test]
    fn honest_unhardened_is_clean() {
        // The violation needs the adversary: with forging off, the
        // pre-PR6 initiator is correct in this model.
        let mut cfg = Config::forged_ls_witness(false);
        cfg.forge_ls = false;
        assert!(check(&cfg).counterexample().is_none());
    }

    #[test]
    fn full_adversary_hardened_is_clean() {
        match check(&Config::full_adversary_hardened()) {
            Outcome::Clean { states, terminals } => {
                assert!(states > 100, "{states}");
                assert!(terminals > 0);
            }
            Outcome::Violated(cx) => panic!("hardened full-adversary run must be clean: {cx:?}"),
        }
    }

    #[test]
    fn replay_rejects_diverged_schedule() {
        let cfg = Config::forged_ls_witness(false);
        let bad = [Action::DeliverCmd(0)]; // nothing in flight yet
        assert!(matches!(
            replay(&cfg, &bad),
            Err(ReplayError::NotEnabled { index: 0, .. })
        ));
    }
}
