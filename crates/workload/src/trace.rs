//! Open-loop trace replay.
//!
//! The paper's evaluation is closed-loop (fixed queue depth). Real
//! applications are often open-loop: requests arrive on their own clock
//! regardless of completions, and latency explodes past the saturation
//! knee. This module adds (a) a trace format with text round-trip, (b) a
//! Poisson workload synthesizer, and (c) a replayer that drives either
//! runtime from a trace, queueing arrivals application-side when the
//! qpair is at depth.

use crate::hist::Histogram;
use crate::runner::{build_pair, Pair, TenantHandle};
use crate::scenario::{RuntimeKind, Scenario, ScenarioError, Speed, WindowSpec};
use crate::Mix;
use bytes::Bytes;
use nvme::{Opcode, BLOCK_SIZE};
use opf::ReqClass;
use simkit::{Kernel, Pcg32, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// One traced request arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time relative to trace start (ns).
    pub at_ns: u64,
    /// Tenant issuing the request.
    pub tenant: u8,
    /// True for latency-sensitive requests.
    pub ls: bool,
    /// True for writes.
    pub write: bool,
    /// Starting LBA.
    pub lba: u64,
    /// Blocks (4K units).
    pub blocks: u16,
}

/// An ordered request trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events sorted by arrival time.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Append an event (keeps arrival order by sorting on finish).
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Sort by arrival time (stable).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at_ns);
    }

    /// Number of tenants referenced.
    pub fn tenant_count(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.tenant as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Serialize as one line per event:
    /// `at_ns,tenant,class,op,lba,blocks`.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 32);
        out.push_str("# at_ns,tenant,class,op,lba,blocks\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.at_ns,
                e.tenant,
                if e.ls { "LS" } else { "TC" },
                if e.write { "W" } else { "R" },
                e.lba,
                e.blocks
            ));
        }
        out
    }

    /// Parse the text format (ignores `#` comments and blank lines).
    pub fn from_text(text: &str) -> Result<TraceLog, String> {
        let mut log = TraceLog::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 6 {
                return Err(format!("line {}: expected 6 fields", i + 1));
            }
            let parse_err = |what: &str| format!("line {}: bad {what}", i + 1);
            log.push(TraceEvent {
                at_ns: fields[0].parse().map_err(|_| parse_err("at_ns"))?,
                tenant: fields[1].parse().map_err(|_| parse_err("tenant"))?,
                ls: match fields[2] {
                    "LS" => true,
                    "TC" => false,
                    _ => return Err(parse_err("class")),
                },
                write: match fields[3] {
                    "W" => true,
                    "R" => false,
                    _ => return Err(parse_err("op")),
                },
                lba: fields[4].parse().map_err(|_| parse_err("lba"))?,
                blocks: fields[5].parse().map_err(|_| parse_err("blocks"))?,
            });
        }
        log.sort();
        Ok(log)
    }

    /// Synthesize a Poisson arrival trace: `rate` requests/second spread
    /// over `tenants` TC tenants for `duration`, with the given mix.
    pub fn poisson(
        rate_per_sec: f64,
        duration: SimDuration,
        tenants: u8,
        mix: Mix,
        seed: u64,
    ) -> TraceLog {
        assert!(rate_per_sec > 0.0 && tenants > 0);
        let mut rng = Pcg32::new(seed);
        let mut log = TraceLog::default();
        let mut t_ns = 0.0f64;
        let horizon = duration.as_nanos() as f64;
        let mean_gap_ns = 1e9 / rate_per_sec;
        let mut n = 0u64;
        loop {
            t_ns += rng.gen_exp(mean_gap_ns);
            if t_ns >= horizon {
                break;
            }
            let tenant = (rng.gen_below(u32::from(tenants))) as u8;
            log.push(TraceEvent {
                at_ns: t_ns as u64,
                tenant,
                ls: false,
                write: !mix.is_read(n),
                lba: u64::from(rng.gen_below(1 << 20)),
                blocks: 1,
            });
            n += 1;
        }
        log
    }
}

/// Replay configuration.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Runtime under test.
    pub runtime: RuntimeKind,
    /// Fabric speed.
    pub speed: Speed,
    /// Queue depth per tenant.
    pub qd: usize,
    /// NVMe-oPF window policy.
    pub window: WindowSpec,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            runtime: RuntimeKind::Opf,
            speed: Speed::G100,
            qd: 128,
            window: WindowSpec::Static(32),
            seed: 1,
        }
    }
}

/// Replay outcome.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Requests completed (must equal the trace length).
    pub completed: u64,
    /// Mean end-to-end latency (µs), including application-side queueing
    /// when arrivals outpace the queue depth.
    pub mean_us: f64,
    /// p99 latency (µs).
    pub p99_us: f64,
    /// p99.99 latency (µs).
    pub p9999_us: f64,
    /// Virtual time from first arrival to last completion (s).
    pub makespan_s: f64,
    /// Offered load actually achieved (completed / makespan).
    pub goodput_iops: f64,
}

/// Why a trace cannot be replayed under a configuration. Traces are
/// outside input ([`TraceLog::from_text`]): [`replay`] checks them
/// instead of panicking part-way through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The pair the trace needs — its tenant count, at the configured
    /// queue depth — is not one the runner can build.
    Scenario(ScenarioError),
    /// Event `index` (in arrival order) asks for zero blocks; the field
    /// is 1-based.
    ZeroBlocks {
        /// Position of the event.
        index: usize,
    },
    /// Event `index` arrives after [`MAX_ARRIVAL_NS`].
    ArrivalOutOfRange {
        /// Position of the event.
        index: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Scenario(e) => write!(f, "trace needs an unbuildable pair: {e}"),
            ReplayError::ZeroBlocks { index } => {
                write!(f, "trace event {index}: blocks is 1-based, got 0")
            }
            ReplayError::ArrivalOutOfRange { index } => {
                write!(f, "trace event {index}: arrival time out of range")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// How long past the last arrival the replay may run.
const SETTLE_NS: u64 = 5_000_000_000;

/// Latest arrival a trace may carry: one simulated hour. The replayer's
/// 1 ms drainer wakes until the last arrival, so a later one costs
/// millions of events of host time per simulated hour before any I/O.
pub const MAX_ARRIVAL_NS: u64 = 3_600_000_000_000;

/// What every event of one replay shares.
struct Replay {
    initiators: Vec<TenantHandle>,
    /// Write payload sized for the trace's largest request.
    payload: Bytes,
    hist: RefCell<Histogram>,
    completed: Cell<u64>,
    last_done: Cell<SimTime>,
    /// Application-side queue per tenant: arrivals that found the qpair
    /// full wait here (this is where open-loop latency explodes).
    pending: RefCell<Vec<VecDeque<(SimTime, TraceEvent)>>>,
}

impl Replay {
    /// Issue one event through its tenant's initiator (the caller
    /// checked capacity).
    fn submit(self: &Rc<Self>, k: &mut Kernel, ev: TraceEvent, arrived: SimTime) {
        let class = if ev.ls {
            ReqClass::LatencySensitive
        } else {
            ReqClass::ThroughputCritical
        };
        let (opcode, data) = if ev.write {
            let len = BLOCK_SIZE * ev.blocks as usize;
            (Opcode::Write, Some(self.payload.slice(..len)))
        } else {
            (Opcode::Read, None)
        };
        let tenant = ev.tenant as usize;
        let r = self.clone();
        let ok = self.initiators[tenant].submit(
            k,
            class,
            opcode,
            ev.lba,
            ev.blocks,
            data,
            Box::new(move |k, _out| {
                // End-to-end latency counts from *arrival*, so
                // application-side queueing is included.
                let latency = k.now().since(arrived).as_nanos();
                r.hist.borrow_mut().record(latency);
                r.completed.set(r.completed.get() + 1);
                r.last_done.set(k.now());
                // Drain this tenant's application queue.
                let next = r.pending.borrow_mut()[tenant].pop_front();
                if let Some((arr, nev)) = next {
                    r.submit(k, nev, arr);
                }
            }),
        );
        assert!(ok, "caller checks capacity before submitting");
    }

    /// Partially filled windows drain via the initiator PM's own
    /// drain-timeout timer. A timer flush occupies a queue slot whose
    /// completion does not wake the application queue, so this periodic
    /// drainer re-submits pending arrivals whenever capacity is free.
    fn drain(self: Rc<Self>, k: &mut Kernel) {
        for tenant in 0..self.initiators.len() {
            while self.initiators[tenant].has_capacity() {
                let next = self.pending.borrow_mut()[tenant].pop_front();
                let Some((arr, ev)) = next else { break };
                self.submit(k, ev, arr);
            }
        }
        k.schedule_in(SimDuration::from_millis(1), move |k| self.drain(k));
    }
}

/// Replay a trace against a single target pair.
pub fn replay(log: &TraceLog, cfg: &ReplayConfig) -> Result<ReplayResult, ReplayError> {
    Ok(replay_stack(log, cfg)?.0)
}

/// [`replay`], handing back the torn-down pair so a test can watch it die.
fn replay_stack(log: &TraceLog, cfg: &ReplayConfig) -> Result<(ReplayResult, Pair), ReplayError> {
    let tenants = log.tenant_count().max(1);
    // The pair is a one-group scenario of `tenants` tenants at `qd`:
    // hold it to the same bounds as every other entry point.
    let shape = Scenario {
        ls_per_node: 0,
        tc_per_node: tenants,
        tc_qd: cfg.qd,
        ls_qd: cfg.qd,
        ..Scenario::two_tenant(cfg.runtime, cfg.speed, Mix::READ)
    };
    shape.validate().map_err(ReplayError::Scenario)?;
    for (index, ev) in log.events.iter().enumerate() {
        if ev.blocks == 0 {
            return Err(ReplayError::ZeroBlocks { index });
        }
        if ev.at_ns > MAX_ARRIVAL_NS {
            return Err(ReplayError::ArrivalOutOfRange { index });
        }
    }

    let mut k = Kernel::new(cfg.seed);
    let pair = build_pair(
        &mut k,
        cfg.runtime,
        cfg.speed,
        tenants,
        cfg.qd,
        match cfg.window {
            WindowSpec::Static(w) => opf::WindowPolicy::Static(w),
            WindowSpec::Dynamic => opf::WindowPolicy::Dynamic { initial: 16 },
            WindowSpec::Auto => opf::WindowPolicy::Static(32),
        },
        cfg.seed,
        true,
    );
    let max_blocks = log.events.iter().map(|e| e.blocks).max().unwrap_or(1);
    let r = Rc::new(Replay {
        initiators: pair.initiators.clone(),
        payload: Bytes::from(vec![0u8; BLOCK_SIZE * max_blocks as usize]),
        hist: RefCell::new(Histogram::new()),
        completed: Cell::new(0),
        last_done: Cell::new(SimTime::ZERO),
        pending: RefCell::new(vec![VecDeque::new(); tenants]),
    });

    for &ev in &log.events {
        let r = r.clone();
        k.schedule_at(SimTime::from_nanos(ev.at_ns), move |k| {
            let tenant = ev.tenant as usize;
            if r.initiators[tenant].has_capacity() {
                r.submit(k, ev, k.now());
            } else {
                r.pending.borrow_mut()[tenant].push_back((k.now(), ev));
            }
        });
    }
    let drainer = r.clone();
    k.schedule_in(SimDuration::from_millis(1), move |k| drainer.drain(k));

    let last_arrival = log.events.last().map_or(0, |e| e.at_ns);
    k.set_horizon(SimTime::from_nanos(last_arrival + SETTLE_NS));
    k.run_to_completion();

    let done = r.completed.get();
    assert_eq!(
        done,
        log.events.len() as u64,
        "replay must complete the whole trace"
    );
    let h = r.hist.borrow();
    let makespan = r.last_done.get().as_secs_f64();
    let result = ReplayResult {
        completed: done,
        mean_us: h.mean() / 1e3,
        p99_us: h.percentile(0.99) as f64 / 1e3,
        p9999_us: h.percentile(0.9999) as f64 / 1e3,
        makespan_s: makespan,
        goodput_iops: done as f64 / makespan.max(1e-9),
    };
    pair.teardown();
    Ok((result, pair))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let mut log = TraceLog::default();
        log.push(TraceEvent {
            at_ns: 100,
            tenant: 0,
            ls: false,
            write: false,
            lba: 5,
            blocks: 1,
        });
        log.push(TraceEvent {
            at_ns: 50,
            tenant: 1,
            ls: true,
            write: true,
            lba: 9,
            blocks: 4,
        });
        let text = log.to_text();
        let back = TraceLog::from_text(&text).unwrap();
        // from_text sorts by arrival.
        assert_eq!(back.events[0].at_ns, 50);
        assert_eq!(back.events[1].at_ns, 100);
        assert_eq!(back.events.len(), 2);
        assert!(back.events[0].ls && back.events[0].write);
        assert_eq!(back.tenant_count(), 2);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(TraceLog::from_text("1,2,3").is_err());
        assert!(TraceLog::from_text("x,0,TC,R,0,1").is_err());
        assert!(TraceLog::from_text("5,0,XX,R,0,1").is_err());
        assert!(TraceLog::from_text("# only comments\n\n")
            .unwrap()
            .events
            .is_empty());
    }

    /// One-line traces that each panicked the replayer at 8b0c8ff — the
    /// reserved tenant id, a tenant aliasing the queue-key owner field,
    /// zero blocks, an arrival time that overflows the horizon, and (in
    /// debug builds) a write larger than the one-block payload — plus an
    /// arrival past [`MAX_ARRIVAL_NS`], which spun the 1 ms drainer for
    /// an hour of simulated time at 363394b.
    #[test]
    fn hostile_traces_get_typed_errors() {
        use ReplayError::*;
        let too_many = |tenants, max| Err(Scenario(ScenarioError::TooManyTenants { tenants, max }));
        let past_horizon = format!("0,0,TC,R,0,1\n{},0,TC,R,0,1", MAX_ARRIVAL_NS + 1);
        let cases = [
            ("0,255,TC,R,0,1", too_many(256, 64)),
            ("0,100,TC,R,0,1", too_many(101, 64)),
            ("0,0,TC,R,0,0", Err(ZeroBlocks { index: 0 })),
            (
                "0,0,TC,R,0,1\n18446744073709551615,0,LS,R,0,1",
                Err(ArrivalOutOfRange { index: 1 }),
            ),
            (past_horizon.as_str(), Err(ArrivalOutOfRange { index: 1 })),
            ("0,0,TC,W,0,8", Ok(1)),
        ];
        for (text, want) in cases {
            let log = TraceLog::from_text(text).unwrap();
            let got = replay(&log, &ReplayConfig::default()).map(|r| r.completed);
            assert_eq!(got, want, "{text}");
            if let Err(e) = got {
                assert!(!e.to_string().is_empty());
            }
        }
        // The baseline addresses more tenants, but not the reserved id.
        let spdk = ReplayConfig {
            runtime: RuntimeKind::Spdk,
            ..ReplayConfig::default()
        };
        let log = TraceLog::from_text("0,255,TC,R,0,1").unwrap();
        assert_eq!(replay(&log, &spdk).map(|r| r.completed), too_many(256, 254));
        // A zero queue depth is a typed error on both runtimes, not a
        // `QPair::new` assert.
        let log = TraceLog::from_text("0,0,TC,R,0,1").unwrap();
        for (runtime, max) in [(RuntimeKind::Spdk, 65535), (RuntimeKind::Opf, 1024)] {
            let cfg = ReplayConfig {
                runtime,
                qd: 0,
                ..ReplayConfig::default()
            };
            let want = ScenarioError::QueueDepthOutOfRange {
                what: "tc_qd",
                qd: 0,
                max,
            };
            assert_eq!(replay(&log, &cfg).map(|r| r.completed), Err(Scenario(want)));
        }
    }

    /// `replay` used to leak its pair through the target ↔ initiator
    /// receive closures. Once the returned pair goes, nothing may keep
    /// the stack (and so its SSD) alive.
    #[test]
    fn replay_frees_its_stack() {
        let log = TraceLog::poisson(50_000.0, SimDuration::from_millis(2), 3, Mix::MIXED, 4);
        for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
            let cfg = ReplayConfig {
                runtime,
                ..ReplayConfig::default()
            };
            let (_, pair) = replay_stack(&log, &cfg).unwrap();
            let device = Rc::downgrade(pair.device());
            assert!(device.upgrade().is_some());
            drop(pair);
            assert!(
                device.upgrade().is_none(),
                "{runtime:?} outlives its replay"
            );
        }
    }

    #[test]
    fn poisson_rate_is_respected() {
        let log = TraceLog::poisson(100_000.0, SimDuration::from_millis(100), 4, Mix::READ, 3);
        let n = log.events.len() as f64;
        assert!((8_000.0..12_000.0).contains(&n), "{n} events");
        // Tenants covered.
        assert_eq!(log.tenant_count(), 4);
        // Arrivals within the horizon and sorted-ish after sort().
        assert!(log.events.iter().all(|e| e.at_ns < 100_000_000));
    }

    #[test]
    fn replay_completes_trace_below_saturation() {
        let log = TraceLog::poisson(50_000.0, SimDuration::from_millis(50), 2, Mix::READ, 9);
        let r = replay(&log, &ReplayConfig::default()).unwrap();
        assert_eq!(r.completed, log.events.len() as u64);
        assert!(r.mean_us > 50.0, "mean {}", r.mean_us);
        assert!(r.p9999_us >= r.p99_us && r.p99_us >= 0.0);
    }

    #[test]
    fn latency_explodes_past_saturation() {
        // Device read cap ~267K: offered 150K is fine, 400K is not.
        let low = TraceLog::poisson(150_000.0, SimDuration::from_millis(40), 4, Mix::READ, 5);
        let high = TraceLog::poisson(400_000.0, SimDuration::from_millis(40), 4, Mix::READ, 5);
        let cfg = ReplayConfig::default();
        let rl = replay(&low, &cfg).unwrap();
        let rh = replay(&high, &cfg).unwrap();
        assert!(
            rh.mean_us > rl.mean_us * 3.0,
            "overload must inflate latency: {} vs {}",
            rh.mean_us,
            rl.mean_us
        );
    }

    #[test]
    fn opf_sustains_higher_open_loop_rate_than_spdk() {
        let log = TraceLog::poisson(230_000.0, SimDuration::from_millis(60), 4, Mix::READ, 8);
        let spdk = replay(
            &log,
            &ReplayConfig {
                runtime: RuntimeKind::Spdk,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        let opf = replay(&log, &ReplayConfig::default()).unwrap();
        // 230K offered exceeds SPDK's ~178K capacity but not oPF's.
        assert!(
            spdk.mean_us > opf.mean_us * 3.0,
            "SPDK should be saturated: {} vs {}",
            spdk.mean_us,
            opf.mean_us
        );
    }
}
