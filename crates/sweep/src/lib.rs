//! # sweep — automated scenario sweeps with unified metrics output
//!
//! Takes a scenario description (JSON: runtime × speed × mix × LS:TC
//! ratio × seeds), expands the cross product in a fixed order, fans the
//! runs out across OS threads (each simulation is single-threaded and
//! deterministic), and emits a machine-readable `BENCH_<name>.json`
//! report — every point carrying the whole-cluster [`simkit::Metrics`]
//! snapshot — plus a flat CSV for spreadsheets.
//!
//! Output is bit-identical across runs of the same spec: points are
//! ordered by expansion index (never by completion), floats use Rust's
//! shortest round-trip formatting, and no wall-clock time is recorded.
//!
//! ## Spec schema
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "runtimes": ["spdk", "opf"],
//!   "speeds": [10, 25, 100],
//!   "mixes": ["read", "write", "mixed"],
//!   "ratios": [[1, 1], [1, 4]],
//!   "seeds": [42, 43],
//!   "warmup_s": 0.05,
//!   "measure_s": 0.15,
//!   "threads": 4
//! }
//! ```
//!
//! Only `name` is required. `mixes` entries may also be numbers (the
//! read fraction, e.g. `0.7`). `threads` defaults to the machine's
//! available parallelism; everything else defaults to a small smoke
//! sweep (see [`SweepSpec::from_json`]).
//!
//! An optional `"faults"` block installs a [`faults::FaultProfile`] on
//! every expanded scenario (probabilities per PDU; durations in µs;
//! scheduled windows in seconds):
//!
//! ```json
//! {
//!   "faults": {
//!     "drop_p": 0.01, "dup_p": 0.001, "delay_p": 0.01, "delay_max_us": 20,
//!     "corrupt_p": 0.0, "reorder_p": 0.0, "reorder_hold_us": 5,
//!     "retry_timeout_us": 300, "retry_max": 6, "redrain_timeout_us": 500,
//!     "keepalive_us": 4000, "kato_us": 10000, "settle_s": 0.05,
//!     "flaps": [{"link": 0, "at_s": 0.08, "for_s": 0.015}],
//!     "degrade": [{"at_s": 0.1, "for_s": 0.02, "factor": 4.0}],
//!     "stalls": [{"at_s": 0.12, "for_s": 0.002}],
//!     "crashes": [{"tenant": 1, "at_s": 0.1, "for_s": 0.03}],
//!     "adversary": {
//!       "link": 4, "forge_ls_p": 0.5, "invalid_flags_p": 0.0,
//!       "drain_flood_p": 0.0, "replay_p": 0.0,
//!       "spoof_p": 0.0, "spoof_victim": 2, "harden": true
//!     }
//!   }
//! }
//! ```
//!
//! Recovery knobs default on (see `FaultProfile::default`); a zero
//! `retry_timeout_us` / `redrain_timeout_us` disables that mechanism.
//! The optional `"adversary"` sub-block rides one tenant's link with
//! protocol-level attacks (see [`faults::Adversary`]); `harden` selects
//! whether the targets keep their DESIGN.md §14 defenses on.
//!
//! Cluster scenarios (DESIGN.md §16) add three more knobs — `"targets"`
//! (the cluster size), a `"placement"` block, and a `"migration"` block.
//!
//! ```json
//! {
//!   "targets": 2,
//!   "placement": {"policy": "pinned", "pins": [0, 1, 0]},
//!   "migration": {"moves": [{"tenant": 1, "at_s": 0.05, "to_target": 0}]}
//! }
//! ```
//!
//! Every object of the spec — the root, each block and each list entry —
//! is read through the one key-checked reader in [`json`]: an unknown key
//! anywhere is a hard parse error naming the block and the key
//! (`faults.flaps[1]: unknown key "lnk"`), never a silent no-op, and a
//! present value of the wrong type or out of range never reads as the
//! default.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub use simkit::json;

use fabric::Gbps;
use faults::{Adversary, Crash, Degrade, FaultProfile, KeepAliveSpec, LinkFlap, Stall};
use json::{Error, Json, Obj};
use nvmf::RetryPolicy;
use simkit::metrics::format_f64;
use simkit::{SimDuration, SimTime};
use workload::{MigrationSpec, Mix, PlacementSpec, RunResult, RuntimeKind, Scenario};

/// A parsed sweep specification.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Report name: output lands in `BENCH_<name>.json` / `.csv`.
    pub name: String,
    /// Runtimes to sweep.
    pub runtimes: Vec<RuntimeKind>,
    /// Fabric speeds to sweep.
    pub speeds: Vec<Gbps>,
    /// Read/write mixes to sweep.
    pub mixes: Vec<Mix>,
    /// LS:TC tenant ratios to sweep.
    pub ratios: Vec<(usize, usize)>,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Warmup simulated seconds per run.
    pub warmup_s: f64,
    /// Measured simulated seconds per run.
    pub measure_s: f64,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Fault-injection profile applied to every expanded scenario
    /// (`None` = perfect fabric, bit-identical to pre-faults sweeps).
    pub faults: Option<FaultProfile>,
    /// Cluster size: number of NVMe-oF targets per scenario (1 = the
    /// classic single-target path).
    pub targets: usize,
    /// Tenant → target placement policy for cluster scenarios.
    pub placement: PlacementSpec,
    /// Live migrations applied to every expanded scenario.
    pub migrations: Vec<MigrationSpec>,
    /// Route cross-lane schedules through the kernel's mailbox
    /// mesh in every expanded scenario (DESIGN.md §17). Results are
    /// byte-identical to the direct path by construction.
    pub parallel: bool,
}

/// One expanded point of the sweep (the cross-product coordinates).
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Runtime under test.
    pub runtime: RuntimeKind,
    /// Fabric speed in Gbps.
    pub speed_gbps: u32,
    /// Mix read fraction.
    pub read_fraction: f64,
    /// LS tenants.
    pub ls: usize,
    /// TC tenants.
    pub tc: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Point {
    fn runtime_name(&self) -> &'static str {
        match self.runtime {
            RuntimeKind::Spdk => "spdk",
            RuntimeKind::Opf => "opf",
        }
    }

    fn mix_name(&self) -> String {
        if self.read_fraction >= 1.0 {
            "read".to_string()
        } else if self.read_fraction <= 0.0 {
            "write".to_string()
        } else {
            format!("mixed-{}", format_f64(self.read_fraction))
        }
    }
}

fn parse_runtime(v: &Json, at: String) -> Result<RuntimeKind, Error> {
    match v.as_str() {
        Some("spdk" | "SPDK") => Ok(RuntimeKind::Spdk),
        Some("opf" | "OPF" | "nvme-opf") => Ok(RuntimeKind::Opf),
        _ => Err(Error::invalid(
            at,
            format!("unknown runtime {v:?} (want \"spdk\" or \"opf\")"),
        )),
    }
}

fn parse_speed(v: &Json, at: String) -> Result<Gbps, Error> {
    match v.as_u64() {
        Some(10) => Ok(Gbps::G10),
        Some(25) => Ok(Gbps::G25),
        Some(100) => Ok(Gbps::G100),
        _ => Err(Error::invalid(
            at,
            format!("unknown speed {v:?} (want 10, 25 or 100)"),
        )),
    }
}

fn parse_mix(v: &Json, at: String) -> Result<Mix, Error> {
    match (v.as_f64(), v.as_str()) {
        (Some(f), _) if (0.0..=1.0).contains(&f) => Ok(Mix { read_fraction: f }),
        (Some(f), _) => Err(Error::invalid(
            at,
            format!("mix fraction {f} outside [0, 1]"),
        )),
        (_, Some("read")) => Ok(Mix::READ),
        (_, Some("write")) => Ok(Mix::WRITE),
        (_, Some("mixed")) => Ok(Mix::MIXED),
        _ => Err(Error::invalid(
            at,
            format!("unknown mix {v:?} (want \"read\", \"write\", \"mixed\" or a fraction)"),
        )),
    }
}

fn parse_ratio(v: &Json, at: String) -> Result<(usize, usize), Error> {
    let pair = v
        .as_arr()
        .map(|a| a.iter().map(Json::as_u64).collect::<Vec<_>>());
    match pair.as_deref() {
        Some([Some(ls), Some(tc)]) if ls.saturating_add(*tc) > 0 => {
            Ok((*ls as usize, *tc as usize))
        }
        Some([Some(_), Some(_)]) => Err(Error::invalid(at, "ratio [0, 0] has no tenants")),
        _ => Err(Error::invalid(
            at,
            format!("ratio {v:?} must be [ls, tc] (two non-negative integers)"),
        )),
    }
}

const SPEC_KEYS: &[&str] = &[
    "name",
    "runtimes",
    "speeds",
    "mixes",
    "ratios",
    "seeds",
    "warmup_s",
    "measure_s",
    "threads",
    "faults",
    "targets",
    "placement",
    "migration",
    "parallel",
];

const FAULT_KEYS: &[&str] = &[
    "drop_p",
    "dup_p",
    "delay_p",
    "delay_max_us",
    "corrupt_p",
    "reorder_p",
    "reorder_hold_us",
    "retry_timeout_us",
    "retry_max",
    "redrain_timeout_us",
    "keepalive_us",
    "kato_us",
    "settle_s",
    "flaps",
    "degrade",
    "stalls",
    "crashes",
    "adversary",
];

const ADVERSARY_KEYS: &[&str] = &[
    "link",
    "forge_ls_p",
    "invalid_flags_p",
    "drain_flood_p",
    "replay_p",
    "spoof_p",
    "spoof_victim",
    "harden",
];

/// A probability.
const PROB: std::ops::RangeInclusive<f64> = 0.0..=1.0;

/// The `"faults"` block. Durations in µs take any number (a non-positive
/// or overflowing one reads as zero); window times take any number >= 0.
fn parse_faults(f: &Obj) -> Result<FaultProfile, Error> {
    let us = |key| {
        Ok::<_, Error>(
            f.num(key, ..)?
                .map(|us| SimDuration::from_secs_f64(us / 1e6)),
        )
    };
    // One `{"at_s": …, "for_s": …}` entry of a scheduled-window list.
    let window = |e: &Obj| -> Result<(SimTime, SimDuration), Error> {
        let at = e.need("at_s", e.num("at_s", 0.0..)?)?;
        let dur = e.need("for_s", e.num("for_s", 0.0..)?)?;
        Ok((
            SimTime::from_nanos((at * 1e9) as u64),
            SimDuration::from_secs_f64(dur),
        ))
    };
    let d = FaultProfile::default();
    let mut retry = match us("retry_timeout_us")? {
        Some(timeout) => (timeout > SimDuration::ZERO).then_some(RetryPolicy {
            timeout,
            max_retries: d.retry.map_or(6, |r| r.max_retries),
        }),
        None => d.retry,
    };
    if let (Some(r), Some(n)) = (&mut retry, f.int("retry_max", 0..=u32::MAX)?) {
        r.max_retries = n;
    }
    let keepalive = match us("keepalive_us")? {
        Some(every) => Some(KeepAliveSpec {
            every,
            kato: us("kato_us")?.unwrap_or(every * 3),
        }),
        None => None,
    };
    let ad = Adversary::default();
    let adversary = match f.obj("adversary", ADVERSARY_KEYS)? {
        None => None,
        Some(a) => Some(Adversary {
            link: a.need("link", a.int("link", ..)?)?,
            forge_ls_p: a.f64("forge_ls_p", PROB)?.unwrap_or(ad.forge_ls_p),
            invalid_flags_p: a
                .f64("invalid_flags_p", PROB)?
                .unwrap_or(ad.invalid_flags_p),
            drain_flood_p: a.f64("drain_flood_p", PROB)?.unwrap_or(ad.drain_flood_p),
            replay_p: a.f64("replay_p", PROB)?.unwrap_or(ad.replay_p),
            spoof_p: a.f64("spoof_p", PROB)?.unwrap_or(ad.spoof_p),
            spoof_victim: a
                .int("spoof_victim", 0..=u8::MAX)?
                .unwrap_or(ad.spoof_victim),
            harden: a.bool("harden")?.unwrap_or(ad.harden),
        }),
    };
    Ok(FaultProfile {
        drop_p: f.f64("drop_p", PROB)?.unwrap_or(d.drop_p),
        dup_p: f.f64("dup_p", PROB)?.unwrap_or(d.dup_p),
        delay_p: f.f64("delay_p", PROB)?.unwrap_or(d.delay_p),
        delay_max: us("delay_max_us")?.unwrap_or(d.delay_max),
        corrupt_p: f.f64("corrupt_p", PROB)?.unwrap_or(d.corrupt_p),
        reorder_p: f.f64("reorder_p", PROB)?.unwrap_or(d.reorder_p),
        reorder_hold: us("reorder_hold_us")?.unwrap_or(d.reorder_hold),
        flaps: f
            .items("flaps", |e, at| {
                let e = e.obj(at, &["link", "at_s", "for_s"])?;
                let (at, dur) = window(&e)?;
                let link = e.need("link", e.int("link", ..)?)?;
                Ok(LinkFlap { link, at, dur })
            })?
            .unwrap_or_default(),
        degrades: f
            .items("degrade", |e, at| {
                let e = e.obj(at, &["factor", "at_s", "for_s"])?;
                let (at, dur) = window(&e)?;
                let factor = e.f64("factor", 1.0..)?.unwrap_or(2.0);
                Ok(Degrade { at, dur, factor })
            })?
            .unwrap_or_default(),
        stalls: f
            .items("stalls", |e, at| {
                let (at, dur) = window(&e.obj(at, &["at_s", "for_s"])?)?;
                Ok(Stall { at, dur })
            })?
            .unwrap_or_default(),
        crashes: f
            .items("crashes", |e, at| {
                let e = e.obj(at, &["tenant", "at_s", "for_s"])?;
                let (at, dur) = window(&e)?;
                let tenant = e.need("tenant", e.int("tenant", ..)?)?;
                Ok(Crash { tenant, at, dur })
            })?
            .unwrap_or_default(),
        retry,
        redrain_timeout: match us("redrain_timeout_us")? {
            Some(t) => (t > SimDuration::ZERO).then_some(t),
            None => d.redrain_timeout,
        },
        keepalive,
        adversary,
        settle_s: f.f64("settle_s", 0.0..)?.unwrap_or(d.settle_s),
    })
}

/// ```json
/// "placement": {"policy": "pinned", "pins": [0, 1, 0]}
/// ```
/// Policies: `"round_robin"` (default), `"least_loaded"`, `"pinned"`
/// (requires `pins`).
fn parse_placement(p: &Obj) -> Result<PlacementSpec, Error> {
    let policy = p.need("policy", p.str("policy")?)?;
    let pins = p.items("pins", |v, at| {
        v.as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| Error::invalid(at, format!("pin {v:?} is not an integer")))
    })?;
    match (policy, pins) {
        ("round_robin" | "least_loaded", Some(_)) => Err(p.err(format!(
            "\"pins\" only applies to policy \"pinned\" (got \"{policy}\")"
        ))),
        ("round_robin", None) => Ok(PlacementSpec::RoundRobin),
        ("least_loaded", None) => Ok(PlacementSpec::LeastLoaded),
        ("pinned", pins) => Ok(PlacementSpec::Pinned(p.need("pins", pins)?)),
        (other, _) => Err(p.err(format!(
            "unknown policy {other:?} (want \"round_robin\", \"least_loaded\" or \"pinned\")"
        ))),
    }
}

/// ```json
/// "migration": {"moves": [{"tenant": 1, "at_s": 0.05, "to_target": 0}]}
/// ```
/// `at_s` is seconds into the measured window.
fn parse_migrations(m: &Obj) -> Result<Vec<MigrationSpec>, Error> {
    let moves = m.items("moves", |e, at| {
        let e = e.obj(at, &["tenant", "at_s", "to_target"])?;
        Ok(MigrationSpec {
            tenant: e.need("tenant", e.int("tenant", ..)?)?,
            at_s: e.need("at_s", e.f64("at_s", 0.0..)?)?,
            to_target: e.need("to_target", e.int("to_target", ..)?)?,
        })
    })?;
    m.need("moves", moves)
}

impl SweepSpec {
    /// Parse a spec document. Only `name` is required; everything else
    /// defaults to a small two-runtime smoke sweep at 100 Gbps.
    pub fn from_json(src: &str) -> Result<SweepSpec, String> {
        let spec = SweepSpec::read(&json::parse(src)?).map_err(|e| e.to_string())?;
        // Duplicate seeds silently double-count a grid point: every
        // derived statistic (means, fairness spreads, campaign gates)
        // would be quietly biased toward the repeated run. Hard error.
        for (i, &s) in spec.seeds.iter().enumerate() {
            if spec.seeds[..i].contains(&s) {
                return Err(format!(
                    "duplicate seed {s} (each seed must appear once; \
                     repeated seeds double-count runs in derived statistics)"
                ));
            }
        }
        // Fail a scenario the runner cannot build (cluster on the
        // baseline, too many tenants per node, a migration out of range)
        // up front with its typed error, never mid-sweep. Validity does
        // not depend on the speed, mix or seed axes.
        for &runtime in &spec.runtimes {
            for &(ls, tc) in &spec.ratios {
                spec.scenario(
                    runtime,
                    spec.speeds[0],
                    spec.mixes[0],
                    ls,
                    tc,
                    spec.seeds[0],
                )
                .validate()
                .map_err(|e| format!("{} {ls}:{tc}: {e}", runtime.label()))?;
            }
        }
        Ok(spec)
    }

    /// The spec's fields, each checked on its own.
    fn read(doc: &Json) -> Result<SweepSpec, Error> {
        let o = doc.obj("", SPEC_KEYS)?;
        let name = o.need("name", o.str("name")?)?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(o.err(format!(
                "name {name:?} must be non-empty [A-Za-z0-9_-] (it names the output file)"
            )));
        }
        let seed = |v: &Json, at: String| {
            v.as_u64()
                .ok_or_else(|| Error::invalid(at, format!("seed {v:?} is not an integer")))
        };
        Ok(SweepSpec {
            name,
            runtimes: o
                .nonempty("runtimes", parse_runtime)?
                .unwrap_or_else(|| vec![RuntimeKind::Spdk, RuntimeKind::Opf]),
            speeds: o
                .nonempty("speeds", parse_speed)?
                .unwrap_or_else(|| vec![Gbps::G100]),
            mixes: o
                .nonempty("mixes", parse_mix)?
                .unwrap_or_else(|| vec![Mix::READ]),
            ratios: o
                .nonempty("ratios", parse_ratio)?
                .unwrap_or_else(|| vec![(1, 1)]),
            seeds: o.nonempty("seeds", seed)?.unwrap_or_else(|| vec![42]),
            warmup_s: o.f64("warmup_s", 0.0..)?.unwrap_or(0.05),
            measure_s: o.f64("measure_s", json::POSITIVE)?.unwrap_or(0.15),
            threads: o.int("threads", 1..)?,
            faults: o
                .obj("faults", FAULT_KEYS)?
                .map(|f| parse_faults(&f))
                .transpose()?,
            targets: o.int("targets", 1..)?.unwrap_or(1),
            placement: match o.obj("placement", &["policy", "pins"])? {
                Some(p) => parse_placement(&p)?,
                None => PlacementSpec::RoundRobin,
            },
            migrations: match o.obj("migration", &["moves"])? {
                Some(m) => parse_migrations(&m)?,
                None => Vec::new(),
            },
            parallel: o.bool("parallel")?.unwrap_or(false),
        })
    }

    /// The scenario at one grid point.
    fn scenario(
        &self,
        runtime: RuntimeKind,
        speed: Gbps,
        mix: Mix,
        ls: usize,
        tc: usize,
        seed: u64,
    ) -> Scenario {
        let mut sc = Scenario::ratio(runtime, speed, mix, ls, tc);
        sc.warmup_s = self.warmup_s;
        sc.measure_s = self.measure_s;
        sc.seed = seed;
        sc.faults = self.faults.clone();
        sc.targets = self.targets;
        sc.placement = self.placement.clone();
        sc.migrations = self.migrations.clone();
        sc.parallel = self.parallel;
        sc
    }

    /// Expand the cross product in its canonical order: runtime (outer)
    /// × speed × mix × ratio × seed (inner). Report points keep this
    /// index order regardless of which worker finishes first.
    pub fn expand(&self) -> Vec<(Point, Scenario)> {
        let mut out = Vec::new();
        for &runtime in &self.runtimes {
            for &speed in &self.speeds {
                for &mix in &self.mixes {
                    for &(ls, tc) in &self.ratios {
                        for &seed in &self.seeds {
                            let sc = self.scenario(runtime, speed, mix, ls, tc, seed);
                            let point = Point {
                                runtime,
                                speed_gbps: match speed {
                                    Gbps::G10 => 10,
                                    Gbps::G25 => 25,
                                    Gbps::G100 => 100,
                                },
                                read_fraction: mix.read_fraction,
                                ls,
                                tc,
                                seed,
                            };
                            out.push((point, sc));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Run every point of the spec (parallel fan-out, deterministic order).
pub fn run_spec(spec: &SweepSpec) -> Vec<(Point, RunResult)> {
    let expanded = spec.expand();
    let scenarios: Vec<Scenario> = expanded.iter().map(|(_, sc)| sc.clone()).collect();
    let results = experiments::sweep::run_all(&scenarios, spec.threads);
    expanded.into_iter().map(|(p, _)| p).zip(results).collect()
}

fn result_json(r: &RunResult) -> String {
    format!(
        concat!(
            "{{\"tc_iops\":{},\"tc_mb_s\":{},\"tc_avg_us\":{},\"tc_p9999_us\":{},",
            "\"ls_iops\":{},\"ls_avg_us\":{},\"ls_p9999_us\":{},",
            "\"notifications\":{},\"completed\":{},\"reactor_util\":{},\"events\":{}}}"
        ),
        format_f64(r.tc_iops),
        format_f64(r.tc_mb_s),
        format_f64(r.tc_avg_us),
        format_f64(r.tc_p9999_us),
        format_f64(r.ls_iops),
        format_f64(r.ls_avg_us),
        format_f64(r.ls_p9999_us),
        r.notifications,
        r.completed,
        format_f64(r.reactor_util),
        r.events,
    )
}

/// Render the `BENCH_<name>.json` document.
pub fn report_json(spec: &SweepSpec, points: &[(Point, RunResult)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"name\": \"{}\",\n  \"schema\": \"nvme-opf.sweep.v1\",\n",
        json::escape(&spec.name)
    ));
    out.push_str(&format!(
        "  \"warmup_s\": {},\n  \"measure_s\": {},\n",
        format_f64(spec.warmup_s),
        format_f64(spec.measure_s)
    ));
    out.push_str("  \"points\": [\n");
    for (i, (p, r)) in points.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"runtime\":\"{}\",\"speed_gbps\":{},\"mix\":\"{}\",",
                "\"read_fraction\":{},\"ls\":{},\"tc\":{},\"seed\":{},\n",
                "     \"result\":{},\n",
                "     \"snapshot\":{}}}{}\n"
            ),
            p.runtime_name(),
            p.speed_gbps,
            p.mix_name(),
            format_f64(p.read_fraction),
            p.ls,
            p.tc,
            p.seed,
            result_json(r),
            r.metrics.to_json(),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the flat CSV companion (scalar columns only; the full metric
/// snapshots live in the JSON report).
pub fn report_csv(points: &[(Point, RunResult)]) -> String {
    let mut out = String::from(
        "runtime,speed_gbps,mix,read_fraction,ls,tc,seed,\
         tc_iops,tc_mb_s,tc_avg_us,tc_p9999_us,\
         ls_iops,ls_avg_us,ls_p9999_us,\
         notifications,completed,reactor_util,events\n",
    );
    for (p, r) in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            p.runtime_name(),
            p.speed_gbps,
            p.mix_name(),
            format_f64(p.read_fraction),
            p.ls,
            p.tc,
            p.seed,
            format_f64(r.tc_iops),
            format_f64(r.tc_mb_s),
            format_f64(r.tc_avg_us),
            format_f64(r.tc_p9999_us),
            format_f64(r.ls_iops),
            format_f64(r.ls_avg_us),
            format_f64(r.ls_p9999_us),
            r.notifications,
            r.completed,
            format_f64(r.reactor_util),
            r.events,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"{
        "name": "tiny",
        "runtimes": ["opf"],
        "speeds": [100],
        "mixes": ["read"],
        "ratios": [[0, 1]],
        "seeds": [7],
        "warmup_s": 0.01,
        "measure_s": 0.03,
        "threads": 1
    }"#;

    #[test]
    fn spec_parses_with_defaults() {
        let spec = SweepSpec::from_json(r#"{"name": "d"}"#).unwrap();
        assert_eq!(spec.runtimes.len(), 2);
        assert_eq!(spec.speeds, vec![Gbps::G100]);
        assert_eq!(spec.ratios, vec![(1, 1)]);
        assert_eq!(spec.seeds, vec![42]);
        assert!(spec.threads.is_none());
        // 2 runtimes × 1 speed × 1 mix × 1 ratio × 1 seed.
        assert_eq!(spec.expand().len(), 2);
    }

    #[test]
    fn duplicate_seeds_are_a_hard_error() {
        let err = SweepSpec::from_json(r#"{"name": "d", "seeds": [7, 8, 7]}"#).unwrap_err();
        assert!(err.contains("duplicate seed 7"), "{err}");
        // Distinct seeds still parse.
        assert!(SweepSpec::from_json(r#"{"name": "d", "seeds": [7, 8]}"#).is_ok());
    }

    #[test]
    fn spec_rejects_bad_input() {
        assert!(SweepSpec::from_json("{}").is_err(), "name required");
        assert!(SweepSpec::from_json(r#"{"name": "a/b"}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","speeds":[40]}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","runtimes":[]}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","ratios":[[0,0]]}"#).is_err());
        // Found by the reader fuzz: the pair's sum overflowed `usize`.
        let huge = r#"{"name":"x","ratios":[[18446744073709551615,2]]}"#;
        let err = SweepSpec::from_json(huge).unwrap_err();
        assert!(err.contains("tenant-id space"), "{err}");
        assert!(SweepSpec::from_json(r#"{"name":"x","measure_s":0}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","threads":0}"#).is_err());
        // A present key of the wrong type is an error naming it, never
        // the default.
        for (doc, want) in [
            (
                r#"{"name":"x","warmup_s":"0.001"}"#,
                r#""warmup_s" must be a number"#,
            ),
            (
                r#"{"name":"x","measure_s":true}"#,
                r#""measure_s" must be a number"#,
            ),
        ] {
            let err = SweepSpec::from_json(doc).unwrap_err();
            assert!(err.contains(want), "{doc}: {err}");
        }
    }

    #[test]
    fn faults_block_parses_and_propagates() {
        let spec = SweepSpec::from_json(
            r#"{"name":"chaos","runtimes":["opf"],
                "faults":{"drop_p":0.01,"dup_p":0.002,
                          "retry_timeout_us":250,"retry_max":8,
                          "redrain_timeout_us":400,
                          "keepalive_us":4000,"kato_us":10000,
                          "settle_s":0.03,
                          "flaps":[{"link":0,"at_s":0.08,"for_s":0.015}],
                          "degrade":[{"at_s":0.1,"for_s":0.02,"factor":4.0}],
                          "crashes":[{"tenant":1,"at_s":0.1,"for_s":0.03}]}}"#,
        )
        .unwrap();
        let p = spec.faults.as_ref().unwrap();
        assert_eq!(p.drop_p, 0.01);
        assert_eq!(p.dup_p, 0.002);
        let r = p.retry.unwrap();
        assert_eq!(r.max_retries, 8);
        assert_eq!(r.timeout, SimDuration::from_micros(250));
        assert_eq!(p.redrain_timeout, Some(SimDuration::from_micros(400)));
        let ka = p.keepalive.unwrap();
        assert_eq!(ka.every, SimDuration::from_millis(4));
        assert_eq!(ka.kato, SimDuration::from_millis(10));
        assert_eq!(p.settle_s, 0.03);
        assert_eq!(p.flaps.len(), 1);
        assert_eq!(p.flaps[0].link, 0);
        assert_eq!(p.degrades[0].factor, 4.0);
        assert_eq!(p.crashes[0].tenant, 1);
        // The profile rides on every expanded scenario.
        let (_, sc) = &spec.expand()[0];
        assert_eq!(sc.faults.as_ref().unwrap().drop_p, 0.01);
    }

    #[test]
    fn adversary_block_parses_and_propagates() {
        let spec = SweepSpec::from_json(
            r#"{"name":"adv","runtimes":["opf"],"ratios":[[1,4]],
                "faults":{"drop_p":0.0,
                          "adversary":{"link":4,"forge_ls_p":0.5,
                                       "invalid_flags_p":0.1,"drain_flood_p":0.2,
                                       "replay_p":0.05,"spoof_p":0.3,
                                       "spoof_victim":2,"harden":false}}}"#,
        )
        .unwrap();
        let adv = spec.faults.as_ref().unwrap().adversary.unwrap();
        assert_eq!(adv.link, 4);
        assert_eq!(adv.forge_ls_p, 0.5);
        assert_eq!(adv.invalid_flags_p, 0.1);
        assert_eq!(adv.drain_flood_p, 0.2);
        assert_eq!(adv.replay_p, 0.05);
        assert_eq!(adv.spoof_p, 0.3);
        assert_eq!(adv.spoof_victim, 2);
        assert!(!adv.harden);
        // The adversary rides on every expanded scenario.
        let (_, sc) = &spec.expand()[0];
        assert_eq!(sc.faults.as_ref().unwrap().adversary, Some(adv));
        // Absent block leaves the plane honest; harden defaults to true.
        let plain = SweepSpec::from_json(r#"{"name":"x","faults":{"drop_p":0.01}}"#).unwrap();
        assert!(plain.faults.as_ref().unwrap().adversary.is_none());
        let min =
            SweepSpec::from_json(r#"{"name":"x","faults":{"adversary":{"link":1}}}"#).unwrap();
        assert!(min.faults.as_ref().unwrap().adversary.unwrap().harden);
    }

    #[test]
    fn adversary_block_rejects_bad_input() {
        for doc in [
            r#"{"name":"x","faults":{"adversary":{}}}"#,
            r#"{"name":"x","faults":{"adversary":{"link":0,"spoof_p":1.5}}}"#,
            r#"{"name":"x","faults":{"adversary":{"link":0,"spoof_victim":300}}}"#,
        ] {
            assert!(SweepSpec::from_json(doc).is_err(), "should reject: {doc}");
        }
        for (doc, want) in [
            (
                r#"{"name":"x","faults":{"adversary":{"link":0,"harden":"no"}}}"#,
                r#"faults.adversary: "harden" must be a boolean"#,
            ),
            (
                r#"{"name":"x","faults":{"adversary":{"link":0,"spoof_victim":"2"}}}"#,
                r#"faults.adversary: "spoof_victim" must be an integer"#,
            ),
        ] {
            let err = SweepSpec::from_json(doc).unwrap_err();
            assert!(err.contains(want), "{doc}: {err}");
        }
    }

    #[test]
    fn faults_block_zero_timeouts_disable_recovery() {
        let spec = SweepSpec::from_json(
            r#"{"name":"x","faults":{"retry_timeout_us":0,"redrain_timeout_us":0}}"#,
        )
        .unwrap();
        let p = spec.faults.as_ref().unwrap();
        assert!(p.retry.is_none());
        assert!(p.redrain_timeout.is_none());
    }

    #[test]
    fn faults_block_rejects_bad_input() {
        assert!(SweepSpec::from_json(r#"{"name":"x","faults":{"drop_p":1.5}}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","faults":{"drop_p":"lots"}}"#).is_err());
        assert!(
            SweepSpec::from_json(r#"{"name":"x","faults":{"flaps":[{"at_s":0.1}]}}"#).is_err(),
            "flap without for_s"
        );
        assert!(
            SweepSpec::from_json(
                r#"{"name":"x","faults":{"degrade":[{"at_s":0,"for_s":1,"factor":0.5}]}}"#
            )
            .is_err(),
            "degrade factor below 1 would speed the link up"
        );
        // A retry budget is a count: it used to be read as a number and
        // truncated, so -1 meant 0 retries and 2.5 meant 2.
        for n in ["-1", "2.5", "4294967296"] {
            let doc = format!(r#"{{"name":"x","faults":{{"retry_max":{n}}}}}"#);
            let err = SweepSpec::from_json(&doc).unwrap_err();
            assert!(
                err.contains(r#"faults: "retry_max" must be an integer"#),
                "{doc}: {err}"
            );
        }
        for key in ["flaps", "degrade", "stalls", "crashes"] {
            let doc = format!(r#"{{"name":"x","faults":{{"{key}":{{"at_s":0.1,"for_s":0.1}}}}}}"#);
            let err = SweepSpec::from_json(&doc).unwrap_err();
            assert!(
                err.contains(&format!(r#"faults: "{key}" must be an array"#)),
                "{doc}: {err}"
            );
        }
    }

    #[test]
    fn cluster_blocks_parse_and_propagate() {
        let spec = SweepSpec::from_json(
            r#"{"name":"cl","runtimes":["opf"],"targets":2,
                "placement":{"policy":"pinned","pins":[0,1,0]},
                "migration":{"moves":[{"tenant":1,"at_s":0.05,"to_target":0}]}}"#,
        )
        .unwrap();
        assert_eq!(spec.targets, 2);
        assert_eq!(spec.placement, PlacementSpec::Pinned(vec![0, 1, 0]));
        assert_eq!(
            spec.migrations,
            vec![MigrationSpec {
                tenant: 1,
                at_s: 0.05,
                to_target: 0
            }]
        );
        let (_, sc) = &spec.expand()[0];
        assert_eq!(sc.targets, 2);
        assert!(sc.is_cluster());
        // Defaults when absent: single target, round-robin, no moves.
        let plain = SweepSpec::from_json(r#"{"name":"x"}"#).unwrap();
        assert_eq!(plain.targets, 1);
        assert_eq!(plain.placement, PlacementSpec::RoundRobin);
        assert!(plain.migrations.is_empty());
        assert!(!plain.expand()[0].1.is_cluster());
    }

    #[test]
    fn parallel_knob_parses_and_propagates() {
        let spec = SweepSpec::from_json(r#"{"name":"p","parallel":true}"#).unwrap();
        assert!(spec.parallel);
        assert!(spec.expand().iter().all(|(_, sc)| sc.parallel));
        // Defaults off, so existing specs replay the direct path.
        let plain = SweepSpec::from_json(r#"{"name":"x"}"#).unwrap();
        assert!(!plain.parallel);
        assert!(!plain.expand()[0].1.parallel);
        assert!(
            SweepSpec::from_json(r#"{"name":"x","parallel":1}"#).is_err(),
            "parallel must be a boolean"
        );
    }

    #[test]
    fn cluster_blocks_reject_bad_input() {
        for (doc, why) in [
            (r#"{"name":"x","targets":0}"#, "zero targets"),
            (
                r#"{"name":"x","targets":2}"#,
                "cluster sweep defaults include the spdk runtime",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"round_robin","pins":[0]}}"#,
                "pins without pinned policy",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"wat"}}"#,
                "unknown policy",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"round_robin","typo":1}}"#,
                "unknown placement key",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[],"typo":1}}"#,
                "unknown migration key",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":1,"at_s":0.05,"to_target":0,"typo":1}]}}"#,
                "unknown move key",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":1,"at_s":0.05,"to_target":5}]}}"#,
                "to_target out of range",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":1,"at_s":-0.1,"to_target":0}]}}"#,
                "negative at_s",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":2,"at_s":0.05,"to_target":0}]}}"#,
                "migration tenant out of range (default ratio is 1:1)",
            ),
            // The three specs that used to abort or silently corrupt:
            // id 255 is reserved, cluster ids stop at 62, ids wrap past u8.
            (
                r#"{"name":"x","runtimes":["opf"],"ratios":[[0,256]]}"#,
                "oPF tenant ids past the CID-queue owner field",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"ratios":[[0,64]],"targets":2}"#,
                "64 tenants per node in a cluster",
            ),
            (
                r#"{"name":"x","runtimes":["spdk"],"ratios":[[0,300]]}"#,
                "tenant ids wrapping u8",
            ),
            // Typo'd knobs and fault indices naming no initiator used to
            // run a healthy fabric and report zero faults.
            (r#"{"name":"x","mesure_s":0.01}"#, "unknown spec key"),
            (
                r#"{"name":"x","faults":{"drop_pp":0.05}}"#,
                "unknown faults key",
            ),
            (
                r#"{"name":"x","faults":{"adversary":{"link":0,"forge_ls":0.5}}}"#,
                "unknown adversary key",
            ),
            (
                r#"{"name":"x","faults":{"stalls":[{"at_s":0.1,"for_s":0.1,"link":0}]}}"#,
                "unknown stall entry key",
            ),
            (
                r#"{"name":"x","ratios":[[1,2]],
                    "faults":{"flaps":[{"link":99,"at_s":0.1,"for_s":0.1}]}}"#,
                "flap link out of range",
            ),
            (
                r#"{"name":"x","ratios":[[1,2]],
                    "faults":{"crashes":[{"tenant":99,"at_s":0.1,"for_s":0.1}]}}"#,
                "crash tenant out of range",
            ),
            (
                r#"{"name":"x","ratios":[[1,2]],
                    "faults":{"adversary":{"link":99,"forge_ls_p":0.5}}}"#,
                "adversary link out of range",
            ),
            // Both simulated without end at 42de97b.
            (
                r#"{"name":"x","runtimes":["opf"],"seeds":[1],"measure_s":0.02,
                    "faults":{"keepalive_us":0}}"#,
                "zero keep-alive period",
            ),
            (
                r#"{"name":"x","faults":{"keepalive_us":-5}}"#,
                "negative keep-alive period",
            ),
            (
                r#"{"name":"x","measure_s":1e9}"#,
                "a billion simulated seconds",
            ),
        ] {
            assert!(
                SweepSpec::from_json(doc).is_err(),
                "should reject {why}: {doc}"
            );
        }
    }

    #[test]
    fn expansion_order_is_canonical() {
        let spec = SweepSpec::from_json(
            r#"{"name":"x","runtimes":["spdk","opf"],"speeds":[10,100],"seeds":[1,2]}"#,
        )
        .unwrap();
        let points: Vec<Point> = spec.expand().into_iter().map(|(p, _)| p).collect();
        assert_eq!(points.len(), 8);
        // runtime is the outermost axis, seed the innermost.
        assert_eq!(points[0].runtime, RuntimeKind::Spdk);
        assert_eq!((points[0].speed_gbps, points[0].seed), (10, 1));
        assert_eq!((points[1].speed_gbps, points[1].seed), (10, 2));
        assert_eq!((points[2].speed_gbps, points[2].seed), (100, 1));
        assert_eq!(points[4].runtime, RuntimeKind::Opf);
    }

    #[test]
    fn report_is_bit_identical_across_runs() {
        let spec = SweepSpec::from_json(TINY).unwrap();
        let a = run_spec(&spec);
        let b = run_spec(&spec);
        let ja = report_json(&spec, &a);
        let jb = report_json(&spec, &b);
        assert_eq!(ja, jb, "same spec + seeds must serialize identically");
        assert_eq!(report_csv(&a), report_csv(&b));
        // And the report parses back as valid JSON.
        let doc = json::parse(&ja).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("tiny"));
        let pts = doc.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 1);
        let snap = pts[0].get("snapshot").unwrap();
        assert!(snap.get("metrics").unwrap().get("tc.iops").is_some());
        assert!(
            pts[0]
                .get("result")
                .unwrap()
                .get("tc_iops")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let mut spec = SweepSpec::from_json(
            r#"{"name":"par","runtimes":["opf"],"ratios":[[0,1]],
                "seeds":[1,2,3,4],"warmup_s":0.01,"measure_s":0.02}"#,
        )
        .unwrap();
        spec.threads = Some(1);
        let serial = run_spec(&spec);
        spec.threads = Some(4);
        let parallel = run_spec(&spec);
        assert_eq!(report_json(&spec, &serial), report_json(&spec, &parallel));
    }
}
