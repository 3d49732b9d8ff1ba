//! # spec — one experiment grid behind the sweep and campaign doors
//!
//! An [`ExperimentSpec`] writes the paper's evaluation grid (§V) once:
//!
//! - a **base** block holding every knob once: runtime, fabric speed,
//!   LS and TC tenant counts, a fault profile, the cluster's targets
//!   and migrations, and the mailbox-mesh switch;
//! - optional **axes** (`runtimes`, `speeds`, `mixes`, `ratios`): an axis
//!   that is given replaces its base value;
//! - optional named **rows** ([`CampaignScenario`]) that override the
//!   base's tenant counts and add traffic, loss, shards and the mesh;
//! - **seeds**, and the **expectations** a campaign gates on.
//!
//! [`ExperimentSpec::expand`] yields every point in one order: runtime
//! (outer) × speed × mix × ratio × row × seed (inner). Each door checks
//! every point once with [`Scenario::validate`] before anything runs.
//!
//! Two front doors read it, each with its own root keys, defaults and
//! messages: [`ExperimentSpec::from_json`] reads a sweep spec (`sweep
//! <spec.json>`, schema in the `sweep` crate) and
//! [`ExperimentSpec::from_json_str`] a campaign spec (`sweep campaign
//! <spec.json>`, schema in [`crate::campaign`]). `sweep::SweepSpec` and
//! [`crate::campaign::CampaignSpec`] are both names of this type. Every
//! object goes through the one key-checked reader in [`json`]: an
//! unknown key anywhere is an error naming the block and the key.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::campaign::{CampaignScenario, Expectation};
use fabric::Gbps;
use faults::{Adversary, Crash, Degrade, FaultProfile, KeepAliveSpec, LinkFlap, Stall};
use nvmf::RetryPolicy;
use simkit::json::{self, Error, Json, Obj};
use simkit::{SimDuration, SimTime};
use workload::{MigrationSpec, Mix, RunResult, RuntimeKind, Scenario, ScenarioError};

/// One experiment grid: base block, axes, rows, seeds and gates.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Names the output: `BENCH_<name>.*` for a sweep,
    /// `campaign_<name>/` for a campaign.
    pub name: String,
    /// Seeds, each once: every point runs once per seed.
    pub seeds: Vec<u64>,
    /// Warmup simulated seconds per run.
    pub warmup_s: f64,
    /// Measured simulated seconds per run.
    pub measure_s: f64,
    /// Worker threads (`None` = available parallelism; the CLI may
    /// override).
    pub threads: Option<usize>,
    /// Base runtime.
    pub runtime: RuntimeKind,
    /// Base fabric speed.
    pub speed: Gbps,
    /// Base LS tenant count.
    pub ls: usize,
    /// Base TC tenant count.
    pub tc: usize,
    /// Fault-injection profile on every point (`None` = perfect fabric).
    pub faults: Option<FaultProfile>,
    /// Cluster size: NVMe-oF targets per scenario (1 = the classic
    /// single-target path).
    pub targets: usize,
    /// Live migrations applied to every point.
    pub migrations: Vec<MigrationSpec>,
    /// Route cross-lane schedules through the kernel's mailbox mesh on
    /// every point (DESIGN.md §17). Results are byte-identical to the
    /// direct path by construction.
    pub parallel: bool,
    /// Runtime axis (empty = the base runtime).
    pub runtimes: Vec<RuntimeKind>,
    /// Fabric speed axis (empty = the base speed).
    pub speeds: Vec<Gbps>,
    /// Read/write mix axis (empty = reads only).
    pub mixes: Vec<Mix>,
    /// LS:TC ratio axis (empty = the base `ls`:`tc`).
    pub ratios: Vec<(usize, usize)>,
    /// Named rows (empty = the base alone).
    pub scenarios: Vec<CampaignScenario>,
    /// The gates a campaign evaluates.
    pub expectations: Vec<Expectation>,
}

/// The coordinates of one expanded point.
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
    /// The row's index in [`ExperimentSpec::scenarios`], if it has rows.
    pub row: Option<usize>,
}

/// What a front door reads differently at the spec root.
pub(crate) struct Door {
    /// The root keys it accepts.
    pub keys: &'static [&'static str],
    /// The seed list when the key is absent. `None`: an absent list
    /// reads as empty, and so may a present one.
    pub seed: Option<u64>,
    /// `warmup_s` when absent.
    pub warmup_s: f64,
    /// `measure_s` when absent.
    pub measure_s: f64,
}

const SWEEP: Door = Door {
    keys: &[
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
    ],
    seed: Some(42),
    warmup_s: 0.05,
    measure_s: 0.15,
};

/// The runtime names both doors accept.
fn runtime(name: &str) -> Option<RuntimeKind> {
    match name {
        "spdk" | "SPDK" => Some(RuntimeKind::Spdk),
        "opf" | "OPF" | "nvme-opf" => Some(RuntimeKind::Opf),
        _ => None,
    }
}

/// The fabric speeds both doors accept, in Gbps.
fn speed(gbps: u64) -> Option<Gbps> {
    Gbps::ALL
        .into_iter()
        .find(|g| g.bits_per_sec() == gbps as f64 * 1e9)
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
/// "placement": {"policy": "round_robin"}
/// ```
/// Placement is not a knob: tenant slot *i* runs on target *i* mod
/// `targets`. The block is read only in this spelling, the one that
/// `opfbench/specs/cluster2_migrate.json` carries.
fn check_placement(p: &Obj) -> Result<(), Error> {
    match p.need("policy", p.str("policy")?)? {
        "round_robin" if p.get("pins").is_none() => Ok(()),
        "round_robin" => {
            Err(p.err("\"pins\" is not supported (slot i runs on target i mod targets)"))
        }
        other => Err(p.err(format!("unknown policy {other:?} (want \"round_robin\")"))),
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

/// `axis`, or the base value alone when the axis is not given.
fn or_base<T: Clone>(axis: &[T], base: T) -> Vec<T> {
    if axis.is_empty() {
        vec![base]
    } else {
        axis.to_vec()
    }
}

impl ExperimentSpec {
    /// Read the root fields both doors share (name, seeds, durations,
    /// threads, and the base runtime, speed and tenant counts) with the
    /// door's keys and defaults. Every other knob takes its base value;
    /// the root comes back for the door's own keys.
    pub(crate) fn read_root<'a>(
        doc: &'a Json,
        door: &Door,
    ) -> Result<(Obj<'a>, ExperimentSpec), Error> {
        let o = doc.obj("", door.keys)?;
        let name = o.need("name", o.str("name")?)?.to_string();
        let safe = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        if name.is_empty() || !name.chars().all(safe) {
            return Err(o.err(format!(
                "name {name:?} must be non-empty [A-Za-z0-9_-] (it names the output file)"
            )));
        }
        let seed = |v: &Json, at: String| {
            v.as_u64()
                .ok_or_else(|| Error::invalid(at, format!("seed {v:?} is not an integer")))
        };
        let seeds = match door.seed {
            Some(s) => o.nonempty("seeds", seed)?.unwrap_or_else(|| vec![s]),
            None => o.items("seeds", seed)?.unwrap_or_default(),
        };
        let runtime = match o.str("runtime")? {
            Some(s) => {
                runtime(s).ok_or_else(|| o.err(format!("unknown runtime \"{s}\" (opf | spdk)")))?
            }
            None => RuntimeKind::Opf,
        };
        let speed = match o.int("speed", ..)? {
            Some(n) => {
                speed(n).ok_or_else(|| o.err(format!("unknown speed {n} (10 | 25 | 100)")))?
            }
            None => Gbps::G100,
        };
        let spec = ExperimentSpec {
            name,
            seeds,
            warmup_s: o.f64("warmup_s", 0.0..)?.unwrap_or(door.warmup_s),
            measure_s: o
                .f64("measure_s", json::POSITIVE)?
                .unwrap_or(door.measure_s),
            threads: o.int("threads", 1..)?,
            runtime,
            speed,
            ls: o.int("ls", ..)?.unwrap_or(1),
            tc: o.int("tc", 1..)?.unwrap_or(2),
            faults: None,
            targets: 1,
            migrations: Vec::new(),
            parallel: false,
            runtimes: Vec::new(),
            speeds: Vec::new(),
            mixes: Vec::new(),
            ratios: Vec::new(),
            scenarios: Vec::new(),
            expectations: Vec::new(),
        };
        Ok((o, spec))
    }

    /// The first seed listed twice: it would double-count a run in every
    /// derived statistic (means, fairness spreads, campaign gates).
    pub(crate) fn duplicate_seed(&self) -> Option<u64> {
        let seeds = &self.seeds;
        (1..seeds.len())
            .find(|&i| seeds[..i].contains(&seeds[i]))
            .map(|i| seeds[i])
    }

    /// The one validation pass: every point in expansion order, so a
    /// scenario the runner cannot build fails up front with its typed
    /// error, never mid-run.
    pub(crate) fn check(&self) -> Result<(), (Point, ScenarioError)> {
        self.expand()
            .into_iter()
            .try_for_each(|(p, sc)| sc.validate().map_err(|e| (p, e)))
    }

    /// The sweep door. Only `name` is required; everything else
    /// defaults to a small two-runtime smoke sweep at 100 Gbps.
    pub fn from_json(src: &str) -> Result<ExperimentSpec, String> {
        let spec = ExperimentSpec::read_sweep(&json::parse(src)?).map_err(|e| e.to_string())?;
        if let Some(s) = spec.duplicate_seed() {
            return Err(format!(
                "duplicate seed {s} (each seed must appear once; \
                 repeated seeds double-count runs in derived statistics)"
            ));
        }
        spec.check()
            .map_err(|(p, e)| format!("{} {}:{}: {e}", p.runtime.label(), p.ls, p.tc))?;
        Ok(spec)
    }

    /// The sweep spec's fields, each checked on its own.
    fn read_sweep(doc: &Json) -> Result<ExperimentSpec, Error> {
        let (o, base) = ExperimentSpec::read_root(doc, &SWEEP)?;
        let parse_runtime = |v: &Json, at: String| {
            v.as_str().and_then(runtime).ok_or_else(|| {
                Error::invalid(
                    at,
                    format!("unknown runtime {v:?} (want \"spdk\" or \"opf\")"),
                )
            })
        };
        let parse_speed = |v: &Json, at: String| {
            v.as_u64().and_then(speed).ok_or_else(|| {
                Error::invalid(at, format!("unknown speed {v:?} (want 10, 25 or 100)"))
            })
        };
        let spec = ExperimentSpec {
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
            faults: o
                .obj("faults", FAULT_KEYS)?
                .map(|f| parse_faults(&f))
                .transpose()?,
            targets: o.int("targets", 1..)?.unwrap_or(1),
            migrations: match o.obj("migration", &["moves"])? {
                Some(m) => parse_migrations(&m)?,
                None => Vec::new(),
            },
            parallel: o.bool("parallel")?.unwrap_or(false),
            ..base
        };
        if let Some(p) = o.obj("placement", &["policy", "pins"])? {
            check_placement(&p)?;
        }
        Ok(spec)
    }

    /// Every point of the grid in its one order: runtime (outer) × speed
    /// × mix × ratio × row × seed (inner). Reports keep this order
    /// whichever worker finishes first.
    pub fn expand(&self) -> Vec<(Point, Scenario)> {
        let rows: Vec<Option<usize>> = match self.scenarios.len() {
            0 => vec![None],
            n => (0..n).map(Some).collect(),
        };
        let mut out = Vec::new();
        for runtime in or_base(&self.runtimes, self.runtime) {
            for speed in or_base(&self.speeds, self.speed) {
                for mix in or_base(&self.mixes, Mix::READ) {
                    for (ls, tc) in or_base(&self.ratios, (self.ls, self.tc)) {
                        for &row in &rows {
                            for &seed in &self.seeds {
                                out.push(self.point(runtime, speed, mix, (ls, tc), row, seed));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The scenario at one grid point: the base, then the row's
    /// overrides.
    fn point(
        &self,
        runtime: RuntimeKind,
        speed: Gbps,
        mix: Mix,
        (ls, tc): (usize, usize),
        row: Option<usize>,
        seed: u64,
    ) -> (Point, Scenario) {
        let r = row.and_then(|i| self.scenarios.get(i));
        let ls = r.and_then(|r| r.ls).unwrap_or(ls);
        let tc = r.and_then(|r| r.tc).unwrap_or(tc);
        let mut sc = Scenario::ratio(runtime, speed, mix, ls, tc);
        sc.warmup_s = self.warmup_s;
        sc.measure_s = self.measure_s;
        sc.seed = seed;
        sc.faults = self.faults.clone();
        sc.targets = self.targets;
        sc.migrations = self.migrations.clone();
        sc.parallel = self.parallel;
        if let Some(r) = r {
            sc.shards = r.shards;
            sc.parallel |= r.parallel;
            sc.traffic = Some(r.traffic.clone());
            if r.drop_p > 0.0 {
                // A lossy fabric with a deep retry budget.
                sc.faults = Some(FaultProfile {
                    drop_p: r.drop_p,
                    retry: Some(RetryPolicy {
                        timeout: SimDuration::from_micros(300),
                        max_retries: 32,
                    }),
                    ..FaultProfile::default()
                });
            }
        }
        let point = Point {
            runtime,
            speed_gbps: (speed.bits_per_sec() / 1e9) as u32,
            read_fraction: mix.read_fraction,
            ls,
            tc,
            seed,
            row,
        };
        (point, sc)
    }

    /// Run every point over [`crate::sweep::run_all`]'s one pool, in
    /// expansion order.
    pub fn run(&self, threads: Option<usize>) -> Vec<(Point, RunResult)> {
        let (points, grid): (Vec<Point>, Vec<Scenario>) = self.expand().into_iter().unzip();
        let results = crate::sweep::run_all(&grid, threads);
        points.into_iter().zip(results).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use RuntimeKind::{Opf, Spdk};

    /// `(runtime, row, seed, tc)` of every point, in expansion order.
    fn coords(spec: &ExperimentSpec) -> Vec<(RuntimeKind, Option<usize>, u64, usize)> {
        let points = spec.expand().into_iter().map(|(p, _)| p);
        points.map(|p| (p.runtime, p.row, p.seed, p.tc)).collect()
    }

    #[test]
    fn axes_then_rows_then_seeds() {
        let mut spec = ExperimentSpec::from_json_str(
            r#"{"name": "c", "seeds": [1, 2], "scenarios": [
                {"name": "a", "traffic": {"model": "poisson"}},
                {"name": "b", "traffic": {"model": "poisson"}, "tc": 3}]}"#,
        )
        .unwrap();
        // A campaign is rows × seeds, seed innermost; a row's `tc`
        // overrides the base's.
        let campaign = [
            (Opf, Some(0), 1, 2),
            (Opf, Some(0), 2, 2),
            (Opf, Some(1), 1, 3),
            (Opf, Some(1), 2, 3),
        ];
        assert_eq!(coords(&spec), campaign);
        // A given axis replaces its base value, outside the rows.
        spec.runtimes = vec![Spdk, Opf];
        let grid = coords(&spec);
        assert_eq!(grid.len(), 8);
        assert_eq!(grid[3], (Spdk, Some(1), 2, 3));
        assert_eq!(grid[4..], campaign);
        // A sweep has no rows.
        let sweep = ExperimentSpec::from_json(r#"{"name": "s", "seeds": [5]}"#).unwrap();
        assert_eq!(coords(&sweep), [(Spdk, None, 5, 1), (Opf, None, 5, 1)]);
    }

    #[test]
    fn duplicate_seed_is_the_first_repeat() {
        let mut spec = ExperimentSpec::from_json(r#"{"name": "s"}"#).unwrap();
        for (seeds, want) in [(vec![1, 2, 3], None), (vec![4, 5, 5, 4], Some(5))] {
            spec.seeds = seeds;
            assert_eq!(spec.duplicate_seed(), want);
        }
    }
}
