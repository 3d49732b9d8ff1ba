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
//! The two blocks are strictly validated: an unknown key inside either
//! is a hard parse error, never a silent no-op.
//!
//! ```json
//! {
//!   "targets": 2,
//!   "placement": {"policy": "pinned", "pins": [0, 1, 0]},
//!   "migration": {"moves": [{"tenant": 1, "at_s": 0.05, "to_target": 0}]}
//! }
//! ```

pub use simkit::json;

use fabric::Gbps;
use faults::{Adversary, Crash, Degrade, FaultProfile, KeepAliveSpec, LinkFlap, Stall};
use json::Json;
use nvmf::RetryPolicy;
use simkit::metrics::format_f64;
use simkit::{SimDuration, SimTime};
use workload::scenario::Speed;
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

fn parse_runtime(v: &Json) -> Result<RuntimeKind, String> {
    match v.as_str() {
        Some("spdk") | Some("SPDK") => Ok(RuntimeKind::Spdk),
        Some("opf") | Some("OPF") | Some("nvme-opf") => Ok(RuntimeKind::Opf),
        _ => Err(format!("unknown runtime {v:?} (want \"spdk\" or \"opf\")")),
    }
}

fn parse_speed(v: &Json) -> Result<Gbps, String> {
    match v.as_u64() {
        Some(10) => Ok(Gbps::G10),
        Some(25) => Ok(Gbps::G25),
        Some(100) => Ok(Gbps::G100),
        _ => Err(format!("unknown speed {v:?} (want 10, 25 or 100)")),
    }
}

fn parse_mix(v: &Json) -> Result<Mix, String> {
    if let Some(f) = v.as_f64() {
        if (0.0..=1.0).contains(&f) {
            return Ok(Mix { read_fraction: f });
        }
        return Err(format!("mix fraction {f} outside [0, 1]"));
    }
    match v.as_str() {
        Some("read") => Ok(Mix::READ),
        Some("write") => Ok(Mix::WRITE),
        Some("mixed") => Ok(Mix::MIXED),
        _ => Err(format!(
            "unknown mix {v:?} (want \"read\", \"write\", \"mixed\" or a fraction)"
        )),
    }
}

fn parse_ratio(v: &Json) -> Result<(usize, usize), String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("ratio {v:?} not a pair"))?;
    match arr {
        [ls, tc] => {
            let ls = ls.as_u64().ok_or("LS count not an integer")? as usize;
            let tc = tc.as_u64().ok_or("TC count not an integer")? as usize;
            if ls.saturating_add(tc) == 0 {
                return Err("ratio [0, 0] has no tenants".to_string());
            }
            Ok((ls, tc))
        }
        _ => Err(format!("ratio {v:?} must be [ls, tc]")),
    }
}

fn list<T>(
    doc: &Json,
    key: &str,
    parse_one: impl Fn(&Json) -> Result<T, String>,
    default: Vec<T>,
) -> Result<Vec<T>, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| format!("{key} must be an array"))?;
            if arr.is_empty() {
                return Err(format!("{key} must not be empty"));
            }
            arr.iter()
                .map(&parse_one)
                .collect::<Result<Vec<T>, String>>()
                .map_err(|e| format!("{key}: {e}"))
        }
    }
}

/// [`Json::field`] with the block it sits in (`ctx`) named in the error.
fn field<'a, T>(
    v: &'a Json,
    ctx: &str,
    key: &str,
    want: &str,
    conv: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    v.field(key, want, conv).map_err(|e| format!("{ctx}: {e}"))
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    field(v, "faults", key, "a number", Json::as_f64)
}

fn opt_prob(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match opt_f64(v, key)? {
        Some(p) if !(0.0..=1.0).contains(&p) => Err(format!("faults.{key} = {p} outside [0, 1]")),
        other => Ok(other),
    }
}

/// A duration given in microseconds.
fn opt_us(v: &Json, key: &str) -> Result<Option<SimDuration>, String> {
    Ok(opt_f64(v, key)?.map(|us| SimDuration::from_secs_f64(us / 1e6)))
}

/// An `{"at_s": …, "for_s": …}` scheduled window.
fn window(v: &Json, key: &str) -> Result<(SimTime, SimDuration), String> {
    let at = opt_f64(v, "at_s")?.ok_or_else(|| format!("faults.{key} entry needs at_s"))?;
    let dur = opt_f64(v, "for_s")?.ok_or_else(|| format!("faults.{key} entry needs for_s"))?;
    if at < 0.0 || dur < 0.0 {
        return Err(format!("faults.{key} window must be non-negative"));
    }
    Ok((
        SimTime::from_nanos((at * 1e9) as u64),
        SimDuration::from_secs_f64(dur),
    ))
}

fn parse_faults(doc: &Json) -> Result<Option<FaultProfile>, String> {
    let Some(v) = doc.get("faults") else {
        return Ok(None);
    };
    check_keys(
        v,
        "faults",
        &[
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
        ],
    )?;
    let mut p = FaultProfile::default();
    if let Some(x) = opt_prob(v, "drop_p")? {
        p.drop_p = x;
    }
    if let Some(x) = opt_prob(v, "dup_p")? {
        p.dup_p = x;
    }
    if let Some(x) = opt_prob(v, "delay_p")? {
        p.delay_p = x;
    }
    if let Some(d) = opt_us(v, "delay_max_us")? {
        p.delay_max = d;
    }
    if let Some(x) = opt_prob(v, "corrupt_p")? {
        p.corrupt_p = x;
    }
    if let Some(x) = opt_prob(v, "reorder_p")? {
        p.reorder_p = x;
    }
    if let Some(d) = opt_us(v, "reorder_hold_us")? {
        p.reorder_hold = d;
    }
    if let Some(d) = opt_us(v, "retry_timeout_us")? {
        p.retry = (d > SimDuration::ZERO).then_some(RetryPolicy {
            timeout: d,
            max_retries: p.retry.map_or(6, |r| r.max_retries),
        });
    }
    if let Some(n) = opt_f64(v, "retry_max")? {
        if let Some(r) = &mut p.retry {
            r.max_retries = n as u32;
        }
    }
    if let Some(d) = opt_us(v, "redrain_timeout_us")? {
        p.redrain_timeout = (d > SimDuration::ZERO).then_some(d);
    }
    if let Some(every) = opt_us(v, "keepalive_us")? {
        let kato = opt_us(v, "kato_us")?.unwrap_or(every * 3);
        p.keepalive = Some(KeepAliveSpec { every, kato });
    }
    if let Some(s) = opt_f64(v, "settle_s")? {
        if !(s >= 0.0 && s.is_finite()) {
            return Err("faults.settle_s must be finite and non-negative".to_string());
        }
        p.settle_s = s;
    }
    for e in field(v, "faults", "flaps", "an array", Json::as_arr)?.unwrap_or(&[]) {
        check_keys(e, "faults.flaps entry", &["link", "at_s", "for_s"])?;
        let (at, dur) = window(e, "flaps")?;
        let link = e
            .get("link")
            .and_then(Json::as_u64)
            .ok_or("faults.flaps entry needs an integer link")? as usize;
        p.flaps.push(LinkFlap { link, at, dur });
    }
    for e in field(v, "faults", "degrade", "an array", Json::as_arr)?.unwrap_or(&[]) {
        check_keys(e, "faults.degrade entry", &["factor", "at_s", "for_s"])?;
        let (at, dur) = window(e, "degrade")?;
        let factor = opt_f64(e, "factor")?.unwrap_or(2.0);
        if !(factor >= 1.0 && factor.is_finite()) {
            return Err(format!("faults.degrade factor {factor} must be >= 1"));
        }
        p.degrades.push(Degrade { at, dur, factor });
    }
    for e in field(v, "faults", "stalls", "an array", Json::as_arr)?.unwrap_or(&[]) {
        check_keys(e, "faults.stalls entry", &["at_s", "for_s"])?;
        let (at, dur) = window(e, "stalls")?;
        p.stalls.push(Stall { at, dur });
    }
    for e in field(v, "faults", "crashes", "an array", Json::as_arr)?.unwrap_or(&[]) {
        check_keys(e, "faults.crashes entry", &["tenant", "at_s", "for_s"])?;
        let (at, dur) = window(e, "crashes")?;
        let tenant = e
            .get("tenant")
            .and_then(Json::as_u64)
            .ok_or("faults.crashes entry needs an integer tenant")? as usize;
        p.crashes.push(Crash { tenant, at, dur });
    }
    if let Some(a) = v.get("adversary") {
        check_keys(
            a,
            "faults.adversary",
            &[
                "link",
                "forge_ls_p",
                "invalid_flags_p",
                "drain_flood_p",
                "replay_p",
                "spoof_p",
                "spoof_victim",
                "harden",
            ],
        )?;
        let mut adv = Adversary {
            link: a
                .get("link")
                .and_then(Json::as_u64)
                .ok_or("faults.adversary needs an integer link")? as usize,
            ..Adversary::default()
        };
        if let Some(x) = opt_prob(a, "forge_ls_p")? {
            adv.forge_ls_p = x;
        }
        if let Some(x) = opt_prob(a, "invalid_flags_p")? {
            adv.invalid_flags_p = x;
        }
        if let Some(x) = opt_prob(a, "drain_flood_p")? {
            adv.drain_flood_p = x;
        }
        if let Some(x) = opt_prob(a, "replay_p")? {
            adv.replay_p = x;
        }
        if let Some(x) = opt_prob(a, "spoof_p")? {
            adv.spoof_p = x;
        }
        if let Some(victim) = field(
            a,
            "faults.adversary",
            "spoof_victim",
            "an integer",
            Json::as_u64,
        )? {
            if victim > u64::from(u8::MAX) {
                return Err(format!("faults.adversary.spoof_victim {victim} exceeds u8"));
            }
            adv.spoof_victim = victim as u8;
        }
        if let Some(h) = field(a, "faults.adversary", "harden", "a boolean", Json::as_bool)? {
            adv.harden = h;
        }
        p.adversary = Some(adv);
    }
    Ok(Some(p))
}

/// Hard-error on unknown keys inside a block: a typo'd knob must never
/// silently no-op.
fn check_keys(v: &Json, ctx: &str, allowed: &[&str]) -> Result<(), String> {
    if let Json::Obj(fields) = v {
        for (k, _) in fields {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("{ctx}: unknown key {k:?} (allowed: {allowed:?})"));
            }
        }
        Ok(())
    } else {
        Err(format!("{ctx} must be an object"))
    }
}

/// ```json
/// "placement": {"policy": "pinned", "pins": [0, 1, 0]}
/// ```
/// Policies: `"round_robin"` (default), `"least_loaded"`, `"pinned"`
/// (requires `pins`). Unknown keys are hard errors.
fn parse_placement(doc: &Json) -> Result<PlacementSpec, String> {
    let Some(v) = doc.get("placement") else {
        return Ok(PlacementSpec::RoundRobin);
    };
    check_keys(v, "placement", &["policy", "pins"])?;
    let policy = v
        .get("policy")
        .and_then(Json::as_str)
        .ok_or("placement needs a string \"policy\"")?;
    let pins = v.get("pins");
    match policy {
        "round_robin" | "least_loaded" if pins.is_some() => Err(format!(
            "placement.pins only applies to policy \"pinned\" (got \"{policy}\")"
        )),
        "round_robin" => Ok(PlacementSpec::RoundRobin),
        "least_loaded" => Ok(PlacementSpec::LeastLoaded),
        "pinned" => {
            let arr = pins
                .and_then(Json::as_arr)
                .ok_or("placement policy \"pinned\" needs a \"pins\" array")?;
            let pins = arr
                .iter()
                .map(|p| {
                    p.as_u64()
                        .map(|p| p as usize)
                        .ok_or_else(|| format!("placement.pins entry {p:?} not an integer"))
                })
                .collect::<Result<Vec<usize>, String>>()?;
            Ok(PlacementSpec::Pinned(pins))
        }
        other => Err(format!(
            "unknown placement policy {other:?} (want \"round_robin\", \"least_loaded\" or \"pinned\")"
        )),
    }
}

/// ```json
/// "migration": {"moves": [{"tenant": 1, "at_s": 0.05, "to_target": 0}]}
/// ```
/// `at_s` is seconds into the measured window. Unknown keys are hard
/// errors, at both the block and per-move level.
fn parse_migrations(doc: &Json) -> Result<Vec<MigrationSpec>, String> {
    let Some(v) = doc.get("migration") else {
        return Ok(Vec::new());
    };
    check_keys(v, "migration", &["moves"])?;
    let moves = v
        .get("moves")
        .and_then(Json::as_arr)
        .ok_or("migration needs a \"moves\" array")?;
    moves
        .iter()
        .map(|e| {
            check_keys(e, "migration.moves entry", &["tenant", "at_s", "to_target"])?;
            let tenant = e
                .get("tenant")
                .and_then(Json::as_u64)
                .ok_or("migration move needs an integer tenant")? as usize;
            let at_s = e
                .get("at_s")
                .and_then(Json::as_f64)
                .ok_or("migration move needs a number at_s")?;
            if !(at_s >= 0.0 && at_s.is_finite()) {
                return Err(format!(
                    "migration at_s {at_s} must be finite and non-negative"
                ));
            }
            let to_target =
                e.get("to_target")
                    .and_then(Json::as_u64)
                    .ok_or("migration move needs an integer to_target")? as usize;
            Ok(MigrationSpec {
                tenant,
                at_s,
                to_target,
            })
        })
        .collect()
}

impl SweepSpec {
    /// Parse a spec document. Only `name` is required; everything else
    /// defaults to a small two-runtime smoke sweep at 100 Gbps.
    pub fn from_json(src: &str) -> Result<SweepSpec, String> {
        let doc = json::parse(src)?;
        check_keys(
            &doc,
            "spec",
            &[
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
        )?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec needs a string \"name\"")?
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "name {name:?} must be non-empty [A-Za-z0-9_-] (it names the output file)"
            ));
        }
        let spec = SweepSpec {
            name,
            runtimes: list(
                &doc,
                "runtimes",
                parse_runtime,
                vec![RuntimeKind::Spdk, RuntimeKind::Opf],
            )?,
            speeds: list(&doc, "speeds", parse_speed, vec![Gbps::G100])?,
            mixes: list(&doc, "mixes", parse_mix, vec![Mix::READ])?,
            ratios: list(&doc, "ratios", parse_ratio, vec![(1, 1)])?,
            seeds: list(
                &doc,
                "seeds",
                |v| {
                    v.as_u64()
                        .ok_or_else(|| format!("seed {v:?} not an integer"))
                },
                vec![42],
            )?,
            warmup_s: field(&doc, "spec", "warmup_s", "a number", Json::as_f64)?.unwrap_or(0.05),
            measure_s: field(&doc, "spec", "measure_s", "a number", Json::as_f64)?.unwrap_or(0.15),
            threads: doc
                .get("threads")
                .map(|v| {
                    v.as_u64()
                        .filter(|&t| t >= 1)
                        .map(|t| t as usize)
                        .ok_or_else(|| format!("threads {v:?} not a positive integer"))
                })
                .transpose()?,
            faults: parse_faults(&doc)?,
            targets: match doc.get("targets") {
                None => 1,
                Some(v) => v
                    .as_u64()
                    .filter(|&t| t >= 1)
                    .map(|t| t as usize)
                    .ok_or_else(|| format!("targets {v:?} not a positive integer"))?,
            },
            placement: parse_placement(&doc)?,
            migrations: parse_migrations(&doc)?,
            parallel: match doc.get("parallel") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| format!("parallel {v:?} not a boolean"))?,
            },
        };
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
        if !(spec.warmup_s >= 0.0 && spec.warmup_s.is_finite()) {
            return Err("warmup_s must be a finite non-negative number".to_string());
        }
        if !(spec.measure_s > 0.0 && spec.measure_s.is_finite()) {
            return Err("measure_s must be a finite positive number".to_string());
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
                                speed_gbps: match Speed::from(speed) {
                                    Speed::G10 => 10,
                                    Speed::G25 => 25,
                                    Speed::G100 => 100,
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
