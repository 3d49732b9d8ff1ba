//! # campaign — seeds × traffic-scenario grids with expectation gates
//!
//! A campaign spec (JSON) names a set of traffic scenarios (each an
//! open-loop [`TrafficSpec`] plus a few topology knobs), a seed list,
//! and a list of declarative *expectations*. The runner expands the
//! `scenarios × seeds` grid in a canonical order, fans it out across
//! threads ([`crate::sweep::run_all`]), computes cross-seed summary
//! statistics (mean/stddev/p99/min/max per metric), evaluates the
//! expectations, and writes `results/campaign_<name>/summary.json` +
//! `summary.csv` — bit-identical across runs of the same spec, which is
//! what lets CI gate on them.
//!
//! ## Spec schema
//!
//! ```json
//! {
//!   "name": "quick",
//!   "seeds": [1, 2, 3],
//!   "warmup_s": 0.02, "measure_s": 0.06,
//!   "ls": 1, "tc": 2,
//!   "runtime": "opf", "speed": 100,
//!   "scenarios": [
//!     {"name": "poisson", "traffic": {"model": "poisson", "rate_kiops": 40}},
//!     {"name": "lossy",   "traffic": {"model": "poisson"}, "drop_p": 0.01}
//!   ],
//!   "expectations": [
//!     {"scenario": "*", "check": "exactly_once"},
//!     {"scenario": "*", "check": "completion_floor", "min": 0.9},
//!     {"scenario": "poisson", "check": "fairness_spread", "max": 0.3},
//!     {"scenario": "poisson", "metric": "ls.p9999_us", "stat": "p99", "max": 500}
//!   ]
//! }
//! ```
//!
//! Expectation vocabulary: `exactly_once` (every offered open-loop
//! arrival completed exactly once, no exhausted retries),
//! `completion_floor` (min over seeds of `traffic.completion_ratio` ≥
//! `min`), `fairness_spread` (max over seeds of
//! `traffic.fairness_spread` ≤ `max`), or a raw metric bound (`metric`
//! plus a `stat` of `mean|stddev|p99|min|max`, with `min`/`max` bounds
//! applied to the cross-seed statistic). Unknown keys anywhere in the
//! spec are hard errors — never silent no-ops — and every parse failure
//! is a typed [`CampaignError`], never a panic.

use crate::sweep::run_all;
use fabric::Gbps;
use simkit::json::{escape, parse, Json};
use simkit::metrics::format_f64;
use std::fmt;
use std::path::{Path, PathBuf};
use workload::{Mix, RunResult, RuntimeKind, Scenario, TrafficSpec};

/// Typed campaign-spec / evaluation error. `Display` is the user-facing
/// message; the variants are what the negative-path tests pin down.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// JSON syntax error or a structurally invalid spec.
    Parse(String),
    /// An object carried a key outside its schema.
    UnknownKey {
        /// Where (`""` = spec root, `"expectations[2]"`, …).
        ctx: String,
        /// The offending key.
        key: String,
    },
    /// An expectation bound was NaN or infinite.
    NanBound {
        /// Which expectation.
        ctx: String,
    },
    /// The same seed appeared twice — cross-seed stats would
    /// double-count a run.
    DuplicateSeed(u64),
    /// The expanded grid is empty (no seeds or no scenarios).
    EmptyGrid,
    /// A grid point describes a scenario the runner cannot build.
    Scenario {
        /// The campaign scenario's name.
        name: String,
        /// Why.
        error: workload::ScenarioError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Parse(msg) => write!(f, "campaign spec: {msg}"),
            CampaignError::UnknownKey { ctx, key } => {
                let at = if ctx.is_empty() { "spec root" } else { ctx };
                write!(f, "campaign spec: unknown key \"{key}\" in {at}")
            }
            CampaignError::NanBound { ctx } => {
                write!(f, "campaign spec: non-finite bound in {ctx}")
            }
            CampaignError::DuplicateSeed(s) => {
                write!(
                    f,
                    "campaign spec: duplicate seed {s} (cross-seed stats would double-count)"
                )
            }
            CampaignError::EmptyGrid => {
                write!(
                    f,
                    "campaign spec: empty grid (needs >= 1 seed and >= 1 scenario)"
                )
            }
            CampaignError::Scenario { name, error } => {
                write!(f, "campaign spec: scenario \"{name}\": {error}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Cross-seed statistic an expectation can bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    /// Arithmetic mean across seeds.
    Mean,
    /// Population standard deviation across seeds.
    Stddev,
    /// Nearest-rank p99 across seeds (= max for small seed counts).
    P99,
    /// Minimum across seeds.
    Min,
    /// Maximum across seeds.
    Max,
}

impl Stat {
    fn parse(s: &str) -> Option<Stat> {
        Some(match s {
            "mean" => Stat::Mean,
            "stddev" => Stat::Stddev,
            "p99" => Stat::P99,
            "min" => Stat::Min,
            "max" => Stat::Max,
            _ => return None,
        })
    }

    fn label(&self) -> &'static str {
        match self {
            Stat::Mean => "mean",
            Stat::Stddev => "stddev",
            Stat::P99 => "p99",
            Stat::Min => "min",
            Stat::Max => "max",
        }
    }

    fn of(&self, values: &[f64]) -> f64 {
        match self {
            Stat::Mean => mean(values),
            Stat::Stddev => stddev(values),
            Stat::P99 => percentile(values, 0.99),
            Stat::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Stat::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One declarative check.
#[derive(Clone, Debug, PartialEq)]
pub enum Check {
    /// `traffic.offered == traffic.done` on every seed, and no
    /// exhausted retries where a fault plane reports them.
    ExactlyOnce,
    /// Min over seeds of `traffic.completion_ratio` must be ≥ `min`.
    CompletionFloor {
        /// The floor.
        min: f64,
    },
    /// Max over seeds of `traffic.fairness_spread` must be ≤ `max`.
    FairnessSpread {
        /// The ceiling.
        max: f64,
    },
    /// Bound a cross-seed statistic of an arbitrary metric key.
    Metric {
        /// Metric key (e.g. `ls.p9999_us`).
        metric: String,
        /// Which cross-seed statistic.
        stat: Stat,
        /// Lower bound, if any.
        min: Option<f64>,
        /// Upper bound, if any.
        max: Option<f64>,
    },
}

/// An expectation: a [`Check`] applied to one scenario or (`"*"`) all.
#[derive(Clone, Debug, PartialEq)]
pub struct Expectation {
    /// Scenario name, or `"*"` for every scenario.
    pub scenario: String,
    /// The check.
    pub check: Check,
}

/// One traffic scenario of the campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignScenario {
    /// Row name — referenced by expectations and the summary.
    pub name: String,
    /// Open-loop traffic block (required: campaigns are about traffic).
    pub traffic: TrafficSpec,
    /// LS tenant count override.
    pub ls: Option<usize>,
    /// TC tenant count override.
    pub tc: Option<usize>,
    /// Per-PDU drop probability — a lossy-fabric knob (installs a fault
    /// plane with a deep retry budget).
    pub drop_p: f64,
    /// Kernel shard count.
    pub shards: usize,
    /// Mailbox-mesh cross-shard routing.
    pub parallel: bool,
}

/// A parsed campaign specification.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name: output lands in `results/campaign_<name>/`.
    pub name: String,
    /// Seeds (duplicate-free; each scenario runs once per seed).
    pub seeds: Vec<u64>,
    /// Warmup seconds per run.
    pub warmup_s: f64,
    /// Measured seconds per run.
    pub measure_s: f64,
    /// Default LS tenants per scenario.
    pub ls: usize,
    /// Default TC tenants per scenario.
    pub tc: usize,
    /// Runtime under test.
    pub runtime: RuntimeKind,
    /// Fabric speed.
    pub speed: Gbps,
    /// Worker threads (CLI may override).
    pub threads: Option<usize>,
    /// The scenario rows.
    pub scenarios: Vec<CampaignScenario>,
    /// The expectation gates.
    pub expectations: Vec<Expectation>,
}

fn check_keys(v: &Json, ctx: &str, allowed: &[&str]) -> Result<(), CampaignError> {
    match v {
        Json::Obj(fields) => {
            for (k, _) in fields {
                if !allowed.contains(&k.as_str()) {
                    return Err(CampaignError::UnknownKey {
                        ctx: ctx.to_string(),
                        key: k.clone(),
                    });
                }
            }
            Ok(())
        }
        _ => Err(CampaignError::Parse(format!(
            "{} must be an object",
            if ctx.is_empty() { "spec" } else { ctx }
        ))),
    }
}

/// [`Json::field`] with the object it sits in (`ctx`) named in the error.
fn field<'a, T>(
    v: &'a Json,
    ctx: &str,
    key: &str,
    want: &str,
    conv: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, CampaignError> {
    v.field(key, want, conv)
        .map_err(|e| CampaignError::Parse(format!("{ctx}: {e}")))
}

fn finite_bound(v: &Json, ctx: &str, key: &str) -> Result<Option<f64>, CampaignError> {
    let x = field(v, ctx, key, "a number", Json::as_f64)?;
    if x.is_some_and(|x| !x.is_finite()) {
        return Err(CampaignError::NanBound {
            ctx: ctx.to_string(),
        });
    }
    Ok(x)
}

impl CampaignSpec {
    /// Parse a campaign spec from JSON source.
    pub fn from_json_str(src: &str) -> Result<CampaignSpec, CampaignError> {
        let v = parse(src).map_err(CampaignError::Parse)?;
        CampaignSpec::from_json(&v)
    }

    /// Parse a campaign spec from a parsed JSON value.
    pub fn from_json(v: &Json) -> Result<CampaignSpec, CampaignError> {
        check_keys(
            v,
            "",
            &[
                "name",
                "seeds",
                "warmup_s",
                "measure_s",
                "ls",
                "tc",
                "runtime",
                "speed",
                "threads",
                "scenarios",
                "expectations",
            ],
        )?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| CampaignError::Parse("\"name\" (string) is required".into()))?
            .to_string();

        let mut seeds: Vec<u64> = Vec::new();
        for (i, s) in field(v, "spec", "seeds", "an array", Json::as_arr)?
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let s = s.as_u64().ok_or_else(|| {
                CampaignError::Parse(format!("seeds[{i}] must be a non-negative integer"))
            })?;
            if seeds.contains(&s) {
                return Err(CampaignError::DuplicateSeed(s));
            }
            seeds.push(s);
        }

        let warmup_s = finite_bound(v, "spec", "warmup_s")?.unwrap_or(0.02);
        let measure_s = finite_bound(v, "spec", "measure_s")?.unwrap_or(0.06);
        if warmup_s < 0.0 || measure_s <= 0.0 {
            return Err(CampaignError::Parse(
                "warmup_s must be >= 0 and measure_s > 0".into(),
            ));
        }
        let ls = field(v, "spec", "ls", "an integer", Json::as_u64)?.unwrap_or(1) as usize;
        let tc = field(v, "spec", "tc", "an integer", Json::as_u64)?.unwrap_or(2) as usize;
        let runtime = match field(v, "spec", "runtime", "a string", Json::as_str)?.unwrap_or("opf")
        {
            "opf" => RuntimeKind::Opf,
            "spdk" => RuntimeKind::Spdk,
            other => {
                return Err(CampaignError::Parse(format!(
                    "unknown runtime \"{other}\" (opf | spdk)"
                )))
            }
        };
        let speed = match field(v, "spec", "speed", "an integer", Json::as_u64)?.unwrap_or(100) {
            10 => Gbps::G10,
            25 => Gbps::G25,
            100 => Gbps::G100,
            other => {
                return Err(CampaignError::Parse(format!(
                    "unknown speed {other} (10 | 25 | 100)"
                )))
            }
        };
        let threads = field(v, "spec", "threads", "an integer", Json::as_u64)?.map(|t| t as usize);

        let mut scenarios = Vec::new();
        for (i, s) in field(v, "spec", "scenarios", "an array", Json::as_arr)?
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let ctx = format!("scenarios[{i}]");
            check_keys(
                s,
                &ctx,
                &[
                    "name", "traffic", "ls", "tc", "drop_p", "shards", "parallel",
                ],
            )?;
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| CampaignError::Parse(format!("{ctx}: \"name\" is required")))?
                .to_string();
            if scenarios.iter().any(|c: &CampaignScenario| c.name == name) {
                return Err(CampaignError::Parse(format!(
                    "{ctx}: duplicate scenario name \"{name}\""
                )));
            }
            let traffic = s
                .get("traffic")
                .ok_or_else(|| CampaignError::Parse(format!("{ctx}: \"traffic\" is required")))
                .and_then(|t| {
                    TrafficSpec::from_json(t)
                        .map_err(|e| CampaignError::Parse(format!("{ctx}: {e}")))
                })?;
            let drop_p = finite_bound(s, &ctx, "drop_p")?.unwrap_or(0.0);
            if !(0.0..=1.0).contains(&drop_p) {
                return Err(CampaignError::Parse(format!(
                    "{ctx}: \"drop_p\" must be in [0, 1]"
                )));
            }
            scenarios.push(CampaignScenario {
                name,
                traffic,
                ls: field(s, &ctx, "ls", "an integer", Json::as_u64)?.map(|n| n as usize),
                tc: field(s, &ctx, "tc", "an integer", Json::as_u64)?.map(|n| n as usize),
                drop_p,
                shards: field(s, &ctx, "shards", "an integer", Json::as_u64)?.unwrap_or(1) as usize,
                parallel: field(s, &ctx, "parallel", "a boolean", Json::as_bool)?.unwrap_or(false),
            });
        }

        if seeds.is_empty() || scenarios.is_empty() {
            return Err(CampaignError::EmptyGrid);
        }

        let mut expectations = Vec::new();
        for (i, e) in field(v, "spec", "expectations", "an array", Json::as_arr)?
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let ctx = format!("expectations[{i}]");
            check_keys(
                e,
                &ctx,
                &["scenario", "check", "metric", "stat", "min", "max"],
            )?;
            let scenario = field(e, &ctx, "scenario", "a string", Json::as_str)?
                .unwrap_or("*")
                .to_string();
            if scenario != "*" && !scenarios.iter().any(|c| c.name == scenario) {
                return Err(CampaignError::Parse(format!(
                    "{ctx}: references unknown scenario \"{scenario}\""
                )));
            }
            let min = finite_bound(e, &ctx, "min")?;
            let max = finite_bound(e, &ctx, "max")?;
            let check = match (
                field(e, &ctx, "check", "a string", Json::as_str)?,
                e.get("metric"),
            ) {
                (Some("exactly_once"), None) => {
                    if min.is_some() || max.is_some() {
                        return Err(CampaignError::Parse(format!(
                            "{ctx}: exactly_once takes no bounds"
                        )));
                    }
                    Check::ExactlyOnce
                }
                (Some("completion_floor"), None) => Check::CompletionFloor {
                    min: min.ok_or_else(|| {
                        CampaignError::Parse(format!("{ctx}: completion_floor requires \"min\""))
                    })?,
                },
                (Some("fairness_spread"), None) => Check::FairnessSpread {
                    max: max.ok_or_else(|| {
                        CampaignError::Parse(format!("{ctx}: fairness_spread requires \"max\""))
                    })?,
                },
                (Some(other), None) => {
                    return Err(CampaignError::Parse(format!(
                        "{ctx}: unknown check \"{other}\" \
                         (exactly_once | completion_floor | fairness_spread)"
                    )))
                }
                (None, Some(m)) => {
                    let metric = m
                        .as_str()
                        .ok_or_else(|| {
                            CampaignError::Parse(format!("{ctx}: \"metric\" must be a string"))
                        })?
                        .to_string();
                    let stat = match field(e, &ctx, "stat", "a string", Json::as_str)? {
                        None => Stat::Mean,
                        Some(s) => Stat::parse(s).ok_or_else(|| {
                            CampaignError::Parse(format!(
                                "{ctx}: unknown stat \"{s}\" (mean | stddev | p99 | min | max)"
                            ))
                        })?,
                    };
                    if min.is_none() && max.is_none() {
                        return Err(CampaignError::Parse(format!(
                            "{ctx}: a metric expectation needs \"min\" and/or \"max\""
                        )));
                    }
                    Check::Metric {
                        metric,
                        stat,
                        min,
                        max,
                    }
                }
                (Some(_), Some(_)) => {
                    return Err(CampaignError::Parse(format!(
                        "{ctx}: give either \"check\" or \"metric\", not both"
                    )))
                }
                (None, None) => {
                    return Err(CampaignError::Parse(format!(
                        "{ctx}: needs a \"check\" or a \"metric\""
                    )))
                }
            };
            expectations.push(Expectation { scenario, check });
        }

        let spec = CampaignSpec {
            name,
            seeds,
            warmup_s,
            measure_s,
            ls,
            tc,
            runtime,
            speed,
            threads,
            scenarios,
            expectations,
        };
        for cs in &spec.scenarios {
            build_scenario(&spec, cs, spec.seeds[0])
                .validate()
                .map_err(|error| CampaignError::Scenario {
                    name: cs.name.clone(),
                    error,
                })?;
        }
        Ok(spec)
    }
}

/// Build the concrete [`Scenario`] for one grid point.
fn build_scenario(spec: &CampaignSpec, cs: &CampaignScenario, seed: u64) -> Scenario {
    let mut sc = Scenario::ratio(
        spec.runtime,
        spec.speed,
        Mix::READ,
        cs.ls.unwrap_or(spec.ls),
        cs.tc.unwrap_or(spec.tc).max(1),
    );
    sc.warmup_s = spec.warmup_s;
    sc.measure_s = spec.measure_s;
    sc.seed = seed;
    sc.shards = cs.shards.max(1);
    sc.parallel = cs.parallel;
    sc.traffic = Some(cs.traffic.clone());
    if cs.drop_p > 0.0 {
        sc.faults = Some(faults::FaultProfile {
            drop_p: cs.drop_p,
            retry: Some(nvmf::RetryPolicy {
                timeout: simkit::SimDuration::from_micros(300),
                max_retries: 32,
            }),
            ..faults::FaultProfile::default()
        });
    }
    sc
}

/// Cross-seed statistics of one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricStats {
    /// Metric key.
    pub metric: String,
    /// Mean across seeds.
    pub mean: f64,
    /// Population standard deviation across seeds.
    pub stddev: f64,
    /// Nearest-rank p99 across seeds.
    pub p99: f64,
    /// Minimum across seeds.
    pub min: f64,
    /// Maximum across seeds.
    pub max: f64,
}

/// One evaluated expectation against one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Scenario the check ran against.
    pub scenario: String,
    /// Human/CI-readable check label (`"exactly_once"`,
    /// `"ls.p9999_us p99 <= 500"`, …).
    pub label: String,
    /// The observed statistic (`None` when the metric was missing).
    pub observed: Option<f64>,
    /// Whether the check passed.
    pub pass: bool,
}

/// The evaluated campaign: stats + gate outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSummary {
    /// Campaign name.
    pub name: String,
    /// The seeds, in spec order.
    pub seeds: Vec<u64>,
    /// Per-scenario cross-seed stats, in spec order.
    pub stats: Vec<(String, Vec<MetricStats>)>,
    /// Every expectation × matching scenario, in spec order.
    pub outcomes: Vec<Outcome>,
    /// True iff every outcome passed.
    pub pass: bool,
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Nearest-rank percentile (q in (0, 1]); `values` need not be sorted.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metric keys carried into the summary: the stable workload-level
/// figures (per-component counters stay in the per-run snapshots; the
/// campaign summary is the cross-seed view CI diffs).
fn summarised(key: &str) -> bool {
    key.starts_with("tc.")
        || key.starts_with("ls.")
        || key.starts_with("traffic.")
        || matches!(key, "completed" | "notifications" | "reactor_util")
}

/// Run the whole grid and evaluate the expectations. `threads`
/// overrides the spec's thread count.
pub fn run_campaign(spec: &CampaignSpec, threads: Option<usize>) -> CampaignSummary {
    let mut grid = Vec::new();
    for cs in &spec.scenarios {
        for &seed in &spec.seeds {
            grid.push(build_scenario(spec, cs, seed));
        }
    }
    let results = run_all(&grid, threads.or(spec.threads));
    let per_scenario: Vec<(&CampaignScenario, &[RunResult])> = spec
        .scenarios
        .iter()
        .zip(results.chunks(spec.seeds.len()))
        .collect();

    let mut stats = Vec::new();
    for (cs, runs) in &per_scenario {
        let mut rows = Vec::new();
        for (key, _) in runs[0].metrics.iter() {
            if !summarised(key) {
                continue;
            }
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(key)).collect();
            if values.len() != runs.len() {
                continue;
            }
            rows.push(MetricStats {
                metric: key.to_string(),
                mean: mean(&values),
                stddev: stddev(&values),
                p99: percentile(&values, 0.99),
                min: values.iter().copied().fold(f64::INFINITY, f64::min),
                max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            });
        }
        stats.push((cs.name.clone(), rows));
    }

    let mut outcomes = Vec::new();
    for exp in &spec.expectations {
        for (cs, runs) in &per_scenario {
            if exp.scenario != "*" && exp.scenario != cs.name {
                continue;
            }
            outcomes.push(evaluate(&exp.check, cs, runs));
        }
    }
    let pass = outcomes.iter().all(|o| o.pass);
    CampaignSummary {
        name: spec.name.clone(),
        seeds: spec.seeds.clone(),
        stats,
        outcomes,
        pass,
    }
}

/// Per-seed values of one metric; `None` if any seed lacks the key.
fn seed_values(runs: &[RunResult], key: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(key)).collect();
    (values.len() == runs.len()).then_some(values)
}

fn evaluate(check: &Check, cs: &CampaignScenario, runs: &[RunResult]) -> Outcome {
    let scenario = cs.name.clone();
    match check {
        Check::ExactlyOnce => {
            let (label, mut observed, mut pass) = ("exactly_once".to_string(), None, false);
            if let (Some(offered), Some(done)) = (
                seed_values(runs, "traffic.offered"),
                seed_values(runs, "traffic.done"),
            ) {
                let worst = offered
                    .iter()
                    .zip(&done)
                    .map(|(o, d)| (o - d).abs())
                    .fold(0.0_f64, f64::max);
                let exhausted = seed_values(runs, "faults.retry_exhausted")
                    .map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max));
                observed = Some(worst);
                pass = worst == 0.0 && exhausted == 0.0 && offered.iter().all(|&o| o > 0.0);
            }
            Outcome {
                scenario,
                label,
                observed,
                pass,
            }
        }
        Check::CompletionFloor { min } => {
            let observed = seed_values(runs, "traffic.completion_ratio").map(|v| Stat::Min.of(&v));
            Outcome {
                scenario,
                label: format!("completion_floor >= {}", format_f64(*min)),
                pass: observed.is_some_and(|o| o >= *min),
                observed,
            }
        }
        Check::FairnessSpread { max } => {
            let observed = seed_values(runs, "traffic.fairness_spread").map(|v| Stat::Max.of(&v));
            Outcome {
                scenario,
                label: format!("fairness_spread <= {}", format_f64(*max)),
                pass: observed.is_some_and(|o| o <= *max),
                observed,
            }
        }
        Check::Metric {
            metric,
            stat,
            min,
            max,
        } => {
            let observed = seed_values(runs, metric).map(|v| stat.of(&v));
            let bounds = [
                min.map(|b| format!(">= {}", format_f64(b))),
                max.map(|b| format!("<= {}", format_f64(b))),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(" and ");
            Outcome {
                scenario,
                label: format!("{metric} {} {bounds}", stat.label()),
                pass: observed
                    .is_some_and(|o| min.is_none_or(|b| o >= b) && max.is_none_or(|b| o <= b)),
                observed,
            }
        }
    }
}

/// Deterministic `summary.json` rendering (spec order, shortest
/// round-trip floats, no wall clock).
pub fn render_summary_json(s: &CampaignSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"campaign\": \"{}\",\n", escape(&s.name)));
    let seeds: Vec<String> = s.seeds.iter().map(|x| x.to_string()).collect();
    out.push_str(&format!("  \"seeds\": [{}],\n", seeds.join(", ")));
    out.push_str(&format!(
        "  \"grid_runs\": {},\n",
        s.seeds.len() * s.stats.len()
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, (name, rows)) in s.stats.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"metrics\": [\n",
            escape(name)
        ));
        for (j, m) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"metric\": \"{}\", \"mean\": {}, \"stddev\": {}, \
                 \"p99\": {}, \"min\": {}, \"max\": {}}}{}\n",
                escape(&m.metric),
                format_f64(m.mean),
                format_f64(m.stddev),
                format_f64(m.p99),
                format_f64(m.min),
                format_f64(m.max),
                if j + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < s.stats.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"expectations\": [\n");
    for (i, o) in s.outcomes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"check\": \"{}\", \"observed\": {}, \"pass\": {}}}{}\n",
            escape(&o.scenario),
            escape(&o.label),
            o.observed.map_or("null".to_string(), format_f64),
            o.pass,
            if i + 1 < s.outcomes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"pass\": {}\n", s.pass));
    out.push_str("}\n");
    out
}

/// Deterministic `summary.csv` rendering (one row per scenario ×
/// metric).
pub fn render_summary_csv(s: &CampaignSummary) -> String {
    let mut out = String::from("scenario,metric,mean,stddev,p99,min,max\n");
    for (name, rows) in &s.stats {
        for m in rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                name,
                m.metric,
                format_f64(m.mean),
                format_f64(m.stddev),
                format_f64(m.p99),
                format_f64(m.min),
                format_f64(m.max)
            ));
        }
    }
    out
}

/// Write `summary.json` + `summary.csv` under
/// `<out_dir>/campaign_<name>/`; returns the summary.json path.
pub fn write_outputs(s: &CampaignSummary, out_dir: &Path) -> std::io::Result<PathBuf> {
    let dir = out_dir.join(format!("campaign_{}", s.name));
    std::fs::create_dir_all(&dir)?;
    let json_path = dir.join("summary.json");
    std::fs::write(&json_path, render_summary_json(s))?;
    std::fs::write(dir.join("summary.csv"), render_summary_csv(s))?;
    Ok(json_path)
}

/// Print the gate outcomes as an aligned report.
pub fn print_outcomes(s: &CampaignSummary) {
    println!(
        "campaign {} — {} seeds × {} scenarios",
        s.name,
        s.seeds.len(),
        s.stats.len()
    );
    for o in &s.outcomes {
        println!(
            "  [{}] {:24} {:40} observed {}",
            if o.pass { "PASS" } else { "FAIL" },
            o.scenario,
            o.label,
            o.observed.map_or("-".to_string(), format_f64)
        );
    }
    println!("  gate: {}", if s.pass { "PASS" } else { "FAIL" });
}

/// The checked-in quick campaign spec (CI's `campaign-smoke`).
pub fn quick_spec_path() -> PathBuf {
    crate::results_dir()
        .parent()
        .map(|root| root.join("scenarios").join("campaign_quick.json"))
        .unwrap_or_else(|| PathBuf::from("scenarios/campaign_quick.json"))
}

/// `repro campaign`: run the checked-in quick campaign, write the
/// summary artifacts, print the gate report. Returns the gate verdict.
pub fn all(threads: Option<usize>) -> bool {
    let path = quick_spec_path();
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaign: cannot read {}: {e}", path.display());
            return false;
        }
    };
    let spec = match CampaignSpec::from_json_str(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaign: {e}");
            return false;
        }
    };
    let summary = run_campaign(&spec, threads);
    print_outcomes(&summary);
    match write_outputs(&summary, &crate::results_dir()) {
        Ok(p) => println!("  [saved {}]", p.display()),
        Err(e) => eprintln!("  [could not save summary: {e}]"),
    }
    summary.pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!(
            r#"{{
              "name": "t", "seeds": [1, 2],
              "scenarios": [{{"name": "p", "traffic": {{"model": "poisson"}}}}]
              {extra}
            }}"#
        )
    }

    #[test]
    fn parses_a_minimal_spec() {
        let spec = CampaignSpec::from_json_str(&minimal("")).unwrap();
        assert_eq!(spec.seeds, vec![1, 2]);
        assert_eq!(spec.scenarios.len(), 1);
        assert!(spec.expectations.is_empty());
    }

    #[test]
    fn unknown_spec_key_is_a_typed_error() {
        let src = r#"{"name": "t", "seeds": [1], "scenariosz": []}"#;
        match CampaignSpec::from_json_str(src) {
            Err(CampaignError::UnknownKey { ctx, key }) => {
                assert_eq!(ctx, "");
                assert_eq!(key, "scenariosz");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn unknown_expectation_key_is_a_typed_error() {
        let src = minimal(
            r#", "expectations": [{"scenario": "p", "check": "exactly_once", "tolerance": 2}]"#,
        );
        match CampaignSpec::from_json_str(&src) {
            Err(CampaignError::UnknownKey { ctx, key }) => {
                assert_eq!(ctx, "expectations[0]");
                assert_eq!(key, "tolerance");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn unknown_check_name_is_a_typed_error() {
        let src = minimal(r#", "expectations": [{"scenario": "p", "check": "at_most_once"}]"#);
        match CampaignSpec::from_json_str(&src) {
            Err(CampaignError::Parse(msg)) => assert!(msg.contains("unknown check"), "{msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn nan_bound_is_a_typed_error() {
        // The mini JSON parser has no NaN literal; an overflowing
        // exponent parses to infinity, which is the same non-finite
        // poison a bound must reject.
        let src = minimal(
            r#", "expectations": [{"scenario": "p", "check": "completion_floor", "min": 1e999}]"#,
        );
        match CampaignSpec::from_json_str(&src) {
            Err(CampaignError::NanBound { ctx }) => assert_eq!(ctx, "expectations[0]"),
            other => panic!("expected NanBound, got {other:?}"),
        }
    }

    #[test]
    fn empty_grid_is_a_typed_error() {
        for src in [
            r#"{"name": "t", "seeds": [], "scenarios": [{"name": "p", "traffic": {"model": "poisson"}}]}"#,
            r#"{"name": "t", "seeds": [1], "scenarios": []}"#,
            r#"{"name": "t"}"#,
        ] {
            assert_eq!(
                CampaignSpec::from_json_str(src),
                Err(CampaignError::EmptyGrid),
                "{src}"
            );
        }
    }

    #[test]
    fn unbuildable_scenario_is_a_typed_error() {
        use workload::ScenarioError::*;
        let shards = r#"{"name": "t", "seeds": [1], "scenarios": [
            {"name": "p", "traffic": {"model": "poisson"}, "shards": 100000000000}]}"#;
        for (src, want) in [
            (
                minimal(r#", "tc": 300"#),
                TooManyTenants {
                    tenants: 301,
                    max: 64,
                },
            ),
            (
                shards.to_string(),
                ShardsOutOfRange {
                    shards: 100_000_000_000,
                    max: 1024,
                },
            ),
            // Simulated without end at 42de97b.
            (
                minimal(r#", "measure_s": 1e9"#),
                DurationOutOfRange {
                    seconds: 1_000_000_001,
                    max: 3600,
                },
            ),
        ] {
            match CampaignSpec::from_json_str(&src) {
                Err(CampaignError::Scenario { error, .. }) => assert_eq!(error, want),
                other => panic!("expected a scenario error, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrongly_typed_value_is_a_typed_error() {
        let scenario = |extra: &str| {
            format!(
                r#"{{"name": "t", "seeds": [1],
                    "scenarios": [{{"name": "p", "traffic": {{"model": "poisson"}}{extra}}}]}}"#
            )
        };
        let expect = |e: &str| minimal(&format!(r#", "expectations": [{e}]"#));
        for (src, want) in [
            // Used to drop every gate and pass.
            (
                minimal(r#", "expectations": {"scenario": "p", "check": "exactly_once"}"#),
                r#"spec: "expectations" must be an array"#,
            ),
            // Used to run at 100 G.
            (
                minimal(r#", "speed": "10""#),
                r#"spec: "speed" must be an integer"#,
            ),
            (
                minimal(r#", "ls": "1""#),
                r#"spec: "ls" must be an integer"#,
            ),
            (
                minimal(r#", "tc": "3""#),
                r#"spec: "tc" must be an integer"#,
            ),
            (
                minimal(r#", "threads": "2""#),
                r#"spec: "threads" must be an integer"#,
            ),
            (
                minimal(r#", "runtime": 3"#),
                r#"spec: "runtime" must be a string"#,
            ),
            (
                r#"{"name": "t", "seeds": {"a": 1}}"#.to_string(),
                r#"spec: "seeds" must be an array"#,
            ),
            (
                r#"{"name": "t", "seeds": [1], "scenarios": {}}"#.to_string(),
                r#"spec: "scenarios" must be an array"#,
            ),
            (
                scenario(r#", "tc": "3""#),
                r#"scenarios[0]: "tc" must be an integer"#,
            ),
            (
                scenario(r#", "ls": -1"#),
                r#"scenarios[0]: "ls" must be an integer"#,
            ),
            (
                scenario(r#", "shards": "4""#),
                r#"scenarios[0]: "shards" must be an integer"#,
            ),
            (
                scenario(r#", "parallel": "yes""#),
                r#"scenarios[0]: "parallel" must be a boolean"#,
            ),
            // Used to become "*".
            (
                expect(r#"{"scenario": 3, "check": "exactly_once"}"#),
                r#"expectations[0]: "scenario" must be a string"#,
            ),
            (
                expect(r#"{"scenario": "p", "check": 1}"#),
                r#"expectations[0]: "check" must be a string"#,
            ),
            (
                expect(r#"{"scenario": "p", "metric": "ls.p9999_us", "stat": 99, "max": 1}"#),
                r#"expectations[0]: "stat" must be a string"#,
            ),
        ] {
            match CampaignSpec::from_json_str(&src) {
                Err(CampaignError::Parse(msg)) => assert_eq!(msg, want, "{src}"),
                other => panic!("{src}: expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_seed_is_a_typed_error() {
        let src = r#"{"name": "t", "seeds": [1, 2, 1],
                      "scenarios": [{"name": "p", "traffic": {"model": "poisson"}}]}"#;
        assert_eq!(
            CampaignSpec::from_json_str(src),
            Err(CampaignError::DuplicateSeed(1))
        );
    }

    #[test]
    fn expectation_must_reference_a_known_scenario() {
        let src = minimal(r#", "expectations": [{"scenario": "ghost", "check": "exactly_once"}]"#);
        match CampaignSpec::from_json_str(&src) {
            Err(CampaignError::Parse(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn metric_expectation_needs_a_bound_and_known_stat() {
        let src = minimal(r#", "expectations": [{"scenario": "p", "metric": "ls.p9999_us"}]"#);
        assert!(matches!(
            CampaignSpec::from_json_str(&src),
            Err(CampaignError::Parse(_))
        ));
        let src = minimal(
            r#", "expectations": [{"scenario": "p", "metric": "ls.p9999_us", "stat": "p50", "max": 1}]"#,
        );
        match CampaignSpec::from_json_str(&src) {
            Err(CampaignError::Parse(msg)) => assert!(msg.contains("unknown stat"), "{msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn cross_seed_stats_are_nearest_rank() {
        let vals = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&vals, 0.99), 3.0);
        assert_eq!(percentile(&vals, 0.5), 2.0);
        assert!((mean(&vals) - 2.0).abs() < 1e-12);
        assert!((stddev(&vals) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }
}
