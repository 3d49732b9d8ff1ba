//! # campaign — seeds × traffic-scenario grids with expectation gates
//!
//! A campaign spec (JSON) names a set of traffic scenarios (each an
//! open-loop [`TrafficSpec`] plus a few topology knobs), a seed list,
//! and a list of declarative *expectations*. It is the campaign front
//! door of the one grid type, [`ExperimentSpec`] ([`crate::spec`]): the
//! root's `runtime`, `speed`, `ls` and `tc` fill its base block and each
//! scenario is a named row, so the grid expands `scenarios × seeds` in
//! the spec's one order. The runner fans it out across threads
//! ([`crate::sweep::run_all`]), computes cross-seed summary statistics
//! (mean/stddev/p99/min/max per metric), evaluates the expectations, and
//! writes `results/campaign_<name>/summary.json` + `summary.csv` —
//! bit-identical across runs of the same spec, which is what lets CI
//! gate on them.
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
//! The root `name` follows the sweep's rule (non-empty `[A-Za-z0-9_-]`:
//! it names the output directory), `runtime` takes the sweep's spellings,
//! and `tc`, `shards` and `threads` start at 1. A scenario's `ls`, `tc`,
//! `shards` and `parallel` override the root for that row.
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

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::spec::{Door, ExperimentSpec};
use simkit::json::{self, escape, parse, ErrorKind, Obj};
use simkit::metrics::format_f64;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use workload::{RunResult, TrafficSpec};

/// Typed campaign-spec / evaluation error. `Display` is the user-facing
/// message; the variants are what the negative-path tests pin down.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// JSON syntax error or a structurally invalid spec.
    Parse(String),
    /// An object carried a key outside its schema.
    UnknownKey {
        /// Where (`""` = spec root, `"expectations[2]"`,
        /// `"scenarios[0].traffic"`, …).
        ctx: String,
        /// The offending key.
        key: String,
    },
    /// A number that must be finite was not: an expectation bound, a
    /// duration or a rate written as an overflowing literal (`1e999`).
    NanBound {
        /// The block it sits in (`""` = spec root).
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
        f.write_str("campaign spec: ")?;
        match self {
            CampaignError::Parse(msg) => f.write_str(msg),
            CampaignError::UnknownKey { ctx, key } => {
                write!(f, "unknown key \"{key}\" in {}", block(ctx))
            }
            CampaignError::NanBound { ctx } => write!(f, "non-finite number in {}", block(ctx)),
            CampaignError::DuplicateSeed(s) => {
                write!(
                    f,
                    "duplicate seed {s} (cross-seed stats would double-count)"
                )
            }
            CampaignError::EmptyGrid => {
                f.write_str("empty grid (needs >= 1 seed and >= 1 scenario)")
            }
            CampaignError::Scenario { name, error } => write!(f, "scenario \"{name}\": {error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A block path for messages (`""` is the spec root).
fn block(ctx: &str) -> &str {
    if ctx.is_empty() {
        "spec root"
    } else {
        ctx
    }
}

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
    /// Every statistic with its spec name.
    const NAMES: [(Stat, &'static str); 5] = [
        (Stat::Mean, "mean"),
        (Stat::Stddev, "stddev"),
        (Stat::P99, "p99"),
        (Stat::Min, "min"),
        (Stat::Max, "max"),
    ];

    fn parse(s: &str) -> Option<Stat> {
        Stat::NAMES
            .iter()
            .find(|(_, n)| *n == s)
            .map(|&(stat, _)| stat)
    }

    fn label(&self) -> &'static str {
        Stat::NAMES
            .iter()
            .find(|(stat, _)| stat == self)
            .map_or("", |(_, n)| n)
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

/// A campaign spec: the campaign front door of the one grid type.
pub type CampaignSpec = ExperimentSpec;

impl From<json::Error> for CampaignError {
    fn from(e: json::Error) -> Self {
        match e.kind {
            ErrorKind::UnknownKey { key, .. } => CampaignError::UnknownKey { ctx: e.path, key },
            ErrorKind::NotFinite(_) => CampaignError::NanBound { ctx: e.path },
            _ => CampaignError::Parse(e.to_string()),
        }
    }
}

const CAMPAIGN: Door = Door {
    keys: &[
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
    seed: None,
    warmup_s: 0.02,
    measure_s: 0.06,
};

const SCENARIO_KEYS: &[&str] = &[
    "name", "traffic", "ls", "tc", "drop_p", "shards", "parallel",
];

const EXPECTATION_KEYS: &[&str] = &["scenario", "check", "metric", "stat", "min", "max"];

/// One `expectations[i]` entry; `scenarios` are the names it may name.
fn parse_expectation(e: &Obj, scenarios: &[CampaignScenario]) -> Result<Expectation, json::Error> {
    let scenario = e.str("scenario")?.unwrap_or("*").to_string();
    if scenario != "*" && !scenarios.iter().any(|c| c.name == scenario) {
        return Err(e.err(format!("references unknown scenario \"{scenario}\"")));
    }
    let (min, max) = (e.f64("min", ..)?, e.f64("max", ..)?);
    let check = match (e.str("check")?, e.str("metric")?) {
        (Some("exactly_once"), None) if min.is_none() && max.is_none() => Check::ExactlyOnce,
        (Some("exactly_once"), None) => return Err(e.err("exactly_once takes no bounds")),
        (Some("completion_floor"), None) => Check::CompletionFloor {
            min: e.need("min", min)?,
        },
        (Some("fairness_spread"), None) => Check::FairnessSpread {
            max: e.need("max", max)?,
        },
        (Some(other), None) => {
            return Err(e.err(format!(
                "unknown check \"{other}\" (exactly_once | completion_floor | fairness_spread)"
            )))
        }
        (None, Some(metric)) => {
            let stat = match e.str("stat")? {
                None => Stat::Mean,
                Some(s) => Stat::parse(s).ok_or_else(|| {
                    e.err(format!(
                        "unknown stat \"{s}\" (mean | stddev | p99 | min | max)"
                    ))
                })?,
            };
            if min.is_none() && max.is_none() {
                return Err(e.err("a metric expectation needs \"min\" and/or \"max\""));
            }
            Check::Metric {
                metric: metric.to_string(),
                stat,
                min,
                max,
            }
        }
        (Some(_), Some(_)) => return Err(e.err("give either \"check\" or \"metric\", not both")),
        (None, None) => return Err(e.err("needs a \"check\" or a \"metric\"")),
    };
    Ok(Expectation { scenario, check })
}

impl ExperimentSpec {
    /// The campaign door: parse a campaign spec from JSON source.
    pub fn from_json_str(src: &str) -> Result<ExperimentSpec, CampaignError> {
        let doc = parse(src).map_err(CampaignError::Parse)?;
        let (o, base) = ExperimentSpec::read_root(&doc, &CAMPAIGN)?;
        if let Some(s) = base.duplicate_seed() {
            return Err(CampaignError::DuplicateSeed(s));
        }
        let mut scenarios: Vec<CampaignScenario> = Vec::new();
        for s in o
            .items("scenarios", |s, at| s.obj(at, SCENARIO_KEYS))?
            .unwrap_or_default()
        {
            let name = s.need("name", s.str("name")?)?.to_string();
            if scenarios.iter().any(|c| c.name == name) {
                return Err(s.err(format!("duplicate scenario name \"{name}\"")).into());
            }
            let traffic = s.need("traffic", s.get("traffic"))?;
            scenarios.push(CampaignScenario {
                name,
                traffic: TrafficSpec::read_at(traffic, format!("{}.traffic", s.path()))?,
                drop_p: s.f64("drop_p", 0.0..=1.0)?.unwrap_or(0.0),
                ls: s.int("ls", ..)?,
                tc: s.int("tc", 1..)?,
                shards: s.int("shards", 1..)?.unwrap_or(1),
                parallel: s.bool("parallel")?.unwrap_or(false),
            });
        }
        if base.seeds.is_empty() || scenarios.is_empty() {
            return Err(CampaignError::EmptyGrid);
        }
        let expectations = o
            .items("expectations", |e, at| {
                parse_expectation(&e.obj(at, EXPECTATION_KEYS)?, &scenarios)
            })?
            .unwrap_or_default();
        let spec = ExperimentSpec {
            scenarios,
            expectations,
            ..base
        };
        spec.check().map_err(|(p, error)| {
            let row = p.row.and_then(|i| spec.scenarios.get(i));
            let name = row.map(|cs| cs.name.clone()).unwrap_or_default();
            CampaignError::Scenario { name, error }
        })?;
        Ok(spec)
    }
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
    let runs = spec.run(threads.or(spec.threads));
    let results: Vec<RunResult> = runs.into_iter().map(|(_, r)| r).collect();
    // Rows × seeds, seed innermost (the campaign door gives no axes):
    // one chunk of runs per row.
    let per_scenario: Vec<(&CampaignScenario, &[RunResult])> = spec
        .scenarios
        .iter()
        .zip(results.chunks(spec.seeds.len().max(1)))
        .collect();

    let stats = per_scenario
        .iter()
        .map(|(cs, runs)| {
            let rows = runs[0]
                .metrics
                .iter()
                .filter(|(key, _)| summarised(key))
                .filter_map(|(key, _)| {
                    let v = seed_values(runs, key)?;
                    Some(MetricStats {
                        metric: key.to_string(),
                        mean: Stat::Mean.of(&v),
                        stddev: Stat::Stddev.of(&v),
                        p99: Stat::P99.of(&v),
                        min: Stat::Min.of(&v),
                        max: Stat::Max.of(&v),
                    })
                })
                .collect();
            (cs.name.clone(), rows)
        })
        .collect();
    let outcomes: Vec<Outcome> = spec
        .expectations
        .iter()
        .flat_map(|exp| {
            per_scenario
                .iter()
                .filter(|(cs, _)| exp.scenario == "*" || exp.scenario == cs.name)
                .map(|(cs, runs)| evaluate(&exp.check, cs, runs))
        })
        .collect();
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
    let stat = |key: &str, stat: Stat| seed_values(runs, key).map(|v| stat.of(&v));
    let (label, observed, pass) = match check {
        Check::ExactlyOnce => {
            let offered = seed_values(runs, "traffic.offered");
            let done = seed_values(runs, "traffic.done");
            let worst = offered.as_ref().zip(done.as_ref()).map(|(o, d)| {
                o.iter()
                    .zip(d)
                    .map(|(o, d)| (o - d).abs())
                    .fold(0.0_f64, f64::max)
            });
            let exhausted = stat("faults.retry_exhausted", Stat::Max).unwrap_or(0.0);
            let offered_all = offered.is_some_and(|o| o.iter().all(|&o| o > 0.0));
            let pass = worst == Some(0.0) && exhausted == 0.0 && offered_all;
            ("exactly_once".to_string(), worst, pass)
        }
        Check::CompletionFloor { min } => {
            let observed = stat("traffic.completion_ratio", Stat::Min);
            let label = format!("completion_floor >= {}", format_f64(*min));
            (label, observed, observed.is_some_and(|o| o >= *min))
        }
        Check::FairnessSpread { max } => {
            let observed = stat("traffic.fairness_spread", Stat::Max);
            let label = format!("fairness_spread <= {}", format_f64(*max));
            (label, observed, observed.is_some_and(|o| o <= *max))
        }
        Check::Metric {
            metric,
            stat: s,
            min,
            max,
        } => {
            let observed = stat(metric, *s);
            let bounds = [
                min.map(|b| format!(">= {}", format_f64(b))),
                max.map(|b| format!("<= {}", format_f64(b))),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(" and ");
            let pass =
                observed.is_some_and(|o| min.is_none_or(|b| o >= b) && max.is_none_or(|b| o <= b));
            (format!("{metric} {} {bounds}", s.label()), observed, pass)
        }
    };
    Outcome {
        scenario: cs.name.clone(),
        label,
        observed,
        pass,
    }
}

/// Deterministic `summary.json` rendering (spec order, shortest
/// round-trip floats, no wall clock).
pub fn render_summary_json(s: &CampaignSummary) -> String {
    let seeds: Vec<String> = s.seeds.iter().map(|x| x.to_string()).collect();
    let mut out = format!(
        concat!(
            "{{\n  \"campaign\": \"{}\",\n  \"seeds\": [{}],\n",
            "  \"grid_runs\": {},\n  \"scenarios\": [\n"
        ),
        escape(&s.name),
        seeds.join(", "),
        s.seeds.len() * s.stats.len()
    );
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
    out.push_str("  ],\n  \"expectations\": [\n");
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
    out.push_str(&format!("  ],\n  \"pass\": {}\n}}\n", s.pass));
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

/// The gate outcomes as an aligned report, one line each, without a
/// trailing newline.
pub fn render_outcomes(s: &CampaignSummary) -> String {
    let mut out = format!(
        "campaign {} — {} seeds × {} scenarios\n",
        s.name,
        s.seeds.len(),
        s.stats.len()
    );
    for o in &s.outcomes {
        let _ = writeln!(
            out,
            "  [{}] {:24} {:40} observed {}",
            if o.pass { "PASS" } else { "FAIL" },
            o.scenario,
            o.label,
            o.observed.map_or("-".to_string(), format_f64)
        );
    }
    out + "  gate: " + if s.pass { "PASS" } else { "FAIL" }
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

    /// A row whose every read fails (a trace past the end of the SSD)
    /// offers I/O that is never served: the exactly-once gate fails.
    #[test]
    fn failed_io_fails_the_exactly_once_gate() {
        let mut spec = CampaignSpec::from_json_str(&minimal(
            r#", "warmup_s": 0, "measure_s": 0.002, "ls": 1, "tc": 1,
               "expectations": [{"check": "exactly_once"}]"#,
        ))
        .unwrap();
        let text: String = (0..100u64)
            .map(|i| format!("{},0,TC,R,{},1\n", i * 1_000, 1u64 << 30))
            .collect();
        let log = workload::TraceLog::from_text(&text).unwrap();
        spec.scenarios[0].traffic.model = workload::ArrivalModel::Trace(std::sync::Arc::new(log));
        let summary = run_campaign(&spec, Some(1));
        assert_eq!(summary.outcomes.len(), 1);
        assert_eq!(summary.outcomes[0].label, "exactly_once");
        assert_eq!(summary.outcomes[0].observed, Some(100.0));
        assert!(!summary.pass);
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
