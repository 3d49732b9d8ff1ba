//! The six workloads: what each one runs, at which simulated length,
//! and how a run is turned into per-leg metric snapshots.
//!
//! Simulated lengths are constants (never scaled at run time) so the
//! same command does the same work on every commit. They are sized once
//! so that a timed repetition takes about [`NOMINAL_REP_S`] host seconds
//! on the reference 2-vCPU box.

use experiments::campaign::{CampaignSpec, CampaignSummary};
use fabric::Gbps;
use simkit::Metrics;
use workload::{Mix, RunResult, RuntimeKind, Scenario};

/// Sweep-spec document behind `cluster2_migrate`.
pub const CLUSTER_SPEC_JSON: &str = include_str!("../specs/cluster2_migrate.json");
/// Campaign-spec document behind `campaign_openloop_lossy`.
pub const CAMPAIGN_SPEC_JSON: &str = include_str!("../specs/campaign_openloop_lossy.json");

/// One benchmark workload (names are normative — see `BENCHMARK.json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 4 KiB reads, 100 Gbps, 1 LS : 4 TC, SPDK leg then oPF leg.
    Read4k100g,
    /// 4 KiB writes, 10 Gbps, same shape.
    Write4k10g,
    /// 128 KiB mixed read/write, 100 Gbps, same shape.
    Bulk128kMixed100g,
    /// 8 pairs × (1 LS + 32 TC), 8 shards, meshed routing, oPF only.
    Scale256Sh8,
    /// 2 targets, 2 LS + 30 TC tenants, two live migrations, oPF only.
    Cluster2Migrate,
    /// Open-loop campaign: 3 seeds × 6 traffic models, one of them lossy.
    CampaignOpenloopLossy,
}

/// Host seconds one timed repetition takes on the reference box. A run
/// of `--seconds S` makes `round(S / NOMINAL_REP_S)` timed repetitions,
/// whatever the workload.
pub const NOMINAL_REP_S: f64 = 3.0;

/// Snapshot key `sim_ls_tail_us` reads: p99, the highest of p99 / p99.99
/// with at least ten samples beyond it at every workload's length.
pub const LS_TAIL_KEY: &str = "ls.p99_us";

/// LS samples an oPF leg must collect for p99 to have ten beyond it.
pub const LS_MIN_SAMPLES: u64 = 1000;

/// Simulated length of one leg (fixed per workload).
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Simulated warm-up seconds per leg (excluded from measurement).
    pub warmup_s: f64,
    /// Simulated measured seconds per leg.
    pub measure_s: f64,
}

/// Fraction of the full simulated length a plan runs at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scale {
    /// The benchmark's fixed length.
    Full,
    /// 1/10: the untimed warm-up leg of set-up.
    Tenth,
    /// 1/100: `--smoke` runs and the tests.
    Smoke,
    /// One simulated microsecond: stack construction and teardown only.
    Zero,
}

impl Scale {
    fn apply(self, warmup_s: f64, measure_s: f64) -> (f64, f64) {
        match self {
            Scale::Full => (warmup_s, measure_s),
            Scale::Tenth => (warmup_s * 0.1, measure_s * 0.1),
            Scale::Smoke => (warmup_s * 0.01, measure_s * 0.01),
            Scale::Zero => (0.0, 1e-6),
        }
    }

    /// Multiplier applied to instants inside the measure window.
    fn factor(self) -> f64 {
        match self {
            Scale::Full => 1.0,
            Scale::Tenth => 0.1,
            Scale::Smoke => 0.01,
            Scale::Zero => 1e-6,
        }
    }
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::Read4k100g,
        Workload::Write4k10g,
        Workload::Bulk128kMixed100g,
        Workload::Scale256Sh8,
        Workload::Cluster2Migrate,
        Workload::CampaignOpenloopLossy,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Read4k100g => "read4k_100g",
            Workload::Write4k10g => "write4k_10g",
            Workload::Bulk128kMixed100g => "bulk128k_mixed_100g",
            Workload::Scale256Sh8 => "scale256_sh8",
            Workload::Cluster2Migrate => "cluster2_migrate",
            Workload::CampaignOpenloopLossy => "campaign_openloop_lossy",
        }
    }

    /// Look a workload up by its normative name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed or open loop (printed with every result).
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::CampaignOpenloopLossy => {
                "open loop, fixed offered rates 40-120 kIOPS; latency timed from each arrival's \
                 due time; the generator runs in virtual time, so its lateness is 0 by construction"
            }
            Workload::Scale256Sh8 => "closed loop, 8 LS (QD 1) + 256 TC (QD 32) clients",
            Workload::Cluster2Migrate => "closed loop, 2 LS (QD 1) + 30 TC (QD 32) clients",
            _ => "closed loop, 1 LS (QD 1) + 4 TC (QD 128) clients",
        }
    }

    /// The fixed simulated length, sized for [`NOMINAL_REP_S`].
    pub fn params(self) -> Params {
        let p = |warmup_s, measure_s| Params {
            warmup_s,
            measure_s,
        };
        match self {
            Workload::Read4k100g => p(0.25, 6.0),
            Workload::Write4k10g => p(0.25, 11.0),
            Workload::Bulk128kMixed100g => p(0.25, 7.75),
            Workload::Scale256Sh8 => p(0.1, 0.85),
            Workload::Cluster2Migrate => p(0.25, 4.5),
            Workload::CampaignOpenloopLossy => p(0.02, 2.3),
        }
    }

    /// True for the campaign: it already averages every model over three
    /// seeds derived from `--seed`, so its repetitions all repeat that
    /// one grid (and must agree bit for bit).
    pub fn repeats_one_seed(self) -> bool {
        self == Workload::CampaignOpenloopLossy
    }

    /// Seed of timed repetition `rep`. The closed-loop workloads draw a
    /// fresh derived seed per repetition, so a run's simulated metrics
    /// are means over its repetitions' seeds: a single seed's LS tail is
    /// one histogram bucket (1.6-3 % steps), and on
    /// `bulk128k_mixed_100g` it and the peak memory swing by +-15 % from
    /// seed to seed. The same `--seed` always derives the same seeds.
    pub fn rep_seed(self, seed: u64, rep: usize) -> u64 {
        if self.repeats_one_seed() {
            seed
        } else {
            seed.wrapping_mul(1000).wrapping_add(rep as u64)
        }
    }
}

/// Timed repetitions in a run of `seconds` (at least one).
pub fn reps_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_REP_S).round() as usize).max(1)
}

/// One unit of timed work.
pub enum Leg {
    /// One `workload::run` call.
    Run {
        /// Leg label (`spdk`, `opf`).
        name: &'static str,
        /// The generated scenario.
        scenario: Box<Scenario>,
    },
    /// One `experiments::campaign::run_campaign` call.
    Campaign(Box<CampaignSpec>),
}

impl Leg {
    /// Leg label for spans and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Leg::Run { name, .. } => name,
            Leg::Campaign(_) => "campaign",
        }
    }
}

/// What a leg produced.
pub enum LegOut {
    /// Result of a scenario leg.
    Run(Box<RunResult>),
    /// Result of a campaign leg.
    Campaign(Box<CampaignSummary>),
}

/// The three campaign seeds derived from `--seed`.
pub fn campaign_seeds(seed: u64) -> Vec<u64> {
    (0..3)
        .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
        .collect()
}

fn ratio_legs(
    seed: u64,
    scale: Scale,
    p: Params,
    speed: Gbps,
    mix: Mix,
    io_blocks: u16,
) -> Vec<Leg> {
    [("spdk", RuntimeKind::Spdk), ("opf", RuntimeKind::Opf)]
        .into_iter()
        .map(|(name, runtime)| {
            let mut sc = Scenario::ratio(runtime, speed, mix, 1, 4);
            (sc.warmup_s, sc.measure_s) = scale.apply(p.warmup_s, p.measure_s);
            sc.io_blocks = io_blocks;
            sc.seed = seed;
            Leg::Run {
                name,
                scenario: Box::new(sc),
            }
        })
        .collect()
}

/// The parsed spec documents a workload is generated from.
pub enum Specs {
    /// Built from `Scenario` constructors alone.
    None,
    /// `cluster2_migrate`'s sweep spec.
    Cluster(Box<sweep::SweepSpec>),
    /// `campaign_openloop_lossy`'s campaign spec.
    Campaign(Box<CampaignSpec>),
}

/// Parse the workload's checked-in spec document, if it has one.
pub fn parse_specs(w: Workload) -> Result<Specs, String> {
    Ok(match w {
        Workload::Cluster2Migrate => {
            Specs::Cluster(Box::new(sweep::SweepSpec::from_json(CLUSTER_SPEC_JSON)?))
        }
        Workload::CampaignOpenloopLossy => Specs::Campaign(Box::new(
            CampaignSpec::from_json_str(CAMPAIGN_SPEC_JSON).map_err(|e| e.to_string())?,
        )),
        _ => Specs::None,
    })
}

/// Generate the workload's legs from the seed. The program under test
/// sees only these `Scenario` / spec values.
pub fn build(w: Workload, specs: &Specs, seed: u64, scale: Scale) -> Result<Vec<Leg>, String> {
    let p = w.params();
    Ok(match (w, specs) {
        (Workload::Read4k100g, _) => ratio_legs(seed, scale, p, Gbps::G100, Mix::READ, 1),
        (Workload::Write4k10g, _) => ratio_legs(seed, scale, p, Gbps::G10, Mix::WRITE, 1),
        (Workload::Bulk128kMixed100g, _) => ratio_legs(seed, scale, p, Gbps::G100, Mix::MIXED, 32),
        (Workload::Scale256Sh8, _) => {
            let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 32);
            sc.pairs = 8;
            sc.separate_nodes = false;
            sc.tc_qd = 32;
            sc.shards = 8;
            sc.parallel = true;
            (sc.warmup_s, sc.measure_s) = scale.apply(p.warmup_s, p.measure_s);
            sc.seed = seed;
            vec![Leg::Run {
                name: "opf",
                scenario: Box::new(sc),
            }]
        }
        (Workload::Cluster2Migrate, Specs::Cluster(spec)) => {
            let mut spec = (**spec).clone();
            spec.seeds = vec![seed];
            (spec.warmup_s, spec.measure_s) = scale.apply(p.warmup_s, p.measure_s);
            let mut expanded = spec.expand();
            if expanded.len() != 1 {
                return Err(format!(
                    "cluster spec must expand to one scenario, got {}",
                    expanded.len()
                ));
            }
            let (_, mut sc) = expanded.remove(0);
            // The sweep schema has no queue-depth or shard axis.
            sc.tc_qd = 32;
            sc.shards = 4;
            for m in &mut sc.migrations {
                m.at_s *= scale.factor();
            }
            vec![Leg::Run {
                name: "opf",
                scenario: Box::new(sc),
            }]
        }
        (Workload::CampaignOpenloopLossy, Specs::Campaign(spec)) => {
            let mut spec = (**spec).clone();
            spec.seeds = campaign_seeds(seed);
            (spec.warmup_s, spec.measure_s) = scale.apply(p.warmup_s, p.measure_s);
            if scale != Scale::Full {
                // The statistical gates (completion floor, fairness,
                // throughput) need the full window; exactly-once holds
                // at any length.
                spec.expectations
                    .retain(|e| e.check == experiments::campaign::Check::ExactlyOnce);
            }
            for cs in &mut spec.scenarios {
                for storm in &mut cs.traffic.churn {
                    storm.at_s *= scale.factor();
                    storm.for_s *= scale.factor();
                }
            }
            vec![Leg::Campaign(Box::new(spec))]
        }
        _ => return Err(format!("{}: spec documents not parsed", w.name())),
    })
}

/// [`parse_specs`] then [`build`].
pub fn plan(w: Workload, seed: u64, scale: Scale) -> Result<Vec<Leg>, String> {
    build(w, &parse_specs(w)?, seed, scale)
}

/// Run one leg, single-threaded.
pub fn run_leg(leg: &Leg) -> LegOut {
    match leg {
        Leg::Run { scenario, .. } => LegOut::Run(Box::new(workload::run(scenario))),
        Leg::Campaign(spec) => {
            LegOut::Campaign(Box::new(experiments::campaign::run_campaign(spec, Some(1))))
        }
    }
}

/// Everything the ledger and the checks read from one `workload::run`.
#[derive(Clone, Debug)]
pub struct LegSnapshot {
    /// `spdk`, `opf`, or `campaign/<scenario>/<seed>`.
    pub name: String,
    /// Runtime of the leg.
    pub runtime: RuntimeKind,
    /// Measured simulated seconds.
    pub measure_s: f64,
    /// The whole-cluster counter snapshot.
    pub metrics: Metrics,
    /// Simulation events executed.
    pub events: u64,
    /// Events scheduled across shard lanes.
    pub cross_shard_events: u64,
    /// Cross-lane schedules routed through the mailbox mesh.
    pub mesh_routed: u64,
    /// Device submissions that crossed target reactors.
    pub cross_reactor_submits: u64,
}

impl LegSnapshot {
    /// Snapshot a finished run.
    pub fn of(name: impl Into<String>, sc: &Scenario, r: &RunResult) -> LegSnapshot {
        LegSnapshot {
            name: name.into(),
            runtime: sc.runtime,
            measure_s: sc.measure_s,
            metrics: r.metrics.clone(),
            events: r.events,
            cross_shard_events: r.cross_shard_events,
            mesh_routed: r.parallel_routed,
            cross_reactor_submits: r.cross_reactor_submits,
        }
    }
}

/// Snapshot every scenario leg of a repetition (campaign legs have no
/// `RunResult`; see [`campaign_audit`]).
pub fn snapshots(legs: &[Leg], outs: &[LegOut]) -> Vec<LegSnapshot> {
    legs.iter()
        .zip(outs)
        .filter_map(|(leg, out)| match (leg, out) {
            (Leg::Run { name, scenario }, LegOut::Run(r)) => {
                Some(LegSnapshot::of(*name, scenario, r))
            }
            _ => None,
        })
        .collect()
}

/// The campaign's grid as plain scenarios — what `run_campaign` builds
/// internally for each (scenario, seed). The summary it returns keeps
/// only cross-seed statistics of the workload-level figures, so the
/// per-component counters (events, fault-plane drops, retries,
/// per-initiator conservation) are read from this twin grid instead;
/// [`crate::checks`] proves the twin equal to the summary.
pub fn campaign_grid(spec: &CampaignSpec) -> Vec<(String, Scenario)> {
    let mut grid = Vec::new();
    for cs in &spec.scenarios {
        for &seed in &spec.seeds {
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
            grid.push((format!("campaign/{}/{seed}", cs.name), sc));
        }
    }
    grid
}

/// Run the campaign's twin grid and snapshot every point.
pub fn campaign_audit(spec: &CampaignSpec) -> Vec<LegSnapshot> {
    campaign_grid(spec)
        .into_iter()
        .map(|(name, sc)| {
            let r = workload::run(&sc);
            LegSnapshot::of(name, &sc, &r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn every_plan_builds_at_every_scale() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Tenth, Scale::Smoke, Scale::Zero] {
                let legs = plan(w, 42, scale).expect("plan builds");
                assert!(!legs.is_empty(), "{} has legs", w.name());
            }
        }
    }

    #[test]
    fn seed_reaches_the_scenarios() {
        let seeds = |seed| -> Vec<u64> {
            plan(Workload::Read4k100g, seed, Scale::Full)
                .unwrap()
                .iter()
                .map(|l| match l {
                    Leg::Run { scenario, .. } => scenario.seed,
                    Leg::Campaign(_) => unreachable!(),
                })
                .collect()
        };
        assert_eq!(seeds(7), vec![7, 7]);
        assert_eq!(campaign_seeds(42), vec![42_000, 42_001, 42_002]);
        assert_eq!(Workload::Read4k100g.rep_seed(42, 3), 42_003);
        assert_eq!(Workload::CampaignOpenloopLossy.rep_seed(42, 3), 42);
        assert_ne!(campaign_seeds(42), campaign_seeds(43));
    }

    #[test]
    fn reps_follow_the_run_length() {
        assert_eq!(reps_for(15.0), 5);
        assert_eq!(reps_for(0.1), 1);
    }
}
