//! Correctness checks, run on every repetition. Any failure fails the
//! command: a benchmark number from a run that lost a command or broke
//! a paper-shape invariant is not a number worth comparing.

use crate::ledger::{self, SimFacts};
use crate::workloads::{LegSnapshot, Scale, Workload, LS_MIN_SAMPLES, LS_TAIL_KEY};
use experiments::campaign::CampaignSummary;
use simkit::FxHasher;
use std::hash::Hasher;
use workload::RuntimeKind;

/// Outcome of one check.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckResult {
    /// Stable check name.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// What was observed.
    pub detail: String,
}

fn check(name: &str, pass: bool, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        pass,
        detail,
    }
}

/// FxHash of the legs' metric snapshots, minus what an event-count- or
/// lane-preserving refactor may legitimately change: `events`,
/// `kernel.*`, and the shard/mesh bookkeeping (which lives outside the
/// snapshot already). Two commits with equal digests simulated the same
/// thing; all repetitions of one workload must agree on it.
pub fn sim_digest(legs: &[LegSnapshot]) -> u64 {
    let mut h = FxHasher::default();
    for leg in legs {
        h.write(leg.name.as_bytes());
        for (key, value) in leg.metrics.iter() {
            if key == "events" || key.starts_with("kernel.") {
                continue;
            }
            h.write(key.as_bytes());
            h.write_u64(value.to_bits());
        }
    }
    h.finish()
}

/// Exactly-once conservation: every submitted command is completed or
/// still in flight, nothing errored, no retry budget exhausted, and no
/// protocol violation — with two exceptions the recovery machinery
/// explains. A target drops PDUs for a tenant that has migrated away:
/// the data PDU of each command later re-driven and one coalesced
/// response per migration find no connection at the old home. And an
/// initiator counts (and drops) a response replayed for a command it
/// retransmitted across a churn-storm reconnect; a leg can have no more
/// of those than retransmissions, and none where nothing retransmits.
pub fn conservation(facts: &SimFacts) -> CheckResult {
    check(
        "conservation",
        facts.submitted > 0
            && facts.gap == 0
            && facts.errors == 0
            && facts.stray_protocol_errors == 0
            && facts.tgt_protocol_errors <= facts.redriven + facts.migrations
            && facts.retry_exhausted == 0,
        format!(
            "submitted {} = completed {} + inflight {} (gap {}), errors {}, retry_exhausted {}, \
             protocol_errors {} at initiators ({} beyond their legs' {} retransmissions), {} at targets \
             (<= {} re-driven + {} migrations)",
            facts.submitted,
            facts.ios,
            facts.inflight,
            facts.gap,
            facts.errors,
            facts.retry_exhausted,
            facts.ini_protocol_errors,
            facts.stray_protocol_errors,
            facts.retries,
            facts.tgt_protocol_errors,
            facts.redriven,
            facts.migrations
        ),
    )
}

fn leg_of(legs: &[LegSnapshot], runtime: RuntimeKind) -> Option<&LegSnapshot> {
    legs.iter().find(|l| l.runtime == runtime)
}

/// The paper's shape, where the workload reproduces a paper point:
/// on `read4k_100g` oPF must match or beat SPDK's TC throughput, cut the
/// LS tail and send at least 4× fewer completion notifications; on
/// `scale256_sh8` the 256 TC tenants must be served within 5 % of each
/// other.
pub fn paper_shape(w: Workload, scale: Scale, legs: &[LegSnapshot]) -> Vec<CheckResult> {
    let get = |l: &LegSnapshot, k: &str| l.metrics.get(k).unwrap_or(0.0);
    match w {
        Workload::Read4k100g => {
            let (Some(s), Some(o)) = (
                leg_of(legs, RuntimeKind::Spdk),
                leg_of(legs, RuntimeKind::Opf),
            ) else {
                return vec![check(
                    "shape.legs",
                    false,
                    "needs an SPDK leg and an oPF leg".into(),
                )];
            };
            let tail = LS_TAIL_KEY;
            vec![
                check(
                    "shape.tc_kiops",
                    get(o, "tc.iops") >= get(s, "tc.iops"),
                    format!(
                        "oPF {} vs SPDK {} IOPS",
                        get(o, "tc.iops"),
                        get(s, "tc.iops")
                    ),
                ),
                check(
                    "shape.ls_tail",
                    get(o, tail) < get(s, tail),
                    format!("oPF {} vs SPDK {} us", get(o, tail), get(s, tail)),
                ),
                check(
                    "shape.notifications",
                    get(o, "notifications") * 4.0 <= get(s, "notifications"),
                    format!(
                        "oPF {} vs SPDK {}",
                        get(o, "notifications"),
                        get(s, "notifications")
                    ),
                ),
            ]
        }
        // Per-tenant counts need the full window to even out.
        Workload::Scale256Sh8 if scale == Scale::Full => {
            let spread = ledger::spread_of(&ledger::tc_tenant_completed(legs));
            vec![check(
                "shape.fairness",
                spread <= 0.05,
                format!("TC tenant spread {spread:.4}"),
            )]
        }
        _ => Vec::new(),
    }
}

/// The campaign spec's own expectation gates.
pub fn campaign_gates(summary: &CampaignSummary) -> CheckResult {
    let failed: Vec<String> = summary
        .outcomes
        .iter()
        .filter(|o| !o.pass)
        .map(|o| format!("{}: {} (observed {:?})", o.scenario, o.label, o.observed))
        .collect();
    check(
        "campaign.gates",
        summary.pass && !summary.outcomes.is_empty(),
        if failed.is_empty() {
            format!("{} gates passed", summary.outcomes.len())
        } else {
            failed.join("; ")
        },
    )
}

/// The twin grid (see [`crate::workloads::campaign_grid`]) must be the
/// campaign: per scenario, the cross-seed mean of `completed` and
/// `tc.iops` over the twin's runs equals the summary's.
pub fn campaign_twin(summary: &CampaignSummary, audit: &[LegSnapshot]) -> CheckResult {
    let seeds = summary.seeds.len().max(1);
    let mut worst: f64 = 0.0;
    let mut compared = 0;
    for ((_, stats), runs) in summary.stats.iter().zip(audit.chunks(seeds)) {
        for key in ["completed", "tc.iops"] {
            let Some(s) = stats.iter().find(|m| m.metric == key) else {
                continue;
            };
            let mean = runs
                .iter()
                .map(|r| r.metrics.get(key).unwrap_or(f64::NAN))
                .sum::<f64>()
                / runs.len() as f64;
            worst = worst.max(((mean - s.mean) / s.mean.abs().max(1.0)).abs());
            compared += 1;
        }
    }
    check(
        "campaign.twin",
        compared == 2 * summary.stats.len()
            && audit.len() == summary.stats.len() * seeds
            && worst < 1e-12,
        format!("{compared} figures compared, worst relative difference {worst:e}"),
    )
}

/// At full length the oPF legs must have collected enough LS samples
/// for p99 to have ten beyond it.
pub fn ls_sample_floor(facts: &SimFacts, scale: Scale) -> Option<CheckResult> {
    (scale == Scale::Full).then(|| {
        check(
            "ls_samples",
            facts.ls_samples >= LS_MIN_SAMPLES,
            format!("{} LS samples, need {LS_MIN_SAMPLES}", facts.ls_samples),
        )
    })
}

/// Every check that applies to one repetition's legs.
pub fn all(
    w: Workload,
    scale: Scale,
    legs: &[LegSnapshot],
    facts: &SimFacts,
    campaign: Option<&CampaignSummary>,
) -> Vec<CheckResult> {
    let mut out = vec![conservation(facts)];
    out.extend(paper_shape(w, scale, legs));
    out.extend(ls_sample_floor(facts, scale));
    if let Some(summary) = campaign {
        out.push(campaign_gates(summary));
        out.push(campaign_twin(summary, legs));
    }
    out
}
