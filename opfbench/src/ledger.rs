//! Reduce `RunResult::metrics` snapshots — the counters the simulator
//! already exposes — to the benchmark's simulated-clock figures and its
//! per-layer **C** (deterministic counter) metrics. Nothing here touches
//! the program under test; it only reads what a run returned.

use crate::workloads::{LegSnapshot, LS_TAIL_KEY};
use simkit::json::Json;
use simkit::metrics::format_f64;
use std::collections::BTreeMap;
use workload::RuntimeKind;

/// Which kind of component a snapshot key belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Comp {
    /// An initiator (`ini<N>.`).
    Ini,
    /// An initiator's own fabric endpoint (`ini<N>.ep.`).
    IniEp,
    /// A target (`pair<N>.tgt.` / `tgt<N>.`).
    Tgt,
    /// A device (`pair<N>.dev.` / `dev<N>.`).
    Dev,
    /// A target's fabric endpoint (`pair<N>.tgt_ep.` / `tgt<N>_ep.`).
    TgtEp,
    /// A shared initiator-node endpoint.
    NodeEp,
    /// A run-level key (`tc.iops`, `faults.drops`, `cluster.mgr_ticks`, …).
    Top,
}

/// `prefix<digits><sep>rest` → `rest`.
fn strip_indexed<'a>(key: &'a str, prefix: &str, sep: &str) -> Option<&'a str> {
    let rest = key.strip_prefix(prefix)?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    rest[digits..].strip_prefix(sep)
}

/// Split a snapshot key into its component kind and the counter name
/// within that component, for both the single-target and the cluster
/// runner's prefix conventions.
pub fn classify(key: &str) -> (Comp, &str) {
    if let Some(rest) = strip_indexed(key, "ini", ".") {
        return match rest.strip_prefix("ep.") {
            Some(r) => (Comp::IniEp, r),
            None => (Comp::Ini, rest),
        };
    }
    let inner = strip_indexed(key, "pair", ".").unwrap_or(key);
    if let Some(r) = inner.strip_prefix("tgt_ep.") {
        return (Comp::TgtEp, r);
    }
    if let Some(r) = strip_indexed(inner, "tgt", "_ep.") {
        return (Comp::TgtEp, r);
    }
    if let Some(r) = inner
        .strip_prefix("tgt.")
        .or_else(|| strip_indexed(inner, "tgt", "."))
    {
        return (Comp::Tgt, r);
    }
    if let Some(r) = inner
        .strip_prefix("dev.")
        .or_else(|| strip_indexed(inner, "dev", "."))
    {
        return (Comp::Dev, r);
    }
    if let Some(r) = inner.strip_prefix("ini_node_ep.") {
        return (Comp::NodeEp, r);
    }
    (Comp::Top, key)
}

#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    sum: f64,
    max: f64,
    n: u64,
}

/// Per-(component kind, counter) sums, maxima and means over a set of legs.
#[derive(Debug, Default)]
pub struct Totals {
    map: BTreeMap<(Comp, String), Agg>,
}

impl Totals {
    /// Aggregate the given legs.
    pub fn of<'a>(legs: impl IntoIterator<Item = &'a LegSnapshot>) -> Totals {
        let mut t = Totals::default();
        for leg in legs {
            for (key, v) in leg.metrics.iter() {
                let (comp, name) = classify(key);
                let a = t.map.entry((comp, name.to_string())).or_default();
                a.sum += v;
                a.max = a.max.max(v);
                a.n += 1;
            }
        }
        t
    }

    fn agg(&self, comp: Comp, name: &str) -> Agg {
        self.map
            .get(&(comp, name.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// Sum over every component of the kind (0 when absent).
    pub fn sum(&self, comp: Comp, name: &str) -> f64 {
        self.agg(comp, name).sum
    }

    /// Maximum over every component of the kind (0 when absent).
    pub fn max(&self, comp: Comp, name: &str) -> f64 {
        self.agg(comp, name).max
    }

    /// Mean over every component of the kind (0 when absent).
    pub fn mean(&self, comp: Comp, name: &str) -> f64 {
        let a = self.agg(comp, name);
        if a.n == 0 {
            0.0
        } else {
            a.sum / a.n as f64
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn opf_legs(legs: &[LegSnapshot]) -> impl Iterator<Item = &LegSnapshot> {
    legs.iter().filter(|l| l.runtime == RuntimeKind::Opf)
}

fn spdk_legs(legs: &[LegSnapshot]) -> impl Iterator<Item = &LegSnapshot> {
    legs.iter().filter(|l| l.runtime == RuntimeKind::Spdk)
}

/// The simulated-clock facts of a set of legs (bit-exact for a seed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimFacts {
    /// I/Os completed over the whole run of every leg (warm-up included):
    /// the denominator of every per-I/O figure.
    pub ios: u64,
    /// Commands submitted, all legs.
    pub submitted: u64,
    /// Commands still in flight when the runs ended.
    pub inflight: u64,
    /// Error completions seen by initiators.
    pub errors: u64,
    /// Commands failed locally after exhausting their retry budget.
    pub retry_exhausted: u64,
    /// Commands unaccounted for: per leg, |submitted − completed − inflight|.
    pub gap: u64,
    /// Protocol violations counted by initiators.
    pub ini_protocol_errors: u64,
    /// PDUs targets dropped as protocol violations. A live migration
    /// legitimately produces some: completions for a tenant that has
    /// moved away are dropped at the old home and the commands re-driven.
    pub tgt_protocol_errors: u64,
    /// Commands retransmitted by the recovery machinery (fault plane or
    /// cluster runner); 0 where neither is installed.
    pub retries: u64,
    /// Initiator protocol violations that retransmission cannot explain:
    /// per leg, those beyond the leg's retransmissions.
    pub stray_protocol_errors: u64,
    /// Commands re-driven after a live migration.
    pub redriven: u64,
    /// Live migrations completed.
    pub migrations: u64,
    /// Simulation events executed, all legs.
    pub events: u64,
    /// Aggregate TC kIOPS in the measure window, mean over the oPF legs.
    pub tc_kiops: f64,
    /// LS p99 latency (µs, [`LS_TAIL_KEY`]), mean over the oPF legs.
    pub ls_tail_us: f64,
    /// Fewest LS samples any oPF leg collected in its measure window.
    pub ls_samples: u64,
}

impl SimFacts {
    /// Reduce a set of legs.
    pub fn of(legs: &[LegSnapshot]) -> SimFacts {
        let t = Totals::of(legs);
        let mut gap = 0u64;
        let mut stray_protocol_errors = 0u64;
        for leg in legs {
            let lt = Totals::of([leg]);
            let retries =
                lt.sum(Comp::Top, "faults.retries") + lt.sum(Comp::Top, "recovery.retries");
            stray_protocol_errors +=
                (lt.sum(Comp::Ini, "protocol_errors") - retries).max(0.0) as u64;
            let (s, c, i) = (
                lt.sum(Comp::Ini, "submitted"),
                lt.sum(Comp::Ini, "completed"),
                lt.sum(Comp::Ini, "inflight"),
            );
            gap += (s - c - i).abs() as u64;
        }
        let opf: Vec<&LegSnapshot> = opf_legs(legs).collect();
        let mean_of = |key: &str| {
            ratio(
                opf.iter().filter_map(|l| l.metrics.get(key)).sum::<f64>(),
                opf.len() as f64,
            )
        };
        let ls_samples = opf
            .iter()
            .map(|l| (l.metrics.get("ls.iops").unwrap_or(0.0) * l.measure_s).round() as u64)
            .min()
            .unwrap_or(0);
        SimFacts {
            ios: t.sum(Comp::Ini, "completed") as u64,
            submitted: t.sum(Comp::Ini, "submitted") as u64,
            inflight: t.sum(Comp::Ini, "inflight") as u64,
            errors: t.sum(Comp::Ini, "errors") as u64,
            retry_exhausted: t.sum(Comp::Ini, "retry_exhausted") as u64,
            gap,
            ini_protocol_errors: t.sum(Comp::Ini, "protocol_errors") as u64,
            tgt_protocol_errors: t.sum(Comp::Tgt, "protocol_errors") as u64,
            retries: (t.sum(Comp::Top, "faults.retries") + t.sum(Comp::Top, "recovery.retries"))
                as u64,
            stray_protocol_errors,
            redriven: t.sum(Comp::Top, "cluster.redriven") as u64,
            migrations: t.sum(Comp::Top, "cluster.migrations_done") as u64,
            events: legs.iter().map(|l| l.events).sum(),
            tc_kiops: mean_of("tc.iops") / 1e3,
            ls_tail_us: mean_of(LS_TAIL_KEY),
            ls_samples,
        }
    }

    /// The facts of several repetitions taken together: counts add up,
    /// rates and latencies average over the repetitions' seeds, the LS
    /// sample count is the fewest any of them collected.
    pub fn combine(reps: &[SimFacts]) -> SimFacts {
        let sum = |f: fn(&SimFacts) -> u64| reps.iter().map(f).sum::<u64>();
        let mean = |f: fn(&SimFacts) -> f64| ratio(reps.iter().map(f).sum(), reps.len() as f64);
        SimFacts {
            ios: sum(|f| f.ios),
            submitted: sum(|f| f.submitted),
            inflight: sum(|f| f.inflight),
            errors: sum(|f| f.errors),
            retry_exhausted: sum(|f| f.retry_exhausted),
            gap: sum(|f| f.gap),
            ini_protocol_errors: sum(|f| f.ini_protocol_errors),
            tgt_protocol_errors: sum(|f| f.tgt_protocol_errors),
            retries: sum(|f| f.retries),
            stray_protocol_errors: sum(|f| f.stray_protocol_errors),
            redriven: sum(|f| f.redriven),
            migrations: sum(|f| f.migrations),
            events: sum(|f| f.events),
            tc_kiops: mean(|f| f.tc_kiops),
            ls_tail_us: mean(|f| f.ls_tail_us),
            ls_samples: reps.iter().map(|f| f.ls_samples).min().unwrap_or(0),
        }
    }

    /// As a JSON object (what a child hands its parent).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ios\":{},\"submitted\":{},\"inflight\":{},\"errors\":{},\"retry_exhausted\":{},\
             \"gap\":{},\"ini_protocol_errors\":{},\"tgt_protocol_errors\":{},\"retries\":{},\"stray_protocol_errors\":{},\"redriven\":{},\
             \"migrations\":{},\"events\":{},\"tc_kiops\":{},\"ls_tail_us\":{},\"ls_samples\":{}}}",
            self.ios,
            self.submitted,
            self.inflight,
            self.errors,
            self.retry_exhausted,
            self.gap,
            self.ini_protocol_errors,
            self.tgt_protocol_errors,
            self.retries,
            self.stray_protocol_errors,
            self.redriven,
            self.migrations,
            self.events,
            format_f64(self.tc_kiops),
            format_f64(self.ls_tail_us),
            self.ls_samples,
        )
    }

    /// Read [`Self::to_json`] back.
    pub fn from_json(doc: &Json) -> Result<SimFacts, String> {
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("facts lack whole number `{k}`"))
        };
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("facts lack number `{k}`"))
        };
        Ok(SimFacts {
            ios: int("ios")?,
            submitted: int("submitted")?,
            inflight: int("inflight")?,
            errors: int("errors")?,
            retry_exhausted: int("retry_exhausted")?,
            gap: int("gap")?,
            ini_protocol_errors: int("ini_protocol_errors")?,
            tgt_protocol_errors: int("tgt_protocol_errors")?,
            retries: int("retries")?,
            stray_protocol_errors: int("stray_protocol_errors")?,
            redriven: int("redriven")?,
            migrations: int("migrations")?,
            events: int("events")?,
            tc_kiops: num("tc_kiops")?,
            ls_tail_us: num("ls_tail_us")?,
            ls_samples: int("ls_samples")?,
        })
    }

    /// Commands that failed or were never accounted for.
    pub fn failed(&self) -> u64 {
        self.errors + self.retry_exhausted + self.gap
    }

    /// `failed / submitted`.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed() as f64, self.submitted as f64)
    }

    /// `1 − failed_share`: the never-zero face of [`Self::failed_share`]
    /// (exactly 1 on a healthy run; in-flight commands are neither
    /// failed nor missing).
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed_share()
    }
}

/// Completed-command counts of every TC tenant of the oPF legs.
pub fn tc_tenant_completed(legs: &[LegSnapshot]) -> Vec<f64> {
    let mut out = Vec::new();
    for leg in opf_legs(legs) {
        for (key, v) in leg.metrics.iter() {
            if v > 0.0 && key.ends_with(".tc_submitted") && classify(key).0 == Comp::Ini {
                let done = key.replace(".tc_submitted", ".completed");
                out.push(leg.metrics.get(&done).unwrap_or(0.0));
            }
        }
    }
    out
}

/// `(max − min) / mean` of per-tenant served counts (0 for < 2 tenants).
pub fn spread_of(served: &[f64]) -> f64 {
    if served.len() < 2 {
        return 0.0;
    }
    let max = served.iter().copied().fold(f64::MIN, f64::max);
    let min = served.iter().copied().fold(f64::MAX, f64::min);
    let mean = served.iter().sum::<f64>() / served.len() as f64;
    ratio(max - min, mean)
}

/// The per-layer **C** metrics of one repetition. `wall_s` is the
/// repetition's host time (only `simkit.events_per_host_s` uses it).
///
/// Host-cost counters (events, frames, PDUs, device commands) sum over
/// every leg and divide by every completed I/O; model counters
/// (utilisations, coalescing, queue depths) read the oPF legs, the
/// `nvmf.*` ones the SPDK legs.
pub fn counters(legs: &[LegSnapshot], facts: &SimFacts, wall_s: f64) -> Vec<(&'static str, f64)> {
    let all = Totals::of(legs);
    let opf = Totals::of(opf_legs(legs));
    let spdk = Totals::of(spdk_legs(legs));
    let ios = facts.ios as f64;
    let opf_ios = opf.sum(Comp::Ini, "completed");
    let spdk_ios = spdk.sum(Comp::Ini, "completed");
    let sum_legs = |f: fn(&LegSnapshot) -> u64| legs.iter().map(f).sum::<u64>() as f64;
    let pdus = |t: &Totals| {
        [
            "pdu.cmds_rx",
            "pdu.data_rx",
            "pdu.resps_tx",
            "pdu.r2ts_tx",
            "pdu.data_tx",
        ]
        .iter()
        .map(|k| t.sum(Comp::Tgt, k))
        .sum::<f64>()
    };
    let top = |a: &str, b: &str| all.sum(Comp::Top, a) + all.sum(Comp::Top, b);

    // Per-initiator drain latencies are averages; weight by their counts.
    let mut drain_weighted = 0.0;
    for leg in opf_legs(legs) {
        for (key, avg) in leg.metrics.iter() {
            if key.ends_with(".drain_latency_avg_us") {
                let n = key.replace("_avg_us", "_count");
                drain_weighted += avg * leg.metrics.get(&n).unwrap_or(0.0);
            }
        }
    }

    let spdk_leg = spdk_legs(legs).next();
    let opf_leg = opf_legs(legs).next();
    let vs_spdk = |key: &str| match (spdk_leg, opf_leg) {
        (Some(s), Some(o)) => ratio(
            o.metrics.get(key).unwrap_or(0.0),
            s.metrics.get(key).unwrap_or(0.0),
        ),
        _ => 0.0,
    };

    let traffic_legs: Vec<&LegSnapshot> = legs
        .iter()
        .filter(|l| l.metrics.get("traffic.offered").is_some())
        .collect();
    let (completion_ratio, fairness, offered_per_s) = if traffic_legs.is_empty() {
        (1.0, spread_of(&tc_tenant_completed(legs)), 0.0)
    } else {
        let n = traffic_legs.len() as f64;
        let get = |l: &LegSnapshot, k: &str| l.metrics.get(k).unwrap_or(0.0);
        (
            traffic_legs
                .iter()
                .map(|l| get(l, "traffic.completion_ratio"))
                .sum::<f64>()
                / n,
            traffic_legs
                .iter()
                .map(|l| get(l, "traffic.fairness_spread"))
                .fold(0.0, f64::max),
            traffic_legs
                .iter()
                .map(|l| get(l, "traffic.offered"))
                .sum::<f64>()
                / traffic_legs.iter().map(|l| l.measure_s).sum::<f64>(),
        )
    };

    let offered = top("faults.offered", "recovery.offered");
    vec![
        ("simkit.events_per_io", ratio(facts.events as f64, ios)),
        (
            "simkit.events_per_host_s",
            ratio(facts.events as f64, wall_s),
        ),
        (
            "simkit.xshard_events_per_io",
            ratio(sum_legs(|l| l.cross_shard_events), ios),
        ),
        (
            "simkit.mesh_routed_per_io",
            ratio(sum_legs(|l| l.mesh_routed), ios),
        ),
        (
            "simkit.horizon_dropped",
            all.sum(Comp::Top, "kernel.horizon_dropped"),
        ),
        (
            "queues.xreactor_submits_per_io",
            ratio(sum_legs(|l| l.cross_reactor_submits), ios),
        ),
        (
            "fabric.frames_per_io",
            ratio(
                all.sum(Comp::TgtEp, "frames_tx") + all.sum(Comp::TgtEp, "frames_rx"),
                ios,
            ),
        ),
        (
            "fabric.bytes_per_io",
            ratio(
                all.sum(Comp::TgtEp, "bytes_tx") + all.sum(Comp::TgtEp, "bytes_rx"),
                ios,
            ),
        ),
        (
            "fabric.tgt_uplink_util",
            opf.mean(Comp::TgtEp, "link.uplink_util"),
        ),
        (
            "fabric.tgt_downlink_util",
            opf.mean(Comp::TgtEp, "link.downlink_util"),
        ),
        (
            "nvme.cmds_per_io",
            ratio(
                all.sum(Comp::Dev, "reads")
                    + all.sum(Comp::Dev, "writes")
                    + all.sum(Comp::Dev, "flushes"),
                ios,
            ),
        ),
        (
            "nvme.flash_busy_fraction",
            opf.mean(Comp::Dev, "flash.busy_fraction"),
        ),
        ("nvme.max_inflight", all.max(Comp::Dev, "max_inflight")),
        (
            "nvme.ooo_completions_per_io",
            ratio(all.sum(Comp::Dev, "cq.out_of_order_completions"), ios),
        ),
        ("nvmf.pdus_per_io", ratio(pdus(&all), ios)),
        (
            "nvmf.notifications_per_io",
            ratio(spdk.sum(Comp::Tgt, "pdu.resps_tx"), spdk_ios),
        ),
        ("nvmf.reactor_util", spdk.mean(Comp::Tgt, "reactor_util")),
        (
            "nvmf.backpressured_sends",
            all.sum(Comp::Tgt, "backpressured_sends"),
        ),
        (
            "nvmf.protocol_errors",
            (facts.ini_protocol_errors + facts.tgt_protocol_errors) as f64,
        ),
        (
            "opf.notifications_per_io",
            ratio(opf.sum(Comp::Tgt, "pdu.resps_tx"), opf_ios),
        ),
        (
            "opf.coalesce_ratio",
            ratio(
                opf.sum(Comp::Tgt, "completed"),
                opf.sum(Comp::Tgt, "pdu.resps_tx"),
            ),
        ),
        (
            "opf.drains_per_io",
            ratio(opf.sum(Comp::Ini, "drains_sent"), opf_ios),
        ),
        (
            "opf.ls_bypassed_per_ls_io",
            ratio(
                opf.sum(Comp::Tgt, "ls_bypassed"),
                opf.sum(Comp::Ini, "ls_submitted"),
            ),
        ),
        ("opf.max_tc_queue", opf.max(Comp::Tgt, "max_tc_queue")),
        ("opf.reactor_util", opf.mean(Comp::Tgt, "reactor_util")),
        (
            "opf.drain_latency_avg_us",
            ratio(drain_weighted, opf.sum(Comp::Ini, "drain_latency_count")),
        ),
        ("opf.window_changes", opf.sum(Comp::Ini, "window_changes")),
        ("opf.tc_gain_vs_spdk", vs_spdk("tc.iops")),
        ("opf.ls_tail_vs_spdk", vs_spdk(LS_TAIL_KEY)),
        ("faults.drops", all.sum(Comp::Top, "faults.drops")),
        (
            "faults.retries_per_io",
            ratio(top("faults.retries", "recovery.retries"), ios),
        ),
        (
            "faults.redrains",
            top("faults.redrains", "recovery.redrains"),
        ),
        (
            "faults.dup_resps_suppressed",
            top(
                "faults.dup_resps_suppressed",
                "recovery.dup_resps_suppressed",
            ),
        ),
        ("faults.retry_exhausted", facts.retry_exhausted as f64),
        (
            "faults.goodput_ratio",
            if offered > 0.0 {
                top("faults.goodput", "recovery.goodput") / offered
            } else {
                1.0
            },
        ),
        ("cluster.mgr_ticks", all.sum(Comp::Top, "cluster.mgr_ticks")),
        (
            "cluster.weight_updates",
            all.sum(Comp::Top, "cluster.weight_updates"),
        ),
        (
            "cluster.max_imbalance",
            all.max(Comp::Top, "cluster.max_imbalance"),
        ),
        (
            "cluster.migrations_done",
            all.sum(Comp::Top, "cluster.migrations_done"),
        ),
        (
            "cluster.cmds_moved",
            all.sum(Comp::Top, "cluster.cmds_moved"),
        ),
        ("cluster.redriven", all.sum(Comp::Top, "cluster.redriven")),
        ("workload.traffic_completion_ratio", completion_ratio),
        ("workload.fairness_spread", fairness),
        ("workload.offered_per_s", offered_per_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_both_runner_conventions() {
        assert_eq!(classify("ini3.completed"), (Comp::Ini, "completed"));
        assert_eq!(classify("ini12.ep.frames_tx"), (Comp::IniEp, "frames_tx"));
        assert_eq!(
            classify("pair0.tgt.pdu.resps_tx"),
            (Comp::Tgt, "pdu.resps_tx")
        );
        assert_eq!(classify("tgt1.pdu.resps_tx"), (Comp::Tgt, "pdu.resps_tx"));
        assert_eq!(classify("pair7.dev.reads"), (Comp::Dev, "reads"));
        assert_eq!(classify("dev0.reads"), (Comp::Dev, "reads"));
        assert_eq!(classify("pair0.tgt_ep.bytes_tx"), (Comp::TgtEp, "bytes_tx"));
        assert_eq!(classify("tgt1_ep.bytes_tx"), (Comp::TgtEp, "bytes_tx"));
        assert_eq!(
            classify("pair2.ini_node_ep.msgs_tx"),
            (Comp::NodeEp, "msgs_tx")
        );
        assert_eq!(classify("ini_node_ep.msgs_tx"), (Comp::NodeEp, "msgs_tx"));
        assert_eq!(classify("tc.iops"), (Comp::Top, "tc.iops"));
        assert_eq!(classify("initial"), (Comp::Top, "initial"));
        assert_eq!(classify("faults.drops"), (Comp::Top, "faults.drops"));
    }

    #[test]
    fn spread_is_max_minus_min_over_mean() {
        assert_eq!(spread_of(&[10.0]), 0.0);
        assert!((spread_of(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
