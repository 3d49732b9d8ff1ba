//! The benchmark's contract, read from `BENCHMARK.json` (compiled in, so
//! the binary and the file it is judged by cannot drift), plus what the
//! file's fixed schema has no room for: where each per-layer metric
//! comes from and which end-to-end metric it should move, on which
//! workload.

use simkit::json::{self, Json};

/// The contract file at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the contract.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Normative name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Default run length of one driver run, seconds.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" must be an array"))?;
    arr.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry needs a string \"{k}\""))
            };
            Ok(MetricDef {
                name: s("name")?,
                unit: s("unit")?,
                better: match s("better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Catalog {
    /// Parse the compiled-in contract.
    pub fn load() -> Result<Catalog, String> {
        Catalog::parse(BENCHMARK_JSON)
    }

    /// Parse a contract document.
    pub fn parse(src: &str) -> Result<Catalog, String> {
        let doc = json::parse(src)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: \"workloads\" must be an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload needs a \"name\"".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: \"run_seconds\" must be a whole number")?,
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// The end-to-end metric named `name`.
    pub fn end_to_end_def(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// How a per-layer metric is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Deterministic counter from `RunResult::metrics` of the timed
    /// runs, normalised per completed I/O: exact, doubles as a
    /// behaviour guard.
    Counter,
    /// Host time from an isolated driver calling only the layer's
    /// public functions.
    Driver,
    /// The traced run: twin pump, loss-free twin, allocator, attribution.
    Traced,
}

/// Provenance and predicted interaction of one per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct LayerNote {
    /// Metric name (must appear in `BENCHMARK.json`).
    pub name: &'static str,
    /// Where the number comes from.
    pub source: Source,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn note(name: &'static str, source: Source, moves: &'static str) -> LayerNote {
    LayerNote {
        name,
        source,
        moves,
    }
}

use Source::{Counter as C, Driver as D, Traced as T};

const SIMKIT_4K: &str = "host_ns_per_io on read4k_100g, write4k_10g (events/I/O x hold cost is most of it); nil on bulk128k_mixed_100g";
const SIMKIT_DEEP: &str = "host_ns_per_io on scale256_sh8 only";
const QUEUES: &str = "host_ns_per_io on scale256_sh8; < 2 % elsewhere";
const FABRIC_HOST: &str = "host_ns_per_io on bulk128k_mixed_100g, write4k_10g";
const FABRIC_LINK: &str = "sim_tc_kiops on write4k_10g (link-bound)";
const NVME_HOST: &str = "host_ns_per_io on bulk128k_mixed_100g (reads, not writes)";
const NVME_MODEL: &str = "sim_tc_kiops on read4k_100g (flash-bound)";
const NVMF_HOST: &str = "host_ns_per_io on the SPDK legs of read4k_100g, write4k_10g";
const NVMF_CODEC: &str =
    "none today: the run path sizes PDUs with wire_len() and never encodes; would move bulk128k_mixed_100g if it did";
const OPF_HOST: &str = "host_ns_per_io on the oPF legs of read4k_100g, scale256_sh8";
const OPF_TC: &str = "sim_tc_kiops on read4k_100g; no change on write4k_10g";
const OPF_LS: &str = "sim_ls_tail_us on read4k_100g";
const FAULTS: &str =
    "ok_share, sim_ls_tail_us, host_ns_per_io on campaign_openloop_lossy; nil elsewhere (plane not installed)";
const CLUSTER: &str = "host_ns_per_io, sim_tc_kiops on cluster2_migrate only";
const WORKLOAD_OPEN: &str = "host_ns_per_io on campaign_openloop_lossy";
const WHOLE: &str = "host_ns_per_io everywhere; peak_rss_mb on scale256_sh8";
const NONE: &str = "none (diagnostic)";

/// Provenance and predicted interaction of every per-layer metric.
pub const LAYER_NOTES: &[LayerNote] = &[
    note("simkit.events_per_io", C, SIMKIT_4K),
    note("simkit.events_per_host_s", C, "none by itself: removing events lowers it while every end-to-end number improves"),
    note("simkit.xshard_events_per_io", C, SIMKIT_DEEP),
    note("simkit.mesh_routed_per_io", C, SIMKIT_DEEP),
    note("simkit.horizon_dropped", C, FAULTS),
    note("simkit.hold_ns_per_event_d64", D, SIMKIT_4K),
    note("simkit.hold_ns_per_event_d4096", D, "host_ns_per_io on cluster2_migrate, scale256_sh8"),
    note("simkit.hold_ns_per_event_d65536", D, SIMKIT_DEEP),
    note("simkit.sharded8_ns_per_event", D, SIMKIT_DEEP),
    note("simkit.meshed8_ns_per_event", D, SIMKIT_DEEP),
    note("simkit.allocs_per_event", D, WHOLE),
    note("simkit.json_ns_per_kib", D, "setup_s on cluster2_migrate, campaign_openloop_lossy"),
    note("queues.xreactor_submits_per_io", C, QUEUES),
    note("queues.cid_ns_per_cid_w32", D, QUEUES),
    note("queues.spsc_ns_per_op", D, QUEUES),
    note("queues.mailbox_ns_per_msg", D, QUEUES),
    note("fabric.frames_per_io", C, FABRIC_HOST),
    note("fabric.bytes_per_io", C, FABRIC_HOST),
    note("fabric.tgt_uplink_util", C, FABRIC_LINK),
    note("fabric.tgt_downlink_util", C, FABRIC_LINK),
    note("fabric.self_ns_per_msg_4k", D, FABRIC_HOST),
    note("fabric.self_ns_per_msg_128k", D, FABRIC_HOST),
    note("fabric.events_per_msg_128k", D, FABRIC_HOST),
    note("fabric.allocs_per_msg", D, FABRIC_HOST),
    note("nvme.cmds_per_io", C, NVME_HOST),
    note("nvme.flash_busy_fraction", C, NVME_MODEL),
    note("nvme.max_inflight", C, NVME_MODEL),
    note("nvme.ooo_completions_per_io", C, NVME_MODEL),
    note("nvme.self_ns_per_read_4k", D, "host_ns_per_io on read4k_100g"),
    note("nvme.self_ns_per_read_128k", D, NVME_HOST),
    note("nvme.self_ns_per_write_4k", D, "host_ns_per_io on write4k_10g"),
    note("nvme.self_ns_per_write_128k", D, NVME_HOST),
    note("nvme.alloc_bytes_per_read_128k", D, NVME_HOST),
    note("nvme.device_us_ls", T, OPF_LS),
    note("nvme.device_us_tc", T, NVME_MODEL),
    note("nvmf.pdus_per_io", C, NVMF_HOST),
    note("nvmf.notifications_per_io", C, NVMF_HOST),
    note("nvmf.reactor_util", C, "sim_tc_kiops of the SPDK legs (baseline only)"),
    note("nvmf.backpressured_sends", C, FABRIC_LINK),
    note("nvmf.protocol_errors", C, "ok_share everywhere (must stay 0)"),
    note("nvmf.pdu_encode_ns_cmd", D, NVMF_CODEC),
    note("nvmf.pdu_decode_ns_cmd", D, NVMF_CODEC),
    note("nvmf.pdu_encode_ns_data_4k", D, NVMF_CODEC),
    note("nvmf.pdu_encode_ns_data_128k", D, NVMF_CODEC),
    note("nvmf.pdu_decode_ns_data_128k", D, NVMF_CODEC),
    note("nvmf.self_ns_per_io_read4k", D, NVMF_HOST),
    note("nvmf.self_ns_per_io_write4k", D, NVMF_HOST),
    note("opf.notifications_per_io", C, OPF_TC),
    note("opf.coalesce_ratio", C, OPF_TC),
    note("opf.drains_per_io", C, OPF_TC),
    note("opf.ls_bypassed_per_ls_io", C, OPF_LS),
    note("opf.max_tc_queue", C, OPF_LS),
    note("opf.reactor_util", C, OPF_TC),
    note("opf.drain_latency_avg_us", C, OPF_TC),
    note("opf.window_changes", C, OPF_TC),
    note("opf.tc_gain_vs_spdk", C, OPF_TC),
    note("opf.ls_tail_vs_spdk", C, OPF_LS),
    note("opf.self_ns_per_io_tc_read4k", D, OPF_HOST),
    note("opf.self_ns_per_io_tc_write4k", D, "host_ns_per_io on the oPF leg of write4k_10g"),
    note("opf.self_ns_per_io_ls_read4k", D, OPF_HOST),
    note("opf.window_ns_per_update", D, "none today: every workload uses the static window table"),
    note("opf.staging_us_ls", T, OPF_LS),
    note("opf.staging_us_tc", T, OPF_TC),
    note("opf.completion_us_tc", T, OPF_TC),
    note("faults.drops", C, FAULTS),
    note("faults.retries_per_io", C, FAULTS),
    note("faults.redrains", C, FAULTS),
    note("faults.dup_resps_suppressed", C, FAULTS),
    note("faults.retry_exhausted", C, FAULTS),
    note("faults.goodput_ratio", C, FAULTS),
    note("faults.host_ns_per_io_delta", T, FAULTS),
    note("cluster.mgr_ticks", C, CLUSTER),
    note("cluster.weight_updates", C, CLUSTER),
    note("cluster.max_imbalance", C, CLUSTER),
    note("cluster.migrations_done", C, CLUSTER),
    note("cluster.cmds_moved", C, CLUSTER),
    note("cluster.redriven", C, CLUSTER),
    note("workload.traffic_completion_ratio", C, WORKLOAD_OPEN),
    note("workload.fairness_spread", C, "sim_tc_kiops on scale256_sh8, campaign_openloop_lossy"),
    note("workload.offered_per_s", C, WORKLOAD_OPEN),
    note("workload.ls_samples", C, "sim_ls_tail_us everywhere (fixes which quantile is reportable)"),
    note("workload.hist_ns_per_record", D, WHOLE),
    note("workload.traffic_ns_per_arrival", D, WORKLOAD_OPEN),
    note("workload.zero_run_ms_256t", D, "setup_s on scale256_sh8; nothing elsewhere"),
    note("sweep.spec_parse_expand_us", D, "setup_s on cluster2_migrate"),
    note("experiments.campaign_reduce_ms", D, "wall_s on campaign_openloop_lossy"),
    note("experiments.fanout_speedup", D, "none: every workload is single-threaded; meaningful only where cores are real"),
    note("alloc.allocs_per_io", T, WHOLE),
    note("alloc.bytes_per_io", T, WHOLE),
    note("alloc.peak_live_mb", T, "peak_rss_mb on scale256_sh8"),
    note("alloc.retained_mb_per_rep", T, "none directly: live heap one pass over the legs (at 1/10 length) leaves behind (the oPF stack's Rc cycles are never freed); a sweep of many scenarios in one process pays it"),
    note("failed_share", C, "ok_share everywhere (ok_share = 1 - failed_share); the result line's failed/attempted"),
    note("trace_overhead_ratio", T, NONE),
    note("share.simkit", T, SIMKIT_4K),
    note("share.queues", T, QUEUES),
    note("share.fabric", T, FABRIC_HOST),
    note("share.nvme", T, NVME_HOST),
    note("share.nvmf", T, NVMF_HOST),
    note("share.opf", T, OPF_HOST),
    note("share.workload", T, WORKLOAD_OPEN),
    note("share.unattributed", T, NONE),
];

/// The per-layer glossary as a markdown table (README.md carries it
/// verbatim; a test keeps the two equal).
pub fn glossary_markdown(catalog: &Catalog) -> String {
    let mut out =
        String::from("| name | source | unit | better | should move |\n|---|---|---|---|---|\n");
    for (def, note) in catalog.per_layer.iter().zip(LAYER_NOTES) {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            def.name,
            match note.source {
                Source::Counter => "C",
                Source::Driver => "D",
                Source::Traced => "T",
            },
            def.unit,
            match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            },
            note.moves,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn readme_carries_the_glossary_and_the_bounds() {
        let c = Catalog::load().unwrap();
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&glossary_markdown(&c)),
            "README.md per-layer table is stale; regenerate it with `opfbench glossary`"
        );
        for m in &c.end_to_end {
            let row = format!("| `{}` |", m.name);
            let line = readme
                .lines()
                .find(|l| l.starts_with(&row))
                .unwrap_or_else(|| panic!("README.md lacks a row for {}", m.name));
            // | name | clock | unit | better | bound | definition |
            let percent: f64 = line
                .split('|')
                .nth(5)
                .and_then(|c| c.trim().strip_suffix('%'))
                .and_then(|c| c.trim().parse().ok())
                .unwrap_or_else(|| panic!("{}: README row has no bound", m.name));
            let bound = m.bound.unwrap();
            assert!(
                (percent / 100.0 - bound).abs() <= 1e-9 * bound,
                "{}: README says {percent} %, BENCHMARK.json {bound}",
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(readme.contains(&format!("| `{}` |", w.name())));
        }
    }

    #[test]
    fn contract_parses_and_matches_the_code() {
        let c = Catalog::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(c.workloads, names);
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(c.end_to_end_def("setup_s").is_some());
        let noted: Vec<&str> = LAYER_NOTES.iter().map(|n| n.name).collect();
        let listed: Vec<&str> = c.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            noted, listed,
            "LAYER_NOTES and per_layer list the same metrics"
        );
    }
}
