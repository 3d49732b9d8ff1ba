//! Observability artifact: the unified metrics snapshot, side by side
//! for SPDK vs NVMe-oPF on the canonical 1 LS : 4 TC read scenario.
//!
//! Prints a curated utilization/occupancy summary (the counters the
//! paper's analysis sections reason about) and saves the *complete*
//! snapshots — every counter from every layer — as `observe.csv`.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use simkit::metrics::format_f64;
use workload::{Mix, RuntimeKind, Scenario, Table};

/// Counters surfaced in the printed summary (full set goes to CSV).
const HIGHLIGHTS: [(&str, &str); 10] = [
    ("pair0.tgt_ep.link.uplink_util", "target uplink util"),
    ("pair0.tgt_ep.link.downlink_util", "target downlink util"),
    ("pair0.dev.flash.busy_fraction", "flash busy fraction"),
    ("pair0.dev.cq.out_of_order_completions", "CQ reorder depth"),
    ("reactor_util", "target reactor util"),
    ("pair0.tgt.coalesce_ratio", "coalesce ratio"),
    ("pair0.tgt.ls_bypassed", "LS bypasses"),
    ("pair0.tgt.backpressured_sends", "backpressured sends"),
    ("pair0.tgt.max_tc_queue", "max TC queue depth"),
    ("pair0.tgt.protocol_errors", "protocol errors"),
];

/// The two scenarios compared (SPDK vs NVMe-oPF on 1 LS : 4 TC read).
/// Shared with the hot-path benchmark and the differential test.
pub fn scenarios(d: Durations) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let mut sc = Scenario::ratio(runtime, Gbps::G100, Mix::READ, 1, 4);
        d.apply(&mut sc);
        scenarios.push(sc);
    }
    scenarios
}

/// The full snapshot dump (union of metric names) from the results of
/// [`scenarios`], in order — the table saved as `observe.csv`.
pub fn full_table(results: &[workload::RunResult]) -> Table {
    let (spdk, opf) = (&results[0].metrics, &results[1].metrics);
    // Full dump: union of metric names (each snapshot is name-sorted,
    // so a simple merge keeps the output deterministic).
    let mut full = Table::new(["metric", "spdk", "opf"]);
    let mut names: Vec<&str> = spdk
        .iter()
        .map(|(n, _)| n)
        .chain(opf.iter().map(|(n, _)| n))
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let cell = |m: &simkit::Metrics| m.get(name).map_or("-".to_string(), format_f64);
        full.row([name.to_string(), cell(spdk), cell(opf)]);
    }
    full
}

/// Run the observability comparison and emit summary + full CSV.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put("== Observability: unified metrics snapshot (1 LS : 4 TC, 100 Gbps, read) ==\n");
    let results = run_all(&scenarios(d), threads);
    let (spdk, opf) = (&results[0].metrics, &results[1].metrics);

    let mut t = Table::new(["counter", "SPDK", "NVMe-oPF"]);
    for (name, label) in HIGHLIGHTS {
        let fmt = |m: &simkit::Metrics| match m.get(name) {
            Some(v) => format!("{v:.4}"),
            None => "-".to_string(),
        };
        t.row([label.to_string(), fmt(spdk), fmt(opf)]);
    }
    crate::put(&workload::render_table(&t));

    crate::save_csv("observe", &full_table(&results));
}
