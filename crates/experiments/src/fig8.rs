//! Figure 8: scale-out studies at 100 Gbps with 5 initiator-node /
//! target-node pairs.
//!
//! * Pattern 1 (a–c): fixed 5 pairs, 1..5 initiators per node.
//! * Pattern 2 (d–f): fixed 4 initiators per node (LS:TC 0:4), 1..5
//!   node pairs.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::{fmt_iops, fmt_us};
use workload::{Mix, RuntimeKind, Scenario, Table};

fn pattern1(runtime: RuntimeKind, mix: Mix, per_node: usize, d: Durations) -> Scenario {
    let mut sc = Scenario::ratio(runtime, Gbps::G100, mix, 0, per_node);
    sc.pairs = 5;
    d.apply(&mut sc);
    sc
}

fn pattern2(runtime: RuntimeKind, mix: Mix, pairs: usize, d: Durations) -> Scenario {
    let mut sc = Scenario::ratio(runtime, Gbps::G100, mix, 0, 4);
    sc.pairs = pairs;
    d.apply(&mut sc);
    sc
}

/// One panel (one workload, one pattern).
fn panel(mix: Mix, pattern: u8, d: Durations, threads: Option<usize>) -> Table {
    let points: Vec<usize> = (1..=5).collect();
    let mut scenarios = Vec::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        for &p in &points {
            scenarios.push(match pattern {
                1 => pattern1(runtime, mix, p, d),
                _ => pattern2(runtime, mix, p, d),
            });
        }
    }
    let results = run_all(&scenarios, threads);
    let mut t = Table::new([
        "initiators",
        "S IOPS",
        "PF IOPS",
        "PF/S",
        "S avg lat",
        "PF avg lat",
    ]);
    for (i, &p) in points.iter().enumerate() {
        let s = &results[i];
        let o = &results[points.len() + i];
        let total = match pattern {
            1 => 5 * p,
            _ => 4 * p,
        };
        t.row([
            total.to_string(),
            fmt_iops(s.tc_iops),
            fmt_iops(o.tc_iops),
            format!("{:.2}x", o.tc_iops / s.tc_iops.max(1.0)),
            fmt_us(s.tc_avg_us),
            fmt_us(o.tc_avg_us),
        ]);
    }
    t
}

/// All of Figure 8.
pub fn all(d: Durations, threads: Option<usize>) {
    let panels = [
        (Mix::READ, 1, "a", "read, 5 pairs, scaling initiators/node"),
        (
            Mix::MIXED,
            1,
            "b",
            "mixed 50:50, 5 pairs, scaling initiators/node",
        ),
        (
            Mix::WRITE,
            1,
            "c",
            "write, 5 pairs, scaling initiators/node",
        ),
        (
            Mix::READ,
            2,
            "d",
            "read, 4 initiators/node, scaling node pairs",
        ),
        (
            Mix::MIXED,
            2,
            "e",
            "mixed 50:50, 4 initiators/node, scaling node pairs",
        ),
        (
            Mix::WRITE,
            2,
            "f",
            "write, 4 initiators/node, scaling node pairs",
        ),
    ];
    for (mix, pattern, tag, desc) in panels {
        crate::put(&format!("== Fig 8({tag}): {desc}, 100 Gbps ==\n"));
        let t = panel(mix, pattern, d, threads);
        crate::put(&workload::render_table(&t));
        crate::save_csv(&format!("fig8{tag}"), &t);
    }
}
