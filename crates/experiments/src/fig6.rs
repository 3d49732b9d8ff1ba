//! Figure 6: initial benefit analysis.
//!
//! * (a) throughput/latency across window sizes, 1 TC + 1 LS initiator;
//! * (b) throughput across window sizes × network speeds, 1 TC initiator;
//! * (c) completion-notification counts, SPDK vs NVMe-oPF.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::fmt_iops;
use workload::{Mix, RuntimeKind, Scenario, Table, WindowSpec};

const WINDOWS: [u32; 6] = [2, 4, 8, 16, 32, 64];

fn scenario(
    runtime: RuntimeKind,
    speed: Gbps,
    ls: usize,
    tc: usize,
    window: WindowSpec,
    d: Durations,
) -> Scenario {
    let mut sc = Scenario::ratio(runtime, speed, Mix::READ, ls, tc);
    sc.window = window;
    d.apply(&mut sc);
    sc
}

/// Figure 6(a): window-size sweep with one TC and one LS tenant.
pub fn fig6a(d: Durations, threads: Option<usize>) {
    crate::put("== Fig 6(a): throughput/latency vs window size (1 LS + 1 TC, read) ==\n");
    let speeds = [Gbps::G25, Gbps::G100];
    let mut scenarios = Vec::new();
    for &speed in &speeds {
        scenarios.push(scenario(
            RuntimeKind::Spdk,
            speed,
            1,
            1,
            WindowSpec::Auto,
            d,
        ));
        for &w in &WINDOWS {
            scenarios.push(scenario(
                RuntimeKind::Opf,
                speed,
                1,
                1,
                WindowSpec::Static(w),
                d,
            ));
        }
    }
    let results = run_all(&scenarios, threads);

    let mut t = Table::new(["speed", "config", "TC IOPS", "TC avg lat", "LS avg lat"]);
    let mut it = results.iter();
    for &speed in &speeds {
        let s = it.next().unwrap();
        t.row([
            speed.to_string(),
            "SPDK".into(),
            fmt_iops(s.tc_iops),
            format!("{:.0}us", s.tc_avg_us),
            format!("{:.0}us", s.ls_avg_us),
        ]);
        for &w in &WINDOWS {
            let r = it.next().unwrap();
            t.row([
                speed.to_string(),
                format!("PF W={w}"),
                fmt_iops(r.tc_iops),
                format!("{:.0}us", r.tc_avg_us),
                format!("{:.0}us", r.ls_avg_us),
            ]);
        }
    }
    crate::put(&workload::render_table(&t));
    crate::save_csv("fig6a", &t);
}

/// Figure 6(b): window-size sweep × network speed, single TC tenant.
pub fn fig6b(d: Durations, threads: Option<usize>) {
    crate::put("== Fig 6(b): throughput vs window size across 10/25/100 Gbps (1 TC, read) ==\n");
    let mut scenarios = Vec::new();
    for speed in Gbps::ALL {
        scenarios.push(scenario(
            RuntimeKind::Spdk,
            speed,
            0,
            1,
            WindowSpec::Auto,
            d,
        ));
        for &w in &WINDOWS {
            scenarios.push(scenario(
                RuntimeKind::Opf,
                speed,
                0,
                1,
                WindowSpec::Static(w),
                d,
            ));
        }
    }
    let results = run_all(&scenarios, threads);

    let mut headers = vec!["speed".to_string(), "SPDK".to_string()];
    headers.extend(WINDOWS.iter().map(|w| format!("PF W={w}")));
    let mut t = Table::new(headers);
    let mut it = results.iter();
    for speed in Gbps::ALL {
        let mut row = vec![speed.to_string()];
        row.push(fmt_iops(it.next().unwrap().tc_iops));
        for _ in &WINDOWS {
            row.push(fmt_iops(it.next().unwrap().tc_iops));
        }
        t.row(row);
    }
    crate::put(&workload::render_table(&t));
    crate::save_csv("fig6b", &t);
}

/// The Figure 6(c) scenario list (read and write, SPDK QD 1/128 vs
/// NVMe-oPF windows). Shared with the hot-path benchmark and the
/// zero-copy differential test so they measure the artifact path itself.
pub fn fig6c_scenarios(d: Durations) -> Vec<workload::Scenario> {
    let speed = Gbps::G100;
    let mixes = [Mix::READ, Mix::WRITE];
    let mut scenarios = Vec::new();
    for &mix in &mixes {
        // SPDK at QD 1 (a latency-style initiator) and QD 128.
        for qd in [1usize, 128] {
            let mut sc = Scenario::ratio(RuntimeKind::Spdk, speed, mix, 0, 1);
            sc.tc_qd = qd;
            d.apply(&mut sc);
            scenarios.push(sc);
        }
        for w in [16u32, 32, 64] {
            let mut sc = Scenario::ratio(RuntimeKind::Opf, speed, mix, 0, 1);
            sc.window = WindowSpec::Static(w);
            d.apply(&mut sc);
            scenarios.push(sc);
        }
    }
    scenarios
}

/// Render the Figure 6(c) table from the results of
/// [`fig6c_scenarios`], in order.
pub fn fig6c_table(results: &[workload::RunResult]) -> Table {
    let mixes = [Mix::READ, Mix::WRITE];
    let mut t = Table::new([
        "workload",
        "config",
        "completed",
        "notifications",
        "notif/req",
        "coalesce",
        "drain avg",
    ]);
    let mut it = results.iter();
    for &mix in &mixes {
        for label in ["S QD=1", "S QD=128", "PF W=16", "PF W=32", "PF W=64"] {
            let r = it.next().unwrap();
            // Snapshot-derived columns: the target's completions-per-
            // response ratio and the initiator-observed drain latency
            // (both 0/"-" for the SPDK baseline, which never drains).
            let coalesce = r.metrics.get("pair0.tgt.coalesce_ratio").unwrap_or(0.0);
            let drain = match r.metrics.get("ini0.drain_latency_avg_us") {
                Some(us) if us > 0.0 => format!("{us:.0}us"),
                _ => "-".to_string(),
            };
            t.row([
                mix.label().to_string(),
                label.to_string(),
                r.completed.to_string(),
                r.notifications.to_string(),
                format!("{:.3}", r.notifications as f64 / r.completed.max(1) as f64),
                format!("{coalesce:.1}"),
                drain,
            ]);
        }
    }
    t
}

/// Figure 6(c): completion notifications generated during the measure
/// window (read and write, SPDK QD 1/128 vs NVMe-oPF windows).
pub fn fig6c(d: Durations, threads: Option<usize>) {
    crate::put("== Fig 6(c): completion notification counts (1 TC initiator, 100 Gbps) ==\n");
    let scenarios = fig6c_scenarios(d);
    let results = run_all(&scenarios, threads);
    let t = fig6c_table(&results);
    crate::put(&workload::render_table(&t));
    crate::save_csv("fig6c", &t);
}
