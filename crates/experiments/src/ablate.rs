//! Design-choice ablations (DESIGN.md §6).
//!
//! All at 100 Gbps, read workload, 1 LS : 4 TC — the configuration where
//! every mechanism matters — each row removes one design element:
//!
//! * coalescing (window=1: every TC request drains itself);
//! * per-initiator queues (shared TC queue, §IV-A's hazard);
//! * LS bypass (LS rides the metered TC path);
//! * static table vs dynamic window optimization.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::{fmt_iops, fmt_us};
use workload::{Mix, RunResult, RuntimeKind, Scenario, Table, WindowSpec};

/// One row of the grid: its label and what it changes on the full
/// NVMe-oPF scenario.
type Row = (&'static str, RuntimeKind, fn(&mut Scenario));

const ROWS: [Row; 8] = [
    ("SPDK baseline", RuntimeKind::Spdk, |_| {}),
    ("NVMe-oPF (full, auto window)", RuntimeKind::Opf, |_| {}),
    ("  - coalescing (window = 1)", RuntimeKind::Opf, |sc| {
        sc.window = WindowSpec::Static(1)
    }),
    (
        "  - per-initiator queues (shared TC queue)",
        RuntimeKind::Opf,
        |sc| sc.shared_queue = true,
    ),
    ("  - LS bypass", RuntimeKind::Opf, |sc| {
        sc.no_ls_bypass = true
    }),
    ("  dynamic window optimizer", RuntimeKind::Opf, |sc| {
        sc.window = WindowSpec::Dynamic
    }),
    ("  small static window (8)", RuntimeKind::Opf, |sc| {
        sc.window = WindowSpec::Static(8)
    }),
    ("  large static window (64)", RuntimeKind::Opf, |sc| {
        sc.window = WindowSpec::Static(64)
    }),
];

/// The ablation grid, in table order. Shared with the golden test.
pub fn scenarios(d: Durations) -> Vec<Scenario> {
    ROWS.iter()
        .map(|&(_, runtime, ablate)| {
            let mut sc = Scenario::ratio(runtime, Gbps::G100, Mix::READ, 1, 4);
            d.apply(&mut sc);
            ablate(&mut sc);
            sc
        })
        .collect()
}

/// Render the table from the results of [`scenarios`].
pub fn table(results: &[RunResult]) -> Table {
    let mut t = Table::new([
        "configuration",
        "TC IOPS",
        "LS p99.99",
        "LS avg",
        "notif/req",
        "reactor util",
    ]);
    for ((label, ..), r) in ROWS.iter().zip(results) {
        t.row([
            label.to_string(),
            fmt_iops(r.tc_iops),
            fmt_us(r.ls_p9999_us),
            fmt_us(r.ls_avg_us),
            format!("{:.3}", r.notifications as f64 / r.completed.max(1) as f64),
            format!("{:.0}%", r.reactor_util * 100.0),
        ]);
    }
    t
}

/// Run the ablation grid and print the table.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put("== Ablations: 100 Gbps, read, LS:TC = 1:4 ==\n");
    let t = table(&run_all(&scenarios(d), threads));
    crate::put(&workload::render_table(&t));
    crate::save_csv("ablations", &t);
}
