//! Figure 7: multi-tenant LS:TC ratio sweeps — aggregate TC throughput
//! (a–c) and LS 99.99% tail latency (d–f) for read, mixed and write
//! workloads over 10/25/100 Gbps.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::{fmt_iops, fmt_us};
use workload::{Mix, RunResult, RuntimeKind, Scenario, Table};

/// The seven LS:TC ratios of §V-B.
pub const RATIOS: [(usize, usize); 7] = [(1, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)];

fn scenarios_for(mix: Mix, d: Durations) -> Vec<Scenario> {
    let mut v = Vec::new();
    for speed in Gbps::ALL {
        for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
            for &(ls, tc) in &RATIOS {
                let mut sc = Scenario::ratio(runtime, speed, mix, ls, tc);
                d.apply(&mut sc);
                v.push(sc);
            }
        }
    }
    v
}

fn tables_for(_mix: Mix, results: &[RunResult]) -> (Table, Table) {
    let mut tput = Table::new([
        "LS:TC", "S-10", "PF-10", "S-25", "PF-25", "S-100", "PF-100", "PF/S@10", "PF/S@100",
    ]);
    let mut tail = Table::new(["LS:TC", "S-10", "PF-10", "S-25", "PF-25", "S-100", "PF-100"]);
    // results laid out: speed-major, then runtime, then ratio.
    let idx = |speed_i: usize, runtime_i: usize, ratio_i: usize| {
        speed_i * 2 * RATIOS.len() + runtime_i * RATIOS.len() + ratio_i
    };
    for (ri, &(ls, tc)) in RATIOS.iter().enumerate() {
        let cell = |si: usize, ru: usize| &results[idx(si, ru, ri)];
        let ratio10 = cell(0, 1).tc_iops / cell(0, 0).tc_iops.max(1.0);
        let ratio100 = cell(2, 1).tc_iops / cell(2, 0).tc_iops.max(1.0);
        tput.row([
            format!("{ls}:{tc}"),
            fmt_iops(cell(0, 0).tc_iops),
            fmt_iops(cell(0, 1).tc_iops),
            fmt_iops(cell(1, 0).tc_iops),
            fmt_iops(cell(1, 1).tc_iops),
            fmt_iops(cell(2, 0).tc_iops),
            fmt_iops(cell(2, 1).tc_iops),
            format!("{ratio10:.2}x"),
            format!("{ratio100:.2}x"),
        ]);
        tail.row([
            format!("{ls}:{tc}"),
            fmt_us(cell(0, 0).ls_p9999_us),
            fmt_us(cell(0, 1).ls_p9999_us),
            fmt_us(cell(1, 0).ls_p9999_us),
            fmt_us(cell(1, 1).ls_p9999_us),
            fmt_us(cell(2, 0).ls_p9999_us),
            fmt_us(cell(2, 1).ls_p9999_us),
        ]);
    }
    (tput, tail)
}

/// Run one workload panel of Figure 7 and print both tables.
pub fn panel(mix: Mix, d: Durations, threads: Option<usize>) {
    let scenarios = scenarios_for(mix, d);
    let results = run_all(&scenarios, threads);
    let (tput, tail) = tables_for(mix, &results);
    let tag = match mix.label() {
        "read" => ("a", "d"),
        "write" => ("c", "f"),
        _ => ("b", "e"),
    };
    crate::put(&format!(
        "== Fig 7({}): aggregate TC throughput, {} workload (S=SPDK, PF=NVMe-oPF) ==\n",
        tag.0,
        mix.label()
    ));
    crate::put(&workload::render_table(&tput));
    crate::put(&format!(
        "== Fig 7({}): LS 99.99% tail latency, {} workload ==\n",
        tag.1,
        mix.label()
    ));
    crate::put(&workload::render_table(&tail));
    crate::save_csv(&format!("fig7{}_throughput", tag.0), &tput);
    crate::save_csv(&format!("fig7{}_tail", tag.1), &tail);
}

/// All of Figure 7.
pub fn all(d: Durations, threads: Option<usize>) {
    for mix in [Mix::READ, Mix::MIXED, Mix::WRITE] {
        panel(mix, d, threads);
    }
}
