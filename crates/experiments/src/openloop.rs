//! Extension experiment: open-loop latency vs. offered load.
//!
//! The paper's evaluation is closed-loop (fixed queue depth), which
//! cannot show *where* each runtime saturates — only how fast it runs at
//! full pressure. Driving Poisson arrivals at increasing rates exposes
//! the classic hockey-stick: mean latency stays near the service floor
//! until the offered load crosses the runtime's capacity, then explodes.
//! NVMe-oPF's knee sits where the device saturates (~265K IOPS for
//! reads) while the SPDK baseline's sits at its reactor's per-request
//! completion ceiling (~178K) — the same gap Figure 7 shows, now visible
//! as headroom instead of throughput.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::fmt_us;
use workload::{Mix, RuntimeKind, Scenario, Table, TrafficSpec, WindowSpec};

/// Offered loads of the sweep, in kIOPS.
const RATES_KIOPS: [f64; 7] = [50.0, 100.0, 150.0, 200.0, 230.0, 260.0, 300.0];

/// One row's run: 4 open-loop TC tenants (no LS probe), each on its own
/// node, reading at an aggregate Poisson `rate_kiops` through queue
/// pairs of depth 128 (window 32 on NVMe-oPF) over 100 Gbps, measured
/// from time zero for `measure_s`.
fn scenario(runtime: RuntimeKind, rate_kiops: f64, measure_s: f64) -> Scenario {
    Scenario {
        tc_qd: 128,
        window: WindowSpec::Static(32),
        warmup_s: 0.0,
        measure_s,
        seed: 77,
        traffic: Some(TrafficSpec {
            rate_kiops,
            ..TrafficSpec::default()
        }),
        ..Scenario::ratio(runtime, Gbps::G100, Mix::READ, 0, 4)
    }
}

/// Run the open-loop sweep and print the table.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put("== Extension: open-loop latency vs offered load (4 tenants, read, 100 Gbps) ==\n");
    let measure_s = (d.measure_s * 0.4).max(0.04);
    let scenarios: Vec<Scenario> = [RuntimeKind::Spdk, RuntimeKind::Opf]
        .into_iter()
        .flat_map(|runtime| RATES_KIOPS.map(|rate| scenario(runtime, rate, measure_s)))
        .collect();
    let results = run_all(&scenarios, threads);

    let mut t = Table::new([
        "offered IOPS",
        "S mean",
        "S p99.99",
        "PF mean",
        "PF p99.99",
        "S/PF mean",
    ]);
    let (spdk, opf) = results.split_at(RATES_KIOPS.len());
    for ((rate, s), o) in RATES_KIOPS.iter().zip(spdk).zip(opf) {
        t.row([
            format!("{rate:.0}K"),
            fmt_us(s.tc_avg_us),
            fmt_us(s.tc_p9999_us),
            fmt_us(o.tc_avg_us),
            fmt_us(o.tc_p9999_us),
            format!("{:.1}x", s.tc_avg_us / o.tc_avg_us.max(1e-9)),
        ]);
    }
    crate::put(&workload::render_table(&t));
    crate::save_csv("openloop", &t);
}
