//! Extension experiment: open-loop latency vs. offered load.
//!
//! The paper's evaluation is closed-loop (fixed queue depth), which
//! cannot show *where* each runtime saturates — only how fast it runs at
//! full pressure. Replaying Poisson arrival traces at increasing rates
//! exposes the classic hockey-stick: mean latency stays near the
//! service floor until the offered load crosses the runtime's capacity,
//! then explodes. NVMe-oPF's knee sits where the device saturates
//! (~265K IOPS for reads) while the SPDK baseline's sits at its
//! reactor's per-request completion ceiling (~180K) — the same gap
//! Figure 7 shows, now visible as headroom instead of throughput.

use crate::Durations;
use simkit::SimDuration;
use workload::report::fmt_us;
use workload::{replay, Mix, ReplayConfig, RuntimeKind, Table, TraceLog};

/// Run the open-loop sweep and print the table.
pub fn all(d: Durations, threads: Option<usize>) {
    println!("== Extension: open-loop latency vs offered load (4 tenants, read, 100 Gbps) ==\n");
    let rates: Vec<f64> = vec![50e3, 100e3, 150e3, 200e3, 230e3, 260e3, 300e3];
    let dur = SimDuration::from_secs_f64((d.measure_s * 0.4).max(0.04));

    let mut jobs: Vec<(RuntimeKind, f64)> = Vec::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        for &r in &rates {
            jobs.push((runtime, r));
        }
    }
    let results = crate::sweep::map(&jobs, threads, |&(runtime, rate)| {
        let log = TraceLog::poisson(rate, dur, 4, Mix::READ, 77);
        let cfg = ReplayConfig {
            runtime,
            ..ReplayConfig::default()
        };
        replay(&log, &cfg).expect("poisson trace replays")
    });

    let mut t = Table::new([
        "offered IOPS",
        "S mean",
        "S p99",
        "PF mean",
        "PF p99",
        "S/PF mean",
    ]);
    for (i, &rate) in rates.iter().enumerate() {
        let s = &results[i];
        let o = &results[rates.len() + i];
        t.row([
            format!("{:.0}K", rate / 1e3),
            fmt_us(s.mean_us),
            fmt_us(s.p99_us),
            fmt_us(o.mean_us),
            fmt_us(o.p99_us),
            format!("{:.1}x", s.mean_us / o.mean_us.max(1e-9)),
        ]);
    }
    println!("{}", workload::render_table(&t));
    crate::save_csv("openloop", &t);
}
