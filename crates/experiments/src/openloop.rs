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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use workload::report::fmt_us;
use workload::{replay, Mix, ReplayConfig, ReplayResult, RuntimeKind, Table, TraceLog};

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
    let results: Mutex<Vec<Option<ReplayResult>>> = Mutex::new(vec![None; jobs.len()]);
    let next = AtomicUsize::new(0);
    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .clamp(1, jobs.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (runtime, rate) = jobs[i];
                let log = TraceLog::poisson(rate, dur, 4, Mix::READ, 77);
                let r = replay(
                    &log,
                    &ReplayConfig {
                        runtime,
                        ..ReplayConfig::default()
                    },
                )
                .expect("poisson trace replays");
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    let results: Vec<ReplayResult> = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("filled"))
        .collect();

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
