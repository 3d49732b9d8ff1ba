//! Open-loop trace replay: build a Poisson arrival trace, save it in the
//! text format, reload it, and play it through the scenario runner on
//! both runtimes at an offered load past the SPDK baseline's knee.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use nvme_opf::fabric::Gbps;
use nvme_opf::simkit::Pcg32;
use nvme_opf::workload::report::fmt_us;
use nvme_opf::workload::{
    render_table, run, ArrivalModel, Mix, RuntimeKind, Scenario, Table, TraceEvent, TraceLog,
    TrafficSpec, WindowSpec,
};
use std::sync::Arc;

/// `rate` requests/second of 4K reads over `tenants` TC tenants for
/// `duration_ns`, with exponential gaps.
fn random_trace(rate: f64, duration_ns: u64, tenants: u8, seed: u64) -> TraceLog {
    let mut rng = Pcg32::new(seed);
    let mut events = Vec::new();
    let mut at_ns = rng.gen_exp(1e9 / rate);
    while at_ns < duration_ns as f64 {
        events.push(TraceEvent {
            at_ns: at_ns as u64,
            tenant: rng.gen_below(u32::from(tenants)) as u8,
            ls: false,
            write: false,
            lba: u64::from(rng.gen_below(1 << 20)),
            blocks: 1,
        });
        at_ns += rng.gen_exp(1e9 / rate);
    }
    TraceLog { events }
}

fn main() {
    // 1. Build a 4-tenant trace and round-trip it through the text
    //    format (what you'd do with a real trace file).
    let log = random_trace(220_000.0, 60_000_000, 4, 2024);
    let text = log.to_text();
    println!(
        "built {} arrivals ({} bytes as text); first lines:",
        log.events.len(),
        text.len()
    );
    for line in text.lines().take(4) {
        println!("  {line}");
    }
    let log = Arc::new(TraceLog::from_text(&text).expect("trace parses back"));

    // 2. Play it on both runtimes: TC tenant i issues the trace's
    //    tenant-i events, each at its own time.
    let mut t = Table::new([
        "runtime",
        "offered",
        "completed",
        "mean latency",
        "p99",
        "p99.99",
    ]);
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let sc = Scenario {
            window: WindowSpec::Static(32),
            warmup_s: 0.0,
            measure_s: 0.06,
            traffic: Some(TrafficSpec {
                model: ArrivalModel::Trace(log.clone()),
                ..TrafficSpec::default()
            }),
            ..Scenario::ratio(runtime, Gbps::G100, Mix::READ, 0, 4)
        };
        let m = run(&sc).metrics;
        let get = |key: &str| m.get(key).unwrap_or(0.0);
        t.row([
            runtime.label().to_string(),
            format!("{:.0}", get("traffic.offered")),
            format!("{:.0}", get("traffic.done")),
            fmt_us(get("tc.avg_us")),
            fmt_us(get("tc.p99_us")),
            fmt_us(get("tc.p9999_us")),
        ]);
    }
    println!("\n220K IOPS offered (past the SPDK baseline's ~178K capacity):\n");
    println!("{}", render_table(&t));
    println!(
        "The offered load sits just above the baseline's completion-path\n\
         capacity, so its latency includes unbounded application-side\n\
         queueing, while NVMe-oPF still has ~45K IOPS of headroom."
    );
}
