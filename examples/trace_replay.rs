//! Open-loop trace replay: synthesize a Poisson arrival trace, save it
//! in the text format, reload it, and replay it against both runtimes at
//! increasing offered load to find each one's saturation knee.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use nvme_opf::simkit::SimDuration;
use nvme_opf::workload::report::fmt_us;
use nvme_opf::workload::{render_table, replay, Mix, ReplayConfig, RuntimeKind, Table, TraceLog};

fn main() {
    // 1. Synthesize a 4-tenant Poisson read trace and round-trip it
    //    through the text format (what you'd do with a real trace file).
    let log = TraceLog::poisson(220_000.0, SimDuration::from_millis(60), 4, Mix::READ, 2024);
    let text = log.to_text();
    println!(
        "synthesized {} arrivals ({} bytes as text); first lines:",
        log.events.len(),
        text.len()
    );
    for line in text.lines().take(4) {
        println!("  {line}");
    }
    let log = TraceLog::from_text(&text).expect("trace parses back");

    // 2. Replay against both runtimes.
    let mut t = Table::new([
        "runtime",
        "completed",
        "mean latency",
        "p99",
        "p99.99",
        "goodput IOPS",
    ]);
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let r = replay(
            &log,
            &ReplayConfig {
                runtime,
                ..ReplayConfig::default()
            },
        )
        .expect("a synthesized trace is replayable");
        t.row([
            runtime.label().to_string(),
            r.completed.to_string(),
            fmt_us(r.mean_us),
            fmt_us(r.p99_us),
            fmt_us(r.p9999_us),
            format!("{:.0}", r.goodput_iops),
        ]);
    }
    println!("\n220K IOPS offered (past the SPDK baseline's ~178K capacity):\n");
    println!("{}", render_table(&t));
    println!(
        "The offered load sits just above the baseline's completion-path\n\
         capacity, so its latency includes unbounded application-side\n\
         queueing, while NVMe-oPF still has ~85K IOPS of headroom."
    );
}
