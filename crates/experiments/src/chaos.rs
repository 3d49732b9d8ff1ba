//! Chaos artifact: graceful degradation under fault injection.
//!
//! Sweeps per-PDU loss rate × coalescing window size on the canonical
//! 1 LS : 4 TC read scenario (NVMe-oPF, 100 Gbps) with the recovery
//! machinery enabled (per-command retry, re-drain watchdog). The claim
//! under test: as loss grows, TC throughput and LS tail latency degrade
//! gracefully — every submitted request still completes exactly once,
//! and the LS tail stays bounded instead of inverting behind stuck TC
//! windows.
//!
//! Saved as `chaos.csv`.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use simkit::metrics::format_f64;
use workload::scenario::WindowSpec;
use workload::{Mix, RuntimeKind, Scenario, Table};

/// Per-PDU loss rates swept (0 = fault-free control run).
pub const LOSS_RATES: [f64; 4] = [0.0, 0.005, 0.01, 0.02];

/// Coalescing window sizes swept.
pub const WINDOWS: [u32; 2] = [8, 32];

fn profile(loss: f64) -> faults::FaultProfile {
    // Timeouts sit well above healthy tail latency (p99.99 ≈ 0.3–0.6 ms
    // at these window sizes), so the fault-free control row shows zero
    // retries/redrains and the sweep isolates loss-driven recovery.
    faults::FaultProfile {
        drop_p: loss,
        retry: Some(nvmf::RetryPolicy {
            timeout: simkit::SimDuration::from_micros(2_000),
            max_retries: 8,
        }),
        redrain_timeout: Some(simkit::SimDuration::from_micros(2_000)),
        ..faults::FaultProfile::default()
    }
}

/// The loss × window scenario grid, in sweep order. Shared with the
/// zero-copy differential test (fault-profile variant).
pub fn scenarios(d: Durations) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for &loss in &LOSS_RATES {
        for &window in &WINDOWS {
            let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 4);
            sc.window = WindowSpec::Static(window);
            sc.faults = Some(profile(loss));
            d.apply(&mut sc);
            scenarios.push(sc);
        }
    }
    scenarios
}

/// Render the degradation table from the results of [`scenarios`].
pub fn table(results: &[workload::RunResult]) -> Table {
    let mut t = Table::new([
        "loss",
        "window",
        "tc_kiops",
        "ls_p9999_us",
        "completion_pct",
        "retries",
        "redrains",
        "drops",
    ]);
    let mut i = 0;
    for &loss in &LOSS_RATES {
        for &window in &WINDOWS {
            let r = &results[i];
            i += 1;
            let m = &r.metrics;
            let offered = m.get("faults.offered").unwrap_or(0.0);
            let goodput = m.get("faults.goodput").unwrap_or(0.0);
            let pct = if offered > 0.0 {
                100.0 * goodput / offered
            } else {
                0.0
            };
            t.row([
                format_f64(loss),
                window.to_string(),
                format!("{:.1}", r.tc_iops / 1e3),
                format!("{:.1}", r.ls_p9999_us),
                format!("{pct:.3}"),
                format_f64(m.get("faults.retries").unwrap_or(0.0)),
                format_f64(m.get("faults.redrains").unwrap_or(0.0)),
                format_f64(m.get("faults.drops").unwrap_or(0.0)),
            ]);
        }
    }
    t
}

/// Run the loss × window grid and emit the degradation table.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put("== Chaos: loss rate x window size, NVMe-oPF 1 LS : 4 TC read, 100 Gbps ==\n");
    let results = run_all(&scenarios(d), threads);
    let t = table(&results);
    crate::put(&workload::render_table(&t));
    crate::save_csv("chaos", &t);
}
