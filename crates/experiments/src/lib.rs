//! # experiments — regenerate every table and figure of the paper
//!
//! Each module reproduces one artifact of the evaluation section (§V):
//!
//! | Module     | Paper artifact                                        |
//! |------------|-------------------------------------------------------|
//! | [`table1`] | Table I — experiment configuration                    |
//! | [`fig6`]   | Fig. 6(a–c) — window sizes, network speeds, completion counts |
//! | [`fig7`]   | Fig. 7(a–f) — LS:TC ratio sweeps, throughput + tail latency |
//! | [`fig8`]   | Fig. 8(a–f) — scale-out patterns 1 and 2              |
//! | [`fig9`]   | Fig. 9(a–d) — h5bench application-level scaling       |
//! | [`ablate`] | DESIGN.md §6 — design-choice ablations                |
//! | [`iosize`] | extension: I/O size × access pattern sensitivity      |
//! | [`openloop`] | extension: open-loop latency vs offered load        |
//! | [`transport`] | extension: TCP vs RDMA transport comparison        |
//! | [`breakdown`] | extension: target-side latency phase breakdown     |
//! | [`observe`] | extension: unified metrics snapshot, SPDK vs oPF     |
//! | [`chaos`]  | extension: fault injection — loss × window degradation |
//! | [`scale`]  | extension: tenants × shards on the multi-reactor target |
//! | [`adversary`] | extension: adversarial tenant vs the hardened protocol plane |
//! | [`cluster`] | extension: multi-target cluster — placement, manager, migration |
//! | [`campaign`] | extension: seeds × traffic-model grids with expectation gates |
//! | [`spec`]   | the one grid spec behind `sweep` and `sweep campaign` |
//!
//! The `repro` binary drives them; results print as aligned tables and
//! are written as CSV under `results/`.

pub mod ablate;
pub mod adversary;
pub mod breakdown;
pub mod campaign;
pub mod chaos;
pub mod cluster;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod iosize;
pub mod observe;
pub mod openloop;
pub mod scale;
pub mod spec;
pub mod sweep;
pub mod table1;
pub mod transport;

use std::path::PathBuf;

/// Where CSV results land: `results/` under the workspace root when the
/// binary runs from anywhere inside the workspace, else `./results`.
pub fn results_dir() -> PathBuf {
    // Walk up from the current directory looking for the workspace root
    // (identified by its Cargo.toml + crates/ directory).
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            let r = dir.join("results");
            std::fs::create_dir_all(&r).ok();
            return r;
        }
        if !dir.pop() {
            break;
        }
    }
    let r = PathBuf::from("results");
    std::fs::create_dir_all(&r).ok();
    r
}

/// Write a CSV artifact and report the path on stdout.
pub fn save_csv(name: &str, table: &workload::Table) {
    let path = results_dir().join(format!("{name}.csv"));
    match std::fs::write(&path, workload::csv_table(table)) {
        Ok(()) => put(&format!("  [saved {}]", path.display())),
        Err(e) => say(&format!("  [could not save {}: {e}]", path.display())),
    }
}

pub use simkit::json::{put, say};

/// `ini{i}.completed` of each tenant slot in `slots`.
pub(crate) fn completed(
    r: &workload::RunResult,
    slots: impl IntoIterator<Item = usize>,
) -> Vec<f64> {
    slots
        .into_iter()
        .map(|i| {
            r.metrics
                .get(&format!("ini{i}.completed"))
                .unwrap_or_else(|| panic!("ini{i}.completed missing from snapshot"))
        })
        .collect()
}

/// `(min, max, spread)` of per-tenant counts, the spread being
/// `(max − min) / mean` in percent. Counts are integers below 2^53, so
/// the float math is exact.
pub(crate) fn spread(per: &[f64]) -> (f64, f64, f64) {
    let min = per.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per.iter().copied().fold(0.0, f64::max);
    let mean = per.iter().sum::<f64>() / per.len() as f64;
    (min, max, (max - min) / mean * 100.0)
}

/// Experiment durations: full (paper-like 10s runs are unnecessary in a
/// noise-free simulator; 1s of virtual time is converged) vs quick
/// smoke-test settings.
#[derive(Clone, Copy, Debug)]
pub struct Durations {
    /// Warmup seconds (excluded from measurement).
    pub warmup_s: f64,
    /// Measured seconds.
    pub measure_s: f64,
    /// Kernel shard / target reactor count applied to every scenario
    /// (`repro --shards N`). Results are bit-identical for any value
    /// (DESIGN.md §13); the knob exercises the sharded machinery.
    pub shards: usize,
    /// Route cross-shard schedules through the mailbox mesh
    /// (`repro --parallel`, DESIGN.md §17). Results are bit-identical
    /// with the flag on or off; the knob exercises the mailbox detour
    /// end to end.
    pub parallel: bool,
}

impl Durations {
    /// Full-fidelity runs.
    pub fn full() -> Self {
        Durations {
            warmup_s: 0.25,
            measure_s: 1.0,
            shards: 1,
            parallel: false,
        }
    }

    /// Quick smoke runs (CI / `--quick`).
    pub fn quick() -> Self {
        Durations {
            warmup_s: 0.05,
            measure_s: 0.15,
            shards: 1,
            parallel: false,
        }
    }

    /// Same durations, different shard count.
    pub fn with_shards(self, shards: usize) -> Self {
        Durations { shards, ..self }
    }

    /// Same durations, mailbox-meshed cross-shard routing on or off.
    pub fn with_parallel(self, parallel: bool) -> Self {
        Durations { parallel, ..self }
    }

    /// Apply to a scenario.
    pub fn apply(&self, sc: &mut workload::Scenario) {
        sc.warmup_s = self.warmup_s;
        sc.measure_s = self.measure_s;
        sc.shards = self.shards;
        sc.parallel = self.parallel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_apply() {
        let mut sc = workload::Scenario::two_tenant(
            workload::RuntimeKind::Opf,
            fabric::Gbps::G100,
            workload::Mix::READ,
        );
        Durations::quick().apply(&mut sc);
        assert!(sc.measure_s < Durations::full().measure_s);
        assert!(sc.warmup_s > 0.0);
        assert!(!sc.parallel, "meshed routing defaults off");
        Durations::quick().with_parallel(true).apply(&mut sc);
        assert!(sc.parallel);
    }

    #[test]
    fn results_dir_is_writable() {
        let d = results_dir();
        let probe = d.join(".probe");
        std::fs::write(&probe, b"x").expect("results dir writable");
        std::fs::remove_file(&probe).ok();
    }

    #[test]
    fn fig7_covers_the_papers_seven_ratios() {
        assert_eq!(crate::fig7::RATIOS.len(), 7);
        // The paper's list: 1:1, 1:2, 2:2, 3:2, 1:3, 2:3, 1:4.
        assert!(crate::fig7::RATIOS.contains(&(1, 4)));
        assert!(crate::fig7::RATIOS.contains(&(3, 2)));
    }
}
