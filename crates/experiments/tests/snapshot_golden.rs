//! Full-snapshot goldens for the run shapes no CSV golden pins in
//! full: every metric key and value of a 2-target run with one live
//! migration, of a lossy open-loop (`traffic` + `faults`) run, and of
//! a lossy closed-loop run on the baseline runtime.
//!
//! The first two files were rendered by [`render`] at commit d6a53a9,
//! when the first shape ran through the separate `run_cluster` driver
//! and the second through `run`; the single scenario pipeline must
//! reproduce them byte for byte (key union included). The third was
//! rendered at d6da634, when the baseline and NVMe-oPF initiators were
//! two copies of the transport code: it pins the baseline's retry,
//! R2T re-grant and duplicate-suppression paths.

use faults::FaultProfile;
use simkit::metrics::format_f64;
use workload::{MigrationSpec, Mix, RuntimeKind, Scenario, TrafficSpec};

fn render(sc: &Scenario) -> String {
    workload::run(sc)
        .metrics
        .iter()
        .map(|(k, v)| format!("{k}={}\n", format_f64(v)))
        .collect()
}

fn assert_matches(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
    for (i, (r, w)) in rendered.lines().zip(want.lines()).enumerate() {
        assert_eq!(r, w, "{name} line {}", i + 1);
    }
    assert_eq!(rendered, want, "{name}: line count or trailing bytes");
}

/// 1 LS + 4 TC mixed-I/O tenants sharing one node NIC, two kernel
/// lanes, two targets; tenant 1 moves from target 1 to target 0
/// mid-measurement.
fn cluster_migrate() -> Scenario {
    let mut sc = Scenario::two_tenant(RuntimeKind::Opf, fabric::Gbps::G100, Mix::MIXED);
    sc.tc_per_node = 4;
    sc.targets = 2;
    sc.shards = 2;
    sc.warmup_s = 0.02;
    sc.measure_s = 0.08;
    sc.migrations = vec![MigrationSpec {
        tenant: 1,
        at_s: 0.03,
        to_target: 0,
    }];
    sc
}

/// 1 LS closed-loop probe + 3 open-loop Poisson TC tenants, each on
/// its own node, over a fabric dropping 2% and duplicating 1% of PDUs.
fn openloop_lossy() -> Scenario {
    let mut sc = Scenario::ratio(RuntimeKind::Opf, fabric::Gbps::G100, Mix::READ, 1, 3);
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc.traffic = Some(TrafficSpec {
        rate_kiops: 60.0,
        read_fraction: Some(1.0),
        ..TrafficSpec::default()
    });
    sc.faults = Some(FaultProfile {
        drop_p: 0.02,
        dup_p: 0.01,
        ..FaultProfile::default()
    });
    sc
}

/// 1 LS + 3 TC closed-loop mixed-I/O tenants on the baseline runtime
/// over a fabric dropping 2% and duplicating 1% of PDUs.
fn baseline_lossy() -> Scenario {
    let mut sc = Scenario::ratio(RuntimeKind::Spdk, fabric::Gbps::G100, Mix::MIXED, 1, 3);
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc.faults = Some(FaultProfile {
        drop_p: 0.02,
        dup_p: 0.01,
        ..FaultProfile::default()
    });
    sc
}

#[test]
fn cluster_migrate_snapshot_matches_golden() {
    assert_matches("snapshot_cluster_migrate.txt", &render(&cluster_migrate()));
}

#[test]
fn openloop_lossy_snapshot_matches_golden() {
    assert_matches("snapshot_openloop_lossy.txt", &render(&openloop_lossy()));
}

#[test]
fn baseline_lossy_snapshot_matches_golden() {
    assert_matches("snapshot_baseline_lossy.txt", &render(&baseline_lossy()));
}
