//! Golden guard for the multi-target cluster plane (DESIGN.md §16).
//!
//! Two artifacts are pinned byte-for-byte:
//!
//! - `scale_cluster.csv` — the tenants × shards × targets grid.
//!   `cluster::scale_table` already asserts cluster-wide fairness,
//!   shard invariance and cluster engagement internally; the golden
//!   additionally pins the absolute numbers, including that the
//!   targets axis actually scales throughput (two SSDs ≈ 2×).
//! - `adversary_targets2.csv` — the hardened attack grid rerun on a
//!   2-target cluster with a live migration of the spoof victim
//!   mid-measurement. The table asserts honest-tenant fairness,
//!   exactly-once completion and migration completion per row; the
//!   golden pins the attack counters and re-drive volume.
//!
//! The single-target goldens (`scale.csv` et al.) are locked by
//! `shard_differential` and `zero_copy_differential`, and
//! `snapshot_golden` pins one full snapshot of each kind: every shape
//! runs through the one scenario pipeline, so none may perturb another.

use experiments::sweep::run_all;
use experiments::{cluster, Durations};

fn golden(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::read_to_string(format!("{path}/{name}.csv"))
        .unwrap_or_else(|e| panic!("missing golden {name}.csv: {e}"))
}

fn assert_csv_matches(name: &str, rendered: &str) {
    let want = golden(name);
    if rendered != want {
        for (i, (r, w)) in rendered.lines().zip(want.lines()).enumerate() {
            assert_eq!(r, w, "{name}.csv line {}", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            want.lines().count(),
            "{name}.csv line count"
        );
        panic!("{name}.csv differs only in line endings / trailing bytes");
    }
}

#[test]
fn scale_cluster_quick_matches_golden() {
    let d = Durations::quick();
    let results = run_all(&cluster::scenarios(d, true, 2), Some(1));
    assert_csv_matches(
        "scale_cluster",
        &workload::csv_table(&cluster::scale_table(&results, true, 2)),
    );
}

#[test]
fn adversary_targets2_quick_matches_golden() {
    let d = Durations::quick();
    let results = run_all(&cluster::adversary_scenarios(d, 2), Some(1));
    assert_csv_matches(
        "adversary_targets2",
        &workload::csv_table(&cluster::adversary_table(&results, 2)),
    );
}
