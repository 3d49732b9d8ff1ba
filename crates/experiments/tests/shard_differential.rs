//! Differential guard for the sharded kernel and multi-reactor target.
//!
//! DESIGN.md §13's determinism contract: the shard count is pure
//! bookkeeping — a lane is a label on each event in the kernel's one
//! heap, ordered by `(time, seq)` alone, so any shard count reproduces
//! the serial total order bit-identically; on the target a lane only
//! picks which counter a submission bumps. These tests enforce the
//! contract end to end by
//! re-rendering the *pre-sharding* golden CSVs (the same files
//! `zero_copy_differential` checks at shards=1) under 2 and 4 shards and
//! comparing bytes. `chaos` covers the fault-plane variant: retransmit
//! timers, re-drains and link flaps must also replay identically on a
//! sharded kernel.
//!
//! The `scale` golden locks the sweep that *demonstrates* the property:
//! its result columns are shard-invariant while the cross-shard
//! bookkeeping columns prove the routing engaged.

use experiments::sweep::run_all;
use experiments::{ablate, chaos, fig6, observe, scale, table1, Durations};

fn golden(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::read_to_string(format!("{path}/{name}.csv"))
        .unwrap_or_else(|e| panic!("missing golden {name}.csv: {e}"))
}

fn assert_csv_matches(name: &str, shards: usize, rendered: &str) {
    let want = golden(name);
    if rendered != want {
        for (i, (r, w)) in rendered.lines().zip(want.lines()).enumerate() {
            assert_eq!(r, w, "{name}.csv line {} at {shards} shards", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            want.lines().count(),
            "{name}.csv line count at {shards} shards"
        );
        panic!("{name}.csv differs only in line endings / trailing bytes");
    }
}

/// Every shard count the differential sweep re-renders under. 1 is
/// already covered by `zero_copy_differential`; 2 and 4 exercise lane
/// labels, the round-robin tenant assignment and the cross-reactor
/// submit count.
const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Static hardware table: shard-free by nature, but kept in the sweep so
/// the CSV renderer path is covered identically.
#[test]
fn table1_matches_golden_under_sharding() {
    assert_csv_matches("table1", 1, &workload::csv_table(&table1::build()));
}

/// Fig 6(c) quick repro under 2 and 4 shards: the fault-free TC hot
/// path — staging, drains, coalescing, the device meter — must be
/// byte-identical to the single-shard golden.
#[test]
fn fig6c_quick_matches_golden_under_sharding() {
    for shards in SHARD_COUNTS {
        let d = Durations::quick().with_shards(shards);
        let results = run_all(&fig6::fig6c_scenarios(d), Some(1));
        assert_csv_matches(
            "fig6c",
            shards,
            &workload::csv_table(&fig6::fig6c_table(&results)),
        );
    }
}

/// Observability snapshot under sharding: the full metric-name union.
/// This is the strongest guard — any metric key added, removed or
/// perturbed by the reactor split (including per-reactor counters
/// accidentally leaking into snapshots) diffs here.
#[test]
fn observe_quick_matches_golden_under_sharding() {
    for shards in SHARD_COUNTS {
        let d = Durations::quick().with_shards(shards);
        let results = run_all(&observe::scenarios(d), Some(1));
        assert_csv_matches(
            "observe",
            shards,
            &workload::csv_table(&observe::full_table(&results)),
        );
    }
}

/// Chaos grid under sharding: the fault plane (drops, retransmits,
/// re-drain timers) rides the same sharded lanes and must replay
/// byte-identically.
#[test]
fn chaos_quick_matches_golden_under_sharding() {
    for shards in SHARD_COUNTS {
        let d = Durations::quick().with_shards(shards);
        let results = run_all(&chaos::scenarios(d), Some(1));
        assert_csv_matches(
            "chaos",
            shards,
            &workload::csv_table(&chaos::table(&results)),
        );
    }
}

/// `repro --quick ablate` against its golden (rendered at 8b0c8ff): the
/// only artifact that runs the shared-queue, no-bypass and dynamic-window
/// configurations. The checked-in full-preset `results/ablations.csv`
/// drifted once without anything noticing; this cannot.
#[test]
fn ablations_quick_matches_golden() {
    let results = run_all(&ablate::scenarios(Durations::quick()), Some(1));
    assert_csv_matches(
        "ablations",
        1,
        &workload::csv_table(&ablate::table(&results)),
    );
}

/// The scale sweep's quick preset against its golden. `scale::table`
/// already asserts shard invariance, routing engagement and the 5%
/// fairness bound internally; the golden additionally pins the absolute
/// numbers (throughput, per-tenant counts, cross-shard traffic).
#[test]
fn scale_quick_matches_golden() {
    let d = Durations::quick();
    let results = run_all(&scale::scenarios(d, true), Some(1));
    assert_csv_matches(
        "scale",
        1,
        &workload::csv_table(&scale::table(&results, true)),
    );
}

/// The same quick scale grid with cross-shard schedules detoured
/// through the mailbox mesh (`parallel: true`, DESIGN.md §17).
/// The detour is pure bookkeeping on the global `(at, seq)` merge key,
/// so the golden must reproduce byte for byte — and the side-band
/// routing counter proves the mesh really carried the traffic rather
/// than the flag being dead.
#[test]
fn scale_quick_matches_golden_with_meshed_routing() {
    let d = Durations::quick().with_parallel(true);
    let results = run_all(&scale::scenarios(d, true), Some(1));
    assert!(
        results.iter().any(|r| r.parallel_routed > 0),
        "no scale run ever routed through the mailbox mesh"
    );
    assert_csv_matches(
        "scale",
        1,
        &workload::csv_table(&scale::table(&results, true)),
    );
}
