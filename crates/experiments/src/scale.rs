//! `repro scale` — hundred-tenant scale-out on the sharded
//! multi-reactor target.
//!
//! Sweeps tenant counts 4 → 256 (quick preset: ≤ 32) against shard
//! counts 1/2/4/8 on all-TC, equal-weight workloads. Three contracts are
//! asserted on every run, not just eyeballed:
//!
//! 1. **Shard invariance** — every result column is identical across
//!    shard counts for a given tenant count: DESIGN.md §13's determinism
//!    contract exercised end to end, up to 256 tenants over 8 shards.
//! 2. **Routing engagement** — with more than one shard, the cross-shard
//!    bookkeeping columns are nonzero, so the invariance above is a
//!    property of the lane labels, not of the sharding never happening.
//! 3. **Fairness** — per-tenant completion spread at equal weights stays
//!    within 5% of the mean as tenancy grows.
//!
//! The bookkeeping columns (`xshard_events`, `xreactor_submits`) are the
//! only ones allowed to vary with the shard count; they come from
//! [`workload::RunResult`]'s side-band counters, never from the metric
//! snapshot, which stays bit-identical by construction.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::{Mix, RunResult, RuntimeKind, Scenario, Table};

/// Shard counts swept at every tenant count.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Tenants per initiator/target pair. The shared-queue key encoding
/// bounds owners to 64 per target (`core::target::encode_key`); 32
/// leaves headroom and matches the paper's per-node tenant densities.
pub const TENANTS_PER_PAIR: usize = 32;

/// Tenant counts for the sweep. Quick runs stop at 32 tenants (the CI
/// scale-smoke budget); full runs reach 256 tenants across 8 pairs.
pub fn tenant_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[4, 16, 32]
    } else {
        &[4, 16, 64, 256]
    }
}

/// One scale scenario: `tenants` equal-weight TC tenants spread over
/// `ceil(tenants / 32)` pairs, `shards` kernel lanes.
pub fn scenario(tenants: usize, shards: usize, d: Durations) -> Scenario {
    let pairs = tenants.div_ceil(TENANTS_PER_PAIR);
    debug_assert_eq!(tenants % pairs, 0, "tenant counts divide evenly");
    let mut sc = Scenario::two_tenant(RuntimeKind::Opf, Gbps::G100, Mix::READ);
    sc.pairs = pairs;
    sc.ls_per_node = 0;
    sc.tc_per_node = tenants / pairs;
    // Moderate depth: the sweep studies tenancy, not queue pressure, and
    // 256 tenants × 32 stays well inside every per-tenant queue bound.
    sc.tc_qd = 32;
    d.apply(&mut sc);
    sc.shards = shards;
    sc
}

/// The full sweep in row order: tenant-major, shard-minor.
pub fn scenarios(d: Durations, quick: bool) -> Vec<Scenario> {
    let mut v = Vec::new();
    for &tenants in tenant_counts(quick) {
        for &shards in &SHARD_COUNTS {
            v.push(scenario(tenants, shards, d));
        }
    }
    v
}

/// Build the results table from [`scenarios`]-ordered results, asserting
/// shard invariance, routing engagement and the 5% fairness bound.
pub fn table(results: &[RunResult], quick: bool) -> Table {
    let mut t = Table::new([
        "tenants",
        "shards",
        "pairs",
        "tc_kiops",
        "fair_spread_pct",
        "tenant_min",
        "tenant_max",
        "xshard_events",
        "xreactor_submits",
    ]);
    let mut idx = 0;
    for &tenants in tenant_counts(quick) {
        // Result columns of the shards=1 row: the reference every other
        // shard count must reproduce exactly.
        let mut reference: Option<Vec<String>> = None;
        for &shards in &SHARD_COUNTS {
            let r = &results[idx];
            idx += 1;
            let (min, max, spread) = crate::spread(&crate::completed(r, 0..tenants));
            assert!(
                spread <= 5.0,
                "{tenants} tenants / {shards} shards: per-tenant completion \
                 spread {spread:.2}% exceeds the 5% fairness bound"
            );
            let pairs = tenants.div_ceil(TENANTS_PER_PAIR);
            let result_cols = vec![
                format!("{tenants}"),
                format!("{pairs}"),
                format!("{:.1}", r.tc_iops / 1e3),
                format!("{spread:.3}"),
                format!("{min}"),
                format!("{max}"),
            ];
            match &reference {
                None => reference = Some(result_cols.clone()),
                Some(b) => assert_eq!(
                    b, &result_cols,
                    "{tenants} tenants: results differ between 1 and {shards} shards"
                ),
            }
            if shards > 1 && tenants > 1 {
                assert!(
                    r.cross_shard_events > 0,
                    "{tenants} tenants / {shards} shards: no cross-shard events \
                     — the sharded routing never engaged"
                );
                assert!(
                    r.cross_reactor_submits > 0,
                    "{tenants} tenants / {shards} shards: no cross-reactor submits \
                     — every tenant landed on the owner reactor"
                );
            } else if shards == 1 {
                assert_eq!(r.cross_shard_events, 0, "single shard cannot cross lanes");
                assert_eq!(r.cross_reactor_submits, 0, "single reactor cannot cross");
            }
            t.row([
                result_cols[0].clone(),
                format!("{shards}"),
                result_cols[1].clone(),
                result_cols[2].clone(),
                result_cols[3].clone(),
                result_cols[4].clone(),
                result_cols[5].clone(),
                format!("{}", r.cross_shard_events),
                format!("{}", r.cross_reactor_submits),
            ]);
        }
    }
    t
}

/// Run the scale sweep, assert its contracts, and save `scale.csv`.
pub fn all(d: Durations, threads: Option<usize>, quick: bool) {
    crate::put("== Scale: tenants × shards on the multi-reactor target ==\n");
    let results = run_all(&scenarios(d, quick), threads);
    let t = table(&results, quick);
    crate::put(&workload::render_table(&t));
    crate::save_csv("scale", &t);
}
