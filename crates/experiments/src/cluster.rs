//! `repro scale --targets N` / `repro adversary --targets N` — the
//! multi-target cluster plane (DESIGN.md §16).
//!
//! Two artifacts:
//!
//! 1. **`scale_cluster.csv`** — the scale sweep gains a targets axis:
//!    tenants × shards × targets, all-TC equal-weight closed loops with
//!    round-robin placement behind the leaf/spine fabric. Three
//!    contracts per row, the cluster analogues of `repro scale`:
//!    - **Cluster-wide fairness** — per-tenant completion spread across
//!      *all* targets stays ≤ 5% of the mean: placement plus the
//!      cluster priority manager keep tenants on different targets
//!      within the same bound a single target honors.
//!    - **Shard invariance** — result columns are identical across
//!      shard counts for a given (tenants, targets) point; lanes stay
//!      pure bookkeeping in cluster mode too.
//!    - **Cluster engagement** — multi-target rows show spine links
//!      profiled and manager ticks firing, so the bound above is a
//!      property of the cluster plane, not of it never engaging.
//!
//! 2. **`adversary_targets{N}.csv`** — the adversary grid's hardened
//!    rows rerun on a 2-target cluster with a live migration of the
//!    spoof victim scheduled mid-measurement, so every attack spans the
//!    move: the victim drains off its home target, its CID queue is
//!    frozen and adopted by the destination, and the epoch-bumped
//!    re-drive lands while the adversary keeps firing. Honest-tenant
//!    fairness and exactly-once completion are asserted on every row,
//!    plus migration completion itself (`done == moves`, none failed).

use crate::adversary::{adv_attacks, attacks, honest_strays, honest_tc, profile, SPOOF_VICTIM};
use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::scenario::WindowSpec;
use workload::{Mix, RunResult, RuntimeKind, Scenario, Table};

/// Shard counts swept at every (tenants, targets) point. Shorter than
/// `repro scale`'s list — the targets axis multiplies the grid.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Tenant counts for the cluster sweep. Cluster mode replaces the pairs
/// axis with the targets axis, so every tenant count must fit one
/// node's CID-queue key space (< 64 owners).
pub fn tenant_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[4, 16]
    } else {
        &[4, 16, 32]
    }
}

/// The targets axis for `--targets N`: powers of two from 1 up to and
/// including `max` (1 anchors each point on the classic single-target
/// path).
pub fn target_counts(max: usize) -> Vec<usize> {
    let mut v = vec![1];
    let mut t = 2;
    while t <= max {
        v.push(t);
        t *= 2;
    }
    v
}

/// One cluster scale point: `tenants` equal-weight TC tenants placed
/// round-robin over `targets` targets, `shards` kernel lanes.
pub fn scenario(tenants: usize, shards: usize, targets: usize, d: Durations) -> Scenario {
    let mut sc = Scenario::two_tenant(RuntimeKind::Opf, Gbps::G100, Mix::READ);
    sc.pairs = 1;
    sc.ls_per_node = 0;
    sc.tc_per_node = tenants;
    sc.tc_qd = 32;
    sc.targets = targets;
    d.apply(&mut sc);
    sc.shards = shards;
    sc
}

/// The full sweep in row order: tenant-major, target-mid, shard-minor.
pub fn scenarios(d: Durations, quick: bool, max_targets: usize) -> Vec<Scenario> {
    let mut v = Vec::new();
    for &tenants in tenant_counts(quick) {
        for &targets in &target_counts(max_targets) {
            for &shards in &SHARD_COUNTS {
                v.push(scenario(tenants, shards, targets, d));
            }
        }
    }
    v
}

/// Check every scenario `repro --targets N` would run, so a flag the
/// cluster plane cannot honour is a typed error before anything runs.
/// The adversary grid runs at `N` itself, so it goes first: an error
/// then names the flag's value, not a power of two below it.
pub fn validate(d: Durations, quick: bool, targets: usize) -> Result<(), workload::ScenarioError> {
    adversary_scenarios(d, targets)
        .iter()
        .chain(&scenarios(d, quick, targets))
        .try_for_each(Scenario::validate)
}

/// Build the results table from [`scenarios`]-ordered results, asserting
/// cluster-wide fairness, shard invariance and cluster engagement.
pub fn scale_table(results: &[RunResult], quick: bool, max_targets: usize) -> Table {
    let mut t = Table::new([
        "tenants",
        "shards",
        "targets",
        "tc_kiops",
        "fair_spread_pct",
        "tenant_min",
        "tenant_max",
        "links_profiled",
        "mgr_ticks",
        "weight_updates",
    ]);
    let mut idx = 0;
    for &tenants in tenant_counts(quick) {
        for &targets in &target_counts(max_targets) {
            // Result columns of the shards=1 row: the reference every
            // other shard count must reproduce exactly.
            let mut reference: Option<Vec<String>> = None;
            for &shards in &SHARD_COUNTS {
                let r = &results[idx];
                idx += 1;
                let (min, max, spread) = crate::spread(&crate::completed(r, 0..tenants));
                assert!(
                    spread <= 5.0,
                    "{tenants} tenants / {targets} targets / {shards} shards: \
                     cluster-wide completion spread {spread:.2}% exceeds the 5% \
                     fairness bound"
                );
                let m = &r.metrics;
                let links = m.get("cluster.links_profiled").unwrap_or(0.0);
                let ticks = m.get("cluster.mgr_ticks").unwrap_or(0.0);
                let weight_updates = m.get("cluster.weight_updates").unwrap_or(0.0);
                if targets > 1 {
                    assert_eq!(
                        m.get("cluster.targets"),
                        Some(targets as f64),
                        "{tenants} tenants / {targets} targets: wrong target count"
                    );
                    assert!(
                        links > 0.0,
                        "{tenants} tenants / {targets} targets: no spine links \
                         profiled — the switched topology never engaged"
                    );
                    assert!(
                        ticks > 0.0,
                        "{tenants} tenants / {targets} targets: the cluster \
                         priority manager never ticked"
                    );
                    assert_eq!(
                        m.get("recovery.offered"),
                        m.get("recovery.goodput"),
                        "{tenants} tenants / {targets} targets / {shards} shards: \
                         cluster closed loops must complete exactly once"
                    );
                }
                let result_cols = vec![
                    format!("{:.1}", r.tc_iops / 1e3),
                    format!("{spread:.3}"),
                    format!("{min}"),
                    format!("{max}"),
                ];
                match &reference {
                    None => reference = Some(result_cols.clone()),
                    Some(b) => assert_eq!(
                        b, &result_cols,
                        "{tenants} tenants / {targets} targets: results differ \
                         between 1 and {shards} shards"
                    ),
                }
                t.row([
                    format!("{tenants}"),
                    format!("{shards}"),
                    format!("{targets}"),
                    result_cols[0].clone(),
                    result_cols[1].clone(),
                    result_cols[2].clone(),
                    result_cols[3].clone(),
                    format!("{links:.0}"),
                    format!("{ticks:.0}"),
                    format!("{weight_updates:.0}"),
                ]);
            }
        }
    }
    t
}

/// Run the cluster scale sweep, assert its contracts, and save
/// `scale_cluster.csv`.
pub fn scale_all(d: Durations, threads: Option<usize>, quick: bool, max_targets: usize) {
    crate::put("== Scale: tenants × shards × targets on the cluster plane ==\n");
    let results = run_all(&scenarios(d, quick, max_targets), threads);
    let t = scale_table(&results, quick, max_targets);
    crate::put(&workload::render_table(&t));
    crate::save_csv("scale_cluster", &t);
}

/// The adversary-under-migration grid: every attack profile, hardened,
/// on a `targets`-target cluster, with the spoof victim migrating off
/// its round-robin home mid-measurement.
pub fn adversary_scenarios(d: Durations, targets: usize) -> Vec<Scenario> {
    assert!(
        targets > 1,
        "the adversary smoke needs a multi-target cluster"
    );
    let victim = SPOOF_VICTIM as usize;
    let home = victim % targets;
    let moves = vec![workload::MigrationSpec {
        tenant: victim,
        at_s: d.measure_s * 0.5,
        to_target: (home + 1) % targets,
    }];
    let mut v = Vec::new();
    for attack in &attacks() {
        let mut sc = Scenario::ratio(
            RuntimeKind::Opf,
            Gbps::G100,
            Mix::READ,
            crate::adversary::LS_TENANTS,
            crate::adversary::TC_TENANTS,
        );
        sc.window = WindowSpec::Static(64);
        sc.faults = Some(profile(attack, true));
        d.apply(&mut sc);
        sc.targets = targets;
        sc.migrations = moves.clone();
        v.push(sc);
    }
    v
}

/// Worst per-tenant completion spread among honest TC tenants that
/// share a target — the cluster analogue of the single-target fairness
/// bound. Cluster-*wide* spread is dominated by placement asymmetry (a
/// target hosting two TC tenants serves each more than one hosting
/// three — device physics, not scheduling bias), so fairness is judged
/// where a scheduler actually arbitrates: per co-resident group. The
/// migrating victim splits its residency across the move and belongs to
/// neither group; exactly-once accounting covers it instead.
fn coresident_spread_pct(r: &RunResult, targets: usize, migrating: usize) -> f64 {
    let mut worst: f64 = 0.0;
    for t in 0..targets {
        // Round-robin homes: slot % targets.
        let slots = honest_tc().filter(|&i| i != migrating && i % targets == t);
        let per = crate::completed(r, slots);
        if per.len() >= 2 {
            worst = worst.max(crate::spread(&per).2);
        }
    }
    worst
}

/// Render the adversary-under-migration table, asserting the hardened
/// honest-tenant bounds plus migration completion on every row.
pub fn adversary_table(results: &[RunResult], targets: usize) -> Table {
    let mut t = Table::new([
        "attack",
        "targets",
        "tc_kiops",
        "ls_p9999_us",
        "spread_pct",
        "honest_strays",
        "adv_attacks",
        "migrations_done",
        "cmds_moved",
        "redriven",
    ]);
    // LS-tail bound relative to the attack-free row, exactly as in the
    // single-target grid.
    let ls_tail_bound = results[0].ls_p9999_us * 5.0;
    for (attack, r) in attacks().iter().zip(results) {
        let m = &r.metrics;
        let spread = coresident_spread_pct(r, targets, SPOOF_VICTIM as usize);
        let strays = honest_strays(r);
        let adv_attacks = adv_attacks(r);
        let done = m.get("cluster.migrations_done").unwrap_or(0.0);
        let failed = m.get("cluster.migrations_failed").unwrap_or(0.0);
        let cmds_moved = m.get("cluster.cmds_moved").unwrap_or(0.0);
        let redriven = m.get("cluster.redriven").unwrap_or(0.0);

        assert!(
            spread <= 5.0,
            "{}: honest-tenant spread {spread:.2}% exceeds the 5% fairness \
             bound across a migration",
            attack.name
        );
        assert_eq!(
            strays, 0.0,
            "{}: lost/duplicated honest commands across a migration",
            attack.name
        );
        assert!(
            r.ls_p9999_us <= ls_tail_bound,
            "{}: LS p99.99 {:.1}us exceeds 5x the attack-free baseline \
             ({ls_tail_bound:.1}us)",
            attack.name,
            r.ls_p9999_us
        );
        assert_eq!(
            (done, failed),
            (1.0, 0.0),
            "{}: the mid-attack migration did not complete",
            attack.name
        );
        if attack.name != "none" {
            assert!(
                adv_attacks > 0.0,
                "{}: adversary never fired — the row proves nothing",
                attack.name
            );
        }

        t.row([
            attack.name.to_string(),
            format!("{targets}"),
            format!("{:.1}", r.tc_iops / 1e3),
            format!("{:.1}", r.ls_p9999_us),
            format!("{spread:.3}"),
            format!("{strays:.0}"),
            format!("{adv_attacks:.0}"),
            format!("{done:.0}"),
            format!("{cmds_moved:.0}"),
            format!("{redriven:.0}"),
        ]);
    }
    t
}

/// Run the adversary-under-migration smoke and save
/// `adversary_targets{N}.csv`.
pub fn adversary_all(d: Durations, threads: Option<usize>, targets: usize) {
    crate::put(&format!(
        "== Adversary x migration: hardened attack grid on a {targets}-target \
         cluster, NVMe-oPF 1 LS : 5 TC read, 100 Gbps ==\n"
    ));
    let results = run_all(&adversary_scenarios(d, targets), threads);
    let t = adversary_table(&results, targets);
    crate::put(&workload::render_table(&t));
    crate::save_csv(&format!("adversary_targets{targets}"), &t);
}
