//! A run's pairs share nothing (DESIGN.md §8): each initiator-node /
//! target-node pair is simulated on its own kernel and read at its own
//! last event, so what a pair reports cannot depend on its siblings.

use fabric::Gbps;
use std::slice;
use workload::{run, run_all, Mix, RuntimeKind, Scenario};

/// `pairs` pairs of 1 LS + 3 TC closed-loop mixed-I/O tenants, each
/// pair's tenants sharing their node's NIC, fault-free.
fn mixed(runtime: RuntimeKind, pairs: usize) -> Scenario {
    let mut sc = Scenario::two_tenant(runtime, Gbps::G100, Mix::MIXED);
    sc.pairs = pairs;
    sc.tc_per_node = 3;
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc
}

/// Every key of pair 0 and of its four tenants (`pair0.*`,
/// `ini0.`–`ini3.`) reads bit for bit the same in a three-pair run as
/// in the one-pair run, time-normalised utilisations included.
#[test]
fn a_pairs_snapshot_does_not_depend_on_its_siblings() {
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let alone = run(&mixed(runtime, 1)).metrics;
        let among = run(&mixed(runtime, 3)).metrics;
        let own = |key: &str| {
            key.starts_with("pair0.") || (0..4).any(|i| key.starts_with(&format!("ini{i}.")))
        };
        let mut checked = 0;
        for (key, want) in alone.iter().filter(|&(key, _)| own(key)) {
            let got = among.get(key).map(f64::to_bits);
            assert_eq!(got, Some(want.to_bits()), "{runtime:?}: {key}");
            checked += 1;
        }
        assert!(checked > 50, "{runtime:?}: only {checked} keys");
    }
}

/// Results do not depend on how many workers the groups fan out over:
/// a sharded, meshed four-pair run gives one `RunResult`, every metric
/// included, on one, two and four workers.
#[test]
fn results_do_not_depend_on_the_worker_count() {
    let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::MIXED, 1, 3);
    sc.pairs = 4;
    sc.shards = 4;
    sc.parallel = true;
    sc.warmup_s = 0.005;
    sc.measure_s = 0.02;
    let on = |workers| run_all(slice::from_ref(&sc), Some(workers));
    let serial = on(1);
    assert!(serial[0].completed > 0 && serial[0].parallel_routed > 0);
    for workers in [2, 4] {
        assert_eq!(on(workers), serial, "{workers} workers");
    }
}
