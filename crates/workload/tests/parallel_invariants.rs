//! End-to-end invariants of the `parallel: true` scenario knob
//! (DESIGN.md §17).
//!
//! With the knob on, every cross-lane schedule detours through the
//! kernel's mailbox mesh instead of being pushed straight
//! into the peer lane's heap. For random small topologies × both
//! runtimes × shard counts × a seeded fault plane, every run must
//! satisfy:
//!
//! 1. **Replay**: the mesh-routed run's whole metric snapshot is
//!    byte-identical to the direct run's, and so is the executed-event
//!    count. The merge key is the global `(time, seq)` stamp either
//!    way, so any divergence means the detour reordered something.
//! 2. **Engagement**: with ≥ 2 tenants and ≥ 2 shards the mesh really
//!    routed messages (`parallel_routed > 0`), and the reported
//!    minimum cross-lane slack — send time to delivery time — is
//!    positive.
//! 3. **Off is off**: with `parallel: false` nothing is mesh-routed and
//!    no slack is reported.

use faults::FaultProfile;
use nvmf::RetryPolicy;
use proptest::prelude::*;
use simkit::SimDuration;
use workload::{Mix, RuntimeKind, Scenario};

/// Full snapshot as comparable data (name-sorted inside `Metrics`).
fn snapshot(r: &workload::RunResult) -> Vec<(String, f64)> {
    r.metrics.iter().map(|(n, v)| (n.to_string(), v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]
    #[test]
    fn mesh_routed_runs_replay_the_direct_path(
        runtime_opf in any::<bool>(),
        write_mix in any::<bool>(),
        ls in 0usize..2,
        tc in 1usize..4,
        shards in 2usize..=8,
        faulty in any::<bool>(),
        seed in 1u64..256,
    ) {
        let runtime = if runtime_opf { RuntimeKind::Opf } else { RuntimeKind::Spdk };
        // Write workloads under loss stall non-drain batches by design
        // (DESIGN.md §11), so the fault plane rides read-only mixes.
        let mix = if write_mix && !faulty { Mix::WRITE } else { Mix::READ };
        let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, mix, ls, tc);
        sc.warmup_s = 0.01;
        sc.measure_s = 0.03;
        sc.seed = seed;
        sc.shards = shards;
        if faulty {
            sc.faults = Some(FaultProfile {
                drop_p: 0.05,
                dup_p: 0.02,
                delay_p: 0.05,
                retry: Some(RetryPolicy {
                    timeout: SimDuration::from_micros(300),
                    max_retries: 16,
                }),
                ..FaultProfile::default()
            });
        }

        let direct = workload::run(&sc);
        sc.parallel = true;
        let meshed = workload::run(&sc);

        // 1. Replay: identical snapshots and event counts.
        prop_assert_eq!(snapshot(&direct), snapshot(&meshed));
        prop_assert_eq!(direct.events, meshed.events);
        prop_assert_eq!(direct.cross_shard_events, meshed.cross_shard_events);

        // 3. Off is off.
        prop_assert_eq!(direct.parallel_routed, 0);
        prop_assert_eq!(direct.parallel_min_slack_ns, None);

        // 2. Engagement: whenever the sharded routing crossed lanes at
        // all, the mesh carried those messages, and the slack it
        // reports is a real positive duration.
        if meshed.cross_shard_events > 0 {
            prop_assert!(
                meshed.parallel_routed > 0,
                "mesh never engaged ({} tenants, {} shards, {} cross-shard events)",
                ls + tc, shards, meshed.cross_shard_events
            );
            let slack = meshed.parallel_min_slack_ns;
            prop_assert!(
                slack.is_some_and(|s| s > 0),
                "mesh routed {} messages but reported slack {:?}",
                meshed.parallel_routed, slack
            );
        } else {
            prop_assert_eq!(meshed.parallel_routed, 0);
        }
        if ls + tc >= 2 {
            prop_assert!(meshed.cross_shard_events > 0);
        }
    }
}
