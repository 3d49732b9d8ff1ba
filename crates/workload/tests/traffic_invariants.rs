//! End-to-end invariants of the PR 10 open-loop traffic models.
//!
//! For every arrival model (Poisson, bursty, diurnal, phased, churn
//! storm) × both runtimes × an optional lossy fault plane × random shard
//! counts × one target or a 2-target cluster (NVMe-oPF only), every run
//! must satisfy:
//!
//! 1. **Seed determinism**: running the same scenario twice yields the
//!    identical whole-cluster metric snapshot.
//! 2. **Shard/parallel invariance**: the snapshot is byte-identical at
//!    any shard count and with `parallel: true` (mailbox-mesh routing),
//!    i.e. the traffic generators are pinned to tenant lanes and fork
//!    their own RNG streams.
//! 3. **Exactly-once completion**: every offered arrival is completed
//!    exactly once (`traffic.offered == traffic.done`), including under
//!    churn storms (mass disconnect/reconnect through the PR 3 recovery
//!    machinery) and a lossy fault plane, with no exhausted retries.

use faults::FaultProfile;
use nvmf::RetryPolicy;
use proptest::prelude::*;
use simkit::SimDuration;
use workload::{ArrivalModel, ChurnStorm, Mix, Phase, RuntimeKind, Scenario, TrafficSpec};

/// Full snapshot as comparable data (name-sorted inside `Metrics`).
fn snapshot(r: &workload::RunResult) -> Vec<(String, f64)> {
    r.metrics.iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// One of the five campaign traffic shapes. With recovery armed (a
/// lossy plane, or any cluster) the open-loop tenants stay read-only:
/// write workloads under retry timers stall non-drain batches by design
/// (DESIGN.md §11), same caveat as `shard_invariants`.
fn model_spec(model: usize, recovering: bool) -> TrafficSpec {
    let read_only = if recovering { Some(1.0) } else { None };
    let base = TrafficSpec {
        rate_kiops: 40.0,
        read_fraction: read_only,
        ..TrafficSpec::default()
    };
    match model {
        0 => base,
        1 => TrafficSpec {
            model: ArrivalModel::Bursty {
                on_ms: 2.0,
                off_ms: 6.0,
            },
            rate_kiops: 120.0,
            ..base
        },
        2 => TrafficSpec {
            model: ArrivalModel::Diurnal {
                trough_frac: 0.2,
                period_ms: 20.0,
            },
            ..base
        },
        3 => TrafficSpec {
            // Churn storm riding Poisson arrivals: both TC tenants lose
            // their links for 2 ms mid-measure and must reconnect.
            churn: vec![ChurnStorm {
                at_s: 0.02,
                for_s: 0.002,
                tenants: 2,
            }],
            ..base
        },
        _ => TrafficSpec {
            model: ArrivalModel::Phased {
                phases: vec![
                    Phase {
                        dur_ms: 10.0,
                        rate_kiops: 30.0,
                        read_fraction: 1.0,
                        blocks: None,
                    },
                    Phase {
                        dur_ms: 5.0,
                        rate_kiops: 80.0,
                        read_fraction: if recovering { 1.0 } else { 0.0 },
                        blocks: Some(4),
                    },
                ],
            },
            zipf: Some(1.0),
            ..base
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..Default::default() })]
    #[test]
    fn traffic_models_are_deterministic_shard_invariant_and_exactly_once(
        model in 0usize..5,
        runtime_opf in any::<bool>(),
        shards in 2usize..=4,
        lossy in any::<bool>(),
        targets in 1usize..=2,
        seed in 1u64..256,
    ) {
        let runtime = if runtime_opf || targets > 1 { RuntimeKind::Opf } else { RuntimeKind::Spdk };
        let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, Mix::READ, 1, 2);
        sc.targets = targets;
        sc.warmup_s = 0.01;
        sc.measure_s = 0.04;
        sc.seed = seed;
        sc.traffic = Some(model_spec(model, lossy || targets > 1));
        if lossy {
            sc.faults = Some(FaultProfile {
                drop_p: 0.03,
                dup_p: 0.01,
                retry: Some(RetryPolicy {
                    timeout: SimDuration::from_micros(300),
                    max_retries: 32,
                }),
                ..FaultProfile::default()
            });
        }

        // 1. Seed determinism.
        let serial = workload::run(&sc);
        let repeat = workload::run(&sc);
        prop_assert_eq!(snapshot(&serial), snapshot(&repeat));

        // 2. Shard and parallel invariance: byte-identical snapshots,
        // with the sharded machinery genuinely engaged.
        sc.shards = shards;
        let sharded = workload::run(&sc);
        prop_assert_eq!(snapshot(&serial), snapshot(&sharded));
        prop_assert!(
            sharded.cross_shard_events > 0,
            "sharded routing never engaged ({} shards)", shards
        );
        sc.parallel = true;
        let meshed = workload::run(&sc);
        prop_assert_eq!(snapshot(&serial), snapshot(&meshed));
        prop_assert!(meshed.parallel_routed > 0, "mesh routing never engaged");

        // 3. Exactly-once: every open-loop arrival completed, none
        // duplicated or stranded — under churn and loss included.
        let m = &serial.metrics;
        let offered = m.get("traffic.offered").unwrap_or(-1.0);
        prop_assert!(offered > 0.0, "open-loop tenants never offered work");
        prop_assert_eq!(
            m.get("traffic.done"), Some(offered),
            "offered vs completed arrivals diverged"
        );
        // A cluster always arms recovery and reports it under
        // `recovery.`; a single target only with a fault plane, under
        // `faults.`.
        let aggregates = if targets > 1 {
            Some("recovery")
        } else {
            (lossy || matches!(model, 3)).then_some("faults")
        };
        if let Some(p) = aggregates {
            prop_assert_eq!(m.get(&format!("{p}.retry_exhausted")), Some(0.0));
            let f_offered = m.get(&format!("{p}.offered")).unwrap_or(0.0);
            prop_assert!(f_offered > 0.0);
            prop_assert_eq!(m.get(&format!("{p}.goodput")), Some(f_offered));
        }
        for i in 0..3 {
            prop_assert_eq!(
                m.get(&format!("ini{i}.errors")), Some(0.0),
                "tenant {} saw I/O errors", i
            );
        }
    }
}
