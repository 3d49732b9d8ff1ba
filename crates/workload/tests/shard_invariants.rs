//! End-to-end invariants of the sharded runner (DESIGN.md §13).
//!
//! For random small topologies × both runtimes × a seeded fault plane
//! (reusing the `faults` crate's deterministic plane) × random shard
//! counts, every run must satisfy:
//!
//! 1. **Replay**: the sharded run's whole metric snapshot — every
//!    counter of every layer — is identical to the serial (shards=1)
//!    run, and so is the executed-event count. This subsumes "same
//!    results": if any event ordered differently, some counter,
//!    latency percentile or RNG draw would diverge.
//! 2. **Exactly-once completion per CID**: per tenant, completions never
//!    exceed submissions, and the shortfall is bounded by the tenant's
//!    queue depth (the in-flight tail cut off by the horizon). Under
//!    faults — where retransmits could double-execute — the settle
//!    window drains the tail and the two must match *exactly*
//!    (`faults.offered == faults.goodput` conservation).
//! 3. **Issue-order marking stays sound**: Algorithm 2's prefix marking
//!    and the target's drain-order release are checked by debug
//!    assertions and protocol-error counters on the components
//!    themselves; here we assert no tenant saw an error or protocol
//!    violation end to end.

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
    fn sharded_runs_replay_serially_and_conserve_commands(
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

        let serial = workload::run(&sc);
        sc.shards = shards;
        let sharded = workload::run(&sc);

        // 1. Replay: identical snapshots and event counts; the sharding
        // must also have genuinely engaged (with ≥ 2 tenants, at least
        // one start event lands off lane 0).
        prop_assert_eq!(snapshot(&serial), snapshot(&sharded));
        prop_assert_eq!(serial.events, sharded.events);
        prop_assert_eq!(serial.cross_shard_events, 0);
        if ls + tc >= 2 {
            prop_assert!(
                sharded.cross_shard_events > 0,
                "sharded routing never engaged ({} tenants, {} shards)",
                ls + tc, shards
            );
        }

        // 2 + 3. Conservation and error-freedom, per tenant, on the
        // sharded run (by property 1 the serial run is the same).
        let m = &sharded.metrics;
        let tenants = ls + tc;
        for i in 0..tenants {
            let sub = m.get(&format!("ini{i}.submitted")).unwrap_or(-1.0);
            let comp = m.get(&format!("ini{i}.completed")).unwrap_or(-1.0);
            prop_assert!(sub >= 0.0 && comp >= 0.0, "tenant {i} snapshot missing");
            prop_assert!(comp > 0.0, "tenant {i} never completed anything");
            let qd = if i < ls { 1 } else { sc.tc_qd } as f64;
            if faulty {
                // Settle window drained the tail: exactly-once, exactly.
                prop_assert_eq!(comp, sub, "tenant {} lost or duplicated commands", i);
            } else {
                prop_assert!(comp <= sub, "tenant {i} completed more than it submitted");
                prop_assert!(
                    sub - comp <= qd,
                    "tenant {i} stranded more than its queue depth: {sub} vs {comp}"
                );
            }
            prop_assert_eq!(
                m.get(&format!("ini{i}.errors")),
                Some(0.0),
                "tenant {} saw I/O errors", i
            );
            // Duplicated PDUs are *counted* as protocol violations by
            // the receiver before being dropped, so only fault-free
            // runs must be violation-free.
            if !faulty {
                prop_assert_eq!(
                    m.get(&format!("ini{i}.protocol_errors")),
                    Some(0.0),
                    "tenant {} saw protocol violations", i
                );
            }
        }
        if faulty {
            // Cluster-wide conservation from the fault plane's ledger.
            let offered = m.get("faults.offered").unwrap_or(0.0);
            prop_assert!(offered > 0.0);
            prop_assert_eq!(m.get("faults.goodput"), Some(offered));
            prop_assert_eq!(m.get("faults.retry_exhausted"), Some(0.0));
        }
    }
}
