//! `repro adversary` — priority-protocol hardening under an
//! adversarial tenant (DESIGN.md §14).
//!
//! One tenant of the canonical 1 LS : 5 TC read scenario turns
//! adversarial: the seeded [`faults::Adversary`] interposes on its PDU
//! stream and forges LS flags, emits invalid flag combinations, floods
//! drain PDUs, replays stashed capsules across recovery epochs, or
//! spoofs the SQE initiator byte of an honest victim. Every attack
//! profile runs twice — with the hardened target (per-connection
//! identity enforcement + per-tenant drain rate limiting, the default)
//! and with enforcement off ("trust the wire", the pre-hardening
//! baseline).
//!
//! Three bounds are asserted for the *honest* tenants of every hardened
//! row, the same contracts the fault-free suite enforces:
//!
//! 1. **Fairness** — per-tenant completion spread across the honest TC
//!    tenants stays ≤ 5% of their mean (the `repro scale` bound).
//! 2. **Exactly-once** — every honest submission completes exactly
//!    once: no I/O errors, no exhausted retries, and submissions equal
//!    completions once the settle window drains the tail.
//! 3. **LS tail** — the honest LS tenant's p99.99 stays within 5× the
//!    attack-free baseline (the paper's SLO metric; a tenant forging
//!    LS flags would otherwise swamp the bypass path).
//!
//! The enforcement-off rows demonstrate the defense does real work: at
//! least one unhardened attack row must *violate* a bound (the grid
//! would otherwise prove nothing). Saved as `adversary.csv`.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use faults::{Adversary, FaultProfile};
use workload::scenario::WindowSpec;
use workload::{Mix, RunResult, RuntimeKind, Scenario, Table};

/// Honest LS tenants (slot 0).
pub const LS_TENANTS: usize = 1;
/// TC tenants (slots 1..=5); the last one is the adversary.
pub const TC_TENANTS: usize = 5;
/// The adversarial tenant's link/slot index.
pub const ADVERSARY_LINK: usize = LS_TENANTS + TC_TENANTS - 1;
/// The honest TC tenant whose initiator byte the spoof attack forges.
pub const SPOOF_VICTIM: u8 = 2;

/// One attack profile of the grid: a named knob setting for the
/// adversary. Probabilities are per intercepted capsule.
pub struct Attack {
    /// Row label.
    pub name: &'static str,
    /// Adversary knobs with `link`/`spoof_victim`/`harden` left default;
    /// [`scenarios`] fills those per row.
    pub profile: Adversary,
}

/// The attack grid, row-major order. `none` keeps the adversary inert
/// (all probabilities zero) and anchors the baseline: both of its rows
/// must match each other and trip no defense counter.
pub fn attacks() -> [Attack; 6] {
    let zero = Adversary::default();
    [
        Attack {
            name: "none",
            profile: zero,
        },
        Attack {
            name: "forge_ls",
            profile: Adversary {
                forge_ls_p: 0.5,
                ..zero
            },
        },
        Attack {
            name: "invalid_flags",
            profile: Adversary {
                invalid_flags_p: 0.25,
                ..zero
            },
        },
        Attack {
            name: "drain_flood",
            profile: Adversary {
                drain_flood_p: 1.0,
                ..zero
            },
        },
        Attack {
            name: "replay",
            profile: Adversary {
                replay_p: 0.3,
                ..zero
            },
        },
        // The spoof profile combines the forged initiator byte with
        // forged drain flags: every adversary capsule claims to be the
        // victim, and half of them force-flush the victim's staged
        // queue. Unhardened, the victim's window pacing and recovery
        // slots are driven by a stranger; hardened, the whole stream
        // dies at the identity check.
        Attack {
            name: "spoof",
            profile: Adversary {
                spoof_p: 1.0,
                drain_flood_p: 0.5,
                ..zero
            },
        },
    ]
}

/// Fault profile for one row: no fabric loss — the only disturbance is
/// the adversary — but the full recovery machinery is armed so the
/// epoch-guarded CID slots (the replay defense) are live, exactly as in
/// the chaos suite.
pub(crate) fn profile(attack: &Attack, harden: bool) -> FaultProfile {
    FaultProfile {
        retry: Some(nvmf::RetryPolicy {
            timeout: simkit::SimDuration::from_micros(2_000),
            max_retries: 8,
        }),
        redrain_timeout: Some(simkit::SimDuration::from_micros(2_000)),
        adversary: Some(Adversary {
            link: ADVERSARY_LINK,
            spoof_victim: SPOOF_VICTIM,
            harden,
            ..attack.profile
        }),
        ..FaultProfile::default()
    }
}

/// The attack × enforcement grid, in sweep order (attack-major,
/// hardened row first).
pub fn scenarios(d: Durations) -> Vec<Scenario> {
    let mut v = Vec::new();
    for attack in &attacks() {
        for harden in [true, false] {
            let mut sc = Scenario::ratio(
                RuntimeKind::Opf,
                Gbps::G100,
                Mix::READ,
                LS_TENANTS,
                TC_TENANTS,
            );
            sc.window = WindowSpec::Static(64);
            sc.faults = Some(profile(attack, harden));
            d.apply(&mut sc);
            v.push(sc);
        }
    }
    v
}

/// Honest TC tenant slots (every TC slot except the adversary's).
pub(crate) fn honest_tc() -> impl Iterator<Item = usize> {
    (LS_TENANTS..LS_TENANTS + TC_TENANTS).filter(|&i| i != ADVERSARY_LINK)
}

/// Per-tenant completion spread (% of mean) across the honest TC
/// tenants.
pub(crate) fn honest_spread_pct(r: &RunResult) -> f64 {
    crate::spread(&crate::completed(r, honest_tc())).2
}

/// Every adversary action the fault plane counted (`faults.adv_*`).
pub(crate) fn adv_attacks(r: &RunResult) -> f64 {
    [
        "forged_ls",
        "forged_invalid",
        "drain_floods",
        "replays",
        "spoofs",
    ]
    .iter()
    .map(|k| r.metrics.get(&format!("faults.adv_{k}")).unwrap_or(0.0))
    .sum()
}

/// Stray commands across all honest tenants (LS probe included): lost
/// or duplicated completions, I/O errors, and exhausted retries. Zero
/// iff every honest submission completed exactly once.
pub(crate) fn honest_strays(r: &RunResult) -> f64 {
    let m = &r.metrics;
    let mut strays = 0.0;
    for i in (0..LS_TENANTS).chain(honest_tc()) {
        let sub = m.get(&format!("ini{i}.submitted")).unwrap_or(0.0);
        let comp = m.get(&format!("ini{i}.completed")).unwrap_or(0.0);
        strays += (sub - comp).abs();
        strays += m.get(&format!("ini{i}.errors")).unwrap_or(0.0);
        strays += m.get(&format!("ini{i}.retry_exhausted")).unwrap_or(0.0);
    }
    strays
}

/// Render the grid table from [`scenarios`]-ordered results, asserting
/// the hardened bounds and the unhardened violation.
pub fn table(results: &[RunResult]) -> Table {
    let mut t = Table::new([
        "attack",
        "harden",
        "tc_kiops",
        "ls_p9999_us",
        "spread_pct",
        "honest_strays",
        "adv_attacks",
        "spoofs_dropped",
        "drains_suppressed",
        "tgt_protocol_errors",
    ]);
    // LS-tail bound: relative to the attack-free hardened row (the
    // grid's first scenario), since absolute tails depend on durations.
    let ls_tail_bound = results[0].ls_p9999_us * 5.0;
    let mut unhardened_violations = 0u32;
    let mut idx = 0;
    for attack in &attacks() {
        for harden in [true, false] {
            let r = &results[idx];
            idx += 1;
            let m = &r.metrics;
            let spread = honest_spread_pct(r);
            let strays = honest_strays(r);
            let adv_attacks = adv_attacks(r);
            let spoofs_dropped = m.get("pair0.tgt.spoofs_dropped").unwrap_or(0.0);
            let suppressed = m.get("pair0.tgt.drains_suppressed").unwrap_or(0.0);
            let proto_errs = m.get("pair0.tgt.protocol_errors").unwrap_or(0.0);

            if harden {
                assert!(
                    spread <= 5.0,
                    "{}: hardened honest-tenant spread {spread:.2}% exceeds the \
                     5% fairness bound",
                    attack.name
                );
                assert_eq!(
                    strays, 0.0,
                    "{}: hardened run lost/duplicated honest commands",
                    attack.name
                );
                assert!(
                    r.ls_p9999_us <= ls_tail_bound,
                    "{}: hardened LS p99.99 {:.1}us exceeds 5x the attack-free \
                     baseline ({ls_tail_bound:.1}us)",
                    attack.name,
                    r.ls_p9999_us
                );
                if attack.name != "none" {
                    assert!(
                        adv_attacks > 0.0,
                        "{}: adversary never fired — the row proves nothing",
                        attack.name
                    );
                }
                match attack.name {
                    // Honest drain cadence never trips the limiter, and
                    // nobody forges identities in the baseline row.
                    "none" => assert_eq!((spoofs_dropped, suppressed), (0.0, 0.0)),
                    "spoof" => assert!(spoofs_dropped > 0.0, "identity check never engaged"),
                    "drain_flood" => assert!(suppressed > 0.0, "rate limiter never engaged"),
                    _ => {}
                }
            } else if attack.name != "none"
                && (spread > 5.0 || strays > 0.0 || r.ls_p9999_us > ls_tail_bound)
            {
                unhardened_violations += 1;
            }

            t.row([
                attack.name.to_string(),
                if harden { "on" } else { "off" }.to_string(),
                format!("{:.1}", r.tc_iops / 1e3),
                format!("{:.1}", r.ls_p9999_us),
                format!("{spread:.3}"),
                format!("{strays:.0}"),
                format!("{adv_attacks:.0}"),
                format!("{spoofs_dropped:.0}"),
                format!("{suppressed:.0}"),
                format!("{proto_errs:.0}"),
            ]);
        }
    }
    assert!(
        unhardened_violations > 0,
        "no enforcement-off row violated a bound — the defenses are not \
         demonstrably doing work"
    );
    t
}

/// Run the attack grid, assert its contracts, and save `adversary.csv`.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put(
        "== Adversary: attack profile x enforcement, NVMe-oPF 1 LS : 5 TC read, 100 Gbps ==\n",
    );
    let results = run_all(&scenarios(d), threads);
    let t = table(&results);
    crate::put(&workload::render_table(&t));
    crate::save_csv("adversary", &t);
}
