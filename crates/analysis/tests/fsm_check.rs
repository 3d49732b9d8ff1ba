//! End-to-end FSM acceptance: the exact matrix the CI `fsm-check` job
//! gates on, plus the emit → parse → replay loop a developer follows
//! when a counterexample lands in CI output.

use analysis::fsm::{check, replay, scenario, Action, Config, Hazard, Outcome};

#[test]
fn hardened_matrix_is_clean_and_unhardened_reproduces_pr6() {
    // Hardened: forged-LS witness and the full adversary must explore
    // without violations and actually reach goal states.
    for cfg in [
        Config::forged_ls_witness(true),
        Config::full_adversary_hardened(),
    ] {
        match check(&cfg) {
            Outcome::Clean { states, terminals } => {
                assert!(states > 0 && terminals > 0, "{cfg:?}: {states}/{terminals}");
            }
            Outcome::Violated(cx) => panic!("{cfg:?} must be clean, got {cx:?}"),
        }
    }

    // Unhardened: the PR 6 forged-LS CID-queue overflow must be
    // re-found — this is the regression witness that ties the model to
    // the code it abstracts.
    let cfg = Config::forged_ls_witness(false);
    let cx = check(&cfg).counterexample().cloned().expect("must violate");
    assert_eq!(cx.violation, Hazard::CidQueueOverflow);
}

#[test]
fn counterexample_schedule_walks_the_forged_ls_path() {
    let cfg = Config::forged_ls_witness(false);
    let cx = check(&cfg).counterexample().cloned().unwrap();
    // The schedule must issue, forge, and deliver — a violation that
    // skipped the adversary would mean the model breaks without it.
    assert!(cx.schedule.contains(&Action::Issue));
    assert!(cx.schedule.iter().any(|a| matches!(a, Action::ForgeLs(_))));
    assert!(cx
        .schedule
        .iter()
        .any(|a| matches!(a, Action::DeliverResp(_))));
    // The final action is the overflowing Issue.
    assert_eq!(cx.schedule.last(), Some(&Action::Issue));
}

#[test]
fn emitted_scenario_replays_from_disk_roundtrip() {
    let cfg = Config::forged_ls_witness(false);
    let cx = check(&cfg).counterexample().cloned().unwrap();
    let text = scenario::emit(&cfg, &cx);

    // A developer pastes the CI-emitted JSON into a file and replays it.
    let (parsed_cfg, parsed_cx) = scenario::parse(&text).expect("scenario parses");
    assert_eq!(parsed_cfg, cfg);
    assert_eq!(
        replay(&parsed_cfg, &parsed_cx.schedule),
        Ok(Some(Hazard::CidQueueOverflow))
    );

    // The same schedule against the hardened config must NOT reproduce:
    // hardening is exactly what the witness demonstrates. (It may
    // complete cleanly or diverge once the routing changes the state.)
    let hardened = Config::forged_ls_witness(true);
    if let Ok(Some(v)) = replay(&hardened, &parsed_cx.schedule) {
        panic!("hardened replay must not violate, got {v}");
    }
}
