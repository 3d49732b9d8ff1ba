//! CID-lifecycle model checker CLI: `cargo run -p analysis --bin fsm`.
//!
//! Default mode runs the bounded exploration matrix CI gates on:
//!
//! 1. the hardened forged-LS witness config — must be clean;
//! 2. the hardened full-adversary config (drop/dup/replay/forge) —
//!    must be clean;
//! 3. the *unhardened* forged-LS witness — must re-find the PR 6
//!    CID-queue overflow (regression witness: if the model stops
//!    finding it, the model has drifted from the code it abstracts).
//!
//! Exit code is non-zero if any expectation fails. `--emit <dir>`
//! additionally writes the unhardened counterexample as replayable
//! scenario JSON. `--replay <file>` replays a scenario file instead of
//! exploring, printing the violation it reproduces.

use analysis::fsm::{check, replay, scenario, Config, Hazard, Outcome};
use json::put;
use std::process::ExitCode;

fn run_matrix(emit_dir: Option<&str>) -> ExitCode {
    let mut ok = true;

    for (name, cfg) in [
        (
            "hardened forged-LS witness",
            Config::forged_ls_witness(true),
        ),
        ("hardened full adversary", Config::full_adversary_hardened()),
    ] {
        match check(&cfg) {
            Outcome::Clean { states, terminals } => {
                put(&format!(
                    "fsm: {name}: clean ({states} states, {terminals} terminal)"
                ));
            }
            Outcome::Violated(cx) => {
                put(&format!(
                    "fsm: {name}: UNEXPECTED {} after {} actions",
                    cx.violation,
                    cx.schedule.len()
                ));
                put(&scenario::emit(&cfg, &cx));
                ok = false;
            }
        }
    }

    let unhardened = Config::forged_ls_witness(false);
    match check(&unhardened) {
        Outcome::Violated(cx) if cx.violation == Hazard::CidQueueOverflow => {
            put(&format!(
                "fsm: unhardened forged-LS witness: reproduces PR6 {} in {} actions (expected)",
                cx.violation,
                cx.schedule.len()
            ));
            if let Some(dir) = emit_dir {
                let path = std::path::Path::new(dir).join("forged_ls_overflow.json");
                if let Err(e) = std::fs::write(&path, scenario::emit(&unhardened, &cx)) {
                    put(&format!("fsm: cannot write {}: {e}", path.display()));
                    ok = false;
                } else {
                    put(&format!(
                        "fsm: counterexample written to {}",
                        path.display()
                    ));
                }
            }
        }
        Outcome::Violated(cx) => {
            put(&format!(
                "fsm: unhardened forged-LS witness: wrong violation {} (expected cid-queue-overflow)",
                cx.violation
            ));
            ok = false;
        }
        Outcome::Clean { states, .. } => {
            put(&format!(
                "fsm: unhardened forged-LS witness: clean over {states} states — the model \
                 no longer reproduces the PR6 overflow; it has drifted from the code"
            ));
            ok = false;
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            put(&format!("fsm: cannot read {path}: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let (cfg, cx) = match scenario::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            put(&format!("fsm: {path}: {e}"));
            return ExitCode::FAILURE;
        }
    };
    match replay(&cfg, &cx.schedule) {
        Ok(Some(v)) if v == cx.violation => {
            put(&format!(
                "fsm: {path}: reproduces {v} in {} actions",
                cx.schedule.len()
            ));
            ExitCode::SUCCESS
        }
        Ok(Some(v)) => {
            put(&format!(
                "fsm: {path}: reproduces {v}, but the file claims {}",
                cx.violation
            ));
            ExitCode::FAILURE
        }
        Ok(None) => {
            put(&format!(
                "fsm: {path}: schedule completed without violating — the recorded \
                 bug no longer reproduces against this model"
            ));
            ExitCode::FAILURE
        }
        Err(e) => {
            put(&format!("fsm: {path}: schedule diverged: {e:?}"));
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--replay") => match args.get(1) {
            Some(path) => run_replay(path),
            None => {
                put("fsm: --replay needs a scenario file");
                ExitCode::FAILURE
            }
        },
        Some("--emit") => match args.get(1) {
            Some(dir) => run_matrix(Some(dir)),
            None => {
                put("fsm: --emit needs a directory");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            put(&format!(
                "fsm: unknown argument `{other}` (try --emit <dir> or --replay <file>)"
            ));
            ExitCode::FAILURE
        }
        None => run_matrix(None),
    }
}
