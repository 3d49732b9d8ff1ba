//! Replayable counterexample scenarios.
//!
//! A counterexample from [`super::check`] serializes to a small JSON
//! document — the bounded configuration plus the action schedule — so a
//! violation found in CI can be checked in, diffed, and replayed
//! locally with `cargo run -p analysis --bin fsm -- --replay <file>`.
//! The format is emitted here and read back through the workspace's one
//! JSON reader (the dependency-free `json` leaf crate).

use super::{Action, Config, Counterexample, Hazard};
use json::Json;

/// Serialize a counterexample with the configuration that produced it.
pub fn emit(cfg: &Config, cx: &Counterexample) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"violation\": \"{}\",\n", cx.violation));
    out.push_str("  \"config\": {\n");
    out.push_str(&format!("    \"qd\": {},\n", cfg.qd));
    out.push_str(&format!("    \"window\": {},\n", cfg.window));
    out.push_str(&format!("    \"max_cmds\": {},\n", cfg.max_cmds));
    out.push_str(&format!("    \"net_cap\": {},\n", cfg.net_cap));
    out.push_str(&format!("    \"forge_ls\": {},\n", cfg.forge_ls));
    out.push_str(&format!("    \"drop\": {},\n", cfg.drop));
    out.push_str(&format!("    \"dup\": {},\n", cfg.dup));
    out.push_str(&format!("    \"replay\": {},\n", cfg.replay));
    out.push_str(&format!("    \"hardened\": {}\n", cfg.hardened));
    out.push_str("  },\n");
    out.push_str("  \"schedule\": [\n");
    for (i, a) in cx.schedule.iter().enumerate() {
        let comma = if i + 1 == cx.schedule.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\"{comma}\n", action_str(*a)));
    }
    out.push_str("  ]\n}\n");
    out
}

fn action_str(a: Action) -> String {
    match a {
        Action::Issue => "issue".into(),
        Action::DeliverCmd(i) => format!("deliver-cmd {i}"),
        Action::DeliverResp(i) => format!("deliver-resp {i}"),
        Action::Expire(c) => format!("expire {c}"),
        Action::ForgeLs(i) => format!("forge-ls {i}"),
        Action::DropMsg(i) => format!("drop {i}"),
        Action::DupMsg(i) => format!("dup {i}"),
        Action::StashMsg(i) => format!("stash {i}"),
        Action::ReplayStash => "replay-stash".into(),
    }
}

fn parse_action(s: &str) -> Result<Action, String> {
    let (verb, arg) = match s.split_once(' ') {
        Some((v, a)) => (v, Some(a)),
        None => (s, None),
    };
    let num = |a: Option<&str>| -> Result<usize, String> {
        a.ok_or_else(|| format!("action `{s}`: missing operand"))?
            .parse()
            .map_err(|_| format!("action `{s}`: bad operand"))
    };
    Ok(match verb {
        "issue" => Action::Issue,
        "deliver-cmd" => Action::DeliverCmd(num(arg)?),
        "deliver-resp" => Action::DeliverResp(num(arg)?),
        "expire" => Action::Expire(num(arg)? as u16),
        "forge-ls" => Action::ForgeLs(num(arg)?),
        "drop" => Action::DropMsg(num(arg)?),
        "dup" => Action::DupMsg(num(arg)?),
        "stash" => Action::StashMsg(num(arg)?),
        "replay-stash" => Action::ReplayStash,
        _ => return Err(format!("unknown action `{s}`")),
    })
}

/// Largest bound a scenario may set. The model allocates `qd` slots and
/// `max_cmds` counters up front and its CIDs are 16-bit; checked-in
/// witnesses use single digits.
const MAX_BOUND: usize = 1 << 16;

/// Parse a scenario document back into its configuration and
/// counterexample. Unknown keys, at the root or in `config`, are errors.
pub fn parse(text: &str) -> Result<(Config, Counterexample), String> {
    // This tool's messages quote names as `qd`, not "qd".
    read(&json::parse(text)?).map_err(|e| e.to_string().replace('"', "`"))
}

fn read(doc: &Json) -> Result<(Config, Counterexample), json::Error> {
    let root = doc.obj("", &["violation", "config", "schedule"])?;
    let c = root.obj(
        "config",
        &[
            "qd", "window", "max_cmds", "net_cap", "forge_ls", "drop", "dup", "replay", "hardened",
        ],
    )?;
    let c = root.need("config", c)?;
    let bound = |key| c.need(key, c.int(key, 0..=MAX_BOUND)?);
    let flag = |key| c.need(key, c.bool(key)?);
    let cfg = Config {
        qd: bound("qd")?,
        window: bound("window")?,
        max_cmds: bound("max_cmds")?,
        net_cap: bound("net_cap")?,
        forge_ls: flag("forge_ls")?,
        drop: flag("drop")?,
        dup: flag("dup")?,
        replay: flag("replay")?,
        hardened: flag("hardened")?,
    };
    let violation = match root.need("violation", root.str("violation")?)? {
        "cid-queue-overflow" => Hazard::CidQueueOverflow,
        "double-completion" => Hazard::DoubleCompletion,
        "deadlock" => Hazard::Deadlock,
        other => return Err(root.err(format!("unknown violation `{other}`"))),
    };
    let schedule = root.items("schedule", |a, at| {
        a.as_str()
            .ok_or("not a string".to_string())
            .and_then(parse_action)
            .map_err(|e| json::Error::invalid(at, e))
    })?;
    Ok((
        cfg,
        Counterexample {
            violation,
            schedule: root.need("schedule", schedule)?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{check, replay};

    #[test]
    fn counterexample_round_trips_and_replays() {
        let cfg = Config::forged_ls_witness(false);
        let cx = check(&cfg)
            .counterexample()
            .expect("witness config must violate")
            .clone();
        let text = emit(&cfg, &cx);
        let (cfg2, cx2) = parse(&text).expect("emitted scenario must parse");
        assert_eq!(cfg, cfg2);
        assert_eq!(cx.schedule, cx2.schedule);
        assert_eq!(cx.violation, cx2.violation);
        assert_eq!(replay(&cfg2, &cx2.schedule), Ok(Some(cx.violation)));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nested deeper than 64"), "{err}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("[]").is_err());
        assert!(parse("{\"violation\": \"nope\"}").is_err());
        // Found by the reader fuzz: `replay` allocates `qd` slots.
        let cfg = Config::forged_ls_witness(false);
        let cx = check(&cfg).counterexample().unwrap().clone();
        let huge = emit(&cfg, &cx).replace("\"qd\": 1,", "\"qd\": 100000000000,");
        let err = parse(&huge).unwrap_err();
        assert!(
            err.contains("`qd` must be an integer in [0, 65536]"),
            "{err}"
        );
        assert!(parse_action("fly-me-to-the-moon 3").is_err());
    }

    #[test]
    fn all_actions_round_trip_as_strings() {
        for a in [
            Action::Issue,
            Action::DeliverCmd(7),
            Action::DeliverResp(0),
            Action::Expire(3),
            Action::ForgeLs(1),
            Action::DropMsg(2),
            Action::DupMsg(4),
            Action::StashMsg(5),
            Action::ReplayStash,
        ] {
            assert_eq!(parse_action(&action_str(a)).unwrap(), a);
        }
    }
}
