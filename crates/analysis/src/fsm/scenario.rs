//! Replayable counterexample scenarios.
//!
//! A counterexample from [`super::check`] serializes to a small JSON
//! document — the bounded configuration plus the action schedule — so a
//! violation found in CI can be checked in, diffed, and replayed
//! locally with `cargo run -p analysis --bin fsm -- --replay <file>`.
//! The format is emitted and parsed here with no dependencies (the
//! parser handles exactly the JSON subset the emitter produces, plus
//! whitespace and string escapes).

use super::{Action, Config, Counterexample, Violation};
use std::collections::BTreeMap;

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

/// Minimal JSON value for the scenario subset.
#[derive(Debug, Clone)]
enum Json {
    Obj(BTreeMap<String, Json>),
    Arr(Vec<Json>),
    Str(String),
    Num(i64),
    Bool(bool),
}

/// Deepest nesting the reader accepts (an emitted scenario nests 2). It
/// recurses per level, so an unbounded document would end in a stack
/// overflow instead of an error.
const MAX_DEPTH: usize = 64;

struct Parser<'s> {
    b: &'s [u8],
    i: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl<'s> Parser<'s> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' { self.obj() } else { self.arr() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("bad object at byte {}", self.i)),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("bad array at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.i + 1).copied();
                    s.push(match esc {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(c) => c as char,
                        None => return Err("unterminated escape".into()),
                    });
                    self.i += 2;
                }
                Some(&c) => {
                    s.push(c as char);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn boolean(&mut self) -> Result<Json, String> {
        if self.b[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(Json::Bool(true))
        } else if self.b[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(Json::Bool(false))
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

fn get<'j>(obj: &'j BTreeMap<String, Json>, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn as_usize(j: &Json, key: &str) -> Result<usize, String> {
    match j {
        Json::Num(n) if *n >= 0 => Ok(*n as usize),
        _ => Err(format!("`{key}` must be a non-negative integer")),
    }
}

fn as_bool(j: &Json, key: &str) -> Result<bool, String> {
    match j {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` must be a bool")),
    }
}

/// Parse a scenario document back into its configuration and
/// counterexample.
pub fn parse(text: &str) -> Result<(Config, Counterexample), String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let Json::Obj(root) = p.value()? else {
        return Err("scenario root must be an object".into());
    };
    let Json::Obj(c) = get(&root, "config")? else {
        return Err("`config` must be an object".into());
    };
    let cfg = Config {
        qd: as_usize(get(c, "qd")?, "qd")?,
        window: as_usize(get(c, "window")?, "window")?,
        max_cmds: as_usize(get(c, "max_cmds")?, "max_cmds")?,
        net_cap: as_usize(get(c, "net_cap")?, "net_cap")?,
        forge_ls: as_bool(get(c, "forge_ls")?, "forge_ls")?,
        drop: as_bool(get(c, "drop")?, "drop")?,
        dup: as_bool(get(c, "dup")?, "dup")?,
        replay: as_bool(get(c, "replay")?, "replay")?,
        hardened: as_bool(get(c, "hardened")?, "hardened")?,
    };
    let violation = match get(&root, "violation")? {
        Json::Str(s) => match s.as_str() {
            "cid-queue-overflow" => Violation::CidQueueOverflow,
            "double-completion" => Violation::DoubleCompletion,
            "deadlock" => Violation::Deadlock,
            other => return Err(format!("unknown violation `{other}`")),
        },
        _ => return Err("`violation` must be a string".into()),
    };
    let Json::Arr(sched) = get(&root, "schedule")? else {
        return Err("`schedule` must be an array".into());
    };
    let mut schedule = Vec::with_capacity(sched.len());
    for item in sched {
        let Json::Str(s) = item else {
            return Err("schedule entries must be strings".into());
        };
        schedule.push(parse_action(s)?);
    }
    Ok((
        cfg,
        Counterexample {
            violation,
            schedule,
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
