//! Open-loop request traces.
//!
//! The paper's evaluation is closed-loop (fixed queue depth). Real
//! applications are often open-loop: requests arrive on their own clock
//! regardless of completions. A [`TraceLog`] records such a stream, one
//! [`TraceEvent`] per request, with a text round trip. The runner plays
//! it through [`ArrivalModel::Trace`](crate::ArrivalModel::Trace): TC
//! tenant *i* of a scenario issues the trace's tenant-*i* events, each at
//! its own time, with its own class, op, LBA and size.

/// One traced request arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time relative to trace start (ns).
    pub at_ns: u64,
    /// Issuing tenant: the scenario's TC tenant of this index, counted
    /// over all pairs.
    pub tenant: u8,
    /// True for latency-sensitive requests.
    pub ls: bool,
    /// True for writes.
    pub write: bool,
    /// Starting LBA.
    pub lba: u64,
    /// Blocks (4K units), at least 1.
    pub blocks: u16,
}

/// An ordered request trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events sorted by arrival time ([`TraceLog::from_text`] sorts; the
    /// runner issues an event earlier than its tenant's previous one at
    /// that previous one's time).
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Serialize as one line per event:
    /// `at_ns,tenant,class,op,lba,blocks`.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# at_ns,tenant,class,op,lba,blocks\n");
        for e in &self.events {
            let class = if e.ls { "LS" } else { "TC" };
            let op = if e.write { "W" } else { "R" };
            out += &format!(
                "{},{},{class},{op},{},{}\n",
                e.at_ns, e.tenant, e.lba, e.blocks
            );
        }
        out
    }

    /// Parse the text format (ignores `#` comments and blank lines) and
    /// sort the events by arrival time (stable).
    pub fn from_text(text: &str) -> Result<TraceLog, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 6 {
                return Err(format!("line {}: expected 6 fields", i + 1));
            }
            let parse_err = |what: &str| format!("line {}: bad {what}", i + 1);
            events.push(TraceEvent {
                at_ns: fields[0].parse().map_err(|_| parse_err("at_ns"))?,
                tenant: fields[1].parse().map_err(|_| parse_err("tenant"))?,
                ls: match fields[2] {
                    "LS" => true,
                    "TC" => false,
                    _ => return Err(parse_err("class")),
                },
                write: match fields[3] {
                    "W" => true,
                    "R" => false,
                    _ => return Err(parse_err("op")),
                },
                lba: fields[4].parse().map_err(|_| parse_err("lba"))?,
                blocks: match fields[5].parse() {
                    Ok(0) | Err(_) => return Err(parse_err("blocks (1-based)")),
                    Ok(b) => b,
                },
            });
        }
        events.sort_by_key(|e| e.at_ns);
        Ok(TraceLog { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, ArrivalModel, Mix, RuntimeKind, Scenario, ScenarioError, TrafficSpec};
    use fabric::Gbps;
    use std::sync::Arc;

    #[test]
    fn text_roundtrip() {
        let ev = |at_ns, tenant, ls, write, lba, blocks| TraceEvent {
            at_ns,
            tenant,
            ls,
            write,
            lba,
            blocks,
        };
        let log = TraceLog {
            events: vec![ev(100, 0, false, false, 5, 1), ev(50, 1, true, true, 9, 4)],
        };
        let back = TraceLog::from_text(&log.to_text()).unwrap();
        // from_text sorts by arrival.
        assert_eq!(back.events, [log.events[1], log.events[0]]);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(TraceLog::from_text("1,2,3").is_err());
        assert!(TraceLog::from_text("x,0,TC,R,0,1").is_err());
        assert!(TraceLog::from_text("5,0,XX,R,0,1").is_err());
        assert!(TraceLog::from_text("# only comments\n\n")
            .unwrap()
            .events
            .is_empty());
    }

    /// One-line traces that each panicked the old stand-alone replayer at
    /// 8b0c8ff — the reserved tenant id, a tenant aliasing the queue-key
    /// owner field, zero blocks, an arrival time that overflows the
    /// horizon, and (in debug builds) a write larger than the one-block
    /// payload — plus an arrival past one simulated hour, which spun its
    /// 1 ms drainer for an hour of simulated time at 363394b. On the
    /// runner each is a typed error or a clean run.
    #[test]
    fn hostile_traces_get_typed_errors() {
        let past_hour = format!("0,0,TC,R,0,1\n{},0,TC,R,0,1", Scenario::MAX_DURATION_NS + 1);
        let out_of_range = |tenant| {
            Err(format!(
                "{}",
                ScenarioError::TraceTenantOutOfRange { tenant, tenants: 4 }
            ))
        };
        let cases: [(&str, Result<f64, String>); 6] = [
            ("0,255,TC,R,0,1", out_of_range(255)),
            ("0,100,TC,R,0,1", out_of_range(100)),
            ("0,0,TC,R,0,0", Err("line 1: bad blocks (1-based)".into())),
            ("0,0,TC,R,0,1\n18446744073709551615,0,LS,R,0,1", Ok(1.0)),
            (past_hour.as_str(), Ok(1.0)),
            ("0,0,TC,W,0,8", Ok(1.0)),
        ];
        for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
            for (text, want) in &cases {
                let got = TraceLog::from_text(text).and_then(|log| {
                    let mut sc = Scenario::ratio(runtime, Gbps::G100, Mix::READ, 0, 4);
                    sc.warmup_s = 0.0;
                    sc.measure_s = 0.001;
                    sc.traffic = Some(TrafficSpec {
                        model: ArrivalModel::Trace(Arc::new(log)),
                        ..TrafficSpec::default()
                    });
                    sc.validate().map_err(|e| e.to_string())?;
                    let m = run(&sc).metrics;
                    assert_eq!(m.get("traffic.offered"), m.get("traffic.done"), "{text}");
                    m.get("traffic.done")
                        .ok_or_else(|| "no traffic.done".into())
                });
                assert_eq!(&got, want, "{runtime:?}: {text}");
            }
        }
    }
}
