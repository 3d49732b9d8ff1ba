//! `opfbench compare A.json B.json`: judge B against baseline A, metric
//! by metric and workload by workload, with the bounds `BENCHMARK.json`
//! fixes.
//!
//! * **regression** — B's median is worse than A's by more than the
//!   bound and the two interquartile ranges do not overlap; or
//!   `failed_share` rose at all.
//! * **unresolved** — the medians differ by more than the bound but the
//!   interquartile ranges overlap, or either side's own spread is wider
//!   than the bound: the data cannot tell changed from unchanged.
//! * **ok** — within the bound, with both spreads inside it.
//!
//! A combined score is never computed; each pairing gets its own row.
//! Smoke reports, and reports taken with a different run length or
//! repetition count, are refused.

use crate::catalog::{Better, Catalog};
use crate::suite::SCHEMA;
use simkit::json::{self, Json};

/// Verdict on one (workload, metric) pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound and resolvable.
    Ok,
    /// Cannot tell.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Verdict.
    pub verdict: Verdict,
    /// Relative change in the *worse* direction (negative = improved).
    pub worse_by: f64,
    /// What was compared.
    pub detail: String,
}

/// The whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per pairing.
    pub rows: Vec<Row>,
    /// Informational notes (digest changes and the like).
    pub notes: Vec<String>,
}

impl Comparison {
    /// Rows with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }
}

struct Quartiles {
    median: f64,
    q1: f64,
    q3: f64,
}

fn quartiles(m: &Json) -> Option<Quartiles> {
    Some(Quartiles {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn judge(a: &Quartiles, b: &Quartiles, better: Better, bound: f64) -> (Verdict, f64) {
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / base,
        Better::Higher => (a.median - b.median) / base,
    };
    let spread = |q: &Quartiles| (q.q3 - q.q1) / q.median.abs().max(f64::MIN_POSITIVE);
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    let verdict = if worse_by > bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn load(src: &str, which: &str) -> Result<Json, String> {
    let doc = json::parse(src).map_err(|e| format!("{which}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{which}: not an `opfbench run` report ({SCHEMA})"));
    }
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{which}: smoke runs are 1/100 length and are not comparable"
        ));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Compare report `b_src` against baseline `a_src`.
pub fn compare(a_src: &str, b_src: &str, catalog: &Catalog) -> Result<Comparison, String> {
    let (a, b) = (load(a_src, "A")?, load(b_src, "B")?);
    // Run length and repetition counts fix which derived seeds a run
    // averages: reports taken under different ones are not comparable.
    for key in ["seconds", "reps"] {
        let of = |doc: &Json| doc.get(key).and_then(Json::as_f64);
        if of(&a).is_none() || of(&a) != of(&b) {
            return Err(format!(
                "the reports were taken with different `{key}` ({:?} vs {:?})",
                of(&a),
                of(&b)
            ));
        }
    }
    let same_seed = a.get("seed").and_then(Json::as_u64) == b.get("seed").and_then(Json::as_u64);
    let mut out = Comparison::default();
    if !same_seed {
        out.notes.push(
            "seeds differ: simulated metrics are judged by their bounds, not for equality".into(),
        );
    }
    for name in &catalog.workloads {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            return Err(format!("workload {name} missing from one report"));
        };
        for side in [wa, wb] {
            if side.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("workload {name}: a report with failed checks"));
            }
        }
        for d in &catalog.end_to_end {
            let metric = |w: &Json| {
                w.get("metrics")
                    .and_then(|m| m.get(&d.name))
                    .and_then(quartiles)
            };
            let (Some(qa), Some(qb)) = (metric(wa), metric(wb)) else {
                return Err(format!("{name}: metric {} missing from one report", d.name));
            };
            let (verdict, worse_by) = judge(&qa, &qb, d.better, d.bound.unwrap_or(0.0));
            out.rows.push(Row {
                workload: name.clone(),
                metric: d.name.clone(),
                verdict,
                worse_by,
                detail: format!(
                    "A {:.6} [{:.6}, {:.6}]  B {:.6} [{:.6}, {:.6}] {}  bound {:.1}%",
                    qa.median,
                    qa.q1,
                    qa.q3,
                    qb.median,
                    qb.q1,
                    qb.q3,
                    d.unit,
                    d.bound.unwrap_or(0.0) * 100.0
                ),
            });
        }
        // failed_share: any increase is a regression.
        let fs = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        out.rows.push(Row {
            workload: name.clone(),
            metric: "failed_share".into(),
            verdict: if fs(wb) > fs(wa) {
                Verdict::Regression
            } else {
                Verdict::Ok
            },
            worse_by: fs(wb) - fs(wa),
            detail: format!("A {} B {} (any increase regresses)", fs(wa), fs(wb)),
        });
        if same_seed {
            for key in ["sim_digest", "events_per_io"] {
                if wa.get(key) != wb.get(key) {
                    out.notes.push(format!(
                        "{name}: {key} changed ({:?} -> {:?}): the two sides simulated different things",
                        wa.get(key),
                        wb.get(key)
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// Print the comparison; returns the process exit code (1 on regression).
pub fn report(c: &Comparison) -> i32 {
    for r in &c.rows {
        let tag = match r.verdict {
            Verdict::Ok => "ok        ",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        };
        println!(
            "{tag} {:<24} {:<16} {:+7.2}% worse  {}",
            r.workload,
            r.metric,
            r.worse_by * 100.0,
            r.detail
        );
    }
    for n in &c.notes {
        println!("note: {n}");
    }
    println!(
        "[{} ok, {} unresolved, {} regressions]",
        c.count(Verdict::Ok),
        c.count(Verdict::Unresolved),
        c.count(Verdict::Regression)
    );
    i32::from(c.count(Verdict::Regression) > 0)
}
