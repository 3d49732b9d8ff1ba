//! The benchmark's contract, checked from outside the crate:
//! `BENCHMARK.json` is well formed and names exactly what a run prints;
//! `compare` passes, regresses and declines to resolve on synthetic
//! input; a smoke repetition finishes in seconds, passes every check and
//! survives the child-to-parent JSON line; each check trips when fed a
//! doctored snapshot.

use opfbench::catalog::{Catalog, BENCHMARK_JSON};
use opfbench::checks::{self, CheckResult};
use opfbench::child::{run_rep, RepOpts, RepReport};
use opfbench::compare::{compare, Verdict};
use opfbench::ledger::SimFacts;
use opfbench::stats::Summary;
use opfbench::suite::{latest_json, MetricRow, RunOpts, RunReport, WorkloadRow};
use opfbench::workloads::{self, Leg, LegOut, LegSnapshot, Scale, Workload};
use simkit::json::{self, Json};
use std::collections::BTreeSet;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string in {v:?}"))
}

#[test]
fn benchmark_json_meets_the_contract() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert!((1..=16).contains(&paths.len()));
    for p in &paths {
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/')));
    }

    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        // Any repository path an argument names lies under `paths`.
        if arg.contains('/') {
            assert!(
                paths.iter().any(|p| arg.starts_with(&format!("{p}/"))),
                "{arg} is outside paths"
            );
        }
    }

    let run_seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&run_seconds));

    let mut names = BTreeSet::new();
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(is_name(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(names.insert(str_of(w, "name")), "duplicate name");
    }

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let largest = e2e
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(per_layer) {
        assert!(is_name(str_of(m, "name")), "{m:?}");
        assert!(is_unit(str_of(m, "unit")), "{m:?}");
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
        assert!(names.insert(str_of(m, "name")), "duplicate name {m:?}");
    }
}

/// One smoke repetition in this process, wrapped as the run a parent
/// would make of it.
fn smoke_run(workload: Workload, trace: bool) -> RunReport {
    let rep = run_rep(&RepOpts {
        workload,
        seed: 42,
        rep: 0,
        trace,
        smoke: true,
        out_dir: std::env::temp_dir().join(format!("opfbench-test-{}", std::process::id())),
    })
    .expect("smoke repetition");
    // What the child prints is what the parent reads.
    let line = rep.to_json();
    let back = RepReport::from_json(&json::parse(&line).expect("child line is JSON"));
    assert_eq!(back.as_ref(), Ok(&rep), "{line}");
    RunReport {
        workload,
        opts: RunOpts {
            seed: 42,
            seconds: 1.0,
            smoke: true,
        },
        trace,
        reps: vec![rep],
    }
}

fn failed(checks: &[CheckResult]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| c.name.clone())
        .collect()
}

/// The names a run prints are exactly the names `BENCHMARK.json` lists
/// for its mode, each with a finite value and the contract's unit.
fn assert_prints_contract(workload: Workload, trace: bool, catalog: &Catalog) {
    let report = smoke_run(workload, trace);
    assert_eq!(
        failed(&report.checks()),
        Vec::<String>::new(),
        "{:?}",
        report.checks()
    );
    let line = report.result_line(catalog).expect("result line");
    let doc = json::parse(&line).expect("result line is JSON");
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let defs = if trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    let printed = doc.get("metrics").unwrap();
    let expected: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(keys(printed), expected);
    for d in defs {
        let m = printed.get(&d.name).unwrap();
        assert_eq!(keys(m), ["value", "unit"]);
        assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
        assert_eq!(str_of(m, "unit"), d.unit);
    }
    // The table for people names every metric too.
    let table = report.human(catalog).expect("table");
    for d in defs {
        assert!(table.contains(&d.name), "table lacks {}", d.name);
    }
    assert!(table.contains("SMOKE"));
}

#[test]
fn every_workload_smokes_clean_and_prints_the_end_to_end_set() {
    let catalog = Catalog::load().unwrap();
    for w in Workload::ALL {
        assert_prints_contract(w, false, &catalog);
    }
}

#[test]
fn a_traced_smoke_run_prints_the_per_layer_set_and_writes_spans() {
    let catalog = Catalog::load().unwrap();
    assert_prints_contract(Workload::Read4k100g, true, &catalog);
    let report = smoke_run(Workload::CampaignOpenloopLossy, true);
    let path = report.reps[0].span_file.clone().expect("span file written");
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("chrome trace JSON");
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| str_of(e, "name"))
        .collect();
    for expected in [
        "spec.parse",
        "scenario.build",
        "leg.zero_run campaign",
        "leg.run campaign",
        "snapshot.reduce",
        "check",
    ] {
        assert!(names.contains(&expected), "no span named {expected}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

// ---- compare -----------------------------------------------------------

fn synthetic(host_ns: (f64, f64, f64), failed_share: f64, smoke: bool) -> String {
    synthetic_at(host_ns, failed_share, smoke, 15.0)
}

fn synthetic_at(host_ns: (f64, f64, f64), failed_share: f64, smoke: bool, seconds: f64) -> String {
    let catalog = Catalog::load().unwrap();
    let rows: Vec<WorkloadRow> = Workload::ALL
        .iter()
        .map(|w| WorkloadRow {
            name: w.name().to_string(),
            correct: true,
            sim_digest: "00000000deadbeef".into(),
            events_per_io: 8.0,
            failed_share,
            ls_samples: 5000,
            failed_checks: Vec::new(),
            metrics: catalog
                .end_to_end
                .iter()
                .map(|d| {
                    let (q1, median, q3) = match d.name.as_str() {
                        "host_ns_per_io" => host_ns,
                        _ => (100.0, 100.0, 100.0),
                    };
                    MetricRow {
                        name: d.name.clone(),
                        unit: d.unit.clone(),
                        summary: Summary {
                            median,
                            q1,
                            q3,
                            n: 25,
                        },
                    }
                })
                .collect(),
        })
        .collect();
    let opts = RunOpts {
        seed: 42,
        seconds,
        smoke,
    };
    latest_json(&opts, &rows)
}

fn host_verdicts(a: &str, b: &str) -> Vec<Verdict> {
    let catalog = Catalog::load().unwrap();
    compare(a, b, &catalog)
        .expect("comparable")
        .rows
        .into_iter()
        .filter(|r| r.metric == "host_ns_per_io")
        .map(|r| r.verdict)
        .collect()
}

#[test]
fn compare_passes_regresses_and_declines_to_resolve() {
    let base = synthetic((990.0, 1000.0, 1010.0), 0.0, false);
    // Same numbers, and a 5 % slowdown inside the bound: ok.
    assert!(host_verdicts(&base, &base)
        .iter()
        .all(|v| *v == Verdict::Ok));
    let slower = synthetic((1040.0, 1050.0, 1060.0), 0.0, false);
    assert!(host_verdicts(&base, &slower)
        .iter()
        .all(|v| *v == Verdict::Ok));
    // 30 % slower with tight, disjoint quartiles: a regression.
    let regressed = synthetic((1290.0, 1300.0, 1310.0), 0.0, false);
    assert!(host_verdicts(&base, &regressed)
        .iter()
        .all(|v| *v == Verdict::Regression));
    // The same 30 % but the quartile ranges overlap: cannot tell.
    let noisy = synthetic((900.0, 1300.0, 1700.0), 0.0, false);
    assert!(host_verdicts(&base, &noisy)
        .iter()
        .all(|v| *v == Verdict::Unresolved));
    // Medians agree but one side's own spread exceeds the bound: the
    // data cannot claim "unchanged" either.
    let wide = synthetic((850.0, 1000.0, 1150.0), 0.0, false);
    assert!(host_verdicts(&base, &wide)
        .iter()
        .all(|v| *v == Verdict::Unresolved));
    // An improvement is never a regression.
    assert!(host_verdicts(&regressed, &base)
        .iter()
        .all(|v| *v == Verdict::Ok));
}

#[test]
fn compare_flags_any_failed_share_increase_and_refuses_smoke() {
    let catalog = Catalog::load().unwrap();
    let clean = synthetic((990.0, 1000.0, 1010.0), 0.0, false);
    let lossy = synthetic((990.0, 1000.0, 1010.0), 1e-6, false);
    let c = compare(&clean, &lossy, &catalog).unwrap();
    assert_eq!(c.count(Verdict::Regression), Workload::ALL.len());
    assert!(c
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .all(|r| r.metric == "failed_share"));
    assert_eq!(
        compare(&lossy, &clean, &catalog)
            .unwrap()
            .count(Verdict::Regression),
        0
    );

    let smoke = synthetic((990.0, 1000.0, 1010.0), 0.0, true);
    let err = compare(&clean, &smoke, &catalog).unwrap_err();
    assert!(err.contains("smoke"), "{err}");
    assert!(compare("{}", &clean, &catalog).is_err());

    // A different run length averages different derived seeds.
    let longer = synthetic_at((990.0, 1000.0, 1010.0), 0.0, false, 30.0);
    let err = compare(&clean, &longer, &catalog).unwrap_err();
    assert!(err.contains("seconds"), "{err}");
}

// ---- doctored snapshots ------------------------------------------------

/// Run a workload's legs at smoke length and snapshot them.
fn smoke_legs(w: Workload) -> (Vec<Leg>, Vec<LegOut>, Vec<LegSnapshot>) {
    let legs = workloads::plan(w, 42, Scale::Smoke).unwrap();
    let outs: Vec<LegOut> = legs.iter().map(workloads::run_leg).collect();
    let snaps = workloads::snapshots(&legs, &outs);
    (legs, outs, snaps)
}

fn verdicts(w: Workload, scale: Scale, legs: &[LegSnapshot]) -> Vec<String> {
    let facts = SimFacts::of(legs);
    failed(&checks::all(w, scale, legs, &facts, None))
}

fn doctored(
    legs: &[LegSnapshot],
    leg: &str,
    key: &str,
    f: impl Fn(f64) -> f64,
) -> Vec<LegSnapshot> {
    let mut out = legs.to_vec();
    let l = out.iter_mut().find(|l| l.name == leg).expect("leg exists");
    let v = l.metrics.get(key).unwrap_or(0.0);
    l.metrics.set(key, f(v));
    out
}

#[test]
fn each_check_trips_on_a_doctored_snapshot() {
    let w = Workload::Read4k100g;
    let (_, _, legs) = smoke_legs(w);
    assert_eq!(verdicts(w, Scale::Smoke, &legs), Vec::<String>::new());

    // A completion that never happened: conservation.
    let lost = doctored(&legs, "opf", "ini1.completed", |v| v - 1.0);
    assert_eq!(verdicts(w, Scale::Smoke, &lost), ["conservation"]);
    for key in [
        "ini0.protocol_errors",
        "ini2.retry_exhausted",
        "ini3.errors",
    ] {
        let bad = doctored(&legs, "spdk", key, |_| 1.0);
        assert_eq!(verdicts(w, Scale::Smoke, &bad), ["conservation"], "{key}");
    }
    // A target dropping PDUs with no migration to explain it.
    let bad = doctored(&legs, "opf", "pair0.tgt.protocol_errors", |_| 3.0);
    assert_eq!(verdicts(w, Scale::Smoke, &bad), ["conservation"]);

    // Paper shape: oPF no longer ahead of SPDK.
    let slow = doctored(&legs, "opf", "tc.iops", |v| v * 0.5);
    assert_eq!(verdicts(w, Scale::Smoke, &slow), ["shape.tc_kiops"]);
    let tail = doctored(&legs, "opf", "ls.p99_us", |v| v * 100.0);
    assert_eq!(verdicts(w, Scale::Smoke, &tail), ["shape.ls_tail"]);
    let chatty = doctored(&legs, "opf", "notifications", |v| v * 10.0);
    assert_eq!(verdicts(w, Scale::Smoke, &chatty), ["shape.notifications"]);

    // Too few LS samples for the fixed quantile (full length only).
    assert_eq!(verdicts(w, Scale::Full, &legs), ["ls_samples"]);

    // The digest sees every simulated figure, and only those.
    let digest = checks::sim_digest(&legs);
    assert_ne!(digest, checks::sim_digest(&slow));
    let bookkeeping = doctored(&legs, "opf", "events", |v| v + 1.0);
    assert_eq!(digest, checks::sim_digest(&bookkeeping));
    let bookkeeping = doctored(&legs, "opf", "kernel.horizon_dropped", |_| 7.0);
    assert_eq!(digest, checks::sim_digest(&bookkeeping));
}

#[test]
fn migration_drops_are_bounded_and_fairness_is_gated() {
    // cluster2_migrate: the targets' dropped PDUs are explained by the
    // two migrations; one more than that is not.
    let w = Workload::Cluster2Migrate;
    let (_, _, legs) = smoke_legs(w);
    assert_eq!(verdicts(w, Scale::Smoke, &legs), Vec::<String>::new());
    let facts = SimFacts::of(&legs);
    assert_eq!(facts.migrations, 2);
    assert!(facts.tgt_protocol_errors > 0);
    let extra = (facts.redriven + facts.migrations + 1) as f64;
    let bad = doctored(&legs, "opf", "tgt0.protocol_errors", |_| extra);
    assert_eq!(verdicts(w, Scale::Smoke, &bad), ["conservation"]);

    // scale256_sh8: a starved tenant fails the 5 % fairness gate.
    let w = Workload::Scale256Sh8;
    let (_, _, legs) = smoke_legs(w);
    let even = {
        let mut l = legs.clone();
        let keys: Vec<String> = l[0]
            .metrics
            .iter()
            .filter(|(k, v)| k.ends_with(".tc_submitted") && *v > 0.0)
            .map(|(k, _)| k.replace(".tc_submitted", ".completed"))
            .collect();
        assert_eq!(keys.len(), 256);
        for k in keys {
            l[0].metrics.set(k, 1000.0);
        }
        l
    };
    let shape = |legs: &[LegSnapshot]| failed(&checks::paper_shape(w, Scale::Full, legs));
    assert_eq!(shape(&even), Vec::<String>::new());
    let starved = doctored(&even, "opf", "ini5.completed", |_| 900.0);
    assert_eq!(shape(&starved), ["shape.fairness"]);
}

#[test]
fn campaign_gates_and_twin_trip_when_doctored() {
    let w = Workload::CampaignOpenloopLossy;
    let (legs, outs, _) = smoke_legs(w);
    let (Leg::Campaign(spec), LegOut::Campaign(summary)) = (&legs[0], &outs[0]) else {
        panic!("the campaign workload is one campaign leg");
    };
    let audit = workloads::campaign_audit(spec);
    let facts = SimFacts::of(&audit);
    let run = |summary, audit: &[LegSnapshot]| {
        failed(&checks::all(w, Scale::Smoke, audit, &facts, Some(summary)))
    };
    assert_eq!(run(summary, &audit), Vec::<String>::new());

    let mut gated = (**summary).clone();
    gated.outcomes[0].pass = false;
    gated.pass = false;
    assert_eq!(run(&gated, &audit), ["campaign.gates"]);

    let name = audit[0].name.clone();
    let drifted = doctored(&audit, &name, "completed", |v| v + 1.0);
    assert_eq!(run(summary, &drifted), ["campaign.twin"]);

    // A response replayed for a retransmitted command is counted by the
    // initiator and explained by the retransmission; one more is not.
    let lossy = audit
        .iter()
        .find(|l| l.metrics.get("faults.retries").unwrap_or(0.0) > 0.0)
        .expect("the lossy grid point retransmits");
    let retries = lossy.metrics.get("faults.retries").unwrap();
    let conserved = |n: f64| {
        let legs = doctored(&audit, &lossy.name, "ini1.protocol_errors", |_| n);
        checks::conservation(&SimFacts::of(&legs)).pass
    };
    assert!(conserved(retries));
    assert!(!conserved(retries + 1.0));
}
