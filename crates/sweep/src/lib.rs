//! # sweep — automated scenario sweeps with unified metrics output
//!
//! Takes a scenario description (JSON: runtime × speed × mix × LS:TC
//! ratio × seeds), expands the cross product in a fixed order, fans the
//! runs out across OS threads (each simulation is single-threaded and
//! deterministic), and emits a machine-readable `BENCH_<name>.json`
//! report — every point carrying the whole-cluster [`simkit::Metrics`]
//! snapshot — plus a flat CSV for spreadsheets.
//!
//! Output is bit-identical across runs of the same spec: points are
//! ordered by expansion index (never by completion), floats use Rust's
//! shortest round-trip formatting, and no wall-clock time is recorded.
//!
//! ## Spec schema
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "runtimes": ["spdk", "opf"],
//!   "speeds": [10, 25, 100],
//!   "mixes": ["read", "write", "mixed"],
//!   "ratios": [[1, 1], [1, 4]],
//!   "seeds": [42, 43],
//!   "warmup_s": 0.05,
//!   "measure_s": 0.15,
//!   "threads": 4
//! }
//! ```
//!
//! Only `name` is required. `mixes` entries may also be numbers (the
//! read fraction, e.g. `0.7`). `threads` defaults to the machine's
//! available parallelism; everything else defaults to a small smoke
//! sweep (see [`SweepSpec::from_json`]).
//!
//! An optional `"faults"` block installs a [`faults::FaultProfile`] on
//! every expanded scenario (probabilities per PDU; durations in µs;
//! scheduled windows in seconds):
//!
//! ```json
//! {
//!   "faults": {
//!     "drop_p": 0.01, "dup_p": 0.001, "delay_p": 0.01, "delay_max_us": 20,
//!     "corrupt_p": 0.0, "reorder_p": 0.0, "reorder_hold_us": 5,
//!     "retry_timeout_us": 300, "retry_max": 6, "redrain_timeout_us": 500,
//!     "keepalive_us": 4000, "kato_us": 10000, "settle_s": 0.05,
//!     "flaps": [{"link": 0, "at_s": 0.08, "for_s": 0.015}],
//!     "degrade": [{"at_s": 0.1, "for_s": 0.02, "factor": 4.0}],
//!     "stalls": [{"at_s": 0.12, "for_s": 0.002}],
//!     "crashes": [{"tenant": 1, "at_s": 0.1, "for_s": 0.03}],
//!     "adversary": {
//!       "link": 4, "forge_ls_p": 0.5, "invalid_flags_p": 0.0,
//!       "drain_flood_p": 0.0, "replay_p": 0.0,
//!       "spoof_p": 0.0, "spoof_victim": 2, "harden": true
//!     }
//!   }
//! }
//! ```
//!
//! Recovery knobs default on (see `FaultProfile::default`); a zero
//! `retry_timeout_us` / `redrain_timeout_us` disables that mechanism.
//! The optional `"adversary"` sub-block rides one tenant's link with
//! protocol-level attacks (see [`faults::Adversary`]); `harden` selects
//! whether the targets keep their DESIGN.md §14 defenses on.
//!
//! Cluster scenarios (DESIGN.md §16) add two more knobs — `"targets"`
//! (the cluster size) and a `"migration"` block. Tenant slot *i* runs on
//! target *i* mod `targets`; a `"placement"` block is accepted only as
//! `{"policy": "round_robin"}`, which says just that.
//!
//! ```json
//! {
//!   "targets": 2,
//!   "migration": {"moves": [{"tenant": 1, "at_s": 0.05, "to_target": 0}]}
//! }
//! ```
//!
//! Every object of the spec — the root, each block and each list entry —
//! is read through the one key-checked reader in [`json`]: an unknown key
//! anywhere is a hard parse error naming the block and the key
//! (`faults.flaps[1]: unknown key "lnk"`), never a silent no-op, and a
//! present value of the wrong type or out of range never reads as the
//! default.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub use experiments::spec::Point;
pub use simkit::json;

use experiments::spec::ExperimentSpec;
use simkit::metrics::format_f64;
use workload::{RunResult, RuntimeKind};

/// A sweep spec: the sweep front door ([`ExperimentSpec::from_json`]) of
/// the one grid type.
pub type SweepSpec = ExperimentSpec;

/// Run every point of the spec (parallel fan-out, deterministic order).
pub fn run_spec(spec: &SweepSpec) -> Vec<(Point, RunResult)> {
    spec.run(spec.threads)
}

/// The report's columns: a point's coordinates, then its scalar results.
const COLUMNS: &str = "runtime,speed_gbps,mix,read_fraction,ls,tc,seed,\
    tc_iops,tc_mb_s,tc_avg_us,tc_p9999_us,ls_iops,ls_avg_us,ls_p9999_us,\
    notifications,completed,reactor_util,events";

/// How many of [`COLUMNS`] are coordinates.
const COORDS: usize = 7;

/// One point's values, in [`COLUMNS`] order.
fn values(p: &Point, r: &RunResult) -> Vec<String> {
    let runtime = match p.runtime {
        RuntimeKind::Spdk => "spdk",
        RuntimeKind::Opf => "opf",
    };
    let mix = match p.read_fraction {
        f if f >= 1.0 => "read".to_string(),
        f if f <= 0.0 => "write".to_string(),
        f => format!("mixed-{}", format_f64(f)),
    };
    let f = format_f64;
    vec![
        runtime.to_string(),
        p.speed_gbps.to_string(),
        mix,
        f(p.read_fraction),
        p.ls.to_string(),
        p.tc.to_string(),
        p.seed.to_string(),
        f(r.tc_iops),
        f(r.tc_mb_s),
        f(r.tc_avg_us),
        f(r.tc_p9999_us),
        f(r.ls_iops),
        f(r.ls_avg_us),
        f(r.ls_p9999_us),
        r.notifications.to_string(),
        r.completed.to_string(),
        f(r.reactor_util),
        r.events.to_string(),
    ]
}

/// `"column":value` pairs, the two string-valued columns quoted.
fn json_fields<'a>(cols: impl Iterator<Item = (&'a str, &'a String)>) -> String {
    let field = |(k, v)| match k {
        "runtime" | "mix" => format!("\"{k}\":\"{v}\""),
        _ => format!("\"{k}\":{v}"),
    };
    cols.map(field).collect::<Vec<_>>().join(",")
}

/// Render the `BENCH_<name>.json` document.
pub fn report_json(spec: &SweepSpec, points: &[(Point, RunResult)]) -> String {
    let mut out = format!(
        concat!(
            "{{\n  \"name\": \"{}\",\n  \"schema\": \"nvme-opf.sweep.v1\",\n",
            "  \"warmup_s\": {},\n  \"measure_s\": {},\n  \"points\": [\n"
        ),
        json::escape(&spec.name),
        format_f64(spec.warmup_s),
        format_f64(spec.measure_s)
    );
    for (i, (p, r)) in points.iter().enumerate() {
        let values = values(p, r);
        let cols = || COLUMNS.split(',').zip(&values);
        out.push_str(&format!(
            "    {{{},\n     \"result\":{{{}}},\n     \"snapshot\":{}}}{}\n",
            json_fields(cols().take(COORDS)),
            json_fields(cols().skip(COORDS)),
            r.metrics.to_json(),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the flat CSV companion (scalar columns only; the full metric
/// snapshots live in the JSON report).
pub fn report_csv(points: &[(Point, RunResult)]) -> String {
    let mut out = format!("{COLUMNS}\n");
    for (p, r) in points {
        out.push_str(&values(p, r).join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Gbps;
    use simkit::SimDuration;
    use workload::MigrationSpec;

    const TINY: &str = r#"{
        "name": "tiny",
        "runtimes": ["opf"],
        "speeds": [100],
        "mixes": ["read"],
        "ratios": [[0, 1]],
        "seeds": [7],
        "warmup_s": 0.01,
        "measure_s": 0.03,
        "threads": 1
    }"#;

    #[test]
    fn spec_parses_with_defaults() {
        let spec = SweepSpec::from_json(r#"{"name": "d"}"#).unwrap();
        assert_eq!(spec.runtimes.len(), 2);
        assert_eq!(spec.speeds, vec![Gbps::G100]);
        assert_eq!(spec.ratios, vec![(1, 1)]);
        assert_eq!(spec.seeds, vec![42]);
        assert!(spec.threads.is_none());
        // 2 runtimes × 1 speed × 1 mix × 1 ratio × 1 seed.
        assert_eq!(spec.expand().len(), 2);
    }

    #[test]
    fn duplicate_seeds_are_a_hard_error() {
        let err = SweepSpec::from_json(r#"{"name": "d", "seeds": [7, 8, 7]}"#).unwrap_err();
        assert!(err.contains("duplicate seed 7"), "{err}");
        // Distinct seeds still parse.
        assert!(SweepSpec::from_json(r#"{"name": "d", "seeds": [7, 8]}"#).is_ok());
    }

    #[test]
    fn spec_rejects_bad_input() {
        assert!(SweepSpec::from_json("{}").is_err(), "name required");
        assert!(SweepSpec::from_json(r#"{"name": "a/b"}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","speeds":[40]}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","runtimes":[]}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","ratios":[[0,0]]}"#).is_err());
        // Found by the reader fuzz: the pair's sum overflowed `usize`.
        let huge = r#"{"name":"x","ratios":[[18446744073709551615,2]]}"#;
        let err = SweepSpec::from_json(huge).unwrap_err();
        assert!(err.contains("tenant-id space"), "{err}");
        assert!(SweepSpec::from_json(r#"{"name":"x","measure_s":0}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","threads":0}"#).is_err());
        // A present key of the wrong type is an error naming it, never
        // the default.
        for (doc, want) in [
            (
                r#"{"name":"x","warmup_s":"0.001"}"#,
                r#""warmup_s" must be a number"#,
            ),
            (
                r#"{"name":"x","measure_s":true}"#,
                r#""measure_s" must be a number"#,
            ),
        ] {
            let err = SweepSpec::from_json(doc).unwrap_err();
            assert!(err.contains(want), "{doc}: {err}");
        }
    }

    #[test]
    fn faults_block_parses_and_propagates() {
        let spec = SweepSpec::from_json(
            r#"{"name":"chaos","runtimes":["opf"],
                "faults":{"drop_p":0.01,"dup_p":0.002,
                          "retry_timeout_us":250,"retry_max":8,
                          "redrain_timeout_us":400,
                          "keepalive_us":4000,"kato_us":10000,
                          "settle_s":0.03,
                          "flaps":[{"link":0,"at_s":0.08,"for_s":0.015}],
                          "degrade":[{"at_s":0.1,"for_s":0.02,"factor":4.0}],
                          "crashes":[{"tenant":1,"at_s":0.1,"for_s":0.03}]}}"#,
        )
        .unwrap();
        let p = spec.faults.as_ref().unwrap();
        assert_eq!(p.drop_p, 0.01);
        assert_eq!(p.dup_p, 0.002);
        let r = p.retry.unwrap();
        assert_eq!(r.max_retries, 8);
        assert_eq!(r.timeout, SimDuration::from_micros(250));
        assert_eq!(p.redrain_timeout, Some(SimDuration::from_micros(400)));
        let ka = p.keepalive.unwrap();
        assert_eq!(ka.every, SimDuration::from_millis(4));
        assert_eq!(ka.kato, SimDuration::from_millis(10));
        assert_eq!(p.settle_s, 0.03);
        assert_eq!(p.flaps.len(), 1);
        assert_eq!(p.flaps[0].link, 0);
        assert_eq!(p.degrades[0].factor, 4.0);
        assert_eq!(p.crashes[0].tenant, 1);
        // The profile rides on every expanded scenario.
        let (_, sc) = &spec.expand()[0];
        assert_eq!(sc.faults.as_ref().unwrap().drop_p, 0.01);
    }

    #[test]
    fn adversary_block_parses_and_propagates() {
        let spec = SweepSpec::from_json(
            r#"{"name":"adv","runtimes":["opf"],"ratios":[[1,4]],
                "faults":{"drop_p":0.0,
                          "adversary":{"link":4,"forge_ls_p":0.5,
                                       "invalid_flags_p":0.1,"drain_flood_p":0.2,
                                       "replay_p":0.05,"spoof_p":0.3,
                                       "spoof_victim":2,"harden":false}}}"#,
        )
        .unwrap();
        let adv = spec.faults.as_ref().unwrap().adversary.unwrap();
        assert_eq!(adv.link, 4);
        assert_eq!(adv.forge_ls_p, 0.5);
        assert_eq!(adv.invalid_flags_p, 0.1);
        assert_eq!(adv.drain_flood_p, 0.2);
        assert_eq!(adv.replay_p, 0.05);
        assert_eq!(adv.spoof_p, 0.3);
        assert_eq!(adv.spoof_victim, 2);
        assert!(!adv.harden);
        // The adversary rides on every expanded scenario.
        let (_, sc) = &spec.expand()[0];
        assert_eq!(sc.faults.as_ref().unwrap().adversary, Some(adv));
        // Absent block leaves the plane honest; harden defaults to true.
        let plain = SweepSpec::from_json(r#"{"name":"x","faults":{"drop_p":0.01}}"#).unwrap();
        assert!(plain.faults.as_ref().unwrap().adversary.is_none());
        let min =
            SweepSpec::from_json(r#"{"name":"x","faults":{"adversary":{"link":1}}}"#).unwrap();
        assert!(min.faults.as_ref().unwrap().adversary.unwrap().harden);
    }

    #[test]
    fn adversary_block_rejects_bad_input() {
        for doc in [
            r#"{"name":"x","faults":{"adversary":{}}}"#,
            r#"{"name":"x","faults":{"adversary":{"link":0,"spoof_p":1.5}}}"#,
            r#"{"name":"x","faults":{"adversary":{"link":0,"spoof_victim":300}}}"#,
        ] {
            assert!(SweepSpec::from_json(doc).is_err(), "should reject: {doc}");
        }
        for (doc, want) in [
            (
                r#"{"name":"x","faults":{"adversary":{"link":0,"harden":"no"}}}"#,
                r#"faults.adversary: "harden" must be a boolean"#,
            ),
            (
                r#"{"name":"x","faults":{"adversary":{"link":0,"spoof_victim":"2"}}}"#,
                r#"faults.adversary: "spoof_victim" must be an integer"#,
            ),
        ] {
            let err = SweepSpec::from_json(doc).unwrap_err();
            assert!(err.contains(want), "{doc}: {err}");
        }
    }

    #[test]
    fn faults_block_zero_timeouts_disable_recovery() {
        let spec = SweepSpec::from_json(
            r#"{"name":"x","faults":{"retry_timeout_us":0,"redrain_timeout_us":0}}"#,
        )
        .unwrap();
        let p = spec.faults.as_ref().unwrap();
        assert!(p.retry.is_none());
        assert!(p.redrain_timeout.is_none());
    }

    #[test]
    fn faults_block_rejects_bad_input() {
        assert!(SweepSpec::from_json(r#"{"name":"x","faults":{"drop_p":1.5}}"#).is_err());
        assert!(SweepSpec::from_json(r#"{"name":"x","faults":{"drop_p":"lots"}}"#).is_err());
        assert!(
            SweepSpec::from_json(r#"{"name":"x","faults":{"flaps":[{"at_s":0.1}]}}"#).is_err(),
            "flap without for_s"
        );
        assert!(
            SweepSpec::from_json(
                r#"{"name":"x","faults":{"degrade":[{"at_s":0,"for_s":1,"factor":0.5}]}}"#
            )
            .is_err(),
            "degrade factor below 1 would speed the link up"
        );
        // A retry budget is a count: it used to be read as a number and
        // truncated, so -1 meant 0 retries and 2.5 meant 2.
        for n in ["-1", "2.5", "4294967296"] {
            let doc = format!(r#"{{"name":"x","faults":{{"retry_max":{n}}}}}"#);
            let err = SweepSpec::from_json(&doc).unwrap_err();
            assert!(
                err.contains(r#"faults: "retry_max" must be an integer"#),
                "{doc}: {err}"
            );
        }
        for key in ["flaps", "degrade", "stalls", "crashes"] {
            let doc = format!(r#"{{"name":"x","faults":{{"{key}":{{"at_s":0.1,"for_s":0.1}}}}}}"#);
            let err = SweepSpec::from_json(&doc).unwrap_err();
            assert!(
                err.contains(&format!(r#"faults: "{key}" must be an array"#)),
                "{doc}: {err}"
            );
        }
    }

    #[test]
    fn cluster_blocks_parse_and_propagate() {
        let spec = SweepSpec::from_json(
            r#"{"name":"cl","runtimes":["opf"],"targets":2,
                "placement":{"policy":"round_robin"},
                "migration":{"moves":[{"tenant":1,"at_s":0.05,"to_target":0}]}}"#,
        )
        .unwrap();
        assert_eq!(spec.targets, 2);
        assert_eq!(
            spec.migrations,
            vec![MigrationSpec {
                tenant: 1,
                at_s: 0.05,
                to_target: 0
            }]
        );
        let (_, sc) = &spec.expand()[0];
        assert_eq!(sc.targets, 2);
        assert!(sc.is_cluster());
        // Defaults when absent: single target, no moves.
        let plain = SweepSpec::from_json(r#"{"name":"x"}"#).unwrap();
        assert_eq!(plain.targets, 1);
        assert!(plain.migrations.is_empty());
        assert!(!plain.expand()[0].1.is_cluster());
    }

    #[test]
    fn parallel_knob_parses_and_propagates() {
        let spec = SweepSpec::from_json(r#"{"name":"p","parallel":true}"#).unwrap();
        assert!(spec.parallel);
        assert!(spec.expand().iter().all(|(_, sc)| sc.parallel));
        // Defaults off, so existing specs replay the direct path.
        let plain = SweepSpec::from_json(r#"{"name":"x"}"#).unwrap();
        assert!(!plain.parallel);
        assert!(!plain.expand()[0].1.parallel);
        assert!(
            SweepSpec::from_json(r#"{"name":"x","parallel":1}"#).is_err(),
            "parallel must be a boolean"
        );
    }

    #[test]
    fn cluster_blocks_reject_bad_input() {
        for (doc, why) in [
            (r#"{"name":"x","targets":0}"#, "zero targets"),
            (
                r#"{"name":"x","targets":2}"#,
                "cluster sweep defaults include the spdk runtime",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"round_robin","pins":[0]}}"#,
                "pins",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"pinned","pins":[0,1,0]}}"#,
                "pinned policy",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"wat"}}"#,
                "unknown policy",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "placement":{"policy":"round_robin","typo":1}}"#,
                "unknown placement key",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[],"typo":1}}"#,
                "unknown migration key",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":1,"at_s":0.05,"to_target":0,"typo":1}]}}"#,
                "unknown move key",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":1,"at_s":0.05,"to_target":5}]}}"#,
                "to_target out of range",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":1,"at_s":-0.1,"to_target":0}]}}"#,
                "negative at_s",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"targets":2,
                    "migration":{"moves":[{"tenant":2,"at_s":0.05,"to_target":0}]}}"#,
                "migration tenant out of range (default ratio is 1:1)",
            ),
            // The three specs that used to abort or silently corrupt:
            // id 255 is reserved, cluster ids stop at 62, ids wrap past u8.
            (
                r#"{"name":"x","runtimes":["opf"],"ratios":[[0,256]]}"#,
                "oPF tenant ids past the CID-queue owner field",
            ),
            (
                r#"{"name":"x","runtimes":["opf"],"ratios":[[0,64]],"targets":2}"#,
                "64 tenants per node in a cluster",
            ),
            (
                r#"{"name":"x","runtimes":["spdk"],"ratios":[[0,300]]}"#,
                "tenant ids wrapping u8",
            ),
            // Typo'd knobs and fault indices naming no initiator used to
            // run a healthy fabric and report zero faults.
            (r#"{"name":"x","mesure_s":0.01}"#, "unknown spec key"),
            (
                r#"{"name":"x","faults":{"drop_pp":0.05}}"#,
                "unknown faults key",
            ),
            (
                r#"{"name":"x","faults":{"adversary":{"link":0,"forge_ls":0.5}}}"#,
                "unknown adversary key",
            ),
            (
                r#"{"name":"x","faults":{"stalls":[{"at_s":0.1,"for_s":0.1,"link":0}]}}"#,
                "unknown stall entry key",
            ),
            (
                r#"{"name":"x","ratios":[[1,2]],
                    "faults":{"flaps":[{"link":99,"at_s":0.1,"for_s":0.1}]}}"#,
                "flap link out of range",
            ),
            (
                r#"{"name":"x","ratios":[[1,2]],
                    "faults":{"crashes":[{"tenant":99,"at_s":0.1,"for_s":0.1}]}}"#,
                "crash tenant out of range",
            ),
            (
                r#"{"name":"x","ratios":[[1,2]],
                    "faults":{"adversary":{"link":99,"forge_ls_p":0.5}}}"#,
                "adversary link out of range",
            ),
            // Both simulated without end at 42de97b.
            (
                r#"{"name":"x","runtimes":["opf"],"seeds":[1],"measure_s":0.02,
                    "faults":{"keepalive_us":0}}"#,
                "zero keep-alive period",
            ),
            (
                r#"{"name":"x","faults":{"keepalive_us":-5}}"#,
                "negative keep-alive period",
            ),
            (
                r#"{"name":"x","measure_s":1e9}"#,
                "a billion simulated seconds",
            ),
        ] {
            assert!(
                SweepSpec::from_json(doc).is_err(),
                "should reject {why}: {doc}"
            );
        }
    }

    #[test]
    fn expansion_order_is_canonical() {
        let spec = SweepSpec::from_json(
            r#"{"name":"x","runtimes":["spdk","opf"],"speeds":[10,100],"seeds":[1,2]}"#,
        )
        .unwrap();
        let points: Vec<Point> = spec.expand().into_iter().map(|(p, _)| p).collect();
        assert_eq!(points.len(), 8);
        // runtime is the outermost axis, seed the innermost.
        assert_eq!(points[0].runtime, RuntimeKind::Spdk);
        assert_eq!((points[0].speed_gbps, points[0].seed), (10, 1));
        assert_eq!((points[1].speed_gbps, points[1].seed), (10, 2));
        assert_eq!((points[2].speed_gbps, points[2].seed), (100, 1));
        assert_eq!(points[4].runtime, RuntimeKind::Opf);
    }

    #[test]
    fn report_is_bit_identical_across_runs() {
        let spec = SweepSpec::from_json(TINY).unwrap();
        let a = run_spec(&spec);
        let b = run_spec(&spec);
        let ja = report_json(&spec, &a);
        let jb = report_json(&spec, &b);
        assert_eq!(ja, jb, "same spec + seeds must serialize identically");
        assert_eq!(report_csv(&a), report_csv(&b));
        // And the report parses back as valid JSON.
        let doc = json::parse(&ja).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("tiny"));
        let pts = doc.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 1);
        let snap = pts[0].get("snapshot").unwrap();
        assert!(snap.get("metrics").unwrap().get("tc.iops").is_some());
        assert!(
            pts[0]
                .get("result")
                .unwrap()
                .get("tc_iops")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let mut spec = SweepSpec::from_json(
            r#"{"name":"par","runtimes":["opf"],"ratios":[[0,1]],
                "seeds":[1,2,3,4],"warmup_s":0.01,"measure_s":0.02}"#,
        )
        .unwrap();
        spec.threads = Some(1);
        let serial = run_spec(&spec);
        spec.threads = Some(4);
        let parallel = run_spec(&spec);
        assert_eq!(report_json(&spec, &serial), report_json(&spec, &parallel));
    }
}
