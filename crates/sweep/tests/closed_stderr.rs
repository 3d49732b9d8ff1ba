//! `sweep` reports by its files and its exit code even when nobody is
//! left to read what it prints. With stderr closed (`sweep campaign
//! bad.json 2>&1 | true`) a bad invocation still exits 1, not 101; with
//! stdout closed (`sweep spec.json | head -0`) the reports are written
//! and the exit code is the run's own.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};

#[test]
fn a_closed_stderr_keeps_exit_code_one() {
    for args in [
        &["campaign", "no/such/spec.json"][..],
        &["no/such/spec.json"],
        &["--threads", "0"],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(1), "sweep {args:?}");
    }
}

/// Run `sweep` with `args` and a stdout whose reader is gone.
fn with_closed_stdout(args: &[&str]) -> ExitStatus {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .unwrap()
}

const TINY_SWEEP: &str = r#"{"name": "tiny", "runtimes": ["opf"], "speeds": [100],
    "mixes": ["read"], "ratios": [[1, 1]], "seeds": [1],
    "warmup_s": 0.001, "measure_s": 0.002}"#;

/// A one-point campaign; `@gate` takes an extra expectation.
const TINY_CAMPAIGN: &str = r#"{"name": "tiny", "seeds": [1],
    "warmup_s": 0.001, "measure_s": 0.004,
    "scenarios": [{"name": "p", "traffic": {"model": "poisson", "rate_kiops": 20}}],
    "expectations": [{"scenario": "*", "check": "exactly_once"} @gate]}"#;

#[test]
fn a_closed_stdout_keeps_the_reports_and_the_exit_code() {
    let dir = std::env::temp_dir().join(format!("sweep-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, src: &str| {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        path.to_str().unwrap().to_string()
    };
    let out = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let spec = write("sweep.json", TINY_SWEEP);
    let status = with_closed_stdout(&[&spec, "--out", &out("sweep")]);
    assert_eq!(status.code(), Some(0), "sweep");
    for report in ["BENCH_tiny.json", "BENCH_tiny.csv"] {
        assert!(dir.join("sweep").join(report).is_file(), "{report}");
    }

    let unmet = r#", {"scenario": "p", "metric": "tc.iops", "stat": "mean", "min": 1e12}"#;
    for (gate, code) in [("", 0), (unmet, 1)] {
        let spec = write("campaign.json", &TINY_CAMPAIGN.replace("@gate", gate));
        let root = out(&format!("campaign{code}"));
        let status = with_closed_stdout(&["campaign", &spec, "--out", &root]);
        assert_eq!(status.code(), Some(code), "campaign gate {gate:?}");
        for summary in ["summary.json", "summary.csv"] {
            let path = Path::new(&root).join("campaign_tiny").join(summary);
            assert!(path.is_file(), "{}", path.display());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
