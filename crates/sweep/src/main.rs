//! `sweep` — run a scenario sweep or campaign from a JSON spec.
//!
//! ```text
//! sweep <spec.json> [--out DIR] [--threads N]
//! sweep campaign <spec.json> [--out DIR] [--threads N]
//! ```
//!
//! The sweep form writes `BENCH_<name>.json` (full report with per-point
//! metric snapshots) and `BENCH_<name>.csv` (scalar columns) under
//! `--out`, defaulting to the workspace `results/` directory. The
//! campaign form expands a seeds × traffic-scenario grid, evaluates the
//! spec's expectation gates, writes `campaign_<name>/summary.{json,csv}`
//! under `--out`, and exits non-zero if any gate fails. Output is
//! bit-identical across runs of the same spec.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::campaign::{render_outcomes, run_campaign, write_outputs, CampaignSpec};
use experiments::{put, say};
use sweep::{report_csv, report_json, run_spec, SweepSpec};

const USAGE: &str = "usage: sweep [campaign] <spec.json> [--out DIR] [--threads N]";

fn main() -> ExitCode {
    let mut spec_path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut campaign_mode = false;

    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("campaign") {
        campaign_mode = true;
        args.next();
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return fail("--out needs a directory"),
            },
            "--threads" => match args.next().and_then(|t| t.parse().ok()) {
                Some(0) | None => return fail("--threads needs a positive integer"),
                Some(t) => threads = Some(t),
            },
            "--help" | "-h" => {
                put(USAGE);
                return ExitCode::SUCCESS;
            }
            _ if spec_path.is_none() && !arg.starts_with('-') => {
                spec_path = Some(PathBuf::from(arg));
            }
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }

    let Some(spec_path) = spec_path else {
        return fail("missing spec file");
    };
    let src = match std::fs::read_to_string(&spec_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {}: {e}", spec_path.display())),
    };

    if campaign_mode {
        let spec = match CampaignSpec::from_json_str(&src) {
            Ok(s) => s,
            Err(e) => return fail(&format!("bad spec {}: {e}", spec_path.display())),
        };
        let summary = run_campaign(&spec, threads);
        put(&render_outcomes(&summary));
        let out_dir = out_dir.unwrap_or_else(experiments::results_dir);
        match write_outputs(&summary, &out_dir) {
            Ok(p) => put(&p.display().to_string()),
            Err(e) => return fail(&format!("cannot write summary: {e}")),
        }
        return if summary.pass {
            ExitCode::SUCCESS
        } else {
            say("sweep: campaign expectation gate FAILED");
            ExitCode::FAILURE
        };
    }

    let mut spec = match SweepSpec::from_json(&src) {
        Ok(s) => s,
        Err(e) => return fail(&format!("bad spec {}: {e}", spec_path.display())),
    };
    // Command line overrides the spec. Thread count never changes the
    // report bytes — only the wall-clock time to produce them.
    spec.threads = threads.or(spec.threads);

    let points = spec.expand();
    say(&format!(
        "sweep \"{}\": {} points ({} runtimes x {} speeds x {} mixes x {} ratios x {} seeds)",
        spec.name,
        points.len(),
        spec.runtimes.len(),
        spec.speeds.len(),
        spec.mixes.len(),
        spec.ratios.len(),
        spec.seeds.len(),
    ));

    let results = run_spec(&spec);

    let out_dir = out_dir.unwrap_or_else(experiments::results_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fail(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let json_path = out_dir.join(format!("BENCH_{}.json", spec.name));
    let csv_path = out_dir.join(format!("BENCH_{}.csv", spec.name));
    if let Err(e) = std::fs::write(&json_path, report_json(&spec, &results)) {
        return fail(&format!("cannot write {}: {e}", json_path.display()));
    }
    if let Err(e) = std::fs::write(&csv_path, report_csv(&results)) {
        return fail(&format!("cannot write {}: {e}", csv_path.display()));
    }
    put(&format!("{}\n{}", json_path.display(), csv_path.display()));
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    say(&format!("sweep: {msg}\n{USAGE}"));
    ExitCode::FAILURE
}
