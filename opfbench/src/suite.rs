//! Runs and the suite: every timed repetition is a fresh child process.
//!
//! A *run* of one workload — what the driver starts as
//! `<command> --workload W --seed N --seconds S --trace 0` — is
//! [`workloads::reps_for`]`(S)` children of this binary, one timed
//! repetition each (clean allocator, its own `VmHWM` and set-up), on
//! derived seeds; host metrics are medians over the children, simulated
//! metrics means over their seeds. `opfbench run` makes the same run of
//! every workload for the `run_seconds` `BENCHMARK.json` fixes, with the
//! children interleaved round-robin (rep 1 of all six, then rep 2, …)
//! because this machine's noise is time-correlated: a slow stretch then
//! lands on every workload once instead of on every repetition of one.
//! A traced run is one extra traced child.

use crate::catalog::{Better, Catalog, MetricDef};
use crate::checks::CheckResult;
use crate::child::RepReport;
use crate::ledger::SimFacts;
use crate::stats::{self, summarize, Summary};
use crate::workloads::{self, Workload};
use simkit::json::{self, escape};
use simkit::metrics::format_f64;
use simkit::FxHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Schema tag of `latest.json`.
pub const SCHEMA: &str = "nvme-opf.bench.opfbench.v1";

/// Where reports, the history and span files go, relative to the
/// directory the benchmark is started from (the repository root).
pub const OUT_DIR: &str = "results/bench";

/// glibc malloc settings every child runs under: no heap trimming on
/// `free` and no per-block `mmap`, so freed 128 KiB buffers are recycled
/// from the heap. With glibc's defaults `bulk128k_mixed_100g` — a 128 KiB
/// buffer allocated and freed per read, right at the default mmap / trim
/// thresholds — falls into a `brk` grow-and-shrink cycle or not depending
/// on the heap layout its seed happens to produce: the same code then
/// costs 2.5 s or 5.5 s per repetition, by seed, which no bound the
/// contract allows can hold. README.md has the numbers under both.
pub const CHILD_MALLOC: (&str, &str) = (
    "GLIBC_TUNABLES",
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824",
);

/// Options of a run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed handed to every child.
    pub seed: u64,
    /// Run length; fixes the number of children.
    pub seconds: f64,
    /// 1/100 simulated length, one child; output stamped and refused
    /// by `compare`.
    pub smoke: bool,
}

impl RunOpts {
    /// Children (timed repetitions) per workload.
    pub fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            workloads::reps_for(self.seconds)
        }
    }
}

/// Start one child and read its report. The child's stderr passes
/// through; the parent waits for it to end.
fn spawn_rep(
    exe: &Path,
    w: Workload,
    opts: &RunOpts,
    rep: usize,
    trace: bool,
) -> Result<RepReport, String> {
    let out = Command::new(exe)
        .arg("rep")
        .args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--rep", &rep.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--smoke", if opts.smoke { "1" } else { "0" }])
        .env(CHILD_MALLOC.0, CHILD_MALLOC.1)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "{} repetition {rep}: child failed (exit {:?})",
                w.name(),
                out.status.code()
            )
        })?;
    RepReport::from_json(&json::parse(line)?)
}

/// One run of one workload: its children's reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The workload.
    pub workload: Workload,
    /// The options it ran with.
    pub opts: RunOpts,
    /// Traced run (one traced child) or end-to-end run.
    pub trace: bool,
    /// One report per child, in repetition order.
    pub reps: Vec<RepReport>,
}

impl RunReport {
    /// Simulated facts of the whole run (see [`SimFacts::combine`]).
    pub fn facts(&self) -> SimFacts {
        let each: Vec<SimFacts> = self.reps.iter().filter_map(|r| r.facts).collect();
        SimFacts::combine(&each)
    }

    /// Digest over every child's digest, in order.
    pub fn sim_digest(&self) -> u64 {
        let mut h = FxHasher::default();
        self.reps.iter().for_each(|r| h.write_u64(r.sim_digest));
        h.finish()
    }

    /// One result per check name: it holds when it held in every child
    /// (the detail is the first failure's, else the first child's); plus,
    /// for a workload whose children repeat one seed, that they agree.
    pub fn checks(&self) -> Vec<CheckResult> {
        let mut merged: Vec<CheckResult> = Vec::new();
        for (i, rep) in self.reps.iter().enumerate() {
            for c in &rep.checks {
                match merged.iter_mut().find(|m| m.name == c.name) {
                    None => merged.push(c.clone()),
                    Some(m) if m.pass && !c.pass => {
                        *m = CheckResult {
                            detail: format!("repetition {i}: {}", c.detail),
                            ..c.clone()
                        };
                    }
                    Some(_) => {}
                }
            }
        }
        if self.workload.repeats_one_seed() {
            merged.push(CheckResult {
                name: "determinism.reps".to_string(),
                pass: self
                    .reps
                    .windows(2)
                    .all(|p| p[0].sim_digest == p[1].sim_digest),
                detail: format!("{} repetitions on one seed, one digest", self.reps.len()),
            });
        }
        merged
    }

    /// True when every correctness check held.
    pub fn correct(&self) -> bool {
        !self.reps.is_empty() && self.checks().iter().all(|c| c.pass)
    }

    /// The per-child samples behind a host-clock end-to-end metric, or
    /// the run's one value of a simulated-clock one.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let facts = self.facts();
        // A campaign child after the first did not count its I/Os: it
        // completed the first one's, on the same seed.
        let first_ios = self.reps.first().and_then(|r| r.facts).map_or(1, |f| f.ios);
        match name {
            "host_ns_per_io" => self
                .reps
                .iter()
                .map(|r| r.wall_s * 1e9 / r.facts.map_or(first_ios, |f| f.ios).max(1) as f64)
                .collect(),
            "wall_s" => self.reps.iter().map(|r| r.wall_s).collect(),
            "setup_s" => self
                .reps
                .iter()
                .flat_map(|r| r.setup_s.iter().copied())
                .collect(),
            "peak_rss_mb" => self.reps.iter().map(|r| r.peak_rss_mb).collect(),
            "sim_tc_kiops" => vec![facts.tc_kiops],
            "sim_ls_tail_us" => vec![facts.ls_tail_us],
            "ok_share" => vec![facts.ok_share()],
            _ => Vec::new(),
        }
    }

    /// The metrics this run reports under the contract, by definition
    /// order: every `end_to_end` metric (median over [`Self::samples`])
    /// untraced, every `per_layer` metric of the traced child traced.
    pub fn contract_metrics<'a>(
        &self,
        catalog: &'a Catalog,
    ) -> Result<Vec<(&'a MetricDef, f64)>, String> {
        let defs = if self.trace {
            &catalog.per_layer
        } else {
            &catalog.end_to_end
        };
        let traced = self.reps.first().map_or(&[][..], |r| &r.per_layer[..]);
        if self.trace && traced.len() != defs.len() {
            return Err(format!(
                "measured {} per-layer metrics, BENCHMARK.json lists {}",
                traced.len(),
                defs.len()
            ));
        }
        defs.iter()
            .map(|d| {
                let v = if self.trace {
                    traced.iter().find(|(n, _)| *n == d.name).map(|(_, v)| *v)
                } else {
                    Some(self.samples(&d.name))
                        .filter(|s| !s.is_empty())
                        .map(|s| stats::median(&s))
                }
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                if v.is_finite() {
                    Ok((d, v))
                } else {
                    Err(format!("metric {} is not finite", d.name))
                }
            })
            .collect()
    }

    /// The driver's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, catalog: &Catalog) -> Result<String, String> {
        let metrics: Vec<String> = self
            .contract_metrics(catalog)?
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&d.name),
                    format_f64(*v),
                    escape(&d.unit)
                )
            })
            .collect();
        let facts = self.facts();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            facts.submitted.max(1),
            facts.failed(),
            metrics.join(", ")
        ))
    }

    /// Every metric by name with its unit, the checks, and what the
    /// numbers are made of — for people.
    pub fn human(&self, catalog: &Catalog) -> Result<String, String> {
        let w = self.workload;
        let facts = self.facts();
        let mut out = format!(
            "opfbench {} seed {} ({}){}\n  {}\n  {} fresh child process(es), each: {} set-ups, then one timed repetition of {:.2}+{:.2} simulated s per leg, single-threaded\n",
            w.name(),
            self.opts.seed,
            if self.trace { "traced run" } else { "end-to-end run, tracing off" },
            if self.opts.smoke { " SMOKE (1/100 length; not comparable)" } else { "" },
            w.loop_kind(),
            self.reps.len(),
            crate::child::SETUPS,
            w.params().warmup_s,
            w.params().measure_s,
        );
        for (d, v) in self.contract_metrics(catalog)? {
            out.push_str(&format!("  {:<36} {:>16.6} {}\n", d.name, v, d.unit));
        }
        let host = summarize(&self.samples("host_ns_per_io"));
        out.push_str(&format!(
            "  host_ns_per_io quartiles {:.1} / {:.1} / {:.1} over {} repetitions\n",
            host.q1, host.median, host.q3, host.n
        ));
        out.push_str(&format!(
            "  failed_share {} ({} failed of {} submitted); LS tail at p99 over {} samples\n",
            format_f64(facts.failed_share()),
            facts.failed(),
            facts.submitted,
            facts.ls_samples,
        ));
        out.push_str(&format!("  sim_digest {:016x}\n", self.sim_digest()));
        if self.trace {
            out.push_str(
                "  share.* is an estimate composed from outside: D self-ns/op x C op-count / wall_s\n",
            );
            if let Some(p) = self.reps.first().and_then(|r| r.span_file.as_ref()) {
                out.push_str(&format!("  spans written to {}\n", p.display()));
            }
        }
        for c in self.checks() {
            out.push_str(&format!(
                "  check {:<20} {}  {}\n",
                c.name,
                if c.pass { "ok  " } else { "FAIL" },
                c.detail
            ));
        }
        Ok(out)
    }
}

/// One run of one workload: its children one after another (an
/// end-to-end run), or one traced child.
pub fn run_one(exe: &Path, w: Workload, opts: &RunOpts, trace: bool) -> Result<RunReport, String> {
    let n = if trace { 1 } else { opts.reps() };
    Ok(RunReport {
        workload: w,
        opts: *opts,
        trace,
        reps: (0..n)
            .map(|rep| spawn_rep(exe, w, opts, rep, trace))
            .collect::<Result<_, _>>()?,
    })
}

/// One metric of one workload in `latest.json`.
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Contract name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median / quartiles / count over the run's samples.
    pub summary: Summary,
}

/// One workload's row of `latest.json`.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// Workload name.
    pub name: String,
    /// Every child passed every check.
    pub correct: bool,
    /// The run's `sim_digest`.
    pub sim_digest: String,
    /// Events per completed I/O (exact).
    pub events_per_io: f64,
    /// Failed share (exact).
    pub failed_share: f64,
    /// LS samples behind `sim_ls_tail_us`.
    pub ls_samples: u64,
    /// Failed checks, verbatim.
    pub failed_checks: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Vec<MetricRow>,
}

impl WorkloadRow {
    /// Reduce a run to its row.
    pub fn of(run: &RunReport, catalog: &Catalog) -> WorkloadRow {
        let facts = run.facts();
        WorkloadRow {
            name: run.workload.name().to_string(),
            correct: run.correct(),
            sim_digest: format!("{:016x}", run.sim_digest()),
            events_per_io: facts.events as f64 / facts.ios.max(1) as f64,
            failed_share: facts.failed_share(),
            ls_samples: facts.ls_samples,
            failed_checks: run
                .checks()
                .iter()
                .filter(|c| !c.pass)
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect(),
            metrics: catalog
                .end_to_end
                .iter()
                .map(|d| MetricRow {
                    name: d.name.clone(),
                    unit: d.unit.clone(),
                    summary: summarize(&run.samples(&d.name)),
                })
                .collect(),
        }
    }
}

fn machine() -> (usize, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (crate::drivers::cores(), cpu)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn summary_json(s: &Summary) -> String {
    format!(
        "\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
        format_f64(s.median),
        format_f64(s.q1),
        format_f64(s.q3),
        s.n
    )
}

/// Render `latest.json`.
pub fn latest_json(opts: &RunOpts, rows: &[WorkloadRow]) -> String {
    let (cores, cpu) = machine();
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"smoke\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"reps\": {},\n  \"commit\": \"{}\",\n  \"cores\": {cores},\n  \"cpu\": \"{}\",\n  \"workloads\": [\n",
        opts.smoke,
        opts.seed,
        format_f64(opts.seconds),
        opts.reps(),
        escape(&commit()),
        escape(&cpu),
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"correct\": {}, \"sim_digest\": \"{}\", \"events_per_io\": {}, \
             \"failed_share\": {}, \"ls_samples\": {},\n     \"metrics\": {{\n",
            escape(&r.name),
            r.correct,
            escape(&r.sim_digest),
            format_f64(r.events_per_io),
            format_f64(r.failed_share),
            r.ls_samples,
        ));
        for (j, m) in r.metrics.iter().enumerate() {
            out.push_str(&format!(
                "       \"{}\": {{\"unit\": \"{}\", {}}}{}\n",
                escape(&m.name),
                escape(&m.unit),
                summary_json(&m.summary),
                if j + 1 < r.metrics.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "     }}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One `history.jsonl` row: per-workload medians and IQRs.
pub fn history_row(opts: &RunOpts, rows: &[WorkloadRow]) -> String {
    let (cores, cpu) = machine();
    let per_workload: Vec<String> = rows
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\":{{\"median\":{},\"iqr\":{}}}",
                        escape(&m.name),
                        format_f64(m.summary.median),
                        format_f64(m.summary.q3 - m.summary.q1)
                    )
                })
                .collect();
            format!(
                "\"{}\":{{\"sim_digest\":\"{}\",{}}}",
                escape(&r.name),
                escape(&r.sim_digest),
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"commit\":\"{}\",\"seed\":{},\"seconds\":{},\"reps\":{},\"cores\":{cores},\"cpu\":\"{}\",\"workloads\":{{{}}}}}\n",
        escape(&commit()),
        opts.seed,
        format_f64(opts.seconds),
        opts.reps(),
        escape(&cpu),
        per_workload.join(",")
    )
}

fn print_rows(rows: &[WorkloadRow], catalog: &Catalog) {
    for r in rows {
        println!(
            "{}  [{}]  sim_digest {}  events/io {}  failed_share {}  ls_samples {}",
            r.name,
            if r.correct { "correct" } else { "INCORRECT" },
            r.sim_digest,
            format_f64(r.events_per_io),
            format_f64(r.failed_share),
            r.ls_samples
        );
        for m in &r.metrics {
            let better = match catalog.end_to_end_def(&m.name).map(|d| d.better) {
                Some(Better::Higher) => "higher is better",
                _ => "lower is better",
            };
            println!(
                "  {:<16} median {:>14.6} {:<6} q1 {:>14.6} q3 {:>14.6} n {:>3}  spread {:>6.2}%  ({better})",
                m.name,
                m.summary.median,
                m.unit,
                m.summary.q1,
                m.summary.q3,
                m.summary.n,
                m.summary.spread() * 100.0
            );
        }
        for f in &r.failed_checks {
            println!("  FAILED {f}");
        }
    }
}

/// `opfbench run`: every workload, tracing off, children interleaved;
/// prints every metric, writes `latest.json`, appends a `history.jsonl`
/// row. Returns whether every check passed.
pub fn run(exe: &Path, opts: &RunOpts, catalog: &Catalog) -> Result<bool, String> {
    let reps = opts.reps();
    let mut runs: Vec<RunReport> = Workload::ALL
        .into_iter()
        .map(|w| RunReport {
            workload: w,
            opts: *opts,
            trace: false,
            reps: Vec::with_capacity(reps),
        })
        .collect();
    for rep in 0..reps {
        for run in &mut runs {
            eprintln!("[rep {}/{reps} {}]", rep + 1, run.workload.name());
            run.reps
                .push(spawn_rep(exe, run.workload, opts, rep, false)?);
        }
    }
    let rows: Vec<WorkloadRow> = runs.iter().map(|r| WorkloadRow::of(r, catalog)).collect();
    print_rows(&rows, catalog);
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let latest = out_dir.join(if opts.smoke {
        "latest_smoke.json"
    } else {
        "latest.json"
    });
    std::fs::write(&latest, latest_json(opts, &rows))
        .map_err(|e| format!("cannot write {}: {e}", latest.display()))?;
    println!("[saved {}]", latest.display());
    if !opts.smoke {
        use std::io::Write;
        let path = out_dir.join("history.jsonl");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(history_row(opts, &rows).as_bytes()))
            .map_err(|e| format!("cannot append {}: {e}", path.display()))?;
        println!("[appended {}]", path.display());
    }
    Ok(rows.iter().all(|r| r.correct))
}

/// `opfbench trace`: one traced child per workload; prints each run's
/// table and writes `trace_latest.json` with every per-layer metric.
/// Returns whether every check passed.
pub fn trace(exe: &Path, opts: &RunOpts, catalog: &Catalog) -> Result<bool, String> {
    let mut ok = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        eprintln!("[trace {}]", w.name());
        let run = run_one(exe, w, opts, true)?;
        print!("{}", run.human(catalog)?);
        ok &= run.correct();
        let per_layer: Vec<String> = run.reps[0]
            .per_layer
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", escape(k), format_f64(*v)))
            .collect();
        entries.push(format!(
            "    {{\"name\": \"{}\", \"per_layer\": {{{}}}}}",
            w.name(),
            per_layer.join(", ")
        ));
    }
    let (cores, cpu) = machine();
    let doc = format!(
        "{{\n  \"schema\": \"{SCHEMA}.trace\",\n  \"smoke\": {},\n  \"seed\": {},\n  \"commit\": \"{}\",\n  \
         \"cores\": {cores},\n  \"cpu\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        opts.smoke,
        opts.seed,
        escape(&commit()),
        escape(&cpu),
        entries.join(",\n")
    );
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(if opts.smoke {
        "trace_latest_smoke.json"
    } else {
        "trace_latest.json"
    });
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[saved {}]", path.display());
    Ok(ok)
}
