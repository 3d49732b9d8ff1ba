//! `opfbench` — the repository's benchmark.
//!
//! ```text
//! opfbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! opfbench run     [--seed N] [--smoke]                     the suite, tracing off
//! opfbench trace   [--seed N] [--smoke]                     one traced run per workload
//! opfbench compare A.json B.json                            judge B against A
//! opfbench glossary                                         README.md's per-layer table
//! ```
//!
//! Every timed repetition runs in a child of this binary, started as
//! `opfbench rep …` (not for people; see `suite::spawn_rep`).

use opfbench::alloc::{self, CountingAlloc};
use opfbench::catalog::Catalog;
use opfbench::child::{run_rep, RepOpts};
use opfbench::suite::{self, RunOpts};
use opfbench::workloads::Workload;
use std::path::{Path, PathBuf};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  opfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  opfbench run     [--seed N] [--smoke]
  opfbench trace   [--seed N] [--smoke]
  opfbench compare A.json B.json
  opfbench glossary";

fn fail(msg: &str) -> ! {
    eprintln!("opfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// `--key value` pairs (`--smoke` may stand alone).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--").filter(|k| allowed.contains(k)) else {
                fail(&format!("unexpected argument {a:?}"));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ if key == "smoke" => "1".to_string(),
                _ => fail(&format!("--{key} needs a value")),
            };
            out.push((key.to_string(), value));
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("--{key}: cannot read {v:?}")))
        })
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> T {
        self.num(key)
            .unwrap_or_else(|| fail(&format!("--{key} is required")))
    }

    fn flag(&self, key: &str) -> bool {
        match self.get(key) {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => fail(&format!("--{key} is 0 or 1, not {v:?}")),
        }
    }

    fn workload(&self, catalog: &Catalog) -> Workload {
        let name: String = self.required("workload");
        Workload::from_name(&name).unwrap_or_else(|| {
            fail(&format!(
                "unknown workload {name:?} (one of: {})",
                catalog.workloads.join(", ")
            ))
        })
    }
}

/// The driver's form: one run of one workload.
fn one_run(exe: &Path, flags: &Flags, catalog: &Catalog) -> Result<bool, String> {
    let seconds: f64 = flags.required("seconds");
    if !(seconds > 0.0 && seconds <= 60.0) {
        fail("--seconds must be in (0, 60]");
    }
    let opts = RunOpts {
        seed: flags.required("seed"),
        seconds,
        smoke: flags.flag("smoke"),
    };
    let run = suite::run_one(exe, flags.workload(catalog), &opts, flags.flag("trace"))?;
    // Table first, result object last: the driver reads the last line.
    let (table, line) = (run.human(catalog)?, run.result_line(catalog)?);
    print!("{table}");
    println!("{line}");
    Ok(run.correct())
}

/// One timed repetition in this process (a child of one of the above).
fn one_rep(flags: &Flags, catalog: &Catalog) -> Result<bool, String> {
    let report = run_rep(&RepOpts {
        workload: flags.workload(catalog),
        seed: flags.required("seed"),
        rep: flags.required("rep"),
        trace: flags.flag("trace"),
        smoke: flags.flag("smoke"),
        out_dir: PathBuf::from(suite::OUT_DIR),
    })?;
    println!("{}", report.to_json());
    // A failed check is the parent's to report, not a failed child.
    Ok(true)
}

fn suite_opts(flags: &Flags, catalog: &Catalog) -> RunOpts {
    RunOpts {
        seed: flags.num("seed").unwrap_or(42),
        seconds: catalog.run_seconds as f64,
        smoke: flags.flag("smoke"),
    }
}

fn main() {
    alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = Catalog::load().unwrap_or_else(|e| fail(&e));
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let finish = |r: Result<bool, String>| match r {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("opfbench: correctness checks FAILED");
            1
        }
        Err(e) => {
            eprintln!("opfbench: {e}");
            1
        }
    };
    let suite_flags = || Flags::parse(&args[1..], &["seed", "smoke"]);
    let code = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            0
        }
        Some("run") => finish(suite::run(
            &exe,
            &suite_opts(&suite_flags(), &catalog),
            &catalog,
        )),
        Some("trace") => finish(suite::trace(
            &exe,
            &suite_opts(&suite_flags(), &catalog),
            &catalog,
        )),
        Some("rep") => finish(one_rep(
            &Flags::parse(&args[1..], &["workload", "seed", "rep", "trace", "smoke"]),
            &catalog,
        )),
        Some("glossary") => {
            print!("{}", opfbench::catalog::glossary_markdown(&catalog));
            0
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                fail("compare takes two report files");
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")))
            };
            match opfbench::compare::compare(&read(a), &read(b), &catalog) {
                Ok(c) => opfbench::compare::report(&c),
                Err(e) => {
                    eprintln!("opfbench compare: {e}");
                    2
                }
            }
        }
        Some(a) if a.starts_with("--") => finish(one_run(
            &exe,
            &Flags::parse(&args, &["workload", "seed", "seconds", "trace", "smoke"]),
            &catalog,
        )),
        Some(other) => fail(&format!("unknown command {other:?}")),
    };
    std::process::exit(code);
}
