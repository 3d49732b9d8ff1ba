//! One timed repetition of one workload in this process — what the
//! parent (`opfbench --workload …`, `opfbench run`, `opfbench trace`)
//! starts once per (workload, repetition) as a fresh child, so every
//! repetition has a clean allocator and its own `VmHWM`.
//!
//! Protocol: [`SETUPS`] timed set-ups (spec parse to the end of an
//! untimed warm-up leg), then the workload's fixed simulated work once,
//! timing only the calls into the program under test, then the
//! correctness checks. A traced child runs the repetition twice on the
//! same seed (same digest, same allocation count, or the `determinism`
//! check fails), then the D drivers, the twin and the attribution.

use crate::alloc;
use crate::checks::{self, CheckResult};
use crate::drivers::{self, DriverResults};
use crate::ledger::{self, SimFacts};
use crate::micro::Budget;
use crate::spans::Spans;
use crate::twin::{self, TwinResult};
use crate::workloads::{self, Leg, LegOut, LegSnapshot, Scale, Specs, Workload};
use experiments::campaign::CampaignSummary;
use simkit::json::{escape, Json};
use simkit::metrics::format_f64;
use simkit::{FxHasher, Stopwatch};
use std::hash::Hasher;
use std::path::PathBuf;

/// Timed set-ups in each child, before its timed repetition; a run's
/// `setup_s` is the median over all its children's set-ups.
pub const SETUPS: usize = 2;

/// Options of one child.
#[derive(Clone, Debug)]
pub struct RepOpts {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Which repetition of the run this is; picks the derived seed.
    pub rep: usize,
    /// Traced child (per-layer metrics) or end-to-end child.
    pub trace: bool,
    /// 1/100 simulated length, output stamped `smoke`.
    pub smoke: bool,
    /// Where a traced child writes its span file.
    pub out_dir: PathBuf,
}

/// Everything one child measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RepReport {
    /// Host seconds of the timed repetition.
    pub wall_s: f64,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// `VmHWM` of the child (MiB) when its timed repetition ended.
    pub peak_rss_mb: f64,
    /// Simulated-clock facts of the repetition. A campaign repetition
    /// after the first repeats the first one's grid and does not audit
    /// it again: `None`.
    pub facts: Option<SimFacts>,
    /// Digest of the simulated snapshot.
    pub sim_digest: u64,
    /// Every correctness check.
    pub checks: Vec<CheckResult>,
    /// Per-layer metrics (traced children only).
    pub per_layer: Vec<(String, f64)>,
    /// Span file written (traced children only).
    pub span_file: Option<PathBuf>,
}

/// A `/proc/self/status` size field (`VmHWM:`) in MiB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn campaign_of(outs: &[LegOut]) -> Option<&CampaignSummary> {
    outs.iter().find_map(|o| match o {
        LegOut::Campaign(s) => Some(&**s),
        LegOut::Run(_) => None,
    })
}

/// What a repetition's outputs hash to before any twin-grid audit: the
/// legs' snapshot digest, or the rendered campaign summary.
fn rep_digest(legs: &[Leg], outs: &[LegOut]) -> u64 {
    match campaign_of(outs) {
        Some(summary) => {
            let mut h = FxHasher::default();
            h.write(experiments::campaign::render_summary_json(summary).as_bytes());
            h.finish()
        }
        None => checks::sim_digest(&workloads::snapshots(legs, outs)),
    }
}

/// Spec parse, `Scenario` construction, a zero-length run of every leg
/// (stack construction and teardown) and one untimed warm-up leg at 1/10
/// simulated length. Returns the parsed specs, the elapsed host seconds
/// and the warm-up leg's digest.
fn setup_once(
    w: Workload,
    seed: u64,
    scale: Scale,
    spans: &mut Spans,
) -> Result<(Specs, f64, u64), String> {
    let sw = Stopwatch::start();
    let specs = spans.scope("spec.parse", |_| workloads::parse_specs(w))?;
    let (zero, warm) = spans.scope("scenario.build", |_| {
        let build = |s| workloads::build(w, &specs, seed, s);
        let warm_scale = if scale == Scale::Smoke {
            Scale::Zero
        } else {
            Scale::Tenth
        };
        // The full-length legs are built here too (and dropped): set-up
        // is what a user pays before the first timed call.
        build(scale)?;
        Ok::<_, String>((build(Scale::Zero)?, build(warm_scale)?))
    })?;
    for leg in &zero {
        spans.scope(&format!("leg.zero_run {}", leg.name()), |_| {
            std::hint::black_box(workloads::run_leg(leg));
        });
    }
    let last = warm.len() - 1;
    let out = spans.scope(&format!("leg.warm_up {}", warm[last].name()), |_| {
        workloads::run_leg(&warm[last])
    });
    let digest = rep_digest(&warm[last..], &[out]);
    Ok((specs, sw.elapsed_secs(), digest))
}

struct Rep {
    wall_s: f64,
    digest: u64,
    outs: Vec<LegOut>,
}

fn timed_rep(legs: &[Leg], spans: &mut Spans) -> Rep {
    let mut wall_s = 0.0;
    let mut outs = Vec::with_capacity(legs.len());
    for leg in legs {
        spans.scope(&format!("leg.run {}", leg.name()), |_| {
            let sw = Stopwatch::start();
            let out = workloads::run_leg(leg);
            wall_s += sw.elapsed_secs();
            outs.push(out);
        });
    }
    let digest = spans.scope("snapshot.reduce", |_| rep_digest(legs, &outs));
    Rep {
        wall_s,
        digest,
        outs,
    }
}

/// Lossy poisson grid point minus its loss-free twin, host ns per I/O
/// (0 for workloads without a fault plane).
fn faults_delta(w: Workload, specs: &Specs, seed: u64, scale: Scale) -> f64 {
    let Ok(legs) = workloads::build(w, specs, seed, scale) else {
        return 0.0;
    };
    let Some(Leg::Campaign(spec)) = legs.first() else {
        return 0.0;
    };
    let Some((_, lossy)) = workloads::campaign_grid(spec)
        .into_iter()
        .find(|(_, sc)| sc.faults.is_some())
    else {
        return 0.0;
    };
    let mut clean = lossy.clone();
    clean.faults = None;
    let ns_per_io = |sc: &workload::Scenario| {
        (0..2)
            .map(|_| {
                let sw = Stopwatch::start();
                let r = workload::run(sc);
                let wall = sw.elapsed_secs();
                let snap = LegSnapshot::of("x", sc, &r);
                wall * 1e9 / SimFacts::of(&[snap]).ios.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    ns_per_io(&lossy) - ns_per_io(&clean)
}

/// Live heap bytes one pass over the legs (at 1/10 length) leaves behind
/// once its results are dropped — what a sweep process grows by per
/// scenario. Zero unless the allocator is counting.
fn retained_bytes(w: Workload, specs: &Specs, seed: u64, scale: Scale) -> Result<u64, String> {
    let scale = if scale == Scale::Full {
        Scale::Tenth
    } else {
        scale
    };
    let legs = workloads::build(w, specs, seed, scale)?;
    let before = alloc::snapshot().live;
    for leg in &legs {
        std::hint::black_box(workloads::run_leg(leg));
    }
    Ok(alloc::snapshot().live.saturating_sub(before))
}

/// `share.<layer>` = D self-ns/op × C op-count ÷ timed host ns: an
/// estimate composed from outside, not a profile.
fn attribution(
    w: Workload,
    legs: &[LegSnapshot],
    facts: &SimFacts,
    d: &DriverResults,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    use ledger::{Comp, Totals};
    let wall_ns = wall_s * 1e9;
    let bulk = w == Workload::Bulk128kMixed100g;
    let write = w == Workload::Write4k10g;
    let all = Totals::of(legs);
    let of = |rt| Totals::of(legs.iter().filter(move |l| l.runtime == rt));
    let (opf, spdk) = (
        of(workload::RuntimeKind::Opf),
        of(workload::RuntimeKind::Spdk),
    );

    // simkit: events × hold cost at the depth the workload keeps the
    // queue at — in-flight commands are the pending set.
    let depth = facts.inflight as usize / legs.len().max(1);
    let per_event = match w {
        Workload::Scale256Sh8 => d.meshed8.max(d.hold.at(depth)),
        Workload::Cluster2Migrate => d.sharded8.max(d.hold.at(depth)),
        _ => d.hold.at(depth),
    };
    let simkit = facts.events as f64 * per_event;

    let msgs = all.sum(Comp::TgtEp, "msgs_tx") + all.sum(Comp::TgtEp, "msgs_rx");
    let fabric = msgs
        * if bulk {
            d.fabric_self.1
        } else {
            d.fabric_self.0
        };

    let (rd, wr) = if bulk {
        (d.nvme_self[1], d.nvme_self[3])
    } else {
        (d.nvme_self[0], d.nvme_self[2])
    };
    let nvme = all.sum(Comp::Dev, "reads") * rd + all.sum(Comp::Dev, "writes") * wr;

    let nvmf = spdk.sum(Comp::Ini, "completed") * if write { d.nvmf_self.1 } else { d.nvmf_self.0 };
    let ls_ios = opf.sum(Comp::Ini, "ls_submitted");
    let tc_ios = (opf.sum(Comp::Ini, "completed") - ls_ios).max(0.0);
    let opf_ns = tc_ios * if write { d.opf_self.1 } else { d.opf_self.0 } + ls_ios * d.opf_self.2;

    let queues = legs.iter().map(|l| l.cross_reactor_submits).sum::<u64>() as f64 * d.mailbox_ns;
    let workload_ns =
        facts.ios as f64 * d.hist_ns + all.sum(Comp::Top, "traffic.offered") * d.traffic_ns;

    let shares = [
        ("share.simkit", simkit),
        ("share.queues", queues),
        ("share.fabric", fabric),
        ("share.nvme", nvme),
        ("share.nvmf", nvmf),
        ("share.opf", opf_ns),
        ("share.workload", workload_ns),
    ]
    .map(|(n, ns)| (n, ns / wall_ns));
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    let mut out = shares.to_vec();
    out.push(("share.unattributed", 1.0 - total));
    out
}

/// Run one repetition as the options say.
pub fn run_rep(opts: &RepOpts) -> Result<RepReport, String> {
    let w = opts.workload;
    let scale = if opts.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let seed = w.rep_seed(opts.seed, opts.rep);
    let mut spans = Spans::new(opts.trace, opts.seed);
    alloc::set_counting(opts.trace);

    // Set-up, several times; the warm-up legs share one seed, so their
    // digests double as an in-process determinism check.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm_digests = Vec::with_capacity(SETUPS);
    let mut specs = Specs::None;
    for i in 0..SETUPS {
        let (parsed, secs, digest) =
            spans.scope(&format!("setup {i}"), |s| setup_once(w, seed, scale, s))?;
        setup_s.push(secs);
        warm_digests.push(digest);
        specs = parsed;
    }

    // The timed repetition (twice when traced, to compare the two).
    let legs = workloads::build(w, &specs, seed, scale)?;
    let (rep, rep_allocs) = alloc::counted(|| spans.scope("rep", |s| timed_rep(&legs, s)));
    let peak_rss_mb = proc_status_mb("VmHWM:");
    let again = opts.trace.then(|| {
        let (again, allocs) = alloc::counted(|| spans.scope("rep again", |s| timed_rep(&legs, s)));
        (again.digest, allocs.allocs)
    });

    // Snapshots: the legs' own; or, for the campaign, its twin grid —
    // audited by the first repetition only, because every repetition of
    // the campaign repeats one grid.
    let campaign = campaign_of(&rep.outs);
    let snaps = spans.scope("snapshot.reduce", |_| match (&legs[0], campaign) {
        (Leg::Campaign(spec), Some(_)) if opts.rep == 0 => workloads::campaign_audit(spec),
        (Leg::Campaign(_), Some(_)) => Vec::new(),
        _ => workloads::snapshots(&legs, &rep.outs),
    });
    let facts = (!snaps.is_empty()).then(|| SimFacts::of(&snaps));
    let mut checks = spans.scope("check", |_| match &facts {
        Some(f) => checks::all(w, scale, &snaps, f, campaign),
        None => campaign.map(checks::campaign_gates).into_iter().collect(),
    });
    let same = |d: &[u64]| d.windows(2).all(|p| p[0] == p[1]);
    checks.push(CheckResult {
        name: "determinism".to_string(),
        pass: same(&warm_digests) && again.is_none_or(|a| a == (rep.digest, rep_allocs.allocs)),
        detail: format!(
            "{} warm-up legs on one seed, one digest{}",
            warm_digests.len(),
            if again.is_some() {
                format!(
                    "; the repetition run twice, one digest and {} allocations each",
                    rep_allocs.allocs
                )
            } else {
                String::new()
            }
        ),
    });

    let mut per_layer: Vec<(String, f64)> = Vec::new();
    let mut span_file = None;
    if let (true, Some(facts)) = (opts.trace, &facts) {
        let mut push = |pairs: Vec<(&'static str, f64)>| {
            per_layer.extend(pairs.into_iter().map(|(n, v)| (n.to_string(), v)));
        };
        push(ledger::counters(&snaps, facts, rep.wall_s));
        push(vec![
            ("workload.ls_samples", facts.ls_samples as f64),
            ("failed_share", facts.failed_share()),
        ]);
        // `rep_allocs` covers the timed repetition alone: set-ups and
        // the drivers' own allocations below stay out of `alloc.*`.
        let ios = facts.ios.max(1) as f64;
        push(vec![
            ("alloc.allocs_per_io", rep_allocs.allocs as f64 / ios),
            ("alloc.bytes_per_io", rep_allocs.bytes as f64 / ios),
            (
                "alloc.peak_live_mb",
                rep_allocs.peak_live as f64 / (1024.0 * 1024.0),
            ),
            (
                "alloc.retained_mb_per_rep",
                retained_bytes(w, &specs, seed, scale)? as f64 / (1024.0 * 1024.0),
            ),
        ]);
        let budget = if opts.smoke {
            Budget::SMOKE
        } else {
            Budget::FULL
        };
        let d = spans.scope("drivers", |_| drivers::run_all(opts.seed, budget));
        push(d.metrics.clone());
        let t: TwinResult = spans
            .scope("twin", |_| twin::run(w, opts.seed))
            .unwrap_or_default();
        push(vec![
            ("opf.staging_us_ls", t.waits.staging_us_ls),
            ("opf.staging_us_tc", t.waits.staging_us_tc),
            ("nvme.device_us_ls", t.waits.device_us_ls),
            ("nvme.device_us_tc", t.waits.device_us_tc),
            ("opf.completion_us_tc", t.waits.completion_us_tc),
            ("trace_overhead_ratio", t.trace_overhead_ratio),
        ]);
        let delta = spans.scope("faults.twin", |_| faults_delta(w, &specs, seed, scale));
        push(vec![("faults.host_ns_per_io_delta", delta)]);
        push(attribution(w, &snaps, facts, &d, rep.wall_s));
        alloc::set_counting(false);

        let path = opts
            .out_dir
            .join(format!("trace_{}_seed{}.json", w.name(), opts.seed));
        match std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_trace()))
        {
            Ok(()) => span_file = Some(path),
            Err(e) => checks.push(CheckResult {
                name: "span_file".to_string(),
                pass: false,
                detail: format!("cannot write {}: {e}", path.display()),
            }),
        }
    }

    Ok(RepReport {
        wall_s: rep.wall_s,
        setup_s,
        peak_rss_mb,
        facts,
        sim_digest: rep.digest,
        checks,
        per_layer,
        span_file,
    })
}

impl RepReport {
    /// True when every correctness check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The line a child prints for its parent.
    pub fn to_json(&self) -> String {
        let nums = |v: &[f64]| {
            v.iter()
                .map(|x| format_f64(*x))
                .collect::<Vec<_>>()
                .join(",")
        };
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"pass\":{},\"detail\":\"{}\"}}",
                    escape(&c.name),
                    c.pass,
                    escape(&c.detail)
                )
            })
            .collect();
        let per_layer: Vec<String> = self
            .per_layer
            .iter()
            .map(|(n, v)| format!("\"{}\":{}", escape(n), format_f64(*v)))
            .collect();
        format!(
            "{{\"wall_s\":{},\"setup_s\":[{}],\"peak_rss_mb\":{},\"facts\":{},\
             \"sim_digest\":\"{:016x}\",\"checks\":[{}],\"per_layer\":{{{}}},\"span_file\":{}}}",
            format_f64(self.wall_s),
            nums(&self.setup_s),
            format_f64(self.peak_rss_mb),
            self.facts.map_or("null".to_string(), |f| f.to_json()),
            self.sim_digest,
            checks.join(","),
            per_layer.join(","),
            self.span_file
                .as_ref()
                .map_or("null".to_string(), |p| format!(
                    "\"{}\"",
                    escape(&p.display().to_string())
                )),
        )
    }

    /// Read a child's line back.
    pub fn from_json(doc: &Json) -> Result<RepReport, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child report lacks number `{k}`"))
        };
        let arr = |k: &str| {
            doc.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("child report lacks array `{k}`"))
        };
        let checks = arr("checks")?
            .iter()
            .map(|c| {
                Some(CheckResult {
                    name: c.get("name")?.as_str()?.to_string(),
                    pass: c.get("pass")?.as_bool()?,
                    detail: c.get("detail")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("child report: malformed check")?;
        Ok(RepReport {
            wall_s: num("wall_s")?,
            setup_s: arr("setup_s")?.iter().filter_map(Json::as_f64).collect(),
            peak_rss_mb: num("peak_rss_mb")?,
            facts: match doc.get("facts") {
                Some(Json::Null) | None => None,
                Some(f) => Some(SimFacts::from_json(f)?),
            },
            sim_digest: doc
                .get("sim_digest")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("child report lacks `sim_digest`")?,
            checks,
            per_layer: match doc.get("per_layer") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect(),
                _ => Vec::new(),
            },
            span_file: doc
                .get("span_file")
                .and_then(Json::as_str)
                .map(PathBuf::from),
        })
    }
}
