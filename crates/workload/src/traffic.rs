//! # traffic — open-loop arrival and traffic models for campaign scenarios
//!
//! Every experiment before PR 10 replayed the paper's closed-loop 4K
//! setup: each tenant keeps a fixed queue depth and issues the next
//! command the moment one completes. Real multi-tenant storage traffic
//! is open-loop — arrivals come from applications that do not wait for
//! the device — and skewed, bursty, and phased. This module models that
//! shape behind [`TrafficSpec`], an optional block on
//! [`Scenario`](crate::Scenario):
//!
//! - **Poisson**: memoryless open-loop arrivals at a fixed rate.
//! - **Bursty**: on/off square wave; Poisson arrivals during `on_ms`
//!   windows, silence during `off_ms` (rate applies inside the burst).
//! - **Diurnal**: the arrival rate follows a triangle wave between
//!   `trough_frac × rate` and `rate` over `period_ms` (a day compressed
//!   to milliseconds), sampled by thinning against the peak rate. A
//!   triangle — not a sinusoid — keeps the model free of platform-`libm`
//!   transcendentals, so results are bit-identical everywhere.
//! - **Phased**: a cycling sequence of [`Phase`]s, each with its own
//!   rate, read fraction, and I/O size (e.g. the h5bench read phase →
//!   write burst shape).
//! - **Trace**: a recorded [`TraceLog`]; TC tenant *i* issues the
//!   trace's tenant-*i* events, each at its own time and with its own
//!   class, op, LBA and size. Nothing is drawn.
//!
//! Orthogonal knobs: `size_mix` draws each request's block count from a
//! weighted distribution, `zipf` skews the aggregate rate across TC
//! tenants by popularity rank, and `churn` schedules mass
//! disconnect/reconnect storms through the PR 3 fault-plane crash +
//! reconnect machinery.
//!
//! Determinism: every tenant owns a [`Pcg32`] forked from the scenario
//! seed and its tenant index, and its whole arrival chain runs on its
//! own kernel lane, so every model is bit-reproducible and
//! shard/parallel-invariant (proptested in
//! `workload/tests/traffic_invariants.rs`). A scenario without a
//! `traffic` block never touches this module — legacy runs stay
//! byte-identical.
//!
//! The block, its `churn` storms and its `phases` are read through the
//! one key-checked reader in `simkit::json`, like every spec block: an
//! unknown key is an error naming its path (`scenarios[0].traffic.
//! phases[1]` inside a campaign spec), never a silent no-op.

use crate::trace::TraceLog;
use crate::Mix;
use opf::ReqClass;
use simkit::json::{self, Json, POSITIVE};
use simkit::Pcg32;
use std::ops::Bound;
use std::sync::Arc;

/// Open-loop traffic description for the throughput-critical tenants of
/// a scenario. Latency-sensitive tenants keep their closed-loop QD-1
/// probe loops — the paper's LS isolation metric stays comparable.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Arrival process.
    pub model: ArrivalModel,
    /// Aggregate offered load across all TC tenants, in thousands of
    /// IOPS. Split across tenants by popularity weight (uniform unless
    /// `zipf` is set). For [`ArrivalModel::Bursty`] this is the
    /// in-burst rate; for [`ArrivalModel::Diurnal`] the peak; for
    /// [`ArrivalModel::Phased`] each phase carries its own rate.
    pub rate_kiops: f64,
    /// Read fraction override for open-loop tenants (defaults to the
    /// scenario mix; ignored by [`ArrivalModel::Phased`], where each
    /// phase sets its own).
    pub read_fraction: Option<f64>,
    /// Weighted I/O-size distribution as `(blocks, weight)` pairs.
    /// Empty → every request uses the scenario's `io_blocks`.
    pub size_mix: Vec<(u16, f64)>,
    /// Zipf popularity skew exponent `s` across TC tenants: tenant `i`
    /// carries weight `∝ 1/(i+1)^s`. `None` → uniform.
    pub zipf: Option<f64>,
    /// Churn storms: mass disconnect/reconnect windows expanded into
    /// staggered fault-plane crash windows over the TC tenants.
    pub churn: Vec<ChurnStorm>,
}

/// The arrival process shape.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless arrivals at the configured rate.
    Poisson,
    /// On/off square wave: Poisson at the configured rate during `on_ms`
    /// windows, nothing during `off_ms` windows.
    Bursty {
        /// Burst window length (milliseconds of virtual time).
        on_ms: f64,
        /// Silence window length (milliseconds).
        off_ms: f64,
    },
    /// Triangle-wave rate between `trough_frac × rate` and `rate` with
    /// the given period, sampled by thinning.
    Diurnal {
        /// Trough rate as a fraction of the peak, in `(0, 1]`.
        trough_frac: f64,
        /// Wave period (milliseconds).
        period_ms: f64,
    },
    /// A cycling sequence of phases.
    Phased {
        /// The phases, visited in order and wrapped around.
        phases: Vec<Phase>,
    },
    /// A recorded trace, shared so that a scenario stays cheap to clone.
    /// Its events set every arrival's time, class, op, LBA and size; the
    /// spec's rate, read fraction and size mix do not apply, and `zipf`
    /// only weights `traffic.fairness_spread`.
    /// Arrivals keep their timestamps: no start stagger, no 1 ns floor
    /// between two events at the same instant.
    Trace(Arc<TraceLog>),
}

/// One phase of a [`ArrivalModel::Phased`] workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Phase length (milliseconds).
    pub dur_ms: f64,
    /// Aggregate arrival rate during this phase (kIOPS; may be 0 for an
    /// idle phase).
    pub rate_kiops: f64,
    /// Read fraction during this phase.
    pub read_fraction: f64,
    /// I/O size override for this phase (`None` → spec-level
    /// `size_mix` / scenario `io_blocks`).
    pub blocks: Option<u16>,
}

/// A mass connect/disconnect storm: `tenants` TC links crash (staggered
/// a few microseconds apart) at `at_s` for `for_s`, then reconnect and
/// recover through the epoch-guarded re-issue path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnStorm {
    /// Storm start (seconds of virtual time).
    pub at_s: f64,
    /// Crash window length per tenant (seconds).
    pub for_s: f64,
    /// How many TC tenants the storm takes down (first `tenants` in
    /// slot order).
    pub tenants: usize,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            model: ArrivalModel::Poisson,
            rate_kiops: 40.0,
            read_fraction: None,
            size_mix: Vec::new(),
            zipf: None,
            churn: Vec::new(),
        }
    }
}

impl TrafficSpec {
    /// Parse a `"traffic"` block. Unknown keys are hard errors, never
    /// silent no-ops, as in every spec block.
    pub fn from_json(v: &Json) -> Result<TrafficSpec, String> {
        TrafficSpec::read_at(v, "traffic").map_err(|e| e.to_string())
    }

    /// Parse the `"traffic"` block at `path` (`scenarios[0].traffic`),
    /// the path every error names.
    pub fn read_at(v: &Json, path: impl Into<String>) -> Result<TrafficSpec, json::Error> {
        let t = v.obj(
            path,
            &[
                "model",
                "rate_kiops",
                "read_fraction",
                "size_mix",
                "zipf",
                "churn",
                "on_ms",
                "off_ms",
                "trough_frac",
                "period_ms",
                "phases",
            ],
        )?;
        let model = t.need("model", t.str("model")?)?;
        let model_keys: &[&str] = match model {
            "poisson" => &[],
            "bursty" => &["on_ms", "off_ms"],
            "diurnal" => &["trough_frac", "period_ms"],
            "phased" => &["phases"],
            other => {
                return Err(t.err(format!(
                    "unknown model \"{other}\" (poisson | bursty | diurnal | phased)"
                )))
            }
        };
        for key in ["on_ms", "off_ms", "trough_frac", "period_ms", "phases"] {
            if t.get(key).is_some() && !model_keys.contains(&key) {
                return Err(t.err(format!("\"{key}\" does not apply to model \"{model}\"")));
            }
        }
        let model = match model {
            "bursty" => ArrivalModel::Bursty {
                on_ms: t.need("on_ms", t.f64("on_ms", POSITIVE)?)?,
                off_ms: t.need("off_ms", t.f64("off_ms", POSITIVE)?)?,
            },
            "diurnal" => ArrivalModel::Diurnal {
                trough_frac: t.need(
                    "trough_frac",
                    t.f64("trough_frac", (Bound::Excluded(0.0), Bound::Included(1.0)))?,
                )?,
                period_ms: t.need("period_ms", t.f64("period_ms", POSITIVE)?)?,
            },
            "phased" => {
                let phases = t.nonempty("phases", |p, at| {
                    let p = p.obj(at, &["dur_ms", "rate_kiops", "read_fraction", "blocks"])?;
                    Ok(Phase {
                        dur_ms: p.need("dur_ms", p.f64("dur_ms", POSITIVE)?)?,
                        rate_kiops: p.need("rate_kiops", p.f64("rate_kiops", 0.0..)?)?,
                        read_fraction: p
                            .need("read_fraction", p.f64("read_fraction", 0.0..=1.0)?)?,
                        blocks: p.int("blocks", 1..=u16::MAX)?,
                    })
                })?;
                let phases = t.need("phases", phases)?;
                if phases.iter().all(|p| p.rate_kiops <= 0.0) {
                    return Err(t.err("phased needs at least one phase with rate > 0"));
                }
                ArrivalModel::Phased { phases }
            }
            _ => ArrivalModel::Poisson,
        };
        let size_mix = t.nonempty("size_mix", |entry, at| {
            let pair = entry.as_arr().filter(|p| p.len() == 2);
            let pair =
                pair.ok_or_else(|| json::Error::invalid(&at, "expected [blocks, weight]"))?;
            let blocks = pair[0]
                .as_u64()
                .and_then(|b| u16::try_from(b).ok())
                .filter(|&b| b >= 1)
                .ok_or_else(|| {
                    json::Error::invalid(&at, "blocks must be an integer in [1, 65535]")
                })?;
            let weight = pair[1]
                .as_f64()
                .filter(|w| w.is_finite() && *w > 0.0)
                .ok_or_else(|| json::Error::invalid(&at, "weight must be a finite number > 0"))?;
            Ok((blocks, weight))
        })?;
        let churn = t.items("churn", |storm, at| {
            let c = storm.obj(at, &["at_s", "for_s", "tenants"])?;
            Ok(ChurnStorm {
                at_s: c.need("at_s", c.f64("at_s", 0.0..)?)?,
                for_s: c.need("for_s", c.f64("for_s", POSITIVE)?)?,
                tenants: c.need("tenants", c.int("tenants", 1..)?)?,
            })
        })?;
        Ok(TrafficSpec {
            model,
            rate_kiops: t
                .f64("rate_kiops", POSITIVE)?
                .unwrap_or(TrafficSpec::default().rate_kiops),
            read_fraction: t.f64("read_fraction", 0.0..=1.0)?,
            size_mix: size_mix.unwrap_or_default(),
            zipf: t.f64("zipf", 0.0..)?,
            churn: churn.unwrap_or_default(),
        })
    }

    /// Largest block count any request of a run under this spec can
    /// carry, the closed-loop tenants' `default_blocks` included — sizes
    /// the prebuilt payload and each tenant's LBA span.
    pub fn max_blocks(&self, default_blocks: u16) -> u16 {
        let model = match &self.model {
            ArrivalModel::Phased { phases } => phases.iter().filter_map(|p| p.blocks).max(),
            ArrivalModel::Trace(log) => log.events.iter().map(|e| e.blocks).max(),
            _ => None,
        };
        let drawn = self.size_mix.iter().map(|&(b, _)| b);
        drawn.chain(model).fold(default_blocks, u16::max).max(1)
    }
}

/// Deterministic `base^exp` that avoids platform-`libm` divergence for
/// the common integral exponents (Zipf `s` is almost always 1 or 2);
/// non-integral exponents fall back to `powf` (documented wobble).
fn pow_det(base: f64, exp: f64) -> f64 {
    if exp == exp.trunc() && (0.0..=16.0).contains(&exp) {
        let mut acc = 1.0;
        for _ in 0..exp as u32 {
            acc *= base;
        }
        acc
    } else {
        base.powf(exp)
    }
}

/// Popularity weights over `n` tenants, normalised to sum to `n` (so a
/// uniform distribution is all-ones and a tenant's arrival rate is
/// `aggregate × wᵢ / n`). `s = None` or `0` → uniform; larger `s` skews
/// load toward low-index tenants.
pub fn zipf_weights(n: usize, s: Option<f64>) -> Vec<f64> {
    let s = s.unwrap_or(0.0);
    if n == 0 {
        return Vec::new();
    }
    let raw: Vec<f64> = (0..n).map(|i| pow_det(1.0 / (i as f64 + 1.0), s)).collect();
    let sum: f64 = raw.iter().sum();
    raw.iter().map(|w| w * n as f64 / sum).collect()
}

/// One open-loop request as its source describes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Request class; only a trace's LS events are latency-sensitive.
    pub class: ReqClass,
    /// A write (else a read).
    pub write: bool,
    /// Size in 4K blocks.
    pub blocks: u16,
    /// Starting LBA when the source names one (a trace); `None` leaves
    /// the addressing to the tenant's pattern.
    pub lba: Option<u64>,
}

/// Per-tenant arrival generator: owns a forked RNG (or a place in a
/// trace) and answers "when is the next arrival?" and "what does it look
/// like?". Pure state machine — the runner owns scheduling, queueing,
/// and submission.
#[derive(Clone, Debug)]
pub struct TenantTraffic {
    rng: Pcg32,
    model: ArrivalModel,
    /// This tenant's arrival rate in Hz (aggregate × weight / tenants);
    /// peak rate for diurnal, in-burst for bursty, scale factor for
    /// phased (phase rate × weight / tenants).
    rate_hz: f64,
    /// Popularity weight (mean 1 across the TC tenants).
    weight: f64,
    per_tenant_scale: f64,
    size_mix: Vec<(u16, f64)>,
    size_total_w: f64,
    read_fraction: Option<f64>,
    n: u64,
    /// TC tenant index: the trace tenant this generator walks.
    tenant: usize,
    /// Index of the tenant's next trace event (`events.len()` once none
    /// is left); unused by the other models.
    cursor: usize,
}

impl TenantTraffic {
    /// Generator for TC tenant `tenant_idx` of `tc_total` under `spec`,
    /// seeded from the scenario seed (stream forked per tenant index —
    /// shard- and parallel-invariant by construction).
    pub fn new(spec: &TrafficSpec, seed: u64, tenant_idx: usize, tc_total: usize) -> TenantTraffic {
        let tc_total = tc_total.max(1);
        let weight = zipf_weights(tc_total, spec.zipf)[tenant_idx.min(tc_total - 1)];
        let per_tenant_scale = weight / tc_total as f64;
        TenantTraffic {
            rng: Pcg32::new(seed ^ (tenant_idx as u64 + 1).wrapping_mul(0x7AFF_1C77)),
            model: spec.model.clone(),
            rate_hz: spec.rate_kiops * 1000.0 * per_tenant_scale,
            weight,
            per_tenant_scale,
            size_mix: spec.size_mix.clone(),
            size_total_w: spec.size_mix.iter().map(|&(_, w)| w).sum(),
            read_fraction: spec.read_fraction,
            n: 0,
            tenant: tenant_idx,
            cursor: match &spec.model {
                ArrivalModel::Trace(log) => next_event(log, tenant_idx, 0),
                _ => 0,
            },
        }
    }

    /// Popularity weight of this tenant (mean 1 across TC tenants).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Nanoseconds from `now_ns` until this tenant's next arrival.
    /// The generated models answer ≥ 1 and consume RNG state
    /// deterministically. A trace answers the distance to its next event
    /// (0 for one at `now_ns`), and `u64::MAX - now_ns` once none is left.
    pub fn next_gap_ns(&mut self, now_ns: u64) -> u64 {
        let gap = match &self.model {
            ArrivalModel::Trace(log) => {
                let at = log.events.get(self.cursor).map_or(u64::MAX, |e| e.at_ns);
                return at.saturating_sub(now_ns);
            }
            ArrivalModel::Poisson => self.rng.gen_exp(1e9 / self.rate_hz),
            ArrivalModel::Bursty { on_ms, off_ms } => {
                // Exponential inter-arrival budget spent only inside on
                // windows: exact Poisson-within-burst.
                let on = on_ms * 1e6;
                let cycle = on + off_ms * 1e6;
                let mut t = now_ns as f64;
                let mut remaining = self.rng.gen_exp(1e9 / self.rate_hz);
                loop {
                    let pos = t % cycle;
                    if pos < on {
                        let room = on - pos;
                        if remaining <= room {
                            break t + remaining - now_ns as f64;
                        }
                        remaining -= room;
                        t += room;
                    } else {
                        t += cycle - pos;
                    }
                }
            }
            ArrivalModel::Diurnal {
                trough_frac,
                period_ms,
            } => {
                // Thinning against the peak: candidate arrivals at the
                // peak rate, each kept with probability rate(t)/peak.
                let period = period_ms * 1e6;
                let trough = *trough_frac;
                let mut gap = 0.0;
                loop {
                    gap += self.rng.gen_exp(1e9 / self.rate_hz);
                    let t = now_ns as f64 + gap;
                    let x = (t % period) / period;
                    let tri = if x < 0.5 { 2.0 * x } else { 2.0 - 2.0 * x };
                    let keep_p = trough + (1.0 - trough) * tri;
                    if self.rng.gen_f64() < keep_p {
                        break gap;
                    }
                }
            }
            ArrivalModel::Phased { phases } => {
                // Draw at the current phase's rate; a draw that crosses
                // the phase boundary restarts (memoryless) at the next
                // phase.
                let period: f64 = phases.iter().map(|p| p.dur_ms * 1e6).sum();
                let mut t = now_ns as f64;
                loop {
                    let (rate_k, end) = phase_window(phases, t % period);
                    let phase_end = t - (t % period) + end;
                    let rate_hz = rate_k * 1000.0 * self.per_tenant_scale;
                    if rate_hz <= 0.0 {
                        t = phase_end;
                        continue;
                    }
                    let gap = self.rng.gen_exp(1e9 / rate_hz);
                    if t + gap < phase_end {
                        break t + gap - now_ns as f64;
                    }
                    t = phase_end;
                }
            }
        };
        (gap.max(1.0)) as u64
    }

    /// Shape of the arrival at `now_ns`. `default_blocks`/`base_mix`
    /// come from the scenario and apply when the spec doesn't override
    /// them. A trace hands over its next event, and `None` once none is
    /// left.
    pub fn draw(&mut self, now_ns: u64, default_blocks: u16, base_mix: Mix) -> Option<Arrival> {
        let n = self.n;
        self.n += 1;
        let mut phase_blocks = None;
        let read_fraction = match &self.model {
            ArrivalModel::Trace(log) => {
                let e = *log.events.get(self.cursor)?;
                self.cursor = next_event(log, self.tenant, self.cursor + 1);
                let class = if e.ls {
                    ReqClass::LatencySensitive
                } else {
                    ReqClass::ThroughputCritical
                };
                return Some(Arrival {
                    class,
                    write: e.write,
                    blocks: e.blocks,
                    lba: Some(e.lba),
                });
            }
            ArrivalModel::Phased { phases } => {
                let period: f64 = phases.iter().map(|p| p.dur_ms * 1e6).sum();
                let ph = phase_at(phases, now_ns as f64 % period);
                phase_blocks = ph.blocks;
                ph.read_fraction
            }
            _ => self.read_fraction.unwrap_or(base_mix.read_fraction),
        };
        let is_read = Mix { read_fraction }.is_read(n);
        let blocks = match phase_blocks {
            Some(b) => b,
            None if !self.size_mix.is_empty() => {
                let mut u = self.rng.gen_f64() * self.size_total_w;
                let mut chosen = self.size_mix[self.size_mix.len() - 1].0;
                for &(b, w) in &self.size_mix {
                    if u < w {
                        chosen = b;
                        break;
                    }
                    u -= w;
                }
                chosen
            }
            None => default_blocks.max(1),
        };
        Some(Arrival {
            class: ReqClass::ThroughputCritical,
            write: !is_read,
            blocks,
            lba: None,
        })
    }
}

/// Index of `tenant`'s first event at or after `from` in `log`
/// (`events.len()` when none is left).
fn next_event(log: &TraceLog, tenant: usize, from: usize) -> usize {
    let rest = log.events.get(from..).unwrap_or_default();
    rest.iter()
        .position(|e| usize::from(e.tenant) == tenant)
        .map_or(log.events.len(), |i| from + i)
}

/// `(rate_kiops, window_end_ns)` of the phase containing cycle position
/// `pos_ns` (relative to the cycle start).
fn phase_window(phases: &[Phase], pos_ns: f64) -> (f64, f64) {
    let mut acc = 0.0;
    for ph in phases {
        acc += ph.dur_ms * 1e6;
        if pos_ns < acc {
            return (ph.rate_kiops, acc);
        }
    }
    let last = phases[phases.len() - 1];
    (last.rate_kiops, acc)
}

/// The phase containing cycle position `pos_ns`.
fn phase_at(phases: &[Phase], pos_ns: f64) -> &Phase {
    let mut acc = 0.0;
    for ph in phases {
        acc += ph.dur_ms * 1e6;
        if pos_ns < acc {
            return ph;
        }
    }
    &phases[phases.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json::parse;

    fn spec(src: &str) -> Result<TrafficSpec, String> {
        TrafficSpec::from_json(&parse(src).expect("valid json"))
    }

    #[test]
    fn parses_every_model() {
        assert_eq!(
            spec(r#"{"model": "poisson", "rate_kiops": 80}"#)
                .unwrap()
                .model,
            ArrivalModel::Poisson
        );
        assert_eq!(
            spec(r#"{"model": "bursty", "on_ms": 2, "off_ms": 8}"#)
                .unwrap()
                .model,
            ArrivalModel::Bursty {
                on_ms: 2.0,
                off_ms: 8.0
            }
        );
        assert!(matches!(
            spec(r#"{"model": "diurnal", "trough_frac": 0.2, "period_ms": 50}"#)
                .unwrap()
                .model,
            ArrivalModel::Diurnal { .. }
        ));
        let ph = spec(
            r#"{"model": "phased", "phases": [
                {"dur_ms": 10, "rate_kiops": 60, "read_fraction": 1.0},
                {"dur_ms": 5, "rate_kiops": 90, "read_fraction": 0.0, "blocks": 16}
            ]}"#,
        )
        .unwrap();
        match ph.model {
            ArrivalModel::Phased { phases } => {
                assert_eq!(phases.len(), 2);
                assert_eq!(phases[1].blocks, Some(16));
            }
            other => panic!("expected phased, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for (src, needle) in [
            (r#"{"model": "poisson", "ratez": 1}"#, "unknown key"),
            (r#"{"rate_kiops": 10}"#, "\"model\" is required"),
            (r#"{"model": "sawtooth"}"#, "unknown model"),
            (r#"{"model": "poisson", "on_ms": 2}"#, "does not apply"),
            (r#"{"model": "bursty", "on_ms": 2}"#, "off_ms"),
            (
                r#"{"model": "diurnal", "trough_frac": 0, "period_ms": 5}"#,
                "trough_frac",
            ),
            (r#"{"model": "phased", "phases": []}"#, "non-empty"),
            (
                r#"{"model": "phased", "phases": [{"dur_ms": 1, "rate_kiops": 0, "read_fraction": 1}]}"#,
                "rate > 0",
            ),
            (
                r#"{"model": "poisson", "size_mix": [[0, 1]]}"#,
                "blocks must be",
            ),
            (
                r#"{"model": "poisson", "churn": [{"at_s": 0.1, "tenants": 2}]}"#,
                "for_s",
            ),
            (
                r#"{"model": "poisson", "churn": [{"at_s": 0.1, "for_s": 0.01, "tenants": 0}]}"#,
                "tenants",
            ),
        ] {
            let e = spec(src).expect_err(src);
            assert!(e.contains(needle), "{src}: {e} !~ {needle}");
        }
    }

    #[test]
    fn zipf_weights_skew_and_normalise() {
        let uniform = zipf_weights(4, None);
        assert!(uniform.iter().all(|&w| (w - 1.0).abs() < 1e-12));
        let skewed = zipf_weights(4, Some(1.0));
        assert!(skewed[0] > skewed[1] && skewed[1] > skewed[3]);
        let sum: f64 = skewed.iter().sum();
        assert!((sum - 4.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn generator_is_seed_deterministic() {
        let s = spec(
            r#"{"model": "bursty", "on_ms": 1, "off_ms": 3,
                "rate_kiops": 120, "size_mix": [[1, 3], [8, 1]]}"#,
        )
        .unwrap();
        let run = |seed| {
            let mut g = TenantTraffic::new(&s, seed, 1, 3);
            let mut t = 0u64;
            let mut out = Vec::new();
            for _ in 0..200 {
                t += g.next_gap_ns(t);
                out.push((t, g.draw(t, 8, Mix::READ)));
            }
            out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bursty_arrivals_stay_inside_on_windows() {
        let s = spec(r#"{"model": "bursty", "on_ms": 2, "off_ms": 6, "rate_kiops": 400}"#).unwrap();
        let mut g = TenantTraffic::new(&s, 11, 0, 1);
        let mut t = 0u64;
        for _ in 0..500 {
            t += g.next_gap_ns(t);
            let pos = t % 8_000_000;
            assert!(pos <= 2_000_000, "arrival at off-window position {pos}");
        }
    }

    #[test]
    fn phased_switches_read_fraction_and_blocks() {
        let s = spec(
            r#"{"model": "phased", "phases": [
                {"dur_ms": 10, "rate_kiops": 50, "read_fraction": 1.0},
                {"dur_ms": 10, "rate_kiops": 50, "read_fraction": 0.0, "blocks": 32}
            ]}"#,
        )
        .unwrap();
        let mut g = TenantTraffic::new(&s, 3, 0, 1);
        let shape = |a: Option<Arrival>| a.map(|a| (a.write, a.blocks));
        // Phase 0 (first 10 ms): all reads at the default size.
        assert_eq!(shape(g.draw(1_000_000, 8, Mix::READ)), Some((false, 8)));
        // Phase 1: all writes at 32 blocks.
        assert_eq!(shape(g.draw(15_000_000, 8, Mix::READ)), Some((true, 32)));
        assert_eq!(s.max_blocks(8), 32);
    }

    /// A trace tenant walks only its own events, each at its own time —
    /// two at one instant stay 0 ns apart — and draws nothing.
    #[test]
    fn trace_tenant_walks_its_own_events() {
        let log = TraceLog::from_text(
            "5,1,TC,R,10,1\n7,0,LS,W,20,2\n7,1,LS,R,30,3\n7,1,TC,W,40,4\n9,2,TC,R,50,1",
        )
        .unwrap();
        let spec = TrafficSpec {
            model: ArrivalModel::Trace(Arc::new(log)),
            ..TrafficSpec::default()
        };
        assert_eq!(spec.max_blocks(1), 4);
        let mut g = TenantTraffic::new(&spec, 99, 1, 3);
        let mut now = 0;
        let mut walked = Vec::new();
        while let Some(a) = {
            now += g.next_gap_ns(now);
            g.draw(now, 1, Mix::READ)
        } {
            let ls = a.class == ReqClass::LatencySensitive;
            walked.push((now, ls, a.write, a.lba, a.blocks));
        }
        assert_eq!(
            walked,
            [
                (5, false, false, Some(10), 1),
                (7, true, false, Some(30), 3),
                (7, false, true, Some(40), 4),
            ]
        );
        assert_eq!(now, u64::MAX, "an exhausted trace arrives never");
        // A tenant the trace does not name issues nothing.
        let mut idle = TenantTraffic::new(&spec, 99, 3, 4);
        assert_eq!(idle.next_gap_ns(0), u64::MAX);
        assert_eq!(idle.draw(0, 1, Mix::READ), None);
    }

    #[test]
    fn diurnal_rate_dips_at_the_trough() {
        let s =
            spec(r#"{"model": "diurnal", "trough_frac": 0.1, "period_ms": 10, "rate_kiops": 200}"#)
                .unwrap();
        let mut g = TenantTraffic::new(&s, 5, 0, 1);
        let mut t = 0u64;
        let (mut near_peak, mut near_trough) = (0u64, 0u64);
        while t < 400_000_000 {
            t += g.next_gap_ns(t);
            let x = (t % 10_000_000) as f64 / 10_000_000.0;
            if (0.4..0.6).contains(&x) {
                near_peak += 1;
            }
            if !(0.1..0.9).contains(&x) {
                near_trough += 1;
            }
        }
        assert!(
            near_peak > near_trough * 2,
            "peak {near_peak} vs trough {near_trough}"
        );
    }
}
