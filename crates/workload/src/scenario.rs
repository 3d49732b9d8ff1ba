//! Scenario descriptions: everything needed to reproduce one data point
//! of a figure.

use crate::mix::Mix;
use crate::traffic::ArrivalModel;
use cluster::MigrationSpec;
use fabric::Gbps;

/// NVMe-oF transport binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// NVMe/TCP (the paper's transport).
    Tcp,
    /// NVMe/RDMA (cost-model approximation; see `CpuCosts::to_rdma`).
    Rdma,
}

/// Logical-block access pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Sequential within the initiator's region (the paper's workloads).
    Sequential,
    /// Uniform random within the region.
    Random,
}

/// Which runtime serves the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    /// The SPDK-style baseline (FIFO, one notification per request).
    Spdk,
    /// NVMe-oPF (priority managers, coalescing, LS bypass).
    Opf,
}

impl RuntimeKind {
    /// Label used in figure output ("S" / "PF", as in the paper's
    /// Figure 6).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Spdk => "SPDK",
            RuntimeKind::Opf => "NVMe-oPF",
        }
    }
}

/// Window selection for NVMe-oPF initiators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowSpec {
    /// Fixed size.
    Static(u32),
    /// The §IV-D static selection table (speed/mix/tenancy-aware).
    Auto,
    /// The §IV-D runtime hill-climbing optimizer.
    Dynamic,
}

/// The fabric speed a scenario runs at: [`fabric::Gbps`] under the name
/// the scenario API has always used.
pub use fabric::Gbps as Speed;

/// One experiment configuration.
///
/// Topology follows the paper's setups: `pairs` initiator-node/target-node
/// pairs; each initiator-node runs `ls_per_node` latency-sensitive and
/// `tc_per_node` throughput-critical initiator processes, all connected
/// to the paired target-node's single NVMe-oF target/SSD.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Runtime under test.
    pub runtime: RuntimeKind,
    /// Fabric speed.
    pub speed: Speed,
    /// Number of initiator-node/target-node pairs, in
    /// `[1, Scenario::MAX_PAIRS]`. Pairs share nothing, so the runner
    /// simulates each one as its own group, on its own kernel, in
    /// parallel with the others, and merges them in pair order
    /// ([`crate::run`]); results do not depend on the core count.
    pub pairs: usize,
    /// LS initiators per initiator-node (queue depth 1).
    pub ls_per_node: usize,
    /// TC initiators per initiator-node (queue depth 128).
    pub tc_per_node: usize,
    /// Read/write mix of the TC stream (LS probes use the same mix).
    pub mix: Mix,
    /// I/O size in 4K blocks (paper: 1 = 4K).
    pub io_blocks: u16,
    /// Access pattern (paper: sequential).
    pub pattern: Pattern,
    /// Transport binding (paper: TCP).
    pub transport: Transport,
    /// TC queue depth (paper: 128). Every LS tenant runs at queue
    /// depth 1.
    pub tc_qd: usize,
    /// Window policy (NVMe-oPF only).
    pub window: WindowSpec,
    /// Warmup simulated seconds (excluded from measurement).
    pub warmup_s: f64,
    /// Measured simulated seconds.
    pub measure_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Place each initiator on its own node (Figure 7's setup: up to 5
    /// individual initiator nodes). When false, a pair's initiators
    /// share one node NIC (Figures 8/9 co-locate initiators per node).
    pub separate_nodes: bool,
    /// Ablation: shared TC queue instead of per-initiator.
    pub shared_queue: bool,
    /// Ablation: disable the LS bypass.
    pub no_ls_bypass: bool,
    /// Fault-injection profile. `None` (the default everywhere) means a
    /// perfect fabric and the exact pre-faults event sequence.
    pub faults: Option<faults::FaultProfile>,
    /// Kernel shard / target reactor count. Tenants are assigned
    /// round-robin to shards; a shard is a label on kernel events and
    /// on each tenant's connection.
    /// Shard count is *unobservable in results* by construction
    /// (DESIGN.md §13) — any value replays bit-identically to 1 — which
    /// the shard-differential test suite enforces.
    pub shards: usize,
    /// Number of NVMe-oF targets per pair. 1 (the default) is the
    /// paper's topology, bit-identical to pre-cluster builds; >1 makes
    /// the run a cluster ([`Scenario::is_cluster`]): per-target
    /// endpoints/SSDs behind a leaf/spine fabric, tenant slot *i* on
    /// target *i* mod `targets`, and the cluster priority manager
    /// ticking (DESIGN.md §16). Cluster mode is NVMe-oPF only, one pair.
    pub targets: usize,
    /// Live migrations to run, each moving one tenant to another target
    /// mid-measurement. Non-empty makes the run a cluster and so arms
    /// the recovery plane (retry + re-drain), since the post-move
    /// re-drive rides the recovery re-issue path.
    pub migrations: Vec<MigrationSpec>,
    /// Route cross-lane schedules through the kernel's mailbox
    /// mesh (DESIGN.md §17) instead of pushing straight into the queue.
    /// Results are byte-identical either way — the order key is the
    /// `(time, seq)` stamp regardless of the route —
    /// but `true` exercises the cross-shard mailbox under a full
    /// workload and reports the smallest cross-lane scheduling slack
    /// through [`crate::runner::RunResult::parallel_min_slack_ns`].
    /// Default `false`: the classic direct path, untouched.
    pub parallel: bool,
    /// Open-loop traffic model for the TC tenants (PR 10): arrival
    /// process, size mix, Zipf popularity skew, churn storms. `None`
    /// (the default) keeps every tenant on the historical closed-loop
    /// generator — legacy runs are byte-identical.
    pub traffic: Option<crate::traffic::TrafficSpec>,
}

/// Why a [`Scenario`] cannot be run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// `ls_per_node + tc_per_node` exceeds the tenant-id space.
    TooManyTenants {
        /// Tenants per node asked for.
        tenants: usize,
        /// Largest count the scenario's mode can address.
        max: usize,
    },
    /// A cluster on the baseline runtime, which has no cluster
    /// manager or migration plane.
    ClusterNeedsOpf,
    /// A cluster with `pairs != 1`: the targets axis replaces the pairs
    /// axis.
    ClusterNeedsOnePair {
        /// Pairs asked for.
        pairs: usize,
    },
    /// A migration names a tenant the node does not have.
    MigrationTenantOutOfRange {
        /// Tenant index asked for.
        tenant: usize,
        /// Tenants per node.
        tenants: usize,
    },
    /// A migration names a target the cluster does not have.
    MigrationTargetOutOfRange {
        /// Destination asked for.
        to_target: usize,
        /// Cluster size.
        targets: usize,
    },
    /// A fault plan names an initiator link the run does not have; the
    /// fault would silently never fire.
    FaultIndexOutOfRange {
        /// Which knob: `"flap link"`, `"crash tenant"` or
        /// `"adversary link"`.
        what: &'static str,
        /// Index asked for.
        index: usize,
        /// Initiators in the run (fault-plane links are global tenant
        /// indices).
        initiators: usize,
    },
    /// A TC queue depth outside `[1, max]`: on NVMe-oPF `max` is
    /// `opf::MAX_QUEUE_DEPTH`, since the target's queue keys cannot hold
    /// the CIDs a deeper queue pair allocates (it would drop them as out
    /// of range); on the baseline it is [`nvmf::QPair::MAX_DEPTH`].
    QueueDepthOutOfRange {
        /// Depth asked for.
        qd: usize,
        /// Deepest queue pair the runtime can build.
        max: usize,
    },
    /// More kernel shards than [`simkit::Kernel::MAX_SHARDS`]: every
    /// shard preallocates a lane, so an absurd count would abort the
    /// process on allocation instead of running.
    ShardsOutOfRange {
        /// Shards asked for.
        shards: usize,
        /// Largest count the kernel accepts.
        max: usize,
    },
    /// `pairs` outside `[1, Scenario::MAX_PAIRS]`: zero pairs would
    /// measure nothing.
    PairsOutOfRange {
        /// Pairs asked for.
        pairs: usize,
        /// Largest count the runner accepts.
        max: usize,
    },
    /// More targets per pair than [`Scenario::MAX_TARGETS`].
    TargetsOutOfRange {
        /// Targets asked for.
        targets: usize,
        /// Largest count the runner accepts.
        max: usize,
    },
    /// `warmup_s + measure_s + faults.settle_s` past one simulated hour
    /// ([`Scenario::MAX_DURATION_NS`]): the run would not end in any
    /// useful host time.
    DurationOutOfRange {
        /// Simulated seconds asked for, rounded up.
        seconds: u64,
        /// Longest run the runner accepts, in seconds.
        max: u64,
    },
    /// A zero keep-alive period: the heartbeat would re-arm itself at
    /// the same instant forever.
    KeepAliveZero,
    /// A trace event names a tenant past the scenario's TC tenants; its
    /// requests would silently never be issued.
    TraceTenantOutOfRange {
        /// Largest tenant the trace names.
        tenant: usize,
        /// TC tenants in the run (`pairs × tc_per_node`).
        tenants: usize,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ScenarioError::TooManyTenants { tenants, max } => write!(
                f,
                "{tenants} tenants per node exceed the tenant-id space (at most {max} here)"
            ),
            ScenarioError::ClusterNeedsOpf => write!(
                f,
                "cluster scenarios (targets > 1 or migrations) require the NVMe-oPF runtime"
            ),
            ScenarioError::ClusterNeedsOnePair { pairs } => write!(
                f,
                "cluster scenarios replace the pairs axis with the targets axis (pairs = {pairs}, want 1)"
            ),
            ScenarioError::MigrationTenantOutOfRange { tenant, tenants } => write!(
                f,
                "migration tenant {tenant} out of range ({tenants} tenants per node)"
            ),
            ScenarioError::MigrationTargetOutOfRange { to_target, targets } => write!(
                f,
                "migration to_target {to_target} out of range (targets = {targets})"
            ),
            ScenarioError::FaultIndexOutOfRange {
                what,
                index,
                initiators,
            } => write!(
                f,
                "fault {what} {index} out of range ({initiators} initiators)"
            ),
            ScenarioError::QueueDepthOutOfRange { qd, max } => {
                write!(f, "tc_qd = {qd} outside the queue-depth range [1, {max}]")
            }
            ScenarioError::ShardsOutOfRange { shards, max } => {
                write!(f, "shards = {shards} out of range (at most {max})")
            }
            ScenarioError::PairsOutOfRange { pairs, max } => {
                write!(f, "pairs = {pairs} outside the range [1, {max}]")
            }
            ScenarioError::TargetsOutOfRange { targets, max } => {
                write!(f, "targets = {targets} out of range (at most {max})")
            }
            ScenarioError::DurationOutOfRange { seconds, max } => write!(
                f,
                "warmup_s + measure_s + settle_s = {seconds} s out of range (at most {max} s)"
            ),
            ScenarioError::KeepAliveZero => write!(f, "keep-alive period must be positive"),
            ScenarioError::TraceTenantOutOfRange { tenant, tenants } => write!(
                f,
                "trace tenant {tenant} out of range ({tenants} TC tenants)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Largest `pairs` a scenario may ask for. The runner builds a
    /// kernel and a stack per pair, so a count taken from outside input
    /// is checked against this first (the largest run on record uses 8).
    pub const MAX_PAIRS: usize = 1024;

    /// Largest `targets` a scenario may ask for, checked for the same
    /// reason (the largest run on record uses 2). A cluster node holds at
    /// most 63 tenants, so further targets could only sit idle.
    pub const MAX_TARGETS: usize = 64;

    /// Longest run a scenario may ask for, warmup, measure window and
    /// settle time together: one simulated hour, in nanoseconds. A
    /// longer one would not end in any useful host time.
    pub const MAX_DURATION_NS: u64 = 3_600_000_000_000;

    /// A 1 LS : 1 TC two-tenant scenario on one pair — the Figure 6(a)
    /// baseline shape.
    pub fn two_tenant(runtime: RuntimeKind, speed: Gbps, mix: Mix) -> Scenario {
        Scenario {
            runtime,
            speed,
            pairs: 1,
            ls_per_node: 1,
            tc_per_node: 1,
            mix,
            io_blocks: 1,
            pattern: Pattern::Sequential,
            transport: Transport::Tcp,
            tc_qd: 128,
            window: WindowSpec::Auto,
            warmup_s: 0.25,
            measure_s: 1.0,
            seed: 42,
            separate_nodes: false,
            shared_queue: false,
            no_ls_bypass: false,
            faults: None,
            shards: 1,
            targets: 1,
            migrations: Vec::new(),
            parallel: false,
            traffic: None,
        }
    }

    /// The Figure 7 ratio scenarios: `ls` + `tc` tenants, each on its
    /// own initiator node, all against one target.
    pub fn ratio(runtime: RuntimeKind, speed: Gbps, mix: Mix, ls: usize, tc: usize) -> Scenario {
        Scenario {
            ls_per_node: ls,
            tc_per_node: tc,
            separate_nodes: true,
            ..Scenario::two_tenant(runtime, speed, mix)
        }
    }

    /// Total number of initiators across all pairs.
    pub fn total_initiators(&self) -> usize {
        self.pairs * (self.ls_per_node + self.tc_per_node)
    }

    /// The ratio label the paper uses on Figure 7's x-axis ("1:4").
    pub fn ratio_label(&self) -> String {
        format!("{}:{}", self.ls_per_node, self.tc_per_node)
    }

    /// True when the run is a cluster: more than one target, or any
    /// live migration scheduled. The runner installs the cluster plane
    /// (switched topology, manager ticks, migrations, always-armed
    /// recovery) exactly when this holds.
    pub fn is_cluster(&self) -> bool {
        self.targets > 1 || !self.migrations.is_empty()
    }

    /// Reject scenarios the runner cannot build. Every entry point that
    /// turns outside input into a `Scenario` (sweep and campaign specs,
    /// `repro` flags) calls this and reports the error; [`crate::run`]
    /// calls it once more as its only precondition.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let tenants = self.ls_per_node.saturating_add(self.tc_per_node);
        // Tenant ids are `slot as u8` with 255 reserved for the shared
        // queue. An NVMe-oPF target packs the id into the 6-bit owner
        // field of its CID-queue keys, so ids past 63 would alias; the
        // cluster plane has always stopped one short of that.
        let max = match (self.is_cluster(), self.runtime) {
            (true, _) => 63,
            (false, RuntimeKind::Opf) => 64,
            (false, RuntimeKind::Spdk) => 254,
        };
        if tenants > max {
            return Err(ScenarioError::TooManyTenants { tenants, max });
        }
        if self.shards > simkit::Kernel::MAX_SHARDS {
            return Err(ScenarioError::ShardsOutOfRange {
                shards: self.shards,
                max: simkit::Kernel::MAX_SHARDS,
            });
        }
        if !(1..=Scenario::MAX_PAIRS).contains(&self.pairs) {
            return Err(ScenarioError::PairsOutOfRange {
                pairs: self.pairs,
                max: Scenario::MAX_PAIRS,
            });
        }
        if self.targets > Scenario::MAX_TARGETS {
            return Err(ScenarioError::TargetsOutOfRange {
                targets: self.targets,
                max: Scenario::MAX_TARGETS,
            });
        }
        let max_s = Scenario::MAX_DURATION_NS / 1_000_000_000;
        let settle_s = self.faults.as_ref().map_or(0.0, |f| f.settle_s);
        let span_s = self.warmup_s + self.measure_s + settle_s;
        if span_s.is_nan() || span_s > max_s as f64 {
            return Err(ScenarioError::DurationOutOfRange {
                seconds: span_s.ceil() as u64,
                max: max_s,
            });
        }
        let max = match self.runtime {
            RuntimeKind::Opf => opf::MAX_QUEUE_DEPTH,
            RuntimeKind::Spdk => nvmf::QPair::MAX_DEPTH,
        };
        if !(1..=max).contains(&self.tc_qd) {
            return Err(ScenarioError::QueueDepthOutOfRange {
                qd: self.tc_qd,
                max,
            });
        }
        if let Some(ArrivalModel::Trace(log)) = self.traffic.as_ref().map(|t| &t.model) {
            let tenants = self.pairs.saturating_mul(self.tc_per_node);
            if let Some(tenant) = log.events.iter().map(|e| usize::from(e.tenant)).max() {
                if tenant >= tenants {
                    return Err(ScenarioError::TraceTenantOutOfRange { tenant, tenants });
                }
            }
        }
        if let Some(f) = &self.faults {
            if f.keepalive.is_some_and(|ka| ka.every.is_zero()) {
                return Err(ScenarioError::KeepAliveZero);
            }
            let initiators = self.total_initiators();
            let flaps = f.flaps.iter().map(|x| ("flap link", x.link));
            let crashes = f.crashes.iter().map(|x| ("crash tenant", x.tenant));
            let adversary = f.adversary.iter().map(|a| ("adversary link", a.link));
            for (what, index) in flaps.chain(crashes).chain(adversary) {
                if index >= initiators {
                    return Err(ScenarioError::FaultIndexOutOfRange {
                        what,
                        index,
                        initiators,
                    });
                }
            }
        }
        if !self.is_cluster() {
            return Ok(());
        }
        if self.runtime != RuntimeKind::Opf {
            return Err(ScenarioError::ClusterNeedsOpf);
        }
        if self.pairs != 1 {
            return Err(ScenarioError::ClusterNeedsOnePair { pairs: self.pairs });
        }
        let targets = self.targets.max(1);
        for m in &self.migrations {
            if m.tenant >= tenants {
                return Err(ScenarioError::MigrationTenantOutOfRange {
                    tenant: m.tenant,
                    tenants,
                });
            }
            if m.to_target >= targets {
                return Err(ScenarioError::MigrationTargetOutOfRange {
                    to_target: m.to_target,
                    targets,
                });
            }
        }
        Ok(())
    }

    /// Resolve the window policy for this scenario.
    pub fn resolve_window(&self) -> opf::WindowPolicy {
        match self.window {
            WindowSpec::Static(w) => opf::WindowPolicy::Static(w),
            WindowSpec::Auto => opf::WindowPolicy::Static(opf::optimal_window(
                self.speed,
                self.mix.write_fraction(),
                self.tc_per_node,
            )),
            WindowSpec::Dynamic => opf::WindowPolicy::Dynamic { initial: 16 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let s = Scenario::two_tenant(RuntimeKind::Opf, Gbps::G100, Mix::READ);
        assert_eq!(s.total_initiators(), 2);
        assert_eq!(s.ratio_label(), "1:1");
        let s = Scenario::ratio(RuntimeKind::Spdk, Gbps::G10, Mix::WRITE, 1, 4);
        assert_eq!(s.total_initiators(), 5);
        assert_eq!(s.ratio_label(), "1:4");
    }

    #[test]
    fn auto_window_resolves_from_table() {
        let s = Scenario::two_tenant(RuntimeKind::Opf, Gbps::G100, Mix::READ);
        assert_eq!(s.resolve_window(), opf::WindowPolicy::Static(32));
        let s = Scenario::two_tenant(RuntimeKind::Opf, Gbps::G10, Mix::READ);
        assert_eq!(s.resolve_window(), opf::WindowPolicy::Static(16));
    }

    #[test]
    fn validate_rejects_what_the_runner_cannot_build() {
        use simkit::{SimDuration, SimTime};
        use ScenarioError::*;
        let opf = || Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 4);
        let cluster = || Scenario {
            targets: 2,
            ..opf()
        };
        let moving = |tenant, to_target| Scenario {
            migrations: vec![MigrationSpec {
                tenant,
                at_s: 0.01,
                to_target,
            }],
            ..cluster()
        };
        // Fault-plane links are global tenant indices: 0..5 here.
        let faulty = |flap, crash, adversary| Scenario {
            faults: Some(faults::FaultProfile {
                flaps: vec![faults::LinkFlap {
                    link: flap,
                    at: SimTime::ZERO,
                    dur: SimDuration::from_micros(1),
                }],
                crashes: vec![faults::Crash {
                    tenant: crash,
                    at: SimTime::ZERO,
                    dur: SimDuration::from_micros(1),
                }],
                adversary: Some(faults::Adversary {
                    link: adversary,
                    ..faults::Adversary::default()
                }),
                ..faults::FaultProfile::default()
            }),
            ..opf()
        };
        let out_of_range = |what| {
            Err(FaultIndexOutOfRange {
                what,
                index: 5,
                initiators: 5,
            })
        };
        let keepalive = |us| Scenario {
            faults: Some(faults::FaultProfile {
                keepalive: Some(faults::KeepAliveSpec {
                    every: SimDuration::from_micros(us),
                    kato: SimDuration::from_micros(3 * us),
                }),
                ..faults::FaultProfile::default()
            }),
            ..opf()
        };
        // Trace tenants are TC tenant indices: 0..4 here.
        let traced = |tenant| Scenario {
            traffic: Some(crate::TrafficSpec {
                model: ArrivalModel::Trace(std::sync::Arc::new(crate::TraceLog {
                    events: vec![crate::TraceEvent {
                        at_ns: 0,
                        tenant,
                        ls: false,
                        write: false,
                        lba: 0,
                        blocks: 1,
                    }],
                })),
                ..crate::TrafficSpec::default()
            }),
            ..opf()
        };
        let cases: [(Scenario, Result<(), ScenarioError>); 33] = [
            (traced(3), Ok(())),
            (
                traced(4),
                Err(TraceTenantOutOfRange {
                    tenant: 4,
                    tenants: 4,
                }),
            ),
            (opf(), Ok(())),
            (cluster(), Ok(())),
            (moving(4, 1), Ok(())),
            (faulty(4, 4, 4), Ok(())),
            (faulty(5, 4, 4), out_of_range("flap link")),
            (faulty(4, 5, 4), out_of_range("crash tenant")),
            (faulty(4, 4, 5), out_of_range("adversary link")),
            (
                Scenario {
                    tc_qd: 1024,
                    ..opf()
                },
                Ok(()),
            ),
            (
                Scenario {
                    tc_qd: 1025,
                    ..opf()
                },
                Err(QueueDepthOutOfRange {
                    qd: 1025,
                    max: 1024,
                }),
            ),
            (
                Scenario {
                    tc_qd: 2048,
                    runtime: RuntimeKind::Spdk,
                    ..opf()
                },
                Ok(()),
            ),
            (
                Scenario {
                    tc_qd: 0,
                    runtime: RuntimeKind::Spdk,
                    ..opf()
                },
                Err(QueueDepthOutOfRange { qd: 0, max: 65535 }),
            ),
            (
                Scenario {
                    tc_per_node: 64,
                    ..opf()
                },
                Err(TooManyTenants {
                    tenants: 65,
                    max: 64,
                }),
            ),
            (
                Scenario {
                    ls_per_node: 0,
                    tc_per_node: 255,
                    runtime: RuntimeKind::Spdk,
                    ..opf()
                },
                Err(TooManyTenants {
                    tenants: 255,
                    max: 254,
                }),
            ),
            (
                Scenario {
                    tc_per_node: 63,
                    ..cluster()
                },
                Err(TooManyTenants {
                    tenants: 64,
                    max: 63,
                }),
            ),
            (
                Scenario {
                    runtime: RuntimeKind::Spdk,
                    ..cluster()
                },
                Err(ClusterNeedsOpf),
            ),
            (
                Scenario {
                    pairs: 2,
                    ..cluster()
                },
                Err(ClusterNeedsOnePair { pairs: 2 }),
            ),
            (
                moving(5, 1),
                Err(MigrationTenantOutOfRange {
                    tenant: 5,
                    tenants: 5,
                }),
            ),
            (
                moving(1, 2),
                Err(MigrationTargetOutOfRange {
                    to_target: 2,
                    targets: 2,
                }),
            ),
            // `0` clamps to one shard in the runner, as it always has.
            (Scenario { shards: 0, ..opf() }, Ok(())),
            (
                Scenario {
                    shards: 1024,
                    ..opf()
                },
                Ok(()),
            ),
            (
                Scenario {
                    shards: 100_000_000_000,
                    ..opf()
                },
                Err(ShardsOutOfRange {
                    shards: 100_000_000_000,
                    max: 1024,
                }),
            ),
            // Ran and reported `completed 0` at ac48d8c.
            (
                Scenario { pairs: 0, ..opf() },
                Err(PairsOutOfRange {
                    pairs: 0,
                    max: 1024,
                }),
            ),
            // Both aborted the process on allocation at 363394b.
            (
                Scenario {
                    pairs: 1024,
                    ..opf()
                },
                Ok(()),
            ),
            (
                Scenario {
                    pairs: 100_000_000_000,
                    ..opf()
                },
                Err(PairsOutOfRange {
                    pairs: 100_000_000_000,
                    max: 1024,
                }),
            ),
            (
                Scenario {
                    targets: 64,
                    ..cluster()
                },
                Ok(()),
            ),
            (
                Scenario {
                    targets: 100_000_000_000,
                    ..cluster()
                },
                Err(TargetsOutOfRange {
                    targets: 100_000_000_000,
                    max: 64,
                }),
            ),
            // Both simulated without end at 42de97b.
            (keepalive(4000), Ok(())),
            (keepalive(0), Err(KeepAliveZero)),
            (
                Scenario {
                    warmup_s: 0.0,
                    measure_s: 3600.0,
                    ..opf()
                },
                Ok(()),
            ),
            (
                Scenario {
                    measure_s: 3600.0,
                    ..keepalive(4000)
                },
                Err(DurationOutOfRange {
                    seconds: 3601,
                    max: 3600,
                }),
            ),
            (
                Scenario {
                    measure_s: 1e9,
                    ..opf()
                },
                Err(DurationOutOfRange {
                    seconds: 1_000_000_001,
                    max: 3600,
                }),
            ),
        ];
        for (sc, want) in cases {
            assert_eq!(sc.validate(), want, "{sc:?}");
            if let Err(e) = want {
                assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(RuntimeKind::Spdk.label(), "SPDK");
        assert_eq!(RuntimeKind::Opf.label(), "NVMe-oPF");
    }
}
