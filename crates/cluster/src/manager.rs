//! Cluster-level Priority Manager.
//!
//! Each [`opf::OpfTarget`] runs the paper's per-target priority logic in
//! isolation; nothing below this module sees more than one box. The
//! cluster manager closes that gap: on a fixed tick it aggregates every
//! target's per-tenant TC staging depth and rebalances **drain weights**
//! — a tenant whose staged queue runs deeper than the cluster mean gets
//! its drain-rate token refill scaled up (it is being starved relative
//! to its peers), a shallow one is scaled down. Weights only matter when
//! the target has a [`opf::DrainRateLimit`] configured, so single-target
//! scenarios without rate limiting are untouched by construction.
//!
//! Idle tenants do not keep stale weights: once a tenant's staged queue
//! empties, its weight decays geometrically back toward the neutral 1.0
//! and snaps there once it is close, so a burst that once earned the
//! 4.0 clamp cannot keep taxing its peers forever. Tenants that are
//! mid-migration (watched through [`ClusterPriorityManager::watch`])
//! are skipped entirely — their queues are frozen or in flight between
//! targets, and reacting to a frozen depth would actuate on garbage.
//!
//! The actuation is deliberately a *weight*, not a queue raid: moving
//! commands between targets is migration's job ([`crate::migration`]),
//! and the manager never touches protocol state.

use crate::migration::{Migration, MigrationState};
use opf::OpfTarget;
use simkit::Shared;
use std::collections::{BTreeMap, BTreeSet};

/// Multiplicative clamp on the per-tenant weight so one pathological
/// tenant cannot zero out (or monopolize) a target's drain budget.
const WEIGHT_MIN: f64 = 0.25;
const WEIGHT_MAX: f64 = 4.0;

/// Geometric decay factor applied to an idle tenant's distance from the
/// neutral weight on every tick: `w' = 1 + (w - 1) * WEIGHT_DECAY`.
const WEIGHT_DECAY: f64 = 0.5;

/// Once an idle tenant's weight is within this band of 1.0 it snaps to
/// exactly 1.0 and stops generating actuations.
const WEIGHT_SNAP: f64 = 0.01;

/// The per-tenant load surface the manager consumes and actuates on.
///
/// [`OpfTarget`] is the production implementation; tests supply fakes so
/// the rebalance/decay arithmetic can be pinned without standing up a
/// full fabric rig.
pub trait TenantLoad {
    /// Sum of every tenant's TC staging-queue depth on this target.
    fn total_tc_depth(&self) -> usize;
    /// Connected tenant ids, in deterministic order.
    fn tenant_ids(&self) -> Vec<u8>;
    /// One tenant's TC staging-queue depth.
    fn tc_queue_depth(&self, tenant: u8) -> usize;
    /// Actuate the drain-rate weight for one tenant.
    fn set_tenant_weight(&mut self, tenant: u8, weight: f64);
}

impl TenantLoad for OpfTarget {
    fn total_tc_depth(&self) -> usize {
        OpfTarget::total_tc_depth(self)
    }
    fn tenant_ids(&self) -> Vec<u8> {
        OpfTarget::tenant_ids(self)
    }
    fn tc_queue_depth(&self, tenant: u8) -> usize {
        OpfTarget::tc_queue_depth(self, tenant)
    }
    fn set_tenant_weight(&mut self, tenant: u8, weight: f64) {
        OpfTarget::set_tenant_weight(self, tenant, weight)
    }
}

/// Aggregated view of one manager tick, exported as `cluster.*` metrics
/// by the workload runner.
#[derive(Clone, Copy, Debug, Default)]
pub struct ManagerSnapshot {
    /// Ticks executed so far.
    pub ticks: u64,
    /// Individual `set_tenant_weight` actuations issued for *loaded*
    /// tenants (the rebalance path).
    pub weight_updates: u64,
    /// Individual `set_tenant_weight` actuations issued to decay an
    /// *idle* tenant's weight back toward 1.0.
    pub weight_decays: u64,
    /// Per-(target, tenant) observations excluded from rebalance and
    /// decay because the tenant was mid-migration when the tick ran.
    pub migrating_skipped: u64,
    /// Largest (max depth − min depth) across targets seen on any tick,
    /// in staged commands — the imbalance the manager is reacting to.
    pub max_imbalance: usize,
    /// Tenants observed cluster-wide on the last tick.
    pub tenants_seen: usize,
}

/// Aggregates per-target drain/LS pressure and rebalances tenant drain
/// weights across the cluster (DESIGN.md §16).
pub struct ClusterPriorityManager {
    targets: Vec<Shared<dyn TenantLoad>>,
    /// Migration records to consult before actuating (shared with the
    /// [`crate::migration::MigrationEngine`] that drives them).
    watched: Vec<Shared<Migration>>,
    /// Weights this manager has applied, keyed by (target index,
    /// tenant). Only tenants present here ever need decay — everyone
    /// else is already at the implicit 1.0.
    applied: BTreeMap<(usize, u8), f64>,
    snap: ManagerSnapshot,
}

impl ClusterPriorityManager {
    pub fn new(targets: Vec<Shared<OpfTarget>>) -> Self {
        Self::from_loads(
            targets
                .into_iter()
                .map(|t| t as Shared<dyn TenantLoad>)
                .collect(),
        )
    }

    /// Build a manager over any [`TenantLoad`] backend (tests, shims).
    pub fn from_loads(targets: Vec<Shared<dyn TenantLoad>>) -> Self {
        ClusterPriorityManager {
            targets,
            watched: Vec::new(),
            applied: BTreeMap::new(),
            snap: ManagerSnapshot::default(),
        }
    }

    /// Register migration records to consult on every tick. A tenant
    /// whose migration is in a non-terminal, in-flight phase (draining,
    /// frozen, adopted or redriving) is neither rebalanced nor decayed
    /// until the migration reaches a terminal state.
    pub fn watch(&mut self, records: &[Shared<Migration>]) {
        self.watched.extend(records.iter().cloned());
    }

    /// Tenants currently mid-migration, per the watched records.
    fn migrating(&self) -> BTreeSet<u8> {
        self.watched
            .iter()
            .filter(|m| {
                matches!(
                    m.borrow().state,
                    MigrationState::Draining
                        | MigrationState::Frozen
                        | MigrationState::Adopted
                        | MigrationState::Redriven
                )
            })
            .map(|m| m.borrow().tenant)
            .collect()
    }

    /// One rebalancing pass. Reads every target's per-tenant TC depth,
    /// computes the cluster-wide mean over *loaded* tenants, and sets
    /// each loaded tenant's weight to `clamp(depth / mean)`: deeper than
    /// the mean ⇒ weight > 1 ⇒ faster token refill where it lives.
    /// Idle tenants that still carry a manager-applied weight decay
    /// geometrically toward 1.0 (and snap there once close), so a
    /// tenant that once ran deep does not keep its boost forever.
    /// Tenants mid-migration are skipped on both paths.
    pub fn tick(&mut self) {
        self.snap.ticks += 1;
        let migrating = self.migrating();

        // Gather (target index, tenant, depth) deterministically:
        // targets in construction order, tenants in the target's sorted
        // connection order.
        let mut loads: Vec<(usize, u8, usize)> = Vec::new();
        let mut min_total = usize::MAX;
        let mut max_total = 0usize;
        for (ti, tgt) in self.targets.iter().enumerate() {
            let t = tgt.borrow();
            let total = t.total_tc_depth();
            min_total = min_total.min(total);
            max_total = max_total.max(total);
            for tenant in t.tenant_ids() {
                loads.push((ti, tenant, t.tc_queue_depth(tenant)));
            }
        }
        if !self.targets.is_empty() {
            let imbalance = max_total - min_total;
            if imbalance > self.snap.max_imbalance {
                self.snap.max_imbalance = imbalance;
            }
        }
        self.snap.tenants_seen = loads.len();

        // A tenant that vanished (disconnected or migrated away) takes
        // its applied-weight entry with it; the weight cannot actuate
        // without a connection.
        let observed: BTreeSet<(usize, u8)> = loads.iter().map(|&(ti, t, _)| (ti, t)).collect();
        self.applied.retain(|key, _| observed.contains(key));

        // Exclude mid-migration tenants from both paths up front: their
        // depths are frozen or in flight between targets, so neither
        // rebalancing on them nor decaying them is meaningful.
        self.snap.migrating_skipped += loads
            .iter()
            .filter(|&&(_, t, _)| migrating.contains(&t))
            .count() as u64;
        loads.retain(|&(_, t, _)| !migrating.contains(&t));

        let loaded: Vec<&(usize, u8, usize)> = loads.iter().filter(|&&(_, _, d)| d > 0).collect();
        let mean = if loaded.is_empty() {
            0.0
        } else {
            loaded.iter().map(|&&(_, _, d)| d as f64).sum::<f64>() / loaded.len() as f64
        };
        if mean > 0.0 {
            for &&(ti, tenant, depth) in &loaded {
                let w = (depth as f64 / mean).clamp(WEIGHT_MIN, WEIGHT_MAX);
                self.targets[ti].borrow_mut().set_tenant_weight(tenant, w);
                self.applied.insert((ti, tenant), w);
                self.snap.weight_updates += 1;
            }
        }

        // Decay pass: idle tenants with a lingering applied weight walk
        // back toward neutral.
        for &(ti, tenant, depth) in &loads {
            if depth > 0 {
                continue;
            }
            let Some(&w) = self.applied.get(&(ti, tenant)) else {
                continue;
            };
            let mut next = 1.0 + (w - 1.0) * WEIGHT_DECAY;
            if (next - 1.0).abs() <= WEIGHT_SNAP {
                next = 1.0;
            }
            self.targets[ti]
                .borrow_mut()
                .set_tenant_weight(tenant, next);
            self.snap.weight_decays += 1;
            if next == 1.0 {
                self.applied.remove(&(ti, tenant));
            } else {
                self.applied.insert((ti, tenant), next);
            }
        }
    }

    /// Current aggregate counters.
    pub fn snapshot(&self) -> ManagerSnapshot {
        self.snap
    }

    /// Number of targets under management.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{FabricConfig, Gbps, Network};
    use nvme::{FlashProfile, NvmeDevice};
    use nvmf::initiator::TargetRx;
    use nvmf::{CpuCosts, PduRx};
    use opf::{OpfInitiator, OpfInitiatorConfig, OpfTargetConfig};
    use simkit::{shared, SimTime, Tracer};
    use std::rc::Rc;

    /// A real (if inert) migration record for tenant `tenant`: the
    /// manager only reads `tenant` and `state`, but the record carries
    /// the full rig so it types like the engine's own.
    fn test_migration(tenant: u8) -> Migration {
        let net = Network::new(FabricConfig::preset(Gbps::G10));
        let tep = net.add_endpoint("src");
        let dep = net.add_endpoint("dst");
        let iep = net.add_endpoint("ini");
        let mk_dev = || shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 7));
        let mk_tgt = |id: u32, ep: &Shared<fabric::Endpoint>| {
            shared(OpfTarget::new(
                id,
                net.clone(),
                ep.clone(),
                mk_dev(),
                CpuCosts::cl(),
                OpfTargetConfig::default(),
                Tracer::disabled(),
            ))
        };
        let source = mk_tgt(0, &tep);
        let dest = mk_tgt(1, &dep);
        let to_dest_rx: TargetRx = Rc::new(|_, _, _| {});
        let from_dest_rx: PduRx = Rc::new(|_, _| {});
        let initiator = shared(OpfInitiator::new(
            tenant,
            4,
            net.clone(),
            iep.clone(),
            tep.clone(),
            Rc::new(|_, _, _| {}),
            CpuCosts::cl(),
            OpfInitiatorConfig::default(),
        ));
        Migration {
            tenant,
            lane: 0,
            at: SimTime::ZERO,
            initiator,
            source,
            dest,
            dest_ep: dep,
            ini_ep: iep,
            to_dest_rx,
            from_dest_rx,
            dest_shard: 0,
            state: MigrationState::Scheduled,
            history: Vec::new(),
            cmds_moved: 0,
            redriven: 0,
        }
    }

    #[test]
    fn mid_migration_tenants_are_neither_weighted_nor_decayed() {
        let fake = shared(FakeTarget::default());
        fake.borrow_mut().depths.insert(1, 30);
        fake.borrow_mut().depths.insert(2, 10);
        let mut m = manager_over(&fake);
        let rec = shared(test_migration(1));
        m.watch(std::slice::from_ref(&rec));

        // Scheduled is not in flight: the tenant is still rebalanced.
        m.tick();
        assert_eq!(fake.borrow().weight(1), 1.5);
        assert_eq!(m.snapshot().migrating_skipped, 0);

        // A loaded tenant mid-drain is not reweighted, however deep.
        rec.borrow_mut().state = MigrationState::Draining;
        fake.borrow_mut().depths.insert(1, 90);
        m.tick();
        assert_eq!(fake.borrow().weight(1), 1.5);
        assert_eq!(m.snapshot().migrating_skipped, 1);

        // An idle tenant mid-flight is not decayed either, through
        // every in-flight phase.
        fake.borrow_mut().depths.insert(1, 0);
        for st in [
            MigrationState::Frozen,
            MigrationState::Adopted,
            MigrationState::Redriven,
        ] {
            rec.borrow_mut().state = st;
            m.tick();
            assert_eq!(fake.borrow().weight(1), 1.5);
        }
        assert_eq!(m.snapshot().migrating_skipped, 4);

        // Terminal state: the decay path resumes where it left off.
        rec.borrow_mut().state = MigrationState::Done;
        m.tick();
        assert_eq!(fake.borrow().weight(1), 1.25);
    }

    /// A fake target: depths are set directly, actuations are recorded.
    #[derive(Default)]
    struct FakeTarget {
        depths: BTreeMap<u8, usize>,
        weights: BTreeMap<u8, f64>,
        actuations: usize,
    }

    impl FakeTarget {
        fn weight(&self, tenant: u8) -> f64 {
            self.weights.get(&tenant).copied().unwrap_or(1.0)
        }
    }

    impl TenantLoad for FakeTarget {
        fn total_tc_depth(&self) -> usize {
            self.depths.values().sum()
        }
        fn tenant_ids(&self) -> Vec<u8> {
            self.depths.keys().copied().collect()
        }
        fn tc_queue_depth(&self, tenant: u8) -> usize {
            self.depths.get(&tenant).copied().unwrap_or(0)
        }
        fn set_tenant_weight(&mut self, tenant: u8, weight: f64) {
            self.weights.insert(tenant, weight);
            self.actuations += 1;
        }
    }

    fn manager_over(fake: &Shared<FakeTarget>) -> ClusterPriorityManager {
        ClusterPriorityManager::from_loads(vec![fake.clone() as Shared<dyn TenantLoad>])
    }

    #[test]
    fn empty_cluster_ticks_are_safe() {
        let mut m = ClusterPriorityManager::new(Vec::new());
        m.tick();
        m.tick();
        let s = m.snapshot();
        assert_eq!(s.ticks, 2);
        assert_eq!(s.weight_updates, 0);
        assert_eq!(s.weight_decays, 0);
        assert_eq!(s.migrating_skipped, 0);
        assert_eq!(s.max_imbalance, 0);
        assert_eq!(m.target_count(), 0);
    }

    #[test]
    fn loaded_tenants_are_weighted_by_depth_ratio() {
        let fake = shared(FakeTarget::default());
        fake.borrow_mut().depths.insert(1, 30);
        fake.borrow_mut().depths.insert(2, 10);
        let mut m = manager_over(&fake);
        m.tick();
        // Mean is 20: tenant 1 gets 1.5, tenant 2 gets 0.5.
        assert_eq!(fake.borrow().weight(1), 1.5);
        assert_eq!(fake.borrow().weight(2), 0.5);
        assert_eq!(m.snapshot().weight_updates, 2);
        assert_eq!(m.snapshot().weight_decays, 0);
    }

    #[test]
    fn idle_tenant_weight_decays_back_to_neutral_and_stops() {
        let fake = shared(FakeTarget::default());
        fake.borrow_mut().depths.insert(1, 30);
        fake.borrow_mut().depths.insert(2, 10);
        let mut m = manager_over(&fake);
        m.tick();
        assert_eq!(fake.borrow().weight(1), 1.5);

        // Tenant 1 goes idle (still connected): the 1.5 halves toward
        // 1.0 each tick instead of sticking forever.
        fake.borrow_mut().depths.insert(1, 0);
        m.tick();
        assert_eq!(fake.borrow().weight(1), 1.25);
        m.tick();
        assert_eq!(fake.borrow().weight(1), 1.125);
        for _ in 0..10 {
            m.tick();
        }
        assert_eq!(fake.borrow().weight(1), 1.0);

        // Once snapped to 1.0 the decay path goes quiet: no further
        // actuations for tenant 1.
        let decays = m.snapshot().weight_decays;
        let actuations = fake.borrow().actuations;
        m.tick();
        m.tick();
        assert_eq!(m.snapshot().weight_decays, decays);
        // Tenant 2 is still loaded, so the rebalance path keeps
        // actuating it — but nothing else.
        assert_eq!(fake.borrow().actuations, actuations + 2);
    }

    #[test]
    fn weights_below_neutral_decay_upward() {
        let fake = shared(FakeTarget::default());
        fake.borrow_mut().depths.insert(1, 100);
        fake.borrow_mut().depths.insert(2, 1);
        let mut m = manager_over(&fake);
        m.tick();
        // Tenant 2 is far below the mean and clamps to WEIGHT_MIN.
        assert_eq!(fake.borrow().weight(2), WEIGHT_MIN);
        fake.borrow_mut().depths.insert(2, 0);
        m.tick();
        assert_eq!(fake.borrow().weight(2), 0.625);
        for _ in 0..10 {
            m.tick();
        }
        assert_eq!(fake.borrow().weight(2), 1.0);
    }

    #[test]
    fn vanished_tenants_drop_their_applied_entry() {
        let fake = shared(FakeTarget::default());
        fake.borrow_mut().depths.insert(1, 30);
        fake.borrow_mut().depths.insert(2, 10);
        let mut m = manager_over(&fake);
        m.tick();
        // Tenant 1 disconnects entirely (migrated away): no decay
        // actuations are issued for a tenant with no connection.
        fake.borrow_mut().depths.remove(&1);
        let before = m.snapshot().weight_decays;
        m.tick();
        m.tick();
        assert_eq!(m.snapshot().weight_decays, before);
    }
}
