//! NVMe-oPF configuration.

use simkit::SimDuration;

/// The application-facing request tag (§III-C: "By easily passing a
/// request with either latency-sensitive or throughput-critical flags,
/// user applications can observe respective performance optimizations").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqClass {
    /// Complete and respond immediately; bypass TC queues.
    LatencySensitive,
    /// Queue at the target; coalesce the completion notification.
    ThroughputCritical,
}

/// How the initiator chooses its drain window (§IV-D).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowPolicy {
    /// Fixed window size.
    Static(u32),
    /// Runtime hill-climbing: re-tuned "after a draining request
    /// completion notification is received on the initiator".
    Dynamic {
        /// Initial window size.
        initial: u32,
    },
}

impl WindowPolicy {
    /// The window the policy starts from.
    pub fn initial(self) -> u32 {
        match self {
            WindowPolicy::Static(w) => w,
            WindowPolicy::Dynamic { initial } => initial,
        }
    }
}

/// Target-side TC queue organisation — the §IV-A ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueMode {
    /// One TC queue per initiator (the paper's lock-free design).
    PerInitiator,
    /// A single TC queue shared by all initiators. Demonstrates the
    /// §IV-A failure: one tenant's drain flushes other tenants'
    /// windows early, shrinking the effective coalescing factor.
    Shared,
}

/// Initiator-side Priority Manager configuration.
#[derive(Clone, Debug)]
pub struct OpfInitiatorConfig {
    /// Drain-window policy.
    pub window: WindowPolicy,
    /// Auto-drain a partially filled window after this long without a
    /// drain (like calibrated interrupt-coalescing timeouts): bounds the
    /// latency cost of coalescing when the TC stream pauses or runs
    /// below the window rate. `None` disables the timer (the paper's
    /// design, which assumes saturating closed-loop streams).
    pub drain_timeout: Option<SimDuration>,
    /// Bounded retransmission for commands that expect a direct response
    /// (LS commands and draining TC flags). `None` disables recovery: a
    /// lost capsule hangs its CID forever, as the lossless-fabric design
    /// assumes.
    pub retry: Option<nvmf::RetryPolicy>,
    /// Retransmit an outstanding draining flag when no coalesced
    /// response has arrived after this long. Without it a drain lost on
    /// the wire strands every CID queued behind it (the window
    /// generation bump masks the loss from the drain-timeout path).
    pub redrain_timeout: Option<SimDuration>,
}

impl Default for OpfInitiatorConfig {
    fn default() -> Self {
        OpfInitiatorConfig {
            window: WindowPolicy::Static(32),
            drain_timeout: Some(SimDuration::from_micros(500)),
            retry: None,
            redrain_timeout: None,
        }
    }
}

/// Per-tenant drain-flag rate limit (DESIGN.md §14): a token bucket in
/// simulated time. Each accepted draining flag costs one token; tokens
/// refill at `per_sec` up to `burst`. A drain arriving with no token is
/// *coalesced*, not dropped — its command stays staged as plain TC and
/// is flushed by the tenant's next in-rate drain (or re-drain timer), so
/// honest traffic is never lost while a drain flood cannot force one
/// flush-plus-response per command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrainRateLimit {
    /// Sustained accepted-drain rate, per simulated second.
    pub per_sec: f64,
    /// Bucket capacity (burst tolerance).
    pub burst: u32,
}

impl Default for DrainRateLimit {
    fn default() -> Self {
        // Generous: an honest window-32 tenant drains at IOPS/32, well
        // under this even at 100 Gbps line rate; a flood setting the
        // flag on every command exceeds it by the window factor.
        DrainRateLimit {
            per_sec: 50_000.0,
            burst: 128,
        }
    }
}

/// Target-side Priority Manager configuration.
#[derive(Clone, Debug)]
pub struct OpfTargetConfig {
    /// TC queue organisation.
    pub queue_mode: QueueMode,
    /// Whether LS requests bypass the TC queues (ablation switch;
    /// always true in the paper's design).
    pub ls_bypass: bool,
    /// Enforce that a command capsule's wire initiator byte matches the
    /// connection it arrived on (DESIGN.md §14). On mismatch the capsule
    /// is counted and dropped. Disabling this reproduces the unhardened
    /// wire-trusting target for the adversary experiment's baseline
    /// column — spoofed capsules are then classified under the ID they
    /// claim.
    pub enforce_identity: bool,
    /// Per-tenant drain-flag rate limit. `None` (the default) disables
    /// the limiter and adds no state, no arithmetic and no metric keys,
    /// keeping pre-hardening runs byte-identical.
    pub drain_rate: Option<DrainRateLimit>,
}

impl Default for OpfTargetConfig {
    fn default() -> Self {
        OpfTargetConfig {
            queue_mode: QueueMode::PerInitiator,
            ls_bypass: true,
            enforce_identity: true,
            drain_rate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let i = OpfInitiatorConfig::default();
        assert_eq!(i.window.initial(), 32);
        assert!(i.drain_timeout.is_some());
        // Recovery is strictly opt-in: defaults stay lossless-fabric.
        assert!(i.retry.is_none());
        assert!(i.redrain_timeout.is_none());
        let t = OpfTargetConfig::default();
        assert_eq!(t.queue_mode, QueueMode::PerInitiator);
        assert!(t.ls_bypass);
        // Identity checking is always on; the drain limiter (which adds
        // metric keys) is strictly opt-in.
        assert!(t.enforce_identity);
        assert!(t.drain_rate.is_none());
        let d = DrainRateLimit::default();
        assert!(d.per_sec > 0.0 && d.burst >= 1);
    }

    #[test]
    fn window_policy_initial() {
        assert_eq!(WindowPolicy::Static(8).initial(), 8);
        assert_eq!(WindowPolicy::Dynamic { initial: 16 }.initial(), 16);
    }
}
