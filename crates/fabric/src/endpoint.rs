//! Endpoints: a node's attachment to the fabric.

use crate::config::{CostMemo, FabricConfig};
use simkit::{Metrics, MetricsSource, Resource, SimDuration, SimTime};

/// Index of an endpoint within its [`crate::Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// Traffic counters for one endpoint.
#[derive(Clone, Debug, Default)]
pub struct EndpointStats {
    /// Messages transmitted.
    pub msgs_tx: u64,
    /// Messages received.
    pub msgs_rx: u64,
    /// Payload bytes transmitted.
    pub bytes_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Frames (packets) transmitted, including framing of each message.
    pub frames_tx: u64,
    /// Frames received.
    pub frames_rx: u64,
}

/// A node's duplex attachment: TX/RX NIC cost centers plus uplink and
/// downlink wires, all FIFO single-server [`Resource`]s.
#[derive(Debug)]
pub struct Endpoint {
    /// Identifier within the network.
    pub id: EndpointId,
    /// Node name for reports.
    pub name: String,
    pub(crate) tx_nic: Resource,
    pub(crate) rx_nic: Resource,
    pub(crate) uplink: Resource,
    pub(crate) downlink: Resource,
    /// Distinct sources with bulk transfers in the downlink's current
    /// busy period (incast detection).
    pub(crate) downlink_senders: Vec<EndpointId>,
    /// Wire costs of the sizes this endpoint last sent, under the config
    /// of the network that attached it.
    pub(crate) costs: CostMemo,
    /// Counters.
    pub stats: EndpointStats,
}

impl Endpoint {
    pub(crate) fn new(id: EndpointId, name: String, cfg: &FabricConfig) -> Self {
        Endpoint {
            id,
            name,
            tx_nic: Resource::new("tx_nic"),
            rx_nic: Resource::new("rx_nic"),
            uplink: Resource::new("uplink"),
            downlink: Resource::new("downlink"),
            downlink_senders: Vec::new(),
            costs: CostMemo::new(cfg),
            stats: EndpointStats::default(),
        }
    }

    /// Uplink utilization over `[0, now]`.
    pub fn uplink_utilization(&self, now: SimTime) -> f64 {
        self.uplink.utilization(now)
    }

    /// Downlink utilization over `[0, now]`.
    pub fn downlink_utilization(&self, now: SimTime) -> f64 {
        self.downlink.utilization(now)
    }

    /// Current downlink backlog (how far behind the receive wire is).
    pub fn downlink_backlog(&self, now: SimTime) -> SimDuration {
        self.downlink.backlog(now)
    }

    /// Current uplink backlog: how long a message enqueued now would wait
    /// before its serialization starts. The target runtime uses this as
    /// its send-path backpressure signal.
    pub fn uplink_backlog(&self, now: SimTime) -> SimDuration {
        self.uplink.backlog(now)
    }
}

impl MetricsSource for Endpoint {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("link.uplink_util", self.uplink_utilization(now));
        m.set("link.downlink_util", self.downlink_utilization(now));
        m.set(
            "link.uplink_backlog_us",
            self.uplink_backlog(now).as_micros_f64(),
        );
        m.set(
            "link.downlink_backlog_us",
            self.downlink_backlog(now).as_micros_f64(),
        );
        m.set("nic.tx_util", self.tx_nic.utilization(now));
        m.set("nic.rx_util", self.rx_nic.utilization(now));
        m.set("msgs_tx", self.stats.msgs_tx as f64);
        m.set("msgs_rx", self.stats.msgs_rx as f64);
        m.set("bytes_tx", self.stats.bytes_tx as f64);
        m.set("bytes_rx", self.stats.bytes_rx as f64);
        m.set("frames_tx", self.stats.frames_tx as f64);
        m.set("frames_rx", self.stats.frames_rx as f64);
        m
    }
}
