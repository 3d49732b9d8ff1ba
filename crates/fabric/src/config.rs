//! Fabric configuration and the Table I network presets.

use simkit::SimDuration;

/// Link speed, expressed the way the paper does (Gbps).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gbps {
    /// Chameleon Cloud `storage_nvme` 10 GbE.
    G10,
    /// Chameleon Cloud 25 GbE.
    G25,
    /// CloudLab r6525 100 GbE.
    G100,
}

impl Gbps {
    /// Link rate in bits per second.
    pub fn bits_per_sec(self) -> f64 {
        match self {
            Gbps::G10 => 10e9,
            Gbps::G25 => 25e9,
            Gbps::G100 => 100e9,
        }
    }

    /// All presets, slowest first (the order figures sweep them).
    pub const ALL: [Gbps; 3] = [Gbps::G10, Gbps::G25, Gbps::G100];

    /// Human label used in figure output ("10", "25", "100").
    pub fn label(self) -> &'static str {
        match self {
            Gbps::G10 => "10",
            Gbps::G25 => "25",
            Gbps::G100 => "100",
        }
    }
}

impl std::fmt::Display for Gbps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} Gbps", self.label())
    }
}

/// Parameters of the fabric model.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Link rate in bits per second (uplink and downlink each).
    pub rate_bps: f64,
    /// One-way propagation delay (host → switch → host).
    pub propagation: SimDuration,
    /// Maximum payload carried per frame (TCP MSS; 1448 for 1500 MTU).
    pub mtu_payload: usize,
    /// Per-frame wire overhead: Ethernet preamble+header+FCS+IFG (38) +
    /// IPv4 (20) + TCP (20).
    pub frame_overhead: usize,
    /// Fixed host cost to transmit one frame (driver/doorbell/DMA setup).
    pub per_frame_tx: SimDuration,
    /// Fixed host cost to receive one frame.
    pub per_frame_rx: SimDuration,
    /// TCP incast goodput collapse: when two or more senders converge
    /// bulk data onto one busy downlink, synchronized loss and recovery
    /// inflate the effective per-message wire time by this factor.
    /// (Classic incast collapse; see e.g. Vasudevan et al., SIGCOMM'09.)
    pub incast_factor: f64,
    /// Minimum frames for a message to count as bulk data for incast.
    pub incast_min_frames: usize,
}

impl FabricConfig {
    /// Preset for a given link speed; other parameters follow the
    /// testbeds in Table I (standard 1500-byte MTU Ethernet, a few µs of
    /// switch latency, sub-µs per-frame host costs).
    pub fn preset(speed: Gbps) -> Self {
        FabricConfig {
            rate_bps: speed.bits_per_sec(),
            propagation: SimDuration::from_micros(5),
            mtu_payload: 1448,
            frame_overhead: 78,
            per_frame_tx: SimDuration::from_nanos(350),
            per_frame_rx: SimDuration::from_nanos(350),
            incast_factor: 2.6,
            incast_min_frames: 2,
        }
    }

    /// Number of frames a message of `bytes` occupies.
    pub fn frames_for(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1 // a bare ACK-sized message still occupies one frame
        } else {
            bytes.div_ceil(self.mtu_payload)
        }
    }

    /// Total bytes on the wire for a message of `bytes` payload.
    pub fn wire_bytes(&self, bytes: usize) -> usize {
        bytes + self.frames_for(bytes) * self.frame_overhead
    }

    /// Serialization time of a message on one link.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        let bits = self.wire_bytes(bytes) as f64 * 8.0;
        SimDuration::from_secs_f64(bits / self.rate_bps)
    }

    /// Host-side per-message TX cost (`frames × per_frame_tx`).
    pub fn tx_cost(&self, bytes: usize) -> SimDuration {
        self.per_frame_tx * self.frames_for(bytes) as u64
    }

    /// Host-side per-message RX cost.
    pub fn rx_cost(&self, bytes: usize) -> SimDuration {
        self.per_frame_rx * self.frames_for(bytes) as u64
    }

    /// The four per-size costs of a message of `bytes`, evaluated once.
    pub(crate) fn wire_cost(&self, bytes: usize) -> WireCost {
        WireCost {
            frames: self.frames_for(bytes) as u64,
            ser: self.serialization(bytes),
            tx: self.tx_cost(bytes),
            rx: self.rx_cost(bytes),
        }
    }
}

/// What one message of a given size costs: its frames, its
/// serialization on one link and its NIC costs at each end.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WireCost {
    pub(crate) frames: u64,
    pub(crate) ser: SimDuration,
    pub(crate) tx: SimDuration,
    pub(crate) rx: SimDuration,
}

/// Entries in a [`CostMemo`].
const MEMO_SIZES: usize = 4;

/// The wire costs of the last few message sizes one endpoint sent. A
/// sender's traffic is a handful of sizes (command capsules, data PDUs,
/// completions), so a hit spares the divisions, the float division and
/// the rounding of [`FabricConfig::serialization`]; a miss computes the
/// costs and replaces the oldest entry.
#[derive(Clone, Debug)]
pub(crate) struct CostMemo {
    sizes: [usize; MEMO_SIZES],
    costs: [WireCost; MEMO_SIZES],
    /// The entry the next miss replaces.
    next: usize,
}

impl CostMemo {
    /// A memo of `cfg`'s costs whose every entry holds the empty message.
    pub(crate) fn new(cfg: &FabricConfig) -> Self {
        CostMemo {
            sizes: [0; MEMO_SIZES],
            costs: [cfg.wire_cost(0); MEMO_SIZES],
            next: 0,
        }
    }

    /// `cfg.wire_cost(bytes)`, from the memo when `bytes` is in it.
    #[inline]
    pub(crate) fn get(&mut self, cfg: &FabricConfig, bytes: usize) -> WireCost {
        if let Some(e) = self.sizes.iter().position(|&s| s == bytes) {
            return self.costs[e];
        }
        let cost = cfg.wire_cost(bytes);
        self.sizes[self.next] = bytes;
        self.costs[self.next] = cost;
        self.next = (self.next + 1) % MEMO_SIZES;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_rates() {
        assert_eq!(FabricConfig::preset(Gbps::G10).rate_bps, 10e9);
        assert_eq!(FabricConfig::preset(Gbps::G25).rate_bps, 25e9);
        assert_eq!(FabricConfig::preset(Gbps::G100).rate_bps, 100e9);
    }

    #[test]
    fn frame_math() {
        let c = FabricConfig::preset(Gbps::G10);
        assert_eq!(c.frames_for(0), 1);
        assert_eq!(c.frames_for(1), 1);
        assert_eq!(c.frames_for(1448), 1);
        assert_eq!(c.frames_for(1449), 2);
        assert_eq!(c.frames_for(4096), 3);
        assert_eq!(c.wire_bytes(4096), 4096 + 3 * 78);
    }

    #[test]
    fn serialization_scales_with_rate() {
        let c10 = FabricConfig::preset(Gbps::G10);
        let c100 = FabricConfig::preset(Gbps::G100);
        let s10 = c10.serialization(4096).as_nanos();
        let s100 = c100.serialization(4096).as_nanos();
        // 10x rate => ~10x faster serialization.
        let ratio = s10 as f64 / s100 as f64;
        assert!((ratio - 10.0).abs() < 0.2, "ratio {ratio}");
        // 4KiB + overhead at 10 Gbps ≈ 3.46 µs.
        assert!((3300..3700).contains(&s10), "s10 {s10}ns");
    }

    #[test]
    fn small_message_dominated_by_overhead() {
        let c = FabricConfig::preset(Gbps::G100);
        // A 24-byte completion still pays a full frame overhead + host
        // frame costs — the effect coalescing removes.
        assert_eq!(c.wire_bytes(24), 24 + 78);
        assert_eq!(c.tx_cost(24), SimDuration::from_nanos(350));
    }

    #[test]
    fn labels() {
        assert_eq!(Gbps::G10.label(), "10");
        assert_eq!(format!("{}", Gbps::G100), "100 Gbps");
        assert_eq!(Gbps::ALL.len(), 3);
    }
}
