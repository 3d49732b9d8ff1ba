//! Switched fabric topology for multi-target clusters.
//!
//! A single-target run keeps the flat star the simulator has always
//! modelled: every endpoint one serialization + one propagation from
//! every other. A cluster puts each target behind its own leaf switch.
//! A tenant reaches its **home** target (leaf-local) at the flat cost;
//! every **other** target sits across the spine, which
//! [`install_switched_topology`] models with a [`fabric::LinkProfile`]
//! on each cross-leaf (endpoint, target) pair in both directions: one
//! extra store-and-forward hop plus a flat spine traversal latency.
//!
//! Profiles are installed only on cross-target pairs, and the network
//! consults its link table only when it is non-empty — so single-target
//! runs stay bit-identical to the pre-cluster simulator by construction.

use fabric::{Endpoint, LinkProfile, Network};
use simkit::{Shared, SimDuration};

/// Spine traversal cost added on top of the extra hop.
pub const SPINE_LATENCY: SimDuration = SimDuration::from_micros(2);

/// Install the leaf/spine profiles: for every tenant endpoint `i` with
/// home target `home[i]`, every non-home target in `targets` gets a
/// two-hop profile (both directions) with `spine_latency` extra. Returns
/// the number of directed links profiled.
pub fn install_switched_topology(
    net: &Network,
    tenant_eps: &[Shared<Endpoint>],
    home: &[usize],
    target_eps: &[Shared<Endpoint>],
    spine_latency: SimDuration,
) -> usize {
    let profile = LinkProfile {
        hops: 2,
        bw_factor: 1.0,
        extra_latency: spine_latency,
    };
    let mut installed = 0usize;
    for (i, ep) in tenant_eps.iter().enumerate() {
        let home_t = home.get(i).copied().unwrap_or(0);
        let ep_id = ep.borrow().id;
        for (t, tgt_ep) in target_eps.iter().enumerate() {
            if t == home_t {
                continue;
            }
            let tgt_id = tgt_ep.borrow().id;
            net.set_link_profile(ep_id, tgt_id, profile);
            net.set_link_profile(tgt_id, ep_id, profile);
            installed += 2;
        }
    }
    installed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{FabricConfig, Gbps};

    fn net() -> Network {
        Network::new(FabricConfig::preset(Gbps::G100))
    }

    #[test]
    fn cross_target_links_get_profiles_home_links_do_not() {
        let net = net();
        let t0 = net.add_endpoint("tgt0");
        let t1 = net.add_endpoint("tgt1");
        let a = net.add_endpoint("ini-a");
        let b = net.add_endpoint("ini-b");
        let n = install_switched_topology(
            &net,
            &[a.clone(), b.clone()],
            &[0, 1],
            &[t0.clone(), t1.clone()],
            SPINE_LATENCY,
        );
        // Each tenant has exactly one non-home target, two directions.
        assert_eq!(n, 4);
        let (a_id, b_id) = (a.borrow().id, b.borrow().id);
        let (t0_id, t1_id) = (t0.borrow().id, t1.borrow().id);
        // Home links untouched → flat star behaviour preserved.
        assert!(net.link_profile(a_id, t0_id).is_none());
        assert!(net.link_profile(b_id, t1_id).is_none());
        // Cross links profiled in both directions.
        let p = net.link_profile(a_id, t1_id).expect("cross link");
        assert_eq!(p.hops, 2);
        assert_eq!(p.extra_latency, SPINE_LATENCY);
        assert!(net.link_profile(t1_id, a_id).is_some());
        assert!(net.link_profile(b_id, t0_id).is_some());
        assert!(net.link_profile(t0_id, b_id).is_some());
    }
}
