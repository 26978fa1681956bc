//! Instances shared between integration suites.

use deadline_dcn::flow::{Flow, FlowSet};
use deadline_dcn::topology::builders::{self, BuiltTopology};

/// An instance made of ties: 160 flows of volume 6 on fat-tree(4) at
/// capacity 100, releases and spans on an integer grid. Endpoints coincide,
/// whole families of intervals have intensities equal to the bit, and the
/// shortest paths put more than 30 flows on the busiest links — so the
/// `1e-15` tie-break between intervals, the lowest-link-id tie-break
/// between links and the order in which stale links are refreshed all
/// decide something, and most intervals are pruned by their bound.
pub fn tie_heavy_instance() -> (BuiltTopology, FlowSet) {
    let topo = builders::fat_tree_with_capacity(4, 100.0);
    let hosts = topo.hosts();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |modulus: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % modulus) as usize
    };
    let flows = (0..160)
        .map(|id| {
            let src = next(16);
            let dst = (src + 1 + next(15)) % 16;
            let release = next(24) as f64;
            let span = 2.0 * (1 + next(4)) as f64;
            Flow::new(id, hosts[src], hosts[dst], release, release + span, 6.0)
                .expect("valid by construction")
        })
        .collect();
    let flows = FlowSet::from_flows(flows).expect("dense ids by construction");
    (topo, flows)
}
