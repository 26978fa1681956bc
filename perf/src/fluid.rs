//! The closed-form fluid lower bound every workload's energy is
//! normalised by.
//!
//! Each flow must move its volume over at least its shortest-path hop
//! count within `[release, deadline]`; for a pure speed-scaling power
//! function (`sigma = 0`, `alpha > 1`) spreading the volume evenly over the
//! whole span is pointwise optimal and sharing a link only adds energy.
//! The bound depends on the inputs alone — unlike the Frank–Wolfe lower
//! bound, which rises when the solver stops early.

use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_topology::{GraphCsr, NodeId};
use std::collections::VecDeque;

/// `sum_f hops_f * span_f * P(volume_f / span_f)`, with `hops_f` the BFS
/// hop count from the flow's source to its destination.
///
/// # Errors
///
/// Names the first flow whose destination is unreachable.
pub fn fluid_bound(
    graph: &GraphCsr,
    flows: &FlowSet,
    power: &PowerFunction,
) -> Result<f64, String> {
    let mut hops_from: Vec<Option<Vec<u32>>> = vec![None; graph.node_count()];
    let mut total = 0.0;
    for flow in flows.iter() {
        let hops = hops_from[flow.src.index()].get_or_insert_with(|| bfs_hops(graph, flow.src));
        let h = hops[flow.dst.index()];
        if h == u32::MAX {
            return Err(format!(
                "flow {} has no route from {} to {}",
                flow.id, flow.src, flow.dst
            ));
        }
        let span = flow.span_length();
        total += f64::from(h) * span * power.power(flow.volume / span);
    }
    Ok(total)
}

/// Hop count from `src` to every node; `u32::MAX` marks unreachable nodes.
fn bfs_hops(graph: &GraphCsr, src: NodeId) -> Vec<u32> {
    let mut hops = vec![u32::MAX; graph.node_count()];
    hops[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(node) = queue.pop_front() {
        for (_, next) in graph.out_links_with_dsts(node) {
            if hops[next.index()] == u32::MAX {
                hops[next.index()] = hops[node.index()] + 1;
                queue.push_back(next);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_flow::Flow;
    use dcn_topology::builders;

    #[test]
    fn two_flows_on_a_line_match_the_hand_computed_bound() {
        // Line 0 - 1 - 2 - 3, P(x) = x^2.
        let topo = builders::line(4);
        let graph = GraphCsr::from_network(&topo.network);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = FlowSet::from_flows(vec![
            // 3 hops, span 2, rate 3: 3 * 2 * 9 = 54.
            Flow::new(0, NodeId(0), NodeId(3), 0.0, 2.0, 6.0).unwrap(),
            // 1 hop, span 4, rate 0.5: 1 * 4 * 0.25 = 1.
            Flow::new(1, NodeId(2), NodeId(1), 1.0, 5.0, 2.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(fluid_bound(&graph, &flows, &power).unwrap(), 55.0);
    }

    #[test]
    fn unreachable_destination_is_an_error() {
        let topo = builders::line(3);
        let mut graph = GraphCsr::from_network(&topo.network);
        let cut = graph.find_link(NodeId(1), NodeId(2)).unwrap();
        graph.fail_link(cut);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = FlowSet::from_flows(vec![
            Flow::new(0, NodeId(0), NodeId(2), 0.0, 1.0, 1.0).unwrap()
        ])
        .unwrap();
        assert!(fluid_bound(&graph, &flows, &power).is_err());
    }
}
