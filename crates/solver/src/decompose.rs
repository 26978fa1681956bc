//! Raghavan–Tompson path decomposition of a fractional flow.
//!
//! Random-Schedule (Algorithm 2, line 4) turns the fractional per-commodity
//! edge flow `y*_{i,e}(k)` into a set of candidate routing paths with
//! weights: repeatedly extract a source→destination path through links that
//! still carry positive flow, give it a weight equal to the bottleneck flow
//! value along it, and subtract that weight from every link of the path.
//! The weights of the extracted paths sum to the routed demand, so after
//! normalisation they form the probability distribution from which the
//! randomized rounding step samples a single path per flow.
//!
//! The Frank–Wolfe solver keeps its iterate as weighted paths to begin
//! with ([`crate::fmcf`]), so nothing is extracted per solve: it runs this
//! once per node pair, on the pair's unit ECMP split, to put its start in
//! path form. The public [`decompose_flow`] is the oracle the tests hold
//! those path mixtures against.

use dcn_topology::{GraphCsr, LinkId, Network, NodeId, Path};

/// A candidate routing path together with the amount of fractional flow it
/// carries.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPath {
    /// The path.
    pub path: Path,
    /// The fractional flow assigned to the path (the Raghavan–Tompson
    /// bottleneck weight).
    pub weight: f64,
}

/// Reusable buffers of [`decompose_flow_with`]: the residual copy of the
/// edge flow and the search state of the path extraction. One scratch
/// serves every decomposition of a solver scratch; it grows to the largest
/// graph seen and allocates nothing per extracted path afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecomposeScratch {
    /// The flow not yet assigned to an extracted path, per link.
    residual: Vec<f64>,
    /// The link each node was reached by in the current search; valid
    /// where `reached` carries the current `round`.
    parent: Vec<LinkId>,
    /// Round in which each node was last reached (a generation stamp, so
    /// a new search does not re-zero the arena).
    reached: Vec<u32>,
    /// The current search's stamp.
    round: u32,
    /// FIFO of the current search.
    queue: Vec<NodeId>,
    /// Link sequence of the path being extracted.
    links: Vec<LinkId>,
}

/// Decomposes a per-link fractional flow of a single commodity into weighted
/// source→destination paths.
///
/// `edge_flow[e]` is the flow of the commodity on link id `e`. Flow that
/// circulates on cycles (which can appear as numerical noise in iterative
/// solvers) is ignored: decomposition stops as soon as no residual path from
/// `src` to `dst` exists through links with more than `epsilon` flow.
///
/// The returned weights sum to the amount of flow that actually travels from
/// `src` to `dst` (up to `epsilon` per extracted path).
///
/// This is the one-shot form (it builds a [`GraphCsr`] view of the network
/// per call) — an oracle for tests and probes. The Frank–Wolfe solver
/// decomposes one unit split per node pair on its own view and keeps every
/// solution in path form ([`crate::fmcf::FmcfSolution::split`] and
/// [`crate::fmcf::FmcfSolution::steps`]).
///
/// # Panics
///
/// Panics if `edge_flow` is shorter than the network's link count.
pub fn decompose_flow(
    network: &Network,
    src: NodeId,
    dst: NodeId,
    edge_flow: &[f64],
    epsilon: f64,
) -> Vec<WeightedPath> {
    decompose_flow_with(
        &GraphCsr::from_network(network),
        src,
        dst,
        edge_flow,
        epsilon,
        &mut DecomposeScratch::default(),
    )
}

/// [`decompose_flow`] on a CSR view (links that are down there are not
/// walked) and the caller's reusable buffers; the result does not depend
/// on what the scratch was used for before.
pub(crate) fn decompose_flow_with(
    network: &GraphCsr,
    src: NodeId,
    dst: NodeId,
    edge_flow: &[f64],
    epsilon: f64,
    scratch: &mut DecomposeScratch,
) -> Vec<WeightedPath> {
    assert!(
        edge_flow.len() >= network.link_count(),
        "edge_flow has {} entries but the network has {} links",
        edge_flow.len(),
        network.link_count()
    );
    scratch.residual.clear();
    scratch.residual.extend_from_slice(edge_flow);
    let mut out = Vec::new();

    // Safety valve: each extraction zeroes at least one link, so the number
    // of iterations is bounded by the number of links.
    for _ in 0..network.link_count() + 1 {
        let Some(path) = positive_flow_path(network, src, dst, epsilon, scratch) else {
            break;
        };
        let residual = &mut scratch.residual;
        let bottleneck = path
            .links()
            .iter()
            .map(|&l| residual[l.index()])
            .fold(f64::INFINITY, f64::min);
        if bottleneck <= epsilon || bottleneck.is_nan() {
            break;
        }
        for &l in path.links() {
            residual[l.index()] -= bottleneck;
        }
        out.push(WeightedPath {
            path,
            weight: bottleneck,
        });
    }
    out
}

/// BFS for a path from `src` to `dst` using only links whose residual flow
/// exceeds `epsilon`. Ties are broken by link insertion order, which keeps
/// the decomposition deterministic.
fn positive_flow_path(
    network: &GraphCsr,
    src: NodeId,
    dst: NodeId,
    epsilon: f64,
    scratch: &mut DecomposeScratch,
) -> Option<Path> {
    let DecomposeScratch {
        residual,
        parent,
        reached,
        round,
        queue,
        links,
    } = scratch;
    let n = network.node_count();
    if reached.len() < n {
        reached.resize(n, 0);
        parent.resize(n, LinkId(0));
    }
    *round = round.wrapping_add(1);
    if *round == 0 {
        // The stamp wrapped: stale marks could collide, so pay one reset.
        reached.fill(0);
        *round = 1;
    }
    reached[src.index()] = *round;
    queue.clear();
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &lid in network.out_links(u) {
            if residual[lid.index()] <= epsilon {
                continue;
            }
            let v = network.link_dst(lid);
            if reached[v.index()] != *round {
                reached[v.index()] = *round;
                parent[v.index()] = lid;
                if v == dst {
                    links.clear();
                    let mut cur = dst;
                    while cur != src {
                        let l = parent[cur.index()];
                        links.push(l);
                        cur = network.link_src(l);
                    }
                    links.reverse();
                    return network.path_from_links(src, links).ok();
                }
                queue.push(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmcf::{Commodity, FmcfProblem, FmcfScratch, FmcfSolverConfig, PowerFlowCost};
    use dcn_power::PowerFunction;
    use dcn_topology::builders;

    #[test]
    fn single_path_flow_decomposes_to_that_path() {
        let t = builders::line(3);
        let net = &t.network;
        let p = t.csr().shortest_path(t.source(), t.sink()).unwrap();
        let mut edge_flow = vec![0.0; net.link_count()];
        for &l in p.links() {
            edge_flow[l.index()] = 2.5;
        }
        let parts = decompose_flow(net, t.source(), t.sink(), &edge_flow, 1e-9);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].path, p);
        assert!((parts[0].weight - 2.5).abs() < 1e-12);
    }

    #[test]
    fn split_flow_decomposes_into_both_branches() {
        let t = builders::parallel(2, 10.0);
        let net = &t.network;
        let links: Vec<_> = t.csr().links_between(t.source(), t.sink()).collect();
        let mut edge_flow = vec![0.0; net.link_count()];
        edge_flow[links[0].index()] = 1.0;
        edge_flow[links[1].index()] = 3.0;
        let parts = decompose_flow(net, t.source(), t.sink(), &edge_flow, 1e-9);
        assert_eq!(parts.len(), 2);
        let total: f64 = parts.iter().map(|p| p.weight).sum();
        assert!((total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weights_sum_to_demand_for_fmcf_solutions() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let demand = 5.0;
        let graph = t.csr();
        let problem = FmcfProblem::with_graph(
            &graph,
            vec![Commodity {
                id: 0,
                src: hosts[0],
                dst: hosts[15],
                demand,
            }],
        );
        let cost = PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 2.0, 1e9));
        let config = FmcfSolverConfig::default();
        let sol = problem
            .solve_with(&cost, &config, &mut FmcfScratch::new())
            .unwrap();
        let parts = decompose_flow(
            &t.network,
            hosts[0],
            hosts[15],
            sol.commodity_flows(0),
            1e-9,
        );
        assert!(!parts.is_empty());
        let total: f64 = parts.iter().map(|p| p.weight).sum();
        assert!(
            (total - demand).abs() < 1e-3,
            "decomposed weight {total} should equal the demand {demand}"
        );
        for wp in &parts {
            assert_eq!(wp.path.source(), hosts[0]);
            assert_eq!(wp.path.destination(), hosts[15]);
            assert!(wp.weight > 0.0);
        }
    }

    #[test]
    fn a_reused_scratch_decomposes_like_a_fresh_one() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let cost = PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 2.0, 1e9));
        let (graph, config) = (t.csr(), FmcfSolverConfig::default());
        let mut scratch = DecomposeScratch::default();
        // A larger network first, so the arenas are oversized and stamped.
        let big = builders::fat_tree(6);
        let flow = vec![0.0; big.network.link_count()];
        decompose_flow_with(
            &big.csr(),
            big.source(),
            big.sink(),
            &flow,
            1e-9,
            &mut scratch,
        );
        for (a, b) in [(0usize, 15usize), (3, 4), (15, 0), (2, 3)] {
            let problem = FmcfProblem::with_graph(
                &graph,
                vec![Commodity {
                    id: 0,
                    src: hosts[a],
                    dst: hosts[b],
                    demand: 2.0,
                }],
            );
            let sol = problem
                .solve_with(&cost, &config, &mut FmcfScratch::new())
                .unwrap();
            let flows = sol.commodity_flows(0);
            let reused = decompose_flow_with(&graph, hosts[a], hosts[b], flows, 1e-9, &mut scratch);
            assert!(!reused.is_empty());
            assert_eq!(
                reused,
                decompose_flow(&t.network, hosts[a], hosts[b], flows, 1e-9)
            );
        }
    }

    #[test]
    fn cycle_flow_is_ignored() {
        // A cycle between two middle nodes plus a genuine src->dst path.
        let t = builders::line(4);
        let (net, graph) = (&t.network, t.csr());
        let mut edge_flow = vec![0.0; net.link_count()];
        let p = graph.shortest_path(t.source(), t.sink()).unwrap();
        for &l in p.links() {
            edge_flow[l.index()] = 1.0;
        }
        // Add a 2-cycle between hosts 1 and 2.
        let fwd = graph.find_link(t.hosts()[1], t.hosts()[2]).unwrap();
        let back = graph.find_link(t.hosts()[2], t.hosts()[1]).unwrap();
        edge_flow[fwd.index()] += 0.7;
        edge_flow[back.index()] += 0.7;
        let parts = decompose_flow(net, t.source(), t.sink(), &edge_flow, 1e-9);
        let total: f64 = parts.iter().map(|p| p.weight).sum();
        // Only the genuine unit of src->dst flow is decomposed; the cycle
        // remainder never produces a src->dst path on its own.
        assert!((total - 1.0).abs() < 0.71, "total {total}");
        for wp in &parts {
            assert_eq!(wp.path.source(), t.source());
            assert_eq!(wp.path.destination(), t.sink());
        }
    }

    #[test]
    fn zero_flow_decomposes_to_nothing() {
        let t = builders::line(3);
        let edge_flow = vec![0.0; t.network.link_count()];
        let parts = decompose_flow(&t.network, t.source(), t.sink(), &edge_flow, 1e-9);
        assert!(parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn short_edge_flow_vector_panics() {
        let t = builders::line(3);
        decompose_flow(&t.network, t.source(), t.sink(), &[0.0], 1e-9);
    }
}
