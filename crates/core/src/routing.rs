//! Routing strategies used to fix the paths of a DCFS instance.
//!
//! DCFS assumes "the routing paths for all the flows are provided"; in
//! practice data centers obtain them from their routing protocol. This
//! module provides the strategies used in the paper's evaluation and the
//! extension experiments:
//!
//! * [`Routing::ShortestPath`] — minimum-hop routing, the `SP` part of the
//!   paper's `SP+MCF` baseline.
//! * [`Routing::Ecmp`] — ECMP-style routing: a uniformly random choice among
//!   all minimum-hop paths (seeded, deterministic).
//! * [`Routing::LeastLoadedKsp`] — a greedy load-aware heuristic that
//!   considers the `k` shortest paths of every flow (in volume order) and
//!   picks the one minimising the resulting maximum link volume.
//! * [`Routing::Consolidate`] — the same greedy loop with the opposite aim,
//!   ElasticTree-style: the path that activates the fewest links no flow
//!   uses yet, then the one of least peak committed volume; a stand-in for
//!   the consolidation-style traffic engineering the paper's related work
//!   discusses.

use crate::error::SolveError;
use dcn_flow::FlowSet;
use dcn_topology::{
    all_shortest_paths_on, k_shortest_paths_on, GraphCsr, Path, ShortestPathEngine,
};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A path-selection strategy: given the network and the flow set, produce
/// one routing path per flow (indexed by flow id).
#[derive(Debug, Clone, PartialEq)]
pub enum Routing {
    /// Minimum-hop shortest path: per flow, [`GraphCsr::shortest_path`]'s,
    /// read off one [`GraphCsr::bfs_tree`] per source (the same traversal).
    ShortestPath,
    /// Uniformly random choice among all minimum-hop paths, seeded.
    Ecmp {
        /// RNG seed.
        seed: u64,
    },
    /// Greedy volume-aware choice among the `k` shortest paths of each flow.
    LeastLoadedKsp {
        /// Number of candidate shortest paths per flow.
        k: usize,
    },
    /// Greedy link-minimising choice among the `k` shortest paths of each
    /// flow.
    Consolidate {
        /// Number of candidate shortest paths per flow.
        k: usize,
    },
}

impl Routing {
    /// Computes one path per flow, indexed by flow id, on a prebuilt CSR
    /// view, sharing one shortest-path engine across all per-flow queries.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] if some flow has no path (for
    /// `ShortestPath`, the lowest-id such flow).
    pub fn compute_on(&self, graph: &GraphCsr, flows: &FlowSet) -> Result<Vec<Path>, SolveError> {
        match self {
            Routing::ShortestPath => {
                // One BFS tree alive at a time, one per source.
                let mut order: Vec<_> = flows.iter().collect();
                order.sort_by_key(|f| (f.src, f.id));
                let mut paths = vec![None; flows.len()];
                for group in order.chunk_by(|a, b| a.src == b.src) {
                    let tree = graph.bfs_tree(group[0].src);
                    for f in group {
                        paths[f.id] = tree.path_to(graph, f.dst);
                    }
                }
                paths
                    .into_iter()
                    .enumerate()
                    .map(|(flow, path)| path.ok_or(SolveError::Unroutable { flow }))
                    .collect()
            }
            Routing::Ecmp { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                flows
                    .iter()
                    .map(|f| {
                        let candidates = all_shortest_paths_on(graph, f.src, f.dst, 64);
                        candidates
                            .choose(&mut rng)
                            .cloned()
                            .ok_or(SolveError::Unroutable { flow: f.id })
                    })
                    .collect()
            }
            Routing::LeastLoadedKsp { k } => {
                greedy_k_shortest(graph, flows, *k, |links, volume| {
                    links
                        .iter()
                        .map(|&committed| committed + volume)
                        .fold(0.0, f64::max)
                })
            }
            Routing::Consolidate { k } => greedy_k_shortest(graph, flows, *k, |links, _| {
                // Volumes are positive, so a link no flow uses yet is at 0.
                (
                    links.iter().filter(|&&committed| committed == 0.0).count(),
                    links.iter().copied().fold(0.0, f64::max),
                )
            }),
        }
    }
}

/// The greedy loop of the volume-aware strategies: flows in decreasing
/// volume order, each onto the one of its `k` hop-count shortest paths
/// (Yen's algorithm) with the smallest `key`, ties broken by hop count;
/// the flow's volume is then committed to every link of that path. `key`
/// reads the volume committed so far on each link of a candidate, in path
/// order, and the flow's volume.
fn greedy_k_shortest<K: PartialOrd>(
    graph: &GraphCsr,
    flows: &FlowSet,
    k: usize,
    key: impl Fn(&[f64], f64) -> K,
) -> Result<Vec<Path>, SolveError> {
    let k = k.max(1);
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        flows
            .flow(b)
            .volume
            .partial_cmp(&flows.flow(a).volume)
            .expect("finite volumes")
    });
    let mut engine = ShortestPathEngine::new();
    let mut committed = vec![0.0_f64; graph.link_count()];
    let mut on_path = Vec::new();
    let mut paths: Vec<Option<Path>> = vec![None; flows.len()];
    for id in order {
        let f = flows.flow(id);
        let best = k_shortest_paths_on(graph, &mut engine, f.src, f.dst, k, |_| 1.0)
            .into_iter()
            .map(|path| {
                on_path.clear();
                on_path.extend(path.links().iter().map(|l| committed[l.index()]));
                (key(&on_path, f.volume), path)
            })
            .min_by(|(key_a, a), (key_b, b)| {
                key_a
                    .partial_cmp(key_b)
                    .expect("finite volumes")
                    .then(a.len().cmp(&b.len()))
            })
            .map(|(_, path)| path)
            .ok_or(SolveError::Unroutable { flow: f.id })?;
        for &l in best.links() {
            committed[l.index()] += f.volume;
        }
        paths[id] = Some(best);
    }
    Ok(paths
        .into_iter()
        .map(|p| p.expect("every flow routed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_flow::workload::UniformWorkload;
    use dcn_topology::builders;

    #[test]
    fn shortest_path_routes_every_flow() {
        let topo = builders::fat_tree(4);
        let flows = UniformWorkload::paper_defaults(30, 5)
            .generate(topo.hosts())
            .unwrap();
        let paths = Routing::ShortestPath
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        assert_eq!(paths.len(), flows.len());
        for (f, p) in flows.iter().zip(&paths) {
            assert_eq!(p.source(), f.src);
            assert_eq!(p.destination(), f.dst);
            assert!(p.len() <= 6, "fat-tree paths are at most 6 hops");
        }
    }

    /// The per-flow search [`Routing::ShortestPath`] reads off its trees.
    fn per_flow_shortest_paths(graph: &GraphCsr, flows: &FlowSet) -> Result<Vec<Path>, SolveError> {
        flows
            .iter()
            .map(|f| {
                graph
                    .shortest_path(f.src, f.dst)
                    .ok_or(SolveError::Unroutable { flow: f.id })
            })
            .collect()
    }

    #[test]
    fn shortest_path_equals_the_per_flow_search_before_and_after_a_cut() {
        for topo in [
            builders::fat_tree(4),
            builders::leaf_spine(4, 2, 3),
            builders::bcube(4, 1),
        ] {
            // Every ordered host pair, sources in descending node order, so
            // that the lowest-id flow of a cut source comes last in
            // `(src, id)` order.
            let hosts = topo.hosts();
            let flows = FlowSet::from_tuples(hosts.iter().rev().flat_map(|&src| {
                hosts
                    .iter()
                    .filter(move |&&dst| dst != src)
                    .map(move |&dst| (src, dst, 0.0, 1.0, 1.0))
            }))
            .unwrap();
            let mut graph = topo.csr();
            let routed = Routing::ShortestPath.compute_on(&graph, &flows);
            assert!(routed.is_ok(), "{}", topo.name);
            assert_eq!(routed, per_flow_shortest_paths(&graph, &flows));

            // Cut the first and the last host off as sources.
            for host in [hosts[0], hosts[hosts.len() - 1]] {
                for link in graph.out_links(host).to_vec() {
                    assert!(graph.fail_link(link));
                }
            }
            let routed = Routing::ShortestPath.compute_on(&graph, &flows);
            assert_eq!(routed, Err(SolveError::Unroutable { flow: 0 }));
            assert_eq!(routed, per_flow_shortest_paths(&graph, &flows));
        }
    }

    #[test]
    fn ecmp_is_deterministic_per_seed_and_spreads_paths() {
        let topo = builders::fat_tree(4);
        let flows = UniformWorkload::paper_defaults(40, 11)
            .generate(topo.hosts())
            .unwrap();
        let graph = topo.csr();
        let a = Routing::Ecmp { seed: 1 }
            .compute_on(&graph, &flows)
            .unwrap();
        let b = Routing::Ecmp { seed: 1 }
            .compute_on(&graph, &flows)
            .unwrap();
        let c = Routing::Ecmp { seed: 2 }
            .compute_on(&graph, &flows)
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different ECMP draws");
        for (f, p) in flows.iter().zip(&a) {
            assert_eq!(p.source(), f.src);
            assert_eq!(p.destination(), f.dst);
        }
    }

    #[test]
    fn least_loaded_ksp_spreads_volume_on_parallel_links() {
        let topo = builders::parallel(4, 10.0);
        // Four identical flows between the two hosts: each should get its
        // own parallel link.
        let flows = dcn_flow::FlowSet::from_tuples(
            (0..4).map(|_| (topo.source(), topo.sink(), 0.0, 10.0, 5.0)),
        )
        .unwrap();
        let paths = Routing::LeastLoadedKsp { k: 4 }
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        let mut used: Vec<_> = paths.iter().map(|p| p.links()[0]).collect();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 4, "each flow should use a distinct link");
    }

    #[test]
    fn consolidate_packs_volume_onto_one_of_the_parallel_links() {
        let topo = builders::parallel(4, 10.0);
        // The flows of `least_loaded_ksp_spreads_volume_on_parallel_links`:
        // after the first, every link but its one would be a new link.
        let flows = dcn_flow::FlowSet::from_tuples(
            (0..4).map(|_| (topo.source(), topo.sink(), 0.0, 10.0, 5.0)),
        )
        .unwrap();
        let paths = Routing::Consolidate { k: 4 }
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        let mut used: Vec<_> = paths.iter().map(|p| p.links()[0]).collect();
        used.dedup();
        assert_eq!(used.len(), 1, "every flow should share one link");
    }

    #[test]
    fn unreachable_flow_is_an_error() {
        // Two disconnected hosts.
        let mut net = dcn_topology::Network::new();
        let a = net.add_node(dcn_topology::NodeKind::Host, "a");
        let b = net.add_node(dcn_topology::NodeKind::Host, "b");
        let flows = dcn_flow::FlowSet::from_tuples([(a, b, 0.0, 1.0, 1.0)]).unwrap();
        for strategy in [
            Routing::ShortestPath,
            Routing::Ecmp { seed: 0 },
            Routing::LeastLoadedKsp { k: 2 },
            Routing::Consolidate { k: 2 },
        ] {
            let err = strategy
                .compute_on(&GraphCsr::from_network(&net), &flows)
                .unwrap_err();
            assert_eq!(err, SolveError::Unroutable { flow: 0 });
        }
    }
}
