//! Path-finding algorithms: weighted shortest paths, ECMP enumeration and
//! Yen's k-shortest paths.
//!
//! These are the routing primitives the scheduling layer builds on: the
//! Frank–Wolfe multi-commodity flow solver needs weighted shortest paths
//! under marginal link costs, the SP+MCF baseline needs hop-count shortest
//! paths, and the randomized-rounding analysis benefits from bounded
//! candidate path sets (k-shortest paths).
//!
//! Every algorithm runs on the flat [`GraphCsr`] view. A weighted shortest
//! path is [`ShortestPathEngine::shortest_path`]; the `*_on` functions here
//! take the graph (and Yen's the engine) explicitly so callers with many
//! queries (per-flow routing loops, Frank–Wolfe iterations) amortise the
//! CSR build and the engine's arenas.

use crate::{GraphCsr, LinkId, NodeId, Path, ShortestPathEngine};
use std::cmp::Ordering;

/// Enumerates **all** hop-count shortest paths from `src` to `dst`
/// (the ECMP path set), up to `limit` paths, on a prebuilt [`GraphCsr`].
///
/// Paths are produced in a deterministic order (lexicographic by link id).
pub fn all_shortest_paths_on(
    graph: &GraphCsr,
    src: NodeId,
    dst: NodeId,
    limit: usize,
) -> Vec<Path> {
    if limit == 0 {
        return Vec::new();
    }
    // Distance from every node *to* dst (BFS on the reversed links).
    let dist_to_dst = graph.hop_distances_to(dst);
    if dist_to_dst[src.index()] == usize::MAX {
        return Vec::new();
    }

    // DFS following only links that strictly decrease the distance to dst.
    struct EcmpDfs<'a> {
        graph: &'a GraphCsr,
        src: NodeId,
        dst: NodeId,
        dist_to_dst: &'a [usize],
        limit: usize,
        stack_links: Vec<LinkId>,
        result: Vec<Path>,
    }

    impl EcmpDfs<'_> {
        fn walk(&mut self, cur: NodeId) {
            if self.result.len() >= self.limit {
                return;
            }
            if cur == self.dst {
                if let Ok(p) = self.graph.path_from_links(self.src, &self.stack_links) {
                    self.result.push(p);
                }
                return;
            }
            for &lid in self.graph.out_links(cur) {
                let v = self.graph.link_dst(lid);
                if self.dist_to_dst[v.index()] != usize::MAX
                    && self.dist_to_dst[v.index()] + 1 == self.dist_to_dst[cur.index()]
                {
                    self.stack_links.push(lid);
                    self.walk(v);
                    self.stack_links.pop();
                    if self.result.len() >= self.limit {
                        return;
                    }
                }
            }
        }
    }

    let mut search = EcmpDfs {
        graph,
        src,
        dst,
        dist_to_dst: &dist_to_dst,
        limit,
        stack_links: Vec::new(),
        result: Vec::new(),
    };
    search.walk(src);
    search.result
}

/// Yen's algorithm: the `k` loop-free shortest paths from `src` to `dst`
/// under a per-link weight function, on a prebuilt [`GraphCsr`] and reusing
/// the engine across the spur searches.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// distinct simple paths. Weights must be non-negative.
pub fn k_shortest_paths_on(
    graph: &GraphCsr,
    engine: &mut ShortestPathEngine,
    src: NodeId,
    dst: NodeId,
    k: usize,
    mut link_weight: impl FnMut(LinkId) -> f64,
) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    let first = match engine.shortest_path(graph, src, dst, &mut link_weight) {
        Some(p) => p,
        None => return Vec::new(),
    };
    let mut paths = vec![first];
    // Candidate set: (cost, path); kept sorted by cost (ascending).
    let mut candidates: Vec<(f64, Path)> = Vec::new();

    for _ in 1..k {
        let last = paths.last().expect("paths is non-empty").clone();
        // Spur from every node of the previous path.
        for i in 0..last.nodes().len() - 1 {
            let spur_node = last.nodes()[i];
            let root_links: Vec<LinkId> = last.links()[..i].to_vec();

            // Links to ban: the next link of any already-accepted path that
            // shares the same root.
            let mut banned_links: Vec<LinkId> = Vec::new();
            for p in &paths {
                if p.links().len() > i && p.links()[..i] == root_links[..] {
                    banned_links.push(p.links()[i]);
                }
            }
            // Nodes on the root (except spur node) are banned to keep the
            // total path simple.
            let banned_nodes: Vec<NodeId> = last.nodes()[..i].to_vec();

            let spur = engine.shortest_path(graph, spur_node, dst, |lid| {
                if banned_links.contains(&lid) {
                    return f64::INFINITY;
                }
                if banned_nodes.contains(&graph.link_dst(lid))
                    || banned_nodes.contains(&graph.link_src(lid))
                {
                    return f64::INFINITY;
                }
                link_weight(lid)
            });
            let Some(spur) = spur else { continue };

            let mut total_links = root_links.clone();
            total_links.extend_from_slice(spur.links());
            let Ok(total) = graph.path_from_links(src, &total_links) else {
                continue;
            };
            if paths.contains(&total) || candidates.iter().any(|(_, p)| *p == total) {
                continue;
            }
            let cost = total.weight(&mut link_weight);
            candidates.push((cost, total));
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let (_, next) = candidates.remove(0);
        paths.push(next);
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, Network, NodeKind};

    fn diamond() -> (Network, NodeId, NodeId, NodeId, NodeId) {
        // a -> b -> d (cheap), a -> c -> d (expensive)
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Switch, "b");
        let c = net.add_node(NodeKind::Switch, "c");
        let d = net.add_node(NodeKind::Host, "d");
        net.add_duplex_link(a, b, 1.0);
        net.add_duplex_link(b, d, 1.0);
        net.add_duplex_link(a, c, 1.0);
        net.add_duplex_link(c, d, 1.0);
        (net, a, b, c, d)
    }

    #[test]
    fn dijkstra_prefers_cheap_route() {
        let (net, a, b, c, d) = diamond();
        let graph = GraphCsr::from_network(&net);
        let mut engine = ShortestPathEngine::new();
        let p = engine
            .shortest_path(&graph, a, d, |lid| {
                let l = net.link(lid);
                if l.src == c || l.dst == c {
                    10.0
                } else {
                    1.0
                }
            })
            .unwrap();
        assert!(p.contains_node(b));
        assert!(!p.contains_node(c));
    }

    #[test]
    fn dijkstra_respects_infinite_weights() {
        let (net, a, b, _c, d) = diamond();
        let graph = GraphCsr::from_network(&net);
        let mut engine = ShortestPathEngine::new();
        // Forbid everything through b: must go through c.
        let p = engine
            .shortest_path(&graph, a, d, |lid| {
                let l = net.link(lid);
                if l.src == b || l.dst == b {
                    f64::INFINITY
                } else {
                    1.0
                }
            })
            .unwrap();
        assert!(!p.contains_node(b));
    }

    #[test]
    fn dijkstra_unreachable_returns_none() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        let _ = (a, b);
        let graph = GraphCsr::from_network(&net);
        assert!(ShortestPathEngine::new()
            .shortest_path(&graph, a, b, |_| 1.0)
            .is_none());
    }

    #[test]
    fn all_shortest_paths_finds_both_diamond_branches() {
        let (net, a, _b, _c, d) = diamond();
        let paths = all_shortest_paths_on(&GraphCsr::from_network(&net), a, d, 10);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 2);
            assert_eq!(p.source(), a);
            assert_eq!(p.destination(), d);
        }
    }

    #[test]
    fn all_shortest_paths_respects_limit() {
        let (net, a, _b, _c, d) = diamond();
        let paths = all_shortest_paths_on(&GraphCsr::from_network(&net), a, d, 1);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn k_shortest_orders_by_cost() {
        let (net, a, _b, c, d) = diamond();
        let graph = GraphCsr::from_network(&net);
        let paths = k_shortest_paths_on(&graph, &mut ShortestPathEngine::new(), a, d, 3, |lid| {
            let l = net.link(lid);
            if l.src == c || l.dst == c {
                5.0
            } else {
                1.0
            }
        });
        assert_eq!(paths.len(), 2, "diamond has exactly two simple a->d paths");
        assert!(paths[0].weight(|_| 1.0) <= paths[1].weight(|_| 1.0));
        assert!(!paths[0].contains_node(c));
        assert!(paths[1].contains_node(c));
    }

    #[test]
    fn k_shortest_on_parallel_links() {
        let t = builders::parallel(4, 1.0);
        let paths = k_shortest_paths_on(
            &t.csr(),
            &mut ShortestPathEngine::new(),
            t.source(),
            t.sink(),
            4,
            |_| 1.0,
        );
        assert_eq!(paths.len(), 4);
        let mut links: Vec<_> = paths.iter().map(|p| p.links()[0]).collect();
        links.sort();
        links.dedup();
        assert_eq!(
            links.len(),
            4,
            "each path must use a distinct parallel link"
        );
    }

    #[test]
    fn ecmp_in_fat_tree_inter_pod() {
        let ft = builders::fat_tree(4);
        let hosts = ft.hosts();
        // First and last host are in different pods; a k=4 fat-tree has
        // (k/2)^2 = 4 equal-cost core paths between them.
        let paths = all_shortest_paths_on(&ft.csr(), hosts[0], hosts[15], 64);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p.len(), 6);
        }
    }

    #[test]
    fn on_variants_share_one_engine_across_queries() {
        let ft = builders::fat_tree(4);
        let graph = GraphCsr::from_network(&ft.network);
        let mut engine = ShortestPathEngine::new();
        let hosts = ft.hosts();
        for (&a, &b) in hosts.iter().zip(hosts.iter().rev()) {
            if a == b {
                continue;
            }
            // A graph view and engine built for this one query are the
            // reference the shared pair must reproduce.
            let fresh_graph = GraphCsr::from_network(&ft.network);
            let mut fresh = ShortestPathEngine::new();
            let on = engine.shortest_path(&graph, a, b, |_| 1.0).unwrap();
            let one_shot = fresh.shortest_path(&fresh_graph, a, b, |_| 1.0).unwrap();
            assert_eq!(on, one_shot);
            let ksp_on = k_shortest_paths_on(&graph, &mut engine, a, b, 3, |_| 1.0);
            let ksp = k_shortest_paths_on(&fresh_graph, &mut fresh, a, b, 3, |_| 1.0);
            assert_eq!(ksp_on, ksp);
            assert_eq!(
                all_shortest_paths_on(&graph, a, b, 16),
                all_shortest_paths_on(&fresh_graph, a, b, 16)
            );
        }
    }
}
