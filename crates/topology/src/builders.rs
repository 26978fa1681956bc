//! Builders for the standard data-center topologies used by the paper and
//! its evaluation: line networks (Example 1), parallel-link gadgets
//! (hardness reductions), fat-tree (the Fig. 2 evaluation topology), BCube,
//! leaf–spine and dumbbell.
//!
//! All builders produce every physical cable as a pair of directed links and
//! use a uniform link capacity, matching the paper's assumption of identical
//! commodity switches and links.

use crate::{Network, NodeId, NodeKind};

/// Default link capacity used by the builders (data units per time unit).
///
/// The paper never fixes absolute units; what matters is the ratio between
/// flow densities and `C`. A value of `10.0` keeps the Fig. 2 workload
/// (volumes ~ N(10,3) over spans of tens of time units) comfortably below
/// capacity on a fat-tree, as in the paper's simulation.
pub const DEFAULT_CAPACITY: f64 = 10.0;

/// A constructed topology: the network plus builder metadata (host list and
/// a descriptive name).
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// The constructed network.
    pub network: Network,
    /// Host (server) nodes, in builder-defined order.
    pub hosts: Vec<NodeId>,
    /// Human-readable description, e.g. `"fat-tree(k=8)"`.
    pub name: String,
}

impl BuiltTopology {
    /// The host (server) nodes of the topology, in builder order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The first host; by convention the "source" of two-terminal gadgets.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no hosts.
    pub fn source(&self) -> NodeId {
        *self.hosts.first().expect("topology has no hosts")
    }

    /// The last host; by convention the "sink" of two-terminal gadgets.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no hosts.
    pub fn sink(&self) -> NodeId {
        *self.hosts.last().expect("topology has no hosts")
    }

    /// Builds the flat CSR read view of the topology's network
    /// (a convenience for [`crate::GraphCsr::from_network`]).
    pub fn csr(&self) -> crate::GraphCsr {
        crate::GraphCsr::from_network(&self.network)
    }
}

/// A line (path) network of `n` nodes connected by `n - 1` cables, as in the
/// paper's Example 1 (Fig. 1, `A — B — C`).
///
/// All nodes are marked as hosts so that flows may start and end anywhere on
/// the line.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn line(n: usize) -> BuiltTopology {
    line_with_capacity(n, DEFAULT_CAPACITY)
}

/// Same as [`line()`] with an explicit uniform link capacity.
pub fn line_with_capacity(n: usize, capacity: f64) -> BuiltTopology {
    assert!(n >= 2, "a line network needs at least two nodes");
    let mut network = Network::new();
    let hosts: Vec<NodeId> = (0..n)
        .map(|i| network.add_node(NodeKind::Host, format!("line-{i}")))
        .collect();
    for w in hosts.windows(2) {
        network.add_duplex_link(w[0], w[1], capacity);
    }
    BuiltTopology {
        network,
        hosts,
        name: format!("line(n={n})"),
    }
}

/// The two-terminal parallel-link gadget used in the NP-hardness and
/// inapproximability proofs (Theorems 2 and 3): `src` and `dst` connected by
/// `k` parallel cables.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn parallel(k: usize, capacity: f64) -> BuiltTopology {
    assert!(k > 0, "the parallel-link gadget needs at least one link");
    let mut network = Network::new();
    let src = network.add_node(NodeKind::Host, "src");
    let dst = network.add_node(NodeKind::Host, "dst");
    for _ in 0..k {
        network.add_duplex_link(src, dst, capacity);
    }
    BuiltTopology {
        network,
        hosts: vec![src, dst],
        name: format!("parallel(k={k})"),
    }
}

/// A `k`-ary fat-tree (Al-Fares et al., SIGCOMM 2008): the topology the
/// paper's Fig. 2 evaluation uses with `k = 8` (80 switches, 128 hosts).
///
/// Structure: `k` pods, each with `k/2` edge and `k/2` aggregation switches;
/// `(k/2)^2` core switches; each edge switch serves `k/2` hosts.
///
/// # Panics
///
/// Panics if `k` is not a positive even number.
pub fn fat_tree(k: usize) -> BuiltTopology {
    fat_tree_with_capacity(k, DEFAULT_CAPACITY)
}

/// Same as [`fat_tree`] with an explicit uniform link capacity.
pub fn fat_tree_with_capacity(k: usize, capacity: f64) -> BuiltTopology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires an even k >= 2, got {k}"
    );
    let half = k / 2;
    let mut network = Network::new();

    // Core switches: (k/2)^2, indexed by (i, j) with i, j in 0..k/2.
    let mut cores = Vec::with_capacity(half * half);
    for i in 0..half {
        for j in 0..half {
            cores.push(network.add_node(NodeKind::CoreSwitch, format!("core-{i}-{j}")));
        }
    }

    let mut hosts = Vec::with_capacity(half * half * k);
    for pod in 0..k {
        // Aggregation and edge switches of this pod.
        let aggs: Vec<NodeId> = (0..half)
            .map(|a| network.add_node(NodeKind::AggregationSwitch, format!("agg-{pod}-{a}")))
            .collect();
        let edges: Vec<NodeId> = (0..half)
            .map(|e| network.add_node(NodeKind::EdgeSwitch, format!("edge-{pod}-{e}")))
            .collect();
        // Pod locality labels: aggregation/edge switches and hosts belong
        // to their pod; core switches stay unlabelled (they are shared).
        for &sw in aggs.iter().chain(edges.iter()) {
            network.set_node_pod(sw, pod);
        }

        // Full bipartite mesh between edge and aggregation inside the pod.
        for &agg in &aggs {
            for &edge in &edges {
                network.add_duplex_link(agg, edge, capacity);
            }
        }
        // Aggregation switch `a` connects to core switches (a, 0..k/2).
        for (a, &agg) in aggs.iter().enumerate() {
            for j in 0..half {
                let core = cores[a * half + j];
                network.add_duplex_link(agg, core, capacity);
            }
        }
        // Hosts under each edge switch.
        for (e, &edge) in edges.iter().enumerate() {
            for h in 0..half {
                let host = network.add_node(NodeKind::Host, format!("host-{pod}-{e}-{h}"));
                network.set_node_pod(host, pod);
                network.add_duplex_link(edge, host, capacity);
                hosts.push(host);
            }
        }
    }

    BuiltTopology {
        network,
        hosts,
        name: format!("fat-tree(k={k})"),
    }
}

/// A BCube(n, k) server-centric topology (Guo et al., SIGCOMM 2009):
/// `n^(k+1)` servers and `k+1` levels of `n^k` switches, each server
/// connected to one switch per level.
///
/// In BCube, servers relay traffic; paths may therefore pass through host
/// nodes, which the routing algorithms in this crate allow.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn bcube(n: usize, k: usize) -> BuiltTopology {
    bcube_with_capacity(n, k, DEFAULT_CAPACITY)
}

/// Same as [`bcube`] with an explicit uniform link capacity.
pub fn bcube_with_capacity(n: usize, k: usize, capacity: f64) -> BuiltTopology {
    assert!(n >= 2, "BCube requires switch port count n >= 2, got {n}");
    let levels = k + 1;
    let num_servers = n.pow(levels as u32);
    let switches_per_level = n.pow(k as u32);

    let mut network = Network::new();
    let servers: Vec<NodeId> = (0..num_servers)
        .map(|i| network.add_node(NodeKind::Host, format!("server-{i}")))
        .collect();

    for level in 0..levels {
        for s in 0..switches_per_level {
            let sw = network.add_node(NodeKind::Switch, format!("switch-{level}-{s}"));
            // The switch `s` at `level` connects the n servers whose base-n
            // representation matches `s` with the digit at position `level`
            // removed.
            for port in 0..n {
                let server_index = insert_digit(s, level, port, n);
                network.add_duplex_link(sw, servers[server_index], capacity);
            }
        }
    }

    BuiltTopology {
        network,
        hosts: servers,
        name: format!("bcube(n={n},k={k})"),
    }
}

/// Re-inserts `digit` at position `pos` (base `n`) into the number `rest`,
/// producing the full server index.
fn insert_digit(rest: usize, pos: usize, digit: usize, n: usize) -> usize {
    let low_mod = n.pow(pos as u32);
    let low = rest % low_mod;
    let high = rest / low_mod;
    high * low_mod * n + digit * low_mod + low
}

/// A two-layer leaf–spine topology: every leaf switch connects to every
/// spine switch, and `hosts_per_leaf` hosts hang off each leaf.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize) -> BuiltTopology {
    leaf_spine_with_capacity(leaves, spines, hosts_per_leaf, DEFAULT_CAPACITY)
}

/// Same as [`leaf_spine`] with an explicit uniform link capacity.
pub fn leaf_spine_with_capacity(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    capacity: f64,
) -> BuiltTopology {
    assert!(leaves > 0 && spines > 0 && hosts_per_leaf > 0);
    let mut network = Network::new();
    let spine_nodes: Vec<NodeId> = (0..spines)
        .map(|s| network.add_node(NodeKind::CoreSwitch, format!("spine-{s}")))
        .collect();
    let mut hosts = Vec::new();
    for l in 0..leaves {
        let leaf = network.add_node(NodeKind::EdgeSwitch, format!("leaf-{l}"));
        // Each leaf is its own locality group; spines are shared (no pod).
        network.set_node_pod(leaf, l);
        for &spine in &spine_nodes {
            network.add_duplex_link(leaf, spine, capacity);
        }
        for h in 0..hosts_per_leaf {
            let host = network.add_node(NodeKind::Host, format!("host-{l}-{h}"));
            network.set_node_pod(host, l);
            network.add_duplex_link(leaf, host, capacity);
            hosts.push(host);
        }
    }
    BuiltTopology {
        network,
        hosts,
        name: format!("leaf-spine({leaves}x{spines},{hosts_per_leaf} hosts/leaf)"),
    }
}

/// A dumbbell: two switches joined by one (bottleneck) cable, with
/// `hosts_per_side` hosts on each side.
///
/// # Panics
///
/// Panics if `hosts_per_side == 0`.
pub fn dumbbell(hosts_per_side: usize, capacity: f64) -> BuiltTopology {
    assert!(hosts_per_side > 0);
    let mut network = Network::new();
    let left = network.add_node(NodeKind::Switch, "left");
    let right = network.add_node(NodeKind::Switch, "right");
    network.add_duplex_link(left, right, capacity);
    let mut hosts = Vec::new();
    for i in 0..hosts_per_side {
        let h = network.add_node(NodeKind::Host, format!("left-host-{i}"));
        network.add_duplex_link(left, h, capacity);
        hosts.push(h);
    }
    for i in 0..hosts_per_side {
        let h = network.add_node(NodeKind::Host, format!("right-host-{i}"));
        network.add_duplex_link(right, h, capacity);
        hosts.push(h);
    }
    BuiltTopology {
        network,
        hosts,
        name: format!("dumbbell({hosts_per_side}/side)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether every node reaches node 0 and is reached from it.
    fn strongly_connected(t: &BuiltTopology) -> bool {
        let (g, root) = (t.csr(), NodeId(0));
        let tree = g.bfs_tree(root);
        let reached = (0..g.node_count()).all(|v| tree.path_to(&g, NodeId(v)).is_some());
        reached && !g.hop_distances_to(root).contains(&usize::MAX)
    }

    #[test]
    fn line_structure() {
        let t = line(3);
        assert_eq!(t.network.node_count(), 3);
        assert_eq!(t.network.link_count(), 4); // 2 cables * 2 directions
        assert!(strongly_connected(&t));
        assert_eq!(t.source(), t.hosts()[0]);
        assert_eq!(t.sink(), t.hosts()[2]);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn line_rejects_single_node() {
        line(1);
    }

    #[test]
    fn parallel_structure() {
        let t = parallel(5, 2.0);
        assert_eq!(t.network.node_count(), 2);
        assert_eq!(t.network.link_count(), 10);
        assert_eq!(t.csr().links_between(t.source(), t.sink()).count(), 5);
        for l in t.network.links() {
            assert_eq!(l.capacity, 2.0);
        }
    }

    #[test]
    fn fat_tree_k4_counts() {
        let t = fat_tree(4);
        // 4 pods * (2 edge + 2 agg) + 4 core = 20 switches; 16 hosts.
        assert_eq!(t.network.switch_count(), 20);
        assert_eq!(t.network.host_count(), 16);
        assert_eq!(t.hosts().len(), 16);
        assert!(strongly_connected(&t));
        // Cables: core-agg k^2/2*k/2? count via formula: 3 * k^3/4 cables.
        let cables = t.network.link_count() / 2;
        assert_eq!(cables, 3 * 4usize.pow(3) / 4);
    }

    #[test]
    fn fat_tree_k8_matches_paper_evaluation() {
        let t = fat_tree(8);
        assert_eq!(t.network.switch_count(), 80, "paper: 80 switches");
        assert_eq!(t.network.host_count(), 128, "paper: 128 servers");
        assert!(strongly_connected(&t));
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_rejects_odd_k() {
        fat_tree(3);
    }

    #[test]
    fn fat_tree_pod_labels_cover_pod_switches_and_hosts() {
        let t = fat_tree(4);
        let g = t.csr();
        assert_eq!(g.pod_count(), 4);
        for node in t.network.nodes() {
            let expect = match node.kind {
                NodeKind::CoreSwitch => None,
                _ => {
                    // Labels are "{kind}-{pod}-..." for pod members.
                    let pod: usize = node.label.split('-').nth(1).unwrap().parse().unwrap();
                    Some(pod)
                }
            };
            assert_eq!(node.pod.map(|p| p as usize), expect, "{}", node.label);
            assert_eq!(g.pod_of(node.id), expect, "{}", node.label);
        }
    }

    #[test]
    fn leaf_spine_pods_are_per_leaf_and_spines_unlabelled() {
        let t = leaf_spine(4, 2, 3);
        let g = t.csr();
        assert_eq!(g.pod_count(), 4);
        for node in t.network.nodes() {
            match node.kind {
                NodeKind::CoreSwitch => assert_eq!(node.pod, None, "{}", node.label),
                _ => assert!(node.pod.is_some(), "{}", node.label),
            }
        }
    }

    #[test]
    fn pod_free_builders_report_zero_pods() {
        assert_eq!(line(4).csr().pod_count(), 0);
        assert_eq!(dumbbell(3, 1.0).csr().pod_count(), 0);
    }

    #[test]
    fn fat_tree_intra_pod_path_is_short() {
        let t = fat_tree(4);
        // hosts 0 and 1 share an edge switch: 2-hop path.
        let p = t.csr().shortest_path(t.hosts()[0], t.hosts()[1]).unwrap();
        assert_eq!(p.len(), 2);
        // hosts 0 and 2 are in the same pod, different edge switches: 4 hops.
        let p = t.csr().shortest_path(t.hosts()[0], t.hosts()[2]).unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn bcube_counts() {
        // BCube(4, 1): 16 servers, 2 levels * 4 switches = 8 switches,
        // each server has 2 links => 32 cables.
        let t = bcube(4, 1);
        assert_eq!(t.network.host_count(), 16);
        assert_eq!(t.network.switch_count(), 8);
        assert_eq!(t.network.link_count() / 2, 32);
        assert!(strongly_connected(&t));
    }

    #[test]
    fn bcube_level0_is_star_of_n() {
        let t = bcube(2, 0);
        // BCube(2,0): 2 servers, 1 switch.
        assert_eq!(t.network.host_count(), 2);
        assert_eq!(t.network.switch_count(), 1);
    }

    #[test]
    fn insert_digit_roundtrip() {
        // rest=5 (base 4: 11), insert digit 2 at pos 1 => digits 1,2,1 = 1*16+2*4+1 = 25
        assert_eq!(insert_digit(5, 1, 2, 4), 25);
        assert_eq!(insert_digit(0, 0, 3, 4), 3);
    }

    #[test]
    fn leaf_spine_counts() {
        let t = leaf_spine(4, 2, 8);
        assert_eq!(t.network.switch_count(), 6);
        assert_eq!(t.network.host_count(), 32);
        assert_eq!(t.network.link_count() / 2, 4 * 2 + 4 * 8);
        assert!(strongly_connected(&t));
    }

    #[test]
    fn dumbbell_structure() {
        let d = dumbbell(3, 1.0);
        assert_eq!(d.network.switch_count(), 2);
        assert_eq!(d.network.host_count(), 6);
        assert!(strongly_connected(&d));
        // Crossing the dumbbell takes 3 hops.
        let p = d.csr().shortest_path(d.hosts()[0], d.hosts()[5]).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(fat_tree(4).name, "fat-tree(k=4)");
        assert_eq!(parallel(2, 1.0).name, "parallel(k=2)");
        assert_eq!(bcube(4, 1).name, "bcube(n=4,k=1)");
    }
}
