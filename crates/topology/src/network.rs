//! The directed multigraph used to model a data-center network.

use crate::{LinkId, NodeId, NodeKind, Path};
use std::collections::VecDeque;

/// A node (switch or host) of the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// The role this node plays (host, edge switch, ...).
    pub kind: NodeKind,
    /// Human-readable label assigned by the topology builder.
    pub label: String,
    /// Locality group the node belongs to, when the builder defines one
    /// (e.g. the pod index of a fat-tree's aggregation/edge switches and
    /// hosts). Core switches and topologies without pod structure leave
    /// this `None`.
    pub pod: Option<u32>,
}

/// A directed, capacitated link of the network.
///
/// The paper models the power consumed by the two ports of a physical cable
/// as the power of "the link"; because traffic in the two directions is
/// independent we represent every cable as two directed links.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The link's identifier.
    pub id: LinkId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Maximum transmission rate `C` (data units per time unit).
    pub capacity: f64,
}

/// A directed multigraph of switches, hosts and capacitated links.
///
/// # Example
///
/// ```
/// use dcn_topology::{Network, NodeKind};
///
/// let mut net = Network::new();
/// let a = net.add_node(NodeKind::Host, "A");
/// let b = net.add_node(NodeKind::Switch, "B");
/// let c = net.add_node(NodeKind::Host, "C");
/// net.add_duplex_link(a, b, 10.0);
/// net.add_duplex_link(b, c, 10.0);
///
/// let path = net.shortest_path(a, c).unwrap();
/// assert_eq!(path.nodes(), &[a, b, c]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node, in insertion order.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming links per node, in insertion order.
    in_links: Vec<Vec<LinkId>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given role and label, returning its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            label: label.into(),
            pod: None,
        });
        self.out_links.push(Vec::new());
        self.in_links.push(Vec::new());
        id
    }

    /// Assigns `node` to locality group (pod) `pod`. Builders with pod
    /// structure (the fat-tree) call this; pod-aware consumers read it back
    /// through [`Node::pod`] or [`crate::GraphCsr::pod_of`].
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or `pod` exceeds `u32::MAX - 1`.
    pub fn set_node_pod(&mut self, node: NodeId, pod: usize) {
        assert!(node.index() < self.nodes.len(), "unknown node {node}");
        assert!(pod < u32::MAX as usize, "pod index {pod} out of range");
        self.nodes[node.index()].pod = Some(pod as u32);
    }

    /// The locality group (pod) of `node`, if the builder assigned one.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_pod(&self, node: NodeId) -> Option<usize> {
        self.nodes[node.index()].pod.map(|p| p as usize)
    }

    /// Adds a directed link from `src` to `dst` with maximum rate `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or `capacity` is not a
    /// positive, finite number.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, capacity: f64) -> LinkId {
        assert!(src.index() < self.nodes.len(), "unknown source node {src}");
        assert!(
            dst.index() < self.nodes.len(),
            "unknown destination node {dst}"
        );
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite, got {capacity}"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            src,
            dst,
            capacity,
        });
        self.out_links[src.index()].push(id);
        self.in_links[dst.index()].push(id);
        id
    }

    /// Adds a pair of directed links (`src -> dst` and `dst -> src`) modelling
    /// one physical cable, returning the two link ids.
    pub fn add_duplex_link(&mut self, src: NodeId, dst: NodeId, capacity: f64) -> (LinkId, LinkId) {
        let forward = self.add_link(src, dst, capacity);
        let backward = self.add_link(dst, src, capacity);
        (forward, backward)
    }

    /// Number of nodes (hosts + switches).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of switch nodes.
    pub fn switch_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_switch()).count()
    }

    /// Number of host nodes.
    pub fn host_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_host()).count()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all directed links in id order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Outgoing links of `node`, in insertion order.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// Incoming links of `node`, in insertion order.
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        &self.in_links[node.index()]
    }

    /// Finds a directed link from `src` to `dst`, if one exists.
    ///
    /// If parallel links exist, the first inserted one is returned.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_links[src.index()]
            .iter()
            .copied()
            .find(|&l| self.link(l).dst == dst)
    }

    /// Iterates over every directed link from `src` to `dst` (parallel
    /// links), in insertion order and without allocating: the scan is
    /// confined to the out-neighbourhood of `src`. The flat read path is
    /// [`crate::GraphCsr::links_between`], which serves the same query from
    /// the contiguous CSR arrays.
    pub fn find_links(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        self.out_links[src.index()]
            .iter()
            .copied()
            .filter(move |&l| self.link(l).dst == dst)
    }

    /// Reverse link of `link` (same cable, opposite direction), if present.
    pub fn reverse_link(&self, link: LinkId) -> Option<LinkId> {
        let l = self.link(link);
        self.find_link(l.dst, l.src)
    }

    /// Breadth-first shortest path (fewest hops) from `src` to `dst`.
    ///
    /// Returns `None` when `dst` is unreachable from `src`. Ties are broken
    /// deterministically by link insertion order.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return Path::from_links(self, src, &[]).ok();
        }
        let n = self.node_count();
        let mut parent_link: Vec<Option<LinkId>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[src.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &lid in &self.out_links[u.index()] {
                let v = self.link(lid).dst;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent_link[v.index()] = Some(lid);
                    if v == dst {
                        return Some(self.reconstruct(src, dst, &parent_link));
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// BFS hop distance from `src` to every node (`usize::MAX` = unreachable).
    pub fn hop_distances(&self, src: NodeId) -> Vec<usize> {
        let n = self.node_count();
        let mut dist = vec![usize::MAX; n];
        dist[src.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &lid in &self.out_links[u.index()] {
                let v = self.link(lid).dst;
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Returns `true` if every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let from_zero = self.hop_distances(NodeId(0));
        if from_zero.contains(&usize::MAX) {
            return false;
        }
        // Check the reverse direction by walking in-links from node 0.
        let n = self.node_count();
        let mut visited = vec![false; n];
        visited[0] = true;
        let mut queue = VecDeque::new();
        queue.push_back(NodeId(0));
        let mut seen = 1usize;
        while let Some(u) = queue.pop_front() {
            for &lid in &self.in_links[u.index()] {
                let v = self.link(lid).src;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    seen += 1;
                    queue.push_back(v);
                }
            }
        }
        seen == n
    }

    fn reconstruct(&self, src: NodeId, dst: NodeId, parent_link: &[Option<LinkId>]) -> Path {
        let mut links_rev = Vec::new();
        let mut cur = dst;
        while cur != src {
            let lid = parent_link[cur.index()].expect("path reconstruction reached a dead end");
            links_rev.push(lid);
            cur = self.link(lid).src;
        }
        links_rev.reverse();
        Path::from_links(self, src, &links_rev).expect("reconstructed path must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Switch, "b");
        let c = net.add_node(NodeKind::Host, "c");
        net.add_duplex_link(a, b, 1.0);
        net.add_duplex_link(b, c, 1.0);
        net.add_duplex_link(a, c, 1.0);
        (net, a, b, c)
    }

    #[test]
    fn add_nodes_and_links() {
        let (net, a, b, c) = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 6);
        assert_eq!(net.host_count(), 2);
        assert_eq!(net.switch_count(), 1);
        assert_eq!(net.out_links(a).len(), 2);
        assert_eq!(net.out_links(b).len(), 2);
        assert_eq!(net.out_links(c).len(), 2);
    }

    #[test]
    fn find_link_and_reverse() {
        let (net, a, b, _c) = triangle();
        let l = net.find_link(a, b).unwrap();
        assert_eq!(net.link(l).src, a);
        assert_eq!(net.link(l).dst, b);
        let r = net.reverse_link(l).unwrap();
        assert_eq!(net.link(r).src, b);
        assert_eq!(net.link(r).dst, a);
        assert_ne!(l, r);
    }

    #[test]
    fn parallel_links_are_kept_separately() {
        let mut net = Network::new();
        let s = net.add_node(NodeKind::Host, "src");
        let d = net.add_node(NodeKind::Host, "dst");
        for _ in 0..4 {
            net.add_link(s, d, 2.0);
        }
        assert_eq!(net.find_links(s, d).count(), 4);
        assert_eq!(net.link_count(), 4);
    }

    #[test]
    fn shortest_path_direct_beats_two_hop() {
        let (net, a, _b, c) = triangle();
        let p = net.shortest_path(a, c).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), c);
    }

    #[test]
    fn shortest_path_to_self_is_empty() {
        let (net, a, _, _) = triangle();
        let p = net.shortest_path(a, a).unwrap();
        assert_eq!(p.len(), 0);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), a);
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        // Only a -> b, not b -> a.
        net.add_link(a, b, 1.0);
        assert!(net.shortest_path(b, a).is_none());
        assert!(net.shortest_path(a, b).is_some());
    }

    #[test]
    fn hop_distances_line() {
        let mut net = Network::new();
        let n0 = net.add_node(NodeKind::Host, "0");
        let n1 = net.add_node(NodeKind::Switch, "1");
        let n2 = net.add_node(NodeKind::Switch, "2");
        let n3 = net.add_node(NodeKind::Host, "3");
        net.add_duplex_link(n0, n1, 1.0);
        net.add_duplex_link(n1, n2, 1.0);
        net.add_duplex_link(n2, n3, 1.0);
        let d = net.hop_distances(n0);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn strongly_connected_detection() {
        let (net, ..) = triangle();
        assert!(net.is_strongly_connected());

        let mut oneway = Network::new();
        let a = oneway.add_node(NodeKind::Host, "a");
        let b = oneway.add_node(NodeKind::Host, "b");
        oneway.add_link(a, b, 1.0);
        assert!(!oneway.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        net.add_link(a, b, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown destination node")]
    fn dangling_endpoint_rejected() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        net.add_link(a, NodeId(7), 1.0);
    }

    #[test]
    fn pod_labels_default_to_none_and_round_trip() {
        let (mut net, a, b, _c) = triangle();
        assert_eq!(net.node_pod(a), None);
        net.set_node_pod(a, 3);
        net.set_node_pod(b, 0);
        assert_eq!(net.node_pod(a), Some(3));
        assert_eq!(net.node_pod(b), Some(0));
        assert_eq!(net.node(a).pod, Some(3));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn pod_label_rejects_unknown_node() {
        let (mut net, ..) = triangle();
        net.set_node_pod(NodeId(99), 0);
    }
}
