//! The directed multigraph used to model a data-center network.

use crate::{LinkId, NodeId, NodeKind};

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
/// The network only stores its nodes and links, in id order; adjacency and
/// every traversal live in the [`GraphCsr`](crate::GraphCsr) view built
/// from it.
///
/// # Example
///
/// ```
/// use dcn_topology::{GraphCsr, Network, NodeKind};
///
/// let mut net = Network::new();
/// let a = net.add_node(NodeKind::Host, "A");
/// let b = net.add_node(NodeKind::Switch, "B");
/// let c = net.add_node(NodeKind::Host, "C");
/// net.add_duplex_link(a, b, 10.0);
/// net.add_duplex_link(b, c, 10.0);
///
/// let path = GraphCsr::from_network(&net).shortest_path(a, c).unwrap();
/// assert_eq!(path.nodes(), &[a, b, c]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphCsr;

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
        let graph = GraphCsr::from_network(&net);
        assert_eq!(graph.out_links(a).len(), 2);
        assert_eq!(graph.out_links(b).len(), 2);
        assert_eq!(graph.out_links(c).len(), 2);
    }

    #[test]
    fn duplex_links_are_two_directed_links_in_id_order() {
        let (net, a, b, _c) = triangle();
        let ids: Vec<_> = net.links().map(|l| l.id).collect();
        assert_eq!(ids, (0..6).map(LinkId).collect::<Vec<_>>());
        assert_eq!((net.link(LinkId(0)).src, net.link(LinkId(0)).dst), (a, b));
        assert_eq!((net.link(LinkId(1)).src, net.link(LinkId(1)).dst), (b, a));
    }

    #[test]
    fn parallel_links_are_kept_separately() {
        let mut net = Network::new();
        let s = net.add_node(NodeKind::Host, "src");
        let d = net.add_node(NodeKind::Host, "dst");
        for _ in 0..4 {
            net.add_link(s, d, 2.0);
        }
        assert_eq!(net.link_count(), 4);
        assert!(net.links().all(|l| (l.src, l.dst) == (s, d)));
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
        assert_eq!(net.node(a).pod, None);
        net.set_node_pod(a, 3);
        net.set_node_pod(b, 0);
        assert_eq!(net.node(a).pod, Some(3));
        assert_eq!(net.node(b).pod, Some(0));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn pod_label_rejects_unknown_node() {
        let (mut net, ..) = triangle();
        net.set_node_pod(NodeId(99), 0);
    }
}
