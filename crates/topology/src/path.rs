//! Routing paths: ordered sequences of directed links.

use crate::{LinkId, NodeId};
use std::fmt;

/// Errors that can occur when constructing a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Two consecutive links do not share an endpoint.
    Disconnected {
        /// Position (0-based) of the offending link in the sequence.
        position: usize,
    },
    /// The path visits the same node more than once.
    Loop {
        /// The repeated node.
        node: NodeId,
    },
    /// A link id does not exist in the network.
    UnknownLink(LinkId),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Disconnected { position } => {
                write!(
                    f,
                    "links at positions {} and {} are not adjacent",
                    position,
                    position + 1
                )
            }
            PathError::Loop { node } => write!(f, "path visits node {node} more than once"),
            PathError::UnknownLink(l) => write!(f, "link {l} does not exist in the network"),
        }
    }
}

impl std::error::Error for PathError {}

/// The simplicity check of the path validators: the smallest node id
/// that occurs more than once in `nodes`, if any.
///
/// Data-center paths are a handful of hops and almost always simple, and
/// path-building loops (k shortest paths, flow decomposition) construct
/// them by the thousand, so a short sequence is first scanned in place;
/// the allocating sort runs only when that scan found a repeat or the
/// sequence is long.
pub(crate) fn repeated_node(nodes: &[NodeId]) -> Option<NodeId> {
    const SCAN_LIMIT: usize = 16;
    if nodes.len() <= SCAN_LIMIT
        && nodes
            .iter()
            .enumerate()
            .all(|(i, node)| !nodes[..i].contains(node))
    {
        return None;
    }
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// A simple (loop-free) directed path through a network.
///
/// [`crate::GraphCsr::path_from_links`] and
/// [`crate::GraphCsr::path_from_nodes`] build one, validating it against
/// the graph. A path
/// stores its source node and the ordered list of directed links it
/// traverses; the node sequence is derivable from those. The empty path
/// (source equals destination, no links) is allowed so that flows between
/// co-located endpoints degenerate gracefully.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    source: NodeId,
    links: Vec<LinkId>,
    nodes: Vec<NodeId>,
}

impl Path {
    /// Assembles a path from already-validated parts (crate-internal: used
    /// by [`crate::GraphCsr`]'s validators and the shortest-path engine, whose
    /// walks produce valid simple paths by construction).
    pub(crate) fn from_parts(source: NodeId, links: Vec<LinkId>, nodes: Vec<NodeId>) -> Self {
        debug_assert_eq!(nodes.len(), links.len() + 1);
        debug_assert_eq!(nodes.first(), Some(&source));
        Path {
            source,
            links,
            nodes,
        }
    }

    /// The first node of the path.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The last node of the path.
    pub fn destination(&self) -> NodeId {
        *self
            .nodes
            .last()
            .expect("path always has at least one node")
    }

    /// Number of links (hops) in the path.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the path has no links (source == destination).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The ordered link sequence.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The ordered node sequence (one longer than [`Self::links`]).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Returns `true` if the path traverses `link`.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// Returns `true` if the path visits `node`.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Total weight of the path under a per-link weight function.
    pub fn weight(&self, mut link_weight: impl FnMut(LinkId) -> f64) -> f64 {
        self.links.iter().map(|&l| link_weight(l)).sum()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.nodes.iter().map(|n| n.to_string()).collect();
        write!(f, "{}", labels.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphCsr, Network, NodeKind};

    fn line3() -> (GraphCsr, Vec<NodeId>) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Switch, "b");
        let c = net.add_node(NodeKind::Host, "c");
        net.add_duplex_link(a, b, 5.0);
        net.add_duplex_link(b, c, 3.0);
        (GraphCsr::from_network(&net), vec![a, b, c])
    }

    #[test]
    fn from_nodes_builds_expected_links() {
        let (graph, ns) = line3();
        let p = graph.path_from_nodes(&ns).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), ns[0]);
        assert_eq!(p.destination(), ns[2]);
        assert_eq!(p.nodes(), &ns[..]);
        assert!(p.contains_node(ns[1]));
    }

    #[test]
    fn from_links_rejects_disconnected() {
        let (graph, ns) = line3();
        // Take a->b and c->b: not chained.
        let ab = graph.find_link(ns[0], ns[1]).unwrap();
        let cb = graph.find_link(ns[2], ns[1]).unwrap();
        let err = graph.path_from_links(ns[0], &[ab, cb]).unwrap_err();
        assert!(matches!(err, PathError::Disconnected { .. }));
    }

    #[test]
    fn repeated_node_reports_the_smallest_repeat_at_any_length() {
        let ids = |v: &[usize]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(repeated_node(&ids(&[4, 2, 9, 0])), None);
        // Two repeated nodes, the larger one first in path order.
        assert_eq!(repeated_node(&ids(&[7, 3, 7, 5, 3])), Some(NodeId(3)));
        // Past the in-place scan's length limit.
        let mut long: Vec<usize> = (0..40).collect();
        assert_eq!(repeated_node(&ids(&long)), None);
        long.push(31);
        long.push(12);
        assert_eq!(repeated_node(&ids(&long)), Some(NodeId(12)));
    }

    #[test]
    fn from_links_rejects_loop() {
        let (graph, ns) = line3();
        let ab = graph.find_link(ns[0], ns[1]).unwrap();
        let ba = graph.find_link(ns[1], ns[0]).unwrap();
        let err = graph.path_from_links(ns[0], &[ab, ba]).unwrap_err();
        assert!(matches!(err, PathError::Loop { .. }));
    }

    #[test]
    fn unknown_link_is_reported() {
        let (graph, ns) = line3();
        let err = graph.path_from_links(ns[0], &[LinkId(99)]).unwrap_err();
        assert_eq!(err, PathError::UnknownLink(LinkId(99)));
    }

    #[test]
    fn empty_path_is_allowed() {
        let (graph, ns) = line3();
        let p = graph.path_from_links(ns[0], &[]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.source(), p.destination());
        assert_eq!(p.weight(|_| 1.0), 0.0);
    }

    #[test]
    fn weight_sums_the_link_weights() {
        let (graph, ns) = line3();
        let p = graph.path_from_nodes(&ns).unwrap();
        let hops = p.weight(|_| 1.0);
        assert_eq!(hops, 2.0);
    }

    #[test]
    fn display_is_readable() {
        let (graph, ns) = line3();
        let p = graph.path_from_nodes(&ns).unwrap();
        assert_eq!(p.to_string(), "n0 -> n1 -> n2");
    }
}
