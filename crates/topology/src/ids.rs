//! Identifier newtypes for nodes and links, and the hasher of maps keyed
//! by them.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a node (switch or host) in a [`crate::Network`].
///
/// Node ids are dense: a network with `n` nodes uses ids `0..n`, so they can
/// be used directly as indices into per-node state vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a directed link in a [`crate::Network`].
///
/// Link ids are dense: a network with `m` directed links uses ids `0..m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl NodeId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl LinkId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl From<usize> for LinkId {
    fn from(value: usize) -> Self {
        LinkId(value)
    }
}

/// The hasher of maps keyed by node ids (and other small dense ids):
/// [`NodeHasher`] instead of SipHash. Such a map holds at most the `n²`
/// pairs of the fabric, so an unkeyed hash can only be aimed at keys that
/// exist.
pub type NodeHash = BuildHasherDefault<NodeHasher>;

/// A multiply–xor hasher (the FxHash mix) for keys made of node ids: each
/// `usize` is folded in with a rotate, an xor and one multiplication.
#[derive(Debug, Default)]
pub struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_usize(usize::from(byte));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits; the multiplication mixes
        // upwards, so bring the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

/// The role a node plays in the data center.
///
/// The scheduling algorithms never branch on the role, but topology builders
/// record it so that workload generators can pick host pairs and experiments
/// can report per-layer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host (server) attached to the network.
    Host,
    /// A top-of-rack / edge switch.
    EdgeSwitch,
    /// An aggregation-layer switch.
    AggregationSwitch,
    /// A core-layer switch.
    CoreSwitch,
    /// A switch with no particular layer (generic topologies).
    Switch,
}

impl NodeKind {
    /// Returns `true` if the node is an end host.
    pub fn is_host(self) -> bool {
        matches!(self, NodeKind::Host)
    }

    /// Returns `true` if the node is any kind of switch.
    pub fn is_switch(self) -> bool {
        !self.is_host()
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Host => "host",
            NodeKind::EdgeSwitch => "edge",
            NodeKind::AggregationSwitch => "aggregation",
            NodeKind::CoreSwitch => "core",
            NodeKind::Switch => "switch",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn link_id_roundtrip() {
        let id = LinkId::from(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "e7");
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Host.is_host());
        assert!(!NodeKind::Host.is_switch());
        for kind in [
            NodeKind::EdgeSwitch,
            NodeKind::AggregationSwitch,
            NodeKind::CoreSwitch,
            NodeKind::Switch,
        ] {
            assert!(kind.is_switch(), "{kind} should be a switch");
            assert!(!kind.is_host());
        }
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(LinkId(0) < LinkId(10));
    }

    #[test]
    fn display_of_kinds_is_stable() {
        assert_eq!(NodeKind::AggregationSwitch.to_string(), "aggregation");
        assert_eq!(NodeKind::CoreSwitch.to_string(), "core");
    }
}
