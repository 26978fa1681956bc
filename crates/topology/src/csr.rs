//! A flat, cache-friendly compressed-sparse-row (CSR) view of a
//! [`Network`].
//!
//! [`Network`] is the *store*: the builders append nodes and links to it
//! one at a time, and it keeps nothing else. [`GraphCsr`] is the *read
//! path*: built once from a finished network, it is the only adjacency and
//! runs every traversal, packing the whole graph into a handful of
//! contiguous arrays —
//!
//! * `out_offsets`/`out_link_ids` — the out-adjacency of node `v` is the
//!   slice `out_link_ids[out_offsets[v]..out_offsets[v + 1]]`, preserving
//!   link insertion order (the deterministic tie-break order every routing
//!   algorithm in this workspace relies on);
//! * `in_offsets`/`in_link_ids` — the same for in-adjacency;
//! * `link_src`/`link_dst`/`link_capacity` — per-link attributes indexed
//!   directly by [`LinkId`].
//!
//! Traversals touch memory sequentially instead of chasing per-node
//! vectors, which is what makes the hot paths (the Frank–Wolfe solver's
//! inner Dijkstra, the schedule audit's capacity lookups) fast at fat-tree
//! k ≥ 16 scale.
//!
//! # Example
//!
//! ```
//! use dcn_topology::{builders, GraphCsr, ShortestPathEngine};
//!
//! let ft = builders::fat_tree(4);
//! let graph = GraphCsr::from_network(&ft.network);
//! assert_eq!(graph.node_count(), ft.network.node_count());
//!
//! // Fewest-hop shortest path, served from flat arrays.
//! let hosts = ft.hosts();
//! let path = graph.shortest_path(hosts[0], hosts[15]).unwrap();
//! assert_eq!(path.len(), 6);
//!
//! // Weighted shortest paths run through the reusable engine.
//! let mut engine = ShortestPathEngine::new();
//! let weighted = engine
//!     .shortest_path(&graph, hosts[0], hosts[15], |_| 1.0)
//!     .unwrap();
//! assert_eq!(weighted.len(), 6);
//! ```

use crate::{LinkId, Network, NodeId, Path, PathError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// The workspace-global epoch counter. Every [`GraphCsr`] build *and*
/// every mutation draws a fresh value, so an epoch uniquely identifies
/// one (graph, mutation-state) pair for the whole process lifetime —
/// unlike an allocation address, a recycled epoch can never alias a
/// different graph. Epoch values are only ever compared for equality
/// (cache keys), never emitted into artifacts, so the counter does not
/// affect the determinism contract.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A compressed-sparse-row snapshot of a [`Network`]: contiguous adjacency
/// and per-link attribute arrays, the read path of the network store. See
/// the module-level documentation for the layout.
///
/// # Dynamic topology
///
/// The view supports link failure and recovery in place:
/// [`GraphCsr::fail_link`] removes a directed link from the adjacency
/// arrays and masks its capacity to zero, [`GraphCsr::restore_link`]
/// rebuilds it with the exact pre-failure capacity. Every mutation bumps
/// the graph's [`GraphCsr::epoch`] — the cache key downstream residual
/// ledgers and warm-start fingerprints use to detect that the topology
/// under them changed.
#[derive(Debug, Clone)]
pub struct GraphCsr {
    /// `out_offsets[v]..out_offsets[v + 1]` indexes `out_link_ids`.
    out_offsets: Vec<u32>,
    /// Out-links of all nodes, concatenated in node order; insertion order
    /// is preserved within each node.
    out_link_ids: Vec<LinkId>,
    /// Destination of `out_link_ids[i]`, position-aligned so traversals
    /// read the neighbour sequentially instead of via `link_dst[link]`.
    out_dsts: Vec<NodeId>,
    /// `in_offsets[v]..in_offsets[v + 1]` indexes `in_link_ids`.
    in_offsets: Vec<u32>,
    /// In-links of all nodes, concatenated in node order.
    in_link_ids: Vec<LinkId>,
    /// Source node of every link, indexed by [`LinkId`].
    link_src: Vec<NodeId>,
    /// Destination node of every link, indexed by [`LinkId`].
    link_dst: Vec<NodeId>,
    /// *Effective* capacity of every link, indexed by [`LinkId`]: the
    /// built capacity while the link is up, `0.0` while it is down.
    link_capacity: Vec<f64>,
    /// The pristine built capacity of every link; [`GraphCsr::restore_link`]
    /// copies from here so recovery is bit-exact.
    base_capacity: Vec<f64>,
    /// Whether each link is currently up (in the adjacency arrays).
    link_up: Vec<bool>,
    /// Number of currently failed links.
    down_count: usize,
    /// Locality group (pod) of every node, `u32::MAX` when unassigned.
    node_pod: Vec<u32>,
    /// Number of distinct pods (`max assigned pod + 1`, 0 when none).
    pod_count: usize,
    /// Monotonically increasing mutation stamp, globally unique per
    /// (graph, state) — see [`GraphCsr::epoch`].
    epoch: u64,
}

/// Structural equality: two views are equal when they describe the same
/// graph in the same up/down state. The `epoch` is deliberately excluded —
/// it identifies a cache generation, not graph content, and two
/// independently built identical graphs must still compare equal.
impl PartialEq for GraphCsr {
    fn eq(&self, other: &Self) -> bool {
        self.out_offsets == other.out_offsets
            && self.out_link_ids == other.out_link_ids
            && self.out_dsts == other.out_dsts
            && self.in_offsets == other.in_offsets
            && self.in_link_ids == other.in_link_ids
            && self.link_src == other.link_src
            && self.link_dst == other.link_dst
            && self.link_capacity == other.link_capacity
            && self.base_capacity == other.base_capacity
            && self.link_up == other.link_up
            && self.node_pod == other.node_pod
            && self.pod_count == other.pod_count
    }
}

/// The parent-link entry of a node a [`BfsTree`] did not reach (and of its
/// source).
const NO_PARENT: u32 = u32::MAX;

/// The breadth-first search tree of one source ([`GraphCsr::bfs_tree`]).
/// Each node's parent link is stored as a compact `u32` link index — a
/// tree costs four bytes per node — and [`BfsTree::path_to`] reads the
/// fewest-hop path to any node off it.
#[derive(Debug, Clone)]
pub struct BfsTree {
    source: NodeId,
    /// `parent[v]` is the index of the link `v` was discovered over, or
    /// [`NO_PARENT`].
    parent: Vec<u32>,
}

impl BfsTree {
    /// The fewest-hop path from the source to `dst` in `graph` (the graph
    /// the tree was grown on), or `None` when the traversal never reached
    /// `dst`.
    pub fn path_to(&self, graph: &GraphCsr, dst: NodeId) -> Option<Path> {
        let mut links_rev = Vec::new();
        let mut cur = dst;
        while cur != self.source {
            let lid = *self.parent.get(cur.index())?;
            if lid == NO_PARENT {
                return None;
            }
            let lid = LinkId(lid as usize);
            links_rev.push(lid);
            cur = graph.link_src(lid);
        }
        links_rev.reverse();
        graph.path_from_links(self.source, &links_rev).ok()
    }
}

impl GraphCsr {
    /// Builds the CSR view of a network.
    ///
    /// The view is a snapshot: links added to the network afterwards are
    /// not reflected. Building is `O(nodes + links)`.
    ///
    /// # Panics
    ///
    /// Panics if the network exceeds the CSR's compact id range
    /// (`u32::MAX - 1` nodes or links) — offsets and the search engine's
    /// node/parent stamps are stored as `u32`.
    pub fn from_network(network: &Network) -> Self {
        let n = network.node_count();
        let m = network.link_count();
        assert!(
            n < u32::MAX as usize && m < u32::MAX as usize,
            "network exceeds the CSR u32 id range ({n} nodes, {m} links)"
        );

        let mut link_src = Vec::with_capacity(m);
        let mut link_dst = Vec::with_capacity(m);
        let mut link_capacity = Vec::with_capacity(m);
        for link in network.links() {
            link_src.push(link.src);
            link_dst.push(link.dst);
            link_capacity.push(link.capacity);
        }

        let node_pod: Vec<u32> = network
            .nodes()
            .map(|node| node.pod.unwrap_or(u32::MAX))
            .collect();
        let pod_count = node_pod
            .iter()
            .filter(|&&p| p != u32::MAX)
            .map(|&p| p as usize + 1)
            .max()
            .unwrap_or(0);

        let mut graph = Self {
            out_offsets: Vec::new(),
            out_link_ids: Vec::new(),
            out_dsts: Vec::new(),
            in_offsets: Vec::new(),
            in_link_ids: Vec::new(),
            link_src,
            link_dst,
            base_capacity: link_capacity.clone(),
            link_capacity,
            link_up: vec![true; m],
            down_count: 0,
            node_pod,
            pod_count,
            epoch: next_epoch(),
        };
        graph.rebuild_adjacency();
        graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_pod.len()
    }

    /// Number of directed links (up and down).
    pub fn link_count(&self) -> usize {
        self.link_src.len()
    }

    /// The graph's mutation epoch: a process-globally unique stamp drawn
    /// at build time and re-drawn on every [`GraphCsr::fail_link`] /
    /// [`GraphCsr::restore_link`]. An `(epoch, ...)` tuple is the correct
    /// cache key for state derived from this view — unlike an allocation
    /// address, it can never alias a different graph (or a different
    /// mutation state of the same graph) through allocator recycling.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `link` is currently up.
    #[inline]
    pub fn is_link_up(&self, link: LinkId) -> bool {
        self.link_up[link.index()]
    }

    /// Number of currently failed links.
    pub fn down_link_count(&self) -> usize {
        self.down_count
    }

    /// The ids of every currently failed link, in id order.
    pub fn down_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.link_up
            .iter()
            .enumerate()
            .filter(|(_, up)| !**up)
            .map(|(i, _)| LinkId(i))
    }

    /// Takes `link` down: removes it from the adjacency arrays (so every
    /// traversal — BFS, Dijkstra, reachability — automatically avoids it)
    /// and masks its capacity to zero. Bumps the epoch. Returns `false`
    /// when the link was already down (no state change, no epoch bump).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn fail_link(&mut self, link: LinkId) -> bool {
        if !self.link_up[link.index()] {
            return false;
        }
        self.link_up[link.index()] = false;
        self.link_capacity[link.index()] = 0.0;
        self.down_count += 1;
        self.rebuild_adjacency();
        self.epoch = next_epoch();
        true
    }

    /// Brings `link` back up with its exact pre-failure capacity and
    /// reinserts it into the adjacency arrays at its original position
    /// (per-node adjacency is in link-id order, so recovery restores the
    /// identical traversal order). Bumps the epoch. Returns `false` when
    /// the link was already up.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        if self.link_up[link.index()] {
            return false;
        }
        self.link_up[link.index()] = true;
        self.link_capacity[link.index()] = self.base_capacity[link.index()];
        self.down_count -= 1;
        self.rebuild_adjacency();
        self.epoch = next_epoch();
        true
    }

    /// Builds the adjacency arrays from the per-link attribute arrays,
    /// skipping down links: the links are bucketed by source and by
    /// destination in link-id order, so a node's adjacency is in link-id
    /// (insertion) order and a recovered view equals the pristine one.
    fn rebuild_adjacency(&mut self) {
        let n = self.node_count();
        let m = self.link_count();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for id in 0..m {
            if self.link_up[id] {
                out_offsets[self.link_src[id].index() + 1] += 1;
                in_offsets[self.link_dst[id].index() + 1] += 1;
            }
        }
        for v in 0..n {
            out_offsets[v + 1] += out_offsets[v];
            in_offsets[v + 1] += in_offsets[v];
        }
        let live = m - self.down_count;
        let mut out_link_ids = vec![LinkId(0); live];
        let mut out_dsts = vec![NodeId(0); live];
        let mut in_link_ids = vec![LinkId(0); live];
        let mut out_cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
        for id in 0..m {
            if self.link_up[id] {
                let src = self.link_src[id].index();
                let dst = self.link_dst[id].index();
                out_link_ids[out_cursor[src] as usize] = LinkId(id);
                out_dsts[out_cursor[src] as usize] = self.link_dst[id];
                out_cursor[src] += 1;
                in_link_ids[in_cursor[dst] as usize] = LinkId(id);
                in_cursor[dst] += 1;
            }
        }
        self.out_offsets = out_offsets;
        self.out_link_ids = out_link_ids;
        self.out_dsts = out_dsts;
        self.in_offsets = in_offsets;
        self.in_link_ids = in_link_ids;
    }

    /// Outgoing links of `node`, in insertion order.
    #[inline]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        &self.out_link_ids[lo..hi]
    }

    /// Outgoing `(link, destination)` pairs of `node`, in insertion order,
    /// read from two position-aligned sequential arrays (the hot-loop
    /// variant of [`GraphCsr::out_links`] that avoids the per-link
    /// `link_dst` lookup).
    #[inline]
    pub fn out_links_with_dsts(&self, node: NodeId) -> impl Iterator<Item = (LinkId, NodeId)> + '_ {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        self.out_link_ids[lo..hi]
            .iter()
            .copied()
            .zip(self.out_dsts[lo..hi].iter().copied())
    }

    /// Incoming links of `node`, in insertion order.
    #[inline]
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        let lo = self.in_offsets[node.index()] as usize;
        let hi = self.in_offsets[node.index() + 1] as usize;
        &self.in_link_ids[lo..hi]
    }

    /// Source node of `link`.
    #[inline]
    pub fn link_src(&self, link: LinkId) -> NodeId {
        self.link_src[link.index()]
    }

    /// Destination node of `link`.
    #[inline]
    pub fn link_dst(&self, link: LinkId) -> NodeId {
        self.link_dst[link.index()]
    }

    /// Effective capacity of `link`: the built capacity while the link is
    /// up, `0.0` while it is down ([`GraphCsr::fail_link`]).
    #[inline]
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.link_capacity[link.index()]
    }

    /// The locality group (pod) of `node`, if the topology builder assigned
    /// one ([`Network::set_node_pod`]). `None` for shared infrastructure
    /// (core/spine switches) and pod-free topologies.
    #[inline]
    pub fn pod_of(&self, node: NodeId) -> Option<usize> {
        let p = self.node_pod[node.index()];
        (p != u32::MAX).then_some(p as usize)
    }

    /// Number of distinct pods the builder labelled (`0` when the topology
    /// has no pod structure).
    pub fn pod_count(&self) -> usize {
        self.pod_count
    }

    /// Every directed link from `src` to `dst` (parallel links), served
    /// from the contiguous out-neighbourhood of `src` without allocating.
    pub fn links_between(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        self.out_links(src)
            .iter()
            .copied()
            .filter(move |&l| self.link_dst(l) == dst)
    }

    /// The first-inserted directed link from `src` to `dst`, if any.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.links_between(src, dst).next()
    }

    /// Breadth-first shortest path (fewest hops) from `src` to `dst`, or
    /// `None` when `dst` is unreachable.
    ///
    /// Ties are broken by link insertion order: a node is discovered over
    /// the first of its in-links the traversal reaches. The path is read
    /// off a [`GraphCsr::bfs_tree`] traversal that stops as soon as `dst`
    /// is discovered.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        self.bfs(src, Some(dst)).path_to(self, dst)
    }

    /// The breadth-first search tree of `src`: every node's parent link,
    /// the link it was *first* discovered over. The path to any node read
    /// off the tree is the one [`GraphCsr::shortest_path`] returns, because
    /// both are the same traversal, this one run to the end.
    pub fn bfs_tree(&self, src: NodeId) -> BfsTree {
        self.bfs(src, None)
    }

    /// The one BFS of the view: visits out-links in adjacency order and
    /// stops once `stop_at` (if any) has been discovered.
    fn bfs(&self, src: NodeId, stop_at: Option<NodeId>) -> BfsTree {
        let mut parent = vec![NO_PARENT; self.node_count()];
        if stop_at != Some(src) {
            let mut queue = Vec::with_capacity(self.node_count());
            queue.push(src);
            let mut head = 0;
            'search: while let Some(&u) = queue.get(head) {
                head += 1;
                for (lid, v) in self.out_links_with_dsts(u) {
                    if v != src && parent[v.index()] == NO_PARENT {
                        parent[v.index()] = lid.index() as u32;
                        if Some(v) == stop_at {
                            break 'search;
                        }
                        queue.push(v);
                    }
                }
            }
        }
        BfsTree {
            source: src,
            parent,
        }
    }

    /// BFS hop distance from every node *to* `dst` (`usize::MAX` =
    /// unreachable), computed over the in-adjacency.
    pub fn hop_distances_to(&self, dst: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[dst.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            for &lid in self.in_links(u) {
                let v = self.link_src(lid);
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Builds a [`Path`] from a source node and an ordered link sequence,
    /// validating adjacency and simplicity. A link that is down still
    /// validates: only the link's endpoints are read.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::UnknownLink`] if a link id is out of range,
    /// [`PathError::Disconnected`] if consecutive links do not chain, and
    /// [`PathError::Loop`] if a node repeats.
    pub fn path_from_links(&self, source: NodeId, links: &[LinkId]) -> Result<Path, PathError> {
        let mut nodes = Vec::with_capacity(links.len() + 1);
        nodes.push(source);
        let mut cur = source;
        for (pos, &lid) in links.iter().enumerate() {
            if lid.index() >= self.link_count() {
                return Err(PathError::UnknownLink(lid));
            }
            if self.link_src(lid) != cur {
                return Err(PathError::Disconnected {
                    position: pos.saturating_sub(1),
                });
            }
            cur = self.link_dst(lid);
            nodes.push(cur);
        }
        if let Some(node) = crate::path::repeated_node(&nodes) {
            return Err(PathError::Loop { node });
        }
        Ok(Path::from_parts(source, links.to_vec(), nodes))
    }

    /// Builds a [`Path`] from a node sequence, joining each consecutive
    /// pair by its first-inserted up link ([`GraphCsr::find_link`]). A
    /// down link joins nothing, so a path recorded before a failure
    /// resolves only on a view without that failure.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::Disconnected`] if two consecutive nodes are not
    /// joined by an up link (or the first of them is not a node of the
    /// graph), or [`PathError::Loop`] if a node repeats.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn path_from_nodes(&self, nodes: &[NodeId]) -> Result<Path, PathError> {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        let mut links = Vec::with_capacity(nodes.len() - 1);
        for (position, w) in nodes.windows(2).enumerate() {
            let known = w[0].index() < self.node_count();
            match known.then(|| self.find_link(w[0], w[1])).flatten() {
                Some(link) => links.push(link),
                None => return Err(PathError::Disconnected { position }),
            }
        }
        self.path_from_links(nodes[0], &links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, NodeKind};

    /// The adjacency as the network once kept it: per-node vectors filled
    /// in link-id order, then concatenated node by node.
    fn bucketed_view(network: &Network) -> GraphCsr {
        let n = network.node_count();
        let (mut outs, mut ins) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for link in network.links() {
            outs[link.src.index()].push(link.id);
            ins[link.dst.index()].push(link.id);
        }
        let offsets = |lists: &[Vec<LinkId>]| {
            let mut offsets = vec![0u32];
            for list in lists {
                offsets.push(offsets[offsets.len() - 1] + list.len() as u32);
            }
            offsets
        };
        let mut view = GraphCsr::from_network(network);
        view.out_offsets = offsets(&outs);
        view.in_offsets = offsets(&ins);
        view.out_link_ids = outs.concat();
        view.out_dsts = (view.out_link_ids.iter())
            .map(|&l| network.link(l).dst)
            .collect();
        view.in_link_ids = ins.concat();
        view
    }

    #[test]
    fn csr_equals_the_links_bucketed_per_node_in_id_order() {
        for topo in [
            builders::line(4),
            builders::parallel(3, 2.0),
            builders::fat_tree(4),
            builders::fat_tree(8),
            builders::bcube(2, 1),
            builders::bcube(3, 2),
            builders::leaf_spine(3, 2, 4),
            builders::dumbbell(3, 5.0),
        ] {
            let g = GraphCsr::from_network(&topo.network);
            assert_eq!(g, bucketed_view(&topo.network), "{}", topo.name);
            assert_eq!(g.node_count(), topo.network.node_count());
            for link in topo.network.links() {
                assert_eq!(g.link_src(link.id), link.src);
                assert_eq!(g.link_dst(link.id), link.dst);
                assert_eq!(g.capacity(link.id), link.capacity);
            }
        }
    }

    #[test]
    fn links_between_lists_parallel_links_in_id_order() {
        let mut net = Network::new();
        let s = net.add_node(NodeKind::Host, "s");
        let d = net.add_node(NodeKind::Host, "d");
        net.add_link(d, s, 2.0);
        for _ in 0..4 {
            net.add_link(s, d, 2.0);
        }
        let g = GraphCsr::from_network(&net);
        let between: Vec<LinkId> = g.links_between(s, d).collect();
        assert_eq!(between, (1..5).map(LinkId).collect::<Vec<_>>());
        assert_eq!(g.find_link(s, d), Some(LinkId(1)));
        assert_eq!(g.find_link(d, s), Some(LinkId(0)));
        assert_eq!(g.find_link(s, s), None);
    }

    fn triangle() -> (GraphCsr, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Switch, "b");
        let c = net.add_node(NodeKind::Host, "c");
        net.add_duplex_link(a, b, 1.0);
        net.add_duplex_link(b, c, 1.0);
        net.add_duplex_link(a, c, 1.0);
        (GraphCsr::from_network(&net), a, b, c)
    }

    #[test]
    fn shortest_path_direct_beats_two_hop() {
        let (g, a, _b, c) = triangle();
        let p = g.shortest_path(a, c).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), c);
    }

    #[test]
    fn shortest_path_to_self_is_empty() {
        let (g, a, _, _) = triangle();
        let p = g.shortest_path(a, a).unwrap();
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
        let g = GraphCsr::from_network(&net);
        assert!(g.shortest_path(b, a).is_none());
        assert!(g.shortest_path(a, b).is_some());
    }

    #[test]
    fn hop_distances_to_reverses_correctly() {
        let topo = builders::line(4);
        let g = GraphCsr::from_network(&topo.network);
        let d = g.hop_distances_to(topo.hosts()[3]);
        assert_eq!(d, vec![3, 2, 1, 0]);
    }

    #[test]
    fn fail_and_restore_round_trips_the_whole_view() {
        let ft = builders::fat_tree(4);
        let mut g = GraphCsr::from_network(&ft.network);
        let pristine = g.clone();
        let epoch0 = g.epoch();

        // Take down a couple of links (one duplex pair, one singleton).
        let victims = [LinkId(0), LinkId(1), LinkId(17)];
        for &l in &victims {
            assert!(g.fail_link(l));
            assert!(!g.is_link_up(l));
            assert_eq!(g.capacity(l), 0.0);
            assert!(g.base_capacity[l.index()] > 0.0);
        }
        assert!(!g.fail_link(victims[0]), "double-fail is a no-op");
        assert_eq!(g.down_link_count(), victims.len());
        assert_eq!(g.down_links().collect::<Vec<_>>(), victims);
        assert_ne!(g.epoch(), epoch0, "mutations bump the epoch");
        assert_ne!(g, pristine);

        // Down links are gone from every adjacency view.
        for &l in &victims {
            assert!(!g.out_links(g.link_src(l)).contains(&l));
            assert!(!g.in_links(g.link_dst(l)).contains(&l));
            assert!(g
                .out_links_with_dsts(g.link_src(l))
                .all(|(lid, _)| lid != l));
        }

        // Recovery restores the exact pre-failure view (adjacency order,
        // capacities bit-for-bit) — everything except the epoch.
        for &l in &victims {
            assert!(g.restore_link(l));
        }
        assert!(!g.restore_link(victims[0]), "double-restore is a no-op");
        assert_eq!(g.down_link_count(), 0);
        assert_eq!(g, pristine);
        for node in ft.network.nodes() {
            assert_eq!(g.out_links(node.id), pristine.out_links(node.id));
            assert_eq!(g.in_links(node.id), pristine.in_links(node.id));
        }
        for link in ft.network.links() {
            assert_eq!(g.capacity(link.id).to_bits(), link.capacity.to_bits());
        }
    }

    #[test]
    fn traversals_avoid_down_links() {
        // line(3): host0 - host1 - host2; failing the only forward link of
        // the first cable disconnects host0 from the rest.
        let topo = builders::line(3);
        let g0 = GraphCsr::from_network(&topo.network);
        let hosts = topo.hosts();
        let p = g0.shortest_path(hosts[0], hosts[2]).unwrap();
        let first = p.links()[0];

        let mut g = GraphCsr::from_network(&topo.network);
        g.fail_link(first);
        assert!(g.shortest_path(hosts[0], hosts[2]).is_none());
        assert!(g.shortest_path(hosts[0], hosts[1]).is_none());
        // The reverse direction of the cable still works.
        assert!(g.shortest_path(hosts[2], hosts[0]).is_some());
        // hop_distances_to walks in-links, which also exclude the link.
        let d = g.hop_distances_to(hosts[2]);
        assert_eq!(d[hosts[0].index()], usize::MAX);

        g.restore_link(first);
        assert_eq!(g.shortest_path(hosts[0], hosts[2]).unwrap(), p);
    }

    #[test]
    fn epochs_never_alias_across_instances() {
        // The recycled-allocation trap: two same-shape graphs built one
        // after the other (the second plausibly at the first's freed
        // address) must still have distinct epochs.
        let topo = builders::fat_tree(4);
        let mut seen = Vec::new();
        for _ in 0..8 {
            let g = GraphCsr::from_network(&topo.network);
            assert!(
                !seen.contains(&g.epoch()),
                "epoch {} reused across instances",
                g.epoch()
            );
            seen.push(g.epoch());
        }
    }

    #[test]
    fn equality_ignores_the_epoch() {
        let topo = builders::fat_tree(4);
        let a = GraphCsr::from_network(&topo.network);
        let b = GraphCsr::from_network(&topo.network);
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a, b);
    }

    #[test]
    fn path_from_links_rejects_unknown_disconnected_and_looping_links() {
        let topo = builders::line(3);
        let g = GraphCsr::from_network(&topo.network);
        let p = g.shortest_path(topo.hosts()[0], topo.hosts()[2]).unwrap();
        let rebuilt = g.path_from_links(p.source(), p.links()).unwrap();
        assert_eq!(rebuilt, p);

        assert!(matches!(
            g.path_from_links(topo.hosts()[0], &[LinkId(999)]),
            Err(PathError::UnknownLink(_))
        ));
        // Disconnected: second link does not start where the first ends.
        let l0 = p.links()[0];
        assert!(matches!(
            g.path_from_links(topo.hosts()[1], &[l0]),
            Err(PathError::Disconnected { .. })
        ));
        // Loop: forward then backward over the same cable.
        let back = g.find_link(g.link_dst(l0), g.link_src(l0)).unwrap();
        assert!(matches!(
            g.path_from_links(topo.hosts()[0], &[l0, back]),
            Err(PathError::Loop { .. })
        ));
    }

    #[test]
    fn path_from_nodes_resolves_only_over_up_links() {
        let topo = builders::line(3);
        let mut g = GraphCsr::from_network(&topo.network);
        let hosts = topo.hosts();
        let p = g.shortest_path(hosts[0], hosts[2]).unwrap();
        assert_eq!(g.path_from_nodes(p.nodes()), Ok(p.clone()));
        assert_eq!(
            g.path_from_nodes(&[NodeId(99), hosts[0]]),
            Err(PathError::Disconnected { position: 0 })
        );

        // A down link joins no node pair, but its id still validates.
        g.fail_link(p.links()[1]);
        assert_eq!(
            g.path_from_nodes(p.nodes()),
            Err(PathError::Disconnected { position: 1 })
        );
        assert_eq!(g.path_from_links(p.source(), p.links()), Ok(p));
    }
}
