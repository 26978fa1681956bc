//! An arena-reuse Dijkstra engine over [`GraphCsr`].
//!
//! The schedulers in this workspace call Dijkstra in tight loops — the
//! Frank–Wolfe multi-commodity flow solver runs one search per distinct
//! commodity source per iteration per interval. A naive implementation
//! re-allocates its distance/parent/visited vectors and a fresh binary heap
//! on every call; [`ShortestPathEngine`] owns all of that scratch state and
//! reuses it:
//!
//! * `dist`/`parent` arenas are invalidated in `O(1)` between runs by a
//!   **generation counter** (`seen`/`done` epoch stamps) instead of
//!   re-zeroing `O(nodes)` memory;
//! * the priority queue — a flat 4-ary heap over `(distance bits, node)`
//!   integer keys, see [`HeapKey`] — is `clear()`ed, keeping its
//!   allocation;
//! * [`ShortestPathEngine::single_source_all_targets`] settles a whole
//!   batch of targets in a single search with multi-target early exit, and
//!   [`ShortestPathEngine::extract_path_links`] walks the parent arena into
//!   a caller-provided buffer, so the steady state performs **zero heap
//!   allocations**.
//!
//! Results are bit-for-bit identical to a textbook per-call Dijkstra on a
//! freshly allocated heap: the same heap ordering (min distance, ties broken
//! by smallest node id), the same strict-improvement relaxation, and the
//! same link insertion order via the CSR adjacency.
//!
//! # Example
//!
//! ```
//! use dcn_topology::{builders, GraphCsr, ShortestPathEngine};
//!
//! let ft = builders::fat_tree(4);
//! let graph = GraphCsr::from_network(&ft.network);
//! let hosts = ft.hosts();
//!
//! let mut engine = ShortestPathEngine::new();
//! let mut links = Vec::new();
//!
//! // Batched: one search settles every target of a common source.
//! engine.single_source_all_targets(&graph, hosts[0], &[hosts[5], hosts[9]], |_| 1.0);
//! for &dst in &[hosts[5], hosts[9]] {
//!     assert!(engine.extract_path_links(&graph, dst, &mut links));
//!     assert!(!links.is_empty());
//! }
//!
//! // Single target, allocation-free into a reused buffer.
//! assert!(engine.dijkstra_into(&graph, hosts[0], hosts[15], |_| 1.0, &mut links));
//! assert_eq!(links.len(), 6);
//! ```

use crate::{GraphCsr, LinkId, NodeId, Path};

/// Sentinel parent for the source node of a search.
const NO_PARENT: u32 = u32::MAX;

/// Per-node scratch record: distance, parent link and the three epoch
/// stamps, packed together so one search step touches one cache line per
/// node instead of five scattered arrays.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Tentative distance; valid only when `seen == epoch`.
    dist: f64,
    /// Parent link of the current best path; valid when `seen == epoch`.
    parent: u32,
    /// Epoch at which `dist`/`parent` were last written.
    seen: u32,
    /// Epoch at which the node was settled (popped with final distance).
    done: u32,
    /// Epoch at which the node was last marked as a search target.
    target: u32,
}

/// A priority-queue entry: the distance's IEEE-754 bit pattern (which
/// orders identically to the non-negative finite `f64` it encodes) paired
/// with the node id as the deterministic tie-break. The lexicographic
/// order on this pair is a *strict total order* over all live entries — a
/// node is re-pushed only with a strictly smaller distance — so every
/// correct priority queue pops the exact same sequence; the engine can use
/// a flat 4-ary heap with integer comparisons without changing any result.
type HeapKey = (u64, u32);

/// A minimal 4-ary min-heap over [`HeapKey`]s: shallower than a binary
/// heap (fewer cache misses per pop) and branch-cheap integer comparisons.
#[derive(Debug, Clone, Default)]
struct QuadHeap {
    items: Vec<HeapKey>,
}

impl QuadHeap {
    fn clear(&mut self) {
        self.items.clear();
    }

    #[inline]
    fn push(&mut self, key: HeapKey) {
        self.items.push(key);
        let mut i = self.items.len() - 1;
        while i > 0 {
            let p = (i - 1) / 4;
            if self.items[i] < self.items[p] {
                self.items.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapKey> {
        let len = self.items.len();
        if len == 0 {
            return None;
        }
        let top = self.items.swap_remove(0);
        let len = self.items.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let last = (first + 4).min(len);
            for c in first + 1..last {
                if self.items[c] < self.items[best] {
                    best = c;
                }
            }
            if self.items[best] < self.items[i] {
                self.items.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        Some(top)
    }
}

/// A reusable Dijkstra engine: owns the per-node state arena, the epoch
/// stamps that invalidate it in `O(1)`, and the priority-queue allocation.
/// See the module-level documentation for the design and an example.
#[derive(Debug, Clone)]
pub struct ShortestPathEngine {
    /// Per-node scratch state, indexed by node id.
    states: Vec<NodeState>,
    /// Current generation; bumped per run instead of re-zeroing the arena.
    epoch: u32,
    /// Reused priority queue.
    heap: QuadHeap,
    /// Source of the most recent run.
    src: NodeId,
}

impl Default for ShortestPathEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShortestPathEngine {
    /// Creates an engine with empty arenas; they grow to the size of the
    /// first graph searched and are reused afterwards.
    pub fn new() -> Self {
        Self {
            states: Vec::new(),
            epoch: 0,
            heap: QuadHeap::default(),
            src: NodeId(0),
        }
    }

    /// Starts a new generation, growing the arena to `n` nodes if needed.
    fn prepare(&mut self, n: usize) {
        if self.states.len() < n {
            self.states.resize(n, NodeState::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so pay one full
            // reset every 2^32 runs.
            self.states.fill(NodeState::default());
            self.epoch = 1;
        }
        self.heap.clear();
    }

    /// Runs Dijkstra from `src`. With a non-empty `targets` list the search
    /// stops as soon as every (reachable) target is settled; with an empty
    /// list it settles the whole reachable component.
    ///
    /// Weights must be non-negative; `f64::INFINITY` forbids a link.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a weight is negative or NaN.
    pub fn single_source_all_targets(
        &mut self,
        graph: &GraphCsr,
        src: NodeId,
        targets: &[NodeId],
        mut link_weight: impl FnMut(LinkId) -> f64,
    ) {
        debug_assert!(
            graph.node_count() < u32::MAX as usize && graph.link_count() < NO_PARENT as usize,
            "graph exceeds the engine's u32 id range"
        );
        self.prepare(graph.node_count());
        self.src = src;
        let epoch = self.epoch;

        let mut remaining = 0usize;
        for &t in targets {
            let st = &mut self.states[t.index()];
            if st.target != epoch {
                st.target = epoch;
                remaining += 1;
            }
        }
        let early_exit = !targets.is_empty();

        {
            let st = &mut self.states[src.index()];
            st.dist = 0.0;
            st.parent = NO_PARENT;
            st.seen = epoch;
        }
        self.heap.push((0.0f64.to_bits(), src.index() as u32));

        while let Some((key, u)) = self.heap.pop() {
            let d = f64::from_bits(key);
            let st = &mut self.states[u as usize];
            if st.done == epoch {
                continue;
            }
            st.done = epoch;
            if early_exit && st.target == epoch {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for (lid, v) in graph.out_links_with_dsts(NodeId(u as usize)) {
                let w = link_weight(lid);
                debug_assert!(
                    !w.is_nan() && w >= 0.0,
                    "link weight must be non-negative, got {w}"
                );
                if w.is_infinite() {
                    continue;
                }
                let nd = d + w;
                let sv = &mut self.states[v.index()];
                if sv.seen != epoch || nd < sv.dist {
                    sv.seen = epoch;
                    sv.dist = nd;
                    sv.parent = lid.index() as u32;
                    // Leaf skip: if `v` is not a target and its only
                    // outgoing edge returns to `u` — which is settled, so
                    // that relaxation could never improve anything — then
                    // popping `v` would have no observable effect. Skip
                    // the heap round-trip (a large saving on host-heavy
                    // data-center topologies where most nodes are
                    // degree-1 leaves). If a *different* node later
                    // improves `v`, the condition fails and `v` is pushed
                    // normally. Only valid under early exit: a full
                    // sweep promises to settle every reachable node.
                    if early_exit
                        && sv.target != epoch
                        && graph.sole_out_neighbor(v) == Some(NodeId(u as usize))
                    {
                        continue;
                    }
                    self.heap.push((nd.to_bits(), v.index() as u32));
                }
            }
        }
    }

    /// Returns `true` if `node` was settled (final distance) by the most
    /// recent run. A target passed to the run is settled iff reachable.
    pub fn settled(&self, node: NodeId) -> bool {
        self.states[node.index()].done == self.epoch
    }

    /// The distance of `node` from the most recent run's source, if the
    /// node was settled.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.settled(node).then(|| self.states[node.index()].dist)
    }

    /// The final parent link of `node` (the last hop of its shortest path),
    /// if the node was settled and is not the source.
    pub fn parent_link(&self, node: NodeId) -> Option<LinkId> {
        let p = self.states[node.index()].parent;
        (self.settled(node) && p != NO_PARENT).then_some(LinkId(p as usize))
    }

    /// Writes the link sequence of the shortest path from the most recent
    /// run's source to `dst` into `links` (cleared first, in source → `dst`
    /// order). Returns `false` — leaving `links` empty — when `dst` was not
    /// settled; an empty buffer with `true` means `dst` is the source.
    pub fn extract_path_links(
        &self,
        graph: &GraphCsr,
        dst: NodeId,
        links: &mut Vec<LinkId>,
    ) -> bool {
        links.clear();
        if !self.settled(dst) {
            return false;
        }
        let mut cur = dst;
        while cur != self.src {
            let p = self.states[cur.index()].parent;
            debug_assert!(p != NO_PARENT, "settled node has a parent chain");
            let lid = LinkId(p as usize);
            links.push(lid);
            cur = graph.link_src(lid);
        }
        links.reverse();
        true
    }

    /// Single-target Dijkstra with early exit, writing the path's links into
    /// the caller's reused buffer. Returns `false` when `dst` is
    /// unreachable. This is the allocation-free hot-path entry point.
    pub fn dijkstra_into(
        &mut self,
        graph: &GraphCsr,
        src: NodeId,
        dst: NodeId,
        link_weight: impl FnMut(LinkId) -> f64,
        links: &mut Vec<LinkId>,
    ) -> bool {
        self.single_source_all_targets(graph, src, std::slice::from_ref(&dst), link_weight);
        self.extract_path_links(graph, dst, links)
    }

    /// Single-target Dijkstra returning an owned [`Path`] (what
    /// [`crate::dijkstra_on`] calls). Returns `None` when `dst` is
    /// unreachable.
    pub fn shortest_path(
        &mut self,
        graph: &GraphCsr,
        src: NodeId,
        dst: NodeId,
        link_weight: impl FnMut(LinkId) -> f64,
    ) -> Option<Path> {
        if src == dst {
            return graph.path_from_links(src, &[]).ok();
        }
        self.single_source_all_targets(graph, src, std::slice::from_ref(&dst), link_weight);
        self.path_to(graph, dst)
    }

    /// Builds the owned [`Path`] to `dst` from the most recent run, or
    /// `None` if `dst` was not settled.
    pub fn path_to(&self, graph: &GraphCsr, dst: NodeId) -> Option<Path> {
        if !self.settled(dst) {
            return None;
        }
        let mut links = Vec::new();
        let extracted = self.extract_path_links(graph, dst, &mut links);
        debug_assert!(extracted);
        graph.path_from_links(self.src, &links).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, Network, NodeKind};

    /// One query on a graph view and engine built for it alone: the
    /// reference a reused engine must reproduce.
    fn one_shot(
        net: &Network,
        src: NodeId,
        dst: NodeId,
        weight: impl FnMut(LinkId) -> f64,
    ) -> Option<Path> {
        ShortestPathEngine::new().shortest_path(&GraphCsr::from_network(net), src, dst, weight)
    }

    fn diamond() -> (Network, NodeId, NodeId, NodeId, NodeId) {
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
    fn reused_engine_matches_one_shot_engines() {
        let topo = builders::fat_tree(4);
        let g = GraphCsr::from_network(&topo.network);
        let mut engine = ShortestPathEngine::new();
        let hosts = topo.hosts();
        // Non-uniform deterministic weights exercise tie-breaking.
        let weight = |l: LinkId| 1.0 + (l.index() % 3) as f64 * 0.25;
        for &a in hosts.iter().step_by(2) {
            for &b in hosts.iter().step_by(3) {
                let classic = one_shot(&topo.network, a, b, weight);
                let engined = engine.shortest_path(&g, a, b, weight);
                assert_eq!(classic, engined, "paths {a} -> {b} diverge");
            }
        }
    }

    #[test]
    fn engine_reuse_does_not_leak_state_between_runs() {
        let (net, a, b, c, d) = diamond();
        let g = GraphCsr::from_network(&net);
        let mut engine = ShortestPathEngine::new();
        // First run: forbid b, path must use c.
        let p1 = engine
            .shortest_path(&g, a, d, |l| {
                if g.link_src(l) == b || g.link_dst(l) == b {
                    f64::INFINITY
                } else {
                    1.0
                }
            })
            .unwrap();
        assert!(!p1.contains_node(b));
        // Second run on the same arenas: forbid c, path must use b.
        let p2 = engine
            .shortest_path(&g, a, d, |l| {
                if g.link_src(l) == c || g.link_dst(l) == c {
                    f64::INFINITY
                } else {
                    1.0
                }
            })
            .unwrap();
        assert!(p2.contains_node(b));
        assert!(!p2.contains_node(c));
    }

    #[test]
    fn multi_target_settles_every_target_once() {
        let topo = builders::fat_tree(4);
        let g = GraphCsr::from_network(&topo.network);
        let mut engine = ShortestPathEngine::new();
        let hosts = topo.hosts();
        let src = hosts[0];
        let targets = [hosts[3], hosts[7], hosts[15], hosts[3]]; // duplicate ok
        engine.single_source_all_targets(&g, src, &targets, |_| 1.0);
        let mut links = Vec::new();
        for &t in &targets {
            assert!(engine.settled(t));
            assert!(engine.extract_path_links(&g, t, &mut links));
            let path = g.path_from_links(src, &links).unwrap();
            let classic = one_shot(&topo.network, src, t, |_| 1.0).unwrap();
            assert_eq!(path, classic);
            assert_eq!(engine.distance(t), Some(classic.len() as f64));
        }
    }

    #[test]
    fn unreachable_target_reports_false() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        net.add_link(a, b, 1.0); // one-way
        let g = GraphCsr::from_network(&net);
        let mut engine = ShortestPathEngine::new();
        let mut links = vec![LinkId(0)];
        assert!(!engine.dijkstra_into(&g, b, a, |_| 1.0, &mut links));
        assert!(links.is_empty(), "failed extraction clears the buffer");
        assert!(engine.shortest_path(&g, b, a, |_| 1.0).is_none());
        assert_eq!(engine.distance(a), None);
    }

    #[test]
    fn source_equal_target_is_the_empty_path() {
        let (net, a, ..) = diamond();
        let g = GraphCsr::from_network(&net);
        let mut engine = ShortestPathEngine::new();
        let p = engine.shortest_path(&g, a, a, |_| 1.0).unwrap();
        assert!(p.is_empty());
        let mut links = Vec::new();
        assert!(engine.dijkstra_into(&g, a, a, |_| 1.0, &mut links));
        assert!(links.is_empty());
    }

    #[test]
    fn engine_grows_for_larger_graphs() {
        let small = builders::line(3);
        let big = builders::fat_tree(4);
        let gs = GraphCsr::from_network(&small.network);
        let gb = GraphCsr::from_network(&big.network);
        let mut engine = ShortestPathEngine::new();
        assert!(engine
            .shortest_path(&gs, small.hosts()[0], small.hosts()[2], |_| 1.0)
            .is_some());
        let p = engine
            .shortest_path(&gb, big.hosts()[0], big.hosts()[15], |_| 1.0)
            .unwrap();
        assert_eq!(p.len(), 6);
    }
}
