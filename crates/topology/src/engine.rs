//! An arena-reuse Dijkstra engine over [`GraphCsr`].
//!
//! The schedulers in this workspace call Dijkstra in tight loops — the
//! Frank–Wolfe multi-commodity flow solver runs one search per distinct
//! commodity source per iteration per interval, except in a first
//! iteration whose gap a node potential certifies without one. A naive
//! implementation re-allocates its distance/parent/visited vectors and a
//! fresh binary heap on every call; [`ShortestPathEngine`] owns all of that
//! scratch state and reuses it:
//!
//! * `dist`/`parent` arenas are invalidated in `O(1)` between runs by a
//!   **generation counter** (`seen`/`done` epoch stamps) instead of
//!   re-zeroing `O(nodes)` memory;
//! * the priority queue — a flat 4-ary heap over `(distance bits, node)`
//!   integer keys, see [`HeapKey`] — is `clear()`ed, keeping its
//!   allocation;
//! * the search settles one **distance level** at a time: when the heap's
//!   minimum key comes up, every heap entry at that key is drained into a
//!   per-node bitset, the level is settled lowest node id first, and a
//!   relaxation that lands exactly on the level's key sets the node's bit
//!   instead of taking a heap round trip. Under Frank–Wolfe's marginal
//!   costs an unloaded link weighs exactly zero, so whole regions of a
//!   fabric share one distance and most of their settles skip the heap;
//! * [`ShortestPathEngine::single_source_all_targets`] settles a whole
//!   batch of targets in a single search with multi-target early exit, and
//!   [`ShortestPathEngine::extract_path_links`] walks the parent arena into
//!   a caller-provided buffer, so the steady state performs **zero heap
//!   allocations**;
//! * a link into a node the search already settled is passed over before
//!   its weight is read: `d(u) + w >= d(u) >= d(v)` can never improve `v`;
//! * under early exit a search goes around **pendants**: a node whose only
//!   live out-link and only live in-link join it to one node `p`, as every
//!   host of a fat-tree or leaf–spine hangs off its edge switch. A pendant
//!   target settles the moment `p` settles, at `d(p) + w(p → v)` over its
//!   one in-link — no other link can lower that distance or change that
//!   parent — and a link into a pendant that is not a target is never
//!   read: the pendant's only way on leads back to `p`, settled by then,
//!   so settling it would change no other node. The engine records each
//!   node's pendant parent in the node's arena record, once per graph
//!   state ([`GraphCsr::epoch`]), on the first early-exit search there;
//!   the check rides on the read that finds a node settled, and a settling
//!   node finds the pendant targets hanging off it in its own CSR
//!   adjacency. A full sweep (no targets) settles every reachable node.
//!
//! Results are bit-for-bit those of a textbook per-call Dijkstra on a
//! freshly allocated heap: the same settle order (min distance, ties broken
//! by smallest node id — the level's lowest set bit *is* the heap's next
//! pop, because every other live entry has a larger key), the same
//! strict-improvement relaxation, and the same link insertion order via the
//! CSR adjacency (a link into a pendant improves only that pendant, so
//! settling a pendant target before its parent's other links are relaxed
//! changes nothing else). Under early exit the nodes reported
//! settled are the textbook's settle sequence without the non-target
//! pendants, each pendant target moved up to its parent's settle, and cut
//! where the last target settles: every target keeps its distance bits,
//! parent chain and path, and every node closer to the source than a
//! settled target's parent is settled.
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
//! // Single target, as an owned path.
//! let path = engine.shortest_path(&graph, hosts[0], hosts[15], |_| 1.0).unwrap();
//! assert_eq!(path.len(), 6);
//! ```

use crate::{GraphCsr, LinkId, NodeId, Path};

/// Sentinel parent for the source node of a search.
const NO_PARENT: u32 = u32::MAX;

/// The pendant-parent entry of a node that is not a pendant.
const NOT_PENDANT: u32 = u32::MAX;

/// Per-node record: distance, parent link, the four epoch stamps of the
/// search arena and the node's pendant parent, packed into 32 bytes so one
/// search step touches one cache line per node instead of seven scattered
/// arrays.
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
    /// Epoch at which a pendant hanging off the node was last marked as a
    /// search target.
    pendant_target: u32,
    /// The node the node hangs off if it is a pendant, else
    /// [`NOT_PENDANT`]; valid for the graph state `pendants_of` of the
    /// engine.
    pendant_parent: u32,
}

const _: () = assert!(std::mem::size_of::<NodeState>() == 32);

/// A priority-queue entry: the distance's IEEE-754 bit pattern (which
/// orders identically to the non-negative finite `f64` it encodes) paired
/// with the node id as the deterministic tie-break. The lexicographic
/// order on this pair is a *strict total order* over all live entries — a
/// node is re-pushed only with a strictly smaller distance — so every
/// correct priority queue pops the exact same sequence; the engine can use
/// a flat 4-ary heap with integer comparisons, and take the entries of one
/// key out of the heap into a bitset, without changing any result.
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

    /// Pops the minimum entry's node if the entry's distance bits are `key`.
    #[inline]
    fn pop_at(&mut self, key: u64) -> Option<u32> {
        if self.items.first()?.0 != key {
            return None;
        }
        self.pop().map(|(_, node)| node)
    }
}

/// The nodes of the distance level being settled, one bit per node id.
/// Every set bit lies in the words `lo..=hi`; between levels every word is
/// clear.
#[derive(Debug, Clone)]
struct LevelSet {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Default for LevelSet {
    fn default() -> Self {
        Self {
            words: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl LevelSet {
    /// Makes room for node ids below `n`.
    fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    #[inline]
    fn insert(&mut self, node: usize) {
        let w = node / 64;
        self.words[w] |= 1 << (node % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
    }

    /// Removes and returns the lowest node of the level, or `None` once
    /// the level is empty.
    #[inline]
    fn pop_lowest(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let word = self.words[self.lo];
            if word != 0 {
                self.words[self.lo] = word & (word - 1);
                return Some(self.lo * 64 + word.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        self.lo = usize::MAX;
        self.hi = 0;
        None
    }

    /// Empties the level: a search that stops inside one.
    fn clear(&mut self) {
        if self.lo <= self.hi {
            self.words[self.lo..=self.hi].fill(0);
        }
        self.lo = usize::MAX;
        self.hi = 0;
    }
}

/// What the runs of an engine did, counted in tests only.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    /// Nodes settled.
    settles: u64,
    /// Entries pushed onto the heap.
    pushes: u64,
    /// Levels that settled two or more nodes.
    wide_levels: u64,
    /// Levels whose drain took two or more heap entries.
    wide_drains: u64,
    /// Link weights read.
    weight_reads: u64,
    /// Pendant targets settled at their parent's settle.
    pendant_settles: u64,
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
    /// The distance level being settled (empty between runs).
    level: LevelSet,
    /// Source of the most recent run.
    src: NodeId,
    /// The [`GraphCsr::epoch`] whose pendant parents the arena holds; 0,
    /// which no graph state has, before the first early-exit run.
    pendants_of: u64,
    /// Work counters of every run so far.
    #[cfg(test)]
    counters: Counters,
    /// The nodes the most recent run settled, in settle order.
    #[cfg(test)]
    order: Vec<NodeId>,
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
            level: LevelSet::default(),
            src: NodeId(0),
            pendants_of: 0,
            #[cfg(test)]
            counters: Counters::default(),
            #[cfg(test)]
            order: Vec::new(),
        }
    }

    /// Starts a run from `src`: a new generation (growing the arenas to
    /// the graph), the targets marked, the source queued at distance zero.
    /// Returns the number of distinct targets.
    fn start(&mut self, graph: &GraphCsr, src: NodeId, targets: &[NodeId]) -> usize {
        debug_assert!(
            graph.node_count() < u32::MAX as usize && graph.link_count() < NO_PARENT as usize,
            "graph exceeds the engine's u32 id range"
        );
        let n = graph.node_count();
        if self.states.len() < n {
            self.states.resize(n, NodeState::default());
        }
        self.level.grow(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so pay one full
            // reset every 2^32 runs.
            self.states.fill(NodeState::default());
            self.epoch = 1;
            self.pendants_of = 0;
        }
        self.heap.clear();
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
        #[cfg(test)]
        self.order.clear();
        let st = &mut self.states[src.index()];
        st.dist = 0.0;
        st.parent = NO_PARENT;
        st.seen = epoch;
        self.push((0.0f64.to_bits(), src.index() as u32));
        remaining
    }

    /// Records every node's pendant parent in `graph`'s live adjacency,
    /// unless the arena holds this graph state's.
    fn index_pendants(&mut self, graph: &GraphCsr) {
        if self.pendants_of == graph.epoch() {
            return;
        }
        self.pendants_of = graph.epoch();
        for (v, st) in self.states[..graph.node_count()].iter_mut().enumerate() {
            let v = NodeId(v);
            st.pendant_parent = match (graph.out_links(v), graph.in_links(v)) {
                (&[out], &[inn])
                    if graph.link_dst(out) == graph.link_src(inn) && graph.link_src(inn) != v =>
                {
                    graph.link_src(inn).index() as u32
                }
                _ => NOT_PENDANT,
            };
        }
    }

    #[inline]
    fn push(&mut self, key: HeapKey) {
        self.heap.push(key);
        #[cfg(test)]
        {
            self.counters.pushes += 1;
        }
    }

    /// Marks `node` settled at the current epoch.
    #[inline]
    fn settle(&mut self, node: usize) -> &mut NodeState {
        #[cfg(test)]
        {
            self.counters.settles += 1;
            self.order.push(NodeId(node));
        }
        let st = &mut self.states[node];
        st.done = self.epoch;
        st
    }

    /// Reads the weight of `link`, checked in debug builds.
    #[inline]
    fn read_weight(&mut self, link: LinkId, link_weight: &mut impl FnMut(LinkId) -> f64) -> f64 {
        #[cfg(test)]
        {
            self.counters.weight_reads += 1;
        }
        let w = link_weight(link);
        debug_assert!(
            !w.is_nan() && w >= 0.0,
            "link weight must be non-negative, got {w}"
        );
        w
    }

    /// Relaxes the out-links of `u`, settled at the distance whose bits
    /// are `key`: a link into a settled node is passed over unread, and so
    /// is one into a pendant when the search goes `around_pendants`; a
    /// node improved to the level's own distance joins the level instead
    /// of the heap.
    #[inline]
    fn relax(
        &mut self,
        graph: &GraphCsr,
        u: NodeId,
        key: u64,
        around_pendants: bool,
        link_weight: &mut impl FnMut(LinkId) -> f64,
    ) {
        let (epoch, d) = (self.epoch, f64::from_bits(key));
        for (lid, v) in graph.out_links_with_dsts(u) {
            let sv = &self.states[v.index()];
            if sv.done == epoch || (around_pendants && sv.pendant_parent != NOT_PENDANT) {
                continue;
            }
            let w = self.read_weight(lid, link_weight);
            if w.is_infinite() {
                continue;
            }
            let nd = d + w;
            let sv = &mut self.states[v.index()];
            if sv.seen != epoch || nd < sv.dist {
                sv.seen = epoch;
                sv.dist = nd;
                sv.parent = lid.index() as u32;
                let nkey = nd.to_bits();
                if nkey == key {
                    self.level.insert(v.index());
                } else {
                    self.push((nkey, v.index() as u32));
                }
            }
        }
    }

    /// Settles the unsettled targets among the pendants hanging off `u`,
    /// settled at the distance whose bits are `key`, over their one
    /// in-link each; returns how many settled.
    #[inline]
    fn settle_pendant_targets(
        &mut self,
        graph: &GraphCsr,
        u: NodeId,
        key: u64,
        link_weight: &mut impl FnMut(LinkId) -> f64,
    ) -> usize {
        let (epoch, d) = (self.epoch, f64::from_bits(key));
        let mut settled = 0;
        for (lid, v) in graph.out_links_with_dsts(u) {
            let sv = &self.states[v.index()];
            if sv.pendant_parent != u.index() as u32 || sv.target != epoch || sv.done == epoch {
                continue;
            }
            let w = self.read_weight(lid, link_weight);
            if w.is_infinite() {
                continue;
            }
            #[cfg(test)]
            {
                self.counters.pendant_settles += 1;
            }
            let sv = self.settle(v.index());
            sv.seen = epoch;
            sv.dist = d + w;
            sv.parent = lid.index() as u32;
            settled += 1;
        }
        settled
    }

    /// Runs Dijkstra from `src`. With a non-empty `targets` list the search
    /// stops as soon as every (reachable) target is settled, and goes
    /// around pendants (see the module documentation); with an empty list
    /// it settles the whole reachable component.
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
        let mut remaining = self.start(graph, src, targets);
        let early_exit = !targets.is_empty();
        let epoch = self.epoch;
        if early_exit {
            self.index_pendants(graph);
            for &t in targets {
                let p = self.states[t.index()].pendant_parent;
                if p != NOT_PENDANT {
                    self.states[p as usize].pendant_target = epoch;
                }
            }
        }

        'search: while let Some((key, first)) = self.heap.pop() {
            if self.states[first as usize].done == epoch {
                continue;
            }
            // Drain the level: every other live entry at this key.
            self.level.insert(first as usize);
            #[cfg(test)]
            let mut drained = 1;
            while let Some(v) = self.heap.pop_at(key) {
                #[cfg(test)]
                {
                    drained += 1;
                }
                if self.states[v as usize].done != epoch {
                    self.level.insert(v as usize);
                }
            }
            #[cfg(test)]
            let settles_before = self.counters.settles;
            while let Some(u) = self.level.pop_lowest() {
                let st = *self.settle(u);
                if early_exit {
                    remaining -= usize::from(st.target == epoch);
                    if st.pendant_target == epoch {
                        remaining -=
                            self.settle_pendant_targets(graph, NodeId(u), key, &mut link_weight);
                    }
                    if remaining == 0 {
                        self.level.clear();
                        break 'search;
                    }
                }
                self.relax(graph, NodeId(u), key, early_exit, &mut link_weight);
            }
            #[cfg(test)]
            {
                self.counters.wide_levels += u64::from(self.counters.settles - settles_before >= 2);
                self.counters.wide_drains += u64::from(drained >= 2);
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

    /// Single-target Dijkstra with early exit, returning an owned [`Path`].
    /// Returns `None` when `dst` is unreachable. Weights are as for
    /// [`ShortestPathEngine::single_source_all_targets`].
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

    /// The textbook search — every settle through the heap, every link of
    /// a settled node read, no pendant rule: the reference the engine must
    /// reproduce bit for bit.
    #[cfg(test)]
    fn single_source_reference(
        &mut self,
        graph: &GraphCsr,
        src: NodeId,
        targets: &[NodeId],
        mut link_weight: impl FnMut(LinkId) -> f64,
    ) {
        let mut remaining = self.start(graph, src, targets);
        let early_exit = !targets.is_empty();
        let epoch = self.epoch;

        while let Some((key, u)) = self.heap.pop() {
            let d = f64::from_bits(key);
            if self.states[u as usize].done == epoch {
                continue;
            }
            let st = *self.settle(u as usize);
            if early_exit && st.target == epoch {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for (lid, v) in graph.out_links_with_dsts(NodeId(u as usize)) {
                let w = self.read_weight(lid, &mut link_weight);
                if w.is_infinite() {
                    continue;
                }
                let nd = d + w;
                let sv = &mut self.states[v.index()];
                if sv.seen != epoch || nd < sv.dist {
                    sv.seen = epoch;
                    sv.dist = nd;
                    sv.parent = lid.index() as u32;
                    self.push((nd.to_bits(), v.index() as u32));
                }
            }
        }
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
        engine.single_source_all_targets(&g, b, &[a], |_| 1.0);
        assert!(!engine.extract_path_links(&g, a, &mut links));
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
        engine.single_source_all_targets(&g, a, &[a], |_| 1.0);
        assert!(engine.extract_path_links(&g, a, &mut links));
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

    /// SplitMix64: the seeded stream of the level-queue property test.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random multigraph: a core of switches joined by random one-way
    /// links (parallel links and self-loops included), host leaves hanging
    /// off the core by one duplex link each (some by two, some by one-way
    /// links only), a few isolated nodes, and now and then a failed link.
    fn random_multigraph(rng: &mut SplitMix) -> GraphCsr {
        let mut net = Network::new();
        let core: Vec<NodeId> = (0..2 + rng.below(24))
            .map(|i| net.add_node(NodeKind::Switch, format!("s{i}")))
            .collect();
        for _ in 0..rng.below(4 * core.len()) {
            let (a, b) = (core[rng.below(core.len())], core[rng.below(core.len())]);
            net.add_link(a, b, 1.0);
        }
        for i in 0..rng.below(3 * core.len()) {
            let host = net.add_node(NodeKind::Host, format!("h{i}"));
            let switch = core[rng.below(core.len())];
            match rng.below(12) {
                0 => drop(net.add_link(host, switch, 1.0)),
                1 => drop(net.add_link(switch, host, 1.0)),
                2 => {
                    net.add_duplex_link(host, switch, 1.0);
                    net.add_duplex_link(host, core[rng.below(core.len())], 1.0);
                }
                _ => drop(net.add_duplex_link(host, switch, 1.0)),
            }
        }
        for i in 0..rng.below(3) {
            net.add_node(NodeKind::Host, format!("isolated{i}"));
        }
        let mut graph = GraphCsr::from_network(&net);
        if graph.link_count() > 0 && rng.below(4) == 0 {
            for _ in 0..1 + rng.below(3) {
                graph.fail_link(LinkId(rng.below(graph.link_count())));
            }
        }
        graph
    }

    /// Mostly zero weights, a few forbidden links, and the rest from a
    /// short list, so distances tie at zero and above it.
    fn random_weights(rng: &mut SplitMix, links: usize) -> Vec<f64> {
        (0..links)
            .map(|_| match rng.below(20) {
                0..=11 => 0.0,
                12 => f64::INFINITY,
                r => [0.25, 0.5, 1.0, 1.0, 1.5, 2.0, 0.1][r - 13],
            })
            .collect()
    }

    /// A node's pendant parent read off the definition: its only live
    /// out-link and only live in-link join it to one other node.
    fn pendant_parent_by_definition(graph: &GraphCsr, v: NodeId) -> Option<NodeId> {
        let (&[out], &[inn]) = (graph.out_links(v), graph.in_links(v)) else {
            return None;
        };
        let p = graph.link_src(inn);
        (graph.link_dst(out) == p && p != v).then_some(p)
    }

    /// Every node's pendant parent as the engine indexes it.
    fn indexed_parents(graph: &GraphCsr) -> Vec<Option<NodeId>> {
        let mut engine = ShortestPathEngine::new();
        engine.start(graph, NodeId(0), &[]);
        engine.index_pendants(graph);
        engine.states[..graph.node_count()]
            .iter()
            .map(|st| {
                (st.pendant_parent != NOT_PENDANT).then_some(NodeId(st.pendant_parent as usize))
            })
            .collect()
    }

    /// A node's pendant parent as the engine indexes it.
    fn indexed_parent(graph: &GraphCsr, v: NodeId) -> Option<NodeId> {
        indexed_parents(graph)[v.index()]
    }

    /// The settle sequence the engine must produce, given the reference's:
    /// under early exit the non-target pendants (but the source) go, each
    /// pendant target moves up behind its parent in its parent's link
    /// order, and the sequence ends where the last target settles.
    fn expected_order(
        reference: &[NodeId],
        graph: &GraphCsr,
        src: NodeId,
        targets: &[NodeId],
    ) -> Vec<NodeId> {
        if targets.is_empty() {
            return reference.to_vec();
        }
        let pendant = |v: NodeId| v != src && pendant_parent_by_definition(graph, v).is_some();
        let mut order = Vec::new();
        for &u in reference {
            if pendant(u) {
                continue;
            }
            order.push(u);
            for (_, v) in graph.out_links_with_dsts(u) {
                let hangs = pendant_parent_by_definition(graph, v) == Some(u);
                if hangs && pendant(v) && targets.contains(&v) && reference.contains(&v) {
                    order.push(v);
                }
            }
        }
        let mut left: Vec<NodeId> = targets.to_vec();
        left.sort_unstable();
        left.dedup();
        if let Some(end) = order.iter().position(|v| {
            left.retain(|t| t != v);
            left.is_empty()
        }) {
            order.truncate(end + 1);
        }
        order
    }

    /// Asserts that the engine's run is the reference's under the pendant
    /// contract: every target's settled flag, distance bits, parent and
    /// path are the reference's; every node the engine settles holds the
    /// reference's distance bits and parent; and the settle sequence is
    /// [`expected_order`] of the reference's.
    fn assert_same_run(
        engine: &ShortestPathEngine,
        reference: &ShortestPathEngine,
        graph: &GraphCsr,
        targets: &[NodeId],
        case: usize,
    ) {
        let same_state = |v: NodeId| {
            assert_eq!(engine.settled(v), reference.settled(v), "case {case}: {v}");
            assert_eq!(
                engine.distance(v).map(f64::to_bits),
                reference.distance(v).map(f64::to_bits),
                "case {case}: {v}"
            );
            assert_eq!(
                engine.parent_link(v),
                reference.parent_link(v),
                "case {case}: {v}"
            );
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &t in targets {
            same_state(t);
            assert_eq!(
                engine.extract_path_links(graph, t, &mut a),
                reference.extract_path_links(graph, t, &mut b),
                "case {case}: {t}"
            );
            assert_eq!(a, b, "case {case}: {t}");
        }
        for &v in &engine.order {
            same_state(v);
        }
        let settled = (0..graph.node_count()).filter(|&v| engine.settled(NodeId(v)));
        assert_eq!(settled.count(), engine.order.len(), "case {case}");
        assert_eq!(
            engine.order,
            expected_order(&reference.order, graph, reference.src, targets),
            "case {case}"
        );
    }

    /// Runs one search on both engines and checks the engine's against the
    /// reference's.
    fn check_search(
        engine: &mut ShortestPathEngine,
        reference: &mut ShortestPathEngine,
        graph: &GraphCsr,
        src: NodeId,
        targets: &[NodeId],
        weight: impl Fn(LinkId) -> f64,
        case: usize,
    ) {
        engine.single_source_all_targets(graph, src, targets, &weight);
        reference.single_source_reference(graph, src, targets, &weight);
        assert_same_run(engine, reference, graph, targets, case);
    }

    /// `cases` seeded random multigraphs with mostly zero weights, parallel
    /// and forbidden links — full sweeps, duplicated targets, the source as
    /// a target, unreachable targets — each searched by both engines, both
    /// reused across cases. Returns the engine's and the reference's
    /// counters.
    fn random_differential(seed: u64, cases: usize) -> (Counters, Counters) {
        let mut rng = SplitMix(seed);
        let mut engine = ShortestPathEngine::new();
        let mut reference = ShortestPathEngine::new();
        let mut targets = Vec::new();
        for case in 0..cases {
            let graph = random_multigraph(&mut rng);
            for (v, parent) in indexed_parents(&graph).into_iter().enumerate() {
                let v = NodeId(v);
                assert_eq!(
                    parent,
                    pendant_parent_by_definition(&graph, v),
                    "case {case}: {v}"
                );
            }
            let weights = random_weights(&mut rng, graph.link_count());
            let n = graph.node_count();
            let src = NodeId(rng.below(n));
            targets.clear();
            if rng.below(4) != 0 {
                for _ in 0..1 + rng.below(6) {
                    targets.push(NodeId(rng.below(n)));
                }
                if rng.below(3) == 0 {
                    targets.push(src);
                }
                if rng.below(3) == 0 {
                    targets.push(targets[rng.below(targets.len())]);
                }
            }
            let weight = |l: LinkId| weights[l.index()];
            check_search(
                &mut engine,
                &mut reference,
                &graph,
                src,
                &targets,
                weight,
                case,
            );
        }
        (engine.counters, reference.counters)
    }

    /// The engine is the textbook search under the pendant contract, bit
    /// for bit, on 600 random multigraphs ([`random_differential`]).
    #[test]
    fn the_level_queue_settles_what_the_heap_settles() {
        let (c, reference) = random_differential(0x5EED_0001, 600);
        // Not vacuous: levels held several nodes, drains took several heap
        // entries, pendant targets settled at their parents, and the
        // engine settled fewer nodes off fewer pushes and weight reads.
        assert!(c.wide_levels > 100, "{c:?}");
        assert!(c.wide_drains > 100, "{c:?}");
        assert!(c.pendant_settles > 100, "{c:?}");
        assert!(c.settles < reference.settles, "{c:?} {reference:?}");
        assert!(c.pushes < reference.pushes, "{c:?} {reference:?}");
        assert!(
            c.weight_reads < reference.weight_reads,
            "{c:?} {reference:?}"
        );
    }

    /// The pendant rule's edge cases, each against the reference.
    #[test]
    fn pendant_edge_cases_match_the_reference() {
        let mut engine = ShortestPathEngine::new();
        let mut reference = ShortestPathEngine::new();
        let topo = builders::fat_tree(4);
        let hosts = topo.hosts();
        let unit = |_: LinkId| 1.0;

        // A pendant target behind an infinite-weight link is unreachable;
        // the other targets still settle, and the search runs on.
        let graph = topo.csr();
        let (h0, h1, h2) = (hosts[0], hosts[1], hosts[9]);
        let into_h1 = graph.in_links(h1)[0];
        assert!(indexed_parent(&graph, h1).is_some());
        let cut = |l: LinkId| if l == into_h1 { f64::INFINITY } else { 1.0 };
        check_search(&mut engine, &mut reference, &graph, h0, &[h1, h2], cut, 0);
        assert!(!engine.settled(h1) && engine.settled(h2));

        // A host with one direction of its link failed is not a pendant:
        // with its uplink down it is still reached, with its downlink down
        // it is not. One engine searches the graph before, during and
        // after the failure: its index follows the graph state.
        for (case, dir) in [(1, 0), (2, 1)] {
            let mut graph = topo.csr();
            let link = [graph.out_links(h1)[0], graph.in_links(h1)[0]][dir];
            for step in 0..3 {
                match step {
                    1 => assert!(graph.fail_link(link)),
                    2 => assert!(graph.restore_link(link)),
                    _ => {}
                }
                let targets = [h1, h2];
                check_search(
                    &mut engine,
                    &mut reference,
                    &graph,
                    h0,
                    &targets,
                    unit,
                    case,
                );
                assert_eq!(indexed_parent(&graph, h1).is_some(), step != 1);
                assert_eq!(engine.settled(h1), step != 1 || dir == 0, "case {case}");
            }
        }

        // A host on two parallel links is not a pendant.
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let s = net.add_node(NodeKind::Switch, "s");
        let b = net.add_node(NodeKind::Host, "b");
        net.add_duplex_link(a, s, 1.0);
        net.add_duplex_link(a, s, 1.0);
        net.add_duplex_link(s, b, 1.0);
        let graph = GraphCsr::from_network(&net);
        assert_eq!(indexed_parent(&graph, a), None);
        assert_eq!(indexed_parent(&graph, b), Some(s));
        let weight = |l: LinkId| l.index() as f64 * 0.5;
        check_search(&mut engine, &mut reference, &graph, b, &[a], weight, 3);
        check_search(&mut engine, &mut reference, &graph, a, &[b], weight, 4);

        // Two mutual pendants, each as the source and as the target, and
        // the source among its own targets.
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        net.add_duplex_link(a, b, 1.0);
        let graph = GraphCsr::from_network(&net);
        assert_eq!(indexed_parent(&graph, a), Some(b));
        assert_eq!(indexed_parent(&graph, b), Some(a));
        for (case, src, targets) in [
            (5, a, vec![b]),
            (6, b, vec![a]),
            (7, a, vec![a]),
            (8, a, vec![a, b]),
            (9, b, vec![]),
        ] {
            check_search(
                &mut engine,
                &mut reference,
                &graph,
                src,
                &targets,
                unit,
                case,
            );
            assert!(engine.settled(src), "case {case}");
            assert_eq!(
                engine.settled(a) && engine.settled(b),
                case != 7,
                "case {case}"
            );
        }

        // The source among its own targets, and duplicated pendant
        // targets, on the fat-tree.
        let graph = topo.csr();
        let (h4, h5) = (hosts[4], hosts[5]);
        for (case, targets) in [
            (10, vec![h0]),
            (11, vec![h0, h5]),
            (12, vec![h5, h0, h5]),
            (13, vec![h4, h5, h4, h5]),
            (14, vec![h1, h1]),
        ] {
            check_search(
                &mut engine,
                &mut reference,
                &graph,
                h0,
                &targets,
                unit,
                case,
            );
            assert!(targets.iter().all(|&t| engine.settled(t)), "case {case}");
        }
        assert!(
            engine.counters.pendant_settles >= 7,
            "{:?}",
            engine.counters
        );
    }

    /// Frank–Wolfe-like searches on the k-ary fat-tree — zero weight on
    /// unloaded links, `2·load` on the shortest-path DAGs of a few loaded
    /// host pairs, one three-target search per host — on both engines.
    /// Returns the engine's and the reference's counters.
    fn frank_wolfe_like_searches(k: usize) -> (Counters, Counters) {
        let topo = builders::fat_tree(k);
        let graph = topo.csr();
        let hosts = topo.hosts();
        let mut probe = ShortestPathEngine::new();
        let mut loads = vec![0.0; graph.link_count()];
        for i in 0..6 {
            let (src, dst) = (
                hosts[i * 19 % hosts.len()],
                hosts[(i * 37 + 5) % hosts.len()],
            );
            probe.single_source_all_targets(&graph, src, &[], |_| 1.0);
            // Walk the pair's DAG back from `dst`: a link is on it when it
            // is tight under unit weights.
            let mut frontier = vec![dst];
            let mut reached = vec![false; graph.node_count()];
            while let Some(v) = frontier.pop() {
                let closer = probe.distance(v).map(|d| d - 1.0);
                for &l in graph.in_links(v) {
                    let u = graph.link_src(l);
                    if probe.distance(u) == closer {
                        loads[l.index()] += 1.0 + i as f64 * 0.5;
                        if !std::mem::replace(&mut reached[u.index()], true) {
                            frontier.push(u);
                        }
                    }
                }
            }
        }
        let weights: Vec<f64> = loads.iter().map(|&x| 2.0 * x).collect();
        let unloaded = weights.iter().filter(|&&w| w == 0.0).count();
        assert!(
            unloaded > graph.link_count() / 2,
            "{unloaded} unloaded links"
        );

        let mut engine = ShortestPathEngine::new();
        let mut reference = ShortestPathEngine::new();
        for (i, &src) in hosts.iter().enumerate() {
            let targets: Vec<NodeId> = (1..4).map(|j| hosts[(i + j * 29) % hosts.len()]).collect();
            let weight = |l: LinkId| weights[l.index()];
            check_search(
                &mut engine,
                &mut reference,
                &graph,
                src,
                &targets,
                weight,
                i,
            );
        }
        let c = engine.counters;
        assert!(c.settles > 10 * hosts.len() as u64, "{c:?}");
        (c, reference.counters)
    }

    /// The clock-free gate of the search on Frank–Wolfe-like k = 8
    /// searches: the engine settles no more nodes than the textbook search,
    /// reads at most half its link weights, and pushes at most half as
    /// many heap entries as it settles (measured: 9380 settles off 4459
    /// pushes and 31 184 weight reads; the reference settles 21 770 off
    /// 23 176 pushes and reads 84 432 weights).
    #[test]
    fn frank_wolfe_like_searches_settle_mostly_off_the_heap() {
        let (c, reference) = frank_wolfe_like_searches(8);
        assert!(c.settles <= reference.settles, "{c:?} {reference:?}");
        assert!(
            c.weight_reads * 2 <= reference.weight_reads,
            "{c:?} {reference:?}"
        );
        assert!(c.pushes * 2 <= c.settles, "{c:?} {reference:?}");
    }

    /// The differential at benchmark size (release builds: about a second):
    /// Frank–Wolfe-like searches on the k = 8 and k = 16 fat-trees, and
    /// 20 000 random multigraphs.
    #[test]
    #[ignore]
    fn the_engine_matches_the_reference_at_benchmark_size() {
        for k in [8, 16] {
            let (c, reference) = frank_wolfe_like_searches(k);
            assert!(
                c.settles <= reference.settles,
                "k = {k}: {c:?} {reference:?}"
            );
            assert!(
                c.weight_reads * 2 <= reference.weight_reads,
                "k = {k}: {c:?} {reference:?}"
            );
        }
        random_differential(0x5EED_0002, 20_000);
    }
}
