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
//!   allocations**.
//!
//! Results are bit-for-bit identical to a textbook per-call Dijkstra on a
//! freshly allocated heap: the same settle order (min distance, ties broken
//! by smallest node id — the level's lowest set bit *is* the heap's next
//! pop, because every other live entry has a larger key), the same
//! strict-improvement relaxation, and the same link insertion order via the
//! CSR adjacency.
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
    /// Relaxations the leaf skip kept off the queue.
    leaf_skips: u64,
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
    /// Work counters of every run so far.
    #[cfg(test)]
    counters: Counters,
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
            #[cfg(test)]
            counters: Counters::default(),
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
        let st = &mut self.states[src.index()];
        st.dist = 0.0;
        st.parent = NO_PARENT;
        st.seen = epoch;
        self.push((0.0f64.to_bits(), src.index() as u32));
        remaining
    }

    #[inline]
    fn push(&mut self, key: HeapKey) {
        self.heap.push(key);
        #[cfg(test)]
        {
            self.counters.pushes += 1;
        }
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
        let mut remaining = self.start(graph, src, targets);
        let early_exit = !targets.is_empty();
        let epoch = self.epoch;

        while let Some((key, first)) = self.heap.pop() {
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
            let mut settled = 0;
            let d = f64::from_bits(key);
            while let Some(u) = self.level.pop_lowest() {
                let st = &mut self.states[u];
                st.done = epoch;
                #[cfg(test)]
                {
                    self.counters.settles += 1;
                    settled += 1;
                }
                if early_exit && st.target == epoch {
                    remaining -= 1;
                    if remaining == 0 {
                        self.level.clear();
                        return;
                    }
                }
                for (lid, v) in graph.out_links_with_dsts(NodeId(u)) {
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
                        // outgoing edge returns to `u` — which is settled,
                        // so that relaxation could never improve anything
                        // — then settling `v` would have no observable
                        // effect. Skip the queue (a large saving on
                        // host-heavy data-center topologies where most
                        // nodes are degree-1 leaves). If a *different*
                        // node later improves `v`, the condition fails and
                        // `v` is queued normally. Only valid under early
                        // exit: a full sweep promises to settle every
                        // reachable node.
                        if early_exit
                            && sv.target != epoch
                            && graph.sole_out_neighbor(v) == Some(NodeId(u))
                        {
                            #[cfg(test)]
                            {
                                self.counters.leaf_skips += 1;
                            }
                            continue;
                        }
                        // At the level's own distance `v` would be the
                        // heap's next pop: it joins the level instead.
                        let nkey = nd.to_bits();
                        if nkey == key {
                            self.level.insert(v.index());
                        } else {
                            self.push((nkey, v.index() as u32));
                        }
                    }
                }
            }
            #[cfg(test)]
            {
                self.counters.wide_levels += u64::from(settled >= 2);
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

    /// The search before the level bitset, where every settle goes through
    /// the heap: the reference the level queue must reproduce bit for bit.
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
            let st = &mut self.states[u as usize];
            if st.done == epoch {
                continue;
            }
            st.done = epoch;
            self.counters.settles += 1;
            if early_exit && st.target == epoch {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for (lid, v) in graph.out_links_with_dsts(NodeId(u as usize)) {
                let w = link_weight(lid);
                if w.is_infinite() {
                    continue;
                }
                let nd = d + w;
                let sv = &mut self.states[v.index()];
                if sv.seen != epoch || nd < sv.dist {
                    sv.seen = epoch;
                    sv.dist = nd;
                    sv.parent = lid.index() as u32;
                    if early_exit
                        && sv.target != epoch
                        && graph.sole_out_neighbor(v) == Some(NodeId(u as usize))
                    {
                        self.counters.leaf_skips += 1;
                        continue;
                    }
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
    /// off the core by one duplex link each, and a few isolated nodes.
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
            net.add_duplex_link(host, core[rng.below(core.len())], 1.0);
        }
        for i in 0..rng.below(3) {
            net.add_node(NodeKind::Host, format!("isolated{i}"));
        }
        GraphCsr::from_network(&net)
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

    /// Asserts that two engines hold the same run: every node's settled
    /// flag, distance bits and parent link, and every target's path.
    fn assert_same_run(
        level: &ShortestPathEngine,
        heap: &ShortestPathEngine,
        graph: &GraphCsr,
        targets: &[NodeId],
        case: usize,
    ) {
        for v in (0..graph.node_count()).map(NodeId) {
            assert_eq!(level.settled(v), heap.settled(v), "case {case}: {v}");
            assert_eq!(
                level.distance(v).map(f64::to_bits),
                heap.distance(v).map(f64::to_bits),
                "case {case}: {v}"
            );
            assert_eq!(
                level.parent_link(v),
                heap.parent_link(v),
                "case {case}: {v}"
            );
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &t in targets {
            assert_eq!(
                level.extract_path_links(graph, t, &mut a),
                heap.extract_path_links(graph, t, &mut b),
                "case {case}: {t}"
            );
            assert_eq!(a, b, "case {case}: {t}");
        }
    }

    /// The level queue is the heap, bit for bit: on seeded random
    /// multigraphs with mostly zero weights, parallel and forbidden links —
    /// full sweeps, duplicated targets, the source as a target, unreachable
    /// targets — every node's state and every target's path equal the
    /// heap-only reference's, and so does the number of settles. Both
    /// engines are reused across cases.
    #[test]
    fn the_level_queue_settles_what_the_heap_settles() {
        let mut rng = SplitMix(0x5EED_0001);
        let mut level = ShortestPathEngine::new();
        let mut heap = ShortestPathEngine::new();
        let mut targets = Vec::new();
        for case in 0..600 {
            let graph = random_multigraph(&mut rng);
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
            let before = (level.counters, heap.counters);
            level.single_source_all_targets(&graph, src, &targets, |l| weights[l.index()]);
            heap.single_source_reference(&graph, src, &targets, |l| weights[l.index()]);
            assert_same_run(&level, &heap, &graph, &targets, case);
            assert_eq!(
                level.counters.settles - before.0.settles,
                heap.counters.settles - before.1.settles,
                "case {case}"
            );
            assert_eq!(level.counters.leaf_skips, heap.counters.leaf_skips);
        }
        // Not vacuous: levels held several nodes, drains took several heap
        // entries, and leaf skips fired.
        let c = level.counters;
        assert!(c.wide_levels > 100, "{c:?}");
        assert!(c.wide_drains > 100, "{c:?}");
        assert!(c.leaf_skips > 100, "{c:?}");
        assert!(c.pushes < heap.counters.pushes, "{c:?}");
    }

    /// The clock-free gate of the level queue: Frank–Wolfe-like searches on
    /// the k = 8 fat-tree — zero weight on unloaded links, `2·load` on the
    /// shortest-path DAGs of a few loaded host pairs, one multi-target
    /// search per host — settle exactly what the heap-only loop settles,
    /// with at most half as many heap pushes as settles (measured: 2724
    /// pushes for 5812 settles, 46.9 %; the reference pushes 6642, 114 %).
    #[test]
    fn frank_wolfe_like_searches_settle_mostly_off_the_heap() {
        let topo = builders::fat_tree(8);
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

        let mut level = ShortestPathEngine::new();
        let mut heap = ShortestPathEngine::new();
        for (i, &src) in hosts.iter().enumerate() {
            let targets: Vec<NodeId> = (1..4).map(|j| hosts[(i + j * 29) % hosts.len()]).collect();
            level.single_source_all_targets(&graph, src, &targets, |l| weights[l.index()]);
            heap.single_source_reference(&graph, src, &targets, |l| weights[l.index()]);
            assert_same_run(&level, &heap, &graph, &targets, i);
        }
        let (c, reference) = (level.counters, heap.counters);
        assert_eq!(c.settles, reference.settles);
        assert!(c.settles > 10 * hosts.len() as u64, "{c:?}");
        assert!(
            c.pushes * 2 <= c.settles,
            "{} pushes for {} settles (the reference: {} for {})",
            c.pushes,
            c.settles,
            reference.pushes,
            reference.settles
        );
    }
}
