//! Equivalence properties of the CSR graph core and the arena-reuse
//! shortest-path engine against the **pre-refactor reference
//! implementations** (seeded proptest).
//!
//! The refactor's contract is that moving the read path from the
//! `Vec<Vec<_>>` adjacency lists to [`GraphCsr`] + [`ShortestPathEngine`]
//! changes *nothing* observable: on random multigraphs (parallel links,
//! zero-weight ties, forbidden links, asymmetric extras) the weighted
//! shortest paths, BFS paths and full Frank–Wolfe F-MCF solutions must be
//! identical — bit for bit, including deterministic tie-breaking — to what
//! the original adjacency-list algorithms produced. The originals are
//! preserved verbatim in [`reference`] below as the oracle. `Network` no
//! longer keeps adjacency lists, so the references carry their own
//! ([`reference::Lists`], the links bucketed per node in id order, read
//! from `network.links()`), and the CSR arrays are checked against them.
//!
//! The Frank–Wolfe *loop* of the oracle is the pre-refactor one — a
//! `Vec<Vec<f64>>` flow matrix blended entry by entry — with the two
//! changes the solver made to *what* it computes. It starts at the ECMP
//! split (every demand divided equally over its hop-count shortest-path
//! DAG) instead of on one hop-count shortest path per commodity, so
//! [`reference::solve`] takes the start as a parameter:
//! [`reference::Start::EcmpSplit`] is an independent adjacency-list
//! implementation of the same split, and the original
//! [`reference::Start::SinglePath`] stays as the reference of the quality
//! oracle at the bottom of this file (the new start must never end at a
//! worse objective than the old one did). And it stops on the Frank–Wolfe
//! gap before the line search, as the solver does.
//!
//! The solver no longer holds the matrix: it keeps each commodity as a
//! mixture of paths and blends only the aggregate loads. Up to the first
//! blend its arithmetic is the oracle's, bit for bit; a blend of the
//! aggregate (`(1-γ)·Σ_c f_c + γ·Σ_c t_c`) rounds differently from the
//! sum of blended rows (`Σ_c ((1-γ)·f_c + γ·t_c)`), so from there the two
//! are compared to 1e-9 — of the objective, and of the demand for loads
//! and per-commodity rows — instead of to the bit.

use deadline_dcn::power::PowerFunction;
use deadline_dcn::solver::fmcf::{
    Commodity, FmcfProblem, FmcfScratch, FmcfSolution, FmcfSolverConfig, PowerFlowCost,
};
use deadline_dcn::topology::{
    builders, GraphCsr, LinkId, Network, NodeId, NodeKind, ShortestPathEngine,
};
use proptest::prelude::*;

/// The solver's weight of the quadratic penalty on a link's load above
/// the power function's capacity.
const OVERLOAD_PENALTY: f64 = 1e3;

/// The pre-refactor adjacency-list algorithms, copied verbatim (modulo
/// visibility) from `dcn-topology`/`dcn-solver` as they were before the
/// CSR core landed. They traverse their own adjacency lists, [`Lists`],
/// which they read from `network.links()` alone.
mod reference {
    use super::*;
    use deadline_dcn::topology::Path;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};
    use std::ops::Deref;

    /// The per-node adjacency lists `Network` kept before [`GraphCsr`]
    /// became the only adjacency: every node's out- and in-links in link-id
    /// (insertion) order. It reads as the network it was built from
    /// (`Deref`), so the copied algorithms below run on it unchanged.
    pub struct Lists<'a> {
        network: &'a Network,
        out_links: Vec<Vec<LinkId>>,
        in_links: Vec<Vec<LinkId>>,
        /// Validates the paths the references return, as
        /// `Path::from_links(network, …)` did: it reads link endpoints only.
        validator: GraphCsr,
    }

    impl Deref for Lists<'_> {
        type Target = Network;

        fn deref(&self) -> &Network {
            self.network
        }
    }

    impl<'a> Lists<'a> {
        pub fn of(network: &'a Network) -> Self {
            let n = network.node_count();
            let (mut out_links, mut in_links) = (vec![Vec::new(); n], vec![Vec::new(); n]);
            for link in network.links() {
                out_links[link.src.index()].push(link.id);
                in_links[link.dst.index()].push(link.id);
            }
            let validator = GraphCsr::from_network(network);
            Lists {
                network,
                out_links,
                in_links,
                validator,
            }
        }

        /// Outgoing links of `node`, in insertion order.
        pub fn out_links(&self, node: NodeId) -> &[LinkId] {
            &self.out_links[node.index()]
        }

        /// Incoming links of `node`, in insertion order.
        pub fn in_links(&self, node: NodeId) -> &[LinkId] {
            &self.in_links[node.index()]
        }

        fn path(&self, src: NodeId, links: &[LinkId]) -> Option<Path> {
            self.validator.path_from_links(src, links).ok()
        }

        /// Breadth-first shortest path (fewest hops) from `src` to `dst`.
        ///
        /// Returns `None` when `dst` is unreachable from `src`. Ties are broken
        /// deterministically by link insertion order.
        pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Path> {
            if src == dst {
                return self.path(src, &[]);
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

        fn reconstruct(&self, src: NodeId, dst: NodeId, parent_link: &[Option<LinkId>]) -> Path {
            let mut links_rev = Vec::new();
            let mut cur = dst;
            while cur != src {
                let lid = parent_link[cur.index()].expect("path reconstruction reached a dead end");
                links_rev.push(lid);
                cur = self.link(lid).src;
            }
            links_rev.reverse();
            self.path(src, &links_rev)
                .expect("reconstructed path must be valid")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.index().cmp(&self.node.index()))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The original per-call Dijkstra over `Network`'s adjacency lists.
    pub fn dijkstra(
        network: &Lists,
        src: NodeId,
        dst: NodeId,
        mut link_weight: impl FnMut(LinkId) -> f64,
    ) -> Option<Path> {
        let n = network.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<LinkId>> = vec![None; n];
        let mut done = vec![false; n];
        dist[src.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });

        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            if u == dst {
                break;
            }
            for &lid in network.out_links(u) {
                let w = link_weight(lid);
                if w.is_infinite() {
                    continue;
                }
                let v = network.link(lid).dst;
                let nd = d + w;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    parent[v.index()] = Some(lid);
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }

        if src == dst {
            return network.path(src, &[]);
        }
        if dist[dst.index()].is_infinite() {
            return None;
        }
        let mut links_rev = Vec::new();
        let mut cur = dst;
        while cur != src {
            let lid = parent[cur.index()]?;
            links_rev.push(lid);
            cur = network.link(lid).src;
        }
        links_rev.reverse();
        network.path(src, &links_rev)
    }

    fn column_sums(rows: &[Vec<f64>], m: usize) -> Vec<f64> {
        let mut sums = vec![0.0; m];
        for row in rows {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    fn golden_section_min(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, steps: usize) -> f64 {
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let (mut a, mut b) = (lo, hi);
        let mut c = b - (b - a) * INV_PHI;
        let mut d = a + (b - a) * INV_PHI;
        let mut fc = f(c);
        let mut fd = f(d);
        for _ in 0..steps {
            if fc < fd {
                b = d;
                d = c;
                fd = fc;
                c = b - (b - a) * INV_PHI;
                fc = f(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + (b - a) * INV_PHI;
                fd = f(d);
            }
        }
        let mid = 0.5 * (a + b);
        let candidates = [lo, mid, hi];
        let mut best = candidates[0];
        let mut best_val = f(best);
        for &x in &candidates[1..] {
            let v = f(x);
            if v < best_val {
                best_val = v;
                best = x;
            }
        }
        best
    }

    /// The initial feasible point of [`solve`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Start {
        /// The pre-refactor start: every commodity entirely on one
        /// hop-count shortest path.
        SinglePath,
        /// The solver's start: every demand divided equally over its
        /// hop-count shortest-path DAG.
        EcmpSplit,
    }

    /// Hop distance of every node from `src` by breadth-first search over
    /// the adjacency lists (`usize::MAX` = unreachable).
    fn hop_distances_from(network: &Lists, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; network.node_count()];
        dist[src.index()] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &lid in network.out_links(u) {
                let v = network.link(lid).dst;
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The ECMP split on the adjacency lists, written independently of the
    /// solver (integer BFS distances instead of the engine's unit-weight
    /// Dijkstra, one search per commodity instead of one per source, no
    /// cache): walking back from the destination in FIFO order, what
    /// arrives at a node is divided equally over its in-links from nodes
    /// one hop closer to the source; the split of a unit demand is scaled
    /// by the demand.
    fn ecmp_split(network: &Lists, commodities: &[Commodity]) -> Option<Vec<Vec<f64>>> {
        let n = network.node_count();
        commodities
            .iter()
            .map(|c| {
                let dist = hop_distances_from(network, c.src);
                if dist[c.dst.index()] == usize::MAX {
                    return None;
                }
                let mut row = vec![0.0; network.link_count()];
                let mut share = vec![0.0; n];
                let mut queued = vec![false; n];
                share[c.dst.index()] = 1.0;
                queued[c.dst.index()] = true;
                let mut queue = VecDeque::from([c.dst]);
                while let Some(v) = queue.pop_front() {
                    let tight: Vec<LinkId> = network
                        .in_links(v)
                        .iter()
                        .copied()
                        .filter(|&l| {
                            let du = dist[network.link(l).src.index()];
                            du != usize::MAX && du + 1 == dist[v.index()]
                        })
                        .collect();
                    let part = share[v.index()] / tight.len() as f64;
                    for l in tight {
                        row[l.index()] = c.demand * part;
                        let u = network.link(l).src;
                        share[u.index()] += part;
                        if !queued[u.index()] {
                            queued[u.index()] = true;
                            queue.push_back(u);
                        }
                    }
                }
                Some(row)
            })
            .collect()
    }

    /// The original Frank–Wolfe solve over `Vec<Vec<f64>>` flow matrices,
    /// one Dijkstra per commodity per iteration, from the given start,
    /// stopping on the Frank–Wolfe gap like the solver. Returns the
    /// per-commodity flows plus `(iterations, converged, blends)`.
    pub fn solve(
        network: &Network,
        commodities: &[Commodity],
        cost: &PowerFlowCost,
        capacity: f64,
        config: &FmcfSolverConfig,
        start: Start,
    ) -> (Vec<Vec<f64>>, usize, bool, usize) {
        let network = &Lists::of(network);
        let over = |load: f64| (load > capacity).then_some(load - capacity);
        let penalty = |load: f64| over(load).map_or(0.0, |d| OVERLOAD_PENALTY * d.powi(2));
        let penalty_marginal = |load: f64| over(load).map_or(0.0, |d| 2.0 * OVERLOAD_PENALTY * d);
        let objective =
            |loads: &[f64]| -> f64 { loads.iter().map(|&x| cost.cost(x) + penalty(x)).sum() };
        let all_or_nothing = |weights: &[f64]| -> Option<Vec<Vec<f64>>> {
            let m = network.link_count();
            let mut assignment = vec![vec![0.0; m]; commodities.len()];
            for (ci, c) in commodities.iter().enumerate() {
                // This module's own `dijkstra`, not the engine under test.
                let path = dijkstra(network, c.src, c.dst, |l| weights[l.index()])?;
                for &l in path.links() {
                    assignment[ci][l.index()] = c.demand;
                }
            }
            Some(assignment)
        };

        let m = network.link_count();
        let n = commodities.len();
        if n == 0 {
            return (Vec::new(), 0, true, 0);
        }

        let mut flows = match start {
            Start::SinglePath => all_or_nothing(&vec![1.0; m]),
            Start::EcmpSplit => ecmp_split(network, commodities),
        }
        .expect("path exists");

        let mut loads = column_sums(&flows, m);
        let mut obj = objective(&loads);
        let mut converged = false;
        let mut iterations = 0;
        let mut blends = 0;

        for it in 0..config.max_iterations {
            iterations = it + 1;
            let weights: Vec<f64> = loads
                .iter()
                .map(|&x| (cost.marginal(x) + penalty_marginal(x)).max(0.0))
                .collect();
            let target = all_or_nothing(&weights).expect("path exists");
            let target_loads = column_sums(&target, m);

            // The Frank–Wolfe gap, from the matrices.
            let linearised =
                |loads: &[f64]| -> f64 { loads.iter().zip(&weights).map(|(x, w)| w * x).sum() };
            let gap = linearised(&loads) - linearised(&target_loads);
            if (gap / obj.abs()).max(0.0) <= config.tolerance {
                converged = true;
                break;
            }

            let eval = |gamma: f64| {
                let blended: Vec<f64> = loads
                    .iter()
                    .zip(&target_loads)
                    .map(|(&a, &b)| (1.0 - gamma) * a + gamma * b)
                    .collect();
                objective(&blended)
            };
            let gamma = golden_section_min(eval, 0.0, 1.0, config.line_search_steps);
            if gamma <= 1e-12 {
                converged = true;
                break;
            }

            blends += 1;
            for (fc, tc) in flows.iter_mut().zip(&target) {
                for (fe, te) in fc.iter_mut().zip(tc) {
                    *fe = (1.0 - gamma) * *fe + gamma * *te;
                }
            }
            loads = column_sums(&flows, m);
            let new_obj = objective(&loads);
            let improvement = (obj - new_obj) / obj.abs().max(1e-12);
            obj = new_obj;
            if improvement.abs() < config.tolerance {
                converged = true;
                break;
            }
        }

        for fc in &mut flows {
            for fe in fc.iter_mut() {
                if *fe < 1e-12 {
                    *fe = 0.0;
                }
            }
        }
        (flows, iterations, converged, blends)
    }
}

/// Specification of a random strongly-connected multigraph: a random
/// spanning tree of duplex links plus extra directed links (parallel links
/// and asymmetry included), with varied capacities.
#[derive(Debug, Clone)]
struct TopoSpec {
    n: usize,
    parents: Vec<usize>,
    extras: Vec<(usize, usize)>,
    caps: Vec<u8>,
}

fn arb_topo() -> impl Strategy<Value = TopoSpec> {
    (
        2usize..14,
        prop::collection::vec(0usize..1000, 13..14),
        prop::collection::vec((0usize..1000, 0usize..1000), 0..24),
        prop::collection::vec(0u8..255, 16..17),
    )
        .prop_map(|(n, parents, extras, caps)| TopoSpec {
            n,
            parents,
            extras,
            caps,
        })
}

fn build(spec: &TopoSpec) -> Network {
    let mut net = Network::new();
    let nodes: Vec<NodeId> = (0..spec.n)
        .map(|i| net.add_node(NodeKind::Host, format!("v{i}")))
        .collect();
    let cap = |k: usize| [2.0, 5.0, 10.0][spec.caps[k % spec.caps.len()] as usize % 3];
    // Spanning tree of duplex links: strong connectivity guaranteed.
    for i in 1..spec.n {
        let p = spec.parents[i - 1] % i;
        net.add_duplex_link(nodes[i], nodes[p], cap(i));
    }
    // Extra directed links: parallel links and asymmetric shortcuts.
    for (k, &(a, b)) in spec.extras.iter().enumerate() {
        let (a, b) = (a % spec.n, b % spec.n);
        if a != b {
            net.add_link(nodes[a], nodes[b], cap(k));
        }
    }
    net
}

/// Commodities between the nodes of an `n`-node graph from raw proptest
/// draws (endpoints taken modulo `n`, equal endpoints dropped).
fn commodities_on(raw: &[(usize, usize, f64)], n: usize) -> Vec<Commodity> {
    raw.iter()
        .enumerate()
        .filter_map(|(id, &(a, b, demand))| {
            let (src, dst) = (a % n, b % n);
            (src != dst).then_some(Commodity {
                id,
                src: NodeId(src),
                dst: NodeId(dst),
                demand,
            })
        })
        .collect()
}

/// Deterministic per-link weights with ties (many equal values), zero
/// weights and occasional forbidden links — the adversarial cases for
/// tie-break equivalence.
fn weight_table(seed: &[u8], link_count: usize) -> Vec<f64> {
    (0..link_count)
        .map(|l| {
            let v = seed[l % seed.len()] as usize % 8;
            [0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0, f64::INFINITY][v]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// The engine's weighted shortest paths — through a fresh engine on a
    /// one-shot view and through a reused engine — equal the pre-refactor
    /// adjacency-list Dijkstra, bit-for-bit in path choice, on random
    /// multigraphs with ties.
    #[test]
    fn engine_matches_prerefactor_dijkstra(
        spec in arb_topo(),
        wseed in prop::collection::vec(0u8..255, 24..25),
        s in 0usize..1000,
        t in 0usize..1000,
    ) {
        let net = build(&spec);
        let weights = weight_table(&wseed, net.link_count());
        let src = NodeId(s % spec.n);
        let dst = NodeId(t % spec.n);

        let lists = reference::Lists::of(&net);
        let oracle = reference::dijkstra(&lists, src, dst, |l| weights[l.index()]);
        let one_shot = ShortestPathEngine::new().shortest_path(
            &GraphCsr::from_network(&net),
            src,
            dst,
            |l| weights[l.index()],
        );
        prop_assert_eq!(&oracle, &one_shot);

        let graph = GraphCsr::from_network(&net);
        let mut engine = ShortestPathEngine::new();
        // Run twice through the same arenas: reuse must not leak state.
        let first = engine.shortest_path(&graph, src, dst, |l| weights[l.index()]);
        let second = engine.shortest_path(&graph, src, dst, |l| weights[l.index()]);
        prop_assert_eq!(&oracle, &first);
        prop_assert_eq!(&first, &second);
    }

    /// The CSR adjacency is the links bucketed per node in id order: every
    /// node's out-links (with their destinations) and in-links equal the
    /// reference lists read from `network.links()`.
    #[test]
    fn csr_adjacency_equals_the_reference_lists(spec in arb_topo()) {
        let net = build(&spec);
        let (graph, lists) = (GraphCsr::from_network(&net), reference::Lists::of(&net));
        for v in (0..spec.n).map(NodeId) {
            prop_assert_eq!(graph.out_links(v), lists.out_links(v));
            prop_assert_eq!(graph.in_links(v), lists.in_links(v));
            let dsts: Vec<NodeId> = lists.out_links(v).iter().map(|&l| net.link(l).dst).collect();
            prop_assert_eq!(graph.out_links_with_dsts(v).map(|(_, d)| d).collect::<Vec<_>>(), dsts);
        }
    }

    /// CSR breadth-first shortest paths equal the builder's BFS (same
    /// insertion-order tie-breaking).
    #[test]
    fn csr_bfs_matches_network_bfs(
        spec in arb_topo(),
        s in 0usize..1000,
        t in 0usize..1000,
    ) {
        let net = build(&spec);
        let graph = GraphCsr::from_network(&net);
        let src = NodeId(s % spec.n);
        let dst = NodeId(t % spec.n);
        let lists = reference::Lists::of(&net);
        prop_assert_eq!(lists.shortest_path(src, dst), graph.shortest_path(src, dst));
    }
}

/// Every node's BFS tree, and the single-target BFS, read the reference
/// BFS's path to every node on the builders' fabrics.
#[test]
fn bfs_paths_and_trees_match_the_reference_bfs() {
    for topo in [
        builders::fat_tree(4),
        builders::bcube(2, 1),
        builders::line(4),
    ] {
        let (g, lists) = (topo.csr(), reference::Lists::of(&topo.network));
        for src in topo.network.nodes().map(|n| n.id) {
            let tree = g.bfs_tree(src);
            for dst in topo.network.nodes().map(|n| n.id) {
                let expected = lists.shortest_path(src, dst);
                assert_eq!(tree.path_to(&g, dst), expected);
                assert_eq!(g.shortest_path(src, dst), expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Full Frank–Wolfe F-MCF solutions equal the pre-refactor
    /// per-commodity-Dijkstra matrix solver started at the reference ECMP
    /// split, under both pure speed-scaling and idle-share costs: the
    /// iteration count and the convergence flag exactly wherever the
    /// oracle never blended, and the penalised objective, the loads and
    /// every commodity's per-link flows (the solver's dense view of its
    /// path mixture) to 1e-9 — the tolerance the module docs trade for
    /// blending the aggregate instead of the matrix.
    #[test]
    fn fmcf_matches_prerefactor_solver(
        spec in arb_topo(),
        raw in prop::collection::vec((0usize..1000, 0usize..1000, 0.5f64..4.0), 1..6),
        alpha_pick in 0u8..2,
        sigma_pick in 0u8..2,
    ) {
        let net = build(&spec);
        let commodities = commodities_on(&raw, spec.n);
        let alpha = [2.0, 4.0][alpha_pick as usize];
        let sigma = [0.0, 3.0][sigma_pick as usize];
        let power = PowerFunction::new(sigma, 1.0, alpha, 8.0).unwrap();
        let cost = PowerFlowCost::new(power);
        let config = FmcfSolverConfig {
            max_iterations: 30,
            tolerance: 1e-5,
            line_search_steps: 20,
        };

        let (oracle_flows, oracle_iters, oracle_converged, oracle_blends) = reference::solve(
            &net,
            &commodities,
            &cost,
            power.capacity(),
            &config,
            reference::Start::EcmpSplit,
        );
        let solution = solve(&net, &commodities, &power, &config);

        prop_assert_eq!(solution.commodity_count(), commodities.len());
        if oracle_blends == 0 {
            prop_assert_eq!(solution.iterations, oracle_iters);
            prop_assert_eq!(solution.converged, oracle_converged);
        }
        let close = |a: f64, b: f64, scale: f64| (a - b).abs() <= 1e-9 * scale;
        for ((c, oracle_row), commodity) in oracle_flows.iter().enumerate().zip(&commodities) {
            for (e, (&mine, &theirs)) in solution.commodity_flows(c).iter().zip(oracle_row).enumerate() {
                prop_assert!(
                    close(mine, theirs, commodity.demand),
                    "commodity {} on link {}: {} vs {}", c, e, mine, theirs
                );
            }
        }
        // An empty problem exposes all-zero loads and no rows.
        let total: f64 = commodities.iter().map(|c| c.demand).sum();
        let oracle_loads: Vec<f64> = (0..net.link_count())
            .map(|e| oracle_flows.iter().map(|row| row[e]).sum())
            .collect();
        for (e, (&mine, &theirs)) in solution.total_loads().iter().zip(&oracle_loads).enumerate() {
            prop_assert!(close(mine, theirs, total), "link {}: {} vs {}", e, mine, theirs);
        }
        let mine = objective(solution.total_loads().iter().copied(), &power);
        let theirs = objective(oracle_loads.into_iter(), &power);
        prop_assert!(close(mine, theirs, theirs), "objective {} vs {}", mine, theirs);
    }

    /// Quality oracle on the random multigraphs: the solver, started at
    /// the ECMP split, never ends at a worse objective than the same loop
    /// started on single hop-count shortest paths.
    #[test]
    fn ecmp_start_is_no_worse_on_random_multigraphs(
        spec in arb_topo(),
        raw in prop::collection::vec((0usize..1000, 0usize..1000, 0.5f64..4.0), 1..6),
        alpha_pick in 0u8..2,
        sigma_pick in 0u8..2,
    ) {
        let net = build(&spec);
        let commodities = commodities_on(&raw, spec.n);
        let power = PowerFunction::new(
            [0.0, 3.0][sigma_pick as usize],
            1.0,
            [2.0, 4.0][alpha_pick as usize],
            8.0,
        )
        .unwrap();
        let (new, old, _) = objectives(&net, &commodities, &power);
        prop_assert!(new <= old * (1.0 + 1e-3), "ECMP start {} vs single-path start {}", new, old);
    }
}

/// The penalised objective the solver minimises under `power`, from
/// per-link loads.
fn objective(loads: impl Iterator<Item = f64>, power: &PowerFunction) -> f64 {
    let cost = PowerFlowCost::new(*power);
    loads
        .map(|x| {
            let over = (x - power.capacity()).max(0.0);
            cost.cost(x) + OVERLOAD_PENALTY * over * over
        })
        .sum()
}

/// The solver's solution of one problem under `power`, on a fresh CSR
/// view and scratch.
fn solve(
    net: &Network,
    commodities: &[Commodity],
    power: &PowerFunction,
    config: &FmcfSolverConfig,
) -> FmcfSolution {
    let graph = GraphCsr::from_network(net);
    let cost = PowerFlowCost::new(*power);
    FmcfProblem::with_graph(&graph, commodities.to_vec())
        .solve_with(&cost, config, &mut FmcfScratch::new())
        .unwrap()
}

/// The final objectives of one problem under the solver and under the
/// single-path-start reference, at the default configuration, and whether
/// both stopped on the stall test rather than on the iteration cap.
fn objectives(net: &Network, commodities: &[Commodity], power: &PowerFunction) -> (f64, f64, bool) {
    let config = FmcfSolverConfig::default();
    let solution = solve(net, commodities, power, &config);
    let new = objective(solution.total_loads().iter().copied(), power);
    let (flows, _, reference_converged, _) = reference::solve(
        net,
        commodities,
        &PowerFlowCost::new(*power),
        power.capacity(),
        &config,
        reference::Start::SinglePath,
    );
    let loads = (0..net.link_count()).map(|e| flows.iter().map(|row| row[e]).sum());
    (
        new,
        objective(loads, power),
        solution.converged && reference_converged,
    )
}

/// A copy of `net` without the given directed links: the adjacency-list
/// reference has no notion of a link being down, so an asymmetric fabric
/// is built as a network of its own.
fn without_links(net: &Network, down: &[LinkId]) -> Network {
    let mut out = Network::new();
    for node in net.nodes() {
        out.add_node(node.kind, node.label.clone());
    }
    for link in net.links().filter(|l| !down.contains(&l.id)) {
        out.add_link(link.src, link.dst, link.capacity);
    }
    out
}

/// Quality oracle on the asymmetric corpus — fat-trees with one to three
/// switch-to-switch links removed, BCube, leaf–spine (whole and with a
/// spine link removed) — under the default solver configuration: on every
/// problem where both solves stop on the stall test, the solver's
/// objective is within 0.1 % of, or below, what the pre-refactor start
/// reaches. Where a solve runs out of iterations (a dozen of the 108
/// problems; on BCube at `alpha = 4` under either start, 60 iterations
/// leaving it 3 % above the optimum) two unconverged iterates are being
/// compared, which differ by a percent or so in either direction; there
/// the bound is 1 %. (On the symmetric fat-tree the ECMP split is the
/// optimum itself; that is pinned by the solver's own zero-gap tests.)
#[test]
fn ecmp_start_is_no_worse_than_the_single_path_start_on_asymmetric_fabrics() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut corpus: Vec<(String, Network, Vec<NodeId>)> = Vec::new();
    for k in [4, 6] {
        let ft = builders::fat_tree(k);
        let fabric: Vec<LinkId> = ft
            .network
            .links()
            .filter(|l| {
                !ft.network.node(l.src).kind.is_host() && !ft.network.node(l.dst).kind.is_host()
            })
            .map(|l| l.id)
            .collect();
        let mut rng = StdRng::seed_from_u64(k as u64);
        for failed in 1..=3 {
            let down: Vec<LinkId> = (0..failed)
                .map(|_| fabric[rng.gen_range(0..fabric.len())])
                .collect();
            corpus.push((
                format!("{} without {down:?}", ft.name),
                without_links(&ft.network, &down),
                ft.hosts.clone(),
            ));
        }
    }
    for topo in [builders::bcube(4, 1), builders::leaf_spine(4, 2, 6)] {
        corpus.push((topo.name.clone(), topo.network.clone(), topo.hosts.clone()));
    }
    let ls = builders::leaf_spine(4, 3, 4);
    let spine_link = ls
        .network
        .links()
        .find(|l| !ls.network.node(l.src).kind.is_host() && !ls.network.node(l.dst).kind.is_host())
        .unwrap()
        .id;
    corpus.push((
        format!("{} without {spine_link}", ls.name),
        without_links(&ls.network, &[spine_link]),
        ls.hosts.clone(),
    ));

    for (name, net, hosts) in &corpus {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let commodities: Vec<Commodity> = (0..12)
                .filter_map(|id| {
                    let src = hosts[rng.gen_range(0..hosts.len())];
                    let dst = hosts[rng.gen_range(0..hosts.len())];
                    let demand = rng.gen_range(0.5..4.0);
                    (src != dst).then_some(Commodity {
                        id,
                        src,
                        dst,
                        demand,
                    })
                })
                .collect();
            for (alpha, sigma) in [(2.0, 0.0), (4.0, 0.0), (2.0, 3.0)] {
                let power = PowerFunction::new(sigma, 1.0, alpha, 10.0).unwrap();
                let (new, old, both_converged) = objectives(net, &commodities, &power);
                let tolerance = if both_converged { 1e-3 } else { 1e-2 };
                assert!(
                    new <= old * (1.0 + tolerance),
                    "{name}, seed {seed}, alpha {alpha}, sigma {sigma}: \
                     ECMP start ends at {new}, single-path start at {old}"
                );
            }
        }
    }
}
