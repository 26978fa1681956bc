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
//! preserved verbatim in [`reference`] below as the oracle.

use deadline_dcn::power::PowerFunction;
use deadline_dcn::solver::fmcf::{
    Commodity, FlowCost, FmcfProblem, FmcfSolverConfig, PowerFlowCost,
};
use deadline_dcn::topology::{
    dijkstra_on, GraphCsr, LinkId, Network, NodeId, NodeKind, ShortestPathEngine,
};
use proptest::prelude::*;

/// The pre-refactor adjacency-list algorithms, copied verbatim (modulo
/// visibility) from `dcn-topology`/`dcn-solver` as they were before the
/// CSR core landed.
mod reference {
    use super::*;
    use deadline_dcn::topology::Path;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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
        network: &Network,
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
            return Path::from_links(network, src, &[]).ok();
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
        Path::from_links(network, src, &links_rev).ok()
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

    /// The original Frank–Wolfe solve over `Vec<Vec<f64>>` flow matrices,
    /// one Dijkstra per commodity per iteration. Returns the per-commodity
    /// flows plus `(iterations, converged)`.
    pub fn solve(
        network: &Network,
        commodities: &[Commodity],
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
    ) -> (Vec<Vec<f64>>, usize, bool) {
        let penalty = |load: f64| match config.capacity {
            Some(cap) if load > cap => config.capacity_penalty * (load - cap).powi(2),
            _ => 0.0,
        };
        let penalty_marginal = |load: f64| match config.capacity {
            Some(cap) if load > cap => 2.0 * config.capacity_penalty * (load - cap),
            _ => 0.0,
        };
        let objective = |loads: &[f64]| -> f64 {
            loads
                .iter()
                .enumerate()
                .map(|(e, &x)| cost.cost(LinkId(e), x) + penalty(x))
                .sum()
        };
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
            return (Vec::new(), 0, true);
        }

        let hop_weights = vec![1.0; m];
        let mut flows = all_or_nothing(&hop_weights).expect("path exists");

        let mut loads = column_sums(&flows, m);
        let mut obj = objective(&loads);
        let mut converged = false;
        let mut iterations = 0;

        for it in 0..config.max_iterations {
            iterations = it + 1;
            let weights: Vec<f64> = loads
                .iter()
                .enumerate()
                .map(|(e, &x)| (cost.marginal(LinkId(e), x) + penalty_marginal(x)).max(0.0))
                .collect();
            let target = all_or_nothing(&weights).expect("path exists");
            let target_loads = column_sums(&target, m);

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
        (flows, iterations, converged)
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

    /// The engine's weighted shortest paths — through `dijkstra_on` on a
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

        let oracle = reference::dijkstra(&net, src, dst, |l| weights[l.index()]);
        let one_shot = dijkstra_on(
            &GraphCsr::from_network(&net),
            &mut ShortestPathEngine::new(),
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
        prop_assert_eq!(net.shortest_path(src, dst), graph.shortest_path(src, dst));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Full Frank–Wolfe F-MCF solutions (per-commodity flows, iteration
    /// count, convergence flag) are **bit-for-bit identical** to the
    /// pre-refactor per-commodity-Dijkstra solver, under both pure
    /// speed-scaling and idle-share costs.
    #[test]
    fn fmcf_matches_prerefactor_solver(
        spec in arb_topo(),
        raw in prop::collection::vec((0usize..1000, 0usize..1000, 0.5f64..4.0), 1..6),
        alpha_pick in 0u8..2,
        sigma_pick in 0u8..2,
    ) {
        let net = build(&spec);
        let commodities: Vec<Commodity> = raw
            .iter()
            .enumerate()
            .filter_map(|(id, &(a, b, demand))| {
                let (src, dst) = (a % spec.n, b % spec.n);
                (src != dst).then_some(Commodity {
                    id,
                    src: NodeId(src),
                    dst: NodeId(dst),
                    demand,
                })
            })
            .collect();
        let alpha = [2.0, 4.0][alpha_pick as usize];
        let sigma = [0.0, 3.0][sigma_pick as usize];
        let power = PowerFunction::new(sigma, 1.0, alpha, 10.0).unwrap();
        let cost = PowerFlowCost::new(power);
        let config = FmcfSolverConfig {
            max_iterations: 30,
            tolerance: 1e-5,
            capacity: Some(8.0),
            line_search_steps: 20,
            ..Default::default()
        };

        let (oracle_flows, oracle_iters, oracle_converged) =
            reference::solve(&net, &commodities, &cost, &config);
        let solution = FmcfProblem::new(&net, commodities.clone()).solve(&cost, &config);

        prop_assert_eq!(solution.commodity_count(), commodities.len());
        prop_assert_eq!(solution.iterations, oracle_iters);
        prop_assert_eq!(solution.converged, oracle_converged);
        for (c, oracle_row) in oracle_flows.iter().enumerate() {
            prop_assert_eq!(solution.commodity_flows(c), oracle_row.as_slice());
        }
        // The maintained loads equal the recomputed column sums exactly
        // (an empty problem exposes no loads, matching the old behavior).
        if !commodities.is_empty() {
            for e in 0..net.link_count() {
                let expected: f64 = oracle_flows.iter().map(|row| row[e]).sum();
                prop_assert_eq!(solution.total_loads()[e], expected);
            }
        }
    }
}
