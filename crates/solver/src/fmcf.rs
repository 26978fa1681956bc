//! Fractional multi-commodity flow with convex separable link costs,
//! solved by the Frank–Wolfe (conditional gradient) method.
//!
//! The Random-Schedule algorithm relaxes DCFSR into one fractional
//! multi-commodity flow problem per interval `I_k`: every flow active in the
//! interval must route its density `D_i` from source to destination, flows
//! may be split across paths arbitrarily, and the objective is the sum of a
//! convex function of the load over all links (paper, Definition 4). This
//! module solves exactly that problem.
//!
//! Frank–Wolfe is the textbook method for convex-cost multi-commodity flow
//! (it is the classical "traffic assignment" algorithm): each iteration
//! routes every commodity entirely on its cheapest path under the *marginal*
//! link costs at the current loads, and the new solution is a convex
//! combination of the old solution and that all-or-nothing assignment, with
//! the mixing coefficient chosen by exact (golden-section) line search on
//! the convex objective.
//!
//! # Start point
//!
//! Frank–Wolfe adds one path per commodity per iteration, so a start on a
//! single path needs at least as many iterations as there are equal-cost
//! paths to touch them all (16 between pods of a k=8 fat-tree). The solver
//! therefore starts at the **ECMP split**: every commodity's demand divided
//! equally, node by node, over its hop-count shortest-path DAG. On a
//! symmetric fabric (a failure-free fat-tree) that point satisfies the
//! optimality conditions of the convex problem — every used path has the
//! same, minimal marginal cost — so the first iteration finds a zero
//! Frank–Wolfe gap and stops; on any other graph it is still a feasible
//! point, usually a far better one than a single path, and the iterations
//! take it from there.
//!
//! # Hot-path layout
//!
//! The solver runs on the flat [`GraphCsr`] view and keeps every
//! per-iteration buffer in a reusable [`FmcfScratch`]:
//!
//! * the start and the all-or-nothing step group commodities by source and
//!   run **one** multi-target Dijkstra per distinct source (not per
//!   commodity) through the arena-reuse [`ShortestPathEngine`];
//! * chosen paths are stored as spans into one shared link buffer, and the
//!   per-commodity flow matrix is a single flat `n x m` array, so blending
//!   and load accumulation are sequential passes;
//! * after the first iteration has warmed the arenas up, a Frank–Wolfe
//!   iteration performs **zero heap allocations**.
//!
//! Callers solving many problems on one network (the per-interval
//! relaxation) should build one [`GraphCsr`], construct problems with
//! [`FmcfProblem::with_graph`] and pass one scratch to
//! [`FmcfProblem::solve_with`]; [`FmcfProblem::new`] and
//! [`FmcfProblem::solve`] remain as one-shot conveniences.

use dcn_power::PowerFunction;
use dcn_topology::{GraphCsr, LinkId, Network, NodeId, ShortestPathEngine};
use std::collections::HashMap;

/// One commodity of the multi-commodity flow problem: `demand` units of
/// traffic per unit time from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Caller-chosen identifier (typically the flow id).
    pub id: usize,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic demand (e.g. the flow density `D_i`).
    pub demand: f64,
}

/// A convex, separable per-link cost: the objective is
/// `sum over links of cost(link, load_on_link)`.
pub trait FlowCost {
    /// The cost of pushing `load` units of traffic through `link`.
    fn cost(&self, link: LinkId, load: f64) -> f64;

    /// The derivative of [`FlowCost::cost`] with respect to the load.
    fn marginal(&self, link: LinkId, load: f64) -> f64;

    /// Returns `true` when `cost(link, 0.0) == 0.0` for **every** link.
    ///
    /// When it holds, the Frank–Wolfe solver confines its objective and
    /// blending passes to the links actually touched by some chosen path
    /// (unloaded links contribute exactly `+0.0`, so skipping them is
    /// bit-for-bit neutral). The conservative default keeps the dense
    /// full-graph passes.
    fn zero_load_is_free(&self) -> bool {
        false
    }
}

/// The power-model cost used throughout the reproduction:
/// `cost(x) = mu * x^alpha + (sigma / C) * x`.
///
/// * With `sigma = 0` this is exactly the paper's speed-scaling cost
///   `g(x) = mu * x^alpha` used by the DCFS analysis and the Fig. 2 setup.
/// * With `sigma > 0` the linear term charges each unit of traffic the
///   idle-power share it would occupy on a fully-loaded link. For any
///   feasible (integral) schedule the per-interval cost under this function
///   is a lower bound on its true energy share, so the fractional optimum
///   under this cost is a valid lower bound for DCFSR (used as the `LB`
///   normaliser of Fig. 2).
#[derive(Debug, Clone, Copy)]
pub struct PowerFlowCost {
    power: PowerFunction,
}

impl PowerFlowCost {
    /// Creates the cost from a power function.
    pub fn new(power: PowerFunction) -> Self {
        Self { power }
    }

    /// The underlying power function.
    pub fn power(&self) -> &PowerFunction {
        &self.power
    }
}

impl FlowCost for PowerFlowCost {
    fn cost(&self, _link: LinkId, load: f64) -> f64 {
        if load <= 0.0 {
            return 0.0;
        }
        self.power.dynamic_power(load) + self.power.sigma() * load / self.power.capacity()
    }

    fn marginal(&self, _link: LinkId, load: f64) -> f64 {
        self.power.marginal_power(load.max(0.0)) + self.power.sigma() / self.power.capacity()
    }

    fn zero_load_is_free(&self) -> bool {
        true
    }
}

/// Configuration of the Frank–Wolfe solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmcfSolverConfig {
    /// Maximum number of Frank–Wolfe iterations.
    pub max_iterations: usize,
    /// Relative improvement below which the solver declares convergence.
    pub tolerance: f64,
    /// Optional per-link capacity; loads above it are discouraged by a
    /// quadratic penalty (the relaxation's `x_e <= C` constraint).
    pub capacity: Option<f64>,
    /// Weight of the quadratic capacity penalty.
    pub capacity_penalty: f64,
    /// Number of golden-section iterations in the line search.
    pub line_search_steps: usize,
}

impl Default for FmcfSolverConfig {
    fn default() -> Self {
        Self {
            max_iterations: 60,
            tolerance: 1e-4,
            capacity: None,
            capacity_penalty: 1e3,
            line_search_steps: 40,
        }
    }
}

/// The graph a problem runs on: borrowed from the caller (the amortised
/// path) or built once from a `Network` (the one-shot convenience path).
#[derive(Debug, Clone)]
enum GraphRef<'a> {
    Owned(Box<GraphCsr>),
    Borrowed(&'a GraphCsr),
}

impl GraphRef<'_> {
    fn get(&self) -> &GraphCsr {
        match self {
            GraphRef::Owned(g) => g,
            GraphRef::Borrowed(g) => g,
        }
    }
}

/// A fractional multi-commodity flow problem on a network.
#[derive(Debug, Clone)]
pub struct FmcfProblem<'a> {
    graph: GraphRef<'a>,
    commodities: Vec<Commodity>,
}

/// A converged solution cached by a warm-start-enabled scratch, together
/// with the fingerprint of the problem that produced it.
#[derive(Debug, Clone)]
struct WarmEntry {
    /// Per-commodity `(id, src, dst, demand bits)` of the cached problem.
    keys: Vec<(usize, usize, usize, u64)>,
    /// The converged flow matrix (`keys.len() x link_count`, row-major).
    flows: Vec<f64>,
    /// The converged aggregate loads.
    loads: Vec<f64>,
    /// Row stride of `flows`.
    link_count: usize,
    /// Epoch of the graph the cached solve ran on. Epochs are globally
    /// unique and bumped on every topology mutation, so this pins the
    /// cache to one graph *instance and state* — a recycled allocation
    /// hosting a same-size graph, or an in-place link failure, can never
    /// replay a stale solution.
    graph_epoch: u64,
    /// Iteration count of the cached solve.
    iterations: usize,
    /// Convergence flag of the cached solve.
    converged: bool,
    /// Links with nonzero load in the cached solution, ascending.
    active: Vec<LinkId>,
    /// Bit-pattern fingerprint of the solver configuration.
    config_bits: [u64; 5],
    /// Bit-pattern probe of the cost function (see [`cost_fingerprint`]).
    cost_bits: [u64; 3],
}

/// The ECMP splits of a unit demand computed so far on one graph state,
/// keyed by `(src, dst)`. A flow is active in many intervals of an offline
/// sweep and re-solved on every online arrival; its split depends on the
/// graph and the endpoints alone.
#[derive(Debug, Clone, Default)]
struct SplitCache {
    /// Epoch of the graph the splits were computed on (epochs are globally
    /// unique per graph instance and mutation state).
    graph_epoch: u64,
    /// `(src, dst)` -> `(start, len)` span into `shares`.
    spans: HashMap<(NodeId, NodeId), (usize, usize)>,
    /// Concatenated `(link, share of a unit demand)` lists, each in the
    /// order the backward pass wrote it.
    shares: Vec<(LinkId, f64)>,
}

impl SplitCache {
    /// Link shares kept before the cache is dropped and refilled (16 MB);
    /// the distinct pairs of a long online run on a large fabric would
    /// otherwise grow it without bound.
    const MAX_SHARES: usize = 1 << 20;

    /// Drops every split computed on another graph state, or all of them
    /// once the cache is full. Refilling recomputes identical splits.
    fn start_solve(&mut self, graph_epoch: u64) {
        if self.graph_epoch != graph_epoch || self.shares.len() > Self::MAX_SHARES {
            self.graph_epoch = graph_epoch;
            self.spans.clear();
            self.shares.clear();
        }
    }
}

/// Reusable solver state: the shortest-path engine arenas and every
/// per-iteration buffer. One scratch can (and should) be shared across the
/// many [`FmcfProblem::solve_with`] calls of an interval sweep; it grows to
/// the largest problem seen and allocates nothing afterwards.
///
/// # Warm starts
///
/// With [`FmcfScratch::set_warm_start`] enabled the scratch additionally
/// caches the last converged solution. A re-solve of the *identical*
/// problem (same commodities, demands, graph size, configuration and cost
/// fingerprint, and no [dirty links](FmcfScratch::mark_dirty_links)
/// touching the cached flows) returns the cached solution bit-for-bit
/// without iterating. Otherwise commodities carried over from the cached
/// problem whose flows avoid every dirty link are *seeded* from their
/// previous rows (scaled to the new demand) instead of the ECMP split, so
/// Frank–Wolfe starts near the old optimum and converges in fewer
/// iterations; freshly arrived or dirty-path commodities are re-routed
/// from scratch. Warm starts are off by default: the cold path is
/// bit-for-bit identical to a fresh scratch.
#[derive(Debug, Clone, Default)]
pub struct FmcfScratch {
    engine: ShortestPathEngine,
    /// Per-link weights of the current all-or-nothing step.
    weights: Vec<f64>,
    /// Aggregate loads of the all-or-nothing assignment.
    target_loads: Vec<f64>,
    /// Line-search evaluation buffer.
    blended: Vec<f64>,
    /// Commodity indices grouped by source node (sorted by `(src, index)`).
    order: Vec<usize>,
    /// Concatenated per-commodity link lists: the links of the chosen
    /// all-or-nothing path during an iteration, and before the first one
    /// the support of the commodity's ECMP split (its shortest-path DAG).
    path_links: Vec<LinkId>,
    /// Per-commodity `(start, len)` span into `path_links`.
    path_spans: Vec<(usize, usize)>,
    /// The ECMP unit splits computed so far on the current graph state.
    splits: SplitCache,
    /// Share of a unit demand arriving at each node during the backward
    /// pass of an ECMP split (all zero between passes).
    node_share: Vec<f64>,
    /// Membership mask of `dag_queue` (all `false` between passes).
    node_queued: Vec<bool>,
    /// Nodes of the current pair's shortest-path DAG, in the order the
    /// backward pass reached them (farthest from the source first).
    dag_queue: Vec<NodeId>,
    /// Destination batch of the current source group.
    targets: Vec<NodeId>,
    /// Links touched by any chosen path so far, sorted ascending; the
    /// objective/blending passes are confined to these when the cost is
    /// [`FlowCost::zero_load_is_free`] (all other loads are exactly zero).
    active: Vec<LinkId>,
    /// Membership mask of `active`.
    active_mark: Vec<bool>,
    /// Whether solves cache and reuse the previous solution.
    warm_enabled: bool,
    /// The cached previous solution, when warm starts are enabled.
    warm: Option<WarmEntry>,
    /// Links whose residual conditions changed since the cached solve.
    dirty: Vec<LinkId>,
    /// Membership mask of `dirty` (indexed by link, grown on demand).
    dirty_mark: Vec<bool>,
}

impl FmcfScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables warm-started solves (see the
    /// [type docs](FmcfScratch#warm-starts)). Disabling drops the cached
    /// solution, so re-enabling starts cold.
    ///
    /// The cache probes the cost function at `LinkId(0)` to fingerprint it,
    /// which assumes link-homogeneous costs (true for [`PowerFlowCost`]);
    /// callers alternating *per-link heterogeneous* costs on one scratch
    /// should call [`FmcfScratch::clear_warm_cache`] between them.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
        if !enabled {
            self.clear_warm_cache();
        }
    }

    /// Whether warm-started solves are enabled.
    pub fn warm_start(&self) -> bool {
        self.warm_enabled
    }

    /// Drops the cached previous solution and the dirty-link set.
    pub fn clear_warm_cache(&mut self) {
        self.warm = None;
        self.dirty.clear();
        self.dirty_mark.fill(false);
    }

    /// Marks `links` as having changed residual conditions (capacity
    /// reservations, completed or preempted flows) since the cached solve.
    /// Cached commodities whose flows touch a dirty link are re-routed
    /// from scratch instead of being seeded; an otherwise identical
    /// re-solve whose cached flows touch a dirty link loses its shortcut.
    /// The set is consumed by the next warm-enabled solve.
    pub fn mark_dirty_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        for l in links {
            if self.dirty_mark.len() <= l.index() {
                self.dirty_mark.resize(l.index() + 1, false);
            }
            if !self.dirty_mark[l.index()] {
                self.dirty_mark[l.index()] = true;
                self.dirty.push(l);
            }
        }
    }

    /// `true` if `link` is currently marked dirty.
    fn is_dirty(&self, link: LinkId) -> bool {
        self.dirty_mark.get(link.index()).copied().unwrap_or(false)
    }

    /// Clears the dirty set after a warm solve has consumed it.
    fn consume_dirty(&mut self) {
        for &l in &self.dirty {
            self.dirty_mark[l.index()] = false;
        }
        self.dirty.clear();
    }

    /// Sizes the buffers for a problem with `n` commodities and `m` links
    /// and rebuilds the source-grouped commodity order.
    ///
    /// With `sparse` set, the active-link set starts empty and grows with
    /// the chosen paths; otherwise every link is active and the solver's
    /// passes stay dense.
    fn prepare(&mut self, commodities: &[Commodity], m: usize, sparse: bool) {
        let n = commodities.len();
        self.weights.resize(m, 0.0);
        self.target_loads.resize(m, 0.0);
        self.blended.resize(m, 0.0);
        self.path_spans.resize(n, (0, 0));
        self.order.clear();
        self.order.extend(0..n);
        self.order
            .sort_unstable_by_key(|&c| (commodities[c].src.index(), c));
        self.active.clear();
        self.active_mark.clear();
        self.active_mark.resize(m, !sparse);
        if !sparse {
            self.active.extend((0..m).map(LinkId));
        }
    }

    /// Appends the ECMP split of a unit demand from `src` to `dst` (a pair
    /// not cached yet) to the split cache, reading hop distances from the
    /// engine's latest search, which must have been a unit-weight search
    /// from `src` that settled `dst`.
    ///
    /// A link `u -> v` lies on the pair's shortest-path DAG iff it is
    /// *tight*, `dist(u) + 1 == dist(v)` (exact: unit-weight distances are
    /// small integers), and every node closer to the source than a settled
    /// target is itself settled. One backward pass from `dst` divides what
    /// arrives at a node equally over its tight in-links — linear in the
    /// DAG, however many paths it holds. A node's tight in-neighbours are
    /// one hop closer to the source than the node, so the FIFO order
    /// finishes every level before the next one starts and a node's share
    /// is complete when the node is reached.
    fn cache_unit_split(&mut self, graph: &GraphCsr, src: NodeId, dst: NodeId) {
        let FmcfScratch {
            engine,
            splits,
            node_share,
            node_queued,
            dag_queue,
            ..
        } = self;
        let start = splits.shares.len();
        dag_queue.clear();
        dag_queue.push(dst);
        node_queued[dst.index()] = true;
        node_share[dst.index()] = 1.0;
        let mut head = 0;
        while head < dag_queue.len() {
            let v = dag_queue[head];
            head += 1;
            // At the source (distance zero) nothing is tight.
            let closer = engine.distance(v).map(|d| d - 1.0);
            let tight = |l: &&LinkId| engine.distance(graph.link_src(**l)) == closer;
            let ways = graph.in_links(v).iter().filter(tight).count();
            let part = node_share[v.index()] / ways as f64;
            for &l in graph.in_links(v).iter().filter(tight) {
                splits.shares.push((l, part));
                let u = graph.link_src(l);
                node_share[u.index()] += part;
                if !node_queued[u.index()] {
                    node_queued[u.index()] = true;
                    dag_queue.push(u);
                }
            }
        }
        for v in dag_queue.iter() {
            node_share[v.index()] = 0.0;
            node_queued[v.index()] = false;
        }
        splits
            .spans
            .insert((src, dst), (start, splits.shares.len() - start));
    }

    /// Adds every link of the freshly chosen paths to the active set,
    /// keeping it sorted (ascending link id, the historical summation
    /// order of the dense passes).
    fn register_active_paths(&mut self) {
        let mut added = false;
        for &l in &self.path_links {
            if !self.active_mark[l.index()] {
                self.active_mark[l.index()] = true;
                self.active.push(l);
                added = true;
            }
        }
        if added {
            self.active.sort_unstable();
        }
    }
}

/// The fractional solution: per-commodity, per-link flow values in one flat
/// row-major matrix, plus the aggregate per-link loads maintained by the
/// solve loop.
#[derive(Debug, Clone, PartialEq)]
pub struct FmcfSolution {
    /// `flows[c * link_count + e]` = amount of commodity `c`'s demand
    /// routed over link `e`.
    flows: Vec<f64>,
    /// Aggregate per-link loads (always consistent with `flows`).
    loads: Vec<f64>,
    /// Number of commodities.
    commodities: usize,
    /// Number of links (the row stride of `flows`).
    link_count: usize,
    /// Number of Frank–Wolfe iterations performed.
    pub iterations: usize,
    /// Whether the relative-improvement stopping criterion was reached.
    pub converged: bool,
}

impl<'a> FmcfProblem<'a> {
    /// Creates a problem instance, building a one-shot [`GraphCsr`] view of
    /// the network. Callers with many problems on the same network should
    /// build the view once and use [`FmcfProblem::with_graph`].
    ///
    /// # Panics
    ///
    /// Panics if any commodity has a non-positive demand or equal endpoints.
    pub fn new(network: &'a Network, commodities: Vec<Commodity>) -> Self {
        Self::validate(&commodities);
        Self {
            graph: GraphRef::Owned(Box::new(GraphCsr::from_network(network))),
            commodities,
        }
    }

    /// Creates a problem instance on a prebuilt CSR view.
    ///
    /// # Panics
    ///
    /// Panics if any commodity has a non-positive demand or equal endpoints.
    pub fn with_graph(graph: &'a GraphCsr, commodities: Vec<Commodity>) -> Self {
        Self::validate(&commodities);
        Self {
            graph: GraphRef::Borrowed(graph),
            commodities,
        }
    }

    fn validate(commodities: &[Commodity]) {
        for c in commodities {
            assert!(c.demand > 0.0, "commodity {} has non-positive demand", c.id);
            assert!(c.src != c.dst, "commodity {} has equal endpoints", c.id);
        }
    }

    /// The commodities of the problem.
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// The CSR view the problem solves on.
    pub fn graph(&self) -> &GraphCsr {
        self.graph.get()
    }

    fn penalty(&self, load: f64, config: &FmcfSolverConfig) -> f64 {
        match config.capacity {
            Some(cap) if load > cap => config.capacity_penalty * (load - cap).powi(2),
            _ => 0.0,
        }
    }

    fn penalty_marginal(&self, load: f64, config: &FmcfSolverConfig) -> f64 {
        match config.capacity {
            Some(cap) if load > cap => 2.0 * config.capacity_penalty * (load - cap),
            _ => 0.0,
        }
    }

    /// The objective restricted to `active` links (ascending). Equal to
    /// the dense sum over every link — bit for bit — because every
    /// inactive link has exactly zero load (and the cost is either
    /// zero-load-free, or the active set covers the whole graph).
    fn objective_over(
        &self,
        loads: &[f64],
        active: &[LinkId],
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
    ) -> f64 {
        active
            .iter()
            .map(|&l| {
                let x = loads[l.index()];
                cost.cost(l, x) + self.penalty(x, config)
            })
            .sum()
    }

    /// Routes every commodity on its cheapest path under
    /// `scratch.weights`, one multi-target Dijkstra per distinct source,
    /// recording the chosen paths as spans in `scratch`. Returns `false`
    /// if some commodity has no path at all.
    fn all_or_nothing(&self, scratch: &mut FmcfScratch) -> bool {
        let FmcfScratch {
            engine,
            weights,
            order,
            path_links,
            path_spans,
            targets,
            ..
        } = scratch;
        let graph = self.graph.get();
        path_links.clear();

        let mut i = 0;
        while i < order.len() {
            let src = self.commodities[order[i]].src;
            let mut j = i;
            targets.clear();
            while j < order.len() && self.commodities[order[j]].src == src {
                targets.push(self.commodities[order[j]].dst);
                j += 1;
            }
            engine.single_source_all_targets(graph, src, targets, |l| weights[l.index()]);
            for &c in &order[i..j] {
                let dst = self.commodities[c].dst;
                if !engine.settled(dst) {
                    return false;
                }
                let start = path_links.len();
                let mut cur = dst;
                while cur != src {
                    let lid = engine
                        .parent_link(cur)
                        .expect("settled node has a parent chain");
                    path_links.push(lid);
                    cur = graph.link_src(lid);
                }
                path_links[start..].reverse();
                path_spans[c] = (start, path_links.len() - start);
            }
            i = j;
        }
        true
    }

    /// Writes the ECMP split of every commodity into its row of `flows`
    /// (all zero on entry) and records the row's support as the
    /// commodity's span in `scratch`. Returns `false` if some commodity
    /// has no path at all.
    ///
    /// The split of a unit demand depends on the graph state and the
    /// endpoints alone, so it is computed once per `(src, dst)` and graph
    /// epoch ([`SplitCache`]) — one unit-weight search per distinct source
    /// with a pair still missing — and every row is the cached split
    /// scaled by the demand: a warmed-up, a fresh and a per-worker scratch
    /// write the same bits.
    fn ecmp_split(&self, scratch: &mut FmcfScratch, flows: &mut [f64], m: usize) -> bool {
        let graph = self.graph.get();
        scratch.splits.start_solve(graph.epoch());
        scratch.node_share.resize(graph.node_count(), 0.0);
        scratch.node_queued.resize(graph.node_count(), false);

        let mut i = 0;
        while i < scratch.order.len() {
            let src = self.commodities[scratch.order[i]].src;
            let mut j = i;
            scratch.targets.clear();
            while j < scratch.order.len() && self.commodities[scratch.order[j]].src == src {
                let dst = self.commodities[scratch.order[j]].dst;
                if !scratch.splits.spans.contains_key(&(src, dst))
                    && !scratch.targets.contains(&dst)
                {
                    scratch.targets.push(dst);
                }
                j += 1;
            }
            if !scratch.targets.is_empty() {
                scratch
                    .engine
                    .single_source_all_targets(graph, src, &scratch.targets, |_| 1.0);
                for t in 0..scratch.targets.len() {
                    let dst = scratch.targets[t];
                    if !scratch.engine.settled(dst) {
                        return false;
                    }
                    scratch.cache_unit_split(graph, src, dst);
                }
            }
            i = j;
        }

        let FmcfScratch {
            splits,
            path_links,
            path_spans,
            ..
        } = scratch;
        path_links.clear();
        for (c, commodity) in self.commodities.iter().enumerate() {
            let (start, len) = splits.spans[&(commodity.src, commodity.dst)];
            let row = &mut flows[c * m..(c + 1) * m];
            path_spans[c] = (path_links.len(), len);
            for &(l, share) in &splits.shares[start..start + len] {
                row[l.index()] = commodity.demand * share;
                path_links.push(l);
            }
        }
        true
    }

    /// The link list of commodity `c`: its chosen path after
    /// [`Self::all_or_nothing`], the support of its start after
    /// [`Self::ecmp_split`].
    fn span<'s>(&self, scratch: &'s FmcfScratch, c: usize) -> &'s [LinkId] {
        let (start, len) = scratch.path_spans[c];
        &scratch.path_links[start..start + len]
    }

    /// Solves the problem with Frank–Wolfe under the given convex cost,
    /// using a fresh scratch (one-shot convenience for
    /// [`FmcfProblem::solve_with`]).
    ///
    /// # Panics
    ///
    /// Panics if some commodity's destination is unreachable from its
    /// source.
    pub fn solve(&self, cost: &impl FlowCost, config: &FmcfSolverConfig) -> FmcfSolution {
        self.solve_with(cost, config, &mut FmcfScratch::new())
    }

    /// Solves the problem with Frank–Wolfe, reusing the caller's scratch
    /// buffers; after the scratch has warmed up, each Frank–Wolfe
    /// iteration is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if some commodity's destination is unreachable from its
    /// source.
    pub fn solve_with(
        &self,
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
        scratch: &mut FmcfScratch,
    ) -> FmcfSolution {
        let m = self.graph.get().link_count();
        let n = self.commodities.len();
        if n == 0 {
            return FmcfSolution {
                flows: Vec::new(),
                // Loads stay link-indexed even with no commodities so
                // `edge_load` keeps returning 0.0 for every link.
                loads: vec![0.0; m],
                commodities: 0,
                link_count: m,
                iterations: 0,
                converged: true,
            };
        }
        // Warm shortcut: an identical problem with an untouched cache
        // returns the cached solution verbatim.
        let warm = scratch.warm_enabled;
        if warm {
            if let Some(cached) = self.try_warm_shortcut(cost, config, scratch) {
                scratch.consume_dirty();
                return cached;
            }
        }

        // With a zero-load-free cost (and a sane capacity) the objective,
        // blending and load passes can be confined to the links actually
        // touched by some chosen path: every other load stays exactly 0.0
        // and contributes exactly +0.0, so the restriction is bit-for-bit
        // neutral while cutting the per-iteration work from O(n·m) to
        // O(n·|active|).
        let sparse = cost.zero_load_is_free() && config.capacity.is_none_or(|c| c >= 0.0);
        scratch.prepare(&self.commodities, m, sparse);

        // The solution buffers are the only per-solve allocations.
        let mut flows = vec![0.0; n * m];
        let mut loads = vec![0.0; m];

        // Initial feasible point: the ECMP split, every demand divided
        // equally over its hop-count shortest-path DAG.
        assert!(
            self.ecmp_split(scratch, &mut flows, m),
            "every commodity must have a path in the network"
        );
        scratch.register_active_paths();
        if warm {
            self.seed_from_cache(cost, config, scratch, &mut flows, m);
        }
        column_sums_over(&flows, m, &scratch.active, &mut loads);
        let mut objective = self.objective_over(&loads, &scratch.active, cost, config);
        let mut converged = false;
        let mut iterations = 0;

        for it in 0..config.max_iterations {
            iterations = it + 1;
            // Marginal costs at the current loads (Dijkstra may traverse
            // any link, so the weights stay dense).
            for (e, w) in scratch.weights.iter_mut().enumerate() {
                *w = (cost.marginal(LinkId(e), loads[e]) + self.penalty_marginal(loads[e], config))
                    .max(0.0);
            }
            assert!(
                self.all_or_nothing(scratch),
                "every commodity must have a path in the network"
            );
            scratch.register_active_paths();
            {
                // Disjoint field borrows: read the path spans while
                // accumulating into the load buffer.
                let FmcfScratch {
                    path_links,
                    path_spans,
                    target_loads,
                    ..
                } = &mut *scratch;
                target_loads.fill(0.0);
                for (c, commodity) in self.commodities.iter().enumerate() {
                    let (start, len) = path_spans[c];
                    for &l in &path_links[start..start + len] {
                        target_loads[l.index()] += commodity.demand;
                    }
                }
            }

            // Golden-section line search on gamma in [0, 1].
            let blended = &mut scratch.blended;
            let target_loads = &scratch.target_loads;
            let active = &scratch.active;
            let eval = |gamma: f64| {
                for &l in active {
                    let e = l.index();
                    blended[e] = (1.0 - gamma) * loads[e] + gamma * target_loads[e];
                }
                self.objective_over(blended, active, cost, config)
            };
            let gamma = golden_section_min(eval, 0.0, 1.0, config.line_search_steps);
            if gamma <= 1e-12 {
                converged = true;
                break;
            }

            // Blend: scale the matrix (inactive columns are exactly zero),
            // then add the assignment back on the (sparse) chosen paths.
            // Bit-identical to the dense two-matrix blend because the
            // assignment is zero elsewhere.
            let keep = 1.0 - gamma;
            for row in flows.chunks_exact_mut(m) {
                for &l in &scratch.active {
                    row[l.index()] *= keep;
                }
            }
            for (c, commodity) in self.commodities.iter().enumerate() {
                for &l in self.span(scratch, c) {
                    flows[c * m + l.index()] += gamma * commodity.demand;
                }
            }
            column_sums_over(&flows, m, &scratch.active, &mut loads);
            let new_objective = self.objective_over(&loads, &scratch.active, cost, config);
            let improvement = (objective - new_objective) / objective.abs().max(1e-12);
            objective = new_objective;
            if improvement.abs() < config.tolerance {
                converged = true;
                break;
            }
        }

        // Clean tiny numerical residue so that path decomposition
        // terminates, and refresh the loads to stay consistent.
        for row in flows.chunks_exact_mut(m) {
            for &l in &scratch.active {
                let fe = &mut row[l.index()];
                if *fe < 1e-12 {
                    *fe = 0.0;
                }
            }
        }
        column_sums_over(&flows, m, &scratch.active, &mut loads);

        if warm {
            scratch.warm = Some(WarmEntry {
                keys: self
                    .commodities
                    .iter()
                    .map(|c| (c.id, c.src.index(), c.dst.index(), c.demand.to_bits()))
                    .collect(),
                flows: flows.clone(),
                loads: loads.clone(),
                link_count: m,
                graph_epoch: self.graph.get().epoch(),
                iterations,
                converged,
                active: scratch
                    .active
                    .iter()
                    .copied()
                    .filter(|&l| loads[l.index()] != 0.0)
                    .collect(),
                config_bits: config_fingerprint(config),
                cost_bits: cost_fingerprint(cost),
            });
            scratch.consume_dirty();
        }

        FmcfSolution {
            flows,
            loads,
            commodities: n,
            link_count: m,
            iterations,
            converged,
        }
    }

    /// Returns the cached solution when the problem is bit-identical to
    /// the cached one and no dirty link touches its flows.
    fn try_warm_shortcut(
        &self,
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
        scratch: &FmcfScratch,
    ) -> Option<FmcfSolution> {
        let entry = scratch.warm.as_ref()?;
        let m = self.graph.get().link_count();
        if entry.link_count != m
            || entry.graph_epoch != self.graph.get().epoch()
            || entry.keys.len() != self.commodities.len()
            || entry.config_bits != config_fingerprint(config)
            || entry.cost_bits != cost_fingerprint(cost)
        {
            return None;
        }
        let same = self
            .commodities
            .iter()
            .zip(&entry.keys)
            .all(|(c, k)| *k == (c.id, c.src.index(), c.dst.index(), c.demand.to_bits()));
        if !same || entry.active.iter().any(|&l| scratch.is_dirty(l)) {
            return None;
        }
        Some(FmcfSolution {
            flows: entry.flows.clone(),
            loads: entry.loads.clone(),
            commodities: entry.keys.len(),
            link_count: m,
            iterations: entry.iterations,
            converged: entry.converged,
        })
    }

    /// Overwrites the ECMP-split rows of commodities carried over from the
    /// cached problem with their previous converged flows (scaled to the
    /// new demand), skipping commodities whose cached flows touch a dirty
    /// link. Registers the seeded links as active.
    fn seed_from_cache(
        &self,
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
        scratch: &mut FmcfScratch,
        flows: &mut [f64],
        m: usize,
    ) {
        let mut seeded_links: Vec<LinkId> = Vec::new();
        {
            let Some(entry) = scratch.warm.as_ref() else {
                return;
            };
            if entry.link_count != m
                || entry.graph_epoch != self.graph.get().epoch()
                || entry.config_bits != config_fingerprint(config)
                || entry.cost_bits != cost_fingerprint(cost)
            {
                return;
            }
            let index: HashMap<usize, usize> = entry
                .keys
                .iter()
                .enumerate()
                .map(|(row, k)| (k.0, row))
                .collect();
            for (c, commodity) in self.commodities.iter().enumerate() {
                let Some(&row) = index.get(&commodity.id) else {
                    continue;
                };
                let (_, src, dst, demand_bits) = entry.keys[row];
                if src != commodity.src.index() || dst != commodity.dst.index() {
                    continue;
                }
                let old_demand = f64::from_bits(demand_bits);
                if !old_demand.is_finite() || old_demand <= 0.0 {
                    continue;
                }
                let cached = &entry.flows[row * m..(row + 1) * m];
                if entry
                    .active
                    .iter()
                    .any(|&l| cached[l.index()] != 0.0 && scratch.is_dirty(l))
                {
                    continue;
                }
                // Replace the whole initial row — the span is its support,
                // and the cached row need not cover it — with the scaled
                // cached row; scaling a valid flow preserves conservation
                // at the new demand.
                let scale = commodity.demand / old_demand;
                for &l in self.span(scratch, c) {
                    flows[c * m + l.index()] = 0.0;
                }
                for &l in &entry.active {
                    let v = cached[l.index()];
                    if v != 0.0 {
                        flows[c * m + l.index()] = v * scale;
                        if !scratch.active_mark[l.index()] {
                            seeded_links.push(l);
                        }
                    }
                }
            }
        }
        let mut added = false;
        for l in seeded_links {
            if !scratch.active_mark[l.index()] {
                scratch.active_mark[l.index()] = true;
                scratch.active.push(l);
                added = true;
            }
        }
        if added {
            scratch.active.sort_unstable();
        }
    }
}

/// Bit-pattern fingerprint of a solver configuration for warm-cache
/// validity checks.
fn config_fingerprint(config: &FmcfSolverConfig) -> [u64; 5] {
    [
        config.max_iterations as u64,
        config.tolerance.to_bits(),
        config.capacity.map_or(u64::MAX, f64::to_bits),
        config.capacity_penalty.to_bits(),
        config.line_search_steps as u64,
    ]
}

/// Bit-pattern probe of a cost function at `LinkId(0)`; distinguishes
/// link-homogeneous costs (different power functions hash differently)
/// without requiring `PartialEq` on the trait.
fn cost_fingerprint(cost: &impl FlowCost) -> [u64; 3] {
    [
        cost.cost(LinkId(0), 1.0).to_bits(),
        cost.cost(LinkId(0), 2.0).to_bits(),
        cost.marginal(LinkId(0), 1.0).to_bits(),
    ]
}

impl FmcfSolution {
    /// Number of commodities in the solution.
    pub fn commodity_count(&self) -> usize {
        self.commodities
    }

    /// The flow of commodity index `c` (position in the problem's commodity
    /// list) on `link`.
    pub fn commodity_flow(&self, c: usize, link: LinkId) -> f64 {
        self.flows[c * self.link_count + link.index()]
    }

    /// The full per-link flow vector of commodity index `c`.
    pub fn commodity_flows(&self, c: usize) -> &[f64] {
        &self.flows[c * self.link_count..(c + 1) * self.link_count]
    }

    /// The aggregate load on `link` over all commodities.
    pub fn edge_load(&self, link: LinkId) -> f64 {
        self.loads[link.index()]
    }

    /// Aggregate loads on all links, maintained by the solve loop (no
    /// recomputation).
    pub fn total_loads(&self) -> &[f64] {
        &self.loads
    }

    /// The objective value under a cost function (no capacity penalty).
    pub fn total_cost(&self, cost: &impl FlowCost) -> f64 {
        self.loads
            .iter()
            .enumerate()
            .map(|(e, &x)| cost.cost(LinkId(e), x))
            .sum()
    }

    /// Net out-flow minus in-flow of commodity `c` at `node` — used to check
    /// flow conservation.
    pub fn net_outflow(&self, network: &Network, c: usize, node: NodeId) -> f64 {
        let outgoing: f64 = network
            .out_links(node)
            .iter()
            .map(|&l| self.commodity_flow(c, l))
            .sum();
        let incoming: f64 = network
            .in_links(node)
            .iter()
            .map(|&l| self.commodity_flow(c, l))
            .sum();
        outgoing - incoming
    }
}

/// Accumulates the per-link column sums of the flat row-major flow matrix
/// into `out`, visiting only `active` columns (rows in commodity order,
/// preserving the historical per-link summation order bit-for-bit; the
/// skipped columns are exactly zero in every row).
fn column_sums_over(rows: &[f64], m: usize, active: &[LinkId], out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 {
        return;
    }
    for row in rows.chunks_exact(m) {
        for &l in active {
            out[l.index()] += row[l.index()];
        }
    }
}

/// Minimises a unimodal function on `[lo, hi]` by golden-section search.
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
    // Also consider the endpoints explicitly; the objective may be monotone.
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{builders, NodeKind};

    fn quadratic_cost() -> PowerFlowCost {
        PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 2.0, 1e9))
    }

    fn tight_config() -> FmcfSolverConfig {
        FmcfSolverConfig {
            max_iterations: 400,
            tolerance: 1e-7,
            ..Default::default()
        }
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let min = golden_section_min(|x| (x - 0.3).powi(2), 0.0, 1.0, 60);
        assert!((min - 0.3).abs() < 1e-6);
        // Monotone decreasing function: minimum at the right endpoint.
        let min = golden_section_min(|x| -x, 0.0, 1.0, 60);
        assert!((min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_commodity_splits_evenly_over_parallel_links() {
        // With cost x^2, routing demand d over k identical parallel links is
        // optimal when split evenly: cost k * (d/k)^2 = d^2 / k.
        let t = builders::parallel(4, 100.0);
        let problem = FmcfProblem::new(
            &t.network,
            vec![Commodity {
                id: 0,
                src: t.source(),
                dst: t.sink(),
                demand: 8.0,
            }],
        );
        let sol = problem.solve(&quadratic_cost(), &tight_config());
        let cost = sol.total_cost(&quadratic_cost());
        assert!(
            close(cost, 8.0 * 8.0 / 4.0, 0.02),
            "cost {cost} should approach the even split optimum 16"
        );
        // Each forward link should carry roughly 2 units.
        let mut carried = 0.0;
        for l in t.network.find_links(t.source(), t.sink()) {
            let x = sol.edge_load(l);
            assert!(x < 3.0, "link load {x} too concentrated");
            carried += x;
        }
        assert!(close(carried, 8.0, 1e-6));
    }

    #[test]
    fn flow_conservation_holds_at_every_node() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let commodities = vec![
            Commodity {
                id: 0,
                src: hosts[0],
                dst: hosts[10],
                demand: 3.0,
            },
            Commodity {
                id: 1,
                src: hosts[3],
                dst: hosts[12],
                demand: 1.5,
            },
            Commodity {
                id: 2,
                src: hosts[5],
                dst: hosts[1],
                demand: 2.0,
            },
        ];
        let problem = FmcfProblem::new(&t.network, commodities.clone());
        let sol = problem.solve(&quadratic_cost(), &tight_config());
        for (ci, c) in commodities.iter().enumerate() {
            for node in t.network.nodes() {
                let net = sol.net_outflow(&t.network, ci, node.id);
                let expected = if node.id == c.src {
                    c.demand
                } else if node.id == c.dst {
                    -c.demand
                } else {
                    0.0
                };
                assert!(
                    (net - expected).abs() < 1e-6,
                    "commodity {ci} violates conservation at {}: {net} vs {expected}",
                    node.id
                );
            }
        }
    }

    #[test]
    fn two_commodities_avoid_each_other_on_diamond() {
        // Two commodities between the same endpoints over two disjoint
        // 2-hop routes: the optimum sends them on different routes.
        let t = builders::parallel(2, 100.0);
        let problem = FmcfProblem::new(
            &t.network,
            vec![
                Commodity {
                    id: 0,
                    src: t.source(),
                    dst: t.sink(),
                    demand: 2.0,
                },
                Commodity {
                    id: 1,
                    src: t.source(),
                    dst: t.sink(),
                    demand: 2.0,
                },
            ],
        );
        let sol = problem.solve(&quadratic_cost(), &tight_config());
        // Total forward load 4 split over 2 links: 2 each, cost 8 (vs 16 if
        // they shared one link).
        let cost = sol.total_cost(&quadratic_cost());
        assert!(close(cost, 8.0, 0.02), "cost {cost} should approach 8");
    }

    #[test]
    fn fractional_cost_is_below_any_single_path_cost() {
        // The relaxation must lower-bound the best single-path routing.
        let t = builders::parallel(3, 100.0);
        let demand = 6.0;
        let problem = FmcfProblem::new(
            &t.network,
            vec![Commodity {
                id: 0,
                src: t.source(),
                dst: t.sink(),
                demand,
            }],
        );
        let cost_fn = quadratic_cost();
        let sol = problem.solve(&cost_fn, &tight_config());
        let single_path_cost = demand * demand; // all on one link
        assert!(sol.total_cost(&cost_fn) <= single_path_cost + 1e-6);
    }

    #[test]
    fn capacity_penalty_spreads_load() {
        let t = builders::parallel(2, 2.0);
        let problem = FmcfProblem::new(
            &t.network,
            vec![Commodity {
                id: 0,
                src: t.source(),
                dst: t.sink(),
                demand: 4.0,
            }],
        );
        // Nearly linear cost => without capacities a single path would be fine.
        let cost = PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 1.01, 10.0));
        let config = FmcfSolverConfig {
            capacity: Some(2.0),
            ..Default::default()
        };
        let sol = problem.solve(&cost, &config);
        for l in t.network.find_links(t.source(), t.sink()) {
            assert!(
                sol.edge_load(l) <= 2.0 + 0.05,
                "load {} exceeds capacity",
                sol.edge_load(l)
            );
        }
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let t = builders::line(2);
        let problem = FmcfProblem::new(&t.network, vec![]);
        let sol = problem.solve(&quadratic_cost(), &tight_config());
        assert!(sol.converged);
        assert_eq!(sol.commodity_count(), 0);
    }

    #[test]
    fn shared_graph_and_scratch_match_the_one_shot_path() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let graph = t.csr();
        let mut scratch = FmcfScratch::new();
        let cost = quadratic_cost();
        let config = tight_config();
        // Two different problems reusing one scratch must match their
        // one-shot counterparts exactly.
        for (a, b, d) in [(0usize, 10usize, 3.0), (5, 1, 2.0), (2, 14, 1.0)] {
            let commodities = vec![Commodity {
                id: 0,
                src: hosts[a],
                dst: hosts[b],
                demand: d,
            }];
            let shared = FmcfProblem::with_graph(&graph, commodities.clone()).solve_with(
                &cost,
                &config,
                &mut scratch,
            );
            let one_shot = FmcfProblem::new(&t.network, commodities).solve(&cost, &config);
            assert_eq!(shared, one_shot);
        }
    }

    #[test]
    fn total_loads_is_consistent_with_commodity_flows() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let problem = FmcfProblem::new(
            &t.network,
            vec![
                Commodity {
                    id: 0,
                    src: hosts[0],
                    dst: hosts[9],
                    demand: 2.0,
                },
                Commodity {
                    id: 1,
                    src: hosts[0],
                    dst: hosts[12],
                    demand: 1.0,
                },
            ],
        );
        let sol = problem.solve(&quadratic_cost(), &tight_config());
        let loads = sol.total_loads();
        assert_eq!(loads.len(), t.network.link_count());
        for (e, &load) in loads.iter().enumerate() {
            let expected: f64 = (0..sol.commodity_count())
                .map(|c| sol.commodity_flow(c, LinkId(e)))
                .sum();
            assert!((load - expected).abs() < 1e-12);
            assert_eq!(load, sol.edge_load(LinkId(e)));
        }
    }

    #[test]
    #[should_panic(expected = "non-positive demand")]
    fn zero_demand_rejected() {
        let t = builders::line(2);
        FmcfProblem::new(
            &t.network,
            vec![Commodity {
                id: 0,
                src: t.hosts()[0],
                dst: t.hosts()[1],
                demand: 0.0,
            }],
        );
    }

    #[test]
    fn warm_shortcut_returns_the_cold_solution_bit_for_bit() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let graph = t.csr();
        let cost = quadratic_cost();
        let config = FmcfSolverConfig::default();
        let commodities = vec![
            Commodity {
                id: 0,
                src: hosts[0],
                dst: hosts[10],
                demand: 3.0,
            },
            Commodity {
                id: 7,
                src: hosts[3],
                dst: hosts[12],
                demand: 1.5,
            },
        ];
        let cold = FmcfProblem::with_graph(&graph, commodities.clone()).solve_with(
            &cost,
            &config,
            &mut FmcfScratch::new(),
        );
        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        let problem = FmcfProblem::with_graph(&graph, commodities);
        let first = problem.solve_with(&cost, &config, &mut scratch);
        let second = problem.solve_with(&cost, &config, &mut scratch);
        assert_eq!(first, cold, "warm-enabled first solve must stay cold");
        assert_eq!(second, cold, "warm re-solve must return the cache verbatim");
    }

    #[test]
    fn dirty_links_disable_the_shortcut_but_not_correctness() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let graph = t.csr();
        let cost = quadratic_cost();
        let config = tight_config();
        let commodities = vec![Commodity {
            id: 3,
            src: hosts[0],
            dst: hosts[10],
            demand: 2.0,
        }];
        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        let problem = FmcfProblem::with_graph(&graph, commodities);
        let first = problem.solve_with(&cost, &config, &mut scratch);
        // Dirty every link the solution uses: the commodity is re-routed
        // fresh, which for a single commodity lands on the same optimum.
        let used: Vec<LinkId> = (0..graph.link_count())
            .map(LinkId)
            .filter(|&l| first.edge_load(l) != 0.0)
            .collect();
        scratch.mark_dirty_links(used);
        let resolved = problem.solve_with(&cost, &config, &mut scratch);
        assert!(resolved.iterations >= 1, "shortcut must not fire");
        assert!(close(
            resolved.total_cost(&cost),
            first.total_cost(&cost),
            1e-6
        ));
        // The dirty set was consumed: the next re-solve shortcuts again.
        let third = problem.solve_with(&cost, &config, &mut scratch);
        assert_eq!(third, resolved);
    }

    #[test]
    fn seeded_resolve_conserves_flow_and_matches_the_cold_objective() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let graph = t.csr();
        let cost = quadratic_cost();
        let config = tight_config();
        let base = vec![
            Commodity {
                id: 0,
                src: hosts[0],
                dst: hosts[10],
                demand: 3.0,
            },
            Commodity {
                id: 1,
                src: hosts[3],
                dst: hosts[12],
                demand: 1.5,
            },
        ];
        let mut grown = base.clone();
        grown.push(Commodity {
            id: 2,
            src: hosts[5],
            dst: hosts[1],
            demand: 2.0,
        });

        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        FmcfProblem::with_graph(&graph, base).solve_with(&cost, &config, &mut scratch);
        let warm =
            FmcfProblem::with_graph(&graph, grown.clone()).solve_with(&cost, &config, &mut scratch);
        let cold = FmcfProblem::with_graph(&graph, grown.clone()).solve_with(
            &cost,
            &config,
            &mut FmcfScratch::new(),
        );

        // The seeded start is a different (better) initial point, so the
        // converged matrices differ in the low bits — but conservation is
        // exact and the objectives agree to solver tolerance.
        for (ci, c) in grown.iter().enumerate() {
            for node in t.network.nodes() {
                let net = warm.net_outflow(&t.network, ci, node.id);
                let expected = if node.id == c.src {
                    c.demand
                } else if node.id == c.dst {
                    -c.demand
                } else {
                    0.0
                };
                assert!(
                    (net - expected).abs() < 1e-6,
                    "warm-seeded commodity {ci} violates conservation at {}",
                    node.id
                );
            }
        }
        assert!(
            close(warm.total_cost(&cost), cold.total_cost(&cost), 1e-3),
            "warm {} vs cold {}",
            warm.total_cost(&cost),
            cold.total_cost(&cost)
        );
    }

    #[test]
    fn disabling_warm_start_drops_the_cache() {
        let t = builders::parallel(2, 100.0);
        let graph = t.csr();
        let cost = quadratic_cost();
        let config = tight_config();
        let commodities = vec![Commodity {
            id: 0,
            src: t.source(),
            dst: t.sink(),
            demand: 4.0,
        }];
        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        let problem = FmcfProblem::with_graph(&graph, commodities);
        problem.solve_with(&cost, &config, &mut scratch);
        scratch.set_warm_start(false);
        assert!(!scratch.warm_start());
        // Cold again: must match a fresh scratch bit-for-bit.
        let after = problem.solve_with(&cost, &config, &mut scratch);
        let fresh = problem.solve_with(&cost, &config, &mut FmcfScratch::new());
        assert_eq!(after, fresh);
    }

    /// The start point alone: zero iterations return the ECMP split.
    fn start_of(problem: &FmcfProblem<'_>, scratch: &mut FmcfScratch) -> FmcfSolution {
        let config = FmcfSolverConfig {
            max_iterations: 0,
            ..Default::default()
        };
        problem.solve_with(&quadratic_cost(), &config, scratch)
    }

    /// Asserts per-commodity conservation at every node of `graph`, to
    /// `tolerance` relative to the demand.
    fn assert_conserves(
        graph: &GraphCsr,
        sol: &FmcfSolution,
        commodities: &[Commodity],
        tolerance: f64,
    ) {
        for (ci, c) in commodities.iter().enumerate() {
            for v in (0..graph.node_count()).map(NodeId) {
                let out: f64 = graph
                    .out_links(v)
                    .iter()
                    .map(|&l| sol.commodity_flow(ci, l))
                    .sum();
                let into: f64 = graph
                    .in_links(v)
                    .iter()
                    .map(|&l| sol.commodity_flow(ci, l))
                    .sum();
                let expected = if v == c.src {
                    c.demand
                } else if v == c.dst {
                    -c.demand
                } else {
                    0.0
                };
                assert!(
                    (out - into - expected).abs() <= tolerance * c.demand,
                    "commodity {ci} violates conservation at {v}: {} vs {expected}",
                    out - into
                );
            }
        }
    }

    /// A deterministic spread of host pairs with uneven demands.
    fn host_pairs(hosts: &[NodeId], count: usize) -> Vec<Commodity> {
        (0..count)
            .map(|id| Commodity {
                id,
                src: hosts[(id * 7) % hosts.len()],
                dst: hosts[(id * 7 + 1 + id * 3) % hosts.len()],
                demand: 0.5 + (id % 5) as f64 * 0.7,
            })
            .filter(|c| c.src != c.dst)
            .collect()
    }

    #[test]
    fn ecmp_start_conserves_every_commodity_at_every_node() {
        for topo in [
            builders::fat_tree(4),
            builders::fat_tree(6),
            builders::bcube(3, 1),
            builders::leaf_spine(4, 3, 4),
            builders::parallel(3, 10.0),
            builders::line(4),
        ] {
            let graph = topo.csr();
            let commodities = host_pairs(topo.hosts(), 14);
            let problem = FmcfProblem::with_graph(&graph, commodities.clone());
            let start = start_of(&problem, &mut FmcfScratch::new());
            assert_eq!(start.iterations, 0);
            assert_conserves(&graph, &start, &commodities, 1e-12);
        }
    }

    #[test]
    fn fat_tree_start_splits_equally_over_every_shortest_path() {
        for k in [4usize, 8] {
            let half = k / 2;
            let t = builders::fat_tree(k);
            let hosts = t.hosts();
            let graph = t.csr();
            let kind = |v: NodeId| t.network.node(v).kind;
            let demand = 3.0;
            // (destination, loaded links, loaded links touching a core
            // switch, flow on every link between switches).
            let cases = [
                // Another pod: (k/2)^2 core paths.
                (
                    hosts[hosts.len() - 1],
                    2 + 2 * half + 2 * half * half,
                    2 * half * half,
                    None,
                ),
                // Same pod, another edge switch: k/2 aggregation paths.
                (hosts[half], 2 + 2 * half, 0, Some(demand / half as f64)),
                // Same edge switch: the one two-hop path.
                (hosts[1], 2, 0, None),
            ];
            for (dst, loaded, through_core, fabric_flow) in cases {
                let commodity = Commodity {
                    id: 0,
                    src: hosts[0],
                    dst,
                    demand,
                };
                let problem = FmcfProblem::with_graph(&graph, vec![commodity]);
                let start = start_of(&problem, &mut FmcfScratch::new());
                let used: Vec<LinkId> = (0..graph.link_count())
                    .map(LinkId)
                    .filter(|&l| start.commodity_flow(0, l) != 0.0)
                    .collect();
                assert_eq!(used.len(), loaded, "k={k} to {dst}");
                let core: Vec<LinkId> = used
                    .iter()
                    .copied()
                    .filter(|&l| {
                        kind(graph.link_src(l)) == NodeKind::CoreSwitch
                            || kind(graph.link_dst(l)) == NodeKind::CoreSwitch
                    })
                    .collect();
                assert_eq!(core.len(), through_core, "k={k} to {dst}");
                for &l in &core {
                    assert_eq!(
                        start.commodity_flow(0, l),
                        demand / (half * half) as f64,
                        "k={k}: every core path carries d/(k/2)^2"
                    );
                }
                for &l in &used {
                    let on_host =
                        kind(graph.link_src(l)).is_host() || kind(graph.link_dst(l)).is_host();
                    if on_host {
                        assert_eq!(start.commodity_flow(0, l), demand);
                    } else if let Some(expected) = fabric_flow {
                        assert_eq!(start.commodity_flow(0, l), expected, "k={k} to {dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_links_share_the_start_equally() {
        let t = builders::parallel(4, 100.0);
        let graph = t.csr();
        let problem = FmcfProblem::with_graph(
            &graph,
            vec![Commodity {
                id: 0,
                src: t.source(),
                dst: t.sink(),
                demand: 6.0,
            }],
        );
        let start = start_of(&problem, &mut FmcfScratch::new());
        let forward: Vec<LinkId> = graph.links_between(t.source(), t.sink()).collect();
        assert_eq!(forward.len(), 4);
        for l in forward {
            assert_eq!(start.commodity_flow(0, l), 1.5);
        }
    }

    /// ECMP is optimal on the symmetric fat-tree, as an executable oracle:
    /// at the start every used path already has the minimal marginal cost,
    /// so the Frank–Wolfe gap `sum_e w_e (x_e - s_e)` is zero up to
    /// rounding and the first iteration stops.
    #[test]
    fn ecmp_start_has_zero_frank_wolfe_gap_on_the_symmetric_fat_tree() {
        for k in [4usize, 8] {
            let t = builders::fat_tree(k);
            let graph = t.csr();
            let commodities = host_pairs(t.hosts(), 24);
            let problem = FmcfProblem::with_graph(&graph, commodities.clone());
            for (alpha, sigma) in [(2.0, 0.0), (4.0, 0.0), (2.0, 3.0), (4.0, 3.0)] {
                let cost = PowerFlowCost::new(PowerFunction::new(sigma, 1.0, alpha, 10.0).unwrap());
                // Capacity 1 is below most link loads, so the quadratic
                // penalty is active; no capacity switches it off.
                for capacity in [None, Some(1.0)] {
                    let config = FmcfSolverConfig {
                        capacity,
                        ..Default::default()
                    };
                    let mut scratch = FmcfScratch::new();
                    let start = start_of(&problem, &mut scratch);
                    let loads = start.total_loads();
                    if capacity.is_some() {
                        assert!(loads.iter().any(|&x| x > 1.5), "the penalty must be active");
                    }
                    let weights: Vec<f64> = loads
                        .iter()
                        .enumerate()
                        .map(|(e, &x)| {
                            cost.marginal(LinkId(e), x) + problem.penalty_marginal(x, &config)
                        })
                        .collect();
                    let at_start: f64 = weights.iter().zip(loads).map(|(w, x)| w * x).sum();
                    let mut engine = ShortestPathEngine::new();
                    let all_or_nothing: f64 = commodities
                        .iter()
                        .map(|c| {
                            let path = engine
                                .shortest_path(&graph, c.src, c.dst, |l| weights[l.index()])
                                .unwrap();
                            c.demand * path.weight(|l| weights[l.index()])
                        })
                        .sum();
                    let objective: f64 = loads
                        .iter()
                        .enumerate()
                        .map(|(e, &x)| cost.cost(LinkId(e), x) + problem.penalty(x, &config))
                        .sum();
                    let gap = at_start - all_or_nothing;
                    assert!(
                        gap.abs() <= 1e-12 * objective,
                        "k={k} alpha={alpha} sigma={sigma} capacity={capacity:?}: \
                         gap {gap} at objective {objective}"
                    );

                    let solved = problem.solve_with(&cost, &config, &mut scratch);
                    assert_eq!(solved.iterations, 1);
                    assert!(solved.converged);
                }
            }
        }
    }

    #[test]
    fn start_avoids_a_failed_link_and_follows_the_graph_epoch() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let mut graph = t.csr();
        let commodities = vec![
            Commodity {
                id: 0,
                src: hosts[0],
                dst: hosts[15],
                demand: 2.0,
            },
            Commodity {
                id: 1,
                src: hosts[1],
                dst: hosts[9],
                demand: 1.0,
            },
        ];
        let mut scratch = FmcfScratch::new();
        let pristine = start_of(
            &FmcfProblem::with_graph(&graph, commodities.clone()),
            &mut scratch,
        );

        // Fail an aggregation-to-core link the first commodity's split uses.
        let victim = (0..graph.link_count())
            .map(LinkId)
            .find(|&l| {
                pristine.commodity_flow(0, l) != 0.0
                    && t.network.node(graph.link_dst(l)).kind == NodeKind::CoreSwitch
            })
            .unwrap();
        graph.fail_link(victim);
        let problem = FmcfProblem::with_graph(&graph, commodities.clone());
        // The scratch's splits were computed on the previous graph state:
        // they must not be served again.
        let degraded = start_of(&problem, &mut scratch);
        assert_eq!(degraded.edge_load(victim), 0.0);
        assert_ne!(degraded, pristine);
        assert_conserves(&graph, &degraded, &commodities, 1e-12);
        assert_eq!(degraded, start_of(&problem, &mut FmcfScratch::new()));

        graph.restore_link(victim);
        let problem = FmcfProblem::with_graph(&graph, commodities);
        assert_eq!(start_of(&problem, &mut scratch), pristine);
    }

    #[test]
    fn start_does_not_depend_on_what_the_scratch_solved_before() {
        let t = builders::fat_tree(4);
        let graph = t.csr();
        let all = host_pairs(t.hosts(), 20);
        let mut scratch = FmcfScratch::new();
        // Another problem first: its pairs fill the split cache, grouped
        // under other sources than the second problem's.
        start_of(
            &FmcfProblem::with_graph(&graph, all[..12].to_vec()),
            &mut scratch,
        );
        let problem = FmcfProblem::with_graph(&graph, all[6..].to_vec());
        assert_eq!(
            start_of(&problem, &mut scratch),
            start_of(&problem, &mut FmcfScratch::new())
        );
    }

    #[test]
    fn a_full_split_cache_is_dropped_and_refilled() {
        let t = builders::fat_tree(4);
        let graph = t.csr();
        let problem = FmcfProblem::with_graph(&graph, host_pairs(t.hosts(), 10));
        let mut scratch = FmcfScratch::new();
        let first = start_of(&problem, &mut scratch);
        let filled = scratch.splits.shares.len();
        assert!(filled > 0);
        scratch
            .splits
            .shares
            .resize(SplitCache::MAX_SHARES + 1, (LinkId(0), 0.0));
        assert_eq!(start_of(&problem, &mut scratch), first);
        assert_eq!(scratch.splits.shares.len(), filled);
    }

    #[test]
    fn warm_seeded_resolve_on_a_degraded_fat_tree_conserves_flow() {
        // With a link down the cached rows and the ECMP split of a
        // commodity need not cover the same links: a warm seed must
        // replace the whole initial row, not a part of it.
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let mut graph = t.csr();
        let up = graph
            .shortest_path(hosts[0], hosts[15])
            .unwrap()
            .links()
            .to_vec();
        graph.fail_link(up[2]);
        let cost = quadratic_cost();
        let config = FmcfSolverConfig::default();
        let base: Vec<Commodity> = [(0usize, 15usize, 3.0), (1, 14, 1.5), (2, 9, 2.5)]
            .iter()
            .enumerate()
            .map(|(id, &(a, b, demand))| Commodity {
                id,
                src: hosts[a],
                dst: hosts[b],
                demand,
            })
            .collect();
        let mut grown = base.clone();
        grown[1].demand = 2.25;
        grown.push(Commodity {
            id: 3,
            src: hosts[3],
            dst: hosts[12],
            demand: 2.0,
        });

        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        FmcfProblem::with_graph(&graph, base).solve_with(&cost, &config, &mut scratch);
        let warm =
            FmcfProblem::with_graph(&graph, grown.clone()).solve_with(&cost, &config, &mut scratch);
        assert_eq!(warm.edge_load(up[2]), 0.0);
        assert_conserves(&graph, &warm, &grown, 1e-9);
    }

    #[test]
    fn power_flow_cost_includes_idle_share() {
        let f = PowerFunction::new(10.0, 1.0, 2.0, 5.0).unwrap();
        let cost = PowerFlowCost::new(f);
        // cost(x) = x^2 + (10/5) x = x^2 + 2x
        assert!(close(cost.cost(LinkId(0), 3.0), 9.0 + 6.0, 1e-12));
        assert!(close(cost.marginal(LinkId(0), 3.0), 6.0 + 2.0, 1e-12));
        assert_eq!(cost.cost(LinkId(0), 0.0), 0.0);
    }
}
