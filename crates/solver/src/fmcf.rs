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
//! # Stopping on the gap
//!
//! The all-or-nothing assignment `s` minimises the linearisation of the
//! objective `F` at the iterate `x`, so the gap `g = ∇F(x)·(x − s)` bounds
//! `F(x) − F*` from above on any graph, and both sums are at hand right
//! after the shortest-path step: when `g <= tolerance · |F(x)|` the solve
//! is converged and the line search is not run.
//!
//! # The iterate is a path mixture
//!
//! A Frank–Wolfe iterate is `β · start + Σ_t c_t · (path of step t)` per
//! commodity — the distribution over paths Random-Schedule rounds from
//! (Algorithm 2, lines 4–7) — and the solver keeps it in that form: the
//! loop carries the aggregate link loads, the coefficients and the step
//! paths, and a commodity's start is a shared handle to its pair's cached
//! unit split. No per-commodity, per-link matrix exists on the solve
//! path; [`FmcfSolution::commodity_flows`] builds one on demand.
//!
//! # Hot-path layout
//!
//! The solver runs on the flat [`GraphCsr`] view and keeps every
//! per-iteration buffer in a reusable [`FmcfScratch`]:
//!
//! * the start and the all-or-nothing step group commodities by source and
//!   run **one** multi-target Dijkstra per distinct source (not per
//!   commodity) through the arena-reuse [`ShortestPathEngine`];
//! * chosen paths are stored as spans into one shared link buffer, and
//!   blending is one pass over the loaded links;
//! * with a cost whose zero-load marginal is the same on every link
//!   ([`FlowCost::uniform_zero_load_marginal`]) the link weights are
//!   refreshed on the loaded links only: every other link keeps the
//!   zero-load weight, which the scratch restores on the links an earlier
//!   solve loaded rather than refilling all of them;
//! * after the first iteration has warmed the arenas up, a Frank–Wolfe
//!   iteration performs **zero heap allocations**; the step paths become
//!   [`Path`]s once, when the solve ends.
//!
//! Callers solving many problems on one network (the per-interval
//! relaxation) should build one [`GraphCsr`], construct problems with
//! [`FmcfProblem::with_graph`] and pass one scratch to
//! [`FmcfProblem::solve_with`]; [`FmcfProblem::new`] and
//! [`FmcfProblem::solve`] remain as one-shot conveniences.

use crate::decompose::{decompose_flow_with, DecomposeScratch, WeightedPath};
use dcn_power::PowerFunction;
use dcn_topology::{GraphCsr, LinkId, Network, NodeId, Path, ShortestPathEngine};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

    /// The marginal cost at zero load when it is the same on every link:
    /// `marginal(link, 0.0)` must return exactly these bits for **every**
    /// link.
    ///
    /// With it and [`FlowCost::zero_load_is_free`], the Frank–Wolfe solver
    /// refreshes the link weights of an iteration on the loaded links
    /// only; every other link keeps the weight at zero load. The
    /// conservative default keeps the dense refresh.
    fn uniform_zero_load_marginal(&self) -> Option<f64> {
        None
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

    fn uniform_zero_load_marginal(&self) -> Option<f64> {
        Some(self.marginal(LinkId(0), 0.0))
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

impl FmcfSolverConfig {
    /// A coarser configuration than the default (25 iterations, tolerance
    /// `1e-3`, 24 line-search steps): the benchmark harness relaxes with it
    /// so the fat-tree(8) sweeps finish in minutes, keeping the lower bound
    /// within a couple of percent of the converged value, and `dcn-server`
    /// probes `reject-infeasible` admissions with it.
    pub fn coarse() -> Self {
        Self {
            max_iterations: 25,
            tolerance: 1e-3,
            line_search_steps: 24,
            ..Self::default()
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

/// The error of a solve: a commodity whose destination cannot be reached
/// from its source on the problem's graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected {
    /// The [`Commodity::id`] of the commodity without a path.
    pub commodity: usize,
}

impl fmt::Display for Disconnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "commodity {} has no path in the network", self.commodity)
    }
}

impl std::error::Error for Disconnected {}

/// The share of a demand below which a mixture entry is not carried (and
/// the residual at which the decomposition of a *unit* split stops):
/// thresholds on the solve path are relative to the demand, so a
/// commodity's routing does not depend on how small its demand is.
const NEGLIGIBLE: f64 = 1e-12;

/// One commodity's fractional routing in the form Frank–Wolfe builds it:
/// a multiple of its pair's unit split plus explicit step paths.
#[derive(Debug, Clone, PartialEq)]
struct Mixture {
    /// The pair's cached unit split — shared with the cache and with every
    /// other solution on the pair — and the flow per unit of it.
    split: Option<(Arc<[WeightedPath]>, f64)>,
    /// All-or-nothing paths, distinct, with the flow on each.
    steps: Vec<WeightedPath>,
}

impl Mixture {
    /// Every path with the flow it carries: the split's in cache order,
    /// then the steps in the order Frank–Wolfe first chose them.
    fn paths(&self) -> impl Iterator<Item = (&Path, f64)> + '_ {
        let split = self.split.iter().flat_map(|(paths, flow)| {
            paths
                .iter()
                .map(move |part| (&part.path, part.weight * flow))
        });
        split.chain(self.steps.iter().map(|part| (&part.path, part.weight)))
    }

    fn scale(&mut self, factor: f64) {
        if let Some((_, flow)) = &mut self.split {
            *flow *= factor;
        }
        for part in &mut self.steps {
            part.weight *= factor;
        }
    }

    /// Adds the mixture's flow to a link-indexed vector.
    fn add_to(&self, out: &mut [f64]) {
        for (path, flow) in self.paths() {
            for &l in path.links() {
                out[l.index()] += flow;
            }
        }
    }

    /// Drops the split and every step carrying under [`NEGLIGIBLE`] of
    /// `demand`, and rescales what is left to the demand.
    fn prune(&mut self, demand: f64) {
        let floor = NEGLIGIBLE * demand;
        let entries = self.steps.len() + usize::from(self.split.is_some());
        self.split.take_if(|(_, flow)| *flow < floor);
        self.steps.retain(|part| part.weight >= floor);
        if self.steps.len() + usize::from(self.split.is_some()) < entries {
            let kept: f64 = self.paths().map(|(_, flow)| flow).sum();
            self.scale(demand / kept);
        }
    }
}

/// A converged solution cached by a warm-start-enabled scratch, together
/// with the fingerprint of the problem that produced it.
#[derive(Debug, Clone)]
struct WarmEntry {
    /// Per-commodity `(id, src, dst, demand bits)` of the cached problem.
    keys: Vec<(usize, usize, usize, u64)>,
    /// The cached solve's result.
    solution: FmcfSolution,
    /// Epoch of the graph the cached solve ran on: unique per graph
    /// *instance and mutation state*, so neither a recycled allocation
    /// hosting a same-size graph nor an in-place link failure can replay a
    /// stale solution.
    graph_epoch: u64,
    /// Bit-pattern fingerprint of the solver configuration.
    config_bits: [u64; 5],
    /// Bit-pattern probe of the cost function (see [`cost_fingerprint`]).
    cost_bits: [u64; 3],
}

impl WarmEntry {
    /// Whether the cached solve ran on this graph state under this
    /// configuration and cost.
    fn matches(&self, graph: &GraphCsr, config: &FmcfSolverConfig, cost: &impl FlowCost) -> bool {
        self.graph_epoch == graph.epoch()
            && self.config_bits == config_fingerprint(config)
            && self.cost_bits == cost_fingerprint(cost)
    }
}

/// The ECMP split of a unit demand between one pair of nodes.
#[derive(Debug, Clone)]
struct UnitSplit {
    /// Per link: the `(start, len)` span into [`SplitCache::shares`].
    shares: (usize, usize),
    /// Per path: the Raghavan–Tompson decomposition of those shares, so
    /// paths come in the order, and at the relative weights, a
    /// decomposition of any multiple of the split yields.
    paths: Arc<[WeightedPath]>,
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
    pairs: HashMap<(NodeId, NodeId), UnitSplit>,
    /// Concatenated `(link, share of a unit demand)` lists, each in the
    /// order the backward pass wrote it.
    shares: Vec<(LinkId, f64)>,
    /// Links held by the cached paths.
    path_links: usize,
}

impl SplitCache {
    /// Link shares and path links kept before the cache is dropped and
    /// refilled (16 MB of shares); the distinct pairs of a long online run
    /// on a large fabric would otherwise grow it without bound.
    const MAX_SHARES: usize = 1 << 20;

    /// Drops every split computed on another graph state, or all of them
    /// once the cache is full. Refilling recomputes identical splits.
    fn start_solve(&mut self, graph_epoch: u64) {
        if self.graph_epoch != graph_epoch || self.shares.len() + self.path_links > Self::MAX_SHARES
        {
            self.graph_epoch = graph_epoch;
            self.pairs.clear();
            self.shares.clear();
            self.path_links = 0;
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
/// caches the last solution. A re-solve of the *identical* problem (same
/// commodities, demands, graph state, configuration and cost fingerprint,
/// and no [dirty links](FmcfScratch::mark_dirty_links) touching the cached
/// flows) returns the cached solution bit-for-bit without iterating.
/// Otherwise commodities carried over from the cached problem whose flows
/// avoid every dirty link are *seeded* with their previous path mixture
/// (scaled to the new demand) instead of the ECMP split, so Frank–Wolfe
/// starts near the old optimum and converges in fewer iterations; freshly
/// arrived or dirty-path commodities are re-routed from scratch. Warm
/// starts are off by default: the cold path is bit-for-bit identical to a
/// fresh scratch.
#[derive(Debug, Clone, Default)]
pub struct FmcfScratch {
    engine: ShortestPathEngine,
    /// Per-link weights of the current all-or-nothing step.
    weights: Vec<f64>,
    /// Bits of the weight every link outside `active` holds in `weights`
    /// (the weight at zero load) while solves refresh the active links
    /// only; `None` after a dense refresh.
    idle_weight: Option<u64>,
    /// Aggregate loads of the all-or-nothing assignment.
    target_loads: Vec<f64>,
    /// Line-search evaluation buffer.
    blended: Vec<f64>,
    /// Commodity indices grouped by source node (sorted by `(src, index)`).
    order: Vec<usize>,
    /// Concatenated per-commodity link lists of the current all-or-nothing
    /// step (before the first one: the links the start loads).
    path_links: Vec<LinkId>,
    /// Per-commodity `(start, len)` span into `path_links`.
    path_spans: Vec<(usize, usize)>,
    /// The link lists of every blended step so far, concatenated.
    step_links: Vec<LinkId>,
    /// `(start, len)` spans into `step_links`, one per commodity per step.
    step_spans: Vec<(usize, usize)>,
    /// The share of every demand each blended step carries by now.
    step_shares: Vec<f64>,
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
    /// A unit split as a link-indexed row, for its decomposition into
    /// paths (all zero between passes).
    unit_row: Vec<f64>,
    /// Buffers of that decomposition.
    decompose: DecomposeScratch,
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

    /// Clears the dirty set after a warm solve has consumed it.
    fn consume_dirty(&mut self) {
        for &l in &self.dirty {
            self.dirty_mark[l.index()] = false;
        }
        self.dirty.clear();
    }

    /// Sizes the buffers for `commodities` on `graph` and rebuilds the
    /// source-grouped commodity order.
    ///
    /// With `sparse` set, the active-link set starts empty and grows with
    /// the chosen paths; otherwise every link is active and the solver's
    /// passes stay dense. With an `idle_weight` (sparse solves only) every
    /// weight off the active set is left at it: the links the previous
    /// solve refreshed — its active set — are reset, or all of them when
    /// the previous solve left another idle weight or link count.
    fn prepare(
        &mut self,
        commodities: &[Commodity],
        graph: &GraphCsr,
        sparse: bool,
        idle_weight: Option<f64>,
    ) {
        let (n, m) = (commodities.len(), graph.link_count());
        match idle_weight {
            Some(w) if self.idle_weight == Some(w.to_bits()) && self.weights.len() == m => {
                for &l in &self.active {
                    self.weights[l.index()] = w;
                }
            }
            Some(w) => {
                self.weights.clear();
                self.weights.resize(m, w);
            }
            None => self.weights.resize(m, 0.0),
        }
        self.idle_weight = idle_weight.map(f64::to_bits);
        self.target_loads.resize(m, 0.0);
        self.blended.resize(m, 0.0);
        self.unit_row.resize(m, 0.0);
        self.node_share.resize(graph.node_count(), 0.0);
        self.node_queued.resize(graph.node_count(), false);
        self.path_spans.resize(n, (0, 0));
        self.step_links.clear();
        self.step_spans.clear();
        self.step_shares.clear();
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

    /// Adds the ECMP split of a unit demand from `src` to `dst` (a pair
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
    /// is complete when the node is reached. The path form is the
    /// decomposition of those link shares.
    fn cache_unit_split(&mut self, graph: &GraphCsr, src: NodeId, dst: NodeId) {
        let FmcfScratch {
            engine,
            splits,
            node_share,
            node_queued,
            dag_queue,
            unit_row,
            decompose,
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

        let shares = &splits.shares[start..];
        for &(l, share) in shares {
            unit_row[l.index()] = share;
        }
        let paths = decompose_flow_with(graph, src, dst, unit_row, NEGLIGIBLE, decompose);
        for &(l, _) in shares {
            unit_row[l.index()] = 0.0;
        }
        splits.path_links += paths.iter().map(|part| part.path.len()).sum::<usize>();
        let split = UnitSplit {
            shares: (start, shares.len()),
            paths: paths.into(),
        };
        splits.pairs.insert((src, dst), split);
    }

    /// Adds every link of `path_links` to the active set, keeping it
    /// sorted (ascending link id, the summation order of the dense
    /// passes).
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

/// The fractional solution: the aggregate per-link loads and, per
/// commodity, the weighted paths that carry its demand.
#[derive(Debug, Clone)]
pub struct FmcfSolution {
    /// Aggregate per-link loads: the per-link sum of `mixtures`.
    loads: Vec<f64>,
    /// Per commodity, its demand as a path mixture.
    mixtures: Vec<Mixture>,
    /// Number of Frank–Wolfe iterations performed.
    pub iterations: usize,
    /// Whether a stopping criterion (the gap, or the relative-improvement
    /// stall test) was reached before the iteration limit.
    pub converged: bool,
    /// The Frank–Wolfe gap over `|F(x)|` at the last iterate it was
    /// evaluated at — the final one when the solve stopped on it, else the
    /// one before the last blend; `F` never rises, so the final objective
    /// times `1 - relative_gap` bounds the optimum from below either way.
    /// Infinite when no iteration ran.
    pub relative_gap: f64,
    /// The mixtures as a `commodities x links` row-major matrix, built on
    /// first use by the per-link accessors.
    dense: OnceLock<Vec<f64>>,
}

/// Equality of what was solved, whether or not the dense view was built.
impl PartialEq for FmcfSolution {
    fn eq(&self, other: &Self) -> bool {
        self.loads == other.loads
            && self.mixtures == other.mixtures
            && self.iterations == other.iterations
            && self.converged == other.converged
            && self.relative_gap == other.relative_gap
    }
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
    /// recording the chosen paths as spans in `scratch`.
    fn all_or_nothing(&self, scratch: &mut FmcfScratch) -> Result<(), Disconnected> {
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
                let Commodity { id, dst, .. } = self.commodities[c];
                if !engine.settled(dst) {
                    return Err(Disconnected { commodity: id });
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
        Ok(())
    }

    /// Makes sure the split cache holds the ECMP split of every
    /// commodity's pair on the current graph state.
    ///
    /// The split of a unit demand depends on the graph state and the
    /// endpoints alone, so it is computed once per `(src, dst)` and graph
    /// epoch ([`SplitCache`]) — one unit-weight search per distinct source
    /// with a pair still missing — and every start is the cached split
    /// scaled by the demand: a warmed-up, a fresh and a per-worker scratch
    /// start at the same bits.
    fn cache_splits(&self, scratch: &mut FmcfScratch) -> Result<(), Disconnected> {
        let graph = self.graph.get();
        scratch.splits.start_solve(graph.epoch());

        let mut i = 0;
        while i < scratch.order.len() {
            let src = self.commodities[scratch.order[i]].src;
            let mut j = i;
            scratch.targets.clear();
            while j < scratch.order.len() && self.commodities[scratch.order[j]].src == src {
                let dst = self.commodities[scratch.order[j]].dst;
                if !scratch.splits.pairs.contains_key(&(src, dst))
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
                for &c in &scratch.order[i..j] {
                    let Commodity { id, dst, .. } = self.commodities[c];
                    if scratch.targets.contains(&dst) && !scratch.engine.settled(dst) {
                        return Err(Disconnected { commodity: id });
                    }
                }
                for t in 0..scratch.targets.len() {
                    scratch.cache_unit_split(graph, src, scratch.targets[t]);
                }
            }
            i = j;
        }
        Ok(())
    }

    /// The initial feasible point, accumulated into `loads` (all zero on
    /// entry) with its links registered as active: every commodity at the
    /// ECMP split of its pair or, under warm starts, at its mixture in the
    /// cached solution scaled to the new demand — unless the commodity is
    /// new, changed endpoints, or its cached flow touches a dirty link.
    fn start(
        &self,
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
        scratch: &mut FmcfScratch,
        loads: &mut [f64],
    ) -> Result<Vec<Mixture>, Disconnected> {
        self.cache_splits(scratch)?;
        let FmcfScratch {
            splits,
            path_links,
            warm,
            dirty,
            dirty_mark,
            ..
        } = &mut *scratch;
        let cached = warm
            .as_ref()
            .filter(|entry| entry.matches(self.graph.get(), config, cost));
        let rows: HashMap<usize, usize> = cached
            .iter()
            .flat_map(|entry| entry.keys.iter().enumerate().map(|(row, key)| (key.0, row)))
            .collect();
        let is_dirty = |l: &LinkId| dirty_mark.get(l.index()).copied().unwrap_or(false);

        path_links.clear();
        let mut mixtures = Vec::with_capacity(self.commodities.len());
        for commodity in &self.commodities {
            let seed = cached.and_then(|entry| {
                let row = *rows.get(&commodity.id)?;
                let (_, src, dst, demand_bits) = entry.keys[row];
                let old = &entry.solution.mixtures[row];
                let carried = src == commodity.src.index()
                    && dst == commodity.dst.index()
                    && (dirty.is_empty()
                        || !old
                            .paths()
                            .any(|(path, _)| path.links().iter().any(is_dirty)));
                // Scaling a routing of the old demand preserves
                // conservation at the new one.
                carried.then(|| {
                    let mut seed = old.clone();
                    seed.scale(commodity.demand / f64::from_bits(demand_bits));
                    seed
                })
            });
            let mixture = match seed {
                Some(seed) => {
                    seed.add_to(loads);
                    path_links.extend(seed.paths().flat_map(|(path, _)| path.links()));
                    seed
                }
                None => {
                    let split = &splits.pairs[&(commodity.src, commodity.dst)];
                    let (start, len) = split.shares;
                    for &(l, share) in &splits.shares[start..start + len] {
                        loads[l.index()] += commodity.demand * share;
                        path_links.push(l);
                    }
                    Mixture {
                        split: Some((split.paths.clone(), commodity.demand)),
                        steps: Vec::new(),
                    }
                }
            };
            mixtures.push(mixture);
        }
        scratch.register_active_paths();
        Ok(mixtures)
    }

    /// Solves the problem with Frank–Wolfe under the given convex cost,
    /// using a fresh scratch (one-shot convenience for
    /// [`FmcfProblem::solve_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] if some commodity's destination is
    /// unreachable from its source.
    pub fn solve(
        &self,
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
    ) -> Result<FmcfSolution, Disconnected> {
        self.solve_with(cost, config, &mut FmcfScratch::new())
    }

    /// Solves the problem with Frank–Wolfe, reusing the caller's scratch
    /// buffers; after the scratch has warmed up, each Frank–Wolfe
    /// iteration is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] if some commodity's destination is
    /// unreachable from its source.
    pub fn solve_with(
        &self,
        cost: &impl FlowCost,
        config: &FmcfSolverConfig,
        scratch: &mut FmcfScratch,
    ) -> Result<FmcfSolution, Disconnected> {
        let graph = self.graph.get();
        let n = self.commodities.len();
        // Loads stay link-indexed even with no commodities so `edge_load`
        // keeps returning 0.0 for every link.
        let mut solution = FmcfSolution {
            loads: vec![0.0; graph.link_count()],
            mixtures: Vec::new(),
            iterations: 0,
            converged: n == 0,
            relative_gap: if n == 0 { 0.0 } else { f64::INFINITY },
            dense: OnceLock::new(),
        };
        if n == 0 {
            return Ok(solution);
        }
        // Warm shortcut: an identical problem with an untouched cache
        // returns the cached solution verbatim.
        let warm = scratch.warm_enabled;
        if warm {
            if let Some(cached) = self.try_warm_shortcut(cost, config, scratch) {
                scratch.consume_dirty();
                return Ok(cached);
            }
        }

        // With a zero-load-free cost (and a sane capacity) the objective,
        // blending and load passes can be confined to the links actually
        // touched by some chosen path: every other load stays exactly 0.0
        // and contributes exactly +0.0, so the restriction is bit-for-bit
        // neutral while keeping the per-iteration passes at O(|active|).
        let sparse = cost.zero_load_is_free() && config.capacity.is_none_or(|c| c >= 0.0);
        // The weight of an unloaded link, when it is the same on every
        // link: then only the active links ever need another one.
        let idle_weight = sparse
            .then(|| cost.uniform_zero_load_marginal())
            .flatten()
            .map(|marginal| (marginal + self.penalty_marginal(0.0, config)).max(0.0));
        scratch.prepare(&self.commodities, graph, sparse, idle_weight);

        let loads = &mut solution.loads;
        let mut mixtures = self.start(cost, config, scratch, loads)?;
        let mut objective = self.objective_over(loads, &scratch.active, cost, config);
        // The share of every demand still on the start.
        let mut start_share = 1.0;

        for it in 0..config.max_iterations {
            solution.iterations = it + 1;
            // Marginal costs at the current loads. Dijkstra may traverse
            // any link; off the active set the load is zero, so under an
            // idle weight those links already hold their weight.
            let weight_at = |e: usize| {
                (cost.marginal(LinkId(e), loads[e]) + self.penalty_marginal(loads[e], config))
                    .max(0.0)
            };
            if idle_weight.is_some() {
                for &l in &scratch.active {
                    scratch.weights[l.index()] = weight_at(l.index());
                }
            } else {
                for (e, w) in scratch.weights.iter_mut().enumerate() {
                    *w = weight_at(e);
                }
            }
            self.all_or_nothing(scratch)?;
            scratch.register_active_paths();

            // The Frank–Wolfe gap: the linearised cost of the iterate less
            // that of the all-or-nothing assignment.
            let weight = |l: &LinkId| scratch.weights[l.index()];
            let active = scratch.active.iter();
            let at_iterate: f64 = active.map(|l| weight(l) * loads[l.index()]).sum();
            let spans = self.commodities.iter().zip(&scratch.path_spans);
            let at_target: f64 = spans
                .map(|(commodity, &(start, len))| {
                    let path = &scratch.path_links[start..start + len];
                    commodity.demand * path.iter().map(weight).sum::<f64>()
                })
                .sum();
            // (0/0, an instance of no cost at all, is a zero gap.)
            solution.relative_gap = ((at_iterate - at_target) / objective.abs()).max(0.0);
            if solution.relative_gap <= config.tolerance {
                solution.converged = true;
                break;
            }

            scratch.target_loads.fill(0.0);
            for (commodity, &(start, len)) in self.commodities.iter().zip(&scratch.path_spans) {
                for &l in &scratch.path_links[start..start + len] {
                    scratch.target_loads[l.index()] += commodity.demand;
                }
            }

            // Golden-section line search on gamma in [0, 1].
            let eval = |gamma: f64| {
                for e in scratch.active.iter().map(|l| l.index()) {
                    scratch.blended[e] = (1.0 - gamma) * loads[e] + gamma * scratch.target_loads[e];
                }
                self.objective_over(&scratch.blended, &scratch.active, cost, config)
            };
            let gamma = golden_section_min(eval, 0.0, 1.0, config.line_search_steps);
            if gamma <= 1e-12 {
                solution.converged = true;
                break;
            }

            // Blend the aggregate loads, and the mixture by its
            // coefficients: what was there keeps `1 - gamma` of its share,
            // the step's paths enter at `gamma`.
            for e in scratch.active.iter().map(|l| l.index()) {
                loads[e] = (1.0 - gamma) * loads[e] + gamma * scratch.target_loads[e];
            }
            start_share *= 1.0 - gamma;
            for share in scratch.step_shares.iter_mut() {
                *share *= 1.0 - gamma;
            }
            let offset = scratch.step_links.len();
            scratch.step_links.extend_from_slice(&scratch.path_links);
            scratch
                .step_spans
                .extend(scratch.path_spans.iter().map(|&(s, len)| (offset + s, len)));
            scratch.step_shares.push(gamma);

            let new_objective = self.objective_over(loads, &scratch.active, cost, config);
            let improvement = (objective - new_objective) / objective.abs().max(1e-12);
            objective = new_objective;
            if improvement.abs() < config.tolerance {
                solution.converged = true;
                break;
            }
        }

        // The mixtures: the start at what is left of its share, then each
        // step's path at the step's share (equal paths merged), without
        // the negligible entries. The loads are their per-link sum.
        for (c, (mixture, commodity)) in mixtures.iter_mut().zip(&self.commodities).enumerate() {
            mixture.scale(start_share);
            for (t, &share) in scratch.step_shares.iter().enumerate() {
                let (start, len) = scratch.step_spans[t * n + c];
                let links = &scratch.step_links[start..start + len];
                let flow = share * commodity.demand;
                match mixture.steps.iter_mut().find(|p| p.path.links() == links) {
                    Some(part) => part.weight += flow,
                    None => mixture.steps.push(WeightedPath {
                        path: graph
                            .path_from_links(commodity.src, links)
                            .expect("a walk up a shortest-path tree is a simple path"),
                        weight: flow,
                    }),
                }
            }
            mixture.prune(commodity.demand);
        }
        for &l in &scratch.active {
            loads[l.index()] = 0.0;
        }
        for mixture in &mixtures {
            mixture.add_to(loads);
        }
        solution.mixtures = mixtures;

        if warm {
            scratch.warm = Some(WarmEntry {
                keys: self.commodities.iter().map(warm_key).collect(),
                solution: solution.clone(),
                graph_epoch: graph.epoch(),
                config_bits: config_fingerprint(config),
                cost_bits: cost_fingerprint(cost),
            });
            scratch.consume_dirty();
        }
        Ok(solution)
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
        let loads = &entry.solution.loads;
        let loaded = |l: &LinkId| loads.get(l.index()).is_some_and(|&x| x != 0.0);
        let keys = self.commodities.iter().map(warm_key);
        let same = entry.matches(self.graph.get(), config, cost)
            && keys.eq(entry.keys.iter().copied())
            && !scratch.dirty.iter().any(loaded);
        same.then(|| entry.solution.clone())
    }
}

/// The `(id, src, dst, demand bits)` fingerprint of a commodity in the
/// warm cache.
fn warm_key(c: &Commodity) -> (usize, usize, usize, u64) {
    (c.id, c.src.index(), c.dst.index(), c.demand.to_bits())
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
        self.mixtures.len()
    }

    /// The paths carrying commodity index `c` (position in the problem's
    /// commodity list) with the flow on each; the flows sum to the demand.
    /// A path may occur twice: once in the commodity's start, once as a
    /// Frank–Wolfe step.
    pub fn paths(&self, c: usize) -> impl Iterator<Item = (&Path, f64)> + '_ {
        self.mixtures[c].paths()
    }

    /// The `commodities x links` matrix of per-link flows, built from the
    /// path lists on first use. Nothing on a solve's path reads it.
    fn dense(&self) -> &[f64] {
        self.dense.get_or_init(|| {
            let m = self.loads.len();
            let mut flows = vec![0.0; self.mixtures.len() * m];
            for (mixture, row) in self.mixtures.iter().zip(flows.chunks_exact_mut(m.max(1))) {
                mixture.add_to(row);
            }
            flows
        })
    }

    /// The flow of commodity index `c` on `link`.
    pub fn commodity_flow(&self, c: usize, link: LinkId) -> f64 {
        self.commodity_flows(c)[link.index()]
    }

    /// The full per-link flow vector of commodity index `c`.
    pub fn commodity_flows(&self, c: usize) -> &[f64] {
        let m = self.loads.len();
        &self.dense()[c * m..(c + 1) * m]
    }

    /// The aggregate load on `link` over all commodities.
    pub fn edge_load(&self, link: LinkId) -> f64 {
        self.loads[link.index()]
    }

    /// Aggregate loads on all links.
    pub fn total_loads(&self) -> &[f64] {
        &self.loads
    }

    /// The objective value under a cost function (no capacity penalty).
    ///
    /// Under a [zero-load-free](FlowCost::zero_load_is_free) cost the sum
    /// runs over the loaded links only and is the dense sum to the bit: an
    /// unloaded link adds `+0.0`, which changes no partial sum but `-0.0`,
    /// so one `+ 0.0` at the end stands for all of them.
    pub fn total_cost(&self, cost: &impl FlowCost) -> f64 {
        let terms = self.loads.iter().enumerate();
        if !cost.zero_load_is_free() {
            return terms.map(|(e, &x)| cost.cost(LinkId(e), x)).sum();
        }
        let mut unloaded = false;
        let sum: f64 = terms
            .filter(|&(_, &x)| {
                unloaded |= x == 0.0;
                x != 0.0
            })
            .map(|(e, &x)| cost.cost(LinkId(e), x))
            .sum();
        if unloaded {
            sum + 0.0
        } else {
            sum
        }
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
        let sol = problem.solve(&quadratic_cost(), &tight_config()).unwrap();
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
        let sol = problem.solve(&quadratic_cost(), &tight_config()).unwrap();
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
        let sol = problem.solve(&quadratic_cost(), &tight_config()).unwrap();
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
        let sol = problem.solve(&cost_fn, &tight_config()).unwrap();
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
        let sol = problem.solve(&cost, &config).unwrap();
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
        let sol = problem.solve(&quadratic_cost(), &tight_config()).unwrap();
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
            let shared = FmcfProblem::with_graph(&graph, commodities.clone())
                .solve_with(&cost, &config, &mut scratch)
                .unwrap();
            let one_shot = FmcfProblem::new(&t.network, commodities)
                .solve(&cost, &config)
                .unwrap();
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
        let sol = problem.solve(&quadratic_cost(), &tight_config()).unwrap();
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
        let cold = FmcfProblem::with_graph(&graph, commodities.clone())
            .solve_with(&cost, &config, &mut FmcfScratch::new())
            .unwrap();
        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        let problem = FmcfProblem::with_graph(&graph, commodities);
        let first = problem.solve_with(&cost, &config, &mut scratch).unwrap();
        let second = problem.solve_with(&cost, &config, &mut scratch).unwrap();
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
        let first = problem.solve_with(&cost, &config, &mut scratch).unwrap();
        // Dirty every link the solution uses: the commodity is re-routed
        // fresh, which for a single commodity lands on the same optimum.
        let used: Vec<LinkId> = (0..graph.link_count())
            .map(LinkId)
            .filter(|&l| first.edge_load(l) != 0.0)
            .collect();
        scratch.mark_dirty_links(used);
        let resolved = problem.solve_with(&cost, &config, &mut scratch).unwrap();
        assert!(resolved.iterations >= 1, "shortcut must not fire");
        assert!(close(
            resolved.total_cost(&cost),
            first.total_cost(&cost),
            1e-6
        ));
        // The dirty set was consumed: the next re-solve shortcuts again.
        let third = problem.solve_with(&cost, &config, &mut scratch).unwrap();
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
        FmcfProblem::with_graph(&graph, base)
            .solve_with(&cost, &config, &mut scratch)
            .unwrap();
        let warm = FmcfProblem::with_graph(&graph, grown.clone())
            .solve_with(&cost, &config, &mut scratch)
            .unwrap();
        let cold = FmcfProblem::with_graph(&graph, grown.clone())
            .solve_with(&cost, &config, &mut FmcfScratch::new())
            .unwrap();

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
        problem.solve_with(&cost, &config, &mut scratch).unwrap();
        scratch.set_warm_start(false);
        assert!(!scratch.warm_start());
        // Cold again: must match a fresh scratch bit-for-bit.
        let after = problem.solve_with(&cost, &config, &mut scratch).unwrap();
        let fresh = problem
            .solve_with(&cost, &config, &mut FmcfScratch::new())
            .unwrap();
        assert_eq!(after, fresh);
    }

    /// The start point alone: zero iterations return the ECMP split.
    fn start_of(problem: &FmcfProblem<'_>, scratch: &mut FmcfScratch) -> FmcfSolution {
        let config = FmcfSolverConfig {
            max_iterations: 0,
            ..Default::default()
        };
        problem
            .solve_with(&quadratic_cost(), &config, scratch)
            .unwrap()
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

                    let solved = problem.solve_with(&cost, &config, &mut scratch).unwrap();
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
        // The cached paths count against the same bound.
        let held = scratch.splits.path_links;
        assert!(held > 0);
        scratch.splits.path_links = SplitCache::MAX_SHARES;
        let stale = scratch.splits.pairs.values().next().unwrap().paths.clone();
        assert_eq!(start_of(&problem, &mut scratch), first);
        assert_eq!(scratch.splits.path_links, held);
        assert!(scratch
            .splits
            .pairs
            .values()
            .all(|split| !Arc::ptr_eq(&split.paths, &stale)));
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
        FmcfProblem::with_graph(&graph, base)
            .solve_with(&cost, &config, &mut scratch)
            .unwrap();
        let warm = FmcfProblem::with_graph(&graph, grown.clone())
            .solve_with(&cost, &config, &mut scratch)
            .unwrap();
        assert_eq!(warm.edge_load(up[2]), 0.0);
        assert_conserves(&graph, &warm, &grown, 1e-9);
    }

    /// The mixture is the matrix: on the quality-oracle graphs (fat-trees
    /// with fabric links down, leaf–spine, BCube — where Frank–Wolfe does
    /// blend) every commodity's paths carry its demand, run from its
    /// source to its destination over live links without a loop, and sum
    /// per link to the dense view, whose own decomposition carries the
    /// same total.
    #[test]
    fn the_path_mixture_is_the_link_flow_matrix() {
        let mut corpus: Vec<(GraphCsr, Vec<NodeId>)> = [
            builders::fat_tree(4),
            builders::leaf_spine(4, 3, 4),
            builders::bcube(4, 1),
        ]
        .into_iter()
        .map(|t| (t.csr(), t.hosts))
        .collect();
        for failed in 1..=3usize {
            let t = builders::fat_tree(6);
            let mut graph = t.csr();
            let fabric = |l: &LinkId| {
                !t.network.node(graph.link_src(*l)).kind.is_host()
                    && !t.network.node(graph.link_dst(*l)).kind.is_host()
            };
            let down: Vec<LinkId> = (0..graph.link_count())
                .map(LinkId)
                .filter(fabric)
                .step_by(37)
                .take(failed)
                .collect();
            for l in down {
                graph.fail_link(l);
            }
            corpus.push((graph, t.hosts));
        }

        let cost = PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 4.0, 10.0));
        let config = FmcfSolverConfig {
            capacity: Some(10.0),
            ..Default::default()
        };
        let mut blended = 0;
        for (graph, hosts) in &corpus {
            let commodities = host_pairs(hosts, 14);
            let sol = FmcfProblem::with_graph(graph, commodities.clone())
                .solve(&cost, &config)
                .unwrap();
            blended += usize::from(sol.iterations > 1);
            assert_conserves(graph, &sol, &commodities, 1e-12);
            for (c, commodity) in commodities.iter().enumerate() {
                let demand = commodity.demand;
                let mut row = vec![0.0; graph.link_count()];
                let mut total = 0.0;
                for (path, flow) in sol.paths(c) {
                    assert!(flow >= NEGLIGIBLE * demand);
                    assert_eq!(path.source(), commodity.src);
                    assert_eq!(path.destination(), commodity.dst);
                    // `Path` construction rejects loops; links must be live.
                    assert!(path.links().iter().all(|&l| graph.is_link_up(l)));
                    assert_eq!(
                        graph
                            .path_from_links(commodity.src, path.links())
                            .ok()
                            .as_ref(),
                        Some(path)
                    );
                    total += flow;
                    for &l in path.links() {
                        row[l.index()] += flow;
                    }
                }
                assert!(
                    (total - demand).abs() <= 1e-12 * demand,
                    "{total} vs {demand}"
                );
                for (e, (&dense, &summed)) in sol.commodity_flows(c).iter().zip(&row).enumerate() {
                    assert!((dense - summed).abs() <= 1e-12 * demand, "link {e}");
                }
                let decomposed: f64 = decompose_flow_with(
                    graph,
                    commodity.src,
                    commodity.dst,
                    sol.commodity_flows(c),
                    NEGLIGIBLE * demand,
                    &mut DecomposeScratch::default(),
                )
                .iter()
                .map(|part| part.weight)
                .sum();
                assert!((decomposed - demand).abs() <= 1e-9 * demand, "{decomposed}");
            }
        }
        assert!(blended >= 3, "the corpus must exercise blended mixtures");
    }

    #[test]
    fn a_disconnected_commodity_is_an_error_naming_it() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        let c = net.add_node(NodeKind::Host, "c");
        net.add_duplex_link(a, b, 10.0);
        let commodity = |id, dst| Commodity {
            id,
            src: a,
            dst,
            demand: 1.0,
        };
        let problem = FmcfProblem::new(&net, vec![commodity(4, b), commodity(7, c)]);
        let mut scratch = FmcfScratch::new();
        for _ in 0..2 {
            assert_eq!(
                problem.solve_with(&quadratic_cost(), &tight_config(), &mut scratch),
                Err(Disconnected { commodity: 7 })
            );
        }
        // The scratch is none the worse for it.
        let routable = FmcfProblem::new(&net, vec![commodity(4, b)]);
        assert_eq!(
            routable.solve_with(&quadratic_cost(), &tight_config(), &mut scratch),
            routable.solve(&quadratic_cost(), &tight_config())
        );
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

    /// A zero-load-free cost that does not vouch for a uniform zero-load
    /// marginal: the solver refreshes every link weight.
    struct DenseWeights(PowerFlowCost);

    impl FlowCost for DenseWeights {
        fn cost(&self, link: LinkId, load: f64) -> f64 {
            self.0.cost(link, load)
        }

        fn marginal(&self, link: LinkId, load: f64) -> f64 {
            self.0.marginal(link, load)
        }

        fn zero_load_is_free(&self) -> bool {
            true
        }
    }

    /// Solves `pairs` host pairs on `graph` with `scratch` and with a fresh
    /// scratch: the solutions must be equal, and so must every link weight
    /// the last iteration searched under. Returns the iteration count.
    fn reused_equals_fresh(
        graph: &GraphCsr,
        hosts: &[NodeId],
        pairs: usize,
        cost: &impl FlowCost,
        capacity: Option<f64>,
        scratch: &mut FmcfScratch,
    ) -> usize {
        let problem = FmcfProblem::with_graph(graph, host_pairs(hosts, pairs));
        let config = FmcfSolverConfig {
            capacity,
            ..Default::default()
        };
        let mut fresh_scratch = FmcfScratch::new();
        let reused = problem.solve_with(cost, &config, scratch).unwrap();
        let fresh = problem
            .solve_with(cost, &config, &mut fresh_scratch)
            .unwrap();
        assert_eq!(reused, fresh);
        let bits = |weights: &[f64]| weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scratch.weights), bits(&fresh_scratch.weights));
        reused.iterations
    }

    /// A reused scratch refreshes weights on the links a solve loads and
    /// restores the ones an earlier solve loaded; no weight an earlier
    /// solve wrote may be read. One scratch runs a sequence of solves — the
    /// weight at zero load 0, then non-zero (σ > 0), then 0 again; α 2 and
    /// 3; a capacity the penalty bites at; links failed between solves;
    /// fat-tree 4 → 8 → 4; a cost that takes the dense refresh — and each
    /// solution equals a fresh scratch's, gap and iteration count included.
    #[test]
    fn a_reused_scratch_never_reads_a_stale_weight() {
        let power =
            |sigma, alpha| PowerFlowCost::new(PowerFunction::new(sigma, 1.0, alpha, 10.0).unwrap());
        let (t4, t8) = (builders::fat_tree(4), builders::fat_tree(8));
        let (mut g4, g8) = (t4.csr(), t8.csr());
        let (h4, h8) = (t4.hosts(), t8.hosts());
        let up = g4.shortest_path(h4[0], h4[15]).unwrap().links().to_vec();
        let mut scratch = FmcfScratch::new();
        let mut iterations = vec![
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 2.0), None, &mut scratch),
            reused_equals_fresh(&g4, h4, 9, &power(3.0, 2.0), Some(1.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 3.0), Some(1.0), &mut scratch),
        ];
        g4.fail_link(up[1]);
        g4.fail_link(up[2]);
        iterations.extend([
            reused_equals_fresh(&g4, h4, 9, &power(0.0, 2.0), Some(1.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 3.0), None, &mut scratch),
            reused_equals_fresh(&g8, h8, 9, &power(0.0, 2.0), None, &mut scratch),
            reused_equals_fresh(
                &g8,
                h8,
                14,
                &DenseWeights(power(0.0, 2.0)),
                None,
                &mut scratch,
            ),
            reused_equals_fresh(&g4, h4, 9, &power(0.0, 2.0), Some(1.0), &mut scratch),
        ]);
        g4.restore_link(up[1]);
        g4.restore_link(up[2]);
        iterations.extend([
            reused_equals_fresh(
                &g4,
                h4,
                14,
                &DenseWeights(power(3.0, 3.0)),
                None,
                &mut scratch,
            ),
            reused_equals_fresh(&g4, h4, 9, &power(3.0, 3.0), Some(1.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 2.0), None, &mut scratch),
        ]);
        // Frank–Wolfe blends on the degraded fabric, so weights moved off
        // the idle weight within a solve, not only at its start.
        assert!(iterations.iter().any(|&i| i > 1), "{iterations:?}");
    }

    /// `total_cost` sums the loaded links only and equals the dense sum to
    /// the bit, including the `+0.0` of a problem with no commodity.
    #[test]
    fn total_cost_is_the_dense_sum_to_the_bit() {
        let t = builders::fat_tree(4);
        let graph = t.csr();
        for cost in [
            PowerFlowCost::new(PowerFunction::new(3.0, 1.0, 2.0, 10.0).unwrap()),
            quadratic_cost(),
        ] {
            for count in [0, 1, 14] {
                let problem = FmcfProblem::with_graph(&graph, host_pairs(t.hosts(), count));
                let sol = problem.solve(&cost, &FmcfSolverConfig::default()).unwrap();
                let loads = sol.total_loads().iter().enumerate();
                let dense: f64 = loads.map(|(e, &x)| cost.cost(LinkId(e), x)).sum();
                assert_eq!(sol.total_cost(&cost).to_bits(), dense.to_bits(), "{count}");
            }
        }
        let empty = FmcfProblem::with_graph(&graph, Vec::new())
            .solve(&quadratic_cost(), &FmcfSolverConfig::default())
            .unwrap();
        assert_eq!(
            empty.total_cost(&quadratic_cost()).to_bits(),
            0.0f64.to_bits()
        );
    }
}
