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
//! `∇F(x)·s` needs only each commodity's shortest distance, not its path,
//! and at the start — where a symmetric fabric's solve ends — a node
//! potential proves those distances without a search (the dual side of the
//! gap certificate). Per source, the potential π runs over a cached
//! hop-layer program of the source's root (the source, or the switch a
//! pendant host hangs off): π(v) is the least `π(u) + w(u, v)` over v's
//! in-links from the previous breadth-first layer. If `π(v) <= π(u) +
//! w(u, v)` then holds on every other link of the program, each π(t) is
//! the search's distance to the bit, and a gap within tolerance ends the
//! solve after one iteration with no all-or-nothing step. A potential that
//! fails the check, a gap above tolerance, every later iteration and any
//! solve with a link down take the search as before.
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
//! # The cost
//!
//! Every link is priced by one [`PowerFlowCost`], the paper's power
//! function as a function of the load, and the relaxation's `x_e <= C`
//! constraint enters the objective as a quadratic penalty on the load
//! above that power function's capacity.
//!
//! # Hot-path layout
//!
//! The solver runs on the flat [`GraphCsr`] view and keeps every
//! per-iteration buffer in a reusable [`FmcfScratch`]:
//!
//! * the start and the all-or-nothing step group commodities by source and
//!   run **one** multi-target Dijkstra per distinct source (not per
//!   commodity) through the arena-reuse [`ShortestPathEngine`]. Its targets
//!   are hosts, which hang off one switch each: a target host settles with
//!   its switch, and a link into any other host is never read. Unloaded
//!   links all weigh the same (0 when σ = 0), so a search still settles
//!   nearly every switch; what it does not read are the links into hosts
//!   and into nodes already settled. The start searches once per source
//!   with a pair not in the split cache; the all-or-nothing step searches
//!   unless the first iteration's certificate ends the solve;
//! * the certificate's hop-layer programs are `u32` slices of their exact
//!   size, one program per root and graph state, built on a root's first
//!   use: on a failure-free k = 8 fat-tree a program lists the 79 other
//!   switches and the 508 links between switches that do not enter its
//!   edge switch, 2 980 bytes, so the 32 edge switches' programs hold
//!   95 KB (and the node-indexed tables beside them 14 KB). Pendant hosts
//!   enter no program: a target host reads its switch's potential;
//! * chosen paths are stored as spans into one shared link buffer, and
//!   the objective, blending and load passes and [`FmcfSolution::cost`]
//!   run over the links some chosen path touched, in link order (a bitmap,
//!   re-read when a path sets a new bit): every other link carries no load
//!   and costs exactly `+0.0`;
//! * the link weights are refreshed on those links only: every other link
//!   keeps the weight at zero load, which is the same on every link, and
//!   the scratch restores it on the links an earlier solve loaded rather
//!   than refilling all of them;
//! * after the first iteration has warmed the arenas up, a Frank–Wolfe
//!   iteration performs **zero heap allocations**; the step paths become
//!   [`Path`]s once, when the solve ends, and the loads are summed from
//!   the final mixtures then — unless every commodity kept its warm seed
//!   whole, in which case the start already summed them in that order.
//!
//! Callers solving many problems on one network (the per-interval
//! relaxation) build one [`GraphCsr`], construct problems on it with
//! [`FmcfProblem::with_graph`] and pass one scratch to every
//! [`FmcfProblem::solve_with`].

use crate::decompose::{decompose_flow_with, DecomposeScratch, WeightedPath};
use dcn_power::PowerFunction;
use dcn_topology::{GraphCsr, LinkId, NodeHash, NodeId, Path, ShortestPathEngine};
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

/// The power-model cost of a link, the same on every link:
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
///
/// The solver adds a quadratic penalty on the load above the power
/// function's capacity `C`; [`PowerFlowCost::cost`] does not include it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFlowCost {
    power: PowerFunction,
}

/// Weight of the quadratic penalty on a link's load above capacity.
const OVERLOAD_PENALTY: f64 = 1e3;

impl PowerFlowCost {
    /// Creates the cost from a power function.
    pub fn new(power: PowerFunction) -> Self {
        Self { power }
    }

    /// The cost of pushing `load` units of traffic through a link.
    pub fn cost(&self, load: f64) -> f64 {
        if load <= 0.0 {
            return 0.0;
        }
        self.power.dynamic_power(load) + self.power.sigma() * load / self.power.capacity()
    }

    /// The derivative of [`PowerFlowCost::cost`] with respect to the load.
    pub fn marginal(&self, load: f64) -> f64 {
        self.power.marginal_power(load.max(0.0)) + self.power.sigma() / self.power.capacity()
    }

    /// The load above the power function's capacity, or zero.
    fn overload(&self, load: f64) -> f64 {
        (load - self.power.capacity()).max(0.0)
    }

    /// A link's term of the objective Frank–Wolfe minimises: the cost
    /// plus the overload penalty.
    fn penalised(&self, load: f64) -> f64 {
        self.cost(load) + OVERLOAD_PENALTY * self.overload(load).powi(2)
    }

    /// The objective restricted to `active` links (ascending). Equal to
    /// the sum over every link — bit for bit — because every inactive link
    /// has exactly zero load, which costs `+0.0`.
    fn objective_over(&self, loads: &[f64], active: &[LinkId]) -> f64 {
        active
            .iter()
            .map(|&l| self.penalised(loads[l.index()]))
            .sum()
    }

    /// [`PowerFlowCost::cost`] over `active` (ascending, holding every
    /// loaded link), the sum over every link to the bit: an unloaded link
    /// adds `+0.0`, which changes no partial sum but `-0.0`.
    fn cost_over(&self, loads: &[f64], active: &[LinkId]) -> f64 {
        let sum: f64 = active.iter().map(|&l| self.cost(loads[l.index()])).sum();
        if active.len() < loads.len() {
            sum + 0.0
        } else {
            sum
        }
    }

    /// A link's weight in the all-or-nothing step: the derivative of
    /// [`PowerFlowCost::penalised`], clamped at zero.
    fn weight(&self, load: f64) -> f64 {
        (self.marginal(load) + 2.0 * OVERLOAD_PENALTY * self.overload(load)).max(0.0)
    }
}

/// Configuration of the Frank–Wolfe solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmcfSolverConfig {
    /// Maximum number of Frank–Wolfe iterations.
    pub max_iterations: usize,
    /// Relative improvement below which the solver declares convergence.
    pub tolerance: f64,
    /// Number of golden-section iterations in the line search.
    pub line_search_steps: usize,
}

impl Default for FmcfSolverConfig {
    fn default() -> Self {
        Self {
            max_iterations: 60,
            tolerance: 1e-4,
            line_search_steps: 40,
        }
    }
}

impl FmcfSolverConfig {
    /// A coarser configuration than the default (25 iterations, tolerance
    /// `1e-3`, 24 line-search steps): the benchmark harness relaxes with it
    /// so the fat-tree(8) sweeps finish in minutes, keeping the lower bound
    /// within a couple of percent of the converged value, and the online
    /// `reject-infeasible` admission probe relaxes with it.
    pub fn coarse() -> Self {
        Self {
            max_iterations: 25,
            tolerance: 1e-3,
            line_search_steps: 24,
        }
    }
}

/// A fractional multi-commodity flow problem on a network's CSR view.
#[derive(Debug, Clone)]
pub struct FmcfProblem<'a> {
    graph: &'a GraphCsr,
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
    /// `demand`, and rescales what is left to the demand. Returns whether
    /// anything was dropped.
    fn prune(&mut self, demand: f64) -> bool {
        let floor = NEGLIGIBLE * demand;
        let entries = self.steps.len() + usize::from(self.split.is_some());
        self.split.take_if(|(_, flow)| *flow < floor);
        self.steps.retain(|part| part.weight >= floor);
        let pruned = self.steps.len() + usize::from(self.split.is_some()) < entries;
        if pruned {
            let kept: f64 = self.paths().map(|(_, flow)| flow).sum();
            self.scale(demand / kept);
        }
        pruned
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
    /// The solver configuration of the cached solve.
    config: FmcfSolverConfig,
    /// The cost of the cached solve; its power function also sets the
    /// capacity the overload penalty starts at.
    cost: PowerFlowCost,
}

impl WarmEntry {
    /// Whether the cached solve ran on this graph state under this
    /// configuration and cost.
    fn matches(&self, graph: &GraphCsr, config: &FmcfSolverConfig, cost: &PowerFlowCost) -> bool {
        self.graph_epoch == graph.epoch() && self.config == *config && self.cost == *cost
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
    /// Each pair's index into `splits`.
    pairs: HashMap<(NodeId, NodeId), usize, NodeHash>,
    splits: Vec<UnitSplit>,
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
            self.splits.clear();
            self.shares.clear();
            self.path_links = 0;
        }
    }
}

/// The entry of a node-indexed table of [`HopPrograms`] that holds no node.
const NONE: u32 = u32::MAX;

/// One root's hop-layer program, each slice allocated to its exact size.
#[derive(Debug, Clone)]
struct HopProgram {
    /// The nodes the root reaches without entering a pendant, but the
    /// root, in breadth-first layers, each with the ends of its spans in
    /// `ins` and `checks`.
    nodes: Box<[(u32, u32, u32)]>,
    /// A node's live in-links from the previous layer.
    ins: Box<[u32]>,
    /// A node's live in-links from any other program node.
    checks: Box<[u32]>,
}

/// The hop-layer programs that certify the first all-or-nothing step
/// without a search (see the [module docs](self#stopping-on-the-gap)).
///
/// A source's *root* is the source itself or, for a pendant source (one
/// live link each way, to one node: a fat-tree host), the node it hangs
/// off. Programs are built once per root and graph state; a pendant that
/// is not the root enters none and is reached from its parent, and no
/// link into the root is checked, since no simple path from the source
/// enters it.
#[derive(Debug, Clone, Default)]
struct HopPrograms {
    /// Epoch of the graph the programs were built on.
    graph_epoch: u64,
    /// Per node: the node it hangs off if it is a pendant (the search
    /// engine's rule), else [`NONE`].
    pendant_parent: Vec<u32>,
    /// Per node: its program once built.
    programs: Vec<Option<HopProgram>>,
    /// Entries the built programs hold.
    held: usize,
    /// Per node: its layer while a program is built, else [`NONE`].
    layer: Vec<u32>,
    /// The nodes, ins and checks of the program being built.
    draft_nodes: Vec<(u32, u32, u32)>,
    draft_ins: Vec<u32>,
    draft_checks: Vec<u32>,
    /// Per node: its potential under the latest run that reached it.
    pi: Vec<f64>,
    /// Per node: the run that last wrote `pi`.
    stamp: Vec<u32>,
    /// The latest run.
    run: u32,
}

impl HopPrograms {
    /// Program entries kept before every program is dropped and rebuilt
    /// on demand (a few MB), so a large fabric's programs stay bounded.
    const MAX_ENTRIES: usize = 1 << 19;

    /// Drops every program built on another graph state, or all of them
    /// once they hold too much, and indexes the pendants of a new state.
    fn start_solve(&mut self, graph: &GraphCsr) {
        if self.graph_epoch == graph.epoch() && self.held <= Self::MAX_ENTRIES {
            return;
        }
        let parent = |v: NodeId| match (graph.out_links(v), graph.in_links(v)) {
            (&[out], &[inn])
                if graph.link_dst(out) == graph.link_src(inn) && graph.link_src(inn) != v =>
            {
                graph.link_src(inn).index() as u32
            }
            _ => NONE,
        };
        let n = graph.node_count();
        *self = Self {
            graph_epoch: graph.epoch(),
            pendant_parent: (0..n).map(|v| parent(NodeId(v))).collect(),
            programs: vec![None; n],
            layer: vec![NONE; n],
            pi: vec![0.0; n],
            stamp: vec![0; n],
            ..Self::default()
        };
    }

    /// Builds `root`'s program: a breadth-first search that never enters
    /// a pendant, then each reached node's in-links from reached nodes,
    /// sorted into `ins` (from the previous layer) and `checks` (the rest).
    fn build(&mut self, graph: &GraphCsr, root: NodeId) -> HopProgram {
        let Self {
            pendant_parent,
            layer,
            draft_nodes: nodes,
            draft_ins: ins,
            draft_checks: checks,
            ..
        } = self;
        nodes.clear();
        ins.clear();
        checks.clear();
        layer[root.index()] = 0;
        let (mut u, mut head) = (root.index(), 0);
        loop {
            for (_, v) in graph.out_links_with_dsts(NodeId(u)) {
                let v = v.index();
                if layer[v] == NONE && pendant_parent[v] == NONE {
                    layer[v] = layer[u] + 1;
                    nodes.push((v as u32, 0, 0));
                }
            }
            let Some(&(next, ..)) = nodes.get(head) else {
                break;
            };
            (u, head) = (next as usize, head + 1);
        }
        for node in nodes.iter_mut() {
            let v = node.0 as usize;
            for &l in graph.in_links(NodeId(v)) {
                let u = graph.link_src(l).index();
                if layer[u] == layer[v] - 1 {
                    ins.push(l.index() as u32);
                } else if layer[u] != NONE {
                    checks.push(l.index() as u32);
                }
            }
            (node.1, node.2) = (ins.len() as u32, checks.len() as u32);
        }
        layer[root.index()] = NONE;
        for &(v, ..) in nodes.iter() {
            layer[v as usize] = NONE;
        }
        self.held += nodes.len() + ins.len() + checks.len();
        HopProgram {
            nodes: nodes.as_slice().into(),
            ins: ins.as_slice().into(),
            checks: checks.as_slice().into(),
        }
    }

    /// Computes the potential π from `src` under `weights` over its root's
    /// program — π(v) the least `π(u) + w(u, v)` over v's in-links from the
    /// previous layer — and returns whether `π(v) <= π(u) + w(u, v)` holds
    /// on every other link of the program. Then π(v) is what a search from
    /// `src` would find, to the bit: it is the left-to-right float sum of
    /// a real path, so no less than the least such sum, and feasibility
    /// gives no more along the search's own path, float addition being
    /// monotone and the weights non-negative.
    fn potentials(&mut self, graph: &GraphCsr, src: NodeId, weights: &[f64]) -> bool {
        let parent = self.pendant_parent[src.index()];
        let (root, at_root) = if parent == NONE {
            (src, 0.0)
        } else {
            // The search's own sum: its source sits at `0.0`.
            let out = graph.out_links(src)[0];
            (NodeId(parent as usize), 0.0 + weights[out.index()])
        };
        if self.programs[root.index()].is_none() {
            self.programs[root.index()] = Some(self.build(graph, root));
        }
        self.run = self.run.wrapping_add(1);
        if self.run == 0 {
            self.stamp.fill(0);
            self.run = 1;
        }
        let Self {
            programs,
            pi,
            stamp,
            run,
            ..
        } = self;
        let program = programs[root.index()].as_ref().expect("built above");
        pi[root.index()] = at_root;
        stamp[root.index()] = *run;
        let mut k = 0;
        for &(v, end, _) in program.nodes.iter() {
            let mut least = f64::INFINITY;
            for &l in &program.ins[k..end as usize] {
                let u = graph.link_src(LinkId(l as usize));
                least = least.min(pi[u.index()] + weights[l as usize]);
            }
            (pi[v as usize], stamp[v as usize], k) = (least, *run, end as usize);
        }
        let mut k = 0;
        program.nodes.iter().all(|&(v, _, end)| {
            let checks = &program.checks[k..end as usize];
            k = end as usize;
            let pi_v = pi[v as usize];
            checks.iter().all(|&l| {
                let u = graph.link_src(LinkId(l as usize));
                pi_v <= pi[u.index()] + weights[l as usize]
            })
        })
    }

    /// The potential of `dst` under the latest [`HopPrograms::potentials`]
    /// run — over its one in-link if it is a pendant outside the program —
    /// or `None` when the run did not reach it or reached it at infinity.
    fn distance(&self, graph: &GraphCsr, dst: NodeId, weights: &[f64]) -> Option<f64> {
        let reached = |v: usize| self.stamp[v] == self.run;
        let pi = if reached(dst.index()) {
            self.pi[dst.index()]
        } else {
            let parent = self.pendant_parent[dst.index()];
            if parent == NONE || !reached(parent as usize) {
                return None;
            }
            self.pi[parent as usize] + weights[graph.in_links(dst)[0].index()]
        };
        pi.is_finite().then_some(pi)
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
    /// Bits of the weight every link outside `active` holds in `weights`:
    /// the weight at zero load of the previous solve's cost.
    idle_weight: u64,
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
    /// Per commodity: its pair's index into the split cache.
    split_of: Vec<usize>,
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
    /// Links touched by any chosen path so far, ascending; the objective,
    /// blending and weight passes are confined to these (every other link
    /// carries no load).
    active: Vec<LinkId>,
    /// `active` as a bitmap, 64 links a word.
    active_bits: Vec<u64>,
    /// Whether solves cache and reuse the previous solution.
    warm_enabled: bool,
    /// The cached previous solution, when warm starts are enabled.
    warm: Option<WarmEntry>,
    /// Links whose residual conditions changed since the cached solve.
    dirty: Vec<LinkId>,
    /// Membership mask of `dirty` (indexed by link, grown on demand).
    dirty_mark: Vec<bool>,
    /// The hop-layer programs of the current graph state.
    programs: HopPrograms,
    /// Per commodity: its certified distance in the first iteration.
    target_dist: Vec<f64>,
    /// Solves that kept their start's loads instead of rebuilding them.
    #[cfg(test)]
    kept_start_loads: usize,
    /// Solves that exited on a certified gap, with no search.
    #[cfg(test)]
    certified_exits: usize,
    /// All-or-nothing steps run.
    #[cfg(test)]
    aon_rounds: usize,
    /// Whether solves skip the certificate.
    #[cfg(test)]
    uncertified: bool,
}

impl FmcfScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables warm-started solves (see the
    /// [type docs](FmcfScratch#warm-starts)). Disabling drops the cached
    /// solution, so re-enabling starts cold.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
        if !enabled {
            self.warm = None;
            self.dirty.clear();
            self.dirty_mark.fill(false);
        }
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

    /// Sizes the buffers for `commodities` on `graph`, rebuilds the
    /// source-grouped commodity order and empties the active-link set.
    /// Every weight is left at `idle_weight`: the links the previous solve
    /// refreshed — its active set — are reset, or all of them when the
    /// previous solve left another idle weight or link count.
    fn prepare(&mut self, commodities: &[Commodity], graph: &GraphCsr, idle_weight: f64) {
        let (n, m) = (commodities.len(), graph.link_count());
        if self.idle_weight == idle_weight.to_bits() && self.weights.len() == m {
            for &l in &self.active {
                self.weights[l.index()] = idle_weight;
            }
        } else {
            self.weights.clear();
            self.weights.resize(m, idle_weight);
        }
        self.idle_weight = idle_weight.to_bits();
        self.target_loads.resize(m, 0.0);
        self.blended.resize(m, 0.0);
        self.unit_row.resize(m, 0.0);
        self.node_share.resize(graph.node_count(), 0.0);
        self.node_queued.resize(graph.node_count(), false);
        self.path_spans.resize(n, (0, 0));
        self.target_dist.resize(n, 0.0);
        self.split_of.resize(n, 0);
        self.step_links.clear();
        self.step_spans.clear();
        self.step_shares.clear();
        self.order.clear();
        self.order.extend(0..n);
        self.order
            .sort_unstable_by_key(|&c| (commodities[c].src.index(), c));
        self.active.clear();
        self.active_bits.clear();
        self.active_bits.resize(m.div_ceil(64), 0);
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
        splits.pairs.insert((src, dst), splits.splits.len());
        splits.splits.push(UnitSplit {
            shares: (start, shares.len()),
            paths: paths.into(),
        });
    }

    /// Sets the bits of `path_links` and re-reads `active` if one was new:
    /// the passes then sum in link order, as a sum over every link would.
    fn register_active_paths(&mut self) {
        let mut added = false;
        for &l in &self.path_links {
            let (word, bit) = (l.index() / 64, 1u64 << (l.index() % 64));
            added |= self.active_bits[word] & bit == 0;
            self.active_bits[word] |= bit;
        }
        if added {
            self.active.clear();
            for (word, &bits) in self.active_bits.iter().enumerate() {
                let mut rest = bits;
                while rest != 0 {
                    self.active
                        .push(LinkId(word * 64 + rest.trailing_zeros() as usize));
                    rest &= rest - 1;
                }
            }
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
    /// The solve's [`PowerFlowCost::cost`] of the loads (no overload term).
    pub cost: f64,
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
            && self.cost.to_bits() == other.cost.to_bits()
    }
}

impl<'a> FmcfProblem<'a> {
    /// Creates a problem instance on a prebuilt CSR view.
    ///
    /// # Panics
    ///
    /// Panics if any commodity has a non-positive demand or equal endpoints.
    pub fn with_graph(graph: &'a GraphCsr, commodities: Vec<Commodity>) -> Self {
        for c in &commodities {
            assert!(c.demand > 0.0, "commodity {} has non-positive demand", c.id);
            assert!(c.src != c.dst, "commodity {} has equal endpoints", c.id);
        }
        Self { graph, commodities }
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
        let graph = self.graph;
        path_links.clear();
        #[cfg(test)]
        {
            scratch.aon_rounds += 1;
        }

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

    /// The linearised cost `Σ demand · dist(dst)` of the all-or-nothing
    /// step under `scratch.weights`, summed in commodity order, certified
    /// by one [`HopPrograms::potentials`] run per distinct source instead
    /// of a search; `None` when a source's potential is not feasible or a
    /// destination is out of its reach.
    fn certified_at_target(&self, scratch: &mut FmcfScratch) -> Option<f64> {
        let FmcfScratch {
            programs,
            weights,
            order,
            target_dist,
            ..
        } = scratch;
        let graph = self.graph;
        programs.start_solve(graph);
        let mut i = 0;
        while i < order.len() {
            let src = self.commodities[order[i]].src;
            if !programs.potentials(graph, src, weights) {
                return None;
            }
            while let Some(&c) = order.get(i).filter(|&&c| self.commodities[c].src == src) {
                target_dist[c] = programs.distance(graph, self.commodities[c].dst, weights)?;
                i += 1;
            }
        }
        let dists = self.commodities.iter().zip(&*target_dist);
        Some(dists.map(|(c, &dist)| c.demand * dist).sum())
    }

    /// Makes sure the split cache holds the ECMP split of every
    /// commodity's pair on the current graph state, and records its index
    /// in `split_of`: a pair is looked up once per solve.
    ///
    /// The split of a unit demand depends on the graph state and the
    /// endpoints alone, so it is computed once per `(src, dst)` and graph
    /// epoch ([`SplitCache`]) — one unit-weight search per distinct source
    /// with a pair still missing — and every start is the cached split
    /// scaled by the demand: a warmed-up, a fresh and a per-worker scratch
    /// start at the same bits.
    fn cache_splits(&self, scratch: &mut FmcfScratch) -> Result<(), Disconnected> {
        let graph = self.graph;
        scratch.splits.start_solve(graph.epoch());

        let mut i = 0;
        while i < scratch.order.len() {
            let src = self.commodities[scratch.order[i]].src;
            let mut j = i;
            scratch.targets.clear();
            // Missing pairs are cached in `targets` order from `fresh` on.
            let fresh = scratch.splits.splits.len();
            while j < scratch.order.len() && self.commodities[scratch.order[j]].src == src {
                let c = scratch.order[j];
                let dst = self.commodities[c].dst;
                scratch.split_of[c] = match scratch.splits.pairs.get(&(src, dst)) {
                    Some(&split) => split,
                    None => match scratch.targets.iter().position(|&t| t == dst) {
                        Some(t) => fresh + t,
                        None => {
                            scratch.targets.push(dst);
                            fresh + scratch.targets.len() - 1
                        }
                    },
                };
                j += 1;
            }
            if !scratch.targets.is_empty() {
                scratch
                    .engine
                    .single_source_all_targets(graph, src, &scratch.targets, |_| 1.0);
                for &c in &scratch.order[i..j] {
                    let Commodity { id, dst, .. } = self.commodities[c];
                    if scratch.split_of[c] >= fresh && !scratch.engine.settled(dst) {
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
    /// Returns the mixtures, and whether every commodity was seeded: then
    /// `loads` is the mixtures' path-by-path sum.
    fn start(
        &self,
        cost: &PowerFlowCost,
        config: &FmcfSolverConfig,
        scratch: &mut FmcfScratch,
        loads: &mut [f64],
    ) -> Result<(Vec<Mixture>, bool), Disconnected> {
        self.cache_splits(scratch)?;
        let FmcfScratch {
            splits,
            split_of,
            path_links,
            warm,
            dirty,
            dirty_mark,
            ..
        } = &mut *scratch;
        let cached = warm
            .as_ref()
            .filter(|entry| entry.matches(self.graph, config, cost));
        let rows: HashMap<usize, usize, NodeHash> = cached
            .iter()
            .flat_map(|entry| entry.keys.iter().enumerate().map(|(row, key)| (key.0, row)))
            .collect();
        let is_dirty = |l: &LinkId| dirty_mark.get(l.index()).copied().unwrap_or(false);

        path_links.clear();
        let mut mixtures = Vec::with_capacity(self.commodities.len());
        let mut seeded = true;
        for (commodity, &split) in self.commodities.iter().zip(&*split_of) {
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
                    for (path, flow) in seed.paths() {
                        for &l in path.links() {
                            loads[l.index()] += flow;
                            path_links.push(l);
                        }
                    }
                    seed
                }
                None => {
                    seeded = false;
                    let split = &splits.splits[split];
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
        Ok((mixtures, seeded))
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
        cost: &PowerFlowCost,
        config: &FmcfSolverConfig,
        scratch: &mut FmcfScratch,
    ) -> Result<FmcfSolution, Disconnected> {
        let graph = self.graph;
        let n = self.commodities.len();
        // Loads stay link-indexed even with no commodities so `edge_load`
        // keeps returning 0.0 for every link.
        let mut solution = FmcfSolution {
            loads: vec![0.0; graph.link_count()],
            mixtures: Vec::new(),
            iterations: 0,
            converged: n == 0,
            relative_gap: if n == 0 { 0.0 } else { f64::INFINITY },
            cost: 0.0,
            dense: OnceLock::new(),
        };
        if n == 0 {
            solution.cost = cost.cost_over(&solution.loads, &[]);
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

        // Only the links some chosen path touches ever carry load, so only
        // their weights ever leave the weight at zero load.
        scratch.prepare(&self.commodities, graph, cost.weight(0.0));

        let loads = &mut solution.loads;
        let (mut mixtures, seeded) = self.start(cost, config, scratch, loads)?;
        let mut objective = cost.objective_over(loads, &scratch.active);
        // The share of every demand still on the start.
        let mut start_share = 1.0;

        for it in 0..config.max_iterations {
            solution.iterations = it + 1;
            // Marginal costs at the current loads. Dijkstra may traverse
            // any link; off the active set the load is zero and the link
            // already holds its weight.
            for &l in &scratch.active {
                scratch.weights[l.index()] = cost.weight(loads[l.index()]);
            }
            // The Frank–Wolfe gap: the linearised cost of the iterate less
            // that of the all-or-nothing assignment. (Links the step adds
            // to the active set carry no load and add `+0.0`.)
            let weight = |l: &LinkId| scratch.weights[l.index()];
            let active = scratch.active.iter();
            let at_iterate: f64 = active.map(|l| weight(l) * loads[l.index()]).sum();
            // (0/0, an instance of no cost at all, is a zero gap.)
            let gap = |at_target: f64| ((at_iterate - at_target) / objective.abs()).max(0.0);

            // At the start the step's cost may be certified without a
            // search; a gap within tolerance then ends the solve.
            let certify = it == 0 && graph.down_link_count() == 0;
            #[cfg(test)]
            let certify = certify && !scratch.uncertified;
            if let Some(at_target) = certify.then(|| self.certified_at_target(scratch)).flatten() {
                if gap(at_target) <= config.tolerance {
                    solution.relative_gap = gap(at_target);
                    solution.converged = true;
                    #[cfg(test)]
                    {
                        scratch.certified_exits += 1;
                    }
                    break;
                }
            }

            self.all_or_nothing(scratch)?;
            scratch.register_active_paths();
            let weight = |l: &LinkId| scratch.weights[l.index()];
            let spans = self.commodities.iter().zip(&scratch.path_spans);
            let at_target: f64 = spans
                .map(|(commodity, &(start, len))| {
                    let path = &scratch.path_links[start..start + len];
                    commodity.demand * path.iter().map(weight).sum::<f64>()
                })
                .sum();
            solution.relative_gap = gap(at_target);
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
                cost.objective_over(&scratch.blended, &scratch.active)
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

            let new_objective = cost.objective_over(loads, &scratch.active);
            let improvement = (objective - new_objective) / objective.abs().max(1e-12);
            objective = new_objective;
            if improvement.abs() < config.tolerance {
                solution.converged = true;
                break;
            }
        }

        // The mixtures: the start at what is left of its share, then each
        // step's path at the step's share (equal paths merged), without
        // the negligible entries. The loads are their per-link sum. When
        // every commodity kept its seed whole — no step was blended in
        // and nothing pruned — the start added those very paths at those
        // flows in this order, and its loads are kept.
        let mut untouched = seeded && scratch.step_shares.is_empty();
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
            untouched &= !mixture.prune(commodity.demand);
        }
        if untouched {
            #[cfg(test)]
            {
                scratch.kept_start_loads += 1;
            }
        } else {
            for &l in &scratch.active {
                loads[l.index()] = 0.0;
            }
            for mixture in &mixtures {
                mixture.add_to(loads);
            }
        }
        solution.cost = cost.cost_over(loads, &scratch.active);
        solution.mixtures = mixtures;

        if warm {
            scratch.warm = Some(WarmEntry {
                keys: self.commodities.iter().map(warm_key).collect(),
                solution: solution.clone(),
                graph_epoch: graph.epoch(),
                config: *config,
                cost: *cost,
            });
            scratch.consume_dirty();
        }
        Ok(solution)
    }

    /// Returns the cached solution when the problem is bit-identical to
    /// the cached one and no dirty link touches its flows.
    fn try_warm_shortcut(
        &self,
        cost: &PowerFlowCost,
        config: &FmcfSolverConfig,
        scratch: &FmcfScratch,
    ) -> Option<FmcfSolution> {
        let entry = scratch.warm.as_ref()?;
        let loads = &entry.solution.loads;
        let loaded = |l: &LinkId| loads.get(l.index()).is_some_and(|&x| x != 0.0);
        let keys = self.commodities.iter().map(warm_key);
        let same = entry.matches(self.graph, config, cost)
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

impl FmcfSolution {
    /// Number of commodities in the solution.
    pub fn commodity_count(&self) -> usize {
        self.mixtures.len()
    }

    /// Commodity `c`'s unit split (distinct paths, one handle per pair and
    /// split cache) and the flow per unit of its weights.
    pub fn split(&self, c: usize) -> Option<(&Arc<[WeightedPath]>, f64)> {
        let (paths, flow) = self.mixtures[c].split.as_ref()?;
        Some((paths, *flow))
    }

    /// Commodity `c`'s Frank–Wolfe step paths, distinct, with their flows.
    pub fn steps(&self, c: usize) -> &[WeightedPath] {
        &self.mixtures[c].steps
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
    use dcn_topology::{builders, Network, NodeKind};

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

    /// Solves `commodities` on `graph` with a fresh scratch.
    fn solve(
        graph: &GraphCsr,
        commodities: Vec<Commodity>,
        cost: &PowerFlowCost,
        config: &FmcfSolverConfig,
    ) -> Result<FmcfSolution, Disconnected> {
        FmcfProblem::with_graph(graph, commodities).solve_with(
            cost,
            config,
            &mut FmcfScratch::new(),
        )
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
        let commodity = Commodity {
            id: 0,
            src: t.source(),
            dst: t.sink(),
            demand: 8.0,
        };
        let sol = solve(
            &t.csr(),
            vec![commodity],
            &quadratic_cost(),
            &tight_config(),
        )
        .unwrap();
        let cost = sol.cost;
        assert!(
            close(cost, 8.0 * 8.0 / 4.0, 0.02),
            "cost {cost} should approach the even split optimum 16"
        );
        // Each forward link should carry roughly 2 units.
        let mut carried = 0.0;
        for l in t.csr().links_between(t.source(), t.sink()) {
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
        let graph = t.csr();
        let sol = solve(
            &graph,
            commodities.clone(),
            &quadratic_cost(),
            &tight_config(),
        )
        .unwrap();
        // Every demand is at least 1.5: tighter than 1e-6 absolute.
        assert_conserves(&graph, &sol, &commodities, 1e-7);
    }

    #[test]
    fn two_commodities_avoid_each_other_on_diamond() {
        // Two commodities between the same endpoints over two disjoint
        // 2-hop routes: the optimum sends them on different routes.
        let t = builders::parallel(2, 100.0);
        let commodity = |id| Commodity {
            id,
            src: t.source(),
            dst: t.sink(),
            demand: 2.0,
        };
        let commodities = vec![commodity(0), commodity(1)];
        let sol = solve(&t.csr(), commodities, &quadratic_cost(), &tight_config()).unwrap();
        // Total forward load 4 split over 2 links: 2 each, cost 8 (vs 16 if
        // they shared one link).
        let cost = sol.cost;
        assert!(close(cost, 8.0, 0.02), "cost {cost} should approach 8");
    }

    #[test]
    fn fractional_cost_is_below_any_single_path_cost() {
        // The relaxation must lower-bound the best single-path routing.
        let t = builders::parallel(3, 100.0);
        let demand = 6.0;
        let commodity = Commodity {
            id: 0,
            src: t.source(),
            dst: t.sink(),
            demand,
        };
        let cost_fn = quadratic_cost();
        let sol = solve(&t.csr(), vec![commodity], &cost_fn, &tight_config()).unwrap();
        let single_path_cost = demand * demand; // all on one link
        assert!(sol.cost <= single_path_cost + 1e-6);
    }

    #[test]
    fn the_overload_penalty_spreads_load() {
        let t = builders::parallel(2, 2.0);
        let commodity = Commodity {
            id: 0,
            src: t.source(),
            dst: t.sink(),
            demand: 4.0,
        };
        // Nearly linear cost => without capacities a single path would be fine.
        let cost = PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 1.01, 2.0));
        let config = FmcfSolverConfig::default();
        let sol = solve(&t.csr(), vec![commodity], &cost, &config).unwrap();
        for l in t.csr().links_between(t.source(), t.sink()) {
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
        let sol = solve(&t.csr(), vec![], &quadratic_cost(), &tight_config()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.commodity_count(), 0);
    }

    #[test]
    fn total_loads_is_consistent_with_commodity_flows() {
        let t = builders::fat_tree(4);
        let hosts = t.hosts();
        let commodities = vec![
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
        ];
        let sol = solve(&t.csr(), commodities, &quadratic_cost(), &tight_config()).unwrap();
        let loads = sol.total_loads();
        assert_eq!(loads.len(), t.network.link_count());
        for (e, &load) in loads.iter().enumerate() {
            let expected: f64 = (0..sol.commodity_count())
                .map(|c| sol.commodity_flows(c)[e])
                .sum();
            assert!((load - expected).abs() < 1e-12);
            assert_eq!(load, sol.edge_load(LinkId(e)));
        }
    }

    #[test]
    #[should_panic(expected = "non-positive demand")]
    fn zero_demand_rejected() {
        let t = builders::line(2);
        FmcfProblem::with_graph(
            &t.csr(),
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
        assert!(close(resolved.cost, first.cost, 1e-6));
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
        // exact (to 1e-7 of demands of at least 1.5) and the objectives
        // agree to solver tolerance.
        assert_conserves(&graph, &warm, &grown, 1e-7);
        assert!(
            close(warm.cost, cold.cost, 1e-3),
            "warm {} vs cold {}",
            warm.cost,
            cold.cost
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
                    .map(|&l| sol.commodity_flows(ci)[l.index()])
                    .sum();
                let into: f64 = graph
                    .in_links(v)
                    .iter()
                    .map(|&l| sol.commodity_flows(ci)[l.index()])
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
                    .filter(|&l| start.commodity_flows(0)[l.index()] != 0.0)
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
                        start.commodity_flows(0)[l.index()],
                        demand / (half * half) as f64,
                        "k={k}: every core path carries d/(k/2)^2"
                    );
                }
                for &l in &used {
                    let on_host =
                        kind(graph.link_src(l)).is_host() || kind(graph.link_dst(l)).is_host();
                    if on_host {
                        assert_eq!(start.commodity_flows(0)[l.index()], demand);
                    } else if let Some(expected) = fabric_flow {
                        assert_eq!(
                            start.commodity_flows(0)[l.index()],
                            expected,
                            "k={k} to {dst}"
                        );
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
            assert_eq!(start.commodity_flows(0)[l.index()], 1.5);
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
                // Capacity 1 is below most link loads, so the quadratic
                // penalty is active; at capacity 10 it is not.
                for capacity in [10.0, 1.0] {
                    let power = PowerFunction::new(sigma, 1.0, alpha, capacity).unwrap();
                    let cost = PowerFlowCost::new(power);
                    let config = FmcfSolverConfig::default();
                    let mut scratch = FmcfScratch::new();
                    let start = start_of(&problem, &mut scratch);
                    let loads = start.total_loads();
                    if capacity == 1.0 {
                        assert!(loads.iter().any(|&x| x > 1.5), "the penalty must be active");
                    }
                    let weights: Vec<f64> = loads.iter().map(|&x| cost.weight(x)).collect();
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
                    let objective: f64 = loads.iter().map(|&x| cost.penalised(x)).sum();
                    let gap = at_start - all_or_nothing;
                    assert!(
                        gap.abs() <= 1e-12 * objective,
                        "k={k} alpha={alpha} sigma={sigma} capacity={capacity}: \
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
                pristine.commodity_flows(0)[l.index()] != 0.0
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
        let stale = scratch.splits.splits[0].paths.clone();
        assert_eq!(start_of(&problem, &mut scratch), first);
        assert_eq!(scratch.splits.path_links, held);
        assert!(scratch
            .splits
            .splits
            .iter()
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

    /// A solve whose every commodity kept its warm seed whole keeps the
    /// start's loads: on warm-start sweeps — demands rescaled, commodities
    /// leaving and arriving — over a fat-tree (whose seeds certify at once),
    /// the fat-tree with links down and BCube at `α = 4` (which blend),
    /// every solve's loads equal the rebuild from its mixtures to the bit,
    /// whether the rebuild was skipped or not.
    #[test]
    fn kept_start_loads_are_the_rebuilt_loads() {
        let t = builders::fat_tree(4);
        let mut degraded = t.csr();
        let fabric: Vec<LinkId> = (0..degraded.link_count())
            .map(LinkId)
            .filter(|&l| !t.network.node(degraded.link_src(l)).kind.is_host())
            .filter(|&l| !t.network.node(degraded.link_dst(l)).kind.is_host())
            .collect();
        for &l in fabric.iter().step_by(11).take(3) {
            degraded.fail_link(l);
        }
        let b = builders::bcube(4, 1);
        let quadratic = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let corpus = [
            (t.csr(), t.hosts.clone(), quadratic),
            (degraded, t.hosts.clone(), quadratic),
            (
                b.csr(),
                b.hosts,
                PowerFunction::speed_scaling_only(1.0, 4.0, 10.0),
            ),
        ];
        let config = FmcfSolverConfig::default();
        let (mut kept, mut rebuilt) = (0, 0);
        for (graph, hosts, power) in &corpus {
            let cost = PowerFlowCost::new(*power);
            let mut scratch = FmcfScratch::new();
            scratch.set_warm_start(true);
            let mut live = host_pairs(hosts, 10);
            let mut next_id = live.iter().map(|c| c.id).max().unwrap() + 1;
            for step in 0..12 {
                match step % 3 {
                    0 => live.iter_mut().for_each(|c| c.demand *= 1.25),
                    1 => drop(live.remove(step % live.len())),
                    _ => {
                        live.push(Commodity {
                            id: next_id,
                            src: hosts[next_id % hosts.len()],
                            dst: hosts[(next_id * 5 + 3) % hosts.len()],
                            demand: 1.0,
                        });
                        next_id += 1;
                    }
                }
                let before = scratch.kept_start_loads;
                let sol = FmcfProblem::with_graph(graph, live.clone())
                    .solve_with(&cost, &config, &mut scratch)
                    .unwrap();
                let mut sum = vec![0.0; graph.link_count()];
                for mixture in &sol.mixtures {
                    mixture.add_to(&mut sum);
                }
                let bits = |loads: &[f64]| loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sol.loads), bits(&sum), "step {step}");
                if scratch.kept_start_loads > before {
                    kept += 1;
                } else {
                    rebuilt += 1;
                }
            }
        }
        assert!(kept >= 4 && rebuilt >= 4, "{kept} kept, {rebuilt} rebuilt");

        // A seed entry under the prune floor goes, and the loads are
        // rebuilt without it.
        let graph = t.csr();
        let cost = PowerFlowCost::new(quadratic);
        let mut scratch = FmcfScratch::new();
        scratch.set_warm_start(true);
        let mut live = host_pairs(&t.hosts, 6);
        FmcfProblem::with_graph(&graph, live.clone())
            .solve_with(&cost, &config, &mut scratch)
            .unwrap();
        let first = live[0];
        let sliver = WeightedPath {
            path: graph.shortest_path(first.src, first.dst).unwrap(),
            weight: first.demand * 1e-14,
        };
        let entry = scratch.warm.as_mut().unwrap();
        entry.solution.mixtures[0].steps.push(sliver);
        live.iter_mut().for_each(|c| c.demand *= 2.0);
        let sol = FmcfProblem::with_graph(&graph, live)
            .solve_with(&cost, &config, &mut scratch)
            .unwrap();
        let mut sum = vec![0.0; graph.link_count()];
        for mixture in &sol.mixtures {
            mixture.add_to(&mut sum);
        }
        assert_eq!(sol.loads, sum);
        assert_eq!((sol.iterations, scratch.kept_start_loads), (1, 0));
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
        let config = FmcfSolverConfig::default();
        let mut blended = 0;
        for (graph, hosts) in &corpus {
            let commodities = host_pairs(hosts, 14);
            let sol = solve(graph, commodities.clone(), &cost, &config).unwrap();
            blended += usize::from(sol.iterations > 1);
            assert_conserves(graph, &sol, &commodities, 1e-12);
            for (c, commodity) in commodities.iter().enumerate() {
                let demand = commodity.demand;
                let mut row = vec![0.0; graph.link_count()];
                let mut total = 0.0;
                for (path, flow) in sol.mixtures[c].paths() {
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
        let graph = GraphCsr::from_network(&net);
        let problem = FmcfProblem::with_graph(&graph, vec![commodity(4, b), commodity(7, c)]);
        let mut scratch = FmcfScratch::new();
        for _ in 0..2 {
            assert_eq!(
                problem.solve_with(&quadratic_cost(), &tight_config(), &mut scratch),
                Err(Disconnected { commodity: 7 })
            );
        }
        // The scratch is none the worse for it.
        let routable = FmcfProblem::with_graph(&graph, vec![commodity(4, b)]);
        assert_eq!(
            routable.solve_with(&quadratic_cost(), &tight_config(), &mut scratch),
            solve(
                &graph,
                vec![commodity(4, b)],
                &quadratic_cost(),
                &tight_config()
            )
        );
    }

    #[test]
    fn power_flow_cost_includes_idle_share() {
        let f = PowerFunction::new(10.0, 1.0, 2.0, 5.0).unwrap();
        let cost = PowerFlowCost::new(f);
        // cost(x) = x^2 + (10/5) x = x^2 + 2x
        assert!(close(cost.cost(3.0), 9.0 + 6.0, 1e-12));
        assert!(close(cost.marginal(3.0), 6.0 + 2.0, 1e-12));
        assert_eq!(cost.cost(0.0), 0.0);
    }

    /// Solves `pairs` host pairs on `graph` with `scratch` and with a fresh
    /// scratch: the solutions must be equal, and so must every link weight
    /// the last iteration searched under. Returns the iteration count.
    fn reused_equals_fresh(
        graph: &GraphCsr,
        hosts: &[NodeId],
        pairs: usize,
        cost: &PowerFlowCost,
        scratch: &mut FmcfScratch,
    ) -> usize {
        let problem = FmcfProblem::with_graph(graph, host_pairs(hosts, pairs));
        let config = FmcfSolverConfig::default();
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
    /// fat-tree 4 → 8 → 4 — and each solution equals a fresh scratch's, gap
    /// and iteration count included.
    #[test]
    fn a_reused_scratch_never_reads_a_stale_weight() {
        let power = |sigma, alpha, capacity| {
            PowerFlowCost::new(PowerFunction::new(sigma, 1.0, alpha, capacity).unwrap())
        };
        let (t4, t8) = (builders::fat_tree(4), builders::fat_tree(8));
        let (mut g4, g8) = (t4.csr(), t8.csr());
        let (h4, h8) = (t4.hosts(), t8.hosts());
        let up = g4.shortest_path(h4[0], h4[15]).unwrap().links().to_vec();
        let mut scratch = FmcfScratch::new();
        let mut iterations = vec![
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 2.0, 10.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 9, &power(3.0, 2.0, 1.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 3.0, 1.0), &mut scratch),
        ];
        g4.fail_link(up[1]);
        g4.fail_link(up[2]);
        iterations.extend([
            reused_equals_fresh(&g4, h4, 9, &power(0.0, 2.0, 1.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 3.0, 10.0), &mut scratch),
            reused_equals_fresh(&g8, h8, 9, &power(0.0, 2.0, 10.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 9, &power(0.0, 2.0, 1.0), &mut scratch),
        ]);
        g4.restore_link(up[1]);
        g4.restore_link(up[2]);
        iterations.extend([
            reused_equals_fresh(&g4, h4, 9, &power(3.0, 3.0, 1.0), &mut scratch),
            reused_equals_fresh(&g4, h4, 14, &power(0.0, 2.0, 10.0), &mut scratch),
        ]);
        // Frank–Wolfe blends on the degraded fabric, so weights moved off
        // the idle weight within a solve, not only at its start.
        assert!(iterations.iter().any(|&i| i > 1), "{iterations:?}");
    }

    /// A solve's `cost` sums its active links only and equals the sum over
    /// every link to the bit: on graphs where Frank–Wolfe blends (BCube at
    /// α = 4) or not, on one whose every link is loaded, and at the `+0.0`
    /// of a problem with no commodity.
    #[test]
    fn the_solve_cost_is_the_dense_sum_to_the_bit() {
        let line = builders::line(2);
        let (a, b) = (line.hosts()[0], line.hosts()[1]);
        let commodity = |id, src, dst| Commodity {
            id,
            src,
            dst,
            demand: 1.5,
        };
        let mut cases = vec![(line.csr(), vec![commodity(0, a, b), commodity(1, b, a)])];
        for t in [builders::fat_tree(4), builders::bcube(4, 1)] {
            for count in [0, 1, 14] {
                cases.push((t.csr(), host_pairs(t.hosts(), count)));
            }
        }
        let mut blended = 0;
        for cost in [
            PowerFlowCost::new(PowerFunction::new(3.0, 1.0, 2.0, 10.0).unwrap()),
            PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 4.0, 10.0)),
            quadratic_cost(),
        ] {
            for (graph, commodities) in &cases {
                let sol = solve(graph, commodities.clone(), &cost, &Default::default()).unwrap();
                let dense: f64 = sol.total_loads().iter().map(|&x| cost.cost(x)).sum();
                assert_eq!(sol.cost.to_bits(), dense.to_bits(), "{commodities:?}");
                blended += usize::from(sol.iterations > 1);
            }
        }
        assert!(blended > 0);
        let loaded = |(graph, commodities): &(GraphCsr, Vec<Commodity>)| {
            let sol = solve(
                graph,
                commodities.clone(),
                &quadratic_cost(),
                &Default::default(),
            );
            sol.unwrap().total_loads().iter().all(|&x| x > 0.0)
        };
        assert!(loaded(&cases[0]), "every link of the line is loaded");
        let empty = &cases[1];
        assert!(empty.1.is_empty());
        let sol = solve(&empty.0, Vec::new(), &quadratic_cost(), &Default::default());
        assert_eq!(sol.unwrap().cost.to_bits(), 0.0f64.to_bits());
    }

    /// A splitmix64 stream: seeded weights without a dependency.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self, below: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % below as u64) as usize
        }
    }

    /// The graphs the certificate is held to: fat-trees k = 4 and 8,
    /// leaf–spine, BCube(4,1), two lines (the shorter one's two nodes are
    /// each other's pendants), two parallel links, and a fat-tree with one
    /// aggregation–core link down.
    fn certificate_corpus() -> Vec<(&'static str, GraphCsr, Vec<NodeId>)> {
        let mut corpus: Vec<_> = [
            ("fat-tree(4)", builders::fat_tree(4)),
            ("fat-tree(8)", builders::fat_tree(8)),
            ("leaf-spine", builders::leaf_spine(4, 3, 4)),
            ("bcube(4,1)", builders::bcube(4, 1)),
            ("line(2)", builders::line(2)),
            ("line(3)", builders::line(3)),
            ("parallel(2)", builders::parallel(2, 10.0)),
        ]
        .into_iter()
        .map(|(name, t)| (name, t.csr(), t.hosts))
        .collect();
        let t = builders::fat_tree(4);
        corpus.push(("fat-tree(4), one link down", agg_core_down(&t), t.hosts));
        corpus
    }

    /// A fat-tree's graph with its first aggregation-to-core link down.
    fn agg_core_down(t: &builders::BuiltTopology) -> GraphCsr {
        let mut graph = t.csr();
        let kind = |v: NodeId| t.network.node(v).kind;
        let up = (0..graph.link_count())
            .map(LinkId)
            .find(|&l| {
                kind(graph.link_src(l)) == NodeKind::AggregationSwitch
                    && kind(graph.link_dst(l)) == NodeKind::CoreSwitch
            })
            .unwrap();
        graph.fail_link(up);
        graph
    }

    /// Every distance the certificate accepts is the search's to the bit,
    /// under seeded weights from small sets with exact zeros (ties
    /// everywhere). Lowering a non-forward link's weight until a detour
    /// over it is strictly cheaper than a node's potential makes the
    /// certificate refuse.
    #[test]
    fn the_certificate_accepts_only_the_search_distances() {
        let sets: [&[f64]; 3] = [&[0.0, 0.5, 1.0], &[0.0, 0.0, 1.0, 2.0], &[2.0, 2.5, 3.0]];
        let mut stream = Stream(7);
        let mut engine = ShortestPathEngine::new();
        let mut programs = HopPrograms::default();
        for (name, graph, hosts) in certificate_corpus() {
            let (mut accepted, mut refused, mut detours) = (0, 0, 0);
            for trial in 0..24 {
                let set = sets[trial % sets.len()];
                let mut weights: Vec<f64> = (0..graph.link_count())
                    .map(|_| set[stream.next(set.len())])
                    .collect();
                programs.start_solve(&graph);
                for &src in &hosts {
                    if !programs.potentials(&graph, src, &weights) {
                        refused += 1;
                        continue;
                    }
                    accepted += 1;
                    engine.single_source_all_targets(&graph, src, &[], |l| weights[l.index()]);
                    for &dst in hosts.iter().filter(|&&dst| dst != src) {
                        let certified = programs.distance(&graph, dst, &weights).unwrap();
                        let searched = engine.distance(dst).unwrap();
                        assert_eq!(
                            certified.to_bits(),
                            searched.to_bits(),
                            "{name}: {src} -> {dst}"
                        );
                    }

                    // A link into an earlier or the same hop layer, from a
                    // node of lower potential: at weight zero it is a
                    // strictly cheaper detour.
                    let parent = programs.pendant_parent[src.index()];
                    let root = if parent == NONE {
                        src.index()
                    } else {
                        parent as usize
                    };
                    engine.single_source_all_targets(&graph, NodeId(root), &[], |_| 1.0);
                    let hops: Vec<Option<f64>> = (0..graph.node_count())
                        .map(|v| engine.distance(NodeId(v)))
                        .collect();
                    let reached = |v: usize| programs.stamp[v] == programs.run;
                    let detour = (0..graph.link_count()).map(LinkId).find(|&l| {
                        let (u, v) = (graph.link_src(l).index(), graph.link_dst(l).index());
                        graph.is_link_up(l)
                            && reached(u)
                            && reached(v)
                            && v != root
                            && hops[v] <= hops[u]
                            && programs.pi[u] < programs.pi[v]
                    });
                    let Some(l) = detour else { continue };
                    let v = graph.link_dst(l);
                    let pi_v = programs.pi[v.index()];
                    let kept = std::mem::replace(&mut weights[l.index()], 0.0);
                    assert!(!programs.potentials(&graph, src, &weights), "{name}: {l}");
                    engine.single_source_all_targets(&graph, src, &[], |l| weights[l.index()]);
                    assert!(engine.distance(v).unwrap() < pi_v, "{name}: {l}");
                    weights[l.index()] = kept;
                    detours += 1;
                }
            }
            assert!(accepted > 0, "{name}: nothing accepted");
            if !name.starts_with("line") && !name.starts_with("parallel") {
                assert!(
                    refused > 0 && detours > 0,
                    "{name}: {refused} refused, {detours} detours"
                );
            }
        }
    }

    /// The certificate changes no solve: with it switched off, one scratch
    /// per side solves the certificate corpus (cold, then as a warm-start
    /// sweep) under costs that certify and costs that blend, and every
    /// solution is `==`, its gap's bits too. The switched-off side runs
    /// one all-or-nothing step more per certified exit, and no other.
    #[test]
    fn solves_are_equal_with_and_without_the_certificate() {
        let costs = [
            PowerFunction::speed_scaling_only(1.0, 2.0, 10.0),
            PowerFunction::speed_scaling_only(1.0, 4.0, 10.0),
            PowerFunction::new(3.0, 1.0, 2.0, 1.0).unwrap(),
        ];
        let config = FmcfSolverConfig::default();
        let (mut on, mut off) = (FmcfScratch::new(), FmcfScratch::new());
        off.uncertified = true;
        let mut blended = 0;
        for (name, graph, hosts) in certificate_corpus() {
            for power in costs {
                let cost = PowerFlowCost::new(power);
                for warm in [false, true] {
                    on.set_warm_start(warm);
                    off.set_warm_start(warm);
                    let mut live = host_pairs(&hosts, 14);
                    for step in 0..4 {
                        live.iter_mut().for_each(|c| c.demand *= 1.25);
                        if step == 2 {
                            live.remove(0);
                        }
                        let problem = FmcfProblem::with_graph(&graph, live.clone());
                        let a = problem.solve_with(&cost, &config, &mut on).unwrap();
                        let b = problem.solve_with(&cost, &config, &mut off).unwrap();
                        assert_eq!(a, b, "{name} {power:?} warm {warm} step {step}");
                        assert_eq!(a.relative_gap.to_bits(), b.relative_gap.to_bits());
                        blended += usize::from(a.iterations > 1);
                    }
                }
            }
        }
        assert!(on.certified_exits > 0 && blended > 0);
        assert_eq!(on.aon_rounds + on.certified_exits, off.aon_rounds);
        assert_eq!(off.certified_exits, 0);
    }

    /// Relaxes `flows` interval by interval on one scratch, as the
    /// per-interval relaxation does under the default configuration, and
    /// returns the non-empty intervals, the certified exits among them and
    /// the all-or-nothing steps run.
    fn relax_counts(
        graph: &GraphCsr,
        flows: &dcn_flow::FlowSet,
        power: PowerFunction,
    ) -> (usize, usize, usize) {
        let cost = PowerFlowCost::new(power);
        let mut scratch = FmcfScratch::new();
        let mut solved = 0;
        for interval in flows.intervals() {
            let commodities: Vec<Commodity> = flows
                .active_in_interval(&interval)
                .into_iter()
                .map(|id| {
                    let f = flows.flow(id);
                    Commodity {
                        id,
                        src: f.src,
                        dst: f.dst,
                        demand: f.density(),
                    }
                })
                .collect();
            solved += usize::from(!commodities.is_empty());
            FmcfProblem::with_graph(graph, commodities)
                .solve_with(&cost, &FmcfSolverConfig::default(), &mut scratch)
                .unwrap();
        }
        (solved, scratch.certified_exits, scratch.aon_rounds)
    }

    /// The clock-free gate of the certificate: on the `offline_dcfsr`
    /// benchmark instance (fat-tree k = 8, 60 flows, seed 1, `P(x) = x^2`)
    /// every interval exits certified and no all-or-nothing step runs.
    /// With a link down, and on BCube(4,1) at `α = 4`, the solves take the
    /// search exactly as often as before the certificate existed (the
    /// counts are the iterations those solves ran then): the fallback
    /// never adds one.
    #[test]
    fn the_offline_instance_exits_certified_without_a_search() {
        use dcn_flow::workload::UniformWorkload;
        let flows = |hosts: &[NodeId]| {
            UniformWorkload::paper_defaults(60, 1)
                .generate(hosts)
                .unwrap()
        };
        let x2 = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let t = builders::fat_tree_with_capacity(8, 10.0);
        let fat_tree_flows = flows(t.hosts());
        assert_eq!(relax_counts(&t.csr(), &fat_tree_flows, x2), (119, 119, 0));
        assert_eq!(
            relax_counts(&agg_core_down(&t), &fat_tree_flows, x2),
            (119, 0, 119)
        );
        let b = builders::bcube_with_capacity(4, 1, 10.0);
        let x4 = PowerFunction::speed_scaling_only(1.0, 4.0, 10.0);
        assert_eq!(
            relax_counts(&b.csr(), &flows(b.hosts()), x4),
            (119, 0, 6926)
        );
    }
}
