//! The policy abstraction of the online engine: the [`OnlinePolicy`]
//! trait, the [`PolicyAction`] / [`RatePlan`] vocabulary policies answer
//! with, [`create_policy`], which builds a policy from its name, and two
//! small shared helpers ([`PathCache`], [`CapacityLedger`]) the
//! rate-assigning policies build their plans with. A plan is rebuilt at
//! every event for every in-flight flow, so it copies no route: the engine
//! owns the run's [`PathCache`] and lends it to every
//! [`OnlinePolicy::on_event`], and a [`RateAssignment`] names its route by
//! the cache's [`Route`] handle, a pair of integers.

use super::engine::WorldView;
use super::policies::{EdfPolicy, HybridPolicy, ResolvePolicy, SrptPolicy};
use crate::context::SolverContext;
use crate::error::SolveError;
use dcn_flow::FlowId;
use dcn_power::PowerFunction;
use dcn_topology::{BfsTree, GraphCsr, NodeHash, NodeId, Path};
use std::collections::HashMap;
use std::fmt;

/// One constant-rate assignment of a [`RatePlan`]: serve `flow` along
/// `route` at `rate` until the next event.
#[derive(Debug, Clone, Copy)]
pub struct RateAssignment {
    /// The flow to serve (original instance id).
    pub flow: FlowId,
    /// The routing of the assignment: a handle into the [`PathCache`] the
    /// engine lent the policy.
    pub route: Route,
    /// The constant rate, in volume per unit time. Assignments with a
    /// non-positive or non-finite rate are ignored by the engine.
    pub rate: f64,
}

/// A policy-computed set of rates, valid from the current event until the
/// next one. The engine derives the next decision point itself: the
/// earliest instant at which a rate finishes its flow, or reaches the
/// deadline of a flow it cannot finish in time. Its assignments are plain
/// values, so building and dropping a plan touches no path.
#[derive(Debug, Clone, Default)]
pub struct RatePlan {
    /// The rate assignments, at most one per flow (the engine keeps the
    /// first and ignores duplicates). In-flight flows without an
    /// assignment simply idle until the next event.
    pub rates: Vec<RateAssignment>,
}

impl RatePlan {
    /// Adds one assignment.
    pub fn assign(&mut self, flow: FlowId, route: Route, rate: f64) {
        self.rates.push(RateAssignment { flow, route, rate });
    }
}

/// What an [`OnlinePolicy`] decided at an event.
#[derive(Debug, Clone)]
pub enum PolicyAction {
    /// Re-solve the full residual instance with the engine's wrapped
    /// [`crate::Algorithm`] and commit its schedule up to the next event —
    /// the expensive, clairvoyant-quality decision.
    Resolve,
    /// Commit the given rates up to the next event — the cheap,
    /// priority-rule decision.
    Assign(RatePlan),
}

/// A pluggable per-event decision rule of the
/// [`OnlineEngine`](super::OnlineEngine).
///
/// The engine calls [`OnlinePolicy::on_event`] once per event batch, after
/// it has applied the batch's topology changes, retired finished and
/// expired flows and admitted the arrivals through its
/// [`AdmissionRule`](super::AdmissionRule); the returned [`PolicyAction`]
/// is committed until the next event. Everything a policy decides from is
/// in the [`WorldView`]: the clock, the in-flight flows and what each still
/// needs. The built-in policies keep only caches between events (routes
/// and the capacity ledger), so a decision depends on nothing but the view
/// and the context's current graph.
pub trait OnlinePolicy: fmt::Debug + Send {
    /// The name [`create_policy`] builds the policy by.
    fn name(&self) -> &str;

    /// Decides what to do at the event batch `world` is viewed at. The
    /// routes of a [`RatePlan`] are handles into `routes`, the run's one
    /// route table.
    ///
    /// # Errors
    ///
    /// Policies propagate [`SolveError`]s of the solver primitives they
    /// consult; the engine aborts the run on them.
    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        routes: &mut PathCache,
    ) -> Result<PolicyAction, SolveError>;
}

/// Every name [`create_policy`] knows, in the documented order.
pub const POLICY_NAMES: [&str; 4] = ["resolve", "edf", "srpt", "hybrid"];

/// Instantiates the built-in policy named `name`; its
/// [`OnlinePolicy::name`] is `name`.
///
/// # Errors
///
/// Returns [`SolveError::UnknownPolicy`] for a name not in
/// [`POLICY_NAMES`].
pub fn create_policy(name: &str) -> Result<Box<dyn OnlinePolicy>, SolveError> {
    Ok(match name {
        "resolve" => Box::new(ResolvePolicy),
        "edf" => Box::new(EdfPolicy::default()),
        "srpt" => Box::new(SrptPolicy::default()),
        "hybrid" => Box::new(HybridPolicy::default()),
        _ => {
            return Err(SolveError::UnknownPolicy {
                name: name.to_string(),
            })
        }
    })
}

/// A route of a [`PathCache`]: which generation of the cache's table it was
/// handed out from, and where in it. Two handles are equal only when they
/// name the same stored [`Path`], and a handle from before the cache
/// dropped its routes (a topology change) never equals a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    generation: u32,
    index: u32,
}

impl Route {
    /// An empty memo slot: no cache hands out generation 0.
    const UNSET: Route = Route {
        generation: 0,
        index: 0,
    };
}

/// The route table of an online run: fewest-hop paths per endpoint pair,
/// each stored once and handed out as a [`Route`]. The rate-assigning
/// policies route every flow on its BFS shortest path (the same
/// tie-breaking as [`dcn_topology::GraphCsr::shortest_path`]); the cache
/// makes that a one-time cost per endpoint pair per run, and the engine,
/// which owns the run's cache, reads a plan's paths back with
/// [`PathCache::path`].
///
/// A pair miss is read off the source's [`BfsTree`], grown once per source
/// and kept at four bytes per node: a fabric with `h` hosts costs at most
/// `h` traversals however many of its `h²` pairs the flows use. The tree
/// is the same traversal as `shortest_path` run to the end, so every route
/// and tie-break is the one `shortest_path` returns.
///
/// Paths and trees are keyed to the graph's
/// [`dcn_topology::GraphCsr::epoch`]: a link failure or recovery bumps the
/// epoch, which drops both and starts a new generation of handles, so a
/// cached route can never survive the topology change that invalidated it.
///
/// [`PathCache::route`] is asked for every in-flight flow at every event,
/// so it remembers each flow's route by ledger id, a slot of a `Vec`, and
/// probes the pair map only on a flow's first lookup in a generation. The
/// pair map and the trees hash with [`NodeHash`]; their keys are node pairs
/// of the fabric (a `dcn-server` shard admits host endpoints only), never
/// flow ids.
#[derive(Debug, Default)]
pub struct PathCache {
    pairs: HashMap<(NodeId, NodeId), Option<u32>, NodeHash>,
    trees: HashMap<NodeId, BfsTree, NodeHash>,
    /// The routes of the current generation, indexed by [`Route::index`].
    paths: Vec<Path>,
    /// Each flow's route by ledger id; a slot of an older generation (or
    /// [`Route::UNSET`]) is empty.
    flows: Vec<Route>,
    /// Bumped whenever `paths` is dropped, from 0 to 1 by the first sync:
    /// every route handed out since carries it.
    generation: u32,
    /// Epoch of the graph the memo was filled from (0 = empty).
    epoch: u64,
}

impl PathCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every route and tree when `graph` is not the graph they were
    /// read off, starting a new generation of handles (which empties every
    /// memo slot).
    pub(crate) fn sync(&mut self, graph: &GraphCsr) {
        if self.epoch != graph.epoch() {
            self.pairs.clear();
            self.trees.clear();
            self.paths.clear();
            self.generation += 1;
            self.epoch = graph.epoch();
        }
    }

    /// The route of ledger id `flow` from `src` to `dst`: the fewest-hop
    /// path, computed on first use (and recomputed after any topology
    /// mutation). A ledger id names one endpoint pair for the life of the
    /// cache, so later lookups of `flow` read its memo slot and hash
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] (attributed to `flow`) when the
    /// endpoints are disconnected.
    pub fn route(
        &mut self,
        ctx: &SolverContext<'_>,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Route, SolveError> {
        self.sync(ctx.graph());
        if let Some(&route) = self.flows.get(flow) {
            if route.generation == self.generation {
                return Ok(route);
            }
        }
        let route = self.pair(ctx.graph(), flow, src, dst)?;
        if flow >= self.flows.len() {
            self.flows.resize(flow + 1, Route::UNSET);
        }
        self.flows[flow] = route;
        Ok(route)
    }

    /// The fewest-hop path from `src` to `dst`, computed on first use (and
    /// recomputed after any topology mutation): one pair probe, nothing
    /// remembered per flow. `flow` only names the flow an error is about.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] (attributed to `flow`) when the
    /// endpoints are disconnected.
    pub fn shortest(
        &mut self,
        ctx: &SolverContext<'_>,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<&Path, SolveError> {
        self.sync(ctx.graph());
        let route = self.pair(ctx.graph(), flow, src, dst)?;
        Ok(self.path(route))
    }

    /// The pair map's route from `src` to `dst`, read off `src`'s tree on a
    /// miss; the cache is in sync with `graph`.
    fn pair(
        &mut self,
        graph: &GraphCsr,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Route, SolveError> {
        let (trees, paths) = (&mut self.trees, &mut self.paths);
        let index = *self.pairs.entry((src, dst)).or_insert_with(|| {
            let tree = trees.entry(src).or_insert_with(|| graph.bfs_tree(src));
            Some(store(paths, tree.path_to(graph, dst)?))
        });
        let index = index.ok_or(SolveError::Unroutable { flow })?;
        Ok(Route {
            generation: self.generation,
            index,
        })
    }

    /// Stores `path` as a route of its own, for a policy that routes its
    /// own way; a path equal to a cached one still gets a handle of its
    /// own. Like every route, it is dropped when the cache next meets a
    /// changed graph (the engine syncs the cache before each
    /// [`OnlinePolicy::on_event`], so it lives at least until the plan is
    /// committed).
    pub fn insert(&mut self, path: Path) -> Route {
        Route {
            generation: self.generation,
            index: store(&mut self.paths, path),
        }
    }

    /// The path `route` names.
    ///
    /// # Panics
    ///
    /// Panics on a handle of an older generation: the topology it was
    /// routed on has changed since.
    pub fn path(&self, route: Route) -> &Path {
        assert_eq!(
            route.generation, self.generation,
            "a route handle outlived the topology it was routed on"
        );
        &self.paths[route.index as usize]
    }
}

/// Appends `path` to a generation's routes and returns its index.
fn store(paths: &mut Vec<Path>, path: Path) -> u32 {
    paths.push(path);
    u32::try_from(paths.len() - 1).expect("a generation holds fewer than 2^32 routes")
}

/// A per-link residual-capacity ledger for greedy rate packing: start from
/// `min(link capacity, power-function capacity)` on every link, then
/// [`CapacityLedger::reserve`] each granted assignment so later (lower
/// priority) flows only see what is left.
#[derive(Debug, Default)]
pub struct CapacityLedger {
    available: Vec<f64>,
    /// The pristine per-link capacities `available` resets back to, so a
    /// per-event reset restores only the links reservations touched
    /// instead of recomputing every link (the full rebuild is the per-event
    /// hot spot on 100k-arrival traces over large fabrics).
    base: Vec<f64>,
    /// Fingerprint of the graph/power pair `base` was built from: the
    /// graph's mutation [`epoch`](dcn_topology::GraphCsr::epoch) and the
    /// power-function capacity clamp. The epoch is process-globally unique
    /// per (graph, mutation-state), so — unlike the allocation address a
    /// previous revision used — a dead graph's key can never be revived by
    /// a recycled allocation hosting a same-link-count graph.
    base_key: (u64, u64),
    /// Links whose `available` entry may differ from `base` since the last
    /// [`CapacityLedger::reset`] (duplicates allowed — restoring twice is
    /// idempotent).
    touched: Vec<dcn_topology::LinkId>,
}

impl CapacityLedger {
    /// Creates an empty ledger; call [`CapacityLedger::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-initialises every link to its usable capacity.
    pub fn reset(&mut self, ctx: &SolverContext<'_>, power: &PowerFunction) {
        let graph = ctx.graph();
        let cap = power.capacity();
        let key = (graph.epoch(), cap.to_bits());
        if self.base_key != key || self.base.len() != graph.link_count() {
            self.base.clear();
            self.base.extend(
                (0..graph.link_count())
                    .map(|index| graph.capacity(dcn_topology::LinkId(index)).min(cap)),
            );
            self.base_key = key;
            self.available.clear();
            self.available.extend_from_slice(&self.base);
            self.touched.clear();
            return;
        }
        for link in self.touched.drain(..) {
            self.available[link.index()] = self.base[link.index()];
        }
    }

    /// The largest rate `path` can still carry: the minimum residual
    /// capacity over its links (infinite for an empty path).
    pub fn available(&self, path: &Path) -> f64 {
        path.links()
            .iter()
            .map(|link| self.available[link.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Subtracts `rate` from every link of `path` (clamped at zero against
    /// float drift).
    pub fn reserve(&mut self, path: &Path, rate: f64) {
        for link in path.links() {
            let slot = &mut self.available[link.index()];
            *slot = (*slot - rate).max(0.0);
        }
        self.touched.extend_from_slice(path.links());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    #[test]
    fn registry_round_trips_every_default_policy() {
        for name in POLICY_NAMES {
            assert_eq!(create_policy(name).unwrap().name(), name);
        }
        assert_eq!(
            create_policy("nope").unwrap_err(),
            SolveError::UnknownPolicy {
                name: "nope".to_string()
            }
        );
    }

    #[test]
    fn path_cache_memoises_and_reports_unroutable() {
        let topo = builders::line(3);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut cache = PathCache::new();
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let first = cache.route(&ctx, 0, a, c).unwrap();
        let second = cache.route(&ctx, 1, a, c).unwrap();
        assert_eq!(first, second, "one stored route per pair");
        assert_eq!(*cache.path(first), ctx.graph().shortest_path(a, c).unwrap());
        assert_eq!((cache.pairs.len(), cache.paths.len()), (1, 1));
        assert_eq!(cache.flows, [first, second], "each flow remembers it");
        assert_eq!(cache.route(&ctx, 1, a, c).unwrap(), second);

        // A path inserted by hand is a route of its own, even when equal.
        let own = cache.insert(cache.path(first).clone());
        assert_ne!(own, first);
        assert_eq!(cache.path(own), cache.path(first));

        // The graph changes: every old handle is stale, the memo is
        // re-filled, and a cut pair is unroutable for the asking flow.
        let link = cache.path(first).links()[0];
        let down = dcn_topology::TopologyEvent::LinkDown { time: 1.0, link };
        assert!(ctx.apply_topology_event(down));
        assert_eq!(
            cache.route(&ctx, 1, a, c).unwrap_err(),
            SolveError::Unroutable { flow: 1 }
        );
        assert!(cache.paths.is_empty() && cache.flows[1] == second);
        let up = dcn_topology::TopologyEvent::LinkUp { time: 2.0, link };
        assert!(ctx.apply_topology_event(up));
        let fresh = cache.route(&ctx, 1, a, c).unwrap();
        assert!(fresh != first && fresh != second && fresh != own);
        assert_eq!(cache.flows[1], fresh);
    }

    #[test]
    #[should_panic(expected = "outlived the topology")]
    fn a_stale_route_is_refused() {
        let topo = builders::line(3);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut cache = PathCache::new();
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let old = cache.route(&ctx, 0, a, c).unwrap();
        let link = cache.path(old).links()[0];
        assert!(ctx.apply_topology_event(dcn_topology::TopologyEvent::LinkDown { time: 1.0, link }));
        cache.sync(ctx.graph());
        cache.path(old);
    }

    /// Every ordered node pair through `cache` against the graph's own
    /// early-exit BFS; returns how many pairs are cut off.
    fn assert_cache_routes_like_the_graph(ctx: &SolverContext<'_>, cache: &mut PathCache) -> usize {
        let graph = ctx.graph();
        let nodes = (0..graph.node_count()).map(NodeId);
        let mut cut = 0;
        for (flow, (src, dst)) in nodes
            .clone()
            .flat_map(|s| nodes.clone().map(move |d| (s, d)))
            .enumerate()
        {
            match (
                cache.shortest(ctx, flow, src, dst),
                graph.shortest_path(src, dst),
            ) {
                (Ok(cached), Some(expected)) => {
                    assert_eq!(cached.links(), expected.links(), "{src:?} -> {dst:?}");
                    assert_eq!(cached.nodes(), expected.nodes(), "{src:?} -> {dst:?}");
                    assert_eq!(*cached, expected);
                }
                (Err(e), None) => {
                    assert_eq!(e, SolveError::Unroutable { flow });
                    cut += 1;
                }
                (cached, expected) => {
                    panic!("{src:?} -> {dst:?}: cache {cached:?}, graph {expected:?}")
                }
            }
        }
        // One tree per source: the cache never holds more than `n` trees.
        assert!(cache.trees.len() <= graph.node_count());
        cut
    }

    #[test]
    fn route_trees_give_every_pair_the_graph_shortest_path_across_link_events() {
        use dcn_topology::TopologyEvent;
        for topo in [
            builders::fat_tree(4),
            builders::leaf_spine(4, 2, 3),
            builders::bcube(4, 1),
            builders::dumbbell(3, 10.0),
        ] {
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let mut cache = PathCache::new();
            assert_eq!(assert_cache_routes_like_the_graph(&ctx, &mut cache), 0);
            assert_eq!(cache.trees.len(), ctx.graph().node_count());

            // The middle link of a host-to-host route: on the dumbbell it is
            // the bottleneck, so half of the pairs lose their only route.
            let hosts = topo.hosts();
            let route = ctx
                .graph()
                .shortest_path(hosts[0], hosts[hosts.len() - 1])
                .unwrap();
            let link = route.links()[route.links().len() / 2];
            for event in [
                TopologyEvent::LinkDown { time: 1.0, link },
                TopologyEvent::LinkUp { time: 2.0, link },
            ] {
                assert!(ctx.apply_topology_event(event));
                cache.shortest(&ctx, 0, hosts[0], hosts[1]).unwrap();
                assert_eq!(
                    cache.trees.len(),
                    1,
                    "{}: the epoch bump drops the trees",
                    topo.name
                );
                assert_eq!((cache.pairs.len(), cache.paths.len()), (1, 1));
                let cut = assert_cache_routes_like_the_graph(&ctx, &mut cache);
                let down = matches!(event, TopologyEvent::LinkDown { .. });
                if topo.name.starts_with("dumbbell") && down {
                    assert_eq!(
                        cut,
                        4 * 4,
                        "the left side (3 hosts + switch) loses the right side; the \
                         reverse direction is a link of its own"
                    );
                } else if !down {
                    assert_eq!(cut, 0);
                }
            }
        }
    }

    #[test]
    fn capacity_ledger_tracks_reservations_along_paths() {
        let topo = builders::line(3);
        let ctx = SolverContext::from_network(&topo.network).unwrap();
        // Power capacity below the link capacity is the binding limit.
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 4.0);
        let mut ledger = CapacityLedger::new();
        ledger.reset(&ctx, &power);
        let path = ctx
            .graph()
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        assert_eq!(ledger.available(&path), 4.0);
        ledger.reserve(&path, 2.5);
        assert_eq!(ledger.available(&path), 1.5);
        ledger.reserve(&path, 5.0);
        assert_eq!(ledger.available(&path), 0.0, "clamped at zero");
    }

    #[test]
    fn ledger_rebuilds_for_a_recycled_graph_allocation() {
        // Regression: the ledger once keyed `base` on the graph's
        // *allocation address* (plus the power clamp). Dropping a context
        // and building a same-shape one at the recycled allocation made
        // the key collide, so `reset` replayed the dead graph's
        // capacities. The loop below alternates link capacities across
        // same-sized boxed contexts — under the address key the stale
        // 8.0 base survives into a 2.0-capacity round; under the epoch
        // key every round rebuilds.
        use dcn_topology::{Network, NodeKind};
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
        let mut ledger = CapacityLedger::new();
        for round in 0..8 {
            let cap = if round % 2 == 0 { 8.0 } else { 2.0 };
            let mut net = Network::new();
            let a = net.add_node(NodeKind::Host, "a");
            let b = net.add_node(NodeKind::Host, "b");
            net.add_duplex_link(a, b, cap);
            let ctx = Box::new(SolverContext::from_network(&net).unwrap());
            ledger.reset(&ctx, &power);
            let path = ctx.graph().shortest_path(a, b).unwrap();
            assert_eq!(
                ledger.available(&path),
                cap,
                "round {round}: ledger must track the live graph, not a \
                 recycled allocation"
            );
            ledger.reserve(&path, 1.0);
        }
    }

    #[test]
    fn ledger_rebuilds_after_an_in_place_link_failure() {
        // A link failure mutates the graph in place: the address (and the
        // link count) stay the same and only the epoch moves, so this is
        // exactly the case an address-keyed cache cannot see.
        use dcn_topology::TopologyEvent;
        let topo = builders::line(3);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
        let mut ledger = CapacityLedger::new();
        ledger.reset(&ctx, &power);
        let path = ctx
            .graph()
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let pristine = ledger.available(&path);
        assert!(pristine > 0.0);
        ledger.reserve(&path, 1.0);
        let link = path.links()[0];

        assert!(ctx.apply_topology_event(TopologyEvent::LinkDown { time: 0.5, link }));
        ledger.reset(&ctx, &power);
        assert_eq!(
            ledger.available(&path),
            0.0,
            "the failed link masks to zero residual"
        );

        assert!(ctx.apply_topology_event(TopologyEvent::LinkUp { time: 1.5, link }));
        ledger.reset(&ctx, &power);
        assert_eq!(
            ledger.available(&path),
            pristine,
            "recovery restores the exact pre-failure capacity"
        );
    }
}
