//! The policy abstraction of the online engine: the [`OnlinePolicy`]
//! trait, the [`PolicyAction`] / [`RatePlan`] vocabulary policies answer
//! with, [`create_policy`], which builds a policy from its name, and two
//! small shared helpers ([`PathCache`], [`CapacityLedger`]) the
//! rate-assigning policies build their plans with. A plan is rebuilt at
//! every event for every in-flight flow, so it shares what does not
//! change: [`RateAssignment::path`] is the cache's `Arc<Path>`, not a copy
//! of it.

use super::engine::{AdmissionRule, OnlineEvent, WorldView};
use super::policies::{EdfPolicy, HybridPolicy, RcdPolicy, ResolvePolicy, SrptPolicy};
use crate::context::SolverContext;
use crate::error::SolveError;
use dcn_flow::FlowId;
use dcn_power::PowerFunction;
use dcn_topology::{BfsTree, NodeId, Path};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One constant-rate assignment of a [`RatePlan`]: serve `flow` along
/// `path` at `rate` until the next event.
#[derive(Debug, Clone)]
pub struct RateAssignment {
    /// The flow to serve (original instance id).
    pub flow: FlowId,
    /// The routing of the assignment: a shared handle, so that a plan
    /// built from [`PathCache`] routes copies no path.
    pub path: Arc<Path>,
    /// The constant rate, in volume per unit time. Assignments with a
    /// non-positive or non-finite rate are ignored by the engine.
    pub rate: f64,
}

/// A policy-computed set of rates, valid from the current event until the
/// next one. The engine derives the follow-up events itself: a completion
/// event where a rate finishes its flow in time, a deadline watchdog where
/// it cannot, plus any explicitly requested timers.
#[derive(Debug, Clone, Default)]
pub struct RatePlan {
    /// The rate assignments, at most one per flow (the engine keeps the
    /// first and ignores duplicates). In-flight flows without an
    /// assignment simply idle until the next event.
    pub rates: Vec<RateAssignment>,
    /// Extra wake-up times `(time, flow)` — e.g. the latest-start instant
    /// of a deferred flow. Times at or before the current event are
    /// ignored.
    pub timers: Vec<(f64, FlowId)>,
}

impl RatePlan {
    /// Adds one assignment.
    pub fn assign(&mut self, flow: FlowId, path: impl Into<Arc<Path>>, rate: f64) {
        let path = path.into();
        self.rates.push(RateAssignment { flow, path, rate });
    }

    /// Requests a wake-up at `time` attributed to `flow`.
    pub fn wake_at(&mut self, time: f64, flow: FlowId) {
        self.timers.push((time, flow));
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
/// The engine calls [`OnlinePolicy::admission`] once per arrival (in
/// flow-id order) and [`OnlinePolicy::on_event`] once per event batch; the
/// returned [`PolicyAction`] is committed until the next event. Policies
/// are stateful (`&mut self`) — e.g. the hybrid policy remembers whether a
/// re-solve was already triggered — and are re-seeded together with the
/// engine through [`OnlinePolicy::set_seed`].
pub trait OnlinePolicy: fmt::Debug + Send {
    /// The name [`create_policy`] builds the policy by.
    fn name(&self) -> &str;

    /// Re-seeds any internal randomness. The built-in policies are
    /// deterministic; the default implementation does nothing.
    fn set_seed(&mut self, _seed: u64) {}

    /// Decides what to do at one event batch.
    ///
    /// # Errors
    ///
    /// Policies propagate [`SolveError`]s of the solver primitives they
    /// consult; the engine aborts the run on them.
    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        event: &OnlineEvent,
        world: &WorldView<'_>,
    ) -> Result<PolicyAction, SolveError>;

    /// Decides whether to admit `candidate`, which arrived at
    /// `world.now()`. The default implementation applies the engine's
    /// [`AdmissionRule`] unchanged; policies may override it to veto or
    /// loosen admissions.
    ///
    /// # Errors
    ///
    /// Propagates [`AdmissionRule::evaluate`] errors.
    fn admission(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        candidate: FlowId,
        rule: &AdmissionRule,
    ) -> Result<bool, SolveError> {
        rule.evaluate(ctx, power, world, candidate)
    }
}

/// Every name [`create_policy`] knows, in the documented order.
pub const POLICY_NAMES: [&str; 5] = ["resolve", "edf", "srpt", "rcd", "hybrid"];

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
        "rcd" => Box::new(RcdPolicy::default()),
        "hybrid" => Box::new(HybridPolicy::default()),
        _ => {
            return Err(SolveError::UnknownPolicy {
                name: name.to_string(),
            })
        }
    })
}

/// A memo of fewest-hop paths per endpoint pair. The rate-assigning
/// policies route every flow on its BFS shortest path (the same
/// tie-breaking as [`dcn_topology::GraphCsr::shortest_path`]); the cache
/// makes that a one-time cost per endpoint pair per run, and hands the
/// route out as a shared handle (`Arc`, because policies are `Send`), so
/// re-planning a flow at every event copies no path.
///
/// A pair miss is read off the source's [`BfsTree`], grown once per source
/// and kept at four bytes per node: a fabric with `h` hosts costs at most
/// `h` traversals however many of its `h²` pairs the flows use. The tree
/// is the same traversal as `shortest_path` run to the end, so every route
/// and tie-break is the one `shortest_path` returns.
///
/// Paths and trees are keyed to the graph's
/// [`dcn_topology::GraphCsr::epoch`]: a link failure or recovery bumps the
/// epoch and clears both, so a cached route can never survive the topology
/// change that invalidated it.
///
/// The pair map is probed once per in-flight flow per event, so both maps
/// hash their node ids with a multiply–xor hasher instead of SipHash. The
/// keys are node pairs of the fabric (a `dcn-server` shard admits host
/// endpoints only), never flow ids: whatever a client sends, the maps hold
/// at most `n²` keys, and an unkeyed hash can only be aimed at pairs that
/// exist.
#[derive(Debug, Default)]
pub struct PathCache {
    paths: HashMap<(NodeId, NodeId), Option<Arc<Path>>, NodeHash>,
    trees: HashMap<NodeId, BfsTree, NodeHash>,
    /// Epoch of the graph the memo was filled from (0 = empty).
    epoch: u64,
}

/// The hasher of [`PathCache`]'s maps.
type NodeHash = BuildHasherDefault<NodeHasher>;

/// A multiply–xor hasher (the FxHash mix) for keys made of node ids: each
/// `usize` is folded in with a rotate, an xor and one multiplication.
#[derive(Debug, Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_usize(usize::from(byte));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits; the multiplication mixes
        // upwards, so bring the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

impl PathCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fewest-hop path from `src` to `dst`, computed on first use (and
    /// recomputed after any topology mutation).
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
    ) -> Result<Arc<Path>, SolveError> {
        let graph = ctx.graph();
        if self.epoch != graph.epoch() {
            self.paths.clear();
            self.trees.clear();
            self.epoch = graph.epoch();
        }
        let trees = &mut self.trees;
        self.paths
            .entry((src, dst))
            .or_insert_with(|| {
                let tree = trees.entry(src).or_insert_with(|| graph.bfs_tree(src));
                tree.path_to(graph, dst).map(Arc::new)
            })
            .clone()
            .ok_or(SolveError::Unroutable { flow })
    }
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
        let ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut cache = PathCache::new();
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let first = cache.shortest(&ctx, 0, a, c).unwrap();
        let second = cache.shortest(&ctx, 1, a, c).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "one shared route");
        assert_eq!(*first, ctx.graph().shortest_path(a, c).unwrap());
        assert_eq!(cache.paths.len(), 1);
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
        // One tree per source, four bytes per node: the cache never holds
        // more than `n²` u32 entries of trees.
        let n = graph.node_count();
        assert!(cache.trees.len() <= n);
        for tree in cache.trees.values() {
            assert_eq!(tree.bytes(), n * std::mem::size_of::<u32>());
        }
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
                assert_eq!(cache.paths.len(), 1);
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
