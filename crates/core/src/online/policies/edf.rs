//! The preemptive earliest-deadline-first policy.

use crate::context::SolverContext;
use crate::error::SolveError;
use crate::online::engine::WorldView;
use crate::online::policy::{CapacityLedger, OnlinePolicy, PathCache, PolicyAction, RatePlan};
use dcn_power::PowerFunction;

/// Builds the EDF rate plan: in-flight flows in deadline order (ties by
/// id) each receive their *required* rate — the minimum constant rate
/// finishing exactly at the deadline — clipped to the residual capacity
/// left by higher-priority flows along their fewest-hop path.
///
/// Serving at the required rate is both the EDF-natural choice and the
/// energy-frugal one under convex speed-scaling power: the rate is never
/// higher than the deadline demands, and it stays constant between events
/// (the required rate of a flow served at its required rate does not
/// drift), so the plan only changes when the flow population does.
///
/// The deadline order is the one the in-flight ledger maintains
/// ([`WorldView::in_flight_by_deadline`]), so a re-plan sorts nothing, and
/// each flow's route is the one `routes` remembers for its ledger id, so it
/// hashes nothing either. The
/// pack itself is redone in full at every event: each required rate is
/// re-derived from the credited remainder, which differs in its last bits
/// from the rate committed at the previous event, so re-packing only the
/// flows an event touched would change the plan.
///
/// Shared with [`super::HybridPolicy`], whose comfortable-slack regime is
/// exactly this plan.
pub(crate) fn edf_plan(
    ctx: &SolverContext<'_>,
    power: &PowerFunction,
    world: &WorldView<'_>,
    routes: &mut PathCache,
    ledger: &mut CapacityLedger,
) -> Result<RatePlan, SolveError> {
    let order = world.in_flight_by_deadline();
    ledger.reset(ctx, power);
    let mut plan = RatePlan {
        rates: Vec::with_capacity(order.len()),
    };
    for &id in order {
        let flow = world.flow(id);
        let remaining = world.remaining(id);
        if remaining <= 0.0 {
            continue;
        }
        let route = routes.route(ctx, id, flow.src, flow.dst)?;
        let path = routes.path(route);
        let rate = flow
            .required_rate(world.now(), remaining)
            .min(ledger.available(path));
        if rate <= 0.0 {
            continue; // saturated path: idle until capacity frees up
        }
        ledger.reserve(path, rate);
        plan.assign(id, route, rate);
    }
    Ok(plan)
}

/// Preemptive earliest-deadline-first rate reassignment: no Frank–Wolfe
/// solve, ever. At every event the in-flight flows are re-planned by
/// `edf_plan`; an overloaded fabric starves the latest deadlines first
/// and the engine records their misses.
#[derive(Debug, Default)]
pub struct EdfPolicy {
    ledger: CapacityLedger,
}

impl OnlinePolicy for EdfPolicy {
    fn name(&self) -> &str {
        "edf"
    }

    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        routes: &mut PathCache,
    ) -> Result<PolicyAction, SolveError> {
        edf_plan(ctx, power, world, routes, &mut self.ledger).map(PolicyAction::Assign)
    }
}

/// `edf_plan` against the planner it replaced, event by event: a wrapper
/// policy computes both plans on the same view and requires the same flows,
/// links and rate bits before it commits the new one, so every later event
/// of the run is compared too.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::engine::OnlineEngine;
    use crate::online::policies::HybridPolicy;
    use dcn_flow::failure::FailureProcess;
    use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
    use dcn_flow::{FlowId, FlowSet};
    use dcn_topology::builders::{self, BuiltTopology};
    use dcn_topology::{NodeId, Path, TopologyEvent};
    use std::collections::{BTreeSet, HashMap};
    use std::sync::{Arc, Mutex};

    /// The route memo as the reference planner had it: a SipHash map of
    /// endpoint pairs, each filled by `GraphCsr::shortest_path`.
    #[derive(Debug, Default)]
    struct SipPathCache {
        paths: HashMap<(NodeId, NodeId), Option<Path>>,
        epoch: u64,
    }

    impl SipPathCache {
        fn shortest(
            &mut self,
            ctx: &SolverContext<'_>,
            flow: FlowId,
            src: NodeId,
            dst: NodeId,
        ) -> Result<Path, SolveError> {
            let graph = ctx.graph();
            if self.epoch != graph.epoch() {
                self.paths.clear();
                self.epoch = graph.epoch();
            }
            self.paths
                .entry((src, dst))
                .or_insert_with(|| graph.shortest_path(src, dst))
                .clone()
                .ok_or(SolveError::Unroutable { flow })
        }
    }

    /// A plan as the reference spells it: flow, path and rate.
    type ReferencePlan = Vec<(FlowId, Path, f64)>;

    /// The reference: the live set collected in id order and sorted by
    /// deadline at every event.
    fn reference_edf_plan(
        ctx: &SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        paths: &mut SipPathCache,
        ledger: &mut CapacityLedger,
    ) -> Result<ReferencePlan, SolveError> {
        let mut order: Vec<FlowId> = world.in_flight().collect();
        order.sort_by(|&a, &b| {
            world
                .flow(a)
                .deadline
                .total_cmp(&world.flow(b).deadline)
                .then(a.cmp(&b))
        });
        ledger.reset(ctx, power);
        let mut plan = Vec::new();
        for id in order {
            let flow = world.flow(id);
            let remaining = world.remaining(id);
            if remaining <= 0.0 {
                continue;
            }
            let path = paths.shortest(ctx, id, flow.src, flow.dst)?;
            let rate = flow
                .required_rate(world.now(), remaining)
                .min(ledger.available(&path));
            if rate <= 0.0 {
                continue;
            }
            ledger.reserve(&path, rate);
            plan.push((id, path, rate));
        }
        Ok(plan)
    }

    /// `HybridPolicy::on_event` (its 0.1 slack threshold) over the
    /// reference planner; `None` is a re-solve.
    fn reference_hybrid(
        ctx: &SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        paths: &mut SipPathCache,
        ledger: &mut CapacityLedger,
    ) -> Result<Option<ReferencePlan>, SolveError> {
        ledger.reset(ctx, power);
        for id in world.in_flight() {
            let flow = world.flow(id);
            let remaining = world.remaining(id);
            if remaining <= 0.0 {
                continue;
            }
            let path = paths.shortest(ctx, id, flow.src, flow.dst)?;
            let full = ledger.available(&path);
            let fraction = if full <= 0.0 {
                f64::NEG_INFINITY
            } else {
                flow.slack(world.now(), remaining, full) / flow.time_to_deadline(world.now())
            };
            if fraction < 0.1 {
                return Ok(None);
            }
        }
        reference_edf_plan(ctx, power, world, paths, ledger).map(Some)
    }

    /// What the differential saw, so a run that never clipped a rate, never
    /// changed the topology or never revived a flow cannot pass unnoticed.
    #[derive(Debug, Default)]
    struct Tally {
        events: usize,
        assignments: usize,
        resolves: usize,
        /// Assignments held below their required rate by capacity.
        clipped: usize,
        /// Events at which the graph epoch moved since the previous one.
        epoch_changes: usize,
        epoch: Option<u64>,
        /// Flows back in the live set after leaving it: stranded, then
        /// revived (a retired flow never returns).
        revived: usize,
        left: BTreeSet<FlowId>,
        last_live: Vec<FlowId>,
    }

    #[derive(Debug)]
    struct Differential {
        policy: Box<dyn OnlinePolicy>,
        hybrid: bool,
        paths: SipPathCache,
        ledger: CapacityLedger,
        tally: Arc<Mutex<Tally>>,
    }

    impl Differential {
        fn new(hybrid: bool, tally: Arc<Mutex<Tally>>) -> Self {
            let policy: Box<dyn OnlinePolicy> = if hybrid {
                Box::new(HybridPolicy::default())
            } else {
                Box::new(EdfPolicy::default())
            };
            Self {
                policy,
                hybrid,
                paths: SipPathCache::default(),
                ledger: CapacityLedger::new(),
                tally,
            }
        }
    }

    impl OnlinePolicy for Differential {
        fn name(&self) -> &str {
            self.policy.name()
        }

        fn on_event(
            &mut self,
            ctx: &mut SolverContext<'_>,
            power: &PowerFunction,
            world: &WorldView<'_>,
            routes: &mut PathCache,
        ) -> Result<PolicyAction, SolveError> {
            let (paths, ledger) = (&mut self.paths, &mut self.ledger);
            let expected = if self.hybrid {
                reference_hybrid(ctx, power, world, paths, ledger)
            } else {
                reference_edf_plan(ctx, power, world, paths, ledger).map(Some)
            };
            let action = self.policy.on_event(ctx, power, world, routes);
            let at = format!("{} at t = {}", self.policy.name(), world.now());
            let mut tally = self.tally.lock().unwrap();
            tally.events += 1;
            let epoch = ctx.graph().epoch();
            tally.epoch_changes += usize::from(tally.epoch.is_some_and(|e| e != epoch));
            tally.epoch = Some(epoch);
            let live = world.in_flight_by_deadline().to_vec();
            let left: Vec<FlowId> = (tally.last_live.iter())
                .filter(|id| !live.contains(id))
                .copied()
                .collect();
            tally.left.extend(left);
            for id in &live {
                tally.revived += usize::from(tally.left.remove(id));
            }
            tally.last_live = live;
            match (&expected, &action) {
                (Ok(Some(want)), Ok(PolicyAction::Assign(got))) => {
                    assert_eq!(got.rates.len(), want.len(), "{at}: assignment count");
                    for (got, (flow, path, rate)) in got.rates.iter().zip(want) {
                        assert_eq!(got.flow, *flow, "{at}: flow order");
                        let route = routes.path(got.route);
                        assert_eq!(route.links(), path.links(), "{at}: route");
                        assert_eq!(
                            got.rate.to_bits(),
                            rate.to_bits(),
                            "{at}: rate of flow {}",
                            got.flow
                        );
                        let flow = world.flow(got.flow);
                        let required = flow.required_rate(world.now(), world.remaining(got.flow));
                        tally.clipped += usize::from(got.rate < required);
                    }
                    tally.assignments += got.rates.len();
                }
                (Ok(None), Ok(PolicyAction::Resolve)) => tally.resolves += 1,
                (Err(want), Err(got)) => assert_eq!(got, want, "{at}"),
                (want, got) => panic!("{at}: reference {want:?}, planner {got:?}"),
            }
            action
        }
    }

    /// One engine run of `flows` through the differential; returns the tally
    /// and the number of event batches the run reported.
    fn run_differential(
        hybrid: bool,
        topo: &BuiltTopology,
        flows: &FlowSet,
        events: &[TopologyEvent],
        power: &PowerFunction,
    ) -> (Tally, usize) {
        let tally = Arc::new(Mutex::new(Tally::default()));
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        // `hybrid` re-solves with a cheap wrapped algorithm: only the plans
        // between re-solves are under test.
        let outcome = OnlineEngine::builder()
            .algorithm("sp-mcf")
            .policy_instance(Box::new(Differential::new(hybrid, tally.clone())))
            .build()
            .unwrap()
            .run_with_events(&mut ctx, flows, power, events)
            .unwrap();
        let tally = std::mem::take(&mut *tally.lock().unwrap());
        (tally, outcome.report.events)
    }

    fn arrivals(topo: &BuiltTopology, flows: usize, load: f64, seed: u64) -> FlowSet {
        let base = UniformWorkload::paper_defaults(flows, seed)
            .generate(topo.hosts())
            .unwrap();
        ArrivalProcess::with_load(load, seed).apply(&base).unwrap()
    }

    #[test]
    fn edf_and_hybrid_plans_equal_the_sorting_planner_bit_for_bit() {
        // A power-capped rate of 1 makes flows that share a link contend.
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1.0);
        for topo in [
            builders::fat_tree(4),
            builders::leaf_spine(4, 2, 3),
            builders::bcube(4, 1),
        ] {
            for churn in [false, true] {
                let mut total = Tally::default();
                for seed in 1..=3 {
                    let flows = arrivals(&topo, 150, 12.0, seed);
                    let events = if churn {
                        FailureProcess::new(400.0, 2.0, seed)
                            .generate(topo.network.link_count(), flows.horizon().1)
                    } else {
                        Vec::new()
                    };
                    for hybrid in [false, true] {
                        let (tally, events) =
                            run_differential(hybrid, &topo, &flows, &events, &power);
                        assert_eq!(tally.events, events, "every event batch is compared");
                        total.events += tally.events;
                        total.assignments += tally.assignments;
                        total.resolves += tally.resolves;
                        total.clipped += tally.clipped;
                        total.revived += tally.revived;
                        total.epoch_changes += tally.epoch_changes;
                    }
                }
                let case = format!("{} (churn: {churn}): {total:?}", topo.name);
                assert!(total.assignments > 1000 && total.clipped > 0, "{case}");
                assert!(total.resolves > 0, "{case}: hybrid re-solves somewhere");
                if churn {
                    assert!(total.epoch_changes > 10 && total.revived > 0, "{case}");
                } else {
                    assert_eq!(total.epoch_changes, 0, "{case}");
                }
            }
        }
    }

    /// The `online_edf` benchmark's instances (fat-tree k=8, capacity 10,
    /// 5000 arrivals at load 32), for `edf` and for `hybrid` (which never
    /// re-solves here). `#[ignore]`d: the reference needs an optimised
    /// build; CI runs it in release.
    #[test]
    #[ignore]
    fn edf_and_hybrid_plans_equal_the_sorting_planner_on_the_benchmark_instances() {
        let topo = builders::fat_tree_with_capacity(8, 10.0);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        for seed in 1..=3 {
            let flows = arrivals(&topo, 5000, 32.0, seed);
            for hybrid in [false, true] {
                let (tally, events) = run_differential(hybrid, &topo, &flows, &[], &power);
                assert_eq!(tally.events, events);
                assert_eq!(
                    events, 10_000,
                    "seed {seed}: an arrival and a completion per flow"
                );
            }
        }
    }
}
