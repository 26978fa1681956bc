//! The preemptive earliest-deadline-first policy.

use crate::context::SolverContext;
use crate::error::SolveError;
use crate::online::engine::{OnlineEvent, WorldView};
use crate::online::policy::{CapacityLedger, OnlinePolicy, PathCache, PolicyAction, RatePlan};
use dcn_flow::FlowId;
use dcn_power::PowerFunction;

/// Builds the EDF rate plan: in-flight flows sorted by deadline (ties by
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
/// Shared with [`super::HybridPolicy`], whose comfortable-slack regime is
/// exactly this plan.
pub(crate) fn edf_plan(
    ctx: &SolverContext<'_>,
    power: &PowerFunction,
    world: &WorldView<'_>,
    paths: &mut PathCache,
    ledger: &mut CapacityLedger,
) -> Result<RatePlan, SolveError> {
    let mut order: Vec<FlowId> = world.in_flight().collect();
    order.sort_by(|&a, &b| {
        world
            .flow(a)
            .deadline
            .total_cmp(&world.flow(b).deadline)
            .then(a.cmp(&b))
    });
    ledger.reset(ctx, power);
    let mut plan = RatePlan::default();
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
            continue; // saturated path: idle until capacity frees up
        }
        ledger.reserve(&path, rate);
        plan.assign(id, path, rate);
    }
    Ok(plan)
}

/// Preemptive earliest-deadline-first rate reassignment: no Frank–Wolfe
/// solve, ever. At every event the in-flight flows are re-planned by
/// `edf_plan`; an overloaded fabric starves the latest deadlines first
/// and the engine records their misses.
#[derive(Debug, Default)]
pub struct EdfPolicy {
    paths: PathCache,
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
        _event: &OnlineEvent,
        world: &WorldView<'_>,
    ) -> Result<PolicyAction, SolveError> {
        edf_plan(ctx, power, world, &mut self.paths, &mut self.ledger).map(PolicyAction::Assign)
    }
}
