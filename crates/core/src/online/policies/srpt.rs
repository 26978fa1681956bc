//! The preemptive shortest-remaining-processing-time policy.

use crate::context::SolverContext;
use crate::error::SolveError;
use crate::online::engine::WorldView;
use crate::online::policy::{CapacityLedger, OnlinePolicy, PathCache, PolicyAction, RatePlan};
use dcn_flow::FlowId;
use dcn_power::PowerFunction;

/// Shortest-remaining-processing-time rate reassignment, the
/// completion-time-greedy baseline of PDQ-style preemptive scheduling:
/// flows sorted by remaining volume (ties by id) each grab the *full*
/// residual capacity of their fewest-hop path. No Frank–Wolfe solve, ever.
///
/// Blasting at full rate finishes short flows as early as possible but is
/// deadline-blind and energy-hungry under convex speed-scaling power —
/// the instructive contrast to [`super::EdfPolicy`]'s required-rate plan.
/// Long flows behind a persistent queue of short ones can miss their
/// deadlines; the engine records the misses.
#[derive(Debug, Default)]
pub struct SrptPolicy {
    ledger: CapacityLedger,
}

impl OnlinePolicy for SrptPolicy {
    fn name(&self) -> &str {
        "srpt"
    }

    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        routes: &mut PathCache,
    ) -> Result<PolicyAction, SolveError> {
        let mut order: Vec<FlowId> = world.in_flight().collect();
        order.sort_by(|&a, &b| {
            world
                .remaining(a)
                .total_cmp(&world.remaining(b))
                .then(a.cmp(&b))
        });
        self.ledger.reset(ctx, power);
        let mut plan = RatePlan::default();
        for id in order {
            let flow = world.flow(id);
            if world.remaining(id) <= 0.0 {
                continue;
            }
            let route = routes.route(ctx, id, flow.src, flow.dst)?;
            let path = routes.path(route);
            let rate = self.ledger.available(path);
            if rate <= 0.0 {
                continue; // saturated path: wait for the current head to finish
            }
            self.ledger.reserve(path, rate);
            plan.assign(id, route, rate);
        }
        Ok(PolicyAction::Assign(plan))
    }
}
