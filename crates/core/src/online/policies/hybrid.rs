//! The EDF-until-tight hybrid policy.

use super::edf::edf_plan;
use crate::context::SolverContext;
use crate::error::SolveError;
use crate::online::engine::WorldView;
use crate::online::policy::{CapacityLedger, OnlinePolicy, PathCache, PolicyAction};
use dcn_power::PowerFunction;

/// Runs cheap EDF rate reassignment (`edf_plan`) while every in-flight
/// flow has comfortable slack, and triggers a full residual re-solve with
/// the engine's wrapped algorithm (DCFSR in the benchmarks) only when some
/// flow's *slack fraction* — the share of its remaining time that is spare
/// after transmitting at its path's full rate — drops below
/// 0.1 (`SLACK_THRESHOLD`).
///
/// This is the refactor's payoff policy: on traces where deadlines are
/// loose relative to fabric capacity (the paper's workload regime) nearly
/// every event is handled without a Frank–Wolfe pass, while genuinely
/// tight moments still get the clairvoyant-quality re-solve. The
/// `policy_arrivals` example and the acceptance gate pin hybrid at ≤ 25%
/// of `resolve`'s re-solve count on a 200-event fat-tree trace with zero
/// deadline misses.
#[derive(Debug, Default)]
pub struct HybridPolicy {
    ledger: CapacityLedger,
}

/// Re-solve once some flow's spare time shrinks under this share of its
/// remaining window.
const SLACK_THRESHOLD: f64 = 0.1;

impl OnlinePolicy for HybridPolicy {
    fn name(&self) -> &str {
        "hybrid"
    }

    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        routes: &mut PathCache,
    ) -> Result<PolicyAction, SolveError> {
        self.ledger.reset(ctx, power);
        for id in world.in_flight() {
            let flow = world.flow(id);
            let remaining = world.remaining(id);
            if remaining <= 0.0 {
                continue;
            }
            let route = routes.route(ctx, id, flow.src, flow.dst)?;
            let full = self.ledger.available(routes.path(route));
            let time_left = flow.time_to_deadline(world.now());
            // Slack fraction against the uncontended full path rate: 1.0
            // means the flow barely needs the wire, 0.0 means it must
            // blast from now to the deadline, negative means even that
            // cannot finish in time.
            let fraction = if full <= 0.0 {
                f64::NEG_INFINITY
            } else {
                flow.slack(world.now(), remaining, full) / time_left
            };
            if fraction < SLACK_THRESHOLD {
                return Ok(PolicyAction::Resolve);
            }
        }
        edf_plan(ctx, power, world, routes, &mut self.ledger).map(PolicyAction::Assign)
    }
}
