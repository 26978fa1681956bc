//! The rapid-close-to-deadline deferral policy.

use crate::context::SolverContext;
use crate::error::SolveError;
use crate::online::engine::{OnlineEvent, WorldView};
use crate::online::policy::{CapacityLedger, OnlinePolicy, PathCache, PolicyAction, RatePlan};
use dcn_flow::FlowId;
use dcn_power::PowerFunction;

/// Rapid-close-to-deadline rate assignment (after RCD, Noormohammadpour
/// et al.): each flow *defers* — transmits nothing — until the latest
/// start time at which blasting its path's full rate still meets the
/// deadline, padded by a safety factor of 1.25 (`HEADROOM`), then blasts.
///
/// Deferral is implemented with the engine's slack timers: a deferred
/// flow's plan entry is a wake-up at its padded latest start, so the
/// engine revisits the plan exactly when the flow must begin. Flows whose
/// padded latest start has already passed are served immediately at the
/// full residual rate of their fewest-hop path (urgency order: earliest
/// padded latest start first, ties by id).
///
/// Deferring keeps links idle longer (the static-power consolidation
/// motif of the paper), at the price of deadline risk when deferred flows
/// collide on a link; the engine records such misses. No Frank–Wolfe
/// solve, ever.
#[derive(Debug, Default)]
pub struct RcdPolicy {
    paths: PathCache,
    ledger: CapacityLedger,
}

/// Multiplier on the minimum blast duration reserved before the deadline:
/// `latest start = deadline − HEADROOM · remaining / rate`. It reserves 25%
/// more than the minimum, absorbing capacity lost to overlapping blasts.
const HEADROOM: f64 = 1.25;

impl OnlinePolicy for RcdPolicy {
    fn name(&self) -> &str {
        "rcd"
    }

    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        _event: &OnlineEvent,
        world: &WorldView<'_>,
    ) -> Result<PolicyAction, SolveError> {
        self.ledger.reset(ctx, power);
        // Urgency pass: compute each flow's padded latest start against the
        // *uncontended* path rate, then grant capacity in urgency order.
        let mut urgency: Vec<(f64, FlowId)> = Vec::new();
        for id in world.in_flight() {
            let flow = world.flow(id);
            let remaining = world.remaining(id);
            if remaining <= 0.0 {
                continue;
            }
            let path = self.paths.shortest(ctx, id, flow.src, flow.dst)?;
            let full = self.ledger.available(&path);
            if full <= 0.0 {
                continue;
            }
            let latest = flow.latest_start(remaining, full / HEADROOM);
            urgency.push((latest, id));
        }
        urgency.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut plan = RatePlan::default();
        for (latest, id) in urgency {
            let flow = world.flow(id);
            if latest > world.now() {
                // Not urgent yet: stay dark, wake exactly at the deferral
                // point. The wake-up re-plans everything, so the latest
                // start is re-derived against the capacity left then.
                plan.wake_at(latest, id);
                continue;
            }
            let path = self.paths.shortest(ctx, id, flow.src, flow.dst)?;
            let rate = self.ledger.available(&path);
            if rate <= 0.0 {
                continue; // saturated: the deadline watchdog records the miss
            }
            self.ledger.reserve(&path, rate);
            plan.assign(id, path, rate);
        }
        Ok(PolicyAction::Assign(plan))
    }
}
