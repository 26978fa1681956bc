//! The full-residual re-solve policy.

use crate::context::SolverContext;
use crate::error::SolveError;
use crate::online::engine::WorldView;
use crate::online::policy::{OnlinePolicy, PathCache, PolicyAction};
use dcn_power::PowerFunction;

/// Re-solves the full residual instance with the engine's wrapped
/// algorithm at *every* event — the pre-split `OnlineScheduler` strategy,
/// bit for bit (a re-solve predicts no decision point, so the event queue
/// holds exactly the arrival groups the old loop iterated).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolvePolicy;

impl OnlinePolicy for ResolvePolicy {
    fn name(&self) -> &str {
        "resolve"
    }

    fn on_event(
        &mut self,
        _ctx: &mut SolverContext<'_>,
        _power: &PowerFunction,
        _world: &WorldView<'_>,
        _routes: &mut PathCache,
    ) -> Result<PolicyAction, SolveError> {
        Ok(PolicyAction::Resolve)
    }
}
