//! The fluid replay of a schedule, as a thin wrapper over
//! [`dcn_core::Schedule::audit`].
//!
//! The audit in `dcn-core` is the one verdict on a schedule: per flow what
//! arrived and when, per link the loads [`dcn_core::Schedule::link_loads`]
//! sums once, the energy and every violated constraint. This crate exists
//! only because the benchmark under `perf/` calls [`Simulator::run_ctx`];
//! it is deleted once the benchmark calls the audit itself (ROADMAP.md,
//! item 1). Nothing else in the workspace depends on it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dcn_core::{Audit, Schedule, SolverContext};
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;

/// Replays schedules on networks whose links follow one power function.
#[derive(Debug, Clone)]
pub struct Simulator {
    power: PowerFunction,
}

impl Simulator {
    /// Creates a simulator for networks whose links follow `power`.
    pub fn new(power: PowerFunction) -> Self {
        Self { power }
    }

    /// [`Schedule::audit`] of `schedule` for the given instance, on the CSR
    /// view owned by `ctx`.
    pub fn run_ctx(&self, ctx: &SolverContext<'_>, flows: &FlowSet, schedule: &Schedule) -> Audit {
        schedule.audit(ctx.graph(), flows, &self.power)
    }
}
