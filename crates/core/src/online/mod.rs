//! Online scheduling: flows are revealed at their release times and an
//! event-driven engine re-plans their rates as the system evolves.
//!
//! The paper's DCFSR model is *clairvoyant*: the whole flow set
//! `[release, deadline, volume]` is known at time zero. Its motivating
//! workloads (partition–aggregate search traffic, MapReduce shuffles)
//! arrive online, so this module evaluates every
//! [`Algorithm`](crate::Algorithm) under dynamic arrivals through a
//! policy-pluggable event loop:
//!
//! * [`engine`] hosts the [`OnlineEngine`]: a typed event queue over
//!   **arrivals**, predicted **flow completions** and **deadline-slack
//!   timers**, driving one warm [`SolverContext`] (CSR view, shortest-path
//!   arenas, Frank–Wolfe buffers — no per-event graph rebuilds) and an
//!   [`AdmissionRule`] deciding which arrivals are accepted;
//! * [`policy`] defines the [`OnlinePolicy`] trait (`name`, `on_event`,
//!   `admission`) and [`create_policy`], which builds one of
//!   [`POLICY_NAMES`] by name;
//! * [`policies`] ships five implementations: `resolve` (full residual
//!   re-solve at every arrival — the pre-split rolling-horizon loop, bit
//!   for bit), preemptive `edf` and `srpt` rate reassignment, `rcd`
//!   (rapid-close-to-deadline deferral) and `hybrid` (EDF until any flow's
//!   slack falls under a threshold, then one DCFSR re-solve);
//! * [`ledger`] holds the [`InFlightLedger`]: the one per-flow state
//!   (admit/deliver/miss flags, live and stranded sets, the retire rule,
//!   the residual-instance builder) with two users — the engine drives one
//!   through a batch run, and every `dcn-server` shard keeps one per pod
//!   bucket and snapshots it. [`WorldView`] is a ledger plus a clock.
//!
//! Only the slice of each policy decision up to the next event is
//! **committed**, appended on the spot to that flow's entry of the one
//! executable [`crate::Schedule`] the [`OnlineOutcome`] returns; an
//! [`OnlineReport`] records the per-flow admit/miss decisions, the
//! event/re-solve counters and the online energy. The engine knows
//! nothing of the clairvoyant reference: a caller that wants the price of
//! going online solves the full instance itself, on the same context
//! (the `dcn-bench` harness's `run_online_flow_set` does).
//!
//! With every flow released at the same instant there is exactly one
//! arrival event, the residual instance *is* the full instance and the
//! `resolve` policy commits the wrapped algorithm's offline schedule,
//! bit for bit — `tests/online_offline.rs` pins that equivalence, and
//! `tests/policy_equivalence.rs` pins `resolve` against the pre-split
//! event loop on staggered arrivals.
//!
//! ```
//! use dcn_core::online::OnlineEngine;
//! use dcn_core::SolverContext;
//! use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
//! use dcn_power::PowerFunction;
//! use dcn_topology::builders;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = builders::fat_tree(4);
//! let base = UniformWorkload::paper_defaults(12, 7).generate(topo.hosts())?;
//! let flows = ArrivalProcess::with_load(2.0, 3).apply(&base)?;
//! let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
//!
//! let mut ctx = SolverContext::from_network(&topo.network)?;
//! let mut online = OnlineEngine::builder()
//!     .algorithm("dcfsr")
//!     .policy("hybrid")
//!     .warm_start(true)
//!     .seed(7)
//!     .build()?;
//! let outcome = online.run(&mut ctx, &flows, &power)?;
//! assert_eq!(outcome.report.decisions.len(), flows.len());
//! assert!(outcome.report.events >= 1);
//! assert!(outcome.report.online_energy > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::context::SolverContext;
use crate::error::SolveError;
use dcn_flow::{Flow, FlowId, FlowSet};
use dcn_power::PowerFunction;
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::LinkId;

pub mod engine;
pub mod ledger;
pub mod policies;
pub mod policy;

pub use engine::{
    AdmissionRule, EngineConfig, FlowDecision, OnlineEngine, OnlineEvent, OnlineOutcome,
    OnlineReport, WorldView,
};
pub use ledger::{InFlightLedger, LedgerEntry};
pub use policies::{EdfPolicy, HybridPolicy, RcdPolicy, ResolvePolicy, SrptPolicy};
pub use policy::{
    create_policy, CapacityLedger, OnlinePolicy, PathCache, PolicyAction, RateAssignment, RatePlan,
    POLICY_NAMES,
};

/// Builds the residual copy of `flow` as seen at online time `now`: the
/// release is advanced to `now`, the deadline is kept, and the volume is
/// replaced by `remaining`.
///
/// # Errors
///
/// * [`SolveError::DeadlinePassed`] when the flow's deadline is not
///   strictly after `now` (the residual span would be empty — the naive
///   `Flow::new` call would reject it, and earlier drafts of the loop
///   panicked here).
/// * [`SolveError::InvalidInput`] when `remaining` is not a positive
///   finite volume.
pub fn residual_flow(
    flow: &Flow,
    now: f64,
    remaining: f64,
    residual_id: FlowId,
) -> Result<Flow, SolveError> {
    if flow.deadline <= now {
        return Err(SolveError::DeadlinePassed {
            flow: flow.id,
            time: now,
        });
    }
    Flow::new(
        residual_id,
        flow.src,
        flow.dst,
        flow.release.max(now),
        flow.deadline,
        remaining,
    )
    .map_err(SolveError::from)
}

/// The LP-relaxation feasibility check behind
/// [`AdmissionRule::RejectInfeasible`]: solves the per-interval fractional
/// relaxation of `flows` on the context (warm Frank–Wolfe scratch) and
/// reports whether every interval's fractional link loads fit under
/// `min(link capacity, power capacity) * (1 + slack)`.
///
/// # Errors
///
/// Propagates [`SolverContext::relax`] errors: an empty candidate set is
/// [`SolveError::EmptyFlowSet`], a disconnected commodity is
/// [`SolveError::Unroutable`].
pub fn fractionally_feasible(
    ctx: &mut SolverContext<'_>,
    flows: &FlowSet,
    power: &PowerFunction,
    config: &FmcfSolverConfig,
    slack: f64,
) -> Result<bool, SolveError> {
    let relaxation = ctx.relax(flows, power, config)?;
    let cap = power.capacity();
    for interval in &relaxation.intervals {
        for (index, &load) in interval.solution.total_loads().iter().enumerate() {
            let capacity = ctx.graph().capacity(LinkId(index)).min(cap);
            if load > capacity * (1.0 + slack) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_flow_after_the_deadline_is_a_typed_error() {
        let flow = Flow::new(
            3,
            dcn_topology::NodeId(0),
            dcn_topology::NodeId(1),
            0.0,
            2.0,
            4.0,
        )
        .unwrap();
        assert_eq!(
            residual_flow(&flow, 2.0, 1.0, 0).unwrap_err(),
            SolveError::DeadlinePassed { flow: 3, time: 2.0 }
        );
        assert_eq!(
            residual_flow(&flow, 5.0, 1.0, 0).unwrap_err(),
            SolveError::DeadlinePassed { flow: 3, time: 5.0 }
        );
        // A live flow yields the residual with the advanced release.
        let residual = residual_flow(&flow, 1.0, 2.5, 0).unwrap();
        assert_eq!(residual.release, 1.0);
        assert_eq!(residual.deadline, 2.0);
        assert_eq!(residual.volume, 2.5);
        // A non-positive remaining volume is invalid input, not a panic.
        assert!(matches!(
            residual_flow(&flow, 1.0, 0.0, 0).unwrap_err(),
            SolveError::InvalidInput { .. }
        ));
    }
}
