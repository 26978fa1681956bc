//! Core algorithms of *"Energy-Efficient Flow Scheduling and Routing with
//! Hard Deadlines in Data Center Networks"* (Wang et al., ICDCS 2014).
//!
//! The paper studies how to transmit a set of deadline-constrained flows on
//! a data-center network with minimum link energy, where every link follows
//! the combined power-down / speed-scaling power model of [`dcn_power`].
//! Two problem versions are treated, and this crate implements the paper's
//! algorithm for each:
//!
//! * **DCFS** (Deadline-Constrained Flow Scheduling) — routing paths are
//!   given, only transmission rates and timing are chosen. The optimal
//!   combinatorial algorithm **Most-Critical-First** (paper Algorithm 1) is
//!   implemented in [`dcfs`].
//! * **DCFSR** (Deadline-Constrained Flow Scheduling and Routing) — paths
//!   are chosen too. The problem is strongly NP-hard; the randomized
//!   approximation algorithm **Random-Schedule** (paper Algorithm 2) is
//!   implemented in [`dcfsr`], on top of the per-interval fractional
//!   multi-commodity-flow relaxation in [`relaxation`].
//!
//! # The session API
//!
//! Every scheme — the two paper algorithms, the five comparison baselines
//! of [`algorithm`], the fractional lower bound and the exhaustive optimum
//! of [`exact`] — is exposed behind one pluggable interface:
//!
//! * [`SolverContext`] is built **once** per network and owns all warm
//!   solver state (the CSR graph view, the arena-reuse shortest-path
//!   engine, the Frank–Wolfe scratch), so every caller gets the
//!   allocation-free hot path by default. A solve runs sequentially on
//!   the calling thread; callers that want parallelism run independent
//!   instances side by side, as the benchmark harness does;
//! * [`Algorithm`] is the scheduler trait (`solve(ctx, flows, power)`),
//!   returning one [`Solution`] (schedule + energy + lower bound +
//!   diagnostics) or one typed [`SolveError`];
//! * [`AlgorithmRegistry`] builds schedulers **by name** (`"dcfsr"`,
//!   `"sp-mcf"`, `"ecmp"`, ...) with one `match`, which is how the
//!   benchmark harness and its `--algorithms` flag select them.
//!
//! Supporting modules: [`schedule`] (the schedule data model, feasibility
//! verification and energy accounting), [`routing`] (path selection
//! strategies for the DCFS input and the SP+MCF baseline), and [`online`]
//! (the event-driven engine that reveals flows at their release times and
//! re-plans their rates per event through a pluggable [`OnlinePolicy`] —
//! from full residual re-solves with any wrapped [`Algorithm`] down to
//! solver-free EDF/SRPT/rapid-close-to-deadline priority rules, built by
//! name by [`online::create_policy`] — recording admit/miss outcomes
//! against the offline clairvoyant bound).
//!
//! # Quick start
//!
//! ```
//! use dcn_core::prelude::*;
//! use dcn_flow::workload::UniformWorkload;
//! use dcn_power::PowerFunction;
//! use dcn_topology::builders;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small fat-tree and a random deadline-constrained workload.
//! let topo = builders::fat_tree(4);
//! let flows = UniformWorkload::paper_defaults(20, 42).generate(topo.hosts())?;
//! let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
//!
//! // One context per network; algorithms resolve by name.
//! let mut ctx = SolverContext::from_network(&topo.network)?;
//! let registry = AlgorithmRegistry::with_defaults();
//! let outcome = registry.create("dcfsr")?.solve(&mut ctx, &flows, &power)?;
//!
//! // The schedule is feasible and never beats the fractional lower bound.
//! ctx.verify(outcome.schedule.as_ref().unwrap(), &flows, &power)?;
//! assert!(outcome.total_energy().unwrap() >= outcome.lower_bound.unwrap() - 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod context;
pub mod dcfs;
pub mod dcfsr;
pub mod error;
pub mod exact;
pub mod online;
pub mod relaxation;
pub mod routing;
pub mod schedule;
pub mod solution;

pub use algorithm::{
    Algorithm, AlgorithmRegistry, ConsolidatingMcf, Dcfsr, ExactBrute, FullRateGreedy,
    RelaxationLb, RoutedMcf,
};
pub use context::SolverContext;
pub use dcfs::{most_critical_first, DcfsError};
pub use dcfsr::{RandomSchedule, RandomScheduleConfig, RandomScheduleOutcome};
pub use error::SolveError;
pub use exact::{ExactError, ExactOutcome};
pub use online::{
    AdmissionRule, EngineConfig, FlowDecision, InFlightLedger, LedgerEntry, OnlineEngine,
    OnlineOutcome, OnlinePolicy, OnlineReport,
};
pub use relaxation::{interval_relaxation_with, IntervalRelaxation, RelaxationSummary};
pub use routing::{Routing, RoutingError};
pub use schedule::{FlowSchedule, LinkLoad, Schedule, ScheduleError, ScheduleViolation};
pub use solution::{Diagnostics, Solution};

/// Convenient glob import of the crate's main types.
pub mod prelude {
    pub use crate::algorithm::{
        Algorithm, AlgorithmRegistry, ConsolidatingMcf, Dcfsr, ExactBrute, FullRateGreedy,
        RelaxationLb, RoutedMcf,
    };
    pub use crate::context::SolverContext;
    pub use crate::dcfs::most_critical_first;
    pub use crate::dcfsr::{RandomSchedule, RandomScheduleConfig, RandomScheduleOutcome};
    pub use crate::error::SolveError;
    pub use crate::online::{
        AdmissionRule, EngineConfig, InFlightLedger, OnlineEngine, OnlineOutcome, OnlinePolicy,
        OnlineReport,
    };
    pub use crate::routing::Routing;
    pub use crate::schedule::{FlowSchedule, Schedule};
    pub use crate::solution::{Diagnostics, Solution};
}
