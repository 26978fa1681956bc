//! Fluid, event-driven network simulator for deadline-constrained flow
//! schedules.
//!
//! The paper's evaluation is simulation-only (the authors used an
//! unreleased Python simulator). This crate is the Rust substitute: it
//! *executes* a [`dcn_core::Schedule`] on a topology at flow-level (fluid)
//! granularity and measures, independently of the analytic formulas in
//! `dcn-core`/`dcn-power`:
//!
//! * per-flow delivery: how much data arrived at the destination, when the
//!   flow completed, and whether its hard deadline was met;
//! * per-link load: instantaneous aggregate rate, peak rate and utilisation,
//!   busy time, and capacity violations;
//! * energy: the paper's objective (idle energy for every active link over
//!   the whole horizon, plus the speed-scaling energy integrated over time).
//!
//! A replay is one walk per link over the segments of its aggregate rate
//! `x_e(t)` ([`dcn_core::Schedule::link_profiles`]) and one walk per flow
//! over the segments of its arrival profile: between a profile's own
//! breakpoints nothing of that profile changes, so there is no global
//! breakpoint list and the cost is linear in what the schedule stores.
//! The energy folds the same segments in the same order as
//! [`dcn_core::Schedule::energy`], so the two figures are equal to the bit
//! (the test suites assert exactly that), and a link is over capacity by
//! the one predicate [`dcn_core::Schedule::verify_on`] uses
//! ([`dcn_core::schedule::exceeds_capacity`]).
//!
//! Schedules produced by the event-driven online engine
//! ([`dcn_core::online`]) are executed the same way — the slices a policy
//! commits between events, whether solver re-solves or direct rate
//! assignments, are appended to ordinary per-flow rate profiles — with one
//! admission-aware entry point: [`Simulator::run_admitted`] excludes
//! flows the admission rule rejected from the deadline-miss count, so
//! online reports measure scheduling quality rather than admission
//! strictness.
//!
//! # Example
//!
//! ```
//! use dcn_core::{Algorithm, RoutedMcf, SolverContext};
//! use dcn_flow::workload::UniformWorkload;
//! use dcn_power::PowerFunction;
//! use dcn_sim::Simulator;
//! use dcn_topology::builders;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = builders::fat_tree(4);
//! let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
//! let flows = UniformWorkload::paper_defaults(20, 1).generate(topo.hosts())?;
//! let mut ctx = SolverContext::from_network(&topo.network)?;
//! let solution = RoutedMcf::shortest_path().solve(&mut ctx, &flows, &power)?;
//! let schedule = solution.schedule.as_ref().unwrap();
//!
//! let report = Simulator::new(power).run_ctx(&ctx, &flows, schedule);
//! assert_eq!(report.deadline_misses, 0);
//! assert_eq!(report.energy.total(), schedule.energy(&power).total());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod report;
mod simulator;

pub use report::{FlowOutcome, LinkLoad, SimReport, SimSummary};
pub use simulator::Simulator;
