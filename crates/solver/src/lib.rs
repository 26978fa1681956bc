//! Optimization substrate for the deadline-constrained scheduling and
//! routing algorithms.
//!
//! The paper relies on three optimization building blocks that it treats as
//! given; this crate implements all of them from scratch:
//!
//! * [`yds`] — the Yao–Demers–Shenker optimal single-processor speed-scaling
//!   algorithm (FOCS 1995). The paper's Most-Critical-First algorithm for
//!   DCFS is a variant of YDS run on *virtual weights*, and its correctness
//!   argument (Theorem 1) reduces to YDS optimality.
//! * [`fmcf`] — fractional multi-commodity flow under the paper's power
//!   function as the cost of every link's load (with a penalty above its
//!   capacity), solved by the Frank–Wolfe (conditional-gradient) method
//!   with marginal-cost shortest paths and golden-section line search.
//!   This is the "solved by convex programming" step of Random-Schedule
//!   (Algorithm 2, line 3); its solutions are path mixtures, which is the
//!   form line 4 asks for.
//! * [`decompose`] — Raghavan–Tompson flow-path decomposition of a
//!   per-commodity edge flow into weighted paths (Algorithm 2, line 4):
//!   the solver runs it once per node pair, on the pair's unit ECMP
//!   split; tests use it as the oracle of the path mixtures.
//!
//! Two auxiliary modules support them: [`availability`] tracks blocked /
//! available time on a resource and tabulates which spans each candidate
//! interval contains (the critical-interval machinery of YDS and
//! Most-Critical-First), and [`brute`] contains small exact or exhaustive solvers used by the test
//! suite to certify optimality on micro instances.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod availability;
pub mod brute;
pub mod decompose;
pub mod fmcf;
pub mod yds;

pub use availability::{IntervalScan, TimeAvailability};
pub use decompose::{decompose_flow, WeightedPath};
pub use fmcf::{
    Commodity, Disconnected, FmcfProblem, FmcfSolution, FmcfSolverConfig, PowerFlowCost,
};
pub use yds::{edf_schedule, yds_schedule, Job, JobPlacement, YdsSchedule};
