//! Deadline-constrained flows and workload generators.
//!
//! The paper models an application as a set of *deadline-constrained flows*:
//! flow `j_i` must move `w_i` units of data from host `p_i` to host `q_i`,
//! entirely inside its span `[r_i, d_i]` (release time to hard deadline).
//! This crate provides:
//!
//! * [`Flow`] and [`FlowSet`] — the flow model, span/density helpers and the
//!   breakpoint/interval machinery (`T = {t_0, ..., t_K}`, intervals `I_k`,
//!   and the granularity parameter `lambda`) used by the Random-Schedule
//!   algorithm.
//! * [`workload`] — seeded, reproducible workload generators: the uniform
//!   random workload from the paper's Fig. 2 evaluation, application-shaped
//!   workloads (partition–aggregate "search" and MapReduce shuffle), the
//!   adversarial parallel-link gadgets from the hardness proofs, and the
//!   [`workload::ArrivalProcess`] overlay that turns any of them into an
//!   online instance (Poisson arrivals at a configurable load factor).
//! * [`failure`] — seeded link failure/recovery processes: the
//!   [`failure::FailureProcess`] alternating-renewal model that generates
//!   the typed topology-event stream the online engine merges into its
//!   event queue.
//!
//! # Example
//!
//! ```
//! use dcn_flow::{Flow, FlowSet};
//! use dcn_topology::NodeId;
//!
//! let flows = FlowSet::from_flows(vec![
//!     Flow::new(0, NodeId(0), NodeId(2), 2.0, 4.0, 6.0).unwrap(),
//!     Flow::new(1, NodeId(0), NodeId(1), 1.0, 3.0, 8.0).unwrap(),
//! ])
//! .unwrap();
//!
//! assert_eq!(flows.horizon(), (1.0, 4.0));
//! assert_eq!(flows.breakpoints(), vec![1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(flows.intervals().len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod failure;
mod flow;
mod set;
pub mod workload;

pub use flow::{Flow, FlowError, FlowId};
pub use set::{FlowSet, Interval};
