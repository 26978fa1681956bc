//! # deadline-dcn
//!
//! A from-scratch Rust reproduction of *"Energy-Efficient Flow Scheduling
//! and Routing with Hard Deadlines in Data Center Networks"* (Lin Wang,
//! Fa Zhang, Kai Zheng, Athanasios V. Vasilakos, Shaolei Ren, Zhiyong Liu —
//! ICDCS 2014, arXiv:1405.7484).
//!
//! This umbrella crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`topology`] — the data-center network substrate (fat-tree, BCube,
//!   leaf–spine, line and parallel-link builders, path algorithms).
//! * [`power`] — the power-down + speed-scaling link power model (Eq. 1 of
//!   the paper) and energy accounting.
//! * [`flow`] — deadline-constrained flows and workload generators,
//!   including the paper's Fig. 2 workload.
//! * [`solver`] — YDS speed scaling, convex-cost fractional multi-commodity
//!   flow (Frank–Wolfe) and Raghavan–Tompson path decomposition.
//! * [`core`] — the paper's algorithms: **Most-Critical-First** (optimal
//!   DCFS) and **Random-Schedule** (approximate DCFSR), baselines and the
//!   fractional lower bound, all behind the `SolverContext` + `Algorithm`
//!   session API with a string-keyed registry, and `Schedule::audit`, the
//!   one verdict on a schedule: deadlines met, link loads, capacity
//!   violations and energy.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `dcn-bench` crate for the harness regenerating the paper's evaluation.
//!
//! ```
//! use deadline_dcn::core::prelude::*;
//! use deadline_dcn::flow::workload::UniformWorkload;
//! use deadline_dcn::power::PowerFunction;
//! use deadline_dcn::topology::builders;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = builders::fat_tree(4);
//! let flows = UniformWorkload::paper_defaults(10, 1).generate(topo.hosts())?;
//! let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
//!
//! // One solver session per network; every scheduler plugs in by name.
//! let mut ctx = SolverContext::from_network(&topo.network)?;
//! let registry = AlgorithmRegistry::with_defaults();
//! let outcome = registry.create("dcfsr")?.solve(&mut ctx, &flows, &power)?;
//! println!("energy = {}", outcome.total_energy().unwrap());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dcn_core as core;
pub use dcn_flow as flow;
pub use dcn_power as power;
pub use dcn_solver as solver;
pub use dcn_topology as topology;
