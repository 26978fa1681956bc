//! Link power model for the deadline-constrained network energy saving
//! problem.
//!
//! The paper models every link with the combined power-down / speed-scaling
//! power function (its Eq. (1)):
//!
//! ```text
//! f(x) = 0                      if x = 0
//! f(x) = sigma + mu * x^alpha   if 0 < x <= C,  alpha > 1
//! ```
//!
//! where `sigma` is the idle power needed just to keep the link up, the
//! superadditive term `mu * x^alpha` is the rate-dependent (speed-scaling)
//! power, and `C` is the link capacity. A link may be powered down (zero
//! power) only if it carries no traffic for the whole horizon.
//!
//! This crate provides:
//!
//! * [`PowerFunction`] — the function itself plus the quantities the paper
//!   derives from it (optimal operating rate `R_opt` of Lemma 3, the power
//!   rate `f(x)/x`, marginal cost for the Frank–Wolfe solver).
//! * [`RateProfile`] — a piecewise-constant rate over time, with exact
//!   integration of both volume and energy.
//! * [`EnergyBreakdown`] — the value of `Phi_f` split into idle and dynamic
//!   energy. The accounting itself is `dcn_core::Schedule::energy`, the one
//!   place that knows which flows share a link: it folds `sigma * |horizon|`
//!   and [`RateProfile::dynamic_energy`] over the link aggregates.
//!
//! # Example
//!
//! ```
//! use dcn_power::PowerFunction;
//!
//! // The paper's Fig. 2 uses f(x) = x^2 (sigma = 0, mu = 1, alpha = 2) and
//! // f(x) = x^4 on identical links.
//! let f = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
//! assert_eq!(f.power(3.0), 9.0);
//! assert_eq!(f.power(0.0), 0.0);
//!
//! // With idle power the optimal operating rate of Lemma 3 is
//! // (sigma / (mu (alpha - 1)))^(1/alpha).
//! let f = PowerFunction::new(8.0, 1.0, 2.0, 10.0).unwrap();
//! assert!((f.optimal_rate() - 8f64.sqrt()).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod function;
mod meter;
mod profile;

pub use function::{PowerFunction, PowerFunctionError};
pub use meter::EnergyBreakdown;
pub use profile::RateProfile;
