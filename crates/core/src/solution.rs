//! The unified result type of the context-object API.
//!
//! Every [`crate::Algorithm`] returns one [`Solution`]: the schedule (when
//! the algorithm produces one — the fractional lower bound does not), the
//! energy under the instance's power function, the fractional lower bound
//! (when the algorithm computes it as a by-product) and a bag of
//! machine-readable [`Diagnostics`].

use crate::schedule::Schedule;
use dcn_power::EnergyBreakdown;

/// Per-run diagnostics of an [`crate::Algorithm`].
///
/// All fields are optional: every algorithm fills in what it measures and
/// leaves the rest `None`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Diagnostics {
    /// Rounding draws performed by randomized rounding (`dcfsr`).
    pub rounding_attempts: Option<usize>,
    /// Largest factor by which any link exceeds its capacity in the chosen
    /// schedule (`0.0` when all capacities are respected).
    pub capacity_excess: Option<f64>,
    /// Path assignments evaluated by exhaustive enumeration (`exact`).
    pub assignments_tried: Option<usize>,
    /// Intervals `I_k` solved by the fractional relaxation.
    pub relaxation_intervals: Option<usize>,
}

/// The outcome of running one [`crate::Algorithm`] on one instance.
#[derive(Debug, Clone)]
pub struct Solution {
    algorithm: String,
    /// The produced schedule; `None` for bound-only algorithms (`lb`).
    pub schedule: Option<Schedule>,
    /// Energy of [`Solution::schedule`] under the instance's power
    /// function (the paper's objective, Eq. 5); `None` when there is no
    /// schedule.
    pub energy: Option<EnergyBreakdown>,
    /// The fractional lower bound of the instance, when the algorithm
    /// computed it (`dcfsr` and `lb` do; the DCFS-based baselines do not).
    pub lower_bound: Option<f64>,
    /// Algorithm-specific run statistics.
    pub diagnostics: Diagnostics,
}

impl Solution {
    /// Creates a solution for `algorithm` carrying `schedule` and its
    /// precomputed energy.
    pub fn scheduled(
        algorithm: impl Into<String>,
        schedule: Schedule,
        energy: EnergyBreakdown,
    ) -> Self {
        Self {
            algorithm: algorithm.into(),
            schedule: Some(schedule),
            energy: Some(energy),
            lower_bound: None,
            diagnostics: Diagnostics::default(),
        }
    }

    /// Creates a bound-only solution (no schedule), as produced by the
    /// `lb` algorithm.
    pub fn bound_only(algorithm: impl Into<String>, lower_bound: f64) -> Self {
        Self {
            algorithm: algorithm.into(),
            schedule: None,
            energy: None,
            lower_bound: Some(lower_bound),
            diagnostics: Diagnostics::default(),
        }
    }

    /// The name of the algorithm that produced this solution (matches
    /// [`crate::Algorithm::name`]).
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Total energy of the schedule (idle + dynamic), if there is one.
    pub fn total_energy(&self) -> Option<f64> {
        self.energy.map(|e| e.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_only_solutions_have_no_schedule() {
        let s = Solution::bound_only("lb", 42.0);
        assert_eq!(s.algorithm(), "lb");
        assert_eq!(s.lower_bound, Some(42.0));
        assert!(s.schedule.is_none());
        assert!(s.energy.is_none());
        assert!(s.total_energy().is_none());
        assert_eq!(s.diagnostics, Diagnostics::default());
    }

    #[test]
    fn scheduled_solutions_expose_energy() {
        let schedule = Schedule::new(Vec::new(), (0.0, 1.0));
        let energy = EnergyBreakdown {
            idle: 1.0,
            dynamic: 2.0,
            active_links: 3,
        };
        let s = Solution::scheduled("sp-mcf", schedule, energy);
        assert_eq!(s.algorithm(), "sp-mcf");
        assert_eq!(s.total_energy(), Some(3.0));
        assert!(s.lower_bound.is_none());
    }
}
