//! The unified result type of the context-object API.
//!
//! Every [`crate::Algorithm`] returns one [`Solution`]: the schedule (when
//! the algorithm produces one — the fractional lower bound does not) with
//! its [`Audit`] on the context's graph, built once where the schedule is
//! made (the energy under the instance's power function, each flow's
//! delivery, each link's load, the capacity excess and every violation),
//! the fractional lower bound (when the algorithm computes it as a
//! by-product) and a bag of machine-readable [`Diagnostics`].

use crate::schedule::{Audit, Schedule};

/// Per-run diagnostics of an [`crate::Algorithm`].
///
/// All fields are optional: every algorithm fills in what it measures and
/// leaves the rest `None`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Diagnostics {
    /// Rounding draws performed by randomized rounding (`dcfsr`).
    pub rounding_attempts: Option<usize>,
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
    /// [`Schedule::audit`] of [`Solution::schedule`] on the context's graph
    /// and the instance it solves; `Some` exactly when the schedule is.
    pub audit: Option<Audit>,
    /// The fractional lower bound of the instance, when the algorithm
    /// computed it (`dcfsr` and `lb` do; the DCFS-based baselines do not).
    pub lower_bound: Option<f64>,
    /// Algorithm-specific run statistics.
    pub diagnostics: Diagnostics,
}

impl Solution {
    /// Creates a solution for `algorithm` carrying `schedule` and its
    /// `audit`.
    pub fn scheduled(algorithm: impl Into<String>, schedule: Schedule, audit: Audit) -> Self {
        Self {
            algorithm: algorithm.into(),
            schedule: Some(schedule),
            audit: Some(audit),
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
            audit: None,
            lower_bound: Some(lower_bound),
            diagnostics: Diagnostics::default(),
        }
    }

    /// The name of the algorithm that produced this solution (matches
    /// [`crate::Algorithm::name`]).
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Total energy of the schedule (idle + dynamic; the paper's objective,
    /// Eq. 5), if there is one.
    pub fn total_energy(&self) -> Option<f64> {
        self.audit.as_ref().map(|audit| audit.energy.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FlowSchedule;
    use dcn_flow::FlowSet;
    use dcn_power::{PowerFunction, RateProfile};

    #[test]
    fn bound_only_solutions_have_no_schedule() {
        let s = Solution::bound_only("lb", 42.0);
        assert_eq!(s.algorithm(), "lb");
        assert_eq!(s.lower_bound, Some(42.0));
        assert!(s.schedule.is_none());
        assert!(s.audit.is_none());
        assert!(s.total_energy().is_none());
        assert_eq!(s.diagnostics, Diagnostics::default());
    }

    #[test]
    fn scheduled_solutions_expose_their_audit_energy() {
        // One flow of volume 4 at rate 2 over [0, 2] on one link under
        // σ + x^2: idle 1·2 plus dynamic 2^2·2.
        let topo = dcn_topology::builders::line(2);
        let (a, b) = (topo.hosts()[0], topo.hosts()[1]);
        let graph = topo.csr();
        let flows = FlowSet::from_tuples([(a, b, 0.0, 2.0, 4.0)]).unwrap();
        let power = PowerFunction::new(1.0, 1.0, 2.0, 10.0).unwrap();
        let path = graph.shortest_path(a, b).unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                RateProfile::constant(0.0, 2.0, 2.0),
            )],
            flows.horizon(),
        );
        let audit = schedule.audit(&graph, &flows, &power);
        let s = Solution::scheduled("sp-mcf", schedule, audit);
        assert_eq!(s.algorithm(), "sp-mcf");
        assert_eq!(s.total_energy(), Some(10.0));
        assert!(s.lower_bound.is_none());
    }
}
