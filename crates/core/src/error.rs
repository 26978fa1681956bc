//! The unified error type of the context-object API.
//!
//! Every [`crate::Algorithm`] reports failures through one typed
//! [`SolveError`], replacing the mix of per-module error enums, `Option`s
//! and panics the one-shot entry points grew over time. The per-module
//! errors ([`DcfsError`], [`DcfsrError`], [`RoutingError`], [`ExactError`])
//! are what the graph-level primitives return; they convert into
//! `SolveError` losslessly via `From`.

use crate::dcfs::DcfsError;
use crate::dcfsr::DcfsrError;
use crate::exact::ExactError;
use crate::routing::RoutingError;
use crate::schedule::ScheduleError;
use dcn_flow::{FlowError, FlowId};
use dcn_topology::LinkId;
use std::fmt;

/// The unified error of [`crate::Algorithm::solve`] and
/// [`crate::SolverContext`].
///
/// Marked `#[non_exhaustive]`: future PRs may add variants (e.g. timeouts
/// for the async serving layer) without a breaking change, so downstream
/// matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The topology or the flow set is malformed: non-positive or
    /// non-finite link capacity, a link endpoint outside the node range, a
    /// flow endpoint outside the node range, or a source equal to its
    /// destination.
    InvalidInput {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// The flow set contains no flows; the algorithms have nothing to
    /// schedule and the lower bound would be trivially zero.
    EmptyFlowSet,
    /// A flow has no path between its endpoints in the network.
    Unroutable {
        /// The flow that cannot be routed.
        flow: FlowId,
    },
    /// No schedule can meet every deadline under the algorithm's model
    /// (e.g. the virtual-circuit occupation of Most-Critical-First leaves a
    /// flow without available time).
    Infeasible {
        /// The link on which the conflict was detected.
        link: LinkId,
    },
    /// The number of externally supplied paths does not match the number of
    /// flows (DCFS takes routing as input).
    PathCountMismatch {
        /// Number of flows in the instance.
        flows: usize,
        /// Number of paths supplied.
        paths: usize,
    },
    /// An externally supplied path does not connect its flow's endpoints.
    PathMismatch {
        /// The flow whose path is wrong.
        flow: FlowId,
    },
    /// The instance is too large for exhaustive enumeration (the `exact`
    /// algorithm only).
    TooLarge {
        /// Number of path assignments enumeration would need to visit.
        combinations: u128,
        /// The configured enumeration budget.
        budget: u128,
    },
    /// Exhaustive enumeration found no feasible path assignment.
    NoFeasibleAssignment,
    /// A flow's deadline is not strictly later than the current time of the
    /// online rolling-horizon loop, so no residual instance containing it
    /// can be formed (its span would be empty). The online loop records the
    /// flow as missed instead of re-solving with it.
    DeadlinePassed {
        /// The flow whose deadline has passed.
        flow: FlowId,
        /// The online clock at which the flow was considered.
        time: f64,
    },
    /// The requested algorithm name is not one of
    /// [`crate::AlgorithmRegistry::NAMES`].
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
    },
    /// The requested online-policy name is not one of
    /// [`crate::online::POLICY_NAMES`].
    UnknownPolicy {
        /// The name that failed to resolve.
        name: String,
    },
    /// A produced schedule failed verification against its instance.
    Verification(ScheduleError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            SolveError::EmptyFlowSet => write!(f, "the flow set contains no flows"),
            SolveError::Unroutable { flow } => {
                write!(f, "flow {flow} has no path between its endpoints")
            }
            SolveError::Infeasible { link } => write!(
                f,
                "no feasible schedule: link {link} has no available time left"
            ),
            SolveError::PathCountMismatch { flows, paths } => {
                write!(f, "{flows} flows but {paths} paths were provided")
            }
            SolveError::PathMismatch { flow } => {
                write!(f, "path of flow {flow} does not connect its endpoints")
            }
            SolveError::TooLarge {
                combinations,
                budget,
            } => write!(
                f,
                "exhaustive search would visit {combinations} assignments (budget {budget})"
            ),
            SolveError::NoFeasibleAssignment => {
                write!(f, "no path assignment admits a feasible schedule")
            }
            SolveError::DeadlinePassed { flow, time } => {
                write!(
                    f,
                    "flow {flow}: deadline is not after the online clock {time}"
                )
            }
            SolveError::UnknownAlgorithm { name } => {
                write!(f, "no algorithm named {name:?} is registered")
            }
            SolveError::UnknownPolicy { name } => {
                write!(f, "no online policy named {name:?} is registered")
            }
            SolveError::Verification(e) => write!(f, "schedule verification failed: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<RoutingError> for SolveError {
    fn from(value: RoutingError) -> Self {
        match value {
            RoutingError::Unreachable { flow } => SolveError::Unroutable { flow },
        }
    }
}

impl From<DcfsError> for SolveError {
    fn from(value: DcfsError) -> Self {
        match value {
            DcfsError::PathCountMismatch { flows, paths } => {
                SolveError::PathCountMismatch { flows, paths }
            }
            DcfsError::PathMismatch { flow } => SolveError::PathMismatch { flow },
            DcfsError::Infeasible { link } => SolveError::Infeasible { link },
        }
    }
}

impl From<DcfsrError> for SolveError {
    fn from(value: DcfsrError) -> Self {
        match value {
            DcfsrError::Unroutable { flow } => SolveError::Unroutable { flow },
        }
    }
}

/// The relaxation names its commodities by flow id.
impl From<dcn_solver::fmcf::Disconnected> for SolveError {
    fn from(value: dcn_solver::fmcf::Disconnected) -> Self {
        SolveError::Unroutable {
            flow: value.commodity,
        }
    }
}

impl From<ExactError> for SolveError {
    fn from(value: ExactError) -> Self {
        match value {
            ExactError::TooLarge {
                combinations,
                budget,
            } => SolveError::TooLarge {
                combinations,
                budget,
            },
            ExactError::Unroutable { flow } => SolveError::Unroutable { flow },
            ExactError::NoFeasibleAssignment => SolveError::NoFeasibleAssignment,
        }
    }
}

impl From<FlowError> for SolveError {
    fn from(value: FlowError) -> Self {
        SolveError::InvalidInput {
            reason: value.to_string(),
        }
    }
}

impl From<ScheduleError> for SolveError {
    fn from(value: ScheduleError) -> Self {
        SolveError::Verification(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleViolation;
    use dcn_topology::LinkId;

    #[test]
    fn every_variant_displays_its_context() {
        let cases: Vec<(SolveError, &str)> = vec![
            (
                SolveError::InvalidInput {
                    reason: "capacity of link 3 is -1".to_string(),
                },
                "link 3",
            ),
            (SolveError::EmptyFlowSet, "no flows"),
            (SolveError::Unroutable { flow: 7 }, "flow 7"),
            (SolveError::Infeasible { link: LinkId(4) }, "link e4"),
            (
                SolveError::PathCountMismatch { flows: 3, paths: 1 },
                "3 flows but 1 paths",
            ),
            (SolveError::PathMismatch { flow: 2 }, "flow 2"),
            (
                SolveError::TooLarge {
                    combinations: 1024,
                    budget: 100,
                },
                "1024",
            ),
            (SolveError::NoFeasibleAssignment, "no path assignment"),
            (SolveError::DeadlinePassed { flow: 6, time: 9.5 }, "flow 6"),
            (
                SolveError::UnknownAlgorithm {
                    name: "dcfsr2".to_string(),
                },
                "dcfsr2",
            ),
            (
                SolveError::UnknownPolicy {
                    name: "edf2".to_string(),
                },
                "edf2",
            ),
            (
                SolveError::Verification(ScheduleError {
                    violations: vec![ScheduleViolation::MissingFlow(5)],
                }),
                "flow 5",
            ),
        ];
        for (error, needle) in cases {
            let text = error.to_string();
            assert!(text.contains(needle), "{error:?} renders as {text:?}");
        }
    }

    #[test]
    fn module_errors_convert_losslessly() {
        assert_eq!(
            SolveError::from(RoutingError::Unreachable { flow: 1 }),
            SolveError::Unroutable { flow: 1 }
        );
        assert_eq!(
            SolveError::from(DcfsError::Infeasible { link: LinkId(2) }),
            SolveError::Infeasible { link: LinkId(2) }
        );
        assert_eq!(
            SolveError::from(DcfsError::PathCountMismatch { flows: 2, paths: 0 }),
            SolveError::PathCountMismatch { flows: 2, paths: 0 }
        );
        assert_eq!(
            SolveError::from(DcfsrError::Unroutable { flow: 3 }),
            SolveError::Unroutable { flow: 3 }
        );
        assert_eq!(
            SolveError::from(ExactError::NoFeasibleAssignment),
            SolveError::NoFeasibleAssignment
        );
        let flow_err = dcn_flow::Flow::new(
            0,
            dcn_topology::NodeId(0),
            dcn_topology::NodeId(0),
            0.0,
            1.0,
            1.0,
        )
        .unwrap_err();
        assert!(matches!(
            SolveError::from(flow_err),
            SolveError::InvalidInput { .. }
        ));
    }
}
