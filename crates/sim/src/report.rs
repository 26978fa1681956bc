//! Simulation output: per-flow, per-link and aggregate measurements.

use dcn_core::LinkLoad;
use dcn_flow::FlowId;
use dcn_power::EnergyBreakdown;
use dcn_topology::LinkId;
use serde::{Deserialize, Serialize};

/// What happened to one flow during the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// The flow.
    pub flow: FlowId,
    /// Data delivered to the destination by the end of the horizon.
    pub delivered: f64,
    /// Data the flow was required to deliver.
    pub required: f64,
    /// The instant at which the last byte arrived, if the flow completed.
    pub completion_time: Option<f64>,
    /// The flow's hard deadline.
    pub deadline: f64,
}

impl FlowOutcome {
    /// Returns `true` if the flow delivered all of its data no later than
    /// its deadline.
    pub fn deadline_met(&self) -> bool {
        match self.completion_time {
            Some(t) => t <= self.deadline + 1e-9 && self.delivered >= self.required - 1e-6,
            None => false,
        }
    }

    /// Slack between completion and deadline (negative when the deadline is
    /// missed or the flow never completed).
    pub fn slack(&self) -> f64 {
        match self.completion_time {
            Some(t) => self.deadline - t,
            None => f64::NEG_INFINITY,
        }
    }
}

/// A compact, serializable digest of a [`SimReport`], sized for embedding
/// into experiment artifacts (one per scheduler per instance) where the
/// full per-flow / per-link breakdown would dominate the file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Number of flows that missed their deadline (or never completed).
    pub deadline_misses: usize,
    /// Number of links whose peak rate exceeded the capacity.
    pub capacity_violations: usize,
    /// The largest peak utilisation over all links (1.0 = at capacity).
    pub max_utilization: f64,
    /// Number of links that carried any traffic.
    pub active_links: usize,
    /// Total measured energy under the paper's objective.
    pub energy: f64,
}

impl SimSummary {
    /// Returns `true` when every flow met its deadline and no link exceeded
    /// its capacity.
    pub fn all_good(&self) -> bool {
        self.deadline_misses == 0 && self.capacity_violations == 0
    }
}

/// The complete result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-flow outcomes, indexed by flow id.
    pub flows: Vec<FlowOutcome>,
    /// Per-link loads for every link that carried traffic.
    pub links: Vec<LinkLoad>,
    /// Measured energy under the paper's objective.
    pub energy: EnergyBreakdown,
    /// Number of flows that missed their deadline (or never completed).
    pub deadline_misses: usize,
    /// Number of links whose peak rate exceeded the capacity.
    pub capacity_violations: usize,
    /// The largest peak utilisation over all links (1.0 = at capacity).
    pub max_utilization: f64,
    /// The simulated horizon `[T0, T1]`.
    pub horizon: (f64, f64),
}

impl SimReport {
    /// Returns `true` when every flow met its deadline and no link exceeded
    /// its capacity.
    pub fn all_good(&self) -> bool {
        self.deadline_misses == 0 && self.capacity_violations == 0
    }

    /// The outcome of a specific flow, if it was simulated.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowOutcome> {
        self.flows.iter().find(|f| f.flow == flow)
    }

    /// The load of a specific link, if it carried traffic.
    pub fn link(&self, link: LinkId) -> Option<&LinkLoad> {
        self.links.iter().find(|l| l.link == link)
    }

    /// Number of links that carried any traffic.
    pub fn active_link_count(&self) -> usize {
        self.links.len()
    }

    /// The compact digest of this report for experiment artifacts.
    pub fn summary(&self) -> SimSummary {
        SimSummary {
            deadline_misses: self.deadline_misses,
            capacity_violations: self.capacity_violations,
            max_utilization: self.max_utilization,
            active_links: self.links.len(),
            energy: self.energy.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_met_logic() {
        let ok = FlowOutcome {
            flow: 0,
            delivered: 10.0,
            required: 10.0,
            completion_time: Some(5.0),
            deadline: 6.0,
        };
        assert!(ok.deadline_met());
        assert!((ok.slack() - 1.0).abs() < 1e-12);

        let late = FlowOutcome {
            completion_time: Some(7.0),
            ..ok
        };
        assert!(!late.deadline_met());

        let never = FlowOutcome {
            completion_time: None,
            delivered: 3.0,
            ..ok
        };
        assert!(!never.deadline_met());
        assert_eq!(never.slack(), f64::NEG_INFINITY);
    }

    #[test]
    fn summary_digests_the_report() {
        let report = SimReport {
            flows: vec![],
            links: vec![LinkLoad {
                link: LinkId(0),
                peak_rate: 4.0,
                busy_time: 1.0,
                volume: 4.0,
                dynamic_energy: 16.0,
            }],
            energy: EnergyBreakdown {
                idle: 2.0,
                dynamic: 16.0,
                active_links: 1,
            },
            deadline_misses: 0,
            capacity_violations: 0,
            max_utilization: 0.4,
            horizon: (0.0, 10.0),
        };
        let s = report.summary();
        assert!(s.all_good());
        assert_eq!(s.active_links, 1);
        assert_eq!(s.energy, 18.0);
        assert_eq!(s.max_utilization, 0.4);
        let missed = SimSummary {
            deadline_misses: 1,
            ..s
        };
        assert!(!missed.all_good());
    }
}
