//! Flow sets: collections of flows plus the interval machinery used by the
//! DCFSR relaxation.

use crate::{Flow, FlowError, FlowId};
use dcn_topology::Network;
use serde::{Deserialize, Serialize};

/// A half-open time interval `I_k = [start, end)` between two consecutive
/// breakpoints of a flow set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Interval index `k` (0-based).
    pub index: usize,
    /// Start time `t_{k-1}`.
    pub start: f64,
    /// End time `t_k`.
    pub end: f64,
}

impl Interval {
    /// Length `|I_k|` of the interval.
    pub fn length(&self) -> f64 {
        self.end - self.start
    }
}

/// A validated collection of deadline-constrained flows with dense ids.
///
/// Provides the quantities the DCFSR algorithm needs: the breakpoint set
/// `T = {t_0, ..., t_K}` of all distinct release times and deadlines, the
/// intervals `I_k = [t_{k-1}, t_k]`, the per-interval active-flow sets and
/// the granularity parameter `lambda = (t_K - t_0) / min_k |I_k|`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSet {
    flows: Vec<Flow>,
}

impl FlowSet {
    /// Builds a flow set, checking that flow ids are dense (`0..n`) and
    /// unique.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::DuplicateId`] or [`FlowError::NonDenseIds`] when
    /// the id invariant is violated, and propagates per-flow validation
    /// errors when a flow is itself invalid.
    pub fn from_flows(flows: Vec<Flow>) -> Result<Self, FlowError> {
        let n = flows.len();
        let mut seen = vec![false; n];
        for f in &flows {
            // Re-validate each flow defensively (Flow::new already checks).
            Flow::new(f.id, f.src, f.dst, f.release, f.deadline, f.volume)?;
            if f.id >= n {
                return Err(FlowError::NonDenseIds);
            }
            if seen[f.id] {
                return Err(FlowError::DuplicateId(f.id));
            }
            seen[f.id] = true;
        }
        Ok(Self { flows })
    }

    /// Builds a flow set from `(src, dst, release, deadline, volume)` tuples,
    /// assigning dense ids in order.
    pub fn from_tuples(
        tuples: impl IntoIterator<Item = (dcn_topology::NodeId, dcn_topology::NodeId, f64, f64, f64)>,
    ) -> Result<Self, FlowError> {
        let flows = tuples
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst, r, d, w))| Flow::new(i, src, dst, r, d, w))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_flows(flows)
    }

    /// Number of flows `n`.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Returns `true` if the set contains no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id]
    }

    /// Iterates over the flows in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.flows.iter()
    }

    /// All flows as a slice, in id order.
    pub fn as_slice(&self) -> &[Flow] {
        &self.flows
    }

    /// The horizon `[T0, T1]`: earliest release time and latest deadline.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn horizon(&self) -> (f64, f64) {
        assert!(!self.is_empty(), "horizon of an empty flow set");
        let t0 = self
            .flows
            .iter()
            .map(|f| f.release)
            .fold(f64::INFINITY, f64::min);
        let t1 = self
            .flows
            .iter()
            .map(|f| f.deadline)
            .fold(f64::NEG_INFINITY, f64::max);
        (t0, t1)
    }

    /// The sorted, de-duplicated breakpoint set `T = {t_0, ..., t_K}` of all
    /// release times and deadlines.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = self
            .flows
            .iter()
            .flat_map(|f| [f.release, f.deadline])
            .collect();
        ts.sort_by(|a, b| a.partial_cmp(b).expect("flow times are finite"));
        ts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        ts
    }

    /// The intervals `I_k = [t_{k-1}, t_k]` between consecutive breakpoints.
    pub fn intervals(&self) -> Vec<Interval> {
        self.breakpoints()
            .windows(2)
            .enumerate()
            .map(|(index, w)| Interval {
                index,
                start: w[0],
                end: w[1],
            })
            .collect()
    }

    /// The granularity parameter `lambda = (t_K - t_0) / min_k |I_k|`
    /// appearing in the approximation ratio of Random-Schedule.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn lambda(&self) -> f64 {
        let (t0, t1) = self.horizon();
        let min_len = self
            .intervals()
            .iter()
            .map(Interval::length)
            .fold(f64::INFINITY, f64::min);
        (t1 - t0) / min_len
    }

    /// Ids of the flows whose span contains the whole interval (the flows
    /// that are "active in `I_k`" for the per-interval F-MCF subproblem).
    pub fn active_in_interval(&self, interval: &Interval) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.spans_interval(interval.start, interval.end))
            .map(|f| f.id)
            .collect()
    }

    /// Ids of the flows active at time instant `t`.
    pub fn active_at(&self, t: f64) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.is_active_at(t))
            .map(|f| f.id)
            .collect()
    }

    /// The largest flow density `D = max_i D_i` (used in the approximation
    /// ratio), or zero for an empty set.
    pub fn max_density(&self) -> f64 {
        self.flows.iter().map(Flow::density).fold(0.0, f64::max)
    }

    /// Total data volume over all flows.
    pub fn total_volume(&self) -> f64 {
        self.flows.iter().map(|f| f.volume).sum()
    }

    /// Checks that every flow's endpoints exist in `network` and are
    /// distinct nodes, returning the offending flow ids.
    pub fn invalid_endpoints(&self, network: &Network) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| {
                f.src.index() >= network.node_count() || f.dst.index() >= network.node_count()
            })
            .map(|f| f.id)
            .collect()
    }
}

impl<'a> IntoIterator for &'a FlowSet {
    type Item = &'a Flow;
    type IntoIter = std::slice::Iter<'a, Flow>;

    fn into_iter(self) -> Self::IntoIter {
        self.flows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{builders, NodeId};

    fn example1() -> FlowSet {
        FlowSet::from_tuples([
            (NodeId(0), NodeId(2), 2.0, 4.0, 6.0),
            (NodeId(0), NodeId(1), 1.0, 3.0, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn breakpoints_and_intervals() {
        let fs = example1();
        assert_eq!(fs.breakpoints(), vec![1.0, 2.0, 3.0, 4.0]);
        let ivs = fs.intervals();
        assert_eq!(ivs.len(), 3);
        assert_eq!(ivs[0].start, 1.0);
        assert_eq!(ivs[2].end, 4.0);
        assert_eq!(ivs[1].length(), 1.0);
        assert_eq!(fs.horizon(), (1.0, 4.0));
        assert_eq!(fs.lambda(), 3.0);
    }

    #[test]
    fn active_flow_queries() {
        let fs = example1();
        let ivs = fs.intervals();
        // [1,2): only flow 1; [2,3): both; [3,4): only flow 0.
        assert_eq!(fs.active_in_interval(&ivs[0]), vec![1]);
        assert_eq!(fs.active_in_interval(&ivs[1]), vec![0, 1]);
        assert_eq!(fs.active_in_interval(&ivs[2]), vec![0]);
        assert_eq!(fs.active_at(2.5), vec![0, 1]);
        assert_eq!(fs.active_at(0.5), Vec::<FlowId>::new());
    }

    #[test]
    fn densities_and_volumes() {
        let fs = example1();
        assert_eq!(fs.max_density(), 4.0);
        assert_eq!(fs.total_volume(), 14.0);
    }

    #[test]
    fn id_validation() {
        let dup = vec![
            Flow::new(0, NodeId(0), NodeId(1), 0.0, 1.0, 1.0).unwrap(),
            Flow::new(0, NodeId(1), NodeId(2), 0.0, 1.0, 1.0).unwrap(),
        ];
        assert!(matches!(
            FlowSet::from_flows(dup),
            Err(FlowError::DuplicateId(0))
        ));

        let sparse = vec![Flow::new(5, NodeId(0), NodeId(1), 0.0, 1.0, 1.0).unwrap()];
        assert!(matches!(
            FlowSet::from_flows(sparse),
            Err(FlowError::NonDenseIds)
        ));
    }

    #[test]
    fn duplicate_breakpoints_are_merged() {
        let fs = FlowSet::from_tuples([
            (NodeId(0), NodeId(1), 0.0, 10.0, 1.0),
            (NodeId(1), NodeId(2), 0.0, 10.0, 2.0),
            (NodeId(2), NodeId(3), 5.0, 10.0, 3.0),
        ])
        .unwrap();
        assert_eq!(fs.breakpoints(), vec![0.0, 5.0, 10.0]);
        assert_eq!(fs.intervals().len(), 2);
        assert_eq!(fs.lambda(), 2.0);
    }

    #[test]
    fn endpoint_validation_against_network() {
        let t = builders::line(3);
        let ok = FlowSet::from_tuples([(t.hosts()[0], t.hosts()[2], 0.0, 1.0, 1.0)]).unwrap();
        assert!(ok.invalid_endpoints(&t.network).is_empty());

        let bad = FlowSet::from_tuples([(NodeId(99), t.hosts()[2], 0.0, 1.0, 1.0)]).unwrap();
        assert_eq!(bad.invalid_endpoints(&t.network), vec![0]);
    }

    #[test]
    fn empty_set_behaviour() {
        let fs = FlowSet::from_flows(vec![]).unwrap();
        assert!(fs.is_empty());
        assert_eq!(fs.max_density(), 0.0);
        assert!(fs.breakpoints().is_empty());
        assert!(fs.intervals().is_empty());
    }

    #[test]
    fn iteration_is_in_id_order() {
        let fs = example1();
        let ids: Vec<_> = fs.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![0, 1]);
        let ids2: Vec<_> = (&fs).into_iter().map(|f| f.id).collect();
        assert_eq!(ids2, ids);
    }
}
