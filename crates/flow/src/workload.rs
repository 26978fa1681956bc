//! Seeded, reproducible workload generators.
//!
//! The paper evaluates on a synthetic workload (Section V-C): release times
//! and deadlines drawn uniformly from the horizon `[1, 100]` and volumes
//! drawn from a normal distribution `N(10, 3)`. [`UniformWorkload`]
//! reproduces that setup. In addition this module provides two
//! application-shaped generators that match the motivation in the paper's
//! introduction (partition–aggregate "search" traffic and MapReduce shuffle
//! traffic) and the adversarial instances used by the hardness proofs.

use crate::{Flow, FlowError, FlowSet};
use dcn_topology::NodeId;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// The synthetic workload from the paper's Fig. 2 evaluation.
///
/// Flows pick distinct random source and destination hosts; release and
/// deadline are drawn uniformly from the horizon (re-drawn until the span is
/// at least [`Self::min_span`]); the volume is drawn from `N(volume_mean,
/// volume_std)` truncated to be positive.
///
/// # Example
///
/// ```
/// use dcn_flow::workload::UniformWorkload;
/// use dcn_topology::builders;
///
/// let topo = builders::fat_tree(4);
/// let flows = UniformWorkload::paper_defaults(40, 7)
///     .generate(topo.hosts())
///     .unwrap();
/// assert_eq!(flows.len(), 40);
/// let (t0, t1) = flows.horizon();
/// assert!(t0 >= 1.0 && t1 <= 100.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformWorkload {
    /// Number of flows to generate.
    pub num_flows: usize,
    /// Start of the horizon from which release/deadline are drawn.
    pub horizon_start: f64,
    /// End of the horizon from which release/deadline are drawn.
    pub horizon_end: f64,
    /// Mean of the normal volume distribution (paper: 10).
    pub volume_mean: f64,
    /// Standard deviation of the volume distribution (paper: 3).
    pub volume_std: f64,
    /// Minimum span length enforced between release and deadline.
    pub min_span: f64,
    /// RNG seed; the same seed always yields the same workload.
    pub seed: u64,
}

impl UniformWorkload {
    /// The paper's parameters: horizon `[1, 100]`, volumes `N(10, 3)`.
    ///
    /// `min_span` is set to `5.0` so that no flow requires a rate anywhere
    /// near the generated volumes themselves; the paper does not state its
    /// minimum span, only that instances were feasible.
    pub fn paper_defaults(num_flows: usize, seed: u64) -> Self {
        Self {
            num_flows,
            horizon_start: 1.0,
            horizon_end: 100.0,
            volume_mean: 10.0,
            volume_std: 3.0,
            min_span: 5.0,
            seed,
        }
    }

    /// Generates the flow set over the given host list.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two hosts are provided (no valid
    /// source/destination pair exists).
    pub fn generate(&self, hosts: &[NodeId]) -> Result<FlowSet, FlowError> {
        if hosts.len() < 2 {
            return Err(FlowError::SelfLoop(*hosts.first().unwrap_or(&NodeId(0))));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let volume_dist = Normal::new(self.volume_mean, self.volume_std)
            .expect("volume distribution parameters are finite");
        let mut flows = Vec::with_capacity(self.num_flows);
        for id in 0..self.num_flows {
            let src = *hosts.choose(&mut rng).expect("hosts non-empty");
            let dst = loop {
                let d = *hosts.choose(&mut rng).expect("hosts non-empty");
                if d != src {
                    break d;
                }
            };
            let (release, deadline) = loop {
                let a = rng.gen_range(self.horizon_start..self.horizon_end);
                let b = rng.gen_range(self.horizon_start..self.horizon_end);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                if hi - lo >= self.min_span {
                    break (lo, hi);
                }
            };
            let volume = loop {
                let v = volume_dist.sample(&mut rng);
                if v > 0.5 {
                    break v;
                }
            };
            flows.push(Flow::new(id, src, dst, release, deadline, volume)?);
        }
        FlowSet::from_flows(flows)
    }
}

/// Partition–aggregate ("search") traffic: an aggregator host fans a request
/// out to worker hosts and every worker's response must arrive back at the
/// aggregator before a common, tight deadline.
///
/// This matches the paper's motivation that user-perceived latency is
/// bounded by the slowest of many small request/response flows.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionAggregateWorkload {
    /// Number of request rounds to generate.
    pub requests: usize,
    /// Number of worker responses per request.
    pub workers_per_request: usize,
    /// Volume of each response flow.
    pub response_volume: f64,
    /// Time between a request's start and its hard deadline.
    pub deadline_budget: f64,
    /// Start of the horizon over which request arrival times are drawn.
    pub horizon_start: f64,
    /// End of the horizon over which request arrival times are drawn.
    pub horizon_end: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PartitionAggregateWorkload {
    fn default() -> Self {
        Self {
            requests: 10,
            workers_per_request: 8,
            response_volume: 2.0,
            deadline_budget: 10.0,
            horizon_start: 1.0,
            horizon_end: 100.0,
            seed: 1,
        }
    }
}

impl PartitionAggregateWorkload {
    /// Generates the flow set over the given host list.
    ///
    /// The aggregator and the workers of each request are distinct random
    /// hosts.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two hosts are provided.
    pub fn generate(&self, hosts: &[NodeId]) -> Result<FlowSet, FlowError> {
        if hosts.len() < 2 {
            return Err(FlowError::SelfLoop(*hosts.first().unwrap_or(&NodeId(0))));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut flows = Vec::new();
        let mut id = 0;
        for _ in 0..self.requests {
            let aggregator = *hosts.choose(&mut rng).expect("hosts non-empty");
            let start = rng.gen_range(
                self.horizon_start
                    ..(self.horizon_end - self.deadline_budget).max(self.horizon_start + 1e-9),
            );
            let deadline = start + self.deadline_budget;
            let workers = hosts
                .iter()
                .copied()
                .filter(|&h| h != aggregator)
                .choose_multiple(&mut rng, self.workers_per_request);
            for worker in workers {
                flows.push(Flow::new(
                    id,
                    worker,
                    aggregator,
                    start,
                    deadline,
                    self.response_volume,
                )?);
                id += 1;
            }
        }
        FlowSet::from_flows(flows)
    }
}

/// MapReduce-style shuffle traffic: every mapper host sends an equal-sized
/// chunk to every reducer host, and the whole shuffle must finish before a
/// single stage deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleWorkload {
    /// Number of mapper hosts (taken from the front of the host list).
    pub mappers: usize,
    /// Number of reducer hosts (taken from the back of the host list).
    pub reducers: usize,
    /// Volume of each mapper→reducer transfer.
    pub volume_per_pair: f64,
    /// Shuffle start time.
    pub start: f64,
    /// Shuffle stage deadline.
    pub deadline: f64,
}

impl Default for ShuffleWorkload {
    fn default() -> Self {
        Self {
            mappers: 4,
            reducers: 4,
            volume_per_pair: 5.0,
            start: 0.0,
            deadline: 50.0,
        }
    }
}

impl ShuffleWorkload {
    /// Generates the all-to-all flow set over the given host list.
    ///
    /// Mappers are the first `mappers` hosts and reducers the last
    /// `reducers` hosts; the two groups must not overlap.
    ///
    /// # Errors
    ///
    /// Returns an error if the host list is too small for disjoint mapper
    /// and reducer groups.
    pub fn generate(&self, hosts: &[NodeId]) -> Result<FlowSet, FlowError> {
        if hosts.len() < self.mappers + self.reducers {
            return Err(FlowError::NonDenseIds);
        }
        let mappers = &hosts[..self.mappers];
        let reducers = &hosts[hosts.len() - self.reducers..];
        let mut flows = Vec::new();
        let mut id = 0;
        for &m in mappers {
            for &r in reducers {
                flows.push(Flow::new(
                    id,
                    m,
                    r,
                    self.start,
                    self.deadline,
                    self.volume_per_pair,
                )?);
                id += 1;
            }
        }
        FlowSet::from_flows(flows)
    }
}

/// An empirical heavy-tailed flow-size distribution, shaped after the two
/// classic data-center traffic measurements: the partition–aggregate web
/// search workload (DCTCP) and the VL2 data-mining workload. Both are
/// dominated by small flows with a tail several orders of magnitude above
/// the median — the opposite of the paper's near-Gaussian `N(10, 3)`
/// volumes, and exactly the regime where a link failure strands a few
/// elephants instead of shaving every flow equally.
///
/// Samples are drawn by inversion from a piecewise-linear CDF and
/// normalized to mean `1.0`, so callers scale them to whatever volume
/// scale the instance uses (see [`ArrivalProcess::sizes`], which scales by
/// the base workload's mean volume — load factors stay comparable across
/// distributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDistribution {
    /// The web-search workload: mostly short query/response flows, with
    /// ~5% of flows carrying ~10× the median and the largest ~200×.
    WebSearch,
    /// The data-mining workload: even heavier tail — half the flows are
    /// tiny, while the top 1% carry three orders of magnitude more.
    DataMining,
}

impl SizeDistribution {
    /// The `(size, cdf)` breakpoints of the empirical distribution, in
    /// arbitrary size units (only ratios matter — samples are normalized
    /// to mean 1.0).
    fn table(self) -> &'static [(f64, f64)] {
        match self {
            SizeDistribution::WebSearch => &[
                (1.0, 0.0),
                (6.0, 0.15),
                (13.0, 0.30),
                (19.0, 0.45),
                (33.0, 0.60),
                (53.0, 0.70),
                (133.0, 0.80),
                (667.0, 0.90),
                (1333.0, 0.95),
                (6667.0, 0.99),
                (20000.0, 1.0),
            ],
            SizeDistribution::DataMining => &[
                (1.0, 0.0),
                (2.0, 0.50),
                (3.0, 0.60),
                (7.0, 0.70),
                (27.0, 0.80),
                (267.0, 0.90),
                (2107.0, 0.95),
                (6667.0, 0.99),
                (66667.0, 1.0),
            ],
        }
    }

    /// The mean of the piecewise-linear CDF (linear interpolation within
    /// each segment, so each segment contributes its probability mass
    /// times the segment midpoint).
    fn raw_mean(self) -> f64 {
        self.table()
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * 0.5 * (w[0].0 + w[1].0))
            .sum()
    }

    /// The quantile at `u ∈ [0, 1)`, normalized so the distribution's
    /// mean is exactly `1.0`.
    pub fn quantile(self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let table = self.table();
        let mut raw = table[table.len() - 1].0;
        for w in table.windows(2) {
            let ((x0, p0), (x1, p1)) = (w[0], w[1]);
            if u <= p1 {
                raw = x0 + (x1 - x0) * ((u - p0) / (p1 - p0));
                break;
            }
        }
        raw / self.raw_mean()
    }

    /// The stable name used in experiment artifacts (`websearch` /
    /// `datamining`).
    pub fn name(self) -> &'static str {
        match self {
            SizeDistribution::WebSearch => "websearch",
            SizeDistribution::DataMining => "datamining",
        }
    }

    /// Parses an artifact name (the inverse of [`SizeDistribution::name`];
    /// `None` for anything else).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "websearch" => Some(SizeDistribution::WebSearch),
            "datamining" => Some(SizeDistribution::DataMining),
            _ => None,
        }
    }
}

/// A Poisson arrival process layered over any existing workload: the flows
/// of a base [`FlowSet`] keep their endpoints, volumes and span *lengths*,
/// but their release times are replaced by the cumulative arrival instants
/// of a Poisson process whose rate is set by a **load factor**.
///
/// The load factor is the expected number of flows simultaneously in
/// flight (the M/G/∞ occupancy): with mean span length `s̄` over the base
/// flows, arrivals are spaced by exponential gaps of mean `s̄ / load`, so
/// `load` flows overlap on average. `load < 1` spreads the base workload
/// out into a near-serial trickle; `load > 1` compresses it into heavy
/// concurrency. This is the knob the `online` experiment binary sweeps.
///
/// The process is seeded and fully deterministic; flows are re-released in
/// their id order.
///
/// # Example
///
/// ```
/// use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
/// use dcn_topology::builders;
///
/// let topo = builders::fat_tree(4);
/// let base = UniformWorkload::paper_defaults(30, 7).generate(topo.hosts()).unwrap();
/// let online = ArrivalProcess::with_load(2.0, 7).apply(&base).unwrap();
/// assert_eq!(online.len(), base.len());
/// // Endpoints, volumes and span lengths are preserved.
/// for (a, b) in base.iter().zip(online.iter()) {
///     assert_eq!(a.volume, b.volume);
///     assert!((a.span_length() - b.span_length()).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// Expected number of flows concurrently in flight (must be positive
    /// and finite).
    pub load: f64,
    /// Arrival time of the process origin (the first gap starts here).
    pub start: f64,
    /// RNG seed; the same seed always yields the same arrival times.
    pub seed: u64,
    /// When set, flow volumes are re-drawn from this heavy-tailed
    /// distribution (scaled to the base workload's mean volume) instead of
    /// carried over from the base flows.
    pub sizes: Option<SizeDistribution>,
}

impl ArrivalProcess {
    /// An arrival process starting at `t = 0` with the given load factor.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not positive and finite.
    pub fn with_load(load: f64, seed: u64) -> Self {
        assert!(
            load.is_finite() && load > 0.0,
            "load factor must be positive and finite, got {load}"
        );
        Self {
            load,
            start: 0.0,
            seed,
            sizes: None,
        }
    }

    /// Re-draws flow volumes from a heavy-tailed [`SizeDistribution`]
    /// instead of keeping the base workload's (scaled so the expected
    /// volume matches the base's mean — load factors stay comparable).
    pub fn sizes(mut self, sizes: SizeDistribution) -> Self {
        self.sizes = Some(sizes);
        self
    }

    /// Rewrites the release times of `base` with Poisson arrivals (keeping
    /// each flow's endpoints, volume and span length) and returns the new
    /// flow set. With [`ArrivalProcess::sizes`] set, volumes are re-drawn
    /// from the heavy-tailed distribution instead, scaled to the base
    /// workload's mean volume.
    ///
    /// # Errors
    ///
    /// Propagates flow-validation errors (unreachable for a valid base
    /// set, since spans and volumes are carried over unchanged).
    ///
    /// # Panics
    ///
    /// Panics if [`ArrivalProcess::load`] is not positive and finite.
    pub fn apply(&self, base: &FlowSet) -> Result<FlowSet, FlowError> {
        assert!(
            self.load.is_finite() && self.load > 0.0,
            "load factor must be positive and finite, got {}",
            self.load
        );
        if base.is_empty() {
            return FlowSet::from_flows(Vec::new());
        }
        let mean_span: f64 = base.iter().map(Flow::span_length).sum::<f64>() / base.len() as f64;
        let mean_volume: f64 = base.iter().map(|f| f.volume).sum::<f64>() / base.len() as f64;
        let mean_gap = mean_span / self.load;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut clock = self.start;
        let mut flows = Vec::with_capacity(base.len());
        for f in base.iter() {
            // Exponential inter-arrival gap by inversion sampling.
            let u: f64 = rng.gen_range(0.0..1.0);
            clock += -(1.0 - u).ln() * mean_gap;
            let volume = match self.sizes {
                Some(dist) => {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    dist.quantile(u) * mean_volume
                }
                None => f.volume,
            };
            flows.push(Flow::new(
                f.id,
                f.src,
                f.dst,
                clock,
                clock + f.span_length(),
                volume,
            )?);
        }
        FlowSet::from_flows(flows)
    }
}

/// Adversarial instances from the paper's hardness proofs (Theorems 2–3).
pub mod hardness {
    use super::*;

    /// Flows of the 3-partition reduction (Theorem 2): one flow per integer
    /// `a_i`, all between the same two hosts, all released at time `0` with
    /// deadline `1`.
    ///
    /// # Errors
    ///
    /// Propagates flow-validation errors (e.g. a non-positive value).
    pub fn three_partition_flows(
        src: NodeId,
        dst: NodeId,
        values: &[f64],
    ) -> Result<FlowSet, FlowError> {
        FlowSet::from_tuples(values.iter().map(|&a| (src, dst, 0.0, 1.0, a)))
    }

    /// Flows of the partition reduction (Theorem 3): identical in shape to
    /// [`three_partition_flows`]; kept separate for clarity at call sites.
    ///
    /// # Errors
    ///
    /// Propagates flow-validation errors.
    pub fn partition_flows(src: NodeId, dst: NodeId, values: &[f64]) -> Result<FlowSet, FlowError> {
        three_partition_flows(src, dst, values)
    }

    /// A canonical satisfiable 3-partition value set: `m` triples that each
    /// sum to `target`.
    pub fn satisfiable_three_partition(m: usize, target: f64) -> Vec<f64> {
        let mut values = Vec::with_capacity(3 * m);
        for i in 0..m {
            // Three values in (target/4, target/2) summing to target.
            let delta = 0.04 * target * ((i % 3) as f64 + 1.0);
            values.push(target / 3.0 - delta);
            values.push(target / 3.0);
            values.push(target / 3.0 + delta);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    #[test]
    fn uniform_workload_matches_paper_parameters() {
        let topo = builders::fat_tree(4);
        let w = UniformWorkload::paper_defaults(100, 42);
        let flows = w.generate(topo.hosts()).unwrap();
        assert_eq!(flows.len(), 100);
        let (t0, t1) = flows.horizon();
        assert!(t0 >= 1.0);
        assert!(t1 <= 100.0);
        for f in flows.iter() {
            assert!(f.volume > 0.0);
            assert!(f.span_length() >= 5.0);
            assert!(f.src != f.dst);
        }
        // Volumes should cluster around the mean of 10.
        let mean: f64 = flows.iter().map(|f| f.volume).sum::<f64>() / flows.len() as f64;
        assert!(
            (mean - 10.0).abs() < 1.5,
            "sample mean {mean} too far from 10"
        );
    }

    #[test]
    fn uniform_workload_is_deterministic_per_seed() {
        let topo = builders::fat_tree(4);
        let a = UniformWorkload::paper_defaults(30, 7)
            .generate(topo.hosts())
            .unwrap();
        let b = UniformWorkload::paper_defaults(30, 7)
            .generate(topo.hosts())
            .unwrap();
        let c = UniformWorkload::paper_defaults(30, 8)
            .generate(topo.hosts())
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_descriptors_roundtrip_json() {
        let w = UniformWorkload::paper_defaults(40, 7);
        let back: UniformWorkload = serde_json::from_str(&serde_json::to_string(&w).unwrap())
            .expect("descriptor JSON round-trips");
        assert_eq!(back, w);
    }

    #[test]
    fn uniform_workload_needs_two_hosts() {
        let w = UniformWorkload::paper_defaults(5, 1);
        assert!(w.generate(&[NodeId(0)]).is_err());
    }

    #[test]
    fn partition_aggregate_shares_deadline_per_request() {
        let topo = builders::leaf_spine(4, 2, 4);
        let w = PartitionAggregateWorkload {
            requests: 3,
            workers_per_request: 5,
            ..Default::default()
        };
        let flows = w.generate(topo.hosts()).unwrap();
        assert_eq!(flows.len(), 15);
        // Flows come in groups of 5 sharing release, deadline and destination.
        for group in flows.as_slice().chunks(5) {
            let d = group[0].deadline;
            let r = group[0].release;
            let agg = group[0].dst;
            for f in group {
                assert_eq!(f.deadline, d);
                assert_eq!(f.release, r);
                assert_eq!(f.dst, agg);
                assert!((f.deadline - f.release - w.deadline_budget).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn shuffle_is_all_to_all() {
        let topo = builders::fat_tree(4);
        let w = ShuffleWorkload {
            mappers: 3,
            reducers: 2,
            ..Default::default()
        };
        let flows = w.generate(topo.hosts()).unwrap();
        assert_eq!(flows.len(), 6);
        let mappers: std::collections::HashSet<_> = flows.iter().map(|f| f.src).collect();
        let reducers: std::collections::HashSet<_> = flows.iter().map(|f| f.dst).collect();
        assert_eq!(mappers.len(), 3);
        assert_eq!(reducers.len(), 2);
    }

    #[test]
    fn shuffle_rejects_small_host_lists() {
        let topo = builders::line(3);
        let w = ShuffleWorkload {
            mappers: 2,
            reducers: 2,
            ..Default::default()
        };
        assert!(w.generate(topo.hosts()).is_err());
    }

    #[test]
    fn arrival_process_is_deterministic_and_preserves_shape() {
        let topo = builders::fat_tree(4);
        let base = UniformWorkload::paper_defaults(25, 9)
            .generate(topo.hosts())
            .unwrap();
        let a = ArrivalProcess::with_load(2.0, 3).apply(&base).unwrap();
        let b = ArrivalProcess::with_load(2.0, 3).apply(&base).unwrap();
        let c = ArrivalProcess::with_load(2.0, 4).apply(&base).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Releases are non-decreasing (cumulative arrivals) and strictly
        // after the origin.
        let mut last = 0.0;
        for f in a.iter() {
            assert!(f.release >= last);
            assert!(f.release > 0.0);
            last = f.release;
        }
        for (orig, online) in base.iter().zip(a.iter()) {
            assert_eq!(orig.src, online.src);
            assert_eq!(orig.dst, online.dst);
            assert_eq!(orig.volume, online.volume);
            assert!((orig.span_length() - online.span_length()).abs() < 1e-9);
        }
    }

    #[test]
    fn arrival_process_load_controls_concurrency() {
        let topo = builders::fat_tree(4);
        let base = UniformWorkload::paper_defaults(60, 5)
            .generate(topo.hosts())
            .unwrap();
        // The horizon stretch is inversely proportional to the load: a
        // near-serial trickle takes much longer than a compressed burst.
        let sparse = ArrivalProcess::with_load(0.25, 5).apply(&base).unwrap();
        let dense = ArrivalProcess::with_load(8.0, 5).apply(&base).unwrap();
        let span = |fs: &FlowSet| {
            let (t0, t1) = fs.horizon();
            t1 - t0
        };
        assert!(span(&sparse) > 4.0 * span(&dense));
    }

    #[test]
    fn size_distributions_are_normalized_and_heavy_tailed() {
        for dist in [SizeDistribution::WebSearch, SizeDistribution::DataMining] {
            // Numerical mean over a fine quantile grid is ~1.0.
            let n = 200_000;
            let mean: f64 = (0..n)
                .map(|i| dist.quantile((i as f64 + 0.5) / n as f64))
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - 1.0).abs() < 1e-3,
                "{}: normalized mean {mean}",
                dist.name()
            );
            // Heavy tail: the median sits far below the mean, the p99 far
            // above — the shape a Gaussian cannot produce.
            let median = dist.quantile(0.5);
            let p99 = dist.quantile(0.99);
            assert!(median < 0.25, "{}: median {median}", dist.name());
            assert!(p99 > 5.0, "{}: p99 {p99}", dist.name());
            assert!(dist.quantile(0.0) > 0.0, "volumes stay positive");
            // Quantiles are monotone.
            let mut last = 0.0;
            for i in 0..=100 {
                let q = dist.quantile(i as f64 / 100.0);
                assert!(q >= last);
                last = q;
            }
            assert_eq!(SizeDistribution::from_name(dist.name()), Some(dist));
        }
        assert_eq!(SizeDistribution::from_name("gaussian"), None);
        // Data mining is the heavier of the two tails.
        assert!(
            SizeDistribution::DataMining.quantile(0.999)
                > SizeDistribution::WebSearch.quantile(0.999)
        );
    }

    #[test]
    fn heavy_tailed_sizes_rescale_to_the_base_mean() {
        let topo = builders::fat_tree(4);
        let base = UniformWorkload::paper_defaults(400, 9)
            .generate(topo.hosts())
            .unwrap();
        let base_mean = base.iter().map(|f| f.volume).sum::<f64>() / base.len() as f64;
        for dist in [SizeDistribution::WebSearch, SizeDistribution::DataMining] {
            let tailed = ArrivalProcess::with_load(2.0, 3)
                .sizes(dist)
                .apply(&base)
                .unwrap();
            assert_eq!(
                tailed,
                ArrivalProcess::with_load(2.0, 3)
                    .sizes(dist)
                    .apply(&base)
                    .unwrap(),
                "deterministic per seed"
            );
            let mean = tailed.iter().map(|f| f.volume).sum::<f64>() / tailed.len() as f64;
            assert!(
                (mean / base_mean - 1.0).abs() < 0.8,
                "{}: sample mean {mean} vs base {base_mean}",
                dist.name()
            );
            let max = tailed.iter().map(|f| f.volume).fold(0.0, f64::max);
            assert!(
                max > 4.0 * base_mean,
                "{}: no elephants (max {max})",
                dist.name()
            );
            // Endpoints and spans still come from the base workload.
            for (orig, online) in base.iter().zip(tailed.iter()) {
                assert_eq!(orig.src, online.src);
                assert_eq!(orig.dst, online.dst);
                assert!((orig.span_length() - online.span_length()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn arrival_process_handles_the_empty_set() {
        let empty = FlowSet::from_flows(vec![]).unwrap();
        assert!(ArrivalProcess::with_load(1.0, 0)
            .apply(&empty)
            .unwrap()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "load factor must be positive")]
    fn arrival_process_rejects_non_positive_load() {
        let _ = ArrivalProcess::with_load(0.0, 1);
    }

    #[test]
    fn three_partition_gadget() {
        let topo = builders::parallel(6, 10.0);
        let values = hardness::satisfiable_three_partition(3, 9.0);
        assert_eq!(values.len(), 9);
        for triple in values.chunks(3) {
            let s: f64 = triple.iter().sum();
            assert!((s - 9.0).abs() < 1e-9);
        }
        let flows = hardness::three_partition_flows(topo.source(), topo.sink(), &values).unwrap();
        assert_eq!(flows.len(), 9);
        assert_eq!(flows.horizon(), (0.0, 1.0));
        assert_eq!(flows.intervals().len(), 1);
    }
}
