//! **Random-Schedule** — the randomized approximation algorithm for DCFSR
//! (paper Algorithm 2, Section V).
//!
//! DCFSR asks for the routing path *and* the rate schedule of every flow.
//! The problem is strongly NP-hard (Theorem 2) and has no FPTAS (Theorem 3),
//! so the paper approximates it:
//!
//! 1. **Relax** to a per-interval fractional multi-commodity flow problem
//!    ([`crate::relaxation`]).
//! 2. **Decompose** each flow's fractional solution into weighted candidate
//!    paths `Q_i(k)` per interval (Raghavan–Tompson,
//!    [`dcn_solver::decompose`]), and merge them across intervals with
//!    weights `w̄_P = sum_k w_P(k) * |I_k| / (d_i - r_i)`.
//! 3. **Round**: sample one routing path per flow, using `w̄_P` as the
//!    probability distribution.
//! 4. **Schedule**: inside every interval, every flow transmits at the
//!    aggregate density of the flows sharing its links, ordered by EDF; the
//!    per-link rate is then exactly `sum of the densities of the flows on
//!    the link`, and Theorem 4 shows every deadline is met.
//!
//! The expected energy is within `O(lambda^alpha (n^2 log D)^(alpha-1))` of
//! the optimum (Theorems 6–7). Because rounding does not enforce the link
//! capacity, the implementation re-samples a bounded number of times and
//! keeps the least-violating draw, as the paper suggests.

use crate::relaxation::{IntervalRelaxation, RelaxationSummary};
use crate::schedule::{FlowSchedule, Schedule};
use crate::SolverContext;
use dcn_flow::{Flow, FlowId, FlowSet};
use dcn_power::{PowerFunction, RateProfile};
use dcn_solver::decompose::{decompose_flow_with, DecomposeScratch, WeightedPath};
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::{Network, NodeId, Path};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;

/// Errors raised by [`RandomSchedule::run_with_relaxation`].
#[derive(Debug, Clone, PartialEq)]
pub enum DcfsrError {
    /// A flow has no routing path at all between its endpoints.
    Unroutable {
        /// The flow in question.
        flow: FlowId,
    },
}

impl fmt::Display for DcfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcfsrError::Unroutable { flow } => {
                write!(f, "flow {flow} has no path between its endpoints")
            }
        }
    }
}

impl std::error::Error for DcfsrError {}

/// Configuration of [`RandomSchedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomScheduleConfig {
    /// Configuration of the per-interval Frank–Wolfe solver.
    pub fmcf: FmcfSolverConfig,
    /// How many independent rounding draws to try before settling for the
    /// least capacity-violating one.
    pub max_rounding_attempts: usize,
    /// Seed of the rounding randomness; the whole algorithm is deterministic
    /// for a fixed seed.
    pub seed: u64,
    /// Residual flow below which decomposition stops extracting paths.
    pub decompose_epsilon: f64,
}

impl Default for RandomScheduleConfig {
    fn default() -> Self {
        Self {
            fmcf: FmcfSolverConfig::default(),
            max_rounding_attempts: 25,
            seed: 0,
            decompose_epsilon: 1e-9,
        }
    }
}

/// A candidate routing path of one flow together with its rounded-merge
/// weight `w̄_P`.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePath {
    /// The path.
    pub path: Path,
    /// The merged weight (a probability after normalisation).
    pub weight: f64,
}

/// The result of running Random-Schedule.
#[derive(Debug, Clone)]
pub struct RandomScheduleOutcome {
    /// The produced schedule (one path and one piecewise-constant rate per
    /// flow).
    pub schedule: Schedule,
    /// The fractional lower bound `LB` of the instance (the Fig. 2
    /// normaliser).
    pub lower_bound: f64,
    /// Number of rounding draws actually performed.
    pub attempts: usize,
    /// Largest amount by which any link exceeds its capacity in the chosen
    /// draw (`0.0` when the schedule respects all capacities).
    pub capacity_excess: f64,
    /// The candidate path sets the rounding sampled from, indexed by flow.
    pub candidates: Vec<Vec<CandidatePath>>,
}

/// The Random-Schedule algorithm (paper Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct RandomSchedule {
    config: RandomScheduleConfig,
}

impl RandomSchedule {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: RandomScheduleConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RandomScheduleConfig {
        &self.config
    }

    /// Runs decomposition, rounding and scheduling on a precomputed
    /// relaxation (useful when the caller also needs the lower bound, as the
    /// benchmark harness does). `network` is taken as the live topology;
    /// callers whose [`SolverContext`] has links down use
    /// [`RandomSchedule::run_in_context`].
    ///
    /// # Errors
    ///
    /// Returns [`DcfsrError::Unroutable`] if some flow has no path in the
    /// network.
    pub fn run_with_relaxation(
        &self,
        network: &Network,
        flows: &FlowSet,
        power: &PowerFunction,
        relaxation: &RelaxationSummary,
    ) -> Result<RandomScheduleOutcome, DcfsrError> {
        let live_path = |src, dst| network.shortest_path(src, dst);
        self.run(network, &live_path, flows, power, relaxation, 1)
    }

    /// [`RandomSchedule::run_with_relaxation`] on a solver context: a flow
    /// whose decomposition comes up empty is routed on the context's live
    /// graph, never across a link that is down there, and the per-interval
    /// path decomposition fans out across the context's
    /// [`SolverContext::parallelism`] pool workers (each interval's
    /// Raghavan–Tompson decompositions are independent; the weight merge
    /// and the rounding loop stay sequential, so the outcome is
    /// bit-identical at any thread count). This is the entry point the
    /// [`crate::Dcfsr`] algorithm's `solve` drives.
    ///
    /// # Errors
    ///
    /// Returns [`DcfsrError::Unroutable`] if some flow has no path in the
    /// context's graph.
    pub fn run_in_context(
        &self,
        ctx: &SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
        relaxation: &RelaxationSummary,
    ) -> Result<RandomScheduleOutcome, DcfsrError> {
        let live_path = |src, dst| ctx.graph().shortest_path(src, dst);
        self.run(
            ctx.network(),
            &live_path,
            flows,
            power,
            relaxation,
            ctx.parallelism().threads,
        )
    }

    fn run(
        &self,
        network: &Network,
        live_path: &dyn Fn(NodeId, NodeId) -> Option<Path>,
        flows: &FlowSet,
        power: &PowerFunction,
        relaxation: &RelaxationSummary,
        threads: usize,
    ) -> Result<RandomScheduleOutcome, DcfsrError> {
        let candidates = self.candidate_paths(network, live_path, flows, relaxation, threads)?;

        // Randomized rounding with capacity re-draws.
        let mut best: Option<(Schedule, f64)> = None;
        let mut attempts = 0;
        for attempt in 0..self.config.max_rounding_attempts.max(1) {
            attempts = attempt + 1;
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(attempt as u64));
            let chosen = sample_paths(&candidates, &mut rng);
            let schedule = build_schedule(flows, &chosen);
            let excess = schedule.max_capacity_excess(power);
            let better = match &best {
                None => true,
                Some((_, best_excess)) => excess < *best_excess,
            };
            if better {
                best = Some((schedule, excess));
            }
            if best.as_ref().map(|(_, e)| *e) == Some(0.0) {
                break;
            }
        }
        let (schedule, capacity_excess) = best.expect("at least one rounding attempt is made");

        Ok(RandomScheduleOutcome {
            schedule,
            lower_bound: relaxation.lower_bound,
            attempts,
            capacity_excess,
            candidates,
        })
    }

    /// Builds every flow's candidate path set `Q_i` with merged weights
    /// `w̄_P` (Algorithm 2, lines 4–7).
    ///
    /// The per-interval decompositions are independent and fan out across
    /// `threads` pool workers (one [`DecomposeScratch`] each); the weight
    /// merge then walks the per-interval results in interval order, flow
    /// order, path order — the exact floating-point sequence of the
    /// sequential loop, so the candidate sets are bit-identical at any
    /// thread count.
    fn candidate_paths(
        &self,
        network: &Network,
        live_path: &dyn Fn(NodeId, NodeId) -> Option<Path>,
        flows: &FlowSet,
        relaxation: &RelaxationSummary,
        threads: usize,
    ) -> Result<Vec<Vec<CandidatePath>>, DcfsrError> {
        let mut candidates: Vec<Vec<CandidatePath>> = vec![Vec::new(); flows.len()];
        let epsilon = self.config.decompose_epsilon;

        let decomposed = crate::pool::run_indexed_with(
            relaxation.intervals.len(),
            threads,
            DecomposeScratch::default,
            |scratch, k| {
                let iv = &relaxation.intervals[k];
                iv.flow_ids
                    .iter()
                    .enumerate()
                    .map(|(ci, &flow_id)| {
                        let flow = flows.flow(flow_id);
                        let edge_flow = iv.solution.commodity_flows(ci);
                        decompose_flow_with(
                            network, flow.src, flow.dst, edge_flow, epsilon, scratch,
                        )
                    })
                    .collect::<Vec<_>>()
            },
        );

        for (iv, interval_parts) in relaxation.intervals.iter().zip(decomposed) {
            for (&flow_id, parts) in iv.flow_ids.iter().zip(interval_parts) {
                merge_parts(&mut candidates[flow_id], parts, iv, flows.flow(flow_id));
            }
        }

        // Normalise. A flow whose decomposition produced nothing carries
        // less than the absolute threshold on every link (a nearly
        // delivered residual flow, say): decompose it again with the
        // threshold relative to its density, and only if the relaxation
        // holds no flow for it at all fall back to a shortest path of the
        // live graph.
        let total_weight = |entry: &[CandidatePath]| entry.iter().map(|c| c.weight).sum::<f64>();
        let mut scratch = DecomposeScratch::default();
        for flow in flows.iter() {
            let entry = &mut candidates[flow.id];
            let mut total = total_weight(entry);
            if total <= 0.0 {
                entry.clear();
                for iv in &relaxation.intervals {
                    if let Some(ci) = iv.commodity_index(flow.id) {
                        let parts = decompose_flow_with(
                            network,
                            flow.src,
                            flow.dst,
                            iv.solution.commodity_flows(ci),
                            epsilon * flow.density(),
                            &mut scratch,
                        );
                        merge_parts(entry, parts, iv, flow);
                    }
                }
                total = total_weight(entry);
            }
            if total <= 0.0 {
                let path = live_path(flow.src, flow.dst)
                    .ok_or(DcfsrError::Unroutable { flow: flow.id })?;
                entry.clear();
                entry.push(CandidatePath { path, weight: 1.0 });
                continue;
            }
            for c in entry.iter_mut() {
                c.weight /= total;
            }
        }
        Ok(candidates)
    }
}

/// Adds one interval's decomposition of `flow` to its candidate set:
/// `w_P(k)` is the fraction of the flow routed on the path in interval
/// `k`, and the merged weight adds `w_P(k) * |I_k| / (d_i - r_i)`.
fn merge_parts(
    entry: &mut Vec<CandidatePath>,
    parts: Vec<WeightedPath>,
    iv: &IntervalRelaxation,
    flow: &Flow,
) {
    let density = flow.density();
    for part in parts {
        let fraction = part.weight / density;
        let merged = fraction * iv.interval.length() / flow.span_length();
        match entry.iter_mut().find(|c| c.path == part.path) {
            Some(existing) => existing.weight += merged,
            None => entry.push(CandidatePath {
                path: part.path,
                weight: merged,
            }),
        }
    }
}

/// Samples one path per flow according to the candidate weights.
fn sample_paths(candidates: &[Vec<CandidatePath>], rng: &mut StdRng) -> Vec<Path> {
    candidates
        .iter()
        .map(|cands| {
            debug_assert!(!cands.is_empty());
            let draw: f64 = rng.gen();
            let mut acc = 0.0;
            for c in cands {
                acc += c.weight;
                if draw <= acc {
                    return c.path.clone();
                }
            }
            cands
                .last()
                .expect("candidate list is non-empty")
                .path
                .clone()
        })
        .collect()
}

/// Builds the schedule of Algorithm 2's last step: every flow transmits at
/// its density over its whole span along its chosen path, which makes every
/// link's rate in interval `I_k` exactly the sum of the densities of the
/// flows it carries (Theorem 4 then guarantees all deadlines are met).
fn build_schedule(flows: &FlowSet, chosen: &[Path]) -> Schedule {
    let horizon = flows.horizon();
    let flow_schedules = flows
        .iter()
        .map(|f| {
            FlowSchedule::uniform(
                f.id,
                chosen[f.id].clone(),
                RateProfile::constant(f.release, f.deadline, f.density()),
            )
        })
        .collect();
    Schedule::new(flow_schedules, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Dcfsr, SolverContext};
    use dcn_flow::workload::UniformWorkload;
    use dcn_topology::builders;

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    #[test]
    fn deadlines_and_volumes_are_always_met() {
        // Theorem 4: the produced schedule meets every deadline.
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        for seed in 0..3 {
            let flows = UniformWorkload::paper_defaults(30, seed)
                .generate(topo.hosts())
                .unwrap();
            let mut algo = Dcfsr::default();
            algo.set_seed(seed);
            let solution = algo.solve(&mut ctx, &flows, &power).unwrap();
            ctx.verify(solution.schedule.as_ref().unwrap(), &flows, &power)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn energy_is_at_least_the_lower_bound() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(25, 7)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
        let energy = solution.total_energy().unwrap();
        let lower_bound = solution.lower_bound.unwrap();
        assert!(
            energy >= lower_bound - 1e-6,
            "energy {energy} below the lower bound {lower_bound}"
        );
        assert!(lower_bound > 0.0);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(20, 5)
            .generate(topo.hosts())
            .unwrap();
        let mut algo = Dcfsr::new(RandomScheduleConfig {
            seed: 99,
            ..Default::default()
        });
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let a = algo.solve(&mut ctx, &flows, &power).unwrap();
        let b = algo.solve(&mut ctx, &flows, &power).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.lower_bound, b.lower_bound);
    }

    #[test]
    fn candidate_weights_form_a_distribution() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(15, 2)
            .generate(topo.hosts())
            .unwrap();
        let relaxation = SolverContext::from_network(&topo.network)
            .unwrap()
            .relax(&flows, &power, &FmcfSolverConfig::default())
            .unwrap();
        let outcome = RandomSchedule::default()
            .run_with_relaxation(&topo.network, &flows, &power, &relaxation)
            .unwrap();
        assert_eq!(outcome.candidates.len(), flows.len());
        for (flow, cands) in flows.iter().zip(&outcome.candidates) {
            assert!(!cands.is_empty());
            let total: f64 = cands.iter().map(|c| c.weight).sum();
            assert!(
                (total - 1.0).abs() < 1e-6,
                "weights of flow {} sum to {total}",
                flow.id
            );
            for c in cands {
                assert_eq!(c.path.source(), flow.src);
                assert_eq!(c.path.destination(), flow.dst);
                assert!(c.weight >= 0.0);
            }
        }
    }

    #[test]
    fn parallel_links_get_balanced_by_rounding() {
        // Many identical flows between two hosts joined by parallel links:
        // the relaxation splits them evenly, so rounding should use several
        // different links (with overwhelming probability over 16 flows).
        let topo = builders::parallel(4, 100.0);
        let power = x2(100.0);
        let flows =
            FlowSet::from_tuples((0..16).map(|_| (topo.source(), topo.sink(), 0.0, 10.0, 10.0)))
                .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        ctx.verify(schedule, &flows, &power).unwrap();
        let mut used: Vec<_> = schedule
            .flow_schedules()
            .iter()
            .map(|fs| fs.path.links()[0])
            .collect();
        used.sort();
        used.dedup();
        assert!(
            used.len() >= 2,
            "rounding placed all 16 flows on a single parallel link"
        );
    }

    #[test]
    fn empty_instance_is_a_typed_error() {
        let topo = builders::line(3);
        let flows = FlowSet::from_flows(vec![]).unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        assert_eq!(
            Dcfsr::default()
                .solve(&mut ctx, &flows, &x2(10.0))
                .unwrap_err(),
            crate::SolveError::EmptyFlowSet
        );
    }

    #[test]
    fn unroutable_flow_is_an_error() {
        let mut net = dcn_topology::Network::new();
        let a = net.add_node(dcn_topology::NodeKind::Host, "a");
        let b = net.add_node(dcn_topology::NodeKind::Host, "b");
        let c = net.add_node(dcn_topology::NodeKind::Host, "c");
        net.add_duplex_link(a, b, 10.0);
        // c is disconnected.
        let flows = FlowSet::from_tuples([(a, c, 0.0, 1.0, 1.0)]).unwrap();
        // The relaxation itself panics on unreachable commodities, so check
        // the error path through candidate_paths with an empty relaxation.
        let relaxation = RelaxationSummary {
            intervals: Vec::new(),
            lower_bound: 0.0,
        };
        let err = RandomSchedule::default()
            .run_with_relaxation(&net, &flows, &x2(10.0), &relaxation)
            .unwrap_err();
        assert_eq!(err, DcfsrError::Unroutable { flow: 0 });
    }

    use dcn_flow::FlowSet;
}
