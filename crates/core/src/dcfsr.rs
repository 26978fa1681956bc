//! **Random-Schedule** — the randomized approximation algorithm for DCFSR
//! (paper Algorithm 2, Section V).
//!
//! DCFSR asks for the routing path *and* the rate schedule of every flow.
//! The problem is strongly NP-hard (Theorem 2) and has no FPTAS (Theorem 3),
//! so the paper approximates it:
//!
//! 1. **Relax** to a per-interval fractional multi-commodity flow problem
//!    ([`crate::relaxation`]).
//! 2. **Candidates**: each flow's fractional solution in an interval is a
//!    set of weighted paths `Q_i(k)` — the Frank–Wolfe solver keeps its
//!    iterate in exactly that form ([`dcn_solver::fmcf::FmcfSolution::split`]
//!    and [`dcn_solver::fmcf::FmcfSolution::steps`]), so nothing is
//!    extracted from link flows here — merged across intervals with weights
//!    `w̄_P = sum_k w_P(k) * |I_k| / (d_i - r_i)`.
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

use crate::error::SolveError;
use crate::relaxation::RelaxationSummary;
use crate::schedule::{max_excess_of, FlowSchedule, LinkLoad, Schedule};
use dcn_flow::FlowSet;
use dcn_power::{PowerFunction, RateProfile};
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::{Network, Path};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

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
    /// The residual at which a caller's own Raghavan–Tompson extraction
    /// ([`dcn_solver::decompose`]) from a relaxed row should stop.
    /// Random-Schedule reads its candidates from the relaxation's path
    /// form and does not read this.
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
pub struct CandidatePath<'r> {
    /// The path, borrowed from the relaxation the candidates merge.
    pub path: &'r Path,
    /// The merged weight (a probability after normalisation).
    pub weight: f64,
}

/// The result of running Random-Schedule on a relaxation borrowed for `'r`.
#[derive(Debug, Clone)]
pub struct RandomScheduleOutcome<'r> {
    /// The produced schedule (one path and one piecewise-constant rate per
    /// flow).
    pub schedule: Schedule,
    /// The fractional lower bound `LB` of the instance (the Fig. 2
    /// normaliser).
    pub lower_bound: f64,
    /// Number of rounding draws actually performed.
    pub attempts: usize,
    /// The chosen draw's [`Schedule::link_loads`]: the draw with the least
    /// capacity excess ([`Schedule::max_capacity_excess`]), the first one
    /// within capacity.
    pub link_loads: Vec<LinkLoad>,
    /// The candidate path sets the rounding sampled from, indexed by flow.
    pub candidates: Vec<Vec<CandidatePath<'r>>>,
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

    /// Merges, rounds and schedules a precomputed relaxation of `flows` —
    /// what [`crate::Dcfsr`] runs after [`crate::SolverContext::relax`];
    /// split from it for callers that also need the lower bound or the
    /// candidate sets. Every candidate is a path of the relaxation, which
    /// was solved on the context's live graph, so no flow is routed across
    /// a link that is down there; `network` gives each link's capacity for
    /// the re-draw rule ([`Schedule::max_capacity_excess`]).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] if the relaxation holds no path
    /// for some flow.
    pub fn run_with_relaxation<'r>(
        &self,
        network: &Network,
        flows: &FlowSet,
        power: &PowerFunction,
        relaxation: &'r RelaxationSummary,
    ) -> Result<RandomScheduleOutcome<'r>, SolveError> {
        let candidates = candidate_paths(flows, relaxation)?;

        // Randomized rounding with capacity re-draws.
        let mut best: Option<(Schedule, Vec<LinkLoad>, f64)> = None;
        let mut attempts = 0;
        for attempt in 0..self.config.max_rounding_attempts.max(1) {
            attempts = attempt + 1;
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(attempt as u64));
            let chosen = sample_paths(&candidates, &mut rng);
            let schedule = build_schedule(flows, &chosen);
            let loads = schedule.link_loads(power);
            let excess = max_excess_of(&loads, |link| network.link(link).capacity, power);
            let better = match &best {
                None => true,
                Some((_, _, best_excess)) => excess < *best_excess,
            };
            if better {
                best = Some((schedule, loads, excess));
            }
            if best.as_ref().map(|(_, _, e)| *e) == Some(0.0) {
                break;
            }
        }
        let (schedule, link_loads, _) = best.expect("at least one rounding attempt is made");

        Ok(RandomScheduleOutcome {
            schedule,
            lower_bound: relaxation.lower_bound,
            attempts,
            link_loads,
            candidates,
        })
    }
}

/// Builds every flow's candidate path set `Q_i` with merged weights `w̄_P`
/// (Algorithm 2, lines 4–7): `w_P(k)` is the fraction of the flow's
/// density the relaxation routes on `P` in interval `k` — relative to the
/// density, so a nearly delivered flow keeps its whole candidate set — and
/// the merged weight adds `w_P(k) * |I_k| / (d_i - r_i)`, in interval,
/// flow and path order. Paths merge by content, so per-worker solves,
/// which share no allocation, give the same candidates bit for bit; but a
/// flow's split (`FmcfSolution::split`, distinct paths) is matched once,
/// against the entries from before it, and a later interval holding the
/// same `Arc` — a scratch hands one out per pair — adds by index. Identity
/// is sound because the borrowed relaxation keeps every compared `Arc`
/// alive, so no address is freed and reused. Steps match by content.
fn candidate_paths<'r>(
    flows: &FlowSet,
    relaxation: &'r RelaxationSummary,
) -> Result<Vec<Vec<CandidatePath<'r>>>, SolveError> {
    let mut candidates: Vec<Vec<CandidatePath>> = vec![Vec::new(); flows.len()];
    // Per flow, the splits matched so far and where in `slots` the entries
    // of their paths start.
    let mut matched: Vec<Vec<(&Arc<_>, usize)>> = vec![Vec::new(); flows.len()];
    let mut slots: Vec<usize> = Vec::new();
    for iv in &relaxation.intervals {
        for (c, &flow_id) in iv.flow_ids.iter().enumerate() {
            let flow = flows.flow(flow_id);
            let merged =
                |rate: f64| rate / flow.density() * iv.interval.length() / flow.span_length();
            let entry = &mut candidates[flow_id];
            if let Some((split, flow_per_unit)) = iv.solution.split(c) {
                let seen = matched[flow_id].iter().find(|(s, _)| Arc::ptr_eq(s, split));
                if let Some(&(_, at)) = seen {
                    for (part, &slot) in split.iter().zip(&slots[at..]) {
                        entry[slot].weight += merged(part.weight * flow_per_unit);
                    }
                } else {
                    matched[flow_id].push((split, slots.len()));
                    let before = entry.len();
                    entry.reserve(split.len());
                    for part in split.iter() {
                        let weight = merged(part.weight * flow_per_unit);
                        slots.push(add_candidate(entry, before, &part.path, weight));
                    }
                }
            }
            for part in iv.solution.steps(c) {
                add_candidate(entry, entry.len(), &part.path, merged(part.weight));
            }
        }
    }
    for (flow, entry) in flows.iter().zip(&mut candidates) {
        let total: f64 = entry.iter().map(|c| c.weight).sum();
        if total <= 0.0 {
            return Err(SolveError::Unroutable { flow: flow.id });
        }
        for c in entry.iter_mut() {
            c.weight /= total;
        }
    }
    Ok(candidates)
}

/// Adds `weight` to the one of the first `before` entries on `path`'s
/// links, or appends `path` at `weight`; returns the entry's index.
fn add_candidate<'r>(
    entry: &mut Vec<CandidatePath<'r>>,
    before: usize,
    path: &'r Path,
    weight: f64,
) -> usize {
    let same = |c: &CandidatePath| {
        #[cfg(test)]
        tests::COMPARISONS.with(|n| n.set(n.get() + 1));
        c.path.links() == path.links()
    };
    if let Some(i) = entry[..before].iter().position(same) {
        entry[i].weight += weight;
        return i;
    }
    entry.push(CandidatePath { path, weight });
    entry.len() - 1
}

/// Samples one path per flow according to the candidate weights.
fn sample_paths<'r>(candidates: &[Vec<CandidatePath<'r>>], rng: &mut StdRng) -> Vec<&'r Path> {
    candidates
        .iter()
        .map(|cands| {
            debug_assert!(!cands.is_empty());
            let draw: f64 = rng.gen();
            let mut acc = 0.0;
            for c in cands {
                acc += c.weight;
                if draw <= acc {
                    return c.path;
                }
            }
            cands.last().expect("candidate list is non-empty").path
        })
        .collect()
}

/// Builds the schedule of Algorithm 2's last step: every flow transmits at
/// its density over its whole span along its chosen path, which makes every
/// link's rate in interval `I_k` exactly the sum of the densities of the
/// flows it carries (Theorem 4 then guarantees all deadlines are met).
fn build_schedule(flows: &FlowSet, chosen: &[&Path]) -> Schedule {
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
    use crate::online::OnlineEngine;
    use crate::{Algorithm, Dcfsr, SolverContext};
    use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
    use dcn_topology::{builders, BuiltTopology, LinkId, TopologyEvent};
    use std::cell::Cell;

    thread_local! {
        /// Link-slice comparisons `candidate_paths` made on this thread.
        pub(super) static COMPARISONS: Cell<usize> = const { Cell::new(0) };
    }

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    /// The merge `candidate_paths` replaced, kept as its reference: every
    /// path of every interval is looked up among its flow's entries by
    /// content.
    fn candidate_paths_by_content<'r>(
        flows: &FlowSet,
        relaxation: &'r RelaxationSummary,
    ) -> Result<Vec<Vec<CandidatePath<'r>>>, SolveError> {
        let mut candidates: Vec<Vec<CandidatePath>> = vec![Vec::new(); flows.len()];
        for iv in &relaxation.intervals {
            for (c, &flow_id) in iv.flow_ids.iter().enumerate() {
                let flow = flows.flow(flow_id);
                let entry = &mut candidates[flow_id];
                let split = iv.solution.split(c).into_iter().flat_map(|(paths, flow)| {
                    paths
                        .iter()
                        .map(move |part| (&part.path, part.weight * flow))
                });
                let steps = iv.solution.steps(c).iter();
                for (path, rate) in split.chain(steps.map(|part| (&part.path, part.weight))) {
                    let fraction = rate / flow.density();
                    let merged = fraction * iv.interval.length() / flow.span_length();
                    match entry.iter_mut().find(|c| c.path.links() == path.links()) {
                        Some(existing) => existing.weight += merged,
                        None => entry.push(CandidatePath {
                            path,
                            weight: merged,
                        }),
                    }
                }
            }
        }
        for (flow, entry) in flows.iter().zip(&mut candidates) {
            let total: f64 = entry.iter().map(|c| c.weight).sum();
            if total <= 0.0 {
                return Err(SolveError::Unroutable { flow: flow.id });
            }
            for c in entry.iter_mut() {
                c.weight /= total;
            }
        }
        Ok(candidates)
    }

    /// Asserts that both merges give every flow the same candidate links
    /// at the same weight bits, and returns how many Frank–Wolfe step
    /// paths the relaxation holds.
    fn assert_merges_agree(flows: &FlowSet, relaxation: &RelaxationSummary) -> usize {
        let merged = candidate_paths(flows, relaxation).unwrap();
        let reference = candidate_paths_by_content(flows, relaxation).unwrap();
        let bits = |entry: &[CandidatePath]| -> Vec<(Vec<LinkId>, u64)> {
            let bits = |c: &CandidatePath| (c.path.links().to_vec(), c.weight.to_bits());
            entry.iter().map(bits).collect()
        };
        for (flow, (got, want)) in merged.iter().zip(&reference).enumerate() {
            assert_eq!(bits(got), bits(want), "flow {flow}");
        }
        let steps = |iv: &crate::IntervalRelaxation| {
            let commodities = 0..iv.flow_ids.len();
            commodities
                .map(|c| iv.solution.steps(c).len())
                .sum::<usize>()
        };
        relaxation.intervals.iter().map(steps).sum()
    }

    /// Relaxes `flows` on `topo` with `down` failed, warm starts on or off.
    fn relax_on(
        topo: &BuiltTopology,
        down: &[LinkId],
        warm: bool,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> RelaxationSummary {
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        for &link in down {
            assert!(ctx.apply_topology_event(TopologyEvent::LinkDown { time: 0.0, link }));
        }
        ctx.set_warm_start(warm);
        ctx.relax(flows, power, &FmcfSolverConfig::coarse())
            .unwrap()
    }

    /// `candidate_paths` merges a split by handle after matching it once;
    /// the content merge it replaced must give the same candidates, links
    /// and weight bits, where Frank–Wolfe takes steps: BCube(4, 1) at
    /// α = 4, and a fat-tree k = 4 with fabric links down, each with warm
    /// starts off and on. A summary interleaving the intervals of two
    /// scratches carries one pair's split under two handles — of equal
    /// content on one graph state, of different content across two.
    #[test]
    fn the_split_merge_equals_the_content_merge() {
        let bcube = builders::bcube(4, 1);
        let fat_tree = builders::fat_tree(4);
        let graph = fat_tree.csr();
        let to_core = |l: &LinkId| {
            fat_tree.network.node(graph.link_dst(*l)).kind == dcn_topology::NodeKind::CoreSwitch
        };
        let links = (0..graph.link_count()).map(LinkId);
        let down: Vec<LinkId> = links.filter(to_core).step_by(5).take(3).collect();
        for &(topo, down, alpha) in &[(&bcube, &[][..], 4.0), (&fat_tree, &down[..], 2.0)] {
            let power = PowerFunction::speed_scaling_only(1.0, alpha, 10.0);
            let mut steps = 0;
            for seed in 0..2 {
                let flows = UniformWorkload::paper_defaults(16, seed)
                    .generate(topo.hosts())
                    .unwrap();
                for warm in [false, true] {
                    let relaxation = relax_on(topo, down, warm, &flows, &power);
                    steps += assert_merges_agree(&flows, &relaxation);
                }
                let mut mixed = relax_on(topo, down, false, &flows, &power);
                for other in [down, &[]] {
                    let second = relax_on(topo, other, true, &flows, &power);
                    for (k, iv) in second.intervals.into_iter().enumerate() {
                        if k % 2 == 1 {
                            mixed.intervals[k] = iv;
                        }
                    }
                    assert_merges_agree(&flows, &mixed);
                }
            }
            assert!(steps > 0, "Frank–Wolfe must take steps on {}", topo.name);
        }
    }

    /// The clock-free gate of the split merge: on the `online_resolve`
    /// instances (fat-tree k = 8 at capacity 10, 300 paper-default flows at
    /// load 8, `resolve` with warm starts), `candidate_paths` made
    /// 1 590 640 / 2 051 991 / 1 795 761 link-slice comparisons while every
    /// path of every interval was matched by content; at most a tenth now.
    #[test]
    #[ignore = "benchmark-size comparison count; run in release"]
    fn the_split_merge_compares_a_tenth_of_the_paths_on_online_resolve() {
        let topo = builders::fat_tree_with_capacity(8, 10.0);
        let power = x2(10.0);
        for (seed, by_content) in [(1, 1_590_640), (2, 2_051_991), (3, 1_795_761)] {
            let base = UniformWorkload::paper_defaults(300, seed)
                .generate(topo.hosts())
                .unwrap();
            let flows = ArrivalProcess::with_load(8.0, seed).apply(&base).unwrap();
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let mut engine = OnlineEngine::builder()
                .policy("resolve")
                .warm_start(true)
                .build()
                .unwrap();
            COMPARISONS.with(|n| n.set(0));
            engine.run(&mut ctx, &flows, &power).unwrap();
            let comparisons = COMPARISONS.with(Cell::get);
            assert!(
                10 * comparisons <= by_content,
                "seed {seed}: {comparisons} comparisons, {by_content} by content"
            );
        }
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

    /// A nearly delivered residual flow keeps the relaxation's whole
    /// candidate set: weights are fractions of the flow's density, not
    /// absolute amounts an absolute threshold could round away (at
    /// density 1e-13 every per-link flow used to be zeroed as residue and
    /// the flow was routed on one BFS path whatever the relaxation said).
    #[test]
    fn a_nearly_delivered_flow_keeps_its_candidates() {
        let topo = builders::fat_tree(4);
        let hosts = topo.hosts();
        let power = x2(10.0);
        let flows = FlowSet::from_tuples([
            (hosts[0], hosts[15], 0.0, 10.0, 10.0),
            (hosts[1], hosts[14], 0.0, 10.0, 1e-12),
        ])
        .unwrap();
        assert_eq!(flows.flow(1).density(), 1e-13);
        let relaxation = SolverContext::from_network(&topo.network)
            .unwrap()
            .relax(&flows, &power, &FmcfSolverConfig::default())
            .unwrap();
        let outcome = RandomSchedule::default()
            .run_with_relaxation(&topo.network, &flows, &power, &relaxation)
            .unwrap();
        let tiny = &outcome.candidates[1];
        assert_eq!(tiny.len(), 4, "the pair's four ECMP paths: {tiny:?}");
        for (i, candidate) in tiny.iter().enumerate() {
            assert_eq!(candidate.weight, 0.25);
            assert_eq!(candidate.path.len(), 6);
            assert_eq!(candidate.path.source(), hosts[1]);
            assert_eq!(candidate.path.destination(), hosts[14]);
            assert!(tiny[..i].iter().all(|other| other.path != candidate.path));
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
        // The relaxation itself refuses unreachable commodities, so check
        // the error path through candidate_paths with an empty relaxation.
        let relaxation = RelaxationSummary {
            intervals: Vec::new(),
            lower_bound: 0.0,
        };
        let err = RandomSchedule::default()
            .run_with_relaxation(&net, &flows, &x2(10.0), &relaxation)
            .unwrap_err();
        assert_eq!(err, SolveError::Unroutable { flow: 0 });
    }

    use dcn_flow::FlowSet;
}
