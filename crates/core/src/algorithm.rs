//! The pluggable scheduler interface: one [`Algorithm`] trait, one
//! implementation per scheme, and the [`AlgorithmRegistry`] that builds
//! one from its name.
//!
//! Every scheduling/routing scheme in the reproduction — the paper's two
//! algorithms, the five comparison baselines, the fractional lower bound
//! and the exhaustive path enumeration — implements [`Algorithm`] and plugs
//! into a shared [`SolverContext`], so new workloads and experiment
//! harnesses select schedulers **by name** instead of wiring bespoke call
//! paths:
//!
//! | name | scheme |
//! |------|--------|
//! | `dcfsr` | Random-Schedule (paper Algorithm 2): joint routing + scheduling |
//! | `sp-mcf` | shortest-path routing + Most-Critical-First (paper's `SP+MCF`) |
//! | `ecmp` | seeded ECMP routing + Most-Critical-First |
//! | `least-loaded` | volume-aware k-shortest-path routing + Most-Critical-First |
//! | `consolidate` | ElasticTree-style link-minimising routing + Most-Critical-First |
//! | `greedy` | shortest path at full line rate, no energy management |
//! | `lb` | the per-interval fractional relaxation (bound only, no schedule) |
//! | `exact` | the best Most-Critical-First schedule over Yen's k = 3 paths per flow (tiny instances; not the DCFSR optimum) |

use crate::context::SolverContext;
use crate::dcfs::most_critical_first;
use crate::dcfsr::{RandomSchedule, RandomScheduleConfig};
use crate::error::SolveError;
use crate::routing::Routing;
use crate::schedule::{energy_of, FlowSchedule, Schedule};
use crate::solution::Solution;
use dcn_flow::FlowSet;
use dcn_power::{EnergyBreakdown, PowerFunction, RateProfile};
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::{k_shortest_paths_on, Path};
use std::fmt;

/// A deadline-constrained flow scheduler that runs on a shared
/// [`SolverContext`].
///
/// Implementations are cheap, reusable objects: construct (or
/// [`AlgorithmRegistry::create`]) once, call [`Algorithm::solve`] many
/// times. The context carries all warm per-network state; the algorithm
/// object only carries configuration. The `Send` bound lets `dcn-server`
/// move instances into its shard worker threads.
pub trait Algorithm: Send {
    /// The name [`AlgorithmRegistry::create`] builds the algorithm by
    /// (stable, lowercase, kebab-case).
    fn name(&self) -> &str;

    /// Re-seeds the algorithm's randomness, if it has any (`dcfsr`
    /// rounding, `ecmp` path draws). Deterministic algorithms ignore this.
    fn set_seed(&mut self, _seed: u64) {}

    /// Solves one instance: produces a [`Solution`] for `flows` on the
    /// context's network under `power`.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] for invalid input (empty flow set,
    /// endpoints outside the network, disconnected commodities) or for
    /// algorithm-specific failures (infeasibility, enumeration budget).
    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError>;
}

impl fmt::Debug for dyn Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Algorithm({})", self.name())
    }
}

/// **Random-Schedule** (paper Algorithm 2) as an [`Algorithm`]: relaxation
/// → candidate paths → randomized rounding → density scheduling.
///
/// The solution carries the fractional lower bound (computed as a
/// by-product of the relaxation) and the rounding diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Dcfsr {
    config: RandomScheduleConfig,
}

impl Dcfsr {
    /// Creates the algorithm with an explicit configuration.
    pub fn new(config: RandomScheduleConfig) -> Self {
        Self { config }
    }
}

impl Algorithm for Dcfsr {
    fn name(&self) -> &str {
        "dcfsr"
    }

    fn set_seed(&mut self, seed: u64) {
        self.config.seed = seed;
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        let relaxation = ctx.relax(flows, power, &self.config.fmcf)?;
        let outcome = RandomSchedule::new(self.config).run_with_relaxation(
            ctx.network(),
            flows,
            power,
            &relaxation,
        )?;
        let (start, end) = outcome.schedule.horizon();
        let energy = energy_of(&outcome.link_loads, power.sigma() * (end - start));
        let mut solution = Solution::scheduled(self.name(), outcome.schedule, energy);
        solution.lower_bound = Some(relaxation.lower_bound);
        solution.diagnostics.rounding_attempts = Some(outcome.attempts);
        solution.diagnostics.capacity_excess = Some(outcome.capacity_excess);
        solution.diagnostics.relaxation_intervals = Some(relaxation.intervals.len());
        Ok(solution)
    }
}

/// A routing strategy followed by the DCFS scheduler Most-Critical-First:
/// the shape of the paper's `SP+MCF` baseline and its ECMP, least-loaded
/// and consolidating variants.
#[derive(Debug, Clone)]
pub struct RoutedMcf {
    name: &'static str,
    routing: Routing,
}

impl RoutedMcf {
    /// The paper's `SP+MCF` baseline (registry name `sp-mcf`).
    pub fn shortest_path() -> Self {
        Self {
            name: "sp-mcf",
            routing: Routing::ShortestPath,
        }
    }

    /// Seeded ECMP routing + Most-Critical-First (registry name `ecmp`).
    pub fn ecmp(seed: u64) -> Self {
        Self {
            name: "ecmp",
            routing: Routing::Ecmp { seed },
        }
    }

    /// Volume-aware k-shortest-path routing + Most-Critical-First
    /// (registry name `least-loaded`).
    pub fn least_loaded(k: usize) -> Self {
        Self {
            name: "least-loaded",
            routing: Routing::LeastLoadedKsp { k },
        }
    }

    /// ElasticTree-style link-minimising routing + Most-Critical-First
    /// (registry name `consolidate`).
    pub fn consolidate(k: usize) -> Self {
        Self {
            name: "consolidate",
            routing: Routing::Consolidate { k },
        }
    }
}

impl Algorithm for RoutedMcf {
    fn name(&self) -> &str {
        self.name
    }

    fn set_seed(&mut self, seed: u64) {
        if let Routing::Ecmp { seed: s } = &mut self.routing {
            *s = seed;
        }
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        ctx.validate_flow_shape(flows)?;
        let paths = ctx.route(&self.routing, flows)?;
        let schedule = most_critical_first(ctx.network(), flows, &paths, power)?;
        let energy = schedule.energy(power);
        Ok(Solution::scheduled(self.name, schedule, energy))
    }
}

/// The "no energy management" baseline as an [`Algorithm`] (registry name
/// `greedy`): every flow is routed on its shortest path and transmitted at
/// full line rate from its release time.
///
/// The schedule ignores contention, so it may exceed link capacities when
/// many flows collide; [`SolverContext::verify`] reports that separately.
/// It exists to quantify how much energy headroom deadline-aware
/// scheduling exploits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullRateGreedy;

impl Algorithm for FullRateGreedy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        ctx.validate_flow_shape(flows)?;
        let paths = ctx.route(&Routing::ShortestPath, flows)?;
        let horizon = flows.horizon();
        let rate = power.capacity();
        let flow_schedules = flows
            .iter()
            .map(|f| {
                // Transmit at full rate from the release; if even full rate
                // cannot meet the deadline, stretch to the density (the
                // flow is then infeasible at line rate and verification
                // will say so).
                let duration = (f.volume / rate).min(f.span_length());
                let actual_rate = f.volume / duration;
                FlowSchedule::uniform(
                    f.id,
                    paths[f.id].clone(),
                    RateProfile::constant(f.release, f.release + duration, actual_rate),
                )
            })
            .collect();
        let schedule = Schedule::new(flow_schedules, horizon);
        let energy = schedule.energy(power);
        Ok(Solution::scheduled(self.name(), schedule, energy))
    }
}

/// The per-interval fractional relaxation as an [`Algorithm`] (registry
/// name `lb`): computes the lower bound `LB` that normalises the paper's
/// Fig. 2, without producing a schedule.
#[derive(Debug, Clone, Default)]
pub struct RelaxationLb {
    config: FmcfSolverConfig,
}

impl RelaxationLb {
    /// Creates the bound with an explicit Frank–Wolfe configuration.
    pub fn new(config: FmcfSolverConfig) -> Self {
        Self { config }
    }
}

impl Algorithm for RelaxationLb {
    fn name(&self) -> &str {
        "lb"
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        let relaxation = ctx.relax(flows, power, &self.config)?;
        let mut solution = Solution::bound_only(self.name(), relaxation.lower_bound);
        solution.diagnostics.relaxation_intervals = Some(relaxation.intervals.len());
        Ok(solution)
    }
}

/// Exhaustive path enumeration as an [`Algorithm`] (registry name
/// `exact`) — for *tiny* instances only.
///
/// DCFSR is strongly NP-hard (Theorem 2), but once every flow's path is
/// fixed the remaining problem is DCFS. The enumerator takes each flow's
/// `paths_per_flow` shortest paths (Yen's algorithm by hop count, on the
/// context's CSR view and shortest-path engine; `k = 3` in the registry,
/// which is exhaustive on the small gadget topologies) and keeps the best
/// Most-Critical-First schedule over the Cartesian product of assignments.
///
/// That is the DCFSR optimum only where Most-Critical-First is optimal,
/// i.e. where a link serves one flow at a time (Theorem 1). Under the
/// concurrent-sharing energy this crate prices it is optimal on a single
/// link only, so the result is not the optimum: on `line(3)` under `x^2`,
/// flows A→C and A→B on `[0, 1]` with volume 1 cost `3 + 2√2 ≈ 5.828` here
/// (as under `sp-mcf`), while Random-Schedule finds `5.0`, and all three
/// schedules pass verification. The test suites and the hardness-gadget
/// experiment use it as a reference beside the fractional lower bound.
///
/// Besides the typed input errors, a solve fails with
/// [`SolveError::TooLarge`] when the number of assignments exceeds
/// `max_assignments`, [`SolveError::Unroutable`] when some flow has no
/// path at all, and [`SolveError::NoFeasibleAssignment`] when every
/// assignment fails (possible only under extreme contention).
#[derive(Debug, Clone, Copy)]
pub struct ExactBrute {
    /// Candidate paths enumerated per flow (Yen's k-shortest by hop
    /// count).
    pub paths_per_flow: usize,
    /// Upper bound on the number of path assignments (at most
    /// `paths_per_flow ^ flows`); larger instances return
    /// [`SolveError::TooLarge`].
    pub max_assignments: u128,
}

impl ExactBrute {
    /// Creates the enumerator with an explicit budget.
    pub fn new(paths_per_flow: usize, max_assignments: u128) -> Self {
        Self {
            paths_per_flow,
            max_assignments,
        }
    }
}

impl Default for ExactBrute {
    fn default() -> Self {
        Self::new(3, 100_000)
    }
}

impl Algorithm for ExactBrute {
    fn name(&self) -> &str {
        "exact"
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        ctx.validate_flow_shape(flows)?;
        let network = ctx.network();
        let (graph, engine) = ctx.parts();
        let k = self.paths_per_flow.max(1);
        let mut candidates: Vec<Vec<Path>> = Vec::with_capacity(flows.len());
        for flow in flows.iter() {
            let paths = k_shortest_paths_on(graph, engine, flow.src, flow.dst, k, |_| 1.0);
            if paths.is_empty() {
                return Err(SolveError::Unroutable { flow: flow.id });
            }
            candidates.push(paths);
        }
        let count = candidates
            .iter()
            .try_fold(1u128, |n, c| n.checked_mul(c.len() as u128));
        let Some(count) = count.filter(|&n| n <= self.max_assignments) else {
            return Err(SolveError::TooLarge {
                combinations: count.unwrap_or(u128::MAX),
                budget: self.max_assignments,
            });
        };

        let mut best: Option<(EnergyBreakdown, Schedule)> = None;
        let mut assignment = vec![0usize; flows.len()];
        loop {
            let paths: Vec<Path> = assignment
                .iter()
                .zip(&candidates)
                .map(|(&choice, paths)| paths[choice].clone())
                .collect();
            if let Ok(schedule) = most_critical_first(network, flows, &paths, power) {
                let energy = schedule.energy(power);
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| energy.total() < b.total())
                {
                    best = Some((energy, schedule));
                }
            }
            // Advance the mixed-radix counter; it carries out of its last
            // digit once every assignment has been tried.
            let advanced = assignment
                .iter_mut()
                .zip(&candidates)
                .any(|(digit, paths)| {
                    *digit = (*digit + 1) % paths.len();
                    *digit != 0
                });
            if !advanced {
                break;
            }
        }
        let (energy, schedule) = best.ok_or(SolveError::NoFeasibleAssignment)?;
        let mut solution = Solution::scheduled(self.name(), schedule, energy);
        solution.diagnostics.assignments_tried = Some(count as usize);
        Ok(solution)
    }
}

/// Builds the built-in [`Algorithm`]s by name (see the
/// [module docs](self) for the name table). The one setting callers vary
/// is the Frank–Wolfe configuration of the relaxation behind `dcfsr` and
/// `lb`; [`AlgorithmRegistry::with_defaults`] uses the library default.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgorithmRegistry {
    /// The Frank–Wolfe configuration `dcfsr` and `lb` relax with.
    pub fmcf: FmcfSolverConfig,
}

impl AlgorithmRegistry {
    /// Every name [`AlgorithmRegistry::create`] knows, in the documented
    /// order.
    pub const NAMES: [&'static str; 8] = [
        "dcfsr",
        "sp-mcf",
        "ecmp",
        "least-loaded",
        "consolidate",
        "greedy",
        "lb",
        "exact",
    ];

    /// The registry on the library-default Frank–Wolfe configuration.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// Instantiates the algorithm named `name`; its [`Algorithm::name`] is
    /// `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::UnknownAlgorithm`] for a name not in
    /// [`AlgorithmRegistry::NAMES`].
    pub fn create(&self, name: &str) -> Result<Box<dyn Algorithm>, SolveError> {
        Ok(match name {
            "dcfsr" => Box::new(Dcfsr::new(RandomScheduleConfig {
                fmcf: self.fmcf,
                ..Default::default()
            })),
            "sp-mcf" => Box::new(RoutedMcf::shortest_path()),
            "ecmp" => Box::new(RoutedMcf::ecmp(0)),
            "least-loaded" => Box::new(RoutedMcf::least_loaded(4)),
            "consolidate" => Box::new(RoutedMcf::consolidate(4)),
            "greedy" => Box::new(FullRateGreedy),
            "lb" => Box::new(RelaxationLb::new(self.fmcf)),
            "exact" => Box::new(ExactBrute::default()),
            _ => {
                return Err(SolveError::UnknownAlgorithm {
                    name: name.to_string(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_flow::workload::UniformWorkload;
    use dcn_topology::builders;

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    #[test]
    fn registry_defaults_cover_every_scheme() {
        let registry = AlgorithmRegistry::with_defaults();
        for name in AlgorithmRegistry::NAMES {
            assert_eq!(registry.create(name).unwrap().name(), name);
        }
        assert_eq!(
            registry.create("nope").unwrap_err(),
            SolveError::UnknownAlgorithm {
                name: "nope".to_string()
            }
        );
    }

    #[test]
    fn dcfsr_solution_matches_the_legacy_outcome() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(20, 5)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut algo = Dcfsr::default();
        algo.set_seed(5);
        let solution = algo.solve(&mut ctx, &flows, &power).unwrap();

        let relaxation = crate::relaxation::interval_relaxation_with(
            &topo.csr(),
            &flows,
            &power,
            &FmcfSolverConfig::default(),
            &mut dcn_solver::fmcf::FmcfScratch::new(),
        )
        .unwrap();
        let legacy = RandomSchedule::new(RandomScheduleConfig {
            seed: 5,
            ..Default::default()
        })
        .run_with_relaxation(&topo.network, &flows, &power, &relaxation)
        .unwrap();
        assert_eq!(solution.schedule.as_ref().unwrap(), &legacy.schedule);
        assert_eq!(solution.lower_bound, Some(relaxation.lower_bound));
        assert_eq!(
            solution.diagnostics.rounding_attempts,
            Some(legacy.attempts)
        );
        assert_eq!(
            solution.diagnostics.capacity_excess,
            Some(legacy.capacity_excess)
        );
    }

    #[test]
    fn every_scheduling_algorithm_verifies_on_a_fat_tree() {
        let topo = builders::fat_tree(4);
        let power = x2(1e9);
        let flows = UniformWorkload::paper_defaults(12, 3)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let registry = AlgorithmRegistry::with_defaults();
        for name in ["dcfsr", "sp-mcf", "ecmp", "least-loaded", "consolidate"] {
            let mut algo = registry.create(name).unwrap();
            algo.set_seed(7);
            let solution = algo.solve(&mut ctx, &flows, &power).unwrap();
            let schedule = solution.schedule.as_ref().unwrap();
            ctx.verify(schedule, &flows, &power)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(solution.algorithm(), name);
            assert!(solution.total_energy().unwrap() > 0.0);
        }
    }

    #[test]
    fn the_registry_config_reaches_dcfsr_and_lb() {
        // On BCube the coarse configuration stops short of the default's
        // bound, so a registry that ignored its config would show here.
        let topo = builders::bcube(2, 1);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(12, 4)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let fmcf = FmcfSolverConfig::coarse();
        let registry = AlgorithmRegistry { fmcf };
        let mut bound = |algo: &mut dyn Algorithm| {
            let solution = algo.solve(&mut ctx, &flows, &power).unwrap();
            (solution.schedule, solution.lower_bound.unwrap().to_bits())
        };
        let default_lb = bound(&mut RelaxationLb::default()).1;
        let mut direct: [Box<dyn Algorithm>; 2] = [
            Box::new(Dcfsr::new(RandomScheduleConfig {
                fmcf,
                ..Default::default()
            })),
            Box::new(RelaxationLb::new(fmcf)),
        ];
        for algo in &mut direct {
            let built = bound(algo.as_mut());
            assert_ne!(built.1, default_lb, "{}", algo.name());
            let named = bound(registry.create(algo.name()).unwrap().as_mut());
            assert_eq!(named, built, "{}", algo.name());
        }
    }

    #[test]
    fn lb_is_a_bound_for_every_scheduler() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(15, 9)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let lb = RelaxationLb::default()
            .solve(&mut ctx, &flows, &power)
            .unwrap()
            .lower_bound
            .unwrap();
        assert!(lb > 0.0);
        for name in ["dcfsr", "sp-mcf"] {
            let mut algo = AlgorithmRegistry::with_defaults().create(name).unwrap();
            let energy = algo
                .solve(&mut ctx, &flows, &power)
                .unwrap()
                .total_energy()
                .unwrap();
            assert!(energy >= lb - 1e-6, "{name}: {energy} < LB {lb}");
        }
    }

    #[test]
    fn exact_beats_or_matches_dcfsr_on_parallel_links() {
        let topo = builders::parallel(3, 100.0);
        let flows =
            FlowSet::from_tuples((0..3).map(|_| (topo.source(), topo.sink(), 0.0, 2.0, 4.0)))
                .unwrap();
        let power = x2(100.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let exact = ExactBrute::default()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let dcfsr = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
        assert!(exact.diagnostics.assignments_tried.unwrap() > 0);
        assert!(exact.total_energy().unwrap() <= dcfsr.total_energy().unwrap() + 1e-6);
        ctx.verify(exact.schedule.as_ref().unwrap(), &flows, &power)
            .unwrap();
    }

    /// One `ExactBrute` solve through a fresh context.
    fn exact(
        network: &dcn_topology::Network,
        flows: &FlowSet,
        power: &PowerFunction,
        paths_per_flow: usize,
        max_assignments: u128,
    ) -> Result<Solution, SolveError> {
        let mut ctx = SolverContext::from_network(network).unwrap();
        ExactBrute::new(paths_per_flow, max_assignments).solve(&mut ctx, flows, power)
    }

    #[test]
    fn exact_spreads_flows_over_parallel_links() {
        // Three identical flows over three parallel links: the optimum uses
        // one link each at its density.
        let topo = builders::parallel(3, 100.0);
        let flows =
            FlowSet::from_tuples((0..3).map(|_| (topo.source(), topo.sink(), 0.0, 2.0, 4.0)))
                .unwrap();
        let power = x2(100.0);
        let solution = exact(&topo.network, &flows, &power, 3, 1_000).unwrap();
        // Each flow at density 2 on its own link for 2 time units:
        // 3 * 2^2 * 2 = 24.
        let energy = solution.total_energy().unwrap();
        assert!((energy - 24.0).abs() < 1e-6, "energy {energy}");
        let mut used: Vec<_> = solution
            .schedule
            .unwrap()
            .flow_schedules()
            .iter()
            .map(|fs| fs.path.links()[0])
            .collect();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn exact_is_a_lower_bound_for_random_schedule() {
        let topo = builders::parallel(3, 100.0);
        let flows = FlowSet::from_tuples([
            (topo.source(), topo.sink(), 0.0, 2.0, 6.0),
            (topo.source(), topo.sink(), 0.0, 2.0, 4.0),
            (topo.source(), topo.sink(), 1.0, 3.0, 5.0),
        ])
        .unwrap();
        let power = x2(100.0);
        let exact = exact(&topo.network, &flows, &power, 3, 10_000)
            .unwrap()
            .total_energy()
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let rs = Dcfsr::new(RandomScheduleConfig {
            max_rounding_attempts: 20,
            ..Default::default()
        })
        .solve(&mut ctx, &flows, &power)
        .unwrap();
        let rs_energy = rs.total_energy().unwrap();
        assert!(
            rs_energy >= exact - 1e-6,
            "RS ({rs_energy}) cannot beat the exact optimum ({exact})"
        );
        // And the exact optimum itself respects the fractional lower bound.
        assert!(exact >= rs.lower_bound.unwrap() - 1e-6);
    }

    #[test]
    fn budget_is_enforced() {
        let topo = builders::fat_tree(4);
        let flows = FlowSet::from_tuples(
            (0..10).map(|i| (topo.hosts()[i], topo.hosts()[15 - i], 0.0, 10.0, 5.0)),
        )
        .unwrap();
        let err = exact(&topo.network, &flows, &x2(1e9), 4, 1_000).unwrap_err();
        assert!(matches!(err, SolveError::TooLarge { .. }));
    }

    #[test]
    fn an_assignment_count_past_u128_saturates() {
        // 90 inter-pod flows with three candidate paths each: 3^90 > 2^128.
        // The count saturates instead of overflowing (or wrapping, in a
        // release build, to a small-looking number).
        let topo = builders::fat_tree(4);
        let hosts = topo.hosts();
        let flows = FlowSet::from_tuples(
            (0..90).map(|i| (hosts[i % 16], hosts[(i + 4) % 16], 0.0, 10.0, 5.0)),
        )
        .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let err = AlgorithmRegistry::with_defaults()
            .create("exact")
            .unwrap()
            .solve(&mut ctx, &flows, &x2(1e9))
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::TooLarge {
                combinations: u128::MAX,
                budget: 100_000
            }
        );
    }

    #[test]
    fn unroutable_flow_is_reported() {
        let mut net = dcn_topology::Network::new();
        let a = net.add_node(dcn_topology::NodeKind::Host, "a");
        let b = net.add_node(dcn_topology::NodeKind::Host, "b");
        let flows = FlowSet::from_tuples([(a, b, 0.0, 1.0, 1.0)]).unwrap();
        let err = exact(&net, &flows, &x2(10.0), 2, 100).unwrap_err();
        assert_eq!(err, SolveError::Unroutable { flow: 0 });
    }

    #[test]
    fn single_flow_exact_equals_sp_mcf() {
        let topo = builders::line_with_capacity(4, 1e9);
        let flows =
            FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[3], 0.0, 5.0, 10.0)]).unwrap();
        let power = x2(1e9);
        let exact = exact(&topo.network, &flows, &power, 2, 100)
            .unwrap()
            .total_energy()
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let sp = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        assert!((exact - sp.total_energy().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn empty_flow_set_is_rejected_uniformly() {
        let topo = builders::line(3);
        let flows = FlowSet::from_flows(vec![]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let registry = AlgorithmRegistry::with_defaults();
        for name in AlgorithmRegistry::NAMES {
            let err = registry
                .create(name)
                .unwrap()
                .solve(&mut ctx, &flows, &power)
                .unwrap_err();
            assert_eq!(err, SolveError::EmptyFlowSet, "{name}");
        }
    }

    #[test]
    fn sp_mcf_meets_all_deadlines() {
        let topo = builders::fat_tree(4);
        let power = x2(1e9);
        let flows = UniformWorkload::paper_defaults(40, 13)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        ctx.verify(solution.schedule.as_ref().unwrap(), &flows, &power)
            .unwrap();
    }

    #[test]
    fn sp_mcf_energy_is_at_least_the_fractional_lower_bound() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(30, 21)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let rs = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
        let sp = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        assert!(sp.total_energy().unwrap() >= rs.lower_bound.unwrap() - 1e-6);
    }

    #[test]
    fn ecmp_and_least_loaded_also_meet_deadlines() {
        let topo = builders::fat_tree(4);
        let power = x2(1e9);
        let flows = UniformWorkload::paper_defaults(25, 3)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut schemes: Vec<Box<dyn Algorithm>> = vec![
            Box::new(RoutedMcf::ecmp(4)),
            Box::new(RoutedMcf::least_loaded(4)),
            Box::new(RoutedMcf::consolidate(4)),
        ];
        for algo in &mut schemes {
            let solution = algo.solve(&mut ctx, &flows, &power).unwrap();
            ctx.verify(solution.schedule.as_ref().unwrap(), &flows, &power)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        }
    }

    #[test]
    fn consolidation_uses_no_more_links_than_ecmp() {
        // The whole point of the consolidation baseline is a smaller active
        // link set; ECMP spreads load over many equal-cost paths.
        let topo = builders::fat_tree(4);
        let power = x2(1e9);
        let flows = UniformWorkload::paper_defaults(40, 12)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let consolidated = RoutedMcf::consolidate(4)
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let ecmp = RoutedMcf::ecmp(12).solve(&mut ctx, &flows, &power).unwrap();
        let consolidated_links = consolidated.schedule.unwrap().link_loads(&power).len();
        let ecmp_links = ecmp.schedule.unwrap().link_loads(&power).len();
        assert!(
            consolidated_links <= ecmp_links,
            "consolidation ({consolidated_links}) should not activate more links than \
             ECMP ({ecmp_links})"
        );
    }

    #[test]
    fn full_rate_greedy_delivers_all_volume() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(10, 17)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = FullRateGreedy.solve(&mut ctx, &flows, &power).unwrap();
        for (flow, fs) in flows
            .iter()
            .zip(solution.schedule.as_ref().unwrap().flow_schedules())
        {
            assert!((fs.profile.volume() - flow.volume).abs() < 1e-6);
            assert!(fs.profile.max_rate() <= power.capacity() + 1e-9);
        }
    }

    #[test]
    fn greedy_uses_more_energy_than_the_optimal_scheduler() {
        // With a superadditive power function, blasting at line rate costs
        // strictly more dynamic energy than stretching transmissions.
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(20, 8)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let greedy = FullRateGreedy.solve(&mut ctx, &flows, &power).unwrap();
        let optimal = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        assert!(
            greedy.energy.unwrap().dynamic > optimal.energy.unwrap().dynamic,
            "greedy {} vs optimal {}",
            greedy.energy.unwrap().dynamic,
            optimal.energy.unwrap().dynamic
        );
    }

    #[test]
    fn baseline_errors_are_propagated() {
        let mut net = dcn_topology::Network::new();
        let a = net.add_node(dcn_topology::NodeKind::Host, "a");
        let b = net.add_node(dcn_topology::NodeKind::Host, "b");
        let flows = FlowSet::from_tuples([(a, b, 0.0, 1.0, 1.0)]).unwrap();
        let mut ctx = SolverContext::from_network(&net).unwrap();
        let err = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &x2(10.0))
            .unwrap_err();
        assert_eq!(err, crate::SolveError::Unroutable { flow: 0 });
    }

    use dcn_flow::FlowSet;
}
