//! What starting Frank–Wolfe at the ECMP split, stopping it on its gap
//! and keeping its iterate as a path mixture mean end to end, on the
//! paper's own setting (fat-tree, `P(x) = x^2`, the Fig. 2 workload):
//!
//! * the relaxation of a failure-free fat-tree exits every interval after
//!   one iteration, on a zero gap — pinned as deterministic counts, not a
//!   wall-clock. The solver proves that gap with a hop-layer node
//!   potential instead of a search; its own unit tests count the searches
//!   (none on this instance). Off the symmetric case the gap is a
//!   certificate too;
//! * Random-Schedule then routes on hop-count shortest paths only (the
//!   single-path start left a little flow on detours over unloaded links,
//!   whose marginal cost is zero);
//! * the candidate sets it rounds from are what a Raghavan–Tompson
//!   decomposition of the same link flows gives;
//! * and every candidate is a path of the relaxation on the context's
//!   live graph, never across a link that is down.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::solver::decompose::decompose_flow;
use deadline_dcn::solver::fmcf::{
    Commodity, FmcfProblem, FmcfScratch, FmcfSolverConfig, PowerFlowCost,
};
use deadline_dcn::topology::{builders, LinkId, Path, TopologyEvent};

fn x2() -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, 10.0)
}

/// The clock-free gate of the relaxation's work: on the benchmark's
/// `offline_dcfsr` instance every non-empty interval exits after one
/// Frank–Wolfe iteration (2933 over 119 intervals with the single-path
/// start), converged, on a relative gap that is zero up to rounding — so
/// no line search runs. That iteration's gap is certified without an
/// all-or-nothing search (`fmcf`'s
/// `the_offline_instance_exits_certified_without_a_search` counts 119
/// certified exits and no search); the iteration count is the same either
/// way.
#[test]
fn relaxation_needs_at_most_two_iterations_per_interval_on_the_fat_tree() {
    let topo = builders::fat_tree_with_capacity(8, 10.0);
    let flows = UniformWorkload::paper_defaults(60, 1)
        .generate(topo.hosts())
        .unwrap();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let relaxation = ctx
        .relax(&flows, &x2(), &RandomScheduleConfig::default().fmcf)
        .unwrap();
    let non_empty = relaxation
        .intervals
        .iter()
        .filter(|iv| !iv.flow_ids.is_empty())
        .count();
    let iterations: usize = relaxation
        .intervals
        .iter()
        .map(|iv| iv.solution.iterations)
        .sum();
    assert!(non_empty > 100, "the instance has {non_empty} intervals");
    assert!(
        iterations <= 2 * non_empty,
        "{iterations} Frank-Wolfe iterations over {non_empty} non-empty intervals"
    );
    assert!(relaxation.intervals.iter().all(|iv| iv.solution.converged));
    for iv in relaxation
        .intervals
        .iter()
        .filter(|iv| !iv.flow_ids.is_empty())
    {
        assert_eq!(iv.solution.iterations, 1, "interval {:?}", iv.interval);
        assert!(
            iv.solution.relative_gap <= 1e-7,
            "interval {:?}: relative gap {}",
            iv.interval,
            iv.solution.relative_gap
        );
    }
}

/// The gap is a certificate: on BCube(4,1) at `alpha = 4` — where 60
/// iterations leave Frank–Wolfe a few percent above the optimum — the
/// final objective less the recorded gap is below what a 20 000-iteration
/// solve reaches, which in turn is below the final objective.
#[test]
fn the_recorded_gap_bounds_the_optimum_from_below_on_bcube() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let topo = builders::bcube(4, 1);
    let hosts = topo.hosts();
    let cost = PowerFlowCost::new(PowerFunction::speed_scaling_only(1.0, 4.0, 10.0));
    let config = FmcfSolverConfig::default();
    // The solver's objective: the cost plus its penalty (weight 1e3) on
    // the load above the power function's capacity.
    let objective = |loads: &[f64]| -> f64 {
        let penalised = |&x: &f64| cost.cost(x) + 1e3 * (x - 10.0).max(0.0).powi(2);
        loads.iter().map(penalised).sum()
    };
    let mut rng = StdRng::seed_from_u64(0);
    let commodities: Vec<Commodity> = (0..12)
        .filter_map(|id| {
            let src = hosts[rng.gen_range(0..hosts.len())];
            let dst = hosts[rng.gen_range(0..hosts.len())];
            let demand = rng.gen_range(0.5..4.0);
            (src != dst).then_some(Commodity {
                id,
                src,
                dst,
                demand,
            })
        })
        .collect();
    let graph = topo.csr();
    let problem = FmcfProblem::with_graph(&graph, commodities);
    let solve = |config| {
        problem
            .solve_with(&cost, &config, &mut FmcfScratch::new())
            .unwrap()
    };
    let solution = solve(config);
    let long_run = FmcfSolverConfig {
        max_iterations: 20_000,
        tolerance: 0.0,
        ..config
    };
    let reference = objective(solve(long_run).total_loads());
    let reached = objective(solution.total_loads());
    let certified = reached * (1.0 - solution.relative_gap);
    assert!(solution.relative_gap > 0.0 && solution.relative_gap.is_finite());
    assert!(
        certified <= reference && reference <= reached * (1.0 + 1e-12),
        "certified {certified} <= reference {reference} <= reached {reached}"
    );
}

/// "Energies did not move", in executable form: on the benchmark's
/// `offline_dcfsr` instance shape the candidate sets Random-Schedule reads
/// off the relaxation's path mixtures equal — path for path, in order,
/// weight for weight — what the Raghavan–Tompson decomposition of each
/// interval's dense per-link flows and the merge by
/// `w_P(k) * |I_k| / (d_i - r_i)` give (the pre-mixture pipeline, kept
/// here as the reference).
#[test]
fn candidates_equal_the_decomposition_of_the_dense_view() {
    let topo = builders::fat_tree_with_capacity(8, 10.0);
    let flows = UniformWorkload::paper_defaults(60, 1)
        .generate(topo.hosts())
        .unwrap();
    let config = RandomScheduleConfig::default();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let relaxation = ctx.relax(&flows, &x2(), &config.fmcf).unwrap();
    let outcome = RandomSchedule::new(config)
        .run_with_relaxation(&topo.network, &flows, &x2(), &relaxation)
        .unwrap();

    let mut reference: Vec<Vec<(Path, f64)>> = vec![Vec::new(); flows.len()];
    for iv in &relaxation.intervals {
        for (c, &id) in iv.flow_ids.iter().enumerate() {
            let flow = flows.flow(id);
            let row = iv.solution.commodity_flows(c);
            for part in decompose_flow(&topo.network, flow.src, flow.dst, row, 1e-9) {
                let fraction = part.weight / flow.density();
                let merged = fraction * iv.interval.length() / flow.span_length();
                match reference[id].iter_mut().find(|(p, _)| *p == part.path) {
                    Some((_, weight)) => *weight += merged,
                    None => reference[id].push((part.path, merged)),
                }
            }
        }
    }
    for (id, (candidates, expected)) in outcome.candidates.iter().zip(&reference).enumerate() {
        let total: f64 = expected.iter().map(|(_, w)| w).sum();
        assert_eq!(candidates.len(), expected.len(), "flow {id}");
        for (candidate, (path, weight)) in candidates.iter().zip(expected) {
            assert_eq!(candidate.path, path, "flow {id}");
            assert!(
                (candidate.weight - weight / total).abs() <= 1e-12,
                "flow {id}: {} vs {}",
                candidate.weight,
                weight / total
            );
        }
    }
}

/// On a failure-free fat-tree every path `dcfsr` schedules is a hop-count
/// shortest path.
#[test]
fn dcfsr_routes_on_shortest_paths_only_on_the_failure_free_fat_tree() {
    let topo = builders::fat_tree_with_capacity(8, 10.0);
    let registry = AlgorithmRegistry::with_defaults();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    for seed in 1..=5u64 {
        let flows = UniformWorkload::paper_defaults(60, seed)
            .generate(topo.hosts())
            .unwrap();
        let mut dcfsr = registry.create("dcfsr").unwrap();
        dcfsr.set_seed(seed);
        let solution = dcfsr.solve(&mut ctx, &flows, &x2()).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        ctx.verify(schedule, &flows, &x2()).unwrap();
        for fs in schedule.flow_schedules() {
            let flow = flows.flow(fs.flow);
            let hops = ctx.graph().shortest_path(flow.src, flow.dst).unwrap().len();
            assert_eq!(
                fs.path.len(),
                hops,
                "seed {seed}: flow {} takes {} hops, the shortest path {hops}",
                fs.flow,
                fs.path.len()
            );
        }
    }
}

/// A flow whose density is below the old decomposition's absolute
/// threshold (a nearly delivered residual flow) used to come out of it
/// empty-handed and was then routed on the pristine network's shortest
/// path — across a link that is down in the context's graph, unnoticed by
/// `verify` because its rate sits under the verifier's tolerance. Every
/// candidate is now a path of the relaxation, which runs on the live
/// graph and keeps its thresholds relative to the demand: at volume 1e-9
/// and at 1e-13 alike the flow is routed on one of its fractional paths.
#[test]
fn a_tiny_flow_is_never_routed_across_a_down_link() {
    let topo = builders::fat_tree_with_capacity(4, 10.0);
    let hosts = topo.hosts();
    // The second link of the tiny flow's pristine shortest path.
    let pristine = topo.csr().shortest_path(hosts[1], hosts[14]).unwrap();
    let down = pristine.links()[1];
    assert_eq!(down, LinkId(1));

    for tiny in [1e-9, 1e-13] {
        let flows = FlowSet::from_tuples([
            (hosts[0], hosts[15], 0.0, 10.0, 10.0),
            (hosts[1], hosts[14], 0.0, 10.0, tiny),
        ])
        .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        assert!(ctx.apply_topology_event(TopologyEvent::LinkDown {
            time: 0.0,
            link: down,
        }));
        let mut dcfsr = AlgorithmRegistry::with_defaults().create("dcfsr").unwrap();
        let solution = dcfsr.solve(&mut ctx, &flows, &x2()).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        ctx.verify(schedule, &flows, &x2()).unwrap();
        for fs in schedule.flow_schedules() {
            assert_eq!(fs.path.source(), flows.flow(fs.flow).src);
            assert_eq!(fs.path.destination(), flows.flow(fs.flow).dst);
            for &link in fs.path.links() {
                assert!(
                    ctx.graph().is_link_up(link),
                    "volume {tiny}: flow {} is scheduled on {:?}, across the down link {link}",
                    fs.flow,
                    fs.path.links()
                );
            }
        }
    }
}
