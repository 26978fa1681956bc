//! Equivalence pin of the interval-parallel offline solving path: solving
//! with `ParallelConfig { threads: N }` must be **bit-identical** to the
//! sequential path for every N — same schedules, same energies, same lower
//! bounds, same Frank–Wolfe iteration counts. Parallelism may only change
//! wall-clock, never a single bit of any result (the determinism contract
//! documented in README.md and EXPERIMENTS.md).
//!
//! The suite covers every registry algorithm on both benchmark topology
//! families, the relaxation layer directly (where the per-worker scratch
//! arenas live), the bench harness entry points (where `--solver-threads`
//! lands), and a proptest sweep over random flow sets.

use dcn_bench::{harness_registry, run_flow_set_algorithms_threads};
use deadline_dcn::core::{interval_relaxation_threads, prelude::*};
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::flow::{Flow, FlowSet};
use deadline_dcn::power::PowerFunction;
use deadline_dcn::solver::fmcf::FmcfSolverConfig;
use deadline_dcn::topology::builders::{self, BuiltTopology};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn topologies() -> Vec<BuiltTopology> {
    vec![builders::fat_tree(4), builders::leaf_spine(4, 2, 6)]
}

fn x2(capacity: f64) -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
}

/// Runs every registry algorithm on one instance with the given pool
/// width, returning `(name, solution)` pairs in registry order.
fn solve_all(
    topo: &BuiltTopology,
    flows: &FlowSet,
    power: &PowerFunction,
    seed: u64,
    threads: usize,
) -> Vec<(String, Solution)> {
    let registry = AlgorithmRegistry::with_defaults();
    let mut ctx = SolverContext::from_network(&topo.network)
        .unwrap()
        .with_parallelism(ParallelConfig::with_threads(threads));
    registry
        .names()
        .iter()
        .map(|name| {
            let mut algorithm = registry.create(name).unwrap();
            algorithm.set_seed(seed);
            let solution = algorithm
                .solve(&mut ctx, flows, power)
                .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            (name.to_string(), solution)
        })
        .collect()
}

fn assert_solutions_identical(
    sequential: &[(String, Solution)],
    parallel: &[(String, Solution)],
    context: &str,
) {
    assert_eq!(sequential.len(), parallel.len());
    for ((name, seq), (pname, par)) in sequential.iter().zip(parallel) {
        assert_eq!(name, pname);
        assert_eq!(
            seq.schedule, par.schedule,
            "{context}: {name} schedules diverge"
        );
        // Bit-identical energies and bounds, not approximately equal.
        assert_eq!(
            seq.total_energy().map(f64::to_bits),
            par.total_energy().map(f64::to_bits),
            "{context}: {name} energies diverge"
        );
        assert_eq!(
            seq.lower_bound.map(f64::to_bits),
            par.lower_bound.map(f64::to_bits),
            "{context}: {name} lower bounds diverge"
        );
        assert_eq!(
            seq.diagnostics, par.diagnostics,
            "{context}: {name} diagnostics diverge"
        );
    }
}

/// Every registry algorithm — including `exact`, whose enumeration is
/// fanned over the pool — is bit-identical at any pool width, on both
/// topology families.
#[test]
fn every_algorithm_is_thread_count_invariant() {
    // 5 flows keep `exact` inside its default enumeration budget.
    let power = x2(10.0);
    for topo in topologies() {
        for seed in [7u64, 21] {
            let flows = UniformWorkload::paper_defaults(5, seed)
                .generate(topo.hosts())
                .unwrap();
            let sequential = solve_all(&topo, &flows, &power, seed, 1);
            for threads in THREAD_COUNTS {
                let parallel = solve_all(&topo, &flows, &power, seed, threads);
                assert_solutions_identical(
                    &sequential,
                    &parallel,
                    &format!("{} seed {seed} threads {threads}", topo.name),
                );
            }
        }
    }
}

/// The relaxation layer itself: per-interval Frank–Wolfe solutions and
/// iteration counts are bit-identical at any pool width, and the lower
/// bound — a sum over intervals in index order — has the same bits.
#[test]
fn interval_relaxation_is_thread_count_invariant() {
    let power = x2(10.0);
    let config = FmcfSolverConfig::default();
    for topo in topologies() {
        let flows = UniformWorkload::paper_defaults(24, 11)
            .generate(topo.hosts())
            .unwrap();
        let sequential =
            interval_relaxation_threads(&topo.csr(), &flows, &power, &config, 1).unwrap();
        assert!(sequential.intervals.len() > 1, "need a real fan-out");
        for threads in THREAD_COUNTS {
            let parallel =
                interval_relaxation_threads(&topo.csr(), &flows, &power, &config, threads).unwrap();
            assert_eq!(
                sequential.lower_bound.to_bits(),
                parallel.lower_bound.to_bits(),
                "{} threads {threads}: LB bits diverge",
                topo.name
            );
            assert_eq!(sequential.intervals.len(), parallel.intervals.len());
            for (k, (seq, par)) in sequential
                .intervals
                .iter()
                .zip(&parallel.intervals)
                .enumerate()
            {
                assert_eq!(seq.interval, par.interval);
                assert_eq!(seq.flow_ids, par.flow_ids);
                // FmcfSolution equality covers the path mixtures (by
                // content: every worker fills its own split cache), loads,
                // convergence, the gap *and* the iteration counter: the
                // parallel path must run
                // Frank–Wolfe through the exact same trajectory.
                assert_eq!(
                    seq.solution, par.solution,
                    "{} threads {threads}: interval {k} solution diverges",
                    topo.name
                );
                assert_eq!(seq.solution.iterations, par.solution.iterations);
                assert_eq!(seq.cost_rate, par.cost_rate);
            }
        }
    }
}

/// The bench-harness entry point `--solver-threads` lands in: instance
/// results are identical at any width, and nesting under the instance
/// pool (`--threads`) composes — inner pools run inline on pool workers.
#[test]
fn bench_harness_results_are_solver_thread_invariant() {
    let topo = builders::fat_tree(4);
    let power = x2(10.0);
    let registry = harness_registry();
    let algorithms: Vec<String> = ["dcfsr", "sp-mcf", "greedy"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let flows = UniformWorkload::paper_defaults(12, 5)
        .generate(topo.hosts())
        .unwrap();
    let sequential =
        run_flow_set_algorithms_threads(&topo, &flows, &power, 5, &algorithms, &registry, 1);
    for threads in THREAD_COUNTS {
        let parallel = run_flow_set_algorithms_threads(
            &topo,
            &flows,
            &power,
            5,
            &algorithms,
            &registry,
            threads,
        );
        assert_eq!(
            sequential.lower_bound.to_bits(),
            parallel.lower_bound.to_bits()
        );
        assert_eq!(sequential.rs_energy.to_bits(), parallel.rs_energy.to_bits());
        assert_eq!(sequential.sp_energy.to_bits(), parallel.sp_energy.to_bits());
        assert_eq!(sequential.extra_energies, parallel.extra_energies);
        assert_eq!(sequential.rs_sim, parallel.rs_sim);
        assert_eq!(sequential.sp_sim, parallel.sp_sim);
    }

    // Composition: solving instances on an outer pool while each instance
    // requests an inner interval pool must not change a bit either (the
    // nested pools run inline on the outer pool's workers).
    let outer: Vec<_> = dcn_bench::runner::run_indexed(4, 4, |i| {
        run_flow_set_algorithms_threads(
            &topo,
            &flows,
            &power,
            5 + i as u64,
            &algorithms,
            &registry,
            4,
        )
        .rs_energy
        .to_bits()
    });
    let inline: Vec<_> = (0..4)
        .map(|i| {
            run_flow_set_algorithms_threads(
                &topo,
                &flows,
                &power,
                5 + i as u64,
                &algorithms,
                &registry,
                1,
            )
            .rs_energy
            .to_bits()
        })
        .collect();
    assert_eq!(outer, inline, "nested pools must not change results");
}

/// A random but always-valid flow set over the hosts of a k=4 fat-tree
/// (same shape as `properties.rs`).
fn arb_flows(max_flows: usize) -> impl Strategy<Value = FlowSet> {
    let host_count = 16usize; // fat_tree(4)
    prop::collection::vec(
        (
            0..host_count,
            0..host_count,
            0.0f64..80.0,
            1.0f64..20.0,
            0.5f64..20.0,
        ),
        1..max_flows,
    )
    .prop_map(move |raw| {
        let topo = builders::fat_tree_with_capacity(4, 1e9);
        let hosts = topo.hosts().to_vec();
        let flows: Vec<Flow> = raw
            .into_iter()
            .enumerate()
            .map(|(id, (s, d, release, span, volume))| {
                let src = hosts[s];
                let dst = if s == d {
                    hosts[(d + 1) % host_count]
                } else {
                    hosts[d]
                };
                Flow::new(id, src, dst, release, release + span, volume)
                    .expect("valid by construction")
            })
            .collect();
        FlowSet::from_flows(flows).expect("dense ids by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Random workloads: the full DCFSR pipeline (relax → decompose →
    /// round) is bit-identical between the sequential path and every pool
    /// width, seeds and all.
    #[test]
    fn dcfsr_is_thread_count_invariant_on_random_workloads(
        flows in arb_flows(20),
        seed in 0u64..1000,
    ) {
        let topo = builders::fat_tree_with_capacity(4, 1e9);
        let power = x2(1e9);
        let solve = |threads: usize| {
            let mut ctx = SolverContext::from_network(&topo.network)
                .unwrap()
                .with_parallelism(ParallelConfig::with_threads(threads));
            let mut algo = Dcfsr::default();
            algo.set_seed(seed);
            algo.solve(&mut ctx, &flows, &power).unwrap()
        };
        let sequential = solve(1);
        for threads in THREAD_COUNTS {
            let parallel = solve(threads);
            prop_assert_eq!(&sequential.schedule, &parallel.schedule);
            prop_assert_eq!(
                sequential.total_energy().map(f64::to_bits),
                parallel.total_energy().map(f64::to_bits)
            );
            prop_assert_eq!(
                sequential.lower_bound.map(f64::to_bits),
                parallel.lower_bound.map(f64::to_bits)
            );
            prop_assert_eq!(&sequential.diagnostics, &parallel.diagnostics);
        }
    }
}
