//! Integration test of the unified `SolverContext` + `Algorithm` API: the
//! name table's full round trip (name → algorithm → name), and every
//! built-in algorithm solving the same fat-tree k=4 workload on one
//! shared context, with every produced schedule passing
//! `Schedule::verify_on`.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

fn x2(capacity: f64) -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
}

/// Every name of the table builds an algorithm of that name, in the
/// documented order, and unknown names produce the typed error.
#[test]
fn registry_round_trips_every_name() {
    assert_eq!(
        AlgorithmRegistry::NAMES,
        [
            "dcfsr",
            "sp-mcf",
            "ecmp",
            "least-loaded",
            "consolidate",
            "greedy",
            "lb",
            "exact"
        ]
    );
    let registry = AlgorithmRegistry::with_defaults();
    for name in AlgorithmRegistry::NAMES {
        let algorithm = registry.create(name).expect("listed names resolve");
        assert_eq!(
            algorithm.name(),
            name,
            "round trip name -> algorithm -> name"
        );
    }
    assert_eq!(
        registry.create("does-not-exist").unwrap_err(),
        SolveError::UnknownAlgorithm {
            name: "does-not-exist".to_string()
        }
    );
}

/// Every built-in algorithm runs on a fat-tree k=4 workload through one
/// shared context; every schedule verifies on the CSR view and respects
/// the fractional lower bound.
#[test]
fn every_registered_algorithm_solves_a_fat_tree_workload() {
    // The paper's Fig. 2 setup: builder-default link capacity 10, matched
    // by the power function, so even the full-rate greedy baseline
    // verifies (this seed's five flows never overlap in time).
    let topo = builders::fat_tree(4);
    let power = x2(10.0);
    // Small enough that even exhaustive enumeration (`exact`) fits its
    // default assignment budget.
    let flows = UniformWorkload::paper_defaults(5, 21)
        .generate(topo.hosts())
        .unwrap();
    let graph = topo.csr();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let registry = AlgorithmRegistry::with_defaults();

    let mut lower_bound = None;
    let mut energies = Vec::new();
    for name in AlgorithmRegistry::NAMES {
        let mut algorithm = registry.create(name).unwrap();
        algorithm.set_seed(21);
        let solution = algorithm
            .solve(&mut ctx, &flows, &power)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(solution.algorithm(), name);

        match &solution.schedule {
            Some(schedule) => {
                // The satellite contract: the schedule passes verify_on.
                schedule
                    .verify_on(&graph, &flows, &power)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let report = schedule.audit(&graph, &flows, &power);
                assert_eq!(report.deadline_misses, 0, "{name}");
                energies.push((name, solution.total_energy().unwrap()));
            }
            None => {
                assert_eq!(name, "lb", "only the relaxation is bound-only");
                lower_bound = solution.lower_bound;
            }
        }
    }

    let lb = lower_bound.expect("lb ran");
    assert!(lb > 0.0);
    for (name, energy) in energies {
        assert!(
            energy >= lb - 1e-6,
            "{name}: energy {energy} below the fractional lower bound {lb}"
        );
    }
}

/// The context is a long-lived session: repeated solves on the same warm
/// context give identical results to a fresh context per solve.
#[test]
fn warm_context_reuse_is_deterministic() {
    let topo = builders::fat_tree(4);
    let power = x2(10.0);
    let registry = AlgorithmRegistry::with_defaults();
    let mut warm = SolverContext::from_network(&topo.network).unwrap();
    for seed in [1u64, 2, 3] {
        let flows = UniformWorkload::paper_defaults(15, seed)
            .generate(topo.hosts())
            .unwrap();
        for name in ["dcfsr", "sp-mcf", "ecmp"] {
            let mut on_warm = registry.create(name).unwrap();
            on_warm.set_seed(seed);
            let warm_solution = on_warm.solve(&mut warm, &flows, &power).unwrap();

            let mut fresh_ctx = SolverContext::from_network(&topo.network).unwrap();
            let mut on_fresh = registry.create(name).unwrap();
            on_fresh.set_seed(seed);
            let fresh_solution = on_fresh.solve(&mut fresh_ctx, &flows, &power).unwrap();

            assert_eq!(
                warm_solution.schedule, fresh_solution.schedule,
                "{name} seed {seed}: warm context changed the result"
            );
            assert_eq!(warm_solution.lower_bound, fresh_solution.lower_bound);
        }
    }
}
