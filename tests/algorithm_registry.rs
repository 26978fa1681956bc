//! Integration test of the unified `SolverContext` + `Algorithm` API: the
//! name table's full round trip (name → algorithm → name), and every
//! built-in algorithm solving the same fat-tree k=4 workload on one
//! shared context, with every produced schedule passing
//! `Schedule::verify_on`; and `exact` pinned to its bits on a fixed corpus.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::flow::FlowSet;
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

/// The FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `word`'s little-endian bytes into the FNV-1a `hash`.
fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `exact` keeps, on a fixed corpus, the energy bits, the number of
/// assignments it tried and the path it chose for every flow, as they
/// read when the enumeration was a free function beside `ExactBrute`.
/// The corpus: three identical flows on `parallel(3)`, the `line(3)`
/// shared-hop instance (A→C and A→B on `[0, 1]`, volume 1, where `exact`
/// costs `3 + 2√2`), and fat-tree k = 4 with 4, 5 and 6 flows on seeds
/// 1–10. No artifact runs `exact`, so this is its one pin.
#[test]
fn exact_keeps_its_bits_on_a_fixed_corpus() {
    let parallel = builders::parallel(3, 100.0);
    let parallel_flows =
        FlowSet::from_tuples((0..3).map(|_| (parallel.source(), parallel.sink(), 0.0, 2.0, 4.0)))
            .unwrap();
    let line = builders::line(3);
    let [a, b, c] = [line.hosts()[0], line.hosts()[1], line.hosts()[2]];
    let line_flows = FlowSet::from_tuples([(a, c, 0.0, 1.0, 1.0), (a, b, 0.0, 1.0, 1.0)]).unwrap();
    let fat_tree = builders::fat_tree(4);
    let mut corpus = vec![
        (&parallel, parallel_flows, x2(100.0)),
        (&line, line_flows, x2(10.0)),
    ];
    for seed in 1..=10 {
        for n in 4..=6 {
            let flows = UniformWorkload::paper_defaults(n, seed)
                .generate(fat_tree.hosts())
                .unwrap();
            corpus.push((&fat_tree, flows, x2(10.0)));
        }
    }

    let registry = AlgorithmRegistry::with_defaults();
    let mut hash = FNV_BASIS;
    let mut energies = Vec::new();
    for (topo, flows, power) in &corpus {
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = registry
            .create("exact")
            .unwrap()
            .solve(&mut ctx, flows, power)
            .unwrap_or_else(|e| panic!("{}: {e}", topo.name));
        let energy = solution.total_energy().unwrap();
        energies.push(energy);
        fnv(&mut hash, energy.to_bits());
        fnv(
            &mut hash,
            solution.diagnostics.assignments_tried.unwrap() as u64,
        );
        for flow in solution.schedule.as_ref().unwrap().flow_schedules() {
            fnv(&mut hash, flow.flow as u64);
            for link in flow.path.links() {
                fnv(&mut hash, link.index() as u64);
            }
        }
    }
    assert_eq!(energies.len(), 32);
    assert!(
        (energies[0] - 24.0).abs() < 1e-9,
        "parallel(3): {}",
        energies[0]
    );
    let shared_hop = 3.0 + 2.0 * 2f64.sqrt();
    assert!(
        (energies[1] - shared_hop).abs() < 1e-9,
        "line(3): {}",
        energies[1]
    );
    assert_eq!(
        hash, 0x8d6b_4785_9ae1_8b0a,
        "exact's energy, assignments or paths moved"
    );
}
