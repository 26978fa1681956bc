//! End-to-end integration tests: every topology builder x every workload
//! generator, pushed through one `SolverContext` per topology, the
//! registry's schedulers and the audit of their schedules.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::{PartitionAggregateWorkload, ShuffleWorkload, UniformWorkload};
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders::{self, BuiltTopology};

fn x2(capacity: f64) -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
}

fn topologies() -> Vec<BuiltTopology> {
    vec![
        builders::fat_tree(4),
        builders::leaf_spine(4, 2, 6),
        builders::bcube(3, 1),
        builders::dumbbell(6, 10.0),
    ]
}

/// SP+MCF and Random-Schedule both meet all deadlines on every topology,
/// and their (audited) energy is never below the fractional lower bound.
#[test]
fn uniform_workload_all_topologies() {
    let power = x2(1e9);
    for topo in topologies() {
        let flows = UniformWorkload::paper_defaults(25, 11)
            .generate(topo.hosts())
            .unwrap();

        let mut ctx = SolverContext::from_network(&topo.network)
            .unwrap_or_else(|e| panic!("{}: {e}", topo.name));
        let rs = Dcfsr::default()
            .solve(&mut ctx, &flows, &power)
            .unwrap_or_else(|e| panic!("{}: {e}", topo.name));
        let sp = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap_or_else(|e| panic!("{}: {e}", topo.name));

        let rs_schedule = rs.schedule.as_ref().unwrap();
        let sp_schedule = sp.schedule.as_ref().unwrap();
        ctx.verify(rs_schedule, &flows, &power)
            .unwrap_or_else(|e| panic!("{} RS: {e}", topo.name));
        ctx.verify(sp_schedule, &flows, &power)
            .unwrap_or_else(|e| panic!("{} SP+MCF: {e}", topo.name));

        let rs_report = rs_schedule.audit(ctx.graph(), &flows, &power);
        let sp_report = sp_schedule.audit(ctx.graph(), &flows, &power);
        assert_eq!(rs_report.deadline_misses, 0, "{}", topo.name);
        assert_eq!(sp_report.deadline_misses, 0, "{}", topo.name);
        let lb = rs.lower_bound.unwrap();
        assert!(rs_report.energy.total() >= lb - 1e-6, "{}", topo.name);
        assert!(sp_report.energy.total() >= lb - 1e-6, "{}", topo.name);
    }
}

/// The application-shaped workloads run end to end on the fabric they are
/// meant for.
#[test]
fn application_workloads_end_to_end() {
    let power = x2(1e9);

    let leaf_spine = builders::leaf_spine(6, 3, 6);
    let search = PartitionAggregateWorkload {
        requests: 12,
        workers_per_request: 8,
        ..Default::default()
    }
    .generate(leaf_spine.hosts())
    .unwrap();

    let fat_tree = builders::fat_tree(4);
    let shuffle = ShuffleWorkload {
        mappers: 5,
        reducers: 5,
        volume_per_pair: 3.0,
        start: 0.0,
        deadline: 40.0,
    }
    .generate(fat_tree.hosts())
    .unwrap();

    for (topo, flows) in [(&leaf_spine, &search), (&fat_tree, &shuffle)] {
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let rs = Dcfsr::default().solve(&mut ctx, flows, &power).unwrap();
        ctx.verify(rs.schedule.as_ref().unwrap(), flows, &power)
            .unwrap();
        let sp = RoutedMcf::shortest_path()
            .solve(&mut ctx, flows, &power)
            .unwrap();
        ctx.verify(sp.schedule.as_ref().unwrap(), flows, &power)
            .unwrap();
        assert!(sp.total_energy().unwrap() >= rs.lower_bound.unwrap() - 1e-6);
    }
}

/// Every DCFS-based scheduler of the registry produces a feasible schedule
/// on the same context; the analytic energy and the audited energy always
/// agree.
#[test]
fn registry_schedulers_feasible_and_energy_consistent() {
    let topo = builders::fat_tree(4);
    let power = x2(1e9);
    let flows = UniformWorkload::paper_defaults(30, 3)
        .generate(topo.hosts())
        .unwrap();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let registry = AlgorithmRegistry::with_defaults();

    for name in ["sp-mcf", "ecmp", "least-loaded", "consolidate"] {
        let mut algo = registry.create(name).unwrap();
        algo.set_seed(5);
        let solution = algo.solve(&mut ctx, &flows, &power).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        ctx.verify(schedule, &flows, &power)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = schedule.audit(ctx.graph(), &flows, &power);
        let analytic = solution.total_energy().unwrap();
        assert!(
            (report.energy.total() - analytic).abs() <= 1e-6 * analytic,
            "{name}: audited {} vs analytic {analytic}",
            report.energy.total()
        );
    }
}

/// With idle power included (sigma > 0), Random-Schedule tends to use fewer
/// active links than shortest-path routing spread, and both energies remain
/// above the lower bound.
#[test]
fn idle_power_accounting_is_consistent() {
    let topo = builders::fat_tree(4);
    let power = PowerFunction::new(2.0, 1.0, 2.0, 1e9).unwrap();
    let flows = UniformWorkload::paper_defaults(30, 17)
        .generate(topo.hosts())
        .unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let rs = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
    let sp = RoutedMcf::shortest_path()
        .solve(&mut ctx, &flows, &power)
        .unwrap();

    let rs_energy = rs.energy.unwrap();
    let sp_energy = sp.energy.unwrap();
    let lb = rs.lower_bound.unwrap();
    assert!(rs_energy.idle > 0.0);
    assert!(sp_energy.idle > 0.0);
    assert!(rs_energy.total() >= lb - 1e-6);
    assert!(sp_energy.total() >= lb - 1e-6);
    // The idle share equals sigma * horizon * active links.
    let (t0, t1) = flows.horizon();
    assert!((rs_energy.idle - 2.0 * (t1 - t0) * rs_energy.active_links as f64).abs() < 1e-6);
}

/// A single flow between adjacent hosts: every scheme degenerates to the
/// same, obviously optimal answer.
#[test]
fn degenerate_single_flow_instance() {
    let topo = builders::line_with_capacity(2, 1e9);
    let power = x2(1e9);
    let flows = FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[1], 0.0, 5.0, 10.0)]).unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let rs = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
    let sp = RoutedMcf::shortest_path()
        .solve(&mut ctx, &flows, &power)
        .unwrap();
    // Density 2 on one link for 5 time units: energy 2^2 * 5 = 20.
    assert!((sp.total_energy().unwrap() - 20.0).abs() < 1e-6);
    assert!((rs.total_energy().unwrap() - 20.0).abs() < 1e-6);
    assert!((rs.lower_bound.unwrap() - 20.0).abs() < 1e-3);
}
