//! Integration test: the paper's Example 1 end to end through the public
//! API of the umbrella crate (routing, scheduling, the audit and energy all
//! agree with the closed form).

use deadline_dcn::core::{most_critical_first, Algorithm, RoutedMcf, Routing, SolverContext};
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn example1_closed_form_through_public_api() {
    let topo = builders::line_with_capacity(3, 1e9);
    let (a, b, c) = (topo.hosts()[0], topo.hosts()[1], topo.hosts()[2]);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
    let flows = FlowSet::from_tuples([(a, c, 2.0, 4.0, 6.0), (a, b, 1.0, 3.0, 8.0)]).unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let solution = RoutedMcf::shortest_path()
        .solve(&mut ctx, &flows, &power)
        .unwrap();
    let schedule = solution.schedule.as_ref().unwrap();
    ctx.verify(schedule, &flows, &power).unwrap();

    let s2 = (8.0 + 6.0 * 2f64.sqrt()) / 3.0;
    let s1 = s2 / 2f64.sqrt();
    assert!(close(
        schedule.flow_schedule(0).unwrap().profile.max_rate(),
        s1
    ));
    assert!(close(
        schedule.flow_schedule(1).unwrap().profile.max_rate(),
        s2
    ));

    let expected_energy = 2.0 * 6.0 * s1 + 8.0 * s2;
    assert!(close(schedule.energy(&power).total(), expected_energy));

    // The audit measures the same energy and reports zero misses.
    let report = schedule.audit(ctx.graph(), &flows, &power);
    assert!(report.all_good());
    assert!(close(report.energy.total(), expected_energy));
}

#[test]
fn example1_sp_mcf_is_the_same_since_routes_are_forced() {
    // On a line there is a single route per flow, so the registry's
    // `sp-mcf` algorithm equals the schedule computed from explicit
    // shortest paths through the DCFS building block.
    let topo = builders::line_with_capacity(3, 1e9);
    let (a, b, c) = (topo.hosts()[0], topo.hosts()[1], topo.hosts()[2]);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
    let flows = FlowSet::from_tuples([(a, c, 2.0, 4.0, 6.0), (a, b, 1.0, 3.0, 8.0)]).unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let via_algorithm = RoutedMcf::shortest_path()
        .solve(&mut ctx, &flows, &power)
        .unwrap();
    let paths = Routing::ShortestPath
        .compute_on(ctx.graph(), &flows)
        .unwrap();
    let direct = most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
    assert!(close(
        via_algorithm.total_energy().unwrap(),
        direct.energy(&power).total()
    ));
}

#[test]
fn example1_energy_scales_with_alpha() {
    // Re-running Example 1 with f(x) = x^4 uses the virtual weights
    // w' = w * |P|^(1/4); the optimum changes but remains feasible and at
    // least as expensive as alpha = 2 for rates above 1.
    let topo = builders::line_with_capacity(3, 1e9);
    let (a, b, c) = (topo.hosts()[0], topo.hosts()[1], topo.hosts()[2]);
    let flows = FlowSet::from_tuples([(a, c, 2.0, 4.0, 6.0), (a, b, 1.0, 3.0, 8.0)]).unwrap();
    let paths = Routing::ShortestPath
        .compute_on(&topo.csr(), &flows)
        .unwrap();

    let x2 = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
    let x4 = PowerFunction::speed_scaling_only(1.0, 4.0, 1e9);
    let e2 = most_critical_first(&topo.network, &flows, &paths, &x2)
        .unwrap()
        .energy(&x2)
        .total();
    let e4 = most_critical_first(&topo.network, &flows, &paths, &x4)
        .unwrap()
        .energy(&x4)
        .total();
    assert!(e4 > e2);
}
