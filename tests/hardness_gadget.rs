//! Integration tests on the adversarial parallel-link gadgets from the
//! paper's hardness proofs (Theorems 2 and 3).
//!
//! These instances are where routing decisions matter the most: all flows
//! share the same endpoints and one unit of time, so the only question is
//! how to pack them onto the parallel links. The tests check that the
//! algorithms remain correct (deadlines met, lower bound respected) and
//! that the qualitative behaviour from the reduction holds: concentrating
//! everything on one link (shortest-path routing) costs far more than
//! spreading the load, and the spread solution approaches the analytic
//! optimum `m * alpha * mu * B^alpha` when `R_opt = B`.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::hardness;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

#[test]
fn three_partition_gadget_spreads_load_close_to_the_analytic_optimum() {
    // m = 4 triples, each summing to B = 9; k = 8 parallel links.
    let m = 4;
    let b = 9.0_f64;
    let alpha = 2.0;
    let mu = 1.0;
    // sigma chosen so that R_opt = B (the reduction's setting).
    let sigma = mu * (alpha - 1.0) * b.powf(alpha);
    let power = PowerFunction::new(sigma, mu, alpha, 2.0 * b).unwrap();

    let topo = builders::parallel(8, 2.0 * b);
    let values = hardness::satisfiable_three_partition(m, b);
    let flows = hardness::three_partition_flows(topo.source(), topo.sink(), &values).unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let rs = Dcfsr::new(RandomScheduleConfig {
        max_rounding_attempts: 50,
        ..Default::default()
    })
    .solve(&mut ctx, &flows, &power)
    .unwrap();
    ctx.verify(rs.schedule.as_ref().unwrap(), &flows, &power)
        .unwrap();

    // The analytic optimum of the reduction: m links at rate B for one unit
    // of time, i.e. m * alpha * mu * B^alpha.
    let optimum = m as f64 * alpha * mu * b.powf(alpha);
    let rs_energy = rs.total_energy().unwrap();
    assert!(
        rs_energy >= optimum - 1e-6,
        "no schedule can beat the reduction's optimum: {rs_energy} < {optimum}"
    );
    // Randomized rounding will not find the perfect partition, but it must
    // stay within a small factor of it on this small instance.
    assert!(
        rs_energy <= 3.0 * optimum,
        "Random-Schedule energy {rs_energy} is unreasonably far from the optimum {optimum}"
    );

    // Shortest-path routing concentrates all 3m flows on one link; its
    // dynamic energy alone is (mB)^alpha versus the spread m * B^alpha.
    let sp = RoutedMcf::shortest_path()
        .solve(&mut ctx, &flows, &power)
        .unwrap();
    let sp_energy = sp.total_energy().unwrap();
    assert!(
        sp_energy > rs_energy,
        "concentrating all flows on one link ({sp_energy}) must cost more than spreading ({rs_energy})"
    );
}

#[test]
fn partition_gadget_deadlines_hold_even_at_capacity() {
    // Theorem 3 setting: capacity C = B/2, flows summing to B, one unit of
    // time. A feasible schedule must use at least two links.
    let b = 12.0_f64;
    let power = PowerFunction::speed_scaling_only(1.0, 3.0, b / 2.0);
    let topo = builders::parallel(4, b / 2.0);
    let values = [3.0, 3.0, 2.0, 2.0, 1.0, 1.0];
    assert_eq!(values.iter().sum::<f64>(), b);
    let flows = hardness::partition_flows(topo.source(), topo.sink(), &values).unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let rs = Dcfsr::new(RandomScheduleConfig {
        max_rounding_attempts: 100,
        ..Default::default()
    })
    .solve(&mut ctx, &flows, &power)
    .unwrap();
    let report = rs
        .schedule
        .as_ref()
        .unwrap()
        .audit(ctx.graph(), &flows, &power);
    assert_eq!(report.deadline_misses, 0);
    // At least two distinct parallel links must carry traffic.
    assert!(report.links.len() >= 2);
    assert!(report.energy.total() >= rs.lower_bound.unwrap() - 1e-6);
}

#[test]
fn lower_bound_matches_perfect_split_on_the_gadget() {
    // With sigma = 0 and k parallel links, the fractional optimum splits the
    // total demand evenly: LB = k * (D_total/k)^alpha over one unit of time.
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
    let topo = builders::parallel(4, 100.0);
    let values = [4.0, 4.0, 4.0, 4.0];
    let flows = hardness::partition_flows(topo.source(), topo.sink(), &values).unwrap();

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let rs = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
    let lb = rs.lower_bound.unwrap();
    let expected = 4.0 * (16.0_f64 / 4.0_f64).powf(2.0);
    assert!(
        (lb - expected).abs() < 0.05 * expected,
        "LB {lb} should approach the even split cost {expected}"
    );
    // The perfect rounding assigns one flow per link and matches the bound.
    assert!(rs.total_energy().unwrap() >= lb - 1e-6);
}
