//! Property-based tests (proptest) of the core invariants:
//!
//! * Theorem 4: Random-Schedule always meets every deadline.
//! * The fractional relaxation is a true lower bound for every scheme.
//! * Most-Critical-First schedules are always feasible and never cheaper
//!   than the relaxation.
//! * The audit and the analytic energy accounting agree.
//! * The power model's closed-form optimum (Lemma 3) minimises the power
//!   rate.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::{Flow, FlowSet};
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;
use proptest::prelude::*;

/// A random but always-valid flow set over the hosts of a k=4 fat-tree.
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

fn x2() -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, 1e9)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Theorem 4: every deadline is met by Random-Schedule, and its energy
    /// is at least the fractional lower bound.
    #[test]
    fn random_schedule_feasible_and_above_lb(flows in arb_flows(14), seed in 0u64..1000) {
        let topo = builders::fat_tree_with_capacity(4, 1e9);
        let power = x2();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut algo = Dcfsr::default();
        algo.set_seed(seed);
        let solution = algo.solve(&mut ctx, &flows, &power).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        ctx.verify(schedule, &flows, &power).unwrap();
        let energy = solution.total_energy().unwrap();
        let lb = solution.lower_bound.unwrap();
        prop_assert!(energy >= lb - 1e-6 * (1.0 + lb));

        let report = schedule.audit(ctx.graph(), &flows, &power);
        prop_assert_eq!(report.deadline_misses, 0);
    }

    /// Most-Critical-First with shortest-path routing is always feasible and
    /// never beats the fractional lower bound; the audit agrees with the
    /// analytic energy.
    #[test]
    fn sp_mcf_feasible_consistent_and_above_lb(flows in arb_flows(14)) {
        let topo = builders::fat_tree_with_capacity(4, 1e9);
        let power = x2();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path().solve(&mut ctx, &flows, &power).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        ctx.verify(schedule, &flows, &power).unwrap();

        let relaxation = ctx.relax(&flows, &power, &Default::default()).unwrap();
        let energy = solution.total_energy().unwrap();
        prop_assert!(energy >= relaxation.lower_bound - 1e-6 * (1.0 + relaxation.lower_bound));

        let report = schedule.audit(ctx.graph(), &flows, &power);
        prop_assert_eq!(report.deadline_misses, 0);
        prop_assert!((report.energy.total() - energy).abs() <= 1e-6 * (1.0 + energy));
    }

    /// Each flow in isolation needs at least |P_i| * mu * w_i * D_i^(alpha-1)
    /// energy (Lemma 2); the full schedule can only cost more.
    #[test]
    fn per_flow_isolation_bound_holds(flows in arb_flows(10)) {
        let topo = builders::fat_tree_with_capacity(4, 1e9);
        let power = x2();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path().solve(&mut ctx, &flows, &power).unwrap();
        let paths = ctx.route(&Routing::ShortestPath, &flows).unwrap();
        let isolation_bound: f64 = flows
            .iter()
            .map(|f| paths[f.id].len() as f64 * power.dynamic_power(f.density()) * f.span_length())
            .sum();
        prop_assert!(solution.total_energy().unwrap() >= isolation_bound - 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// Lemma 3: R_opt minimises the power rate f(x)/x over (0, infinity).
    #[test]
    fn optimal_rate_minimises_power_rate(
        sigma in 0.1f64..100.0,
        mu in 0.1f64..10.0,
        alpha in 1.1f64..4.0,
        probe in 0.01f64..50.0,
    ) {
        let f = PowerFunction::new(sigma, mu, alpha, 1e9).unwrap();
        let r = f.optimal_rate();
        prop_assert!(r > 0.0);
        prop_assert!(f.power_rate(probe) + 1e-9 >= f.power_rate(r));
    }

    /// Energy for a fixed volume is monotone non-increasing in the allowed
    /// duration (Lemma 2's slower-is-cheaper property, sigma = 0).
    #[test]
    fn slower_transmission_never_costs_more(
        volume in 0.1f64..50.0,
        duration in 0.1f64..20.0,
        stretch in 1.0f64..10.0,
        alpha in 1.1f64..4.0,
    ) {
        let f = PowerFunction::speed_scaling_only(1.0, alpha, 1e12);
        let fast = f.energy_for_volume(volume, duration);
        let slow = f.energy_for_volume(volume, duration * stretch);
        prop_assert!(slow <= fast + 1e-9 * fast.abs());
    }

    /// The flow-set interval machinery always partitions the horizon.
    #[test]
    fn intervals_partition_the_horizon(flows in arb_flows(12)) {
        let (t0, t1) = flows.horizon();
        let intervals = flows.intervals();
        let total: f64 = intervals.iter().map(|iv| iv.length()).sum();
        prop_assert!((total - (t1 - t0)).abs() < 1e-9 * (1.0 + t1 - t0));
        // Consecutive intervals are contiguous.
        for w in intervals.windows(2) {
            prop_assert!((w[0].end - w[1].start).abs() < 1e-12);
        }
        prop_assert!(flows.lambda() >= 1.0 - 1e-12);
    }
}
