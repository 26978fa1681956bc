//! What starting Frank–Wolfe at the ECMP split means end to end, on the
//! paper's own setting (fat-tree, `P(x) = x^2`, the Fig. 2 workload):
//!
//! * the relaxation of a failure-free fat-tree needs one iteration per
//!   interval — pinned as a deterministic counter, not a wall-clock;
//! * Random-Schedule then routes on hop-count shortest paths only (the
//!   single-path start left a little flow on detours over unloaded links,
//!   whose marginal cost is zero);
//! * and the rounding's last-resort path comes from the context's live
//!   graph, never across a link that is down.

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::{builders, LinkId, TopologyEvent};

fn x2() -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, 10.0)
}

/// The regression gate of the one counter the ECMP start moves: on the
/// benchmark's `offline_dcfsr` instance the relaxation spends at most two
/// Frank–Wolfe iterations per non-empty interval (one, in fact; 2933 over
/// 119 intervals with the single-path start) and every interval converges.
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
            let hops = topo
                .network
                .shortest_path(flow.src, flow.dst)
                .unwrap()
                .len();
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

/// A flow whose density is below the decomposition's absolute threshold (a
/// nearly delivered residual flow) used to come out of the decomposition
/// empty-handed and was then routed on the pristine network's shortest
/// path — across a link that is down in the context's graph, unnoticed by
/// `verify` because its rate sits under the verifier's tolerance. At
/// volume 1e-9 the relative threshold now finds the flow's fractional
/// paths; at 1e-13 the relaxation itself rounds the flow away and the last
/// resort is a shortest path of the live graph.
#[test]
fn a_tiny_flow_is_never_routed_across_a_down_link() {
    let topo = builders::fat_tree_with_capacity(4, 10.0);
    let hosts = topo.hosts();
    // The second link of the tiny flow's pristine shortest path.
    let pristine = topo.network.shortest_path(hosts[1], hosts[14]).unwrap();
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
