//! The per-interval fractional relaxation of DCFSR and the lower bound it
//! yields.
//!
//! Random-Schedule (paper Section V-A) relaxes DCFSR in three ways: flows
//! are served exactly at their densities, flows may split over multiple
//! paths, and links can be switched on and off freely at any moment. Under
//! this relaxation the horizon decomposes into the intervals `I_k` between
//! consecutive release times / deadlines, and the traffic inside each
//! interval is constant — so each interval is an independent fractional
//! multi-commodity flow (F-MCF) problem with convex link costs, solved here
//! with the Frank–Wolfe solver of [`dcn_solver::fmcf`]. Each interval's
//! solution holds every active flow's density as weighted paths
//! ([`FmcfSolution::split`], [`FmcfSolution::steps`]) — the per-interval
//! candidate sets
//! Random-Schedule merges and rounds ([`crate::dcfsr`]).
//!
//! The total relaxation cost `sum_k |I_k| * cost_k` is the lower bound
//! ("LB") that the paper's Fig. 2 uses to normalise every algorithm's
//! energy.

use dcn_flow::{FlowId, FlowSet, Interval};
use dcn_power::PowerFunction;
use dcn_solver::fmcf::{
    Commodity, Disconnected, FmcfProblem, FmcfScratch, FmcfSolution, FmcfSolverConfig,
    PowerFlowCost,
};
use dcn_topology::GraphCsr;

/// The fractional solution of one interval's F-MCF subproblem.
#[derive(Debug, Clone)]
pub struct IntervalRelaxation {
    /// The interval `I_k`.
    pub interval: Interval,
    /// Flows active throughout the interval, in commodity order (the `c`-th
    /// commodity of [`Self::solution`] belongs to `flow_ids[c]`).
    pub flow_ids: Vec<FlowId>,
    /// The fractional multi-commodity flow solution for the interval; its
    /// [`FmcfSolution::cost`] is the interval's cost **per unit of time**.
    pub solution: FmcfSolution,
}

impl IntervalRelaxation {
    /// The relaxation cost contributed by this interval
    /// (`solution.cost * |I_k|`).
    pub fn cost(&self) -> f64 {
        self.solution.cost * self.interval.length()
    }
}

/// The relaxation of a whole instance: one [`IntervalRelaxation`] per
/// interval plus the aggregate lower bound.
#[derive(Debug, Clone)]
pub struct RelaxationSummary {
    /// Per-interval solutions, in interval order.
    pub intervals: Vec<IntervalRelaxation>,
    /// The fractional lower bound on the energy of any feasible DCFSR
    /// schedule: `sum_k |I_k| * cost_k`.
    pub lower_bound: f64,
}

/// Solves the per-interval F-MCF relaxation of a DCFSR instance on a
/// prebuilt CSR view. The interval loop shares the caller-provided
/// [`FmcfScratch`] (one shortest-path engine and one set of Frank–Wolfe
/// buffers) across every interval's solve, and the buffers persist across
/// *calls* as well. This is the primitive [`crate::SolverContext::relax`]
/// builds on.
///
/// The cost function is [`PowerFlowCost`]: the paper's speed-scaling cost
/// `mu * x^alpha`, plus a `sigma * x / C` term that lower-bounds the idle
/// energy share when the power function has `sigma > 0`. The solver
/// penalises load above the power function's capacity `C`, so the
/// relaxation respects `x_e(t) <= C`.
///
/// # Errors
///
/// Returns [`Disconnected`], naming the flow, if some flow's destination
/// is unreachable from its source on `graph`.
pub fn interval_relaxation_with(
    graph: &GraphCsr,
    flows: &FlowSet,
    power: &PowerFunction,
    fmcf_config: &FmcfSolverConfig,
    scratch: &mut FmcfScratch,
) -> Result<RelaxationSummary, Disconnected> {
    let cost = PowerFlowCost::new(*power);
    let intervals = flows
        .intervals()
        .into_iter()
        .map(|interval| solve_interval(graph, flows, &cost, fmcf_config, interval, scratch))
        .collect::<Result<Vec<_>, _>>()?;
    let lower_bound = intervals.iter().map(IntervalRelaxation::cost).sum();
    Ok(RelaxationSummary {
        intervals,
        lower_bound,
    })
}

/// Solves one interval's independent F-MCF subproblem on the given scratch.
fn solve_interval(
    graph: &GraphCsr,
    flows: &FlowSet,
    cost: &PowerFlowCost,
    config: &FmcfSolverConfig,
    interval: Interval,
    scratch: &mut FmcfScratch,
) -> Result<IntervalRelaxation, Disconnected> {
    let flow_ids = flows.active_in_interval(&interval);
    let commodities: Vec<Commodity> = flow_ids
        .iter()
        .map(|&id| {
            let f = flows.flow(id);
            Commodity {
                id,
                src: f.src,
                dst: f.dst,
                demand: f.density(),
            }
        })
        .collect();
    let problem = FmcfProblem::with_graph(graph, commodities);
    let solution = problem.solve_with(cost, config, scratch)?;
    Ok(IntervalRelaxation {
        interval,
        flow_ids,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_flow::workload::UniformWorkload;
    use dcn_topology::{builders, Network, NodeKind};

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    /// A one-shot relaxation: fresh CSR view, fresh scratch.
    fn relax_network(
        network: &Network,
        flows: &FlowSet,
        power: &PowerFunction,
        config: &FmcfSolverConfig,
    ) -> RelaxationSummary {
        interval_relaxation_with(
            &GraphCsr::from_network(network),
            flows,
            power,
            config,
            &mut FmcfScratch::new(),
        )
        .unwrap()
    }

    #[test]
    fn single_flow_lower_bound_is_its_density_cost_times_span() {
        // One flow on a line: the relaxation must route its density over the
        // shortest path in every interval of its span.
        let topo = builders::line_with_capacity(3, 100.0);
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)])
                .unwrap();
        let power = x2(100.0);
        let summary = relax_network(&topo.network, &flows, &power, &FmcfSolverConfig::default());
        assert_eq!(summary.intervals.len(), 1);
        // Density 2 over 2 links for 4 time units: 2 * 2^2 * 4 = 32.
        assert!((summary.lower_bound - 32.0).abs() < 1e-3);
    }

    #[test]
    fn intervals_with_no_active_flows_cost_nothing() {
        let topo = builders::line_with_capacity(3, 100.0);
        // Two flows with a gap between their spans.
        let flows = dcn_flow::FlowSet::from_tuples([
            (topo.hosts()[0], topo.hosts()[1], 0.0, 2.0, 2.0),
            (topo.hosts()[1], topo.hosts()[2], 6.0, 8.0, 2.0),
        ])
        .unwrap();
        let summary = relax_network(
            &topo.network,
            &flows,
            &x2(100.0),
            &FmcfSolverConfig::default(),
        );
        assert_eq!(summary.intervals.len(), 3);
        assert_eq!(summary.intervals[1].flow_ids.len(), 0);
        assert_eq!(
            summary.intervals[1].solution.cost.to_bits(),
            0.0f64.to_bits()
        );
        assert!(summary.lower_bound > 0.0);
    }

    #[test]
    fn relaxation_on_a_reused_scratch_matches_one_shot() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(12, 5)
            .generate(topo.hosts())
            .unwrap();
        let one_shot = relax_network(&topo.network, &flows, &power, &FmcfSolverConfig::default());
        // The same solve on a prebuilt view with a scratch an earlier,
        // different instance already ran on.
        let mut scratch = FmcfScratch::new();
        let graph = topo.csr();
        let other = UniformWorkload::paper_defaults(7, 2)
            .generate(topo.hosts())
            .unwrap();
        interval_relaxation_with(
            &graph,
            &other,
            &power,
            &FmcfSolverConfig::default(),
            &mut scratch,
        )
        .unwrap();
        let shared = interval_relaxation_with(
            &graph,
            &flows,
            &power,
            &FmcfSolverConfig::default(),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(one_shot.lower_bound, shared.lower_bound);
        assert_eq!(one_shot.intervals.len(), shared.intervals.len());
        for (a, b) in one_shot.intervals.iter().zip(&shared.intervals) {
            assert_eq!(a.flow_ids, b.flow_ids);
            assert_eq!(a.solution, b.solution);
            assert_eq!(a.solution.cost, b.solution.cost);
        }
    }

    #[test]
    fn lower_bound_grows_with_the_number_of_flows() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let small = UniformWorkload::paper_defaults(10, 3)
            .generate(topo.hosts())
            .unwrap();
        let large = UniformWorkload::paper_defaults(40, 3)
            .generate(topo.hosts())
            .unwrap();
        let lb_small =
            relax_network(&topo.network, &small, &power, &FmcfSolverConfig::default()).lower_bound;
        let lb_large =
            relax_network(&topo.network, &large, &power, &FmcfSolverConfig::default()).lower_bound;
        assert!(lb_small > 0.0);
        assert!(lb_large > lb_small);
    }

    #[test]
    fn the_power_functions_capacity_caps_the_relaxed_load() {
        // A one-hop and a two-hop route from `a` to `b`. Under x^2 the
        // uncapacitated optimum of density 6 puts 4 on the direct link.
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, "a");
        let b = net.add_node(NodeKind::Host, "b");
        let via = net.add_node(NodeKind::EdgeSwitch, "via");
        let (direct, _) = net.add_duplex_link(a, b, 100.0);
        net.add_duplex_link(a, via, 100.0);
        net.add_duplex_link(via, b, 100.0);
        let flows = FlowSet::from_tuples([(a, b, 0.0, 1.0, 6.0)]).unwrap();
        let config = FmcfSolverConfig::default();
        let direct_load = |capacity| {
            let summary = relax_network(&net, &flows, &x2(capacity), &config);
            summary.intervals[0].solution.edge_load(direct)
        };
        let capped = direct_load(3.0);
        assert!((capped - 3.0).abs() < 0.01, "{capped} at capacity 3");
        let free = direct_load(100.0);
        assert!((free - 4.0).abs() < 0.01, "{free} at capacity 100");
    }

    #[test]
    fn idle_power_increases_the_lower_bound() {
        let topo = builders::line_with_capacity(3, 10.0);
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)])
                .unwrap();
        let no_idle = x2(10.0);
        let with_idle = PowerFunction::new(5.0, 1.0, 2.0, 10.0).unwrap();
        let lb0 = relax_network(
            &topo.network,
            &flows,
            &no_idle,
            &FmcfSolverConfig::default(),
        )
        .lower_bound;
        let lb1 = relax_network(
            &topo.network,
            &flows,
            &with_idle,
            &FmcfSolverConfig::default(),
        )
        .lower_bound;
        assert!(lb1 > lb0);
    }
}
