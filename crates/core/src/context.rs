//! The per-network solver session: one [`SolverContext`] owns every piece
//! of warm, reusable solver state.
//!
//! Before this type existed, warm-state reuse was only available to callers
//! who hand-threaded the `*_on` variants (`GraphCsr`, `ShortestPathEngine`
//! and `FmcfScratch`) through every call. A `SolverContext` is built **once**
//! per network and handed to every [`crate::Algorithm::solve`] call, so the
//! CSR view is built once, the shortest-path arenas and the Frank–Wolfe
//! buffers warm up once, and every algorithm — including one-off callers —
//! gets the allocation-free hot path by default.
//!
//! A context serves one solve at a time, on the calling thread: the
//! relaxation's intervals run one after another on the one scratch.
//! Parallelism lives a level up, across independent instances with a
//! context each (the benchmark harness's `--threads`).
//!
//! ```
//! use dcn_core::{Algorithm, Dcfsr, SolverContext};
//! use dcn_flow::workload::UniformWorkload;
//! use dcn_power::PowerFunction;
//! use dcn_topology::builders;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = builders::fat_tree(4);
//! let flows = UniformWorkload::paper_defaults(20, 42).generate(topo.hosts())?;
//! let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
//!
//! let mut ctx = SolverContext::from_network(&topo.network)?;
//! let solution = Dcfsr::default().solve(&mut ctx, &flows, &power)?;
//! ctx.verify(solution.schedule.as_ref().unwrap(), &flows, &power)?;
//! assert!(solution.total_energy().unwrap() >= solution.lower_bound.unwrap() - 1e-6);
//! # Ok(())
//! # }
//! ```

use crate::error::SolveError;
use crate::relaxation::{interval_relaxation_with, RelaxationSummary};
use crate::routing::Routing;
use crate::schedule::Schedule;
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_solver::fmcf::{FmcfScratch, FmcfSolverConfig};
use dcn_topology::{GraphCsr, Network, Path, ShortestPathEngine};

/// Warm solver state for one network: the CSR read view, the arena-reuse
/// shortest-path engine and the Frank–Wolfe scratch buffers.
///
/// Build one with [`SolverContext::from_network`] (which validates the
/// topology once) and pass it to every [`crate::Algorithm::solve`] call on
/// that network. The context borrows the [`Network`] immutably for its
/// whole lifetime, so the topology cannot drift out from under the CSR
/// view.
#[derive(Debug)]
pub struct SolverContext<'net> {
    network: &'net Network,
    graph: GraphCsr,
    engine: ShortestPathEngine,
    fmcf: FmcfScratch,
}

impl<'net> SolverContext<'net> {
    /// Builds a context from a network, validating the topology once:
    /// every link must have a positive, finite capacity and endpoints
    /// inside the node range. (Per-flow validation — endpoints in range,
    /// reachability — happens at solve time via
    /// [`SolverContext::validate_flows`], because the flow set is not known
    /// yet.)
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidInput`] describing the first violated
    /// invariant.
    pub fn from_network(network: &'net Network) -> Result<Self, SolveError> {
        let n = network.node_count();
        for link in network.links() {
            if link.src.index() >= n || link.dst.index() >= n {
                return Err(SolveError::InvalidInput {
                    reason: format!("link {} has endpoint outside the {n}-node range", link.id),
                });
            }
            if !link.capacity.is_finite() || link.capacity <= 0.0 {
                return Err(SolveError::InvalidInput {
                    reason: format!(
                        "link {} has non-positive capacity {}",
                        link.id, link.capacity
                    ),
                });
            }
        }
        Ok(Self {
            network,
            graph: GraphCsr::from_network(network),
            engine: ShortestPathEngine::new(),
            fmcf: FmcfScratch::new(),
        })
    }

    /// The network the context was built from.
    pub fn network(&self) -> &'net Network {
        self.network
    }

    /// The flat CSR view of the network (built once at construction,
    /// mutated in place by [`SolverContext::apply_topology_event`]).
    pub fn graph(&self) -> &GraphCsr {
        &self.graph
    }

    /// Applies one link failure/recovery event to the context's CSR view
    /// in place. Returns `true` when the link state actually changed; a
    /// change bumps the graph's [`GraphCsr::epoch`] (invalidating every
    /// epoch-keyed cache downstream) and marks the link dirty for
    /// warm-started re-solves, so commodities routed across it are
    /// re-routed rather than served from the stale warm solution.
    ///
    /// The borrowed [`Network`] is never touched: the event stream is a
    /// property of a run, not of the topology, and a `LinkUp` for every
    /// link still down rolls the view back to the pristine built state.
    pub fn apply_topology_event(&mut self, event: dcn_topology::TopologyEvent) -> bool {
        let changed = event.apply(&mut self.graph);
        if changed {
            self.fmcf.mark_dirty_links([event.link()]);
        }
        changed
    }

    /// Splits the context into its reusable parts — the CSR view, the
    /// shortest-path engine and the Frank–Wolfe scratch — for algorithms
    /// that drive the low-level `*_on` APIs directly.
    pub fn parts(&mut self) -> (&GraphCsr, &mut ShortestPathEngine, &mut FmcfScratch) {
        (&self.graph, &mut self.engine, &mut self.fmcf)
    }

    /// Enables or disables warm-started Frank–Wolfe solves on the context's
    /// scratch (see [`FmcfScratch::set_warm_start`]): every relaxation run
    /// through [`SolverContext::relax`] then caches its last converged
    /// solution and seeds re-solves from it. Off by default — the cold path
    /// is bit-for-bit identical to a fresh scratch.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.fmcf.set_warm_start(enabled);
    }

    /// Whether warm-started Frank–Wolfe solves are enabled.
    pub fn warm_start(&self) -> bool {
        self.fmcf.warm_start()
    }

    /// Marks links whose residual conditions changed since the last solve,
    /// so a warm-started re-solve re-routes the commodities crossing them
    /// (delegates to [`FmcfScratch::mark_dirty_links`]).
    pub fn mark_dirty_links(&mut self, links: impl IntoIterator<Item = dcn_topology::LinkId>) {
        self.fmcf.mark_dirty_links(links);
    }

    /// Validates a flow set against this network: the set must be
    /// non-empty, every endpoint must be a node of the network, and every
    /// destination must be reachable from its source. (Source ≠ destination
    /// and positive finite volumes/spans are already structural invariants
    /// of [`dcn_flow::Flow`].)
    ///
    /// Reachability is checked with one multi-target Dijkstra per distinct
    /// source through the shared engine, so repeated validation of similar
    /// workloads stays allocation-free.
    ///
    /// # Errors
    ///
    /// * [`SolveError::EmptyFlowSet`] for an empty set.
    /// * [`SolveError::InvalidInput`] for an endpoint outside the node
    ///   range.
    /// * [`SolveError::Unroutable`] for a disconnected commodity.
    pub fn validate_flows(&mut self, flows: &FlowSet) -> Result<(), SolveError> {
        self.validate_flow_shape(flows)?;
        // One multi-target Dijkstra per distinct source (the same grouping
        // the Frank–Wolfe all-or-nothing step uses).
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_unstable_by_key(|&i| (flows.flow(i).src.index(), i));
        let mut targets: Vec<dcn_topology::NodeId> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let src = flows.flow(order[i]).src;
            let mut j = i;
            targets.clear();
            while j < order.len() && flows.flow(order[j]).src == src {
                targets.push(flows.flow(order[j]).dst);
                j += 1;
            }
            self.engine
                .single_source_all_targets(&self.graph, src, &targets, |_| 1.0);
            for &c in &order[i..j] {
                if !self.engine.settled(flows.flow(c).dst) {
                    return Err(SolveError::Unroutable {
                        flow: flows.flow(c).id,
                    });
                }
            }
            i = j;
        }
        Ok(())
    }

    /// The cheap half of [`SolverContext::validate_flows`]: non-empty set,
    /// endpoints inside the node range. Algorithms whose next step already
    /// detects disconnected commodities (every routing-based scheduler,
    /// and the relaxation, whose solver names the commodity it cannot
    /// route) use this instead of paying the reachability sweep twice.
    ///
    /// # Errors
    ///
    /// * [`SolveError::EmptyFlowSet`] for an empty set.
    /// * [`SolveError::InvalidInput`] for an endpoint outside the node
    ///   range.
    pub fn validate_flow_shape(&self, flows: &FlowSet) -> Result<(), SolveError> {
        if flows.is_empty() {
            return Err(SolveError::EmptyFlowSet);
        }
        let n = self.graph.node_count();
        for f in flows.iter() {
            if f.src.index() >= n || f.dst.index() >= n {
                return Err(SolveError::InvalidInput {
                    reason: format!("flow {} has an endpoint outside the {n}-node range", f.id),
                });
            }
        }
        Ok(())
    }

    /// Computes one routing path per flow with the given strategy, on the
    /// context's CSR view.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unroutable`] if some flow has no path.
    pub fn route(&mut self, strategy: &Routing, flows: &FlowSet) -> Result<Vec<Path>, SolveError> {
        strategy
            .compute_on(&self.graph, flows)
            .map_err(SolveError::from)
    }

    /// Solves the per-interval fractional relaxation of the instance. The
    /// interval loop shares the context's Frank–Wolfe scratch (one
    /// shortest-path engine and one buffer set across every interval and
    /// every call).
    ///
    /// # Errors
    ///
    /// Propagates [`SolverContext::validate_flow_shape`] errors; a flow the
    /// Frank–Wolfe solver finds no path for is
    /// [`SolveError::Unroutable`].
    pub fn relax(
        &mut self,
        flows: &FlowSet,
        power: &PowerFunction,
        config: &FmcfSolverConfig,
    ) -> Result<RelaxationSummary, SolveError> {
        self.validate_flow_shape(flows)?;
        Ok(interval_relaxation_with(
            &self.graph,
            flows,
            power,
            config,
            &mut self.fmcf,
        )?)
    }

    /// Verifies a schedule against its instance on the context's CSR view
    /// (full delivery, spans, endpoints, per-link volumes, capacities).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Verification`] wrapping every violation found.
    pub fn verify(
        &self,
        schedule: &Schedule,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<(), SolveError> {
        schedule
            .verify_on(&self.graph, flows, power)
            .map_err(SolveError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    fn x2() -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, 10.0)
    }

    #[test]
    fn context_builds_on_every_builder_topology() {
        for topo in [
            builders::fat_tree(4),
            builders::leaf_spine(4, 2, 4),
            builders::bcube(3, 1),
            builders::line(3),
            builders::parallel(4, 10.0),
        ] {
            let ctx = SolverContext::from_network(&topo.network).unwrap();
            assert_eq!(ctx.graph().link_count(), topo.network.link_count());
            assert!(std::ptr::eq(ctx.network(), &topo.network));
        }
    }

    #[test]
    fn empty_flow_set_is_a_typed_error() {
        let topo = builders::line(3);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let flows = dcn_flow::FlowSet::from_flows(vec![]).unwrap();
        assert_eq!(
            ctx.validate_flows(&flows).unwrap_err(),
            SolveError::EmptyFlowSet
        );
        assert_eq!(
            ctx.relax(&flows, &x2(), &Default::default()).unwrap_err(),
            SolveError::EmptyFlowSet
        );
    }

    #[test]
    fn out_of_range_endpoint_is_invalid_input() {
        let topo = builders::line(3);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let flows = dcn_flow::FlowSet::from_tuples([(
            dcn_topology::NodeId(99),
            topo.hosts()[0],
            0.0,
            1.0,
            1.0,
        )])
        .unwrap();
        assert!(matches!(
            ctx.validate_flows(&flows).unwrap_err(),
            SolveError::InvalidInput { .. }
        ));
    }

    #[test]
    fn disconnected_commodity_is_unroutable_not_a_panic() {
        let mut net = Network::new();
        let a = net.add_node(dcn_topology::NodeKind::Host, "a");
        let b = net.add_node(dcn_topology::NodeKind::Host, "b");
        let c = net.add_node(dcn_topology::NodeKind::Host, "c");
        net.add_duplex_link(a, b, 10.0);
        // c is disconnected.
        let flows =
            dcn_flow::FlowSet::from_tuples([(a, b, 0.0, 1.0, 1.0), (a, c, 0.0, 1.0, 1.0)]).unwrap();
        let mut ctx = SolverContext::from_network(&net).unwrap();
        assert_eq!(
            ctx.validate_flows(&flows).unwrap_err(),
            SolveError::Unroutable { flow: 1 }
        );
        // The relaxation surfaces the solver's own typed error.
        assert_eq!(
            ctx.relax(&flows, &x2(), &Default::default()).unwrap_err(),
            SolveError::Unroutable { flow: 1 }
        );
    }

    #[test]
    fn relax_matches_the_shared_scratch_relaxation_bit_for_bit() {
        let topo = builders::fat_tree(4);
        let flows = dcn_flow::workload::UniformWorkload::paper_defaults(12, 5)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let via_ctx = ctx.relax(&flows, &x2(), &Default::default()).unwrap();
        let direct = interval_relaxation_with(
            &topo.csr(),
            &flows,
            &x2(),
            &Default::default(),
            &mut FmcfScratch::new(),
        )
        .unwrap();
        assert_eq!(via_ctx.lower_bound, direct.lower_bound);
        assert_eq!(via_ctx.intervals.len(), direct.intervals.len());
        for (a, b) in via_ctx.intervals.iter().zip(&direct.intervals) {
            assert_eq!(a.solution, b.solution);
        }
    }

    #[test]
    fn verify_delegates_to_the_csr_view() {
        let topo = builders::line(3);
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)])
                .unwrap();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let schedule = Schedule::new(
            vec![crate::schedule::FlowSchedule::uniform(
                0,
                path,
                dcn_power::RateProfile::constant(0.0, 4.0, 2.0),
            )],
            (0.0, 4.0),
        );
        let ctx = SolverContext::from_network(&topo.network).unwrap();
        ctx.verify(&schedule, &flows, &x2()).unwrap();
        // A broken schedule surfaces as the typed Verification variant.
        let broken = Schedule::new(vec![], (0.0, 4.0));
        assert!(matches!(
            ctx.verify(&broken, &flows, &x2()).unwrap_err(),
            SolveError::Verification(_)
        ));
    }
}
