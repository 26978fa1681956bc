//! Exhaustive path enumeration over Most-Critical-First — for *tiny*
//! instances only.
//!
//! DCFSR is strongly NP-hard (Theorem 2), but once every flow's path is
//! fixed the remaining problem is DCFS. For instances with a handful of
//! flows this module enumerates candidate paths per flow (Yen's `k`
//! shortest by hop count, `k = 3` in the registry's `exact`, which is
//! exhaustive on the small gadget topologies) and keeps the best
//! Most-Critical-First schedule over the Cartesian product of assignments.
//!
//! That is the DCFSR optimum only where Most-Critical-First is optimal,
//! i.e. where a link serves one flow at a time (Theorem 1). Under the
//! concurrent-sharing energy this crate prices it is optimal on a single
//! link only, so the result is not the optimum: on `line(3)` under `x^2`,
//! flows A→C and A→B on `[0, 1]` with volume 1 cost `3 + 2√2 ≈ 5.828` here
//! (as under `sp-mcf`), while Random-Schedule finds `5.0`, and all three
//! schedules pass verification. The test suites and the hardness-gadget
//! experiment use it as a reference beside the fractional lower bound.

use crate::dcfs::most_critical_first;
use crate::error::SolveError;
use crate::schedule::Schedule;
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_topology::{k_shortest_paths_on, Path};

/// The best Most-Critical-First schedule found by exhaustive enumeration
/// (not the DCFSR optimum; see the module docs).
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its energy under the instance's power function.
    pub energy: f64,
    /// The chosen path per flow (indexed by flow id).
    pub paths: Vec<Path>,
    /// How many path assignments were evaluated.
    pub assignments_tried: usize,
}

/// [`crate::ExactBrute`]'s engine room: finds the best Most-Critical-First
/// schedule of a tiny instance by enumerating up to `paths_per_flow`
/// candidate paths per flow (Yen's k-shortest by hop count, on the
/// context's CSR view and shortest-path arenas) and solving DCFS for every
/// assignment.
///
/// # Errors
///
/// * [`SolveError::TooLarge`] when `paths_per_flow^n` exceeds
///   `max_assignments`.
/// * [`SolveError::Unroutable`] when some flow has no path at all.
/// * [`SolveError::NoFeasibleAssignment`] when every assignment fails
///   (possible only under extreme contention).
pub fn exact_dcfsr_ctx(
    ctx: &mut crate::SolverContext<'_>,
    flows: &FlowSet,
    power: &PowerFunction,
    paths_per_flow: usize,
    max_assignments: u128,
) -> Result<ExactOutcome, SolveError> {
    let paths_per_flow = paths_per_flow.max(1);
    let network = ctx.network();
    // Candidate paths per flow, over the context's CSR view and engine.
    let (graph, engine) = ctx.parts();
    let mut candidates: Vec<Vec<Path>> = Vec::with_capacity(flows.len());
    for flow in flows.iter() {
        let paths = k_shortest_paths_on(graph, engine, flow.src, flow.dst, paths_per_flow, |_| 1.0);
        if paths.is_empty() {
            return Err(SolveError::Unroutable { flow: flow.id });
        }
        candidates.push(paths);
    }
    let combinations: u128 = candidates.iter().map(|c| c.len() as u128).product();
    if combinations > max_assignments {
        return Err(SolveError::TooLarge {
            combinations,
            budget: max_assignments,
        });
    }

    let mut best: Option<ExactOutcome> = None;
    let mut assignment = vec![0usize; flows.len()];
    let mut tried = 0usize;
    loop {
        // Evaluate the current assignment.
        let paths: Vec<Path> = assignment
            .iter()
            .enumerate()
            .map(|(flow, &choice)| candidates[flow][choice].clone())
            .collect();
        tried += 1;
        if let Ok(schedule) = most_critical_first(network, flows, &paths, power) {
            let energy = schedule.energy(power).total();
            let better = best.as_ref().map(|b| energy < b.energy).unwrap_or(true);
            if better {
                best = Some(ExactOutcome {
                    schedule,
                    energy,
                    paths,
                    assignments_tried: tried,
                });
            }
        }
        // Advance the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == assignment.len() {
                // Overflow: enumeration complete.
                return match best {
                    Some(mut outcome) => {
                        outcome.assignments_tried = tried;
                        Ok(outcome)
                    }
                    None => Err(SolveError::NoFeasibleAssignment),
                };
            }
            assignment[pos] += 1;
            if assignment[pos] < candidates[pos].len() {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcfsr::RandomScheduleConfig;
    use crate::Algorithm;
    use dcn_topology::{builders, Network};

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    /// One-shot enumeration through a fresh context.
    fn exact(
        network: &Network,
        flows: &FlowSet,
        power: &PowerFunction,
        paths_per_flow: usize,
        max_assignments: u128,
    ) -> Result<ExactOutcome, SolveError> {
        let mut ctx = crate::SolverContext::from_network(network).unwrap();
        exact_dcfsr_ctx(&mut ctx, flows, power, paths_per_flow, max_assignments)
    }

    #[test]
    fn exact_spreads_flows_over_parallel_links() {
        // Three identical flows over three parallel links: the optimum uses
        // one link each at its density.
        let topo = builders::parallel(3, 100.0);
        let flows =
            FlowSet::from_tuples((0..3).map(|_| (topo.source(), topo.sink(), 0.0, 2.0, 4.0)))
                .unwrap();
        let power = x2(100.0);
        let outcome = exact(&topo.network, &flows, &power, 3, 1_000).unwrap();
        // Each flow at density 2 on its own link for 2 time units:
        // 3 * 2^2 * 2 = 24.
        assert!(
            (outcome.energy - 24.0).abs() < 1e-6,
            "energy {}",
            outcome.energy
        );
        let mut used: Vec<_> = outcome.paths.iter().map(|p| p.links()[0]).collect();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn exact_is_a_lower_bound_for_random_schedule() {
        let topo = builders::parallel(3, 100.0);
        let flows = FlowSet::from_tuples([
            (topo.source(), topo.sink(), 0.0, 2.0, 6.0),
            (topo.source(), topo.sink(), 0.0, 2.0, 4.0),
            (topo.source(), topo.sink(), 1.0, 3.0, 5.0),
        ])
        .unwrap();
        let power = x2(100.0);
        let exact = exact(&topo.network, &flows, &power, 3, 10_000).unwrap();
        let mut ctx = crate::SolverContext::from_network(&topo.network).unwrap();
        let rs = crate::Dcfsr::new(RandomScheduleConfig {
            max_rounding_attempts: 20,
            ..Default::default()
        })
        .solve(&mut ctx, &flows, &power)
        .unwrap();
        let rs_energy = rs.total_energy().unwrap();
        assert!(
            rs_energy >= exact.energy - 1e-6,
            "RS ({rs_energy}) cannot beat the exact optimum ({})",
            exact.energy
        );
        // And the exact optimum itself respects the fractional lower bound.
        assert!(exact.energy >= rs.lower_bound.unwrap() - 1e-6);
    }

    #[test]
    fn budget_is_enforced() {
        let topo = builders::fat_tree(4);
        let flows = FlowSet::from_tuples(
            (0..10).map(|i| (topo.hosts()[i], topo.hosts()[15 - i], 0.0, 10.0, 5.0)),
        )
        .unwrap();
        let err = exact(&topo.network, &flows, &x2(1e9), 4, 1_000).unwrap_err();
        assert!(matches!(err, SolveError::TooLarge { .. }));
    }

    #[test]
    fn unroutable_flow_is_reported() {
        let mut net = dcn_topology::Network::new();
        let a = net.add_node(dcn_topology::NodeKind::Host, "a");
        let b = net.add_node(dcn_topology::NodeKind::Host, "b");
        let flows = FlowSet::from_tuples([(a, b, 0.0, 1.0, 1.0)]).unwrap();
        let err = exact(&net, &flows, &x2(10.0), 2, 100).unwrap_err();
        assert_eq!(err, SolveError::Unroutable { flow: 0 });
    }

    #[test]
    fn single_flow_exact_equals_sp_mcf() {
        let topo = builders::line_with_capacity(4, 1e9);
        let flows =
            FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[3], 0.0, 5.0, 10.0)]).unwrap();
        let power = x2(1e9);
        let exact = exact(&topo.network, &flows, &power, 2, 100).unwrap();
        let mut ctx = crate::SolverContext::from_network(&topo.network).unwrap();
        let sp = crate::RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        assert!((exact.energy - sp.total_energy().unwrap()).abs() < 1e-9);
    }
}
