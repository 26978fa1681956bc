//! The built-in [`OnlinePolicy`](super::OnlinePolicy) implementations.
//!
//! | name      | decision at each event                                   | FW re-solves |
//! |-----------|----------------------------------------------------------|--------------|
//! | `resolve` | re-solve the full residual with the wrapped algorithm    | every event  |
//! | `edf`     | earliest-deadline-first rates at each flow's required rate | never       |
//! | `srpt`    | shortest-remaining-processing-time, full available rate  | never        |
//! | `hybrid`  | EDF while slack is comfortable, re-solve when it is not  | rarely       |
//!
//! `resolve` is the pre-split `OnlineScheduler` behaviour, bit for bit
//! (pinned by `tests/policy_equivalence.rs`). The priority rules follow
//! the preemptive-scheduling line of PDQ (Hong et al.): most events need
//! only a rate reassignment, not a global Frank–Wolfe pass. Each policy
//! answers with rates or a re-solve and nothing else; the engine derives
//! the next decision point from the rates itself.

mod edf;
mod hybrid;
mod resolve;
mod srpt;

pub use edf::EdfPolicy;
pub use hybrid::HybridPolicy;
pub use resolve::ResolvePolicy;
pub use srpt::SrptPolicy;

#[cfg(test)]
mod tests {
    use crate::context::SolverContext;
    use crate::online::{OnlineEngine, OnlineOutcome};
    use dcn_flow::FlowSet;
    use dcn_power::PowerFunction;
    use dcn_topology::builders;

    fn run_policy(policy: &str, flows: &FlowSet, capacity: f64) -> OnlineOutcome {
        let topo = builders::line(3);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, capacity);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = OnlineEngine::builder()
            .policy(policy)
            .seed(5)
            .build()
            .unwrap();
        engine.run(&mut ctx, flows, &power).unwrap()
    }

    fn line_flows() -> FlowSet {
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        FlowSet::from_tuples([
            (a, c, 0.0, 10.0, 8.0),
            (a, c, 1.0, 6.0, 4.0),
            (a, c, 2.0, 12.0, 6.0),
        ])
        .unwrap()
    }

    #[test]
    fn edf_delivers_everything_without_a_single_resolve() {
        let flows = line_flows();
        let outcome = run_policy("edf", &flows, 100.0);
        assert_eq!(outcome.report.resolves, 0);
        assert_eq!(outcome.report.solve_failures, 0);
        assert_eq!(outcome.report.missed(), 0);
        for d in &outcome.report.decisions {
            let flow = flows.flow(d.flow);
            assert!((d.delivered - flow.volume).abs() <= 1e-6 * flow.volume);
        }
        // EDF serves at the required rate: no flow transmits faster than
        // its residual density demands at any breakpoint.
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
        let topo = builders::line(3);
        let ctx = SolverContext::from_network(&topo.network).unwrap();
        ctx.verify(&outcome.schedule, &flows, &power).unwrap();
    }

    #[test]
    fn srpt_finishes_the_shortest_flow_first() {
        // Capacity 2 keeps flow 0 (8 units) busy when flow 1 (4 units)
        // arrives at t=1 with less remaining: SRPT preempts for it.
        let flows = line_flows();
        let outcome = run_policy("srpt", &flows, 2.0);
        assert_eq!(outcome.report.resolves, 0);
        assert_eq!(outcome.report.missed(), 0);
        let end = |id: usize| {
            outcome
                .schedule
                .flow_schedule(id)
                .unwrap()
                .activity_span()
                .unwrap()
                .1
        };
        assert!(end(1) < end(0), "srpt preempts for the shorter flow");
    }

    #[test]
    fn hybrid_stays_solver_free_when_slack_is_comfortable() {
        // Capacity 100 dwarfs every required rate: slack fractions stay
        // near 1 and hybrid never re-solves.
        let outcome = run_policy("hybrid", &line_flows(), 100.0);
        assert_eq!(outcome.report.resolves, 0);
        assert_eq!(outcome.report.missed(), 0);
    }

    #[test]
    fn hybrid_resolves_when_slack_runs_out() {
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        // 9.5 units over a 1-unit span at capacity 10: slack fraction
        // 0.05 < 0.1, so the very first event triggers a re-solve.
        let flows = FlowSet::from_tuples([(a, c, 0.0, 1.0, 9.5)]).unwrap();
        let outcome = run_policy("hybrid", &flows, 10.0);
        assert!(outcome.report.resolves >= 1);
        assert_eq!(outcome.report.missed(), 0);
        let d = &outcome.report.decisions[0];
        assert!((d.delivered - 9.5).abs() <= 1e-6 * 9.5);
    }
}
