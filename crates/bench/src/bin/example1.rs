//! Regenerates the paper's worked Example 1 (Section III-C): the optimal
//! DCFS schedule of two flows on a three-node line network with
//! `f(x) = x^2`, and checks it against the closed form
//! `sqrt(2) * s1 = s2 = (8 + 6 sqrt 2) / 3`. In the JSON artifact the
//! closed-form energy plays the role of the `lower_bound` normaliser and
//! the "reference" energy, so `rs_normalized` measures the reproduction
//! error (it should be 1.0 to solver precision).
//!
//! ```text
//! cargo run --release -p dcn-bench --bin example1 -- [--json-out [PATH]]
//! ```

use dcn_bench::print_table;
use dcn_bench::report::{ExperimentReport, InstanceRecord, SimSummary};
use dcn_bench::runner::{timed, ExperimentCli};
use dcn_core::{Algorithm, RoutedMcf, SolverContext};
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse("example1", &[]);
    let ((schedule_rows, report), elapsed_seconds) = timed(|| {
        let topo = builders::line_with_capacity(3, 1e9);
        let (a, b, c) = (topo.hosts()[0], topo.hosts()[1], topo.hosts()[2]);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
        let flows = FlowSet::from_tuples([(a, c, 2.0, 4.0, 6.0), (a, b, 1.0, 3.0, 8.0)])
            .expect("example flows are valid");

        // The optimal DCFS schedule on the (forced) shortest paths is
        // exactly the `sp-mcf` algorithm of the registry.
        let mut ctx = SolverContext::from_network(&topo.network).expect("line network validates");
        let solution = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .expect("example instance is feasible");
        let schedule = solution.schedule.as_ref().expect("sp-mcf schedules");
        let audit = solution.audit.as_ref().expect("sp-mcf schedules");
        assert!(
            audit.violations.is_empty(),
            "infeasible: {:?}",
            audit.violations
        );

        let s2_paper = (8.0 + 6.0 * 2f64.sqrt()) / 3.0;
        let s1_paper = s2_paper / 2f64.sqrt();
        let energy_paper = 2.0 * 6.0 * s1_paper + 8.0 * s2_paper;

        let s1 = schedule.flow_schedule(0).unwrap().profile.max_rate();
        let s2 = schedule.flow_schedule(1).unwrap().profile.max_rate();
        let energy = audit.energy.total();
        let sim = SimSummary::from(audit);

        let record = InstanceRecord {
            label: "example1".to_string(),
            flows: flows.len(),
            seed: 0,
            alpha: power.alpha(),
            lower_bound: energy_paper,
            rs_energy: energy,
            sp_energy: energy_paper,
            rs_normalized: energy / energy_paper,
            sp_normalized: 1.0,
            deadline_misses: sim.deadline_misses,
            rs_capacity_excess: 0.0,
            rs_sim: Some(sim),
            sp_sim: None,
            extra: vec![
                ("s1_measured".to_string(), s1),
                ("s1_paper".to_string(), s1_paper),
                ("s2_measured".to_string(), s2),
                ("s2_paper".to_string(), s2_paper),
            ],
            refusal: None,
        };
        let report = ExperimentReport::assemble(
            "example1",
            &topo.name,
            None,
            vec![record],
            &[("example1".to_string(), 1.0)],
        );

        let rows = vec![
            vec![
                "j1 (A->C)".to_string(),
                format!("{s1:.6}"),
                format!("{s1_paper:.6}"),
            ],
            vec![
                "j2 (A->B)".to_string(),
                format!("{s2:.6}"),
                format!("{s2_paper:.6}"),
            ],
            vec![
                "energy".to_string(),
                format!("{energy:.6}"),
                format!("{energy_paper:.6}"),
            ],
        ];
        (rows, report)
    });
    print_table(
        "Example 1 (line network, f(x) = x^2)",
        &["quantity", "measured", "paper"],
        &schedule_rows,
    );
    cli.emit(&report, elapsed_seconds);
}
