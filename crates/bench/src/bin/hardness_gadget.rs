//! Sanity experiment on the hardness gadget of Theorems 2–3: `3m` flows of
//! one unit of time between two hosts joined by parallel links, with
//! `R_opt = B`. The reduction's optimum uses exactly `m` links at rate `B`
//! for a total energy of `m * alpha * mu * B^alpha`; this binary reports how
//! close Random-Schedule gets and how much worse single-path (SP+MCF)
//! routing is. In the JSON artifact the analytic optimum plays the role of
//! the `lower_bound` normaliser.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin hardness_gadget -- \
//!     [--threads T] [--quick] [--json-out [PATH]]
//! ```

use dcn_bench::print_table;
use dcn_bench::report::{ExperimentReport, InstanceRecord, Refusal};
use dcn_bench::runner::{run_indexed, timed, ExperimentCli};
use dcn_core::{Algorithm, Dcfsr, RandomScheduleConfig, RoutedMcf, Solution, SolverContext};
use dcn_flow::workload::hardness;
use dcn_power::PowerFunction;
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse("hardness_gadget", &[]);
    let alpha = 2.0;
    let mu = 1.0;
    let b = 9.0_f64;
    let sigma = mu * (alpha - 1.0) * b.powf(alpha);
    let sizes: &[usize] = if cli.quick { &[2, 4] } else { &[2, 4, 6, 8] };

    let (solved, elapsed_seconds) = timed(|| {
        run_indexed(sizes.len(), cli.threads, |i| {
            let m = sizes[i];
            let power =
                PowerFunction::new(sigma, mu, alpha, 2.0 * b).expect("valid power function");
            let topo = builders::parallel(2 * m, 2.0 * b);
            let values = hardness::satisfiable_three_partition(m, b);
            let flows = hardness::three_partition_flows(topo.source(), topo.sink(), &values)
                .expect("gadget flows are valid");

            let mut ctx = SolverContext::from_network(&topo.network).expect("gadget validates");
            let mut solve = |algorithm: &mut dyn Algorithm| {
                let solution = algorithm.solve(&mut ctx, &flows, &power);
                solution.map_err(|e| Refusal::new(algorithm.name(), &e))
            };
            let rs = solve(&mut Dcfsr::new(RandomScheduleConfig {
                max_rounding_attempts: 50,
                ..Default::default()
            }));
            let sp = solve(&mut RoutedMcf::shortest_path());

            let optimum = m as f64 * alpha * mu * b.powf(alpha);
            let energy = |solution: &Result<Solution, Refusal>| {
                solution.as_ref().map_or(0.0, |s| {
                    s.total_energy().expect("dcfsr and sp-mcf schedule")
                })
            };
            let (rs_energy, sp_energy) = (energy(&rs), energy(&sp));
            let rs_capacity_excess = rs
                .as_ref()
                .map_or(0.0, |rs| rs.diagnostics.capacity_excess.unwrap_or(0.0));
            InstanceRecord {
                label: format!("m={m}"),
                flows: flows.len(),
                seed: 0,
                alpha,
                lower_bound: optimum,
                rs_energy,
                sp_energy,
                rs_normalized: rs_energy / optimum,
                sp_normalized: sp_energy / optimum,
                deadline_misses: 0,
                rs_capacity_excess,
                rs_sim: None,
                sp_sim: None,
                extra: vec![("m".to_string(), m as f64), ("B".to_string(), b)],
                refusal: rs.err().or(sp.err()),
            }
        })
    });

    let coordinates: Vec<(String, f64)> = sizes
        .iter()
        .map(|&m| ("gadget".to_string(), m as f64))
        .collect();
    let report = ExperimentReport::assemble(
        "hardness_gadget",
        "parallel(2m)",
        None,
        solved,
        &coordinates,
    );

    let rows: Vec<Vec<String>> = report
        .instances
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.extra("m").expect("m recorded") as usize),
                format!("{:.1}", r.lower_bound),
                format!("{:.1}", r.rs_energy),
                format!("{:.2}", r.rs_normalized),
                format!("{:.1}", r.sp_energy),
                format!("{:.2}", r.sp_normalized),
            ]
        })
        .collect();
    print_table(
        "3-partition gadget (B = 9, R_opt = B)",
        &["m", "optimum", "RS", "RS/opt", "SP+MCF", "SP/opt"],
        &rows,
    );
    println!("Spreading flows across parallel links (RS) stays near the reduction's optimum,");
    println!("while single-path routing pays the alpha-th power of the concentration.");
    cli.emit(&report, elapsed_seconds);
}
