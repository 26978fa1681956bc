//! Ablation: how the speed-scaling exponent `alpha` changes the gap between
//! Random-Schedule, SP+MCF and the lower bound (the paper only evaluates
//! `alpha = 2` and `alpha = 4`).
//!
//! ```text
//! cargo run --release -p dcn-bench --bin ablation_alpha -- \
//!     [--flows N] [--runs R] [--threads T] [--quick] [--json-out [PATH]]
//! ```

use dcn_bench::runner::ExperimentCli;
use dcn_bench::{print_table, Experiment, InstanceInput, InstanceSpec};
use dcn_power::PowerFunction;
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse("ablation_alpha", &["--flows", "--runs", "--algorithms"]);
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 40 } else { 80 });
    let runs: usize = cli.runs.unwrap_or(if cli.quick { 1 } else { 3 });

    let mut exp = Experiment::new("ablation_alpha", vec![builders::fat_tree(4)]);
    println!(
        "alpha sweep on {} with {} flows, {} run(s) per point\n",
        exp.topologies[0].name, flows, runs
    );

    for alpha in [1.5, 2.0, 2.5, 3.0, 4.0] {
        let power = PowerFunction::speed_scaling_only(1.0, alpha, builders::DEFAULT_CAPACITY);
        for run in 0..runs {
            exp.push(InstanceSpec {
                group: "alpha".to_string(),
                x: alpha,
                topology: 0,
                power,
                input: InstanceInput::Uniform { flows },
                seed: 7 * flows as u64 + run as u64,
                extra: vec![("run".to_string(), run as f64)],
            });
        }
    }

    if let Some(algorithms) = cli.algorithms.clone() {
        exp.algorithms = algorithms;
    }
    let outcome = exp.run(cli.threads);
    let rows: Vec<Vec<String>> = outcome
        .report
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.x),
                "1.000".to_string(),
                format!("{:.3}", p.sp),
                format!("{:.3}", p.rs),
            ]
        })
        .collect();
    print_table(
        "Normalised energy vs alpha",
        &["alpha", "LB", "SP+MCF", "RS"],
        &rows,
    );
    println!("Larger alpha penalises load concentration more, so the SP+MCF gap grows with alpha.");
    cli.emit(&outcome.report, outcome.elapsed_seconds);
}
