//! Ablation: the same workload size on different data-center fabrics.
//! Path diversity is what Random-Schedule exploits, so topologies with more
//! equal-cost paths show a larger gap between RS and SP+MCF.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin ablation_topology -- \
//!     [--flows N] [--runs R] [--threads T] [--quick] [--json-out [PATH]]
//! ```

use dcn_bench::runner::ExperimentCli;
use dcn_bench::{print_table, Experiment, InstanceInput, InstanceSpec};
use dcn_power::PowerFunction;
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse("ablation_topology", &["--flows", "--runs", "--algorithms"]);
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 30 } else { 60 });
    let runs: usize = cli.runs.unwrap_or(if cli.quick { 1 } else { 3 });

    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let mut exp = Experiment::new(
        "ablation_topology",
        vec![
            builders::fat_tree(4),
            builders::leaf_spine(8, 4, 8),
            builders::bcube(4, 1),
            builders::dumbbell(16, builders::DEFAULT_CAPACITY),
        ],
    );

    println!("topology sweep with {flows} flows, {runs} run(s) per point\n");
    for t in 0..exp.topologies.len() {
        let group = exp.topologies[t].name.clone();
        for run in 0..runs {
            exp.push(InstanceSpec {
                group: group.clone(),
                x: t as f64,
                topology: t,
                power,
                input: InstanceInput::Uniform { flows },
                seed: 11 * run as u64 + 3,
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
            let topo = &exp.topologies[p.x as usize];
            vec![
                topo.name.clone(),
                topo.network.switch_count().to_string(),
                topo.network.host_count().to_string(),
                format!("{:.3}", p.sp),
                format!("{:.3}", p.rs),
            ]
        })
        .collect();
    print_table(
        "Normalised energy vs topology",
        &["topology", "switches", "hosts", "SP+MCF", "RS"],
        &rows,
    );
    println!("The dumbbell has no path diversity, so RS and SP+MCF coincide there;");
    println!("fat-tree and BCube give RS room to spread load and close in on the LB.");
    cli.emit(&outcome.report, outcome.elapsed_seconds);
}
