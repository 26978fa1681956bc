//! Reproduces **Fig. 2** of the paper: the approximation performance of
//! Random-Schedule versus the SP+MCF baseline, normalised by the fractional
//! lower bound, on a fat-tree with 80 switches and 128 servers, for power
//! functions `x^2` and `x^4`, as the number of flows grows from 40 to 200.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin fig2                 # 3 runs, step 40
//! cargo run --release -p dcn-bench --bin fig2 -- --full       # paper: 10 runs, step 20
//! cargo run --release -p dcn-bench --bin fig2 -- --quick --json-out   # CI smoke
//! cargo run --release -p dcn-bench --bin fig2 -- --runs 5 --small --threads 8
//! ```
//!
//! `--small` swaps the k=8 fat-tree for a k=4 fat-tree; `--quick` also
//! drops to one run per point with a coarser flow-count grid.

use dcn_bench::runner::ExperimentCli;
use dcn_bench::{fig2_power_functions, print_table, Experiment, InstanceInput, InstanceSpec};
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse("fig2", &["--runs", "--step", "--small", "--algorithms"]);
    let runs: usize = cli.runs.unwrap_or(if cli.quick {
        1
    } else if cli.full {
        10
    } else {
        3
    });
    let step: usize = cli.step.unwrap_or(if cli.quick {
        80
    } else if cli.full {
        20
    } else {
        40
    });
    let topo = if cli.small || cli.quick {
        builders::fat_tree(4)
    } else {
        builders::fat_tree(8)
    };
    println!(
        "Fig. 2 reproduction on {} ({} switches, {} hosts), {} run(s) per point\n",
        topo.name,
        topo.network.switch_count(),
        topo.network.host_count(),
        runs
    );

    let mut exp = Experiment::new("fig2", vec![topo]);
    let flow_counts: Vec<usize> = (40..=200).step_by(step).collect();
    for power in fig2_power_functions() {
        let group = format!("x^{}", power.alpha());
        for &n in &flow_counts {
            for run in 0..runs {
                exp.push(InstanceSpec {
                    group: group.clone(),
                    x: n as f64,
                    topology: 0,
                    power,
                    input: InstanceInput::Uniform { flows: n },
                    seed: 1000 * n as u64 + run as u64,
                    extra: vec![("run".to_string(), run as f64)],
                });
            }
        }
    }

    if let Some(algorithms) = cli.algorithms.clone() {
        exp.algorithms = algorithms;
    }
    let outcome = exp.run(cli.threads);
    for power in fig2_power_functions() {
        let group = format!("x^{}", power.alpha());
        let rows: Vec<Vec<String>> = outcome
            .report
            .points
            .iter()
            .filter(|p| p.group == group)
            .map(|p| {
                vec![
                    format!("{}", p.x as usize),
                    "1.000".to_string(),
                    format!("{:.3}", p.sp),
                    format!("{:.3}", p.rs),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 2, power function {group}"),
            &["flows", "LB", "SP+MCF", "RS"],
            &rows,
        );
    }

    println!("Values are energies normalised by the fractional lower bound (LB = 1.0),");
    println!("averaged over {runs} seeded runs, as in the paper's Section V-C.");
    cli.emit(&outcome.report, outcome.elapsed_seconds);
}
