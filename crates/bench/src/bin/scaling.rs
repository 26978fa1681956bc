//! `scaling` — the pipeline's cost and quality at growing fat-tree scale.
//!
//! Sweeps the full DCFSR pipeline (relaxation lower bound, Random-Schedule,
//! SP+MCF, the audit of each schedule) over fat-trees of increasing size and
//! growing flow counts, producing the standard `BENCH_scaling.json`
//! artifact. The energy ratios stay flat while the instance size grows —
//! the artifact's role in the perf trajectory is the *feasible envelope*:
//! after the CSR graph core + arena-reuse engine refactor, fat-tree k = 16
//! (1024 hosts) instances run in seconds on one core, where the
//! adjacency-list implementation was impractical.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin scaling                  # k=4 and k=8
//! cargo run --release -p dcn-bench --bin scaling -- --quick       # CI smoke: k=4
//! cargo run --release -p dcn-bench --bin scaling -- --full        # adds k=16
//! cargo run --release -p dcn-bench --bin scaling -- --runs 3 --json-out
//! ```
//!
//! `--runs` controls seeds per sweep point. The artifact carries energies
//! only; the run's wall clock goes to stderr, and solve time is measured by
//! `perf/`.

use dcn_bench::runner::ExperimentCli;
use dcn_bench::{fig2_power_functions, print_table, Experiment, InstanceInput, InstanceSpec};
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse("scaling", &["--runs", "--algorithms"]);
    let runs: usize = cli.runs.unwrap_or(if cli.quick { 1 } else { 2 });
    // One fat-tree per sweep group, smallest first.
    let ks: &[usize] = if cli.quick {
        &[4]
    } else if cli.full {
        &[4, 8, 16]
    } else {
        &[4, 8]
    };
    let topologies: Vec<_> = ks.iter().map(|&k| builders::fat_tree(k)).collect();
    println!(
        "Scaling sweep over {} ({} run(s) per point)\n",
        topologies
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        runs
    );

    let flow_counts: &[usize] = if cli.quick { &[10, 20] } else { &[20, 40, 80] };
    let power = fig2_power_functions()[0]; // x^2, the paper's primary cost
    let mut exp = Experiment::new("scaling", topologies);
    for (ti, &k) in ks.iter().enumerate() {
        let group = format!("k={k}");
        for &n in flow_counts {
            for run in 0..runs {
                exp.push(InstanceSpec {
                    group: group.clone(),
                    x: n as f64,
                    topology: ti,
                    power,
                    input: InstanceInput::Uniform { flows: n },
                    seed: 1000 * n as u64 + run as u64,
                    extra: vec![("k".to_string(), k as f64), ("run".to_string(), run as f64)],
                });
            }
        }
    }

    if let Some(algorithms) = cli.algorithms.clone() {
        exp.algorithms = algorithms;
    }
    let outcome = exp.run(cli.threads);
    for &k in ks {
        let group = format!("k={k}");
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
            &format!("Scaling, fat-tree {group}"),
            &["flows", "LB", "SP+MCF", "RS"],
            &rows,
        );
    }

    println!("Values are energies normalised by the fractional lower bound (LB = 1.0).");
    println!("Grow the envelope with --full (adds fat-tree k=16, 1024 hosts).");
    cli.emit(&outcome.report, outcome.elapsed_seconds);
}
