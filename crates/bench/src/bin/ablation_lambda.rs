//! Ablation: the interval-granularity parameter `lambda = (t_K - t_0) /
//! min_k |I_k|` appears in Random-Schedule's approximation ratio
//! (Theorem 6). This experiment varies the minimum span of the workload —
//! shorter minimum spans produce thinner intervals and larger lambda — and
//! reports how the measured normalised energy reacts.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin ablation_lambda -- \
//!     [--flows N] [--runs R] [--threads T] [--quick] [--json-out [PATH]]
//! ```

use dcn_bench::runner::ExperimentCli;
use dcn_bench::{print_table, Experiment, InstanceInput, InstanceSpec};
use dcn_flow::workload::UniformWorkload;
use dcn_flow::{Flow, FlowSet};
use dcn_power::PowerFunction;
use dcn_topology::builders;

/// Snaps every release down and every deadline up to a multiple of `grain`,
/// so the interval structure is controlled: the smallest interval is at
/// least `grain` and `lambda <= horizon / grain`.
fn quantize(flows: &FlowSet, grain: f64) -> FlowSet {
    let quantized: Vec<Flow> = flows
        .iter()
        .map(|f| {
            let release = (f.release / grain).floor() * grain;
            let deadline = (f.deadline / grain).ceil() * grain;
            Flow::new(
                f.id,
                f.src,
                f.dst,
                release,
                deadline.max(release + grain),
                f.volume,
            )
            .expect("quantised flow remains valid")
        })
        .collect();
    FlowSet::from_flows(quantized).expect("ids unchanged")
}

fn main() {
    let cli = ExperimentCli::parse("ablation_lambda", &["--flows", "--runs", "--algorithms"]);
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 30 } else { 60 });
    let runs: usize = cli.runs.unwrap_or(if cli.quick { 1 } else { 3 });

    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let mut exp = Experiment::new("ablation_lambda", vec![builders::fat_tree(4)]);
    println!(
        "lambda sweep on {} with {} flows, {} run(s) per point\n",
        exp.topologies[0].name, flows, runs
    );

    let grains = [0.5, 1.0, 2.0, 5.0, 10.0];
    for &grain in &grains {
        for run in 0..runs {
            // The workload is generated (cheap) up front so the interval
            // statistics land in the artifact; solving (expensive) is what
            // the runner parallelises.
            let raw = UniformWorkload::paper_defaults(flows, 31 * run as u64 + 5)
                .generate(exp.topologies[0].hosts())
                .expect("workload generates");
            let flow_set = quantize(&raw, grain);
            let extra = vec![
                ("grain".to_string(), grain),
                ("lambda".to_string(), flow_set.lambda()),
                ("intervals".to_string(), flow_set.intervals().len() as f64),
            ];
            exp.push(InstanceSpec {
                group: "grain".to_string(),
                x: grain,
                topology: 0,
                power,
                input: InstanceInput::Explicit(flow_set),
                seed: run as u64,
                extra,
            });
        }
    }

    if let Some(algorithms) = cli.algorithms.clone() {
        exp.algorithms = algorithms;
    }
    let outcome = exp.run(cli.threads);
    let report = &outcome.report;
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            let mean_extra = |key: &str| {
                let values: Vec<f64> = report
                    .instances
                    .iter()
                    .filter(|r| r.extra("grain") == Some(p.x))
                    .filter_map(|r| r.extra(key))
                    .collect();
                values.iter().sum::<f64>() / values.len() as f64
            };
            vec![
                format!("{:.1}", p.x),
                format!("{:.1}", mean_extra("lambda")),
                format!("{:.1}", mean_extra("intervals")),
                format!("{:.3}", p.sp),
                format!("{:.3}", p.rs),
            ]
        })
        .collect();
    print_table(
        "Normalised energy vs interval granularity (time grid `grain`)",
        &["grain", "lambda", "intervals", "SP+MCF", "RS"],
        &rows,
    );
    println!("Theorem 6 predicts the worst case degrades with lambda; in practice the");
    println!("average-case normalised energy moves only mildly while the relaxation gets");
    println!("cheaper to solve as the number of intervals shrinks.");
    cli.emit(report, outcome.elapsed_seconds);
}
