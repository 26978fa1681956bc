//! Ablation: sensitivity of Random-Schedule to the randomized-rounding
//! budget. The paper notes that capacity violations are unlikely but
//! suggests re-drawing until a feasible rounding is found; this experiment
//! measures how many draws that takes in practice and how much the energy
//! varies across seeds.
//!
//! The `(budget, rounding-seed)` grid shares one interval relaxation
//! (solved once, up front) and fans the rounding draws out across the
//! worker pool.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin ablation_rounding -- \
//!     [--flows N] [--seeds S] [--threads T] [--quick] [--json-out [PATH]]
//! ```

use dcn_bench::print_table;
use dcn_bench::report::{ExperimentReport, InstanceRecord, SimSummary};
use dcn_bench::runner::{run_indexed, timed, ExperimentCli};
use dcn_core::{Algorithm, RandomSchedule, RandomScheduleConfig, RoutedMcf, SolverContext};
use dcn_flow::workload::UniformWorkload;
use dcn_power::PowerFunction;
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::builders;

const BUDGETS: [usize; 3] = [1, 5, 25];

fn main() {
    let cli = ExperimentCli::parse("ablation_rounding", &["--flows", "--seeds"]);
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 30 } else { 60 });
    let seeds: u64 = cli.seeds.unwrap_or(if cli.quick { 3 } else { 8 });

    let topo = builders::fat_tree(4);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let workload = UniformWorkload::paper_defaults(flows, 99);
    let flow_set = workload.generate(topo.hosts()).expect("workload generates");

    println!(
        "rounding sensitivity on {} with {} flows ({} rounding seeds)\n",
        topo.name, flows, seeds
    );

    let jobs: Vec<(usize, u64)> = BUDGETS
        .iter()
        .flat_map(|&budget| (0..seeds).map(move |seed| (budget, seed)))
        .collect();
    // The timed region covers the whole solve: the shared interval
    // relaxation and SP+MCF reference (the expensive serial prefix) plus
    // the parallel rounding fan-out.
    let ((relaxation, sp_sim, outcomes), elapsed_seconds) = timed(|| {
        // The shared interval relaxation and the SP+MCF reference are the
        // expensive serial prefix, solved once on one context; the rounding
        // draws (cheap, independent) fan out across the worker pool.
        let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
        let relaxation = ctx
            .relax(&flow_set, &power, &FmcfSolverConfig::coarse())
            .expect("relaxation succeeds on connected instances");
        let sp = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flow_set, &power)
            .expect("SP+MCF succeeds");
        let sp_sim = SimSummary::from(sp.audit.as_ref().expect("sp-mcf schedules"));
        let outcomes = run_indexed(jobs.len(), cli.threads, |i| {
            let (budget, seed) = jobs[i];
            let outcome = RandomSchedule::new(RandomScheduleConfig {
                fmcf: FmcfSolverConfig::coarse(),
                max_rounding_attempts: budget,
                seed,
                ..Default::default()
            })
            .run_with_relaxation(&topo.network, &flow_set, &power, &relaxation)
            .expect("rounding succeeds");
            let audit = outcome.schedule.audit(ctx.graph(), &flow_set, &power);
            (
                outcome.attempts,
                audit.capacity_excess,
                SimSummary::from(&audit),
            )
        });
        (relaxation, sp_sim, outcomes)
    });

    let mut records = Vec::with_capacity(jobs.len());
    let mut coordinates = Vec::with_capacity(jobs.len());
    for (&(budget, seed), &(attempts, excess, rs_sim)) in jobs.iter().zip(&outcomes) {
        let energy = rs_sim.energy;
        records.push(InstanceRecord {
            label: format!("budget={budget} seed={seed}"),
            flows,
            seed,
            alpha: power.alpha(),
            lower_bound: relaxation.lower_bound,
            rs_energy: energy,
            sp_energy: sp_sim.energy,
            rs_normalized: energy / relaxation.lower_bound,
            sp_normalized: sp_sim.energy / relaxation.lower_bound,
            deadline_misses: rs_sim.deadline_misses + sp_sim.deadline_misses,
            rs_capacity_excess: excess,
            rs_sim: Some(rs_sim),
            sp_sim: Some(sp_sim),
            extra: vec![
                ("budget".to_string(), budget as f64),
                ("attempts".to_string(), attempts as f64),
            ],
            refusal: None,
        });
        coordinates.push(("budget".to_string(), budget as f64));
    }
    let report = ExperimentReport::assemble(
        "ablation_rounding",
        &topo.name,
        Some(workload),
        records,
        &coordinates,
    );

    let rows: Vec<Vec<String>> = BUDGETS
        .iter()
        .map(|&budget| {
            let records: Vec<&InstanceRecord> = report
                .instances
                .iter()
                .filter(|r| r.extra("budget") == Some(budget as f64))
                .collect();
            let energies: Vec<f64> = records.iter().map(|r| r.rs_normalized).collect();
            let mean = energies.iter().sum::<f64>() / energies.len() as f64;
            let max = energies.iter().cloned().fold(f64::MIN, f64::max);
            let min = energies.iter().cloned().fold(f64::MAX, f64::min);
            let draws: f64 = records
                .iter()
                .filter_map(|r| r.extra("attempts"))
                .sum::<f64>()
                / records.len() as f64;
            let worst_excess = records
                .iter()
                .map(|r| r.rs_capacity_excess)
                .fold(0.0, f64::max);
            vec![
                budget.to_string(),
                format!("{mean:.3}"),
                format!("{min:.3}"),
                format!("{max:.3}"),
                format!("{draws:.2}"),
                format!("{worst_excess:.3}"),
            ]
        })
        .collect();
    print_table(
        "Rounding-budget sensitivity (energies normalised by LB)",
        &["budget", "mean", "min", "max", "avg draws", "worst excess"],
        &rows,
    );
    println!("With the paper's Fig. 2 workload the first draw is almost always feasible;");
    println!("a larger budget only matters when link capacities are tight.");
    cli.emit(&report, elapsed_seconds);
}
