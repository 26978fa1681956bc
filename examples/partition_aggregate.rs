//! Partition–aggregate ("search") traffic on a leaf–spine fabric.
//!
//! The paper motivates deadline-constrained flows with user-facing services
//! such as web search: an aggregator fans a query out to many workers and
//! every response must return before a tight, user-visible deadline. This
//! example generates that traffic pattern, schedules it with both
//! Random-Schedule and the SP+MCF baseline, and reports energy and deadline
//! slack.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example partition_aggregate
//! ```

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::PartitionAggregateWorkload;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = builders::leaf_spine(8, 4, 8);
    let power = PowerFunction::new(0.5, 1.0, 2.0, 10.0)?;
    let workload = PartitionAggregateWorkload {
        requests: 24,
        workers_per_request: 12,
        response_volume: 2.0,
        deadline_budget: 8.0,
        horizon_start: 1.0,
        horizon_end: 100.0,
        seed: 7,
    };
    let flows = workload.generate(topo.hosts())?;

    println!("topology : {}", topo.name);
    println!(
        "workload : {} requests x {} workers = {} response flows, {} time-unit budget each",
        workload.requests,
        workload.workers_per_request,
        flows.len(),
        workload.deadline_budget
    );
    println!("power    : {power}\n");

    let mut ctx = SolverContext::from_network(&topo.network)?;
    let rs = Dcfsr::default().solve(&mut ctx, &flows, &power)?;
    let sp = RoutedMcf::shortest_path().solve(&mut ctx, &flows, &power)?;

    for (name, solution) in [("Random-Schedule", &rs), ("SP+MCF", &sp)] {
        let report = solution.audit.as_ref().expect("both algorithms schedule");
        let worst_slack = report
            .flows
            .iter()
            .map(|f| f.slack())
            .fold(f64::INFINITY, f64::min);
        let mean_slack: f64 =
            report.flows.iter().map(|f| f.slack()).sum::<f64>() / report.flows.len() as f64;
        println!("{name}");
        println!(
            "  energy            : {:>10.2} (idle {:.2}, dynamic {:.2})",
            report.energy.total(),
            report.energy.idle,
            report.energy.dynamic
        );
        println!(
            "  normalised vs LB  : {:>10.3}",
            report.energy.total() / rs.lower_bound.expect("dcfsr reports the bound")
        );
        println!("  active links      : {:>10}", report.links.len());
        println!("  deadline misses   : {:>10}", report.deadline_misses);
        println!("  worst slack       : {:>10.3} time units", worst_slack);
        println!("  mean slack        : {:>10.3} time units\n", mean_slack);
    }

    println!(
        "fractional lower bound: {:.2}",
        rs.lower_bound.expect("dcfsr reports the bound")
    );
    Ok(())
}
