//! MapReduce shuffle traffic on a fat-tree: all-to-all transfers between a
//! mapper group and a reducer group that must finish before a stage
//! deadline.
//!
//! The example sweeps the stage deadline to show how the energy of the
//! optimal deadline-aware schedule falls as the deadline is relaxed — the
//! speed-scaling effect the paper exploits — and contrasts the energy-aware
//! routing of Random-Schedule with plain shortest paths.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mapreduce_shuffle
//! ```

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::ShuffleWorkload;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = builders::fat_tree(4);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
    let mut ctx = SolverContext::from_network(&topo.network)?;

    println!("topology : {}", topo.name);
    println!("power    : {power}\n");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>10}",
        "deadline", "LB", "RS energy", "SP+MCF energy", "RS/LB"
    );

    for deadline in [20.0, 40.0, 60.0, 80.0] {
        let workload = ShuffleWorkload {
            mappers: 6,
            reducers: 6,
            volume_per_pair: 4.0,
            start: 0.0,
            deadline,
        };
        let flows = workload.generate(topo.hosts())?;

        let rs = Dcfsr::default().solve(&mut ctx, &flows, &power)?;
        let sp = RoutedMcf::shortest_path().solve(&mut ctx, &flows, &power)?;

        let rs_report = rs
            .schedule
            .as_ref()
            .unwrap()
            .audit(ctx.graph(), &flows, &power);
        let sp_report = sp
            .schedule
            .as_ref()
            .unwrap()
            .audit(ctx.graph(), &flows, &power);
        assert_eq!(
            rs_report.deadline_misses, 0,
            "RS must meet the stage deadline"
        );
        assert_eq!(
            sp_report.deadline_misses, 0,
            "SP+MCF must meet the stage deadline"
        );

        let lb = rs.lower_bound.expect("dcfsr reports the bound");
        println!(
            "{:>10.0} {:>14.2} {:>14.2} {:>14.2} {:>10.3}",
            deadline,
            lb,
            rs_report.energy.total(),
            sp_report.energy.total(),
            rs_report.energy.total() / lb
        );
    }

    println!("\nRelaxing the stage deadline lets every scheme slow transmissions down,");
    println!("so energy falls roughly as 1/deadline^(alpha-1) for the dynamic term.");
    Ok(())
}
