//! Online rolling-horizon scheduling of Poisson arrivals on a fat-tree.
//!
//! The paper's DCFSR algorithm assumes clairvoyant knowledge of the whole
//! flow set; real partition–aggregate and shuffle traffic arrives online.
//! This example draws the paper's uniform workload, replaces its release
//! times with a Poisson arrival process at two load factors, executes each
//! instance through the event-driven `OnlineEngine` under the `resolve`
//! policy (re-solving the residual instance at every arrival on one warm
//! solver context), and compares the stitched online schedule against the
//! offline clairvoyant solve of the same instance. See
//! `policy_arrivals.rs` for the other registered policies.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example online_arrivals
//! ```

use deadline_dcn::core::online::OnlineEngine;
use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::{ArrivalProcess, UniformWorkload};
use deadline_dcn::power::PowerFunction;
use deadline_dcn::sim::Simulator;
use deadline_dcn::topology::builders;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = builders::fat_tree(4);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
    let base = UniformWorkload::paper_defaults(24, 7).generate(topo.hosts())?;

    println!("topology : {}", topo.name);
    println!(
        "workload : {} flows, Poisson arrivals over the paper's uniform template",
        base.len()
    );
    println!();
    println!(
        "{:>6}  {:>8}  {:>9}  {:>10}  {:>11}  {:>6}  {:>6}",
        "load", "events", "re-solves", "online E", "offline E", "ratio", "missed"
    );

    for load in [0.5, 4.0] {
        let flows = ArrivalProcess::with_load(load, 7).apply(&base)?;
        let mut ctx = SolverContext::from_network(&topo.network)?;
        let mut online = OnlineEngine::builder()
            .algorithm("dcfsr")
            .policy("resolve")
            .seed(7)
            .build()?;
        let outcome = online.run(&mut ctx, &flows, &power)?;
        let report = &outcome.report;
        // The clairvoyant reference: the same seeded algorithm solving the
        // whole instance on the same context.
        let mut clairvoyant = AlgorithmRegistry::with_defaults().create("dcfsr")?;
        clairvoyant.set_seed(7);
        let offline = clairvoyant
            .solve(&mut ctx, &flows, &power)?
            .total_energy()
            .expect("dcfsr produces a schedule");

        // Execute the stitched schedule in the fluid simulator; rejected
        // flows (none under AdmitAll) would be excluded from the misses.
        let sim = Simulator::new(power).run_admitted(
            ctx.graph(),
            &flows,
            &outcome.schedule,
            &report.admitted_mask(),
        );
        assert_eq!(sim.deadline_misses, report.missed());

        println!(
            "{:>6}  {:>8}  {:>9}  {:>10.2}  {:>11.2}  {:>6.3}  {:>6}",
            load,
            report.events,
            report.resolves,
            report.online_energy,
            offline,
            report.online_energy / offline,
            report.missed()
        );
    }

    println!();
    println!("`ratio` is online energy / offline clairvoyant energy: the price of");
    println!("scheduling without future knowledge, re-paid at every arrival event.");
    Ok(())
}
