//! Quickstart: schedule a random deadline-constrained workload on a
//! fat-tree with every scheme in the registry and compare their energy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Fig. 2 setup, scaled down: a k=4 fat-tree (20 switches,
    // 16 hosts), 60 flows over the horizon [1, 100], volumes ~ N(10, 3),
    // power function f(x) = x^2 with link capacity 10.
    let topo = builders::fat_tree(4);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
    let flows = UniformWorkload::paper_defaults(60, 2024).generate(topo.hosts())?;

    println!("topology : {}", topo.name);
    println!(
        "          {} switches, {} hosts, {} directed links",
        topo.network.switch_count(),
        topo.network.host_count(),
        topo.network.link_count()
    );
    println!(
        "workload : {} flows, horizon {:?}",
        flows.len(),
        flows.horizon()
    );
    println!("power    : {power}");
    println!();

    // One solver session per network; schedulers plug in by name. Joint
    // scheduling + routing (the paper's Random-Schedule), the SP+MCF
    // baseline, and "no energy management at all" — all behind the same
    // Algorithm interface.
    let mut ctx = SolverContext::from_network(&topo.network)?;
    let registry = AlgorithmRegistry::with_defaults();

    let mut solutions = Vec::new();
    for (label, name) in [
        ("Random-Schedule (RS)", "dcfsr"),
        ("Shortest-Path + MCF", "sp-mcf"),
        ("full-rate greedy", "greedy"),
    ] {
        let mut algo = registry.create(name)?;
        solutions.push((label, algo.solve(&mut ctx, &flows, &power)?));
    }

    // dcfsr already solved the fractional relaxation, so the lower bound
    // every scheme is normalised by comes for free.
    let lb = solutions[0].1.lower_bound.expect("dcfsr reports the bound");

    println!(
        "{:<28} {:>12} {:>12} {:>8} {:>10}",
        "scheme", "energy", "vs LB", "links", "misses"
    );
    println!(
        "{:<28} {:>12.2} {:>12.3} {:>8} {:>10}",
        "fractional lower bound", lb, 1.0, "-", "-"
    );
    for (label, solution) in &solutions {
        let schedule = solution.schedule.as_ref().expect("scheduling algorithm");
        let report = schedule.audit(ctx.graph(), &flows, &power);
        let energy = report.energy.total();
        println!(
            "{:<28} {:>12.2} {:>12.3} {:>8} {:>10}",
            label,
            energy,
            energy / lb,
            report.links.len(),
            report.deadline_misses
        );
    }

    println!();
    let diagnostics = &solutions[0].1.diagnostics;
    println!(
        "Random-Schedule used {} rounding attempt(s); worst link over-capacity by {:.3}",
        diagnostics.rounding_attempts.unwrap_or(0),
        diagnostics.capacity_excess.unwrap_or(0.0)
    );
    Ok(())
}
