//! `online_edf` and `online_resolve`: one `OnlineEngine::run` over a
//! Poisson arrival stream.

use super::{generate_flows, timed, topology_probes, Fingerprint, Pass, Sizes};
use crate::fluid::fluid_bound;
use crate::trace::Tracer;
use dcn_core::{OnlineEngine, OnlineOutcome, SolveError, SolverContext};
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_topology::builders;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Solver-free earliest-deadline-first rate assignment.
    Edf,
    /// A warm-started `dcfsr` re-solve of the residual instance per arrival.
    Resolve,
}

impl Kind {
    fn engine(self) -> Result<OnlineEngine, SolveError> {
        match self {
            Kind::Edf => OnlineEngine::builder().policy("edf").build(),
            Kind::Resolve => OnlineEngine::builder()
                .policy("resolve")
                .warm_start(true)
                .build(),
        }
    }
}

pub fn pass(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    gate: bool,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let power = sizes.power();

    let setup = Instant::now();
    let topo = tracer.span("topology.builders.build", || {
        builders::fat_tree_with_capacity(sizes.k, sizes.capacity)
    });
    let mut ctx = SolverContext::from_network(&topo.network).map_err(|e| e.to_string())?;
    let flows = generate_flows(tracer, sizes, seed, topo.hosts())?;
    let mut engine = kind.engine().map_err(|e| e.to_string())?;
    pass.setup_s = setup.elapsed().as_secs_f64();

    let (outcome, work_s) = timed(|| engine.run(&mut ctx, &flows, &power));
    let outcome = outcome.map_err(|e| format!("online run failed: {e}"))?;
    pass.work_s = work_s;
    let report = &outcome.report;
    pass.energy = report.online_energy;
    pass.fluid = fluid_bound(ctx.graph(), &flows, &power)?;
    pass.attempted = flows.len() as u64;
    pass.failed = (report.rejected() + report.missed() + report.solve_failures) as u64;

    pass.fingerprint = fingerprint(&outcome);

    if gate {
        // The stitched schedule carries the energy the engine reported.
        // (No simulator replay here: it is super-linear in the flow count
        // and takes minutes at this size.)
        let energy = tracer.span("core.schedule.energy", || {
            outcome.schedule.energy(&power).total()
        });
        if energy.to_bits() != report.online_energy.to_bits() {
            pass.errors.push(format!(
                "Schedule::energy gives {energy}, the report {}",
                report.online_energy
            ));
        }
    }

    if tracer.enabled() {
        traced(kind, &mut pass, tracer, &topo, &flows, &power, &outcome)?;
    }
    Ok(pass)
}

fn fingerprint(outcome: &OnlineOutcome) -> u64 {
    let report = &outcome.report;
    let mut fingerprint = Fingerprint::new();
    fingerprint.schedule(&outcome.schedule);
    fingerprint.f64(report.online_energy);
    for count in [
        report.events,
        report.resolves,
        report.solve_failures,
        report.admitted(),
        report.missed(),
    ] {
        fingerprint.u64(count as u64);
    }
    for decision in &report.decisions {
        fingerprint.f64(decision.delivered);
    }
    fingerprint.finish()
}

/// The engine is one public call, so the traced repetition is that call in
/// a span on a fresh engine and context; its counters come from the report.
fn traced(
    kind: Kind,
    pass: &mut Pass,
    tracer: &mut Tracer,
    topo: &builders::BuiltTopology,
    flows: &FlowSet,
    power: &PowerFunction,
    expected: &OnlineOutcome,
) -> Result<(), String> {
    let mut ctx = SolverContext::from_network(&topo.network).map_err(|e| e.to_string())?;
    let mut engine = kind.engine().map_err(|e| e.to_string())?;
    let outcome = tracer.span("core.online.run", || engine.run(&mut ctx, flows, power));
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.schedule != expected.schedule
        || outcome.report.online_energy.to_bits() != expected.report.online_energy.to_bits()
    {
        pass.errors.push(format!(
            "the traced run produced energy {}, the untraced run {}",
            outcome.report.online_energy, expected.report.online_energy
        ));
    }

    let validated = tracer.span("core.context.validate", || ctx.validate_flows(flows));
    validated.map_err(|e| e.to_string())?;
    topology_probes(pass, tracer, &topo.network, topo.hosts());

    let report = &outcome.report;
    pass.common_layer_times(tracer);
    pass.layer("trace.untraced_work_s", pass.work_s);
    pass.layer_time(tracer, "trace.work_s", "core.online.run", 1.0);
    for (metric, count) in [
        ("core.online.events", report.events),
        ("core.online.resolves", report.resolves),
        ("core.online.solve_failures", report.solve_failures),
        ("core.online.admitted", report.admitted()),
        ("core.online.missed", report.missed()),
    ] {
        pass.layer(metric, count as f64);
    }
    Ok(())
}
