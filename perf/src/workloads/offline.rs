//! `offline_dcfsr` and `offline_dcfs`: one cold `Algorithm::solve` of a
//! whole instance.

use super::{generate_flows, timed, topology_probes, Fingerprint, Pass, Sizes};
use crate::fluid::fluid_bound;
use crate::trace::Tracer;
use dcn_core::dcfsr::{RandomSchedule, RandomScheduleConfig};
use dcn_core::routing::Routing;
use dcn_core::{most_critical_first, AlgorithmRegistry, Schedule, SolverContext};
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_sim::Simulator;
use dcn_solver::decompose::decompose_flow;
use dcn_topology::builders;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Registry `dcfsr`: relaxation, rounding, density scheduling.
    Dcfsr,
    /// Registry `sp-mcf`: shortest-path routes, most-critical-first.
    Dcfs,
}

impl Kind {
    fn algorithm(self) -> &'static str {
        match self {
            Kind::Dcfsr => "dcfsr",
            Kind::Dcfs => "sp-mcf",
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
    let mut algorithm = AlgorithmRegistry::with_defaults()
        .create(kind.algorithm())
        .map_err(|e| e.to_string())?;
    pass.setup_s = setup.elapsed().as_secs_f64();

    let (solution, work_s) = timed(|| algorithm.solve(&mut ctx, &flows, &power));
    let solution = solution.map_err(|e| format!("{} failed: {e}", kind.algorithm()))?;
    pass.work_s = work_s;
    let schedule = solution
        .schedule
        .as_ref()
        .ok_or("the algorithm returned no schedule")?;
    pass.energy = solution
        .total_energy()
        .ok_or("the algorithm returned no energy")?;
    pass.fluid = fluid_bound(ctx.graph(), &flows, &power)?;
    pass.attempted = flows.len() as u64;

    let mut fingerprint = Fingerprint::new();
    fingerprint.schedule(schedule);
    fingerprint.f64(pass.energy);
    fingerprint.f64(solution.lower_bound.unwrap_or(0.0));
    fingerprint.u64(solution.diagnostics.rounding_attempts.unwrap_or(0) as u64);
    pass.fingerprint = fingerprint.finish();

    if gate {
        // The schedule is feasible and its replay meets every deadline.
        let verified = tracer.span("core.schedule.verify", || {
            ctx.verify(schedule, &flows, &power)
        });
        if let Err(e) = verified {
            pass.errors.push(format!("verify: {e}"));
            pass.failed += 1;
        }
        let replay = tracer.span("sim.run", || {
            Simulator::new(power).run_ctx(&ctx, &flows, schedule)
        });
        if replay.deadline_misses > 0 || replay.capacity_violations > 0 {
            pass.errors.push(format!(
                "replay: {} deadline misses, {} capacity violations",
                replay.deadline_misses, replay.capacity_violations
            ));
            pass.failed += replay.deadline_misses as u64;
        }
    }

    if tracer.enabled() {
        traced(kind, &mut pass, tracer, &topo, &flows, &power, schedule)?;
    }
    Ok(pass)
}

/// Repeats the solve as the layer calls `Algorithm::solve` is made of, one
/// span each, on a fresh context (so it starts as cold as the untraced
/// solve did), and runs the probes of the layers involved.
fn traced(
    kind: Kind,
    pass: &mut Pass,
    tracer: &mut Tracer,
    topo: &builders::BuiltTopology,
    flows: &FlowSet,
    power: &PowerFunction,
    expected: &Schedule,
) -> Result<(), String> {
    let mut ctx = SolverContext::from_network(&topo.network).map_err(|e| e.to_string())?;
    let root = tracer.begin("core.algorithm.solve");
    match kind {
        Kind::Dcfsr => {
            let config = RandomScheduleConfig::default();
            let relaxation = tracer.span("core.relaxation.relax", || {
                ctx.relax(flows, power, &config.fmcf)
            });
            let relaxation = relaxation.map_err(|e| e.to_string())?;
            let outcome = tracer.span("core.dcfsr.round", || {
                RandomSchedule::new(config).run_with_relaxation(
                    ctx.network(),
                    flows,
                    power,
                    &relaxation,
                )
            });
            let outcome = outcome.map_err(|e| e.to_string())?;
            let energy = tracer.span("core.schedule.energy", || outcome.schedule.energy(power));
            tracer.end(root);
            check_same(pass, expected, &outcome.schedule, energy.total());

            let intervals = &relaxation.intervals;
            let iterations: usize = intervals.iter().map(|iv| iv.solution.iterations).sum();
            let converged = intervals.iter().filter(|iv| iv.solution.converged).count();
            pass.layer("solver.fmcf.iterations", iterations as f64);
            pass.layer(
                "solver.fmcf.converged_share",
                converged as f64 / intervals.len() as f64,
            );
            pass.layer("core.relaxation.intervals", intervals.len() as f64);
            pass.layer("core.dcfsr.attempts", outcome.attempts as f64);

            // The decomposition runs inside the rounding step; timed alone
            // here over the same per-interval flows.
            let span = tracer.begin("solver.decompose.decompose");
            for iv in intervals {
                for (c, &id) in iv.flow_ids.iter().enumerate() {
                    let flow = flows.flow(id);
                    std::hint::black_box(decompose_flow(
                        ctx.network(),
                        flow.src,
                        flow.dst,
                        iv.solution.commodity_flows(c),
                        config.decompose_epsilon,
                    ));
                }
            }
            tracer.end(span);
        }
        Kind::Dcfs => {
            ctx.validate_flow_shape(flows).map_err(|e| e.to_string())?;
            let paths = tracer.span("core.routing.route", || {
                ctx.route(&Routing::ShortestPath, flows)
            });
            let paths = paths.map_err(|e| e.to_string())?;
            let schedule = tracer.span("core.dcfs.mcf", || {
                most_critical_first(ctx.network(), flows, &paths, power)
            });
            let schedule = schedule.map_err(|e| e.to_string())?;
            let energy = tracer.span("core.schedule.energy", || schedule.energy(power));
            tracer.end(root);
            check_same(pass, expected, &schedule, energy.total());
        }
    }

    let validated = tracer.span("core.context.validate", || ctx.validate_flows(flows));
    validated.map_err(|e| e.to_string())?;
    topology_probes(pass, tracer, &topo.network, topo.hosts());

    pass.common_layer_times(tracer);
    pass.layer("trace.untraced_work_s", pass.work_s);
    for (metric, span, scale) in [
        ("trace.work_s", "core.algorithm.solve", 1.0),
        ("core.relaxation.relax_s", "core.relaxation.relax", 1.0),
        ("core.dcfsr.round_ms", "core.dcfsr.round", 1e3),
        (
            "solver.decompose.decompose_ms",
            "solver.decompose.decompose",
            1e3,
        ),
        ("core.routing.route_ms", "core.routing.route", 1e3),
        ("core.dcfs.mcf_s", "core.dcfs.mcf", 1.0),
    ] {
        pass.layer_time(tracer, metric, span, scale);
    }
    pass.layer(
        "core.algorithm.self_ms",
        tracer.self_s("core.algorithm.solve") * 1e3,
    );
    Ok(())
}

/// The traced composition must be the computation `Algorithm::solve` ran.
fn check_same(pass: &mut Pass, expected: &Schedule, schedule: &Schedule, energy: f64) {
    if energy.to_bits() != pass.energy.to_bits() || schedule != expected {
        pass.errors.push(format!(
            "the traced layer calls produced energy {energy}, Algorithm::solve produced {}",
            pass.energy
        ));
    }
}
