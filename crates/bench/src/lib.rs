//! Shared harness code for the benchmark binaries that regenerate the
//! paper's evaluation (Fig. 2) and the extension experiments documented in
//! `EXPERIMENTS.md`.
//!
//! The crate is an experiment-runner subsystem in three layers:
//!
//! * **this module** — the solving primitives ([`run_flow_set_algorithms`],
//!   and [`run_online_flow_set`], which runs one instance through the
//!   online engine and solves its clairvoyant reference), the declarative
//!   [`Experiment`] descriptor (name, topologies, **algorithm list**,
//!   instance grid), and [`run_online_sweep`], the one
//!   driver of the online sweeps, to which `online` and `failures` each
//!   hand an [`OnlineSweep`] description;
//! * **[`runner`]** — the harness's one worker pool, which fans
//!   independent `(seed, flow-count)` instances out across cores, plus the
//!   [`runner::ExperimentCli`] shared by every binary;
//! * **[`report`]** — the versioned, canonical JSON artifact
//!   (`BENCH_<name>.json`) each run can be serialized to.
//!
//! Schedulers are selected **by name** through the
//! [`dcn_core::AlgorithmRegistry`] of [`harness_registry`], whose `dcfsr`
//! and `lb` relax with the coarse Frank–Wolfe configuration.
//! Every instance builds one [`SolverContext`] per solve, runs the
//! experiment's algorithm list on it — the first algorithm is the
//! **primary** (the `rs_*` artifact fields), the second the **reference**
//! (`sp_*`), any further ones land in the record's `extra` dimensions —
//! and audits each schedule ([`dcn_core::Schedule::audit`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
pub mod runner;

use std::borrow::Cow;

use dcn_core::online::{AdmissionRule, OnlineEngine, OnlineOutcome};
use dcn_core::{AlgorithmRegistry, Solution, SolverContext};
use dcn_flow::workload::UniformWorkload;
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::builders::{self, BuiltTopology};
use dcn_topology::TopologyEvent;

use report::{ExperimentReport, InstanceRecord, Refusal, SimSummary};

/// The default algorithm pair of every experiment: Random-Schedule as the
/// primary, the paper's SP+MCF baseline as the reference.
pub const DEFAULT_ALGORITHMS: [&str; 2] = ["dcfsr", "sp-mcf"];

/// [`DEFAULT_ALGORITHMS`] as owned strings (the shape
/// [`Experiment::algorithms`] stores).
pub fn default_algorithms() -> Vec<String> {
    DEFAULT_ALGORITHMS.iter().map(|s| s.to_string()).collect()
}

/// The result of one (topology, workload, power-function, seed) instance.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Number of flows in the instance.
    pub flows: usize,
    /// RNG seed of the workload.
    pub seed: u64,
    /// The speed-scaling exponent alpha of the power function.
    pub alpha: f64,
    /// The fractional lower bound LB.
    pub lower_bound: f64,
    /// Energy of the primary algorithm (absolute, audited).
    pub rs_energy: f64,
    /// Energy of the reference algorithm (absolute, audited).
    pub sp_energy: f64,
    /// Number of deadline misses the audits found (must be zero).
    pub deadline_misses: usize,
    /// Worst per-link capacity excess of the primary algorithm's schedule.
    pub rs_capacity_excess: f64,
    /// Audit digest of the primary schedule; `None` when it refused.
    pub rs_sim: Option<SimSummary>,
    /// Audit digest of the reference schedule; `None` when it refused.
    pub sp_sim: Option<SimSummary>,
    /// Audited energies of any algorithm beyond the first two that solved,
    /// as `("<name>_energy", energy)` pairs in selection order.
    pub extra_energies: Vec<(String, f64)>,
    /// The first algorithm, in selection order, that refused the instance.
    pub refusal: Option<Refusal>,
}

/// The algorithm registry of the benchmark harness: `dcfsr` and `lb` relax
/// with [`FmcfSolverConfig::coarse`].
pub fn harness_registry() -> AlgorithmRegistry {
    AlgorithmRegistry {
        fmcf: FmcfSolverConfig::coarse(),
    }
}

/// Runs one instance of an experiment on an arbitrary topology and flow
/// set, with an explicit algorithm selection.
///
/// One [`SolverContext`] is built per instance and shared by every
/// algorithm run (warm CSR view, shortest-path arenas and Frank–Wolfe
/// buffers) and by the audits. `algorithms[0]` is the
/// primary (`rs_*` fields), `algorithms[1]` the reference (`sp_*`), any
/// further names land in [`InstanceResult::extra_energies`]. The lower
/// bound is taken from the first algorithm that computes one (`dcfsr`,
/// `lb`); when none does, the `lb` algorithm is run additionally.
///
/// `seed` re-seeds every algorithm's randomness ([`dcn_core::Algorithm::set_seed`]).
///
/// An algorithm that returns an error instead of a solution (`exact` above
/// its enumeration budget) is recorded as the result's
/// [`InstanceResult::refusal`] — the first in selection order — and the
/// run goes on: a refused primary or reference reads energy `0.0` and no
/// audit digest, a refused further algorithm adds no extra energy.
///
/// # Panics
///
/// Panics when fewer than two algorithms are selected, when a name is not
/// registered, when one of the first two algorithms solves without a
/// schedule, or when a primary/reference schedule misses a deadline —
/// these are invariants of the experiments, so a violation indicates a bug
/// rather than an expected error path.
pub fn run_flow_set_algorithms(
    topo: &BuiltTopology,
    flows: &FlowSet,
    power: &PowerFunction,
    seed: u64,
    algorithms: &[String],
    registry: &AlgorithmRegistry,
) -> InstanceResult {
    assert!(
        algorithms.len() >= 2,
        "an experiment needs a primary and a reference algorithm, got {algorithms:?}"
    );
    let mut ctx =
        SolverContext::from_network(&topo.network).expect("builder topologies always validate");

    struct Ran {
        name: String,
        sim: Option<SimSummary>,
        energy: f64,
        lower_bound: Option<f64>,
        capacity_excess: f64,
        refused: bool,
    }

    let mut ran: Vec<Ran> = Vec::with_capacity(algorithms.len());
    let mut refusal = None;
    for name in algorithms {
        let mut algo = registry
            .create(name)
            .unwrap_or_else(|e| panic!("cannot select algorithm: {e}"));
        algo.set_seed(seed);
        let solution = match algo.solve(&mut ctx, flows, power) {
            Ok(solution) => solution,
            Err(e) => {
                refusal.get_or_insert_with(|| Refusal::new(name, &e));
                ran.push(Ran {
                    name: name.clone(),
                    sim: None,
                    energy: 0.0,
                    lower_bound: None,
                    capacity_excess: 0.0,
                    refused: true,
                });
                continue;
            }
        };
        match &solution.schedule {
            Some(schedule) => {
                let audit = schedule.audit(ctx.graph(), flows, power);
                ran.push(Ran {
                    name: name.clone(),
                    sim: Some(SimSummary::from(&audit)),
                    energy: audit.energy.total(),
                    lower_bound: solution.lower_bound,
                    capacity_excess: solution.diagnostics.capacity_excess.unwrap_or(0.0),
                    refused: false,
                });
            }
            None => ran.push(Ran {
                name: name.clone(),
                sim: None,
                energy: solution.lower_bound.unwrap_or(0.0),
                lower_bound: solution.lower_bound,
                capacity_excess: 0.0,
                refused: false,
            }),
        }
    }

    let lower_bound = ran
        .iter()
        .find_map(|r| r.lower_bound)
        .unwrap_or_else(|| relaxation_bound(registry, &mut ctx, flows, power));

    for (r, role) in ran.iter().zip(["primary", "reference"]) {
        assert!(
            r.sim.is_some() || r.refused,
            "the {role} algorithm must produce a schedule"
        );
        if let Some(sim) = r.sim {
            assert_eq!(
                sim.deadline_misses, 0,
                "{} must meet every deadline",
                r.name
            );
        }
    }
    let (rs_sim, sp_sim) = (ran[0].sim, ran[1].sim);

    InstanceResult {
        flows: flows.len(),
        seed,
        alpha: power.alpha(),
        lower_bound,
        rs_energy: ran[0].energy,
        sp_energy: ran[1].energy,
        deadline_misses: [rs_sim, sp_sim]
            .iter()
            .flatten()
            .map(|s| s.deadline_misses)
            .sum(),
        rs_capacity_excess: ran[0].capacity_excess,
        rs_sim,
        sp_sim,
        extra_energies: ran[2..]
            .iter()
            .filter(|r| !r.refused)
            .map(|r| (format!("{}_energy", r.name), r.energy))
            .collect(),
        refusal,
    }
}

/// The fractional lower bound of `flows`, from the registry's `lb`: the
/// normaliser when the solved algorithms compute none.
fn relaxation_bound(
    registry: &AlgorithmRegistry,
    ctx: &mut SolverContext<'_>,
    flows: &FlowSet,
    power: &PowerFunction,
) -> f64 {
    registry
        .create("lb")
        .expect("lb is always registered")
        .solve(ctx, flows, power)
        .expect("the relaxation solves on connected instances")
        .lower_bound
        .expect("lb reports a bound")
}

/// One online instance: the flows, released at their arrival times, and
/// the link failure/recovery stream merged into the run (empty on a
/// static fabric).
#[derive(Debug, Clone)]
pub struct OnlineInstance {
    /// The flow set, in the engine's arrival order (release times).
    pub flows: FlowSet,
    /// Typed failure/recovery events, in time order.
    pub events: Vec<TopologyEvent>,
}

/// The result of one online instance: the online outcome, the clairvoyant
/// reference and the artifact-ready measurements.
#[derive(Debug, Clone)]
pub struct OnlineInstanceResult {
    /// What the online loop decided and committed.
    pub outcome: OnlineOutcome,
    /// The clairvoyant reference — the same seeded algorithm solving the
    /// full instance — or its refusal.
    pub offline: Result<Solution, Refusal>,
    /// The fractional lower bound of the (clairvoyant) instance.
    pub lower_bound: f64,
    /// Audit digest of the committed online schedule (deadline misses
    /// counted over admitted flows only).
    pub online_sim: SimSummary,
    /// Audit digest of the offline clairvoyant schedule; `None` when the
    /// reference refused.
    pub offline_sim: Option<SimSummary>,
}

/// Runs one **online** instance: executes its flows and events through an
/// [`OnlineEngine`] wrapping the named algorithm of [`harness_registry`],
/// driven by the named [`dcn_core::OnlinePolicy`] under `admission`
/// ([`OnlineEngine::run_with_events`]); then solves the same instance with
/// clairvoyant knowledge — the same algorithm, created afresh and seeded
/// with `seed` — as the reference, and audits both schedules
/// ([`dcn_core::Schedule::audit`]). One [`SolverContext`] is shared by
/// every re-solve, the reference solve and both audits.
///
/// The harness never turns warm starts on, so the reference solve starts
/// cold and no cache of the online run seeds it. The engine rolls its
/// topology changes back before returning, so the reference and both
/// audits see the *pristine* fabric, and the energy gap and the
/// failure-attributed misses isolate exactly what the outages cost the
/// online loop.
///
/// The lower bound is taken from the reference solution when the algorithm
/// computes one (`dcfsr`); otherwise the `lb` algorithm is run
/// additionally. A reference solve that returns an error (`exact` above
/// its enumeration budget) is kept as the result's typed refusal.
///
/// # Panics
///
/// Panics when the algorithm or policy name is not registered, when an
/// event is malformed (non-finite time or out-of-range link), when the
/// online loop fails, or when the *clairvoyant* schedule misses a
/// deadline — offline feasibility is an invariant of the experiments;
/// online misses and rejections are data, not bugs.
pub fn run_online_flow_set(
    topo: &BuiltTopology,
    instance: &OnlineInstance,
    power: &PowerFunction,
    seed: u64,
    algorithm: &str,
    policy: &str,
    admission: AdmissionRule,
) -> OnlineInstanceResult {
    let (flows, registry) = (&instance.flows, harness_registry());
    let mut ctx =
        SolverContext::from_network(&topo.network).expect("builder topologies always validate");
    let create = || {
        registry
            .create(algorithm)
            .unwrap_or_else(|e| panic!("cannot select algorithm: {e}"))
    };
    let outcome = OnlineEngine::builder()
        .algorithm_instance(create())
        .policy(policy)
        .admission(admission)
        .seed(seed)
        .build()
        .unwrap_or_else(|e| panic!("cannot configure the online engine: {e}"))
        .run_with_events(&mut ctx, flows, power, &instance.events)
        .unwrap_or_else(|e| panic!("{algorithm} must run connected online instances: {e}"));

    let mut reference = create();
    reference.set_seed(seed);
    let offline = reference
        .solve(&mut ctx, flows, power)
        .map_err(|e| Refusal::new(algorithm, &e));
    let lower_bound = offline
        .as_ref()
        .ok()
        .and_then(|offline| offline.lower_bound)
        .unwrap_or_else(|| relaxation_bound(&registry, &mut ctx, flows, power));

    let online_audit = outcome.schedule.audit(ctx.graph(), flows, power);
    let online_sim = SimSummary {
        deadline_misses: online_audit.misses_among(&outcome.report.admitted_mask()),
        ..SimSummary::from(&online_audit)
    };
    let offline_sim = offline.as_ref().ok().map(|offline| {
        let schedule = offline
            .schedule
            .as_ref()
            .expect("the clairvoyant reference produces a schedule");
        let sim = SimSummary::from(&schedule.audit(ctx.graph(), flows, power));
        assert_eq!(
            sim.deadline_misses, 0,
            "{algorithm} must meet every deadline with clairvoyant knowledge"
        );
        sim
    });
    OnlineInstanceResult {
        outcome,
        offline,
        lower_bound,
        online_sim,
        offline_sim,
    }
}

/// What an online sweep varies: `online` sweeps the arrival load,
/// `failures` the link failure rate at one load. [`run_online_sweep`]
/// owns everything else.
#[derive(Debug, Clone)]
pub struct OnlineSweep {
    /// Experiment name: names the artifact, tags the progress lines and,
    /// capitalised, opens every table title.
    pub name: &'static str,
    /// The headline's opening words (`"Online event-driven sweep"`).
    pub headline: &'static str,
    /// What the headline says of the instances after "under Poisson
    /// arrivals" (empty when the arrivals say it all).
    pub setting: String,
    /// Name of the swept axis: the first table column, the label's
    /// `<axis>=<x>` and the `extra` key holding `x`.
    pub axis: &'static str,
    /// The swept values, in order.
    pub xs: Vec<f64>,
    /// The compared policies when `--policies` is not given.
    pub policies: Vec<String>,
    /// The record's `extra` keys, in order (the names
    /// [`run_online_sweep`] knows, the axis, or a key of `fixed`).
    pub extra: Vec<&'static str>,
    /// Sweep-wide `extra` dimensions, by key.
    pub fixed: Vec<(&'static str, f64)>,
    /// The table columns after the energies and their ratio: `(header,
    /// extra key)`, each the key's mean over a point's runs.
    pub columns: Vec<(&'static str, &'static str)>,
}

/// One cell of an online sweep's grid.
struct SweepCell<'a> {
    topology: usize,
    policy: &'a str,
    admission: AdmissionRule,
    /// Index of the cell's `x` — the seed derives from it, not from the
    /// float, so arbitrary values never collide or overflow.
    x_index: usize,
    run: u64,
}

/// Runs an online sweep and prints its tables: every topology × policy ×
/// admission rule × `x` × run cell, fanned out over [`runner::run_indexed`]
/// and assembled into the artifact (one [`InstanceRecord`] per cell, in
/// grid order). `instance` turns a cell's topology, uniform base workload,
/// `x` and seed into what the cell runs ([`run_online_flow_set`], on
/// `x^2` links of capacity 10).
///
/// The seed is `10_000 * (x index + 1) + run`, shared across topologies,
/// policies and admissions so the comparison columns are like for like.
/// The record's `rs_*` fields are the online run, `sp_*` the clairvoyant
/// reference. The `extra` keys it knows are the engine's counters
/// (`events`, `topology_events`, `resolves`, `solve_failures`,
/// `admitted`, `rejected`, `missed`, `failure_missed`), `admission`
/// (0 = admit-all, 1 = reject-infeasible), `link_downs` (the instance's
/// `LinkDown` events) and `run`.
///
/// The caller prints its notes and emits the returned report.
///
/// # Panics
///
/// Panics on an `extra` key it does not know, and where
/// [`run_online_flow_set`] does.
pub fn run_online_sweep(
    cli: &runner::ExperimentCli,
    sweep: &OnlineSweep,
    instance: impl Fn(&BuiltTopology, &FlowSet, f64, u64) -> OnlineInstance + Sync,
) -> RunOutcome {
    let runs = cli.runs.unwrap_or(if cli.quick { 1 } else { 2 }) as u64;
    let flows = cli.flows.unwrap_or(if cli.quick { 10 } else { 20 });
    let algorithm = cli.algorithms.as_ref().map_or("dcfsr", |names| &names[0]);
    let policies = cli.policies.as_ref().unwrap_or(&sweep.policies);
    let topologies = if cli.quick {
        vec![builders::fat_tree(4)]
    } else if cli.full {
        vec![
            builders::fat_tree(4),
            builders::leaf_spine(4, 2, 6),
            builders::fat_tree(8),
        ]
    } else {
        vec![builders::fat_tree(4), builders::leaf_spine(4, 2, 6)]
    };
    let names = topologies
        .iter()
        .map(|t| t.name.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    let admissions = [AdmissionRule::AdmitAll, AdmissionRule::RejectInfeasible];
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    println!(
        "{}: {algorithm} re-solves behind policies [{}] under Poisson arrivals{} on {names} \
         ({flows} flows, {runs} run(s) per point)\n",
        sweep.headline,
        policies.join(", "),
        sweep.setting,
    );

    let group = |cell: &SweepCell| {
        let topo = &topologies[cell.topology].name;
        format!("{topo}|{}|{}", cell.policy, cell.admission.name())
    };
    let mut grid = Vec::new();
    for topology in 0..topologies.len() {
        for policy in policies {
            for admission in admissions {
                for x_index in 0..sweep.xs.len() {
                    for run in 0..runs {
                        grid.push(SweepCell {
                            topology,
                            policy,
                            admission,
                            x_index,
                            run,
                        });
                    }
                }
            }
        }
    }

    let (records, elapsed_seconds) = runner::timed(|| {
        runner::run_indexed(grid.len(), cli.threads, |i| {
            let cell = &grid[i];
            let topo = &topologies[cell.topology];
            let x = sweep.xs[cell.x_index];
            let seed = 10_000 * (cell.x_index as u64 + 1) + cell.run;
            let base = UniformWorkload::paper_defaults(flows, seed)
                .generate(topo.hosts())
                .expect("workload generation succeeds on topologies with >= 2 hosts");
            let instance = instance(topo, &base, x, seed);
            let result = run_online_flow_set(
                topo,
                &instance,
                &power,
                seed,
                algorithm,
                cell.policy,
                cell.admission,
            );
            let label = format!("{} {}={x} seed={seed}", group(cell), sweep.axis);
            eprintln!("  [{}] {}/{} {label}", sweep.name, i + 1, grid.len());
            if let Err(Refusal { algorithm, reason }) = &result.offline {
                eprintln!("  [{}] {algorithm} refused: {reason}", sweep.name);
            }
            let report = &result.outcome.report;
            let value = |key: &str| match key {
                key if key == sweep.axis => x,
                "admission" => match cell.admission {
                    AdmissionRule::AdmitAll => 0.0,
                    AdmissionRule::RejectInfeasible => 1.0,
                },
                "events" => report.events as f64,
                "topology_events" => report.topology_events as f64,
                "link_downs" => instance.events.iter().filter(|e| e.is_down()).count() as f64,
                "resolves" => report.resolves as f64,
                "solve_failures" => report.solve_failures as f64,
                "admitted" => report.admitted() as f64,
                "rejected" => report.rejected() as f64,
                "missed" => report.missed() as f64,
                "failure_missed" => report.failure_missed() as f64,
                "run" => cell.run as f64,
                other => match sweep.fixed.iter().find(|(key, _)| *key == other) {
                    Some(&(_, value)) => value,
                    None => panic!("[{}] no extra dimension named {other:?}", sweep.name),
                },
            };
            let reference_energy = result.offline_sim.map_or(0.0, |sim| sim.energy);
            InstanceRecord {
                label,
                flows: instance.flows.len(),
                seed,
                alpha: power.alpha(),
                lower_bound: result.lower_bound,
                rs_energy: result.online_sim.energy,
                sp_energy: reference_energy,
                rs_normalized: result.online_sim.energy / result.lower_bound,
                sp_normalized: reference_energy / result.lower_bound,
                deadline_misses: report.missed(),
                rs_capacity_excess: result
                    .outcome
                    .schedule
                    .max_capacity_excess(&topo.network, &power),
                rs_sim: Some(result.online_sim),
                sp_sim: result.offline_sim,
                extra: sweep
                    .extra
                    .iter()
                    .map(|&key| (key.to_string(), value(key)))
                    .collect(),
                refusal: result.offline.err(),
            }
        })
    });

    let coordinates: Vec<(String, f64)> = grid
        .iter()
        .map(|cell| (group(cell), sweep.xs[cell.x_index]))
        .collect();
    let report = ExperimentReport::assemble(
        sweep.name,
        names,
        Some(UniformWorkload::paper_defaults(0, 0)),
        records,
        &coordinates,
    );

    let title = sweep.name[..1].to_uppercase() + &sweep.name[1..];
    let mut header = vec![sweep.axis, "online/LB", "offline/LB", "ratio"];
    header.extend(sweep.columns.iter().map(|&(name, _)| name));
    // One table per group, in grid order: the cells of its first point.
    for cell in grid.iter().filter(|c| c.x_index == 0 && c.run == 0) {
        let group = group(cell);
        let rows: Vec<Vec<String>> = report
            .points
            .iter()
            .filter(|p| p.group == group)
            .map(|p| {
                let mut row = vec![
                    format!("{}", p.x),
                    format!("{:.3}", p.rs),
                    format!("{:.3}", p.sp),
                    format!("{:.3}", p.rs / p.sp),
                ];
                row.extend(sweep.columns.iter().map(|&(_, key)| {
                    let mean = report.mean_extra(&coordinates, &group, p.x, key);
                    format!("{mean:.1}")
                }));
                row
            })
            .collect();
        let (topo, admission) = (&topologies[cell.topology].name, cell.admission.name());
        print_table(
            &format!(
                "{title} {algorithm}, {topo} ({} / {admission})",
                cell.policy
            ),
            &header,
            &rows,
        );
    }
    RunOutcome {
        report,
        elapsed_seconds,
    }
}

/// The two power functions of the paper's Fig. 2: `x^2` and `x^4` on links
/// of capacity 10 (the builders' default).
pub fn fig2_power_functions() -> Vec<PowerFunction> {
    vec![
        PowerFunction::speed_scaling_only(1.0, 2.0, dcn_topology::builders::DEFAULT_CAPACITY),
        PowerFunction::speed_scaling_only(1.0, 4.0, dcn_topology::builders::DEFAULT_CAPACITY),
    ]
}

/// Prints an experiment table row-by-row in a fixed-width format shared by
/// all binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!();
}

/// The flows one experiment instance solves.
#[derive(Debug, Clone)]
pub enum InstanceInput {
    /// Draw `flows` flows from [`UniformWorkload::paper_defaults`], seeded
    /// with the instance's seed.
    Uniform {
        /// Number of flows to draw.
        flows: usize,
    },
    /// Solve an explicit, pre-built flow set (used by the ablations that
    /// post-process the workload, e.g. interval quantisation).
    Explicit(FlowSet),
}

/// One cell of an experiment's instance grid.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Series the instance belongs to (one table per group, e.g. `"x^2"`).
    pub group: String,
    /// Sweep coordinate within the group (flow count, alpha, grain, ...).
    pub x: f64,
    /// Index into the experiment's topology list.
    pub topology: usize,
    /// The power function of this instance.
    pub power: PowerFunction,
    /// The flows to solve.
    pub input: InstanceInput,
    /// Seed for workload generation and randomized rounding.
    pub seed: u64,
    /// Experiment-specific dimensions recorded verbatim in the artifact.
    pub extra: Vec<(String, f64)>,
}

/// A declarative experiment: a name, the topologies it runs on, the
/// algorithms to compare, and the grid of instances to solve.
///
/// [`Experiment::run`] fans the grid out over [`runner::run_indexed`] —
/// every instance is an independent, internally seeded unit of work — and
/// assembles the [`ExperimentReport`] artifact with one [`InstanceRecord`]
/// per instance (in grid order) plus the `(group, x)`-averaged sweep
/// points. The artifact is byte-identical for a fixed grid regardless of
/// the thread count.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment name (also names the default `BENCH_<name>.json`).
    pub name: String,
    /// The topologies instances reference by index.
    pub topologies: Vec<BuiltTopology>,
    /// Registry names of the algorithms every instance runs, in order:
    /// primary, reference, extras. Defaults to [`DEFAULT_ALGORITHMS`];
    /// overridden by the `--algorithms` CLI selector.
    pub algorithms: Vec<String>,
    /// The instance grid, in deterministic order.
    pub instances: Vec<InstanceSpec>,
}

/// The outcome of [`Experiment::run`]: the artifact plus the measured
/// wall-clock, which only the stderr summary of
/// [`runner::ExperimentCli::emit`] prints.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The assembled report.
    pub report: ExperimentReport,
    /// Wall-clock of the whole run in seconds.
    pub elapsed_seconds: f64,
}

impl Experiment {
    /// Creates an experiment with an empty instance grid and the default
    /// algorithm pair.
    pub fn new(name: impl Into<String>, topologies: Vec<BuiltTopology>) -> Self {
        Self {
            name: name.into(),
            topologies,
            algorithms: default_algorithms(),
            instances: Vec::new(),
        }
    }

    /// Appends one instance to the grid.
    pub fn push(&mut self, spec: InstanceSpec) {
        self.instances.push(spec);
    }

    /// Solves the whole grid on `threads` workers and assembles the
    /// artifact.
    ///
    /// # Panics
    ///
    /// Panics when an algorithm name is not registered in
    /// [`harness_registry`], when an instance references a topology index
    /// out of range, when workload generation fails, or when a scheduler
    /// violates its invariants (see [`run_flow_set_algorithms`]).
    pub fn run(&self, threads: usize) -> RunOutcome {
        let registry = harness_registry();
        for name in &self.algorithms {
            registry
                .create(name)
                .unwrap_or_else(|e| panic!("[{}] {e}", self.name));
        }
        let total = self.instances.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        let (results, elapsed_seconds) = runner::timed(|| {
            runner::run_indexed(total, threads, |i| {
                let result = self.solve(i, &registry);
                let spec = &self.instances[i];
                let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                eprintln!(
                    "  [{}] {n}/{total} {} x={} seed={}",
                    self.name, spec.group, spec.x, spec.seed
                );
                if let Some(Refusal { algorithm, reason }) = &result.refusal {
                    eprintln!("  [{}] {algorithm} refused: {reason}", self.name);
                }
                result
            })
        });
        // Record the workload template the uniform instances were drawn
        // from (num_flows/seed are the per-instance values, so the
        // template's own values for those two fields are zeroed).
        let workload = self
            .instances
            .iter()
            .any(|s| matches!(s.input, InstanceInput::Uniform { .. }))
            .then(|| UniformWorkload::paper_defaults(0, 0));
        let (records, coordinates): (Vec<_>, Vec<_>) = self
            .instances
            .iter()
            .zip(&results)
            .map(|(spec, result)| (self.record(spec, result), (spec.group.clone(), spec.x)))
            .unzip();
        RunOutcome {
            report: ExperimentReport::assemble(
                &self.name,
                self.topology_description(),
                workload,
                records,
                &coordinates,
            ),
            elapsed_seconds,
        }
    }

    /// Solves the `i`-th instance of the grid.
    fn solve(&self, i: usize, registry: &AlgorithmRegistry) -> InstanceResult {
        let spec = &self.instances[i];
        let topo = &self.topologies[spec.topology];
        let flow_set = match &spec.input {
            InstanceInput::Uniform { flows } => Cow::Owned(
                UniformWorkload::paper_defaults(*flows, spec.seed)
                    .generate(topo.hosts())
                    .expect("workload generation succeeds on topologies with >= 2 hosts"),
            ),
            InstanceInput::Explicit(flow_set) => Cow::Borrowed(flow_set),
        };
        run_flow_set_algorithms(
            topo,
            &flow_set,
            &spec.power,
            spec.seed,
            &self.algorithms,
            registry,
        )
    }

    /// Builds the artifact record of one solved instance; energies of
    /// algorithms beyond the primary/reference pair are appended to the
    /// record's `extra` dimensions.
    fn record(&self, spec: &InstanceSpec, result: &InstanceResult) -> InstanceRecord {
        let mut extra = spec.extra.clone();
        extra.extend(result.extra_energies.iter().cloned());
        InstanceRecord {
            label: format!("{} x={} seed={}", spec.group, spec.x, spec.seed),
            flows: result.flows,
            seed: result.seed,
            alpha: result.alpha,
            lower_bound: result.lower_bound,
            rs_energy: result.rs_energy,
            sp_energy: result.sp_energy,
            rs_normalized: result.rs_energy / result.lower_bound,
            sp_normalized: result.sp_energy / result.lower_bound,
            deadline_misses: result.deadline_misses,
            rs_capacity_excess: result.rs_capacity_excess,
            rs_sim: result.rs_sim,
            sp_sim: result.sp_sim,
            extra,
            refusal: result.refusal.clone(),
        }
    }

    /// Human-readable list of the topologies in use.
    fn topology_description(&self) -> String {
        self.topologies
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    #[test]
    fn default_algorithm_pair_produces_sane_numbers() {
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = UniformWorkload::paper_defaults(15, 3)
            .generate(topo.hosts())
            .unwrap();
        let r = run_flow_set_algorithms(
            &topo,
            &flows,
            &power,
            3,
            &default_algorithms(),
            &harness_registry(),
        );
        assert_eq!(r.flows, 15);
        assert!(r.lower_bound > 0.0);
        assert!(r.rs_energy >= r.lower_bound - 1e-6);
        assert!(r.sp_energy >= r.lower_bound - 1e-6);
        assert!(r.rs_energy / r.lower_bound >= 1.0 - 1e-9);
        assert!(r.sp_energy / r.lower_bound >= 1.0 - 1e-9);
        assert_eq!(r.deadline_misses, 0);
        assert!(r.extra_energies.is_empty());
    }

    #[test]
    fn extra_algorithms_land_in_extra_energies() {
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = UniformWorkload::paper_defaults(12, 3)
            .generate(topo.hosts())
            .unwrap();
        let names: Vec<String> = ["dcfsr", "sp-mcf", "ecmp", "least-loaded"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let r = run_flow_set_algorithms(&topo, &flows, &power, 3, &names, &harness_registry());
        assert_eq!(r.extra_energies.len(), 2);
        assert_eq!(r.extra_energies[0].0, "ecmp_energy");
        assert_eq!(r.extra_energies[1].0, "least-loaded_energy");
        for (_, energy) in &r.extra_energies {
            assert!(*energy >= r.lower_bound - 1e-6);
        }
    }

    /// `exact` above its enumeration budget is a typed refusal in the
    /// record, not a panic: as the reference, as a further algorithm and
    /// as the primary; the report skips the refused instances' points and
    /// round-trips, and an instance `exact` does solve keeps a point.
    #[test]
    fn a_refusing_algorithm_is_recorded_not_fatal() {
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = UniformWorkload::paper_defaults(20, 3)
            .generate(topo.hosts())
            .unwrap();
        let registry = harness_registry();
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let r = run_flow_set_algorithms(
            &topo,
            &flows,
            &power,
            3,
            &names(&["dcfsr", "exact"]),
            &registry,
        );
        let refusal = r.refusal.expect("exact refuses 20 flows");
        assert_eq!(refusal.algorithm, "exact");
        assert!(refusal.reason.contains("budget"), "{}", refusal.reason);
        assert!(r.rs_sim.is_some() && r.sp_sim.is_none());
        assert_eq!(r.sp_energy, 0.0);

        let r = run_flow_set_algorithms(
            &topo,
            &flows,
            &power,
            3,
            &names(&["exact", "sp-mcf", "exact", "ecmp"]),
            &registry,
        );
        assert_eq!(r.refusal.unwrap().algorithm, "exact");
        assert!(r.rs_sim.is_none() && r.sp_sim.is_some());
        assert_eq!(r.extra_energies.len(), 1);
        assert_eq!(r.extra_energies[0].0, "ecmp_energy");

        let mut exp = Experiment::new("unit", vec![topo]);
        exp.algorithms = names(&["dcfsr", "exact"]);
        for n in [3usize, 20] {
            exp.push(InstanceSpec {
                group: "g".to_string(),
                x: n as f64,
                topology: 0,
                power,
                input: InstanceInput::Uniform { flows: n },
                seed: 3,
                extra: Vec::new(),
            });
        }
        let report = exp.run(1).report;
        assert!(report.instances[0].refusal.is_none());
        assert!(report.instances[1].refusal.is_some());
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].x, 3.0);
        let text = report.to_json();
        assert_eq!(ExperimentReport::from_json(&text).unwrap().to_json(), text);
    }

    #[test]
    fn reference_only_selection_still_gets_a_lower_bound() {
        // Neither sp-mcf nor ecmp computes LB as a by-product; the harness
        // must fall back to the lb algorithm.
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = UniformWorkload::paper_defaults(10, 5)
            .generate(topo.hosts())
            .unwrap();
        let names: Vec<String> = ["sp-mcf", "ecmp"].iter().map(|s| s.to_string()).collect();
        let r = run_flow_set_algorithms(&topo, &flows, &power, 5, &names, &harness_registry());
        assert!(r.lower_bound > 0.0);
        assert!(r.rs_energy >= r.lower_bound - 1e-6);
    }

    fn static_instance(flows: FlowSet) -> OnlineInstance {
        OnlineInstance {
            flows,
            events: Vec::new(),
        }
    }

    #[test]
    fn online_instance_produces_sane_numbers() {
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let base = UniformWorkload::paper_defaults(12, 6)
            .generate(topo.hosts())
            .unwrap();
        let flows = dcn_flow::workload::ArrivalProcess::with_load(2.0, 6)
            .apply(&base)
            .unwrap();
        let r = run_online_flow_set(
            &topo,
            &static_instance(flows),
            &power,
            6,
            "dcfsr",
            "resolve",
            AdmissionRule::AdmitAll,
        );
        assert!(r.lower_bound > 0.0);
        assert_eq!(r.outcome.report.admitted(), 12);
        assert!(r.outcome.report.resolves >= 1);
        let offline_sim = r.offline_sim.unwrap();
        assert!(r.online_sim.energy / r.lower_bound >= 1.0 - 1e-9);
        assert!(offline_sim.energy / r.lower_bound >= 1.0 - 1e-9);
        assert_eq!(offline_sim.deadline_misses, 0);
        // The engine's and the reference's energies agree with their
        // replays up to the analytic/simulated agreement.
        let offline = r.offline.unwrap().total_energy().unwrap();
        let ratio = r.outcome.report.online_energy / offline;
        let simulated = r.online_sim.energy / offline_sim.energy;
        assert!((ratio - simulated).abs() < 1e-6 * (1.0 + simulated));
    }

    #[test]
    fn online_instance_with_full_knowledge_matches_offline_exactly() {
        // All flows released together: the online run is the offline run.
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = UniformWorkload::paper_defaults(10, 3)
            .generate(topo.hosts())
            .unwrap();
        let zeroed = FlowSet::from_flows(
            flows
                .iter()
                .map(|f| {
                    dcn_flow::Flow::new(f.id, f.src, f.dst, 1.0, f.deadline, f.volume).unwrap()
                })
                .collect(),
        )
        .unwrap();
        let r = run_online_flow_set(
            &topo,
            &static_instance(zeroed),
            &power,
            3,
            "dcfsr",
            "resolve",
            AdmissionRule::AdmitAll,
        );
        assert_eq!(r.outcome.report.events, 1);
        assert_eq!(r.outcome.report.resolves, 1);
        assert_eq!(
            r.outcome.report.online_energy.to_bits(),
            r.offline.unwrap().total_energy().unwrap().to_bits()
        );
        assert_eq!(r.online_sim.energy, r.offline_sim.unwrap().energy);
    }

    #[test]
    fn experiment_grid_runs_and_aggregates() {
        let mut exp = Experiment::new("unit", vec![builders::fat_tree(4)]);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        for flows in [8usize, 12] {
            for run in 0..2u64 {
                exp.push(InstanceSpec {
                    group: "x^2".to_string(),
                    x: flows as f64,
                    topology: 0,
                    power,
                    input: InstanceInput::Uniform { flows },
                    seed: 100 * flows as u64 + run,
                    extra: vec![("run".to_string(), run as f64)],
                });
            }
        }
        let outcome = exp.run(1);
        let report = &outcome.report;
        report.validate().expect("artifact validates");
        assert_eq!(report.instances.len(), 4);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[0].runs, 2);
        assert_eq!(report.topology, "fat-tree(k=4)");
        let template = report.workload.as_ref().expect("uniform template recorded");
        assert_eq!(template.num_flows, 0, "per-instance override is zeroed");
        assert_eq!(template.horizon_end, 100.0);
        assert!(report.points.iter().all(|p| p.rs >= 1.0 - 1e-9));
        assert!(report
            .instances
            .iter()
            .all(|r| r.rs_sim.expect("simulated").all_good()));
        assert!(outcome.elapsed_seconds >= 0.0);
    }

    #[test]
    fn experiment_report_is_thread_count_invariant() {
        let mut exp = Experiment::new("unit", vec![builders::fat_tree(4)]);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        for run in 0..3u64 {
            exp.push(InstanceSpec {
                group: "x^2".to_string(),
                x: 10.0,
                topology: 0,
                power,
                input: InstanceInput::Uniform { flows: 10 },
                seed: run,
                extra: vec![],
            });
        }
        let serial = exp.run(1).report.to_json();
        let parallel = exp.run(3).report.to_json();
        assert_eq!(serial, parallel, "JSON must not depend on --threads");
    }

    #[test]
    fn experiment_with_algorithm_selection_records_extras() {
        let mut exp = Experiment::new("unit", vec![builders::fat_tree(4)]);
        exp.algorithms = vec![
            "dcfsr".to_string(),
            "sp-mcf".to_string(),
            "greedy".to_string(),
        ];
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        exp.push(InstanceSpec {
            group: "x^2".to_string(),
            x: 10.0,
            topology: 0,
            power,
            input: InstanceInput::Uniform { flows: 10 },
            seed: 4,
            extra: vec![("run".to_string(), 0.0)],
        });
        let outcome = exp.run(1);
        let record = &outcome.report.instances[0];
        assert_eq!(record.extra("run"), Some(0.0));
        let greedy = record.extra("greedy_energy").expect("greedy recorded");
        assert!(greedy >= record.lower_bound - 1e-6);
        outcome.report.validate().expect("artifact validates");
    }

    #[test]
    #[should_panic(expected = "no algorithm named")]
    fn unknown_algorithm_name_fails_fast() {
        let mut exp = Experiment::new("unit", vec![builders::fat_tree(4)]);
        exp.algorithms = vec!["dcfsr".to_string(), "frobnicate".to_string()];
        exp.run(1);
    }

    #[test]
    fn fig2_power_functions_match_the_paper() {
        let p = fig2_power_functions();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].alpha(), 2.0);
        assert_eq!(p[1].alpha(), 4.0);
        assert_eq!(p[0].sigma(), 0.0);
    }
}
