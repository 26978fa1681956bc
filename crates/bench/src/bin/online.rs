//! `online` — event-driven online scheduling under Poisson arrivals.
//!
//! The paper's DCFSR evaluation is clairvoyant; this experiment measures
//! what the same instances cost when flows are revealed at their release
//! times. Each instance draws the paper's uniform workload, replaces its
//! release times with a Poisson arrival process at a given **load factor**
//! (expected number of flows concurrently in flight), and executes it
//! through the `dcn_core::online::OnlineEngine` — one warm
//! `SolverContext`, one `OnlinePolicy` selected by name from the
//! `PolicyRegistry` — under both admission rules. The offline clairvoyant
//! solve of the same instance is the reference, so the artifact tracks the
//! **competitive ratio** of each online policy versus offline DCFSR as a
//! function of load, alongside its re-solve count (how often the policy
//! fell back to a full Frank–Wolfe pass).
//!
//! ```text
//! cargo run --release -p dcn-bench --bin online                    # default sweep
//! cargo run --release -p dcn-bench --bin online -- --quick         # CI smoke
//! cargo run --release -p dcn-bench --bin online -- --load 0.5,2,8 --json-out
//! cargo run --release -p dcn-bench --bin online -- --policies resolve,hybrid
//! ```
//!
//! `--load` sets the swept load factors; `--flows` the workload size;
//! `--runs` the seeds per sweep point; `--policies` the compared online
//! policies (default: every registered policy); `--algorithms` selects the
//! wrapped re-solve scheduler (first name; further names are ignored here
//! — the reference is always the same algorithm with clairvoyant
//! knowledge). Unknown policy or algorithm names are usage errors.
//!
//! **`BENCH_online.json` schema:** the standard artifact (schema version
//! 1). Groups are `"<topology>|<policy>|<admission>"` (e.g.
//! `"fat-tree(k=4)|hybrid|admit-all"`), `x` is the load factor; `rs_*`
//! fields carry the **online** energies, `sp_*` the **offline
//! clairvoyant** energies, `lower_bound` the fractional LB of the
//! clairvoyant instance — so `rs_normalized / sp_normalized` is the
//! competitive ratio's decomposition against the common LB.
//! `deadline_misses` counts online misses over admitted flows. Each
//! instance's `extra` records the `OnlineReport` counters: `[["load", L],
//! ["admission", 0|1], ["events", E], ["resolves", R],
//! ["solve_failures", F], ["admitted", A], ["rejected", J], ["missed", M],
//! ["run", r]]` (admission 0 = admit-all, 1 = reject-infeasible), and —
//! only under `--timings`, because wall clock varies run to run —
//! `events_per_second` and `arrivals_per_second` throughput columns.
//! Same determinism contract as every artifact: without `--timings`,
//! fixed seed ⇒ byte-identical JSON for any `--threads`.
//!
//! Under `--quick` the sweep is followed by a throughput smoke: 100 000
//! arrivals on a fat-tree(k=16) pushed through the event loop
//! (solver-free `edf` policy, so the runtime measures the engine,
//! not Frank–Wolfe), then replayed by the simulator, which must see no
//! deadline miss, no link above capacity and the energy the engine
//! reported, to the bit. It prints its arrivals-per-second rate and the
//! replay seconds and is kept out of the JSON artifact — wall clock is not
//! deterministic.

use dcn_bench::report::{ExperimentReport, InstanceRecord};
use dcn_bench::runner::{run_indexed, timed, ExperimentCli};
use dcn_bench::{harness_fmcf_config, harness_registry, print_table, run_online_flow_set};
use dcn_core::online::{AdmissionRule, OnlineEngine, PolicyRegistry};
use dcn_core::SolverContext;
use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
use dcn_power::PowerFunction;
use dcn_sim::Simulator;
use dcn_topology::builders::{self, BuiltTopology};

/// One cell of the online sweep grid.
struct Cell {
    topology: usize,
    policy: String,
    admission: AdmissionRule,
    load: f64,
    /// Index of `load` in the swept list — the seed is derived from this
    /// (not from the float value), so arbitrary `--load` values never
    /// collide or overflow.
    load_index: u64,
    run: u64,
}

impl Cell {
    fn group(&self, topologies: &[BuiltTopology]) -> String {
        format!(
            "{}|{}|{}",
            topologies[self.topology].name,
            self.policy,
            self.admission.name()
        )
    }
}

fn main() {
    let cli = ExperimentCli::parse("online");
    let runs: u64 = cli.runs.unwrap_or(if cli.quick { 1 } else { 2 }) as u64;
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 10 } else { 20 });
    let algorithm = cli
        .algorithms
        .as_ref()
        .map(|names| names[0].clone())
        .unwrap_or_else(|| "dcfsr".to_string());
    let policy_registry = PolicyRegistry::with_defaults();
    let policy_names: Vec<String> = cli.policies.clone().unwrap_or_else(|| {
        policy_registry
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect()
    });
    let loads: Vec<f64> = cli.load.clone().unwrap_or_else(|| {
        if cli.quick {
            vec![1.0, 3.0]
        } else {
            vec![0.5, 1.0, 2.0, 4.0]
        }
    });
    let topologies: Vec<BuiltTopology> = if cli.quick {
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
    let admissions = [
        AdmissionRule::AdmitAll,
        AdmissionRule::reject_infeasible(harness_fmcf_config()),
    ];

    println!(
        "Online event-driven sweep: {algorithm} re-solves behind policies [{}] under Poisson \
         arrivals on {} ({} flows, {} run(s) per point)\n",
        policy_names.join(", "),
        topologies
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        flows,
        runs
    );

    let mut grid: Vec<Cell> = Vec::new();
    for (ti, _) in topologies.iter().enumerate() {
        for policy in &policy_names {
            for admission in &admissions {
                for (li, &load) in loads.iter().enumerate() {
                    for run in 0..runs {
                        grid.push(Cell {
                            topology: ti,
                            policy: policy.clone(),
                            admission: admission.clone(),
                            load,
                            load_index: li as u64,
                            run,
                        });
                    }
                }
            }
        }
    }

    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let registry = harness_registry();

    let (records, elapsed_seconds) = timed(|| {
        run_indexed(grid.len(), cli.threads, |i| {
            let cell = &grid[i];
            let topo = &topologies[cell.topology];
            // One seed per (load, run), shared across topologies, policies
            // and admissions so the comparison columns are like for like.
            let seed = 10_000 * (cell.load_index + 1) + cell.run;
            let base = UniformWorkload::paper_defaults(flows, seed)
                .generate(topo.hosts())
                .expect("workload generation succeeds on topologies with >= 2 hosts");
            let instance = ArrivalProcess::with_load(cell.load, seed)
                .apply(&base)
                .expect("arrival rewrite preserves validity");
            let (result, instance_seconds) = timed(|| {
                run_online_flow_set(
                    topo,
                    &instance,
                    &power,
                    seed,
                    &algorithm,
                    &cell.policy,
                    cell.admission.clone(),
                    &[],
                    &registry,
                    &policy_registry,
                )
            });
            let report = &result.outcome.report;
            let admission_code = match cell.admission {
                AdmissionRule::AdmitAll => 0.0,
                _ => 1.0,
            };
            eprintln!(
                "  [online] {}/{} {}|{}|{} load={} seed={seed}",
                i + 1,
                grid.len(),
                topo.name,
                cell.policy,
                cell.admission.name(),
                cell.load
            );
            let mut extra = vec![
                ("load".to_string(), cell.load),
                ("admission".to_string(), admission_code),
                ("events".to_string(), report.events as f64),
                ("resolves".to_string(), report.resolves as f64),
                ("solve_failures".to_string(), report.solve_failures as f64),
                ("admitted".to_string(), report.admitted() as f64),
                ("rejected".to_string(), report.rejected() as f64),
                ("missed".to_string(), report.missed() as f64),
                ("run".to_string(), cell.run as f64),
            ];
            if cli.timings {
                // Wall clock varies run to run, so this column is opt-in —
                // it intentionally breaks the byte-determinism contract,
                // exactly like the top-level wall_clock field.
                extra.push((
                    "events_per_second".to_string(),
                    report.events as f64 / instance_seconds.max(f64::MIN_POSITIVE),
                ));
                extra.push((
                    "arrivals_per_second".to_string(),
                    instance.len() as f64 / instance_seconds.max(f64::MIN_POSITIVE),
                ));
            }
            InstanceRecord {
                label: format!(
                    "{}|{}|{} load={} seed={seed}",
                    topo.name,
                    cell.policy,
                    cell.admission.name(),
                    cell.load
                ),
                flows: instance.len(),
                seed,
                alpha: power.alpha(),
                lower_bound: result.lower_bound,
                rs_energy: result.online_sim.energy,
                sp_energy: result.offline_sim.energy,
                rs_normalized: result.online_normalized(),
                sp_normalized: result.offline_normalized(),
                deadline_misses: report.missed(),
                rs_capacity_excess: result.outcome.schedule.max_capacity_excess(&power),
                rs_sim: Some(result.online_sim),
                sp_sim: Some(result.offline_sim),
                solve_wall_ms: None,
                intervals_per_second: None,
                requests_per_second: None,
                p99_latency_ms: None,
                extra,
            }
        })
    });

    let mut report = ExperimentReport::new(
        "online",
        topologies
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
    );
    report.workload = Some(UniformWorkload::paper_defaults(0, 0));
    report.instances = records;
    let coordinates: Vec<(String, f64)> = grid
        .iter()
        .map(|cell| (cell.group(&topologies), cell.load))
        .collect();
    report.aggregate_points(&coordinates);

    for topo in &topologies {
        for policy in &policy_names {
            for admission in &admissions {
                let group = format!("{}|{}|{}", topo.name, policy, admission.name());
                let rows: Vec<Vec<String>> = report
                    .points
                    .iter()
                    .filter(|p| p.group == group)
                    .map(|p| {
                        let members: Vec<&InstanceRecord> = report
                            .instances
                            .iter()
                            .zip(&coordinates)
                            .filter(|(_, (g, x))| *g == group && *x == p.x)
                            .map(|(r, _)| r)
                            .collect();
                        let mean = |key: &str| {
                            members.iter().filter_map(|r| r.extra(key)).sum::<f64>()
                                / members.len() as f64
                        };
                        vec![
                            format!("{}", p.x),
                            format!("{:.3}", p.rs),
                            format!("{:.3}", p.sp),
                            format!("{:.3}", p.rs / p.sp),
                            format!("{:.1}", mean("rejected")),
                            format!("{:.1}", mean("missed")),
                            format!("{:.1}", mean("events")),
                            format!("{:.1}", mean("resolves")),
                        ]
                    })
                    .collect();
                print_table(
                    &format!(
                        "Online {algorithm}, {} ({} / {})",
                        topo.name,
                        policy,
                        admission.name()
                    ),
                    &[
                        "load",
                        "online/LB",
                        "offline/LB",
                        "ratio",
                        "rejected",
                        "missed",
                        "events",
                        "resolves",
                    ],
                    &rows,
                );
            }
        }
    }

    println!("`ratio` is the competitive ratio: online energy / offline clairvoyant energy.");
    println!(
        "Sweep more load factors with --load a,b,... and other policies with \
         --policies a,b,... (see EXPERIMENTS.md)."
    );
    cli.emit(&report, elapsed_seconds);

    if cli.quick {
        throughput_smoke();
    }
}

/// The `--quick` throughput smoke: 100 000 Poisson arrivals on a
/// fat-tree(k=16) through the event loop. The solver-free `edf` policy
/// bounds the runtime by the engine itself rather than by Frank–Wolfe, and
/// the simulator replays the whole schedule as the end-to-end check.
/// Results go to stdout only — wall clock varies run to run, so the smoke
/// never touches the JSON artifact.
fn throughput_smoke() {
    const ARRIVALS: usize = 100_000;
    let topo = builders::fat_tree(16);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let base = UniformWorkload::paper_defaults(ARRIVALS, 42)
        .generate(topo.hosts())
        .expect("workload generation succeeds on topologies with >= 2 hosts");
    let instance = ArrivalProcess::with_load(4.0, 42)
        .apply(&base)
        .expect("arrival rewrite preserves validity");
    let mut ctx =
        SolverContext::from_network(&topo.network).expect("builder topologies always validate");
    let mut engine = OnlineEngine::builder()
        .policy("edf")
        .seed(42)
        .build()
        .expect("the smoke configuration is valid");
    let (outcome, seconds) = timed(|| {
        engine
            .run(&mut ctx, &instance, &power)
            .expect("the smoke instance runs to completion")
    });
    // The end-to-end hard-deadline check: replay what was committed.
    let report = &outcome.report;
    let (replay, replay_seconds) = timed(|| {
        Simulator::new(power).run_admitted(
            ctx.graph(),
            &instance,
            &outcome.schedule,
            &report.admitted_mask(),
        )
    });
    assert_eq!(replay.deadline_misses, 0, "the replay saw a deadline miss");
    assert_eq!(
        replay.capacity_violations, 0,
        "the replay saw a link above capacity"
    );
    assert_eq!(
        replay.energy.total().to_bits(),
        report.online_energy.to_bits(),
        "the replay measures {}, the engine reported {}",
        replay.energy.total(),
        report.online_energy
    );
    println!(
        "[online] quick smoke: {} on {} arrivals — {} events, {} missed, {:.2}s \
         ({:.0} arrivals/s), replayed in {:.2}s",
        topo.name,
        instance.len(),
        report.events,
        report.missed(),
        seconds,
        instance.len() as f64 / seconds.max(f64::MIN_POSITIVE),
        replay_seconds
    );
}
