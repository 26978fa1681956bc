//! `failures` — online scheduling under link failures and recoveries.
//!
//! The paper's fabric is static; this experiment measures how the online
//! engine degrades when links fail and recover while flows are in flight.
//! Each instance draws the paper's uniform workload, rewrites its release
//! times with a Poisson arrival process, replaces its volumes with the
//! heavy-tailed **websearch** empirical size distribution
//! (`dcn_flow::workload::SizeDistribution`, rescaled to the base mean so
//! load factors stay comparable), and drives it through
//! `OnlineEngine::run_vs_offline_with_events` together with a seeded
//! alternating-renewal failure stream
//! (`dcn_flow::failure::FailureProcess`). The swept **failure rate** is
//! `1 / mean_uptime` — failures per link per unit time — with `0` as the
//! static baseline point; `--downtime` fixes the mean outage length. The
//! clairvoyant offline reference solves the same instance on the
//! *pristine* fabric, so the competitive ratio and the failure-attributed
//! deadline misses isolate exactly what the outages cost.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin failures                 # default sweep
//! cargo run --release -p dcn-bench --bin failures -- --quick      # CI smoke
//! cargo run --release -p dcn-bench --bin failures -- --rates 0,0.02,0.1 --json-out
//! cargo run --release -p dcn-bench --bin failures -- --downtime 5 --policies hybrid
//! ```
//!
//! `--rates` sets the swept failure rates; `--downtime` the mean outage
//! duration; `--load` the (single) arrival load factor; `--flows`,
//! `--runs`, `--policies` and `--algorithms` behave exactly as in the
//! `online` binary.
//!
//! **`BENCH_failures.json` schema:** the standard artifact (current
//! schema version). Groups are `"<topology>|<policy>|<admission>"`, `x` is the
//! failure rate; `rs_*` fields carry the **online** energies under
//! failures, `sp_*` the **offline clairvoyant** energies on the pristine
//! fabric, `lower_bound` the fractional LB — so `rs_normalized /
//! sp_normalized` is the competitive ratio including the failure cost.
//! `deadline_misses` counts online misses over admitted flows. Each
//! instance's `extra` records `[["rate", F], ["admission", 0|1],
//! ["events", E], ["topology_events", T], ["link_downs", D],
//! ["resolves", R], ["solve_failures", S], ["admitted", A],
//! ["rejected", J], ["missed", M], ["failure_missed", FM], ["load", L],
//! ["run", r]]`. Same determinism contract as every artifact: the failure
//! stream is a pure function of the seed (per-link derived RNG streams),
//! so without `--timings`, fixed seed ⇒ byte-identical JSON for any
//! `--threads`.

use dcn_bench::report::{ExperimentReport, InstanceRecord};
use dcn_bench::runner::{run_indexed, timed, ExperimentCli};
use dcn_bench::{harness_fmcf_config, harness_registry, print_table, run_online_flow_set};
use dcn_core::online::{AdmissionRule, PolicyRegistry};
use dcn_flow::failure::FailureProcess;
use dcn_flow::workload::{ArrivalProcess, SizeDistribution, UniformWorkload};
use dcn_power::PowerFunction;
use dcn_topology::builders::{self, BuiltTopology};
use dcn_topology::TopologyEvent;

/// One cell of the failure sweep grid.
struct Cell {
    topology: usize,
    policy: String,
    admission: AdmissionRule,
    /// Failure rate in failures per link per unit time (`0` = static).
    rate: f64,
    /// Index of `rate` in the swept list — the seed is derived from this
    /// (not from the float value), so arbitrary `--rates` values never
    /// collide or overflow.
    rate_index: u64,
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
    let cli = ExperimentCli::parse("failures");
    let runs: u64 = cli.runs.unwrap_or(if cli.quick { 1 } else { 2 }) as u64;
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 10 } else { 20 });
    let load: f64 = cli.load.as_ref().map(|loads| loads[0]).unwrap_or(2.0);
    let downtime: f64 = cli.downtime.unwrap_or(1.0);
    let algorithm = cli
        .algorithms
        .as_ref()
        .map(|names| names[0].clone())
        .unwrap_or_else(|| "dcfsr".to_string());
    let policy_registry = PolicyRegistry::with_defaults();
    let policy_names: Vec<String> = cli.policies.clone().unwrap_or_else(|| {
        if cli.quick {
            vec!["resolve".to_string()]
        } else {
            vec!["resolve".to_string(), "hybrid".to_string()]
        }
    });
    let rates: Vec<f64> = cli.rates.clone().unwrap_or_else(|| {
        if cli.quick {
            vec![0.0, 0.05]
        } else {
            vec![0.0, 0.01, 0.03, 0.1]
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
        "Failure/recovery sweep: {algorithm} re-solves behind policies [{}] under Poisson \
         arrivals (load {load}, websearch sizes) with exponential outages (mean downtime \
         {downtime}) on {} ({} flows, {} run(s) per point)\n",
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
                for (ri, &rate) in rates.iter().enumerate() {
                    for run in 0..runs {
                        grid.push(Cell {
                            topology: ti,
                            policy: policy.clone(),
                            admission: admission.clone(),
                            rate,
                            rate_index: ri as u64,
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
            // One seed per (rate, run), shared across topologies, policies
            // and admissions so the comparison columns are like for like.
            let seed = 10_000 * (cell.rate_index + 1) + cell.run;
            let base = UniformWorkload::paper_defaults(flows, seed)
                .generate(topo.hosts())
                .expect("workload generation succeeds on topologies with >= 2 hosts");
            let instance = ArrivalProcess::with_load(load, seed)
                .sizes(SizeDistribution::WebSearch)
                .apply(&base)
                .expect("arrival rewrite preserves validity");
            // The failure stream covers the whole instance horizon. Rate 0
            // is the static baseline: no process, no events.
            let events: Vec<TopologyEvent> = if cell.rate > 0.0 {
                let (_, horizon_end) = instance.horizon();
                FailureProcess::new(1.0 / cell.rate, downtime, seed)
                    .generate(topo.network.link_count(), horizon_end)
            } else {
                Vec::new()
            };
            let link_downs = events.iter().filter(|e| e.is_down()).count();
            let result = run_online_flow_set(
                topo,
                &instance,
                &power,
                seed,
                &algorithm,
                &cell.policy,
                cell.admission.clone(),
                &events,
                &registry,
                &policy_registry,
            );
            let report = &result.outcome.report;
            let admission_code = match cell.admission {
                AdmissionRule::AdmitAll => 0.0,
                _ => 1.0,
            };
            eprintln!(
                "  [failures] {}/{} {}|{}|{} rate={} seed={seed} ({} topology event(s))",
                i + 1,
                grid.len(),
                topo.name,
                cell.policy,
                cell.admission.name(),
                cell.rate,
                events.len()
            );
            let extra = vec![
                ("rate".to_string(), cell.rate),
                ("admission".to_string(), admission_code),
                ("events".to_string(), report.events as f64),
                ("topology_events".to_string(), report.topology_events as f64),
                ("link_downs".to_string(), link_downs as f64),
                ("resolves".to_string(), report.resolves as f64),
                ("solve_failures".to_string(), report.solve_failures as f64),
                ("admitted".to_string(), report.admitted() as f64),
                ("rejected".to_string(), report.rejected() as f64),
                ("missed".to_string(), report.missed() as f64),
                ("failure_missed".to_string(), report.failure_missed() as f64),
                ("load".to_string(), load),
                ("run".to_string(), cell.run as f64),
            ];
            InstanceRecord {
                label: format!(
                    "{}|{}|{} rate={} seed={seed}",
                    topo.name,
                    cell.policy,
                    cell.admission.name(),
                    cell.rate
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
        "failures",
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
        .map(|cell| (cell.group(&topologies), cell.rate))
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
                            format!("{:.1}", mean("link_downs")),
                            format!("{:.1}", mean("missed")),
                            format!("{:.1}", mean("failure_missed")),
                            format!("{:.1}", mean("rejected")),
                        ]
                    })
                    .collect();
                print_table(
                    &format!(
                        "Failures {algorithm}, {} ({} / {})",
                        topo.name,
                        policy,
                        admission.name()
                    ),
                    &[
                        "rate",
                        "online/LB",
                        "offline/LB",
                        "ratio",
                        "downs",
                        "missed",
                        "fail-missed",
                        "rejected",
                    ],
                    &rows,
                );
            }
        }
    }

    println!(
        "`fail-missed` counts deadline misses attributed to link failures (a subset of \
         `missed`); `ratio` is online energy / offline clairvoyant energy on the pristine \
         fabric."
    );
    println!(
        "Sweep other failure rates with --rates a,b,... and outage lengths with \
         --downtime D (see EXPERIMENTS.md)."
    );
    cli.emit(&report, elapsed_seconds);
}
