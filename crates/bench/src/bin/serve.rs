//! `serve` — closed-loop admission and energy audit of the `dcn-server`
//! daemon.
//!
//! Every other experiment solves a batch instance; this one measures the
//! paper's scheduler *as a service*. Each cell starts an in-process
//! [`dcn_server::Server`] (the same router + shard-executor daemon behind
//! `dcn-serve`), submits the paper's uniform workload through the wire
//! [`Request`] types in release order as a closed-loop client, and then
//! audits the daemon's committed rate plans: a snapshot of every shard is
//! collected, rebuilt into a [`dcn_core` schedule], and metered under the
//! speed-scaling power function — so the artifact reports the **energy the
//! daemon actually committed to**, not a post-hoc re-solve.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin serve                      # default sweep
//! cargo run --release -p dcn-bench --bin serve -- --quick           # CI smoke
//! cargo run --release -p dcn-bench --bin serve -- --policies resolve --flows 200
//! cargo run --release -p dcn-bench --bin serve -- --shard-workers 4 --queue-depth 64
//! ```
//!
//! `--policies` selects the serve policies compared (default: `edf` and
//! `greedy`; `--full` adds `resolve`); `--admission` the daemon's
//! admission rule; `--shard-workers` / `--queue-depth` the daemon's worker
//! count and per-worker queue bound; `--flows` the submissions per cell;
//! `--runs` the seeds per cell; `--threads` how many cells run at once,
//! each on a daemon of its own.
//!
//! **`BENCH_serve.json` schema (v4):** groups are
//! `"<topology>|<policy>|<admission>"`, `x` is the submission count.
//! `rs_*` fields carry the audited energy of the cell's policy, `sp_*`
//! the `greedy` (full-blast bottleneck) reference on the same workload,
//! and `lower_bound` the fluid per-flow bound
//! `sum_f hops_f * span_f * P(vol_f / span_f)` — valid for the pure
//! speed-scaling power function by Jensen's inequality plus the
//! superadditivity of `x^alpha`, since every feasible plan moves each
//! flow over at least its shortest-path hop count. Each instance's
//! `extra` records `[["requests", n], ["admitted", a], ["rejected", j],
//! ["busy", b], ["missed", m], ["run", r]]` (the worker width is
//! deliberately **not** a column — the artifact must not depend on it). The
//! artifact is byte-identical at any `--shard-workers` width and any
//! `--threads` — the CI pins that by `cmp`-ing runs at widths 1, 2 and 3,
//! and two-cell runs at `--threads` 1 and 2. The served request's wall
//! clock is measured by `perf/`'s `serve_closed` workload (EXPERIMENTS.md,
//! "Served request").

use dcn_bench::print_table;
use dcn_bench::report::{ExperimentReport, InstanceRecord};
use dcn_bench::runner::{run_indexed, timed, ExperimentCli};
use dcn_core::online::AdmissionRule;
use dcn_flow::workload::UniformWorkload;
use dcn_power::PowerFunction;
use dcn_server::{
    Request, RequestBody, ResponseBody, ServePolicy, Server, ServerConfig, SnapshotError,
    SubmitFlow, TopologySpec,
};
use dcn_topology::builders;
use dcn_topology::GraphCsr;

/// One cell of the serve grid.
struct Cell {
    topology: usize,
    policy: ServePolicy,
    run: u64,
}

/// What one daemon pass produced: admission counters and the audited
/// schedule metrics.
struct PassOutcome {
    energy: f64,
    capacity_excess: f64,
    admitted: usize,
    rejected: usize,
    busy: usize,
    missed: usize,
}

fn main() {
    let cli = ExperimentCli::parse(
        "serve",
        &[
            "--runs",
            "--flows",
            "--policies",
            "--admission",
            "--shard-workers",
            "--queue-depth",
        ],
    );
    let runs: u64 = cli.runs.unwrap_or(if cli.quick { 1 } else { 2 }) as u64;
    let flows: usize = cli.flows.unwrap_or(if cli.quick { 1000 } else { 2000 });
    let admission = cli.admission.unwrap_or_default();
    let policy_names: Vec<String> = cli.policies.clone().unwrap_or_else(|| {
        let mut names = vec!["edf".to_string(), "greedy".to_string()];
        if cli.full {
            names.push("resolve".to_string());
        }
        if cli.quick {
            names = vec!["edf".to_string()];
        }
        names
    });
    let policies: Vec<ServePolicy> = policy_names
        .iter()
        .map(|name| ServePolicy::parse(name).unwrap_or_else(|e| panic!("[serve] {e}")))
        .collect();
    let topologies: Vec<TopologySpec> = if cli.quick {
        vec![TopologySpec::FatTree { k: 8 }]
    } else if cli.full {
        vec![
            TopologySpec::FatTree { k: 4 },
            TopologySpec::LeafSpine {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 6,
            },
            TopologySpec::FatTree { k: 8 },
        ]
    } else {
        vec![
            TopologySpec::FatTree { k: 4 },
            TopologySpec::FatTree { k: 8 },
        ]
    };
    let shard_workers = cli.shard_workers.unwrap_or(1);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let names = topologies
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");

    println!(
        "Scheduler-as-a-service closed loop: policies [{}] under {} on {names} \
         ({} submission(s), {} run(s) per cell, {shard_workers} shard worker(s))\n",
        policy_names.join(", "),
        admission.name(),
        flows,
        runs
    );

    let mut grid: Vec<Cell> = Vec::new();
    for (ti, _) in topologies.iter().enumerate() {
        for policy in &policies {
            for run in 0..runs {
                grid.push(Cell {
                    topology: ti,
                    policy: *policy,
                    run,
                });
            }
        }
    }

    let (records, elapsed_seconds) = timed(|| {
        run_indexed(grid.len(), cli.threads, |i| {
            let cell = &grid[i];
            let spec = topologies[cell.topology];
            // One seed per (topology, run), shared across policies so
            // the comparison columns are like for like.
            let seed = 10_000 * (cell.topology as u64 + 1) + cell.run;
            let outcome = run_pass(spec, cell.policy, admission, &cli, flows, seed);
            // The reference pass audits the same workload under the
            // full-blast `greedy` policy (the serve-side analogue of
            // the SP baseline).
            let reference = if cell.policy == ServePolicy::Greedy {
                None
            } else {
                Some(run_pass(
                    spec,
                    ServePolicy::Greedy,
                    admission,
                    &cli,
                    flows,
                    seed,
                ))
            };
            let sp_energy = reference.as_ref().map_or(outcome.energy, |r| r.energy);
            let lower_bound = fluid_lower_bound(spec, &power, flows, seed);
            eprintln!(
                "  [serve] {}/{} {}|{} seed={seed} — {} admitted, {} rejected",
                i + 1,
                grid.len(),
                spec,
                cell.policy.name(),
                outcome.admitted,
                outcome.rejected,
            );
            let extra = vec![
                ("requests".to_string(), flows as f64),
                ("admitted".to_string(), outcome.admitted as f64),
                ("rejected".to_string(), outcome.rejected as f64),
                ("busy".to_string(), outcome.busy as f64),
                ("missed".to_string(), outcome.missed as f64),
                ("run".to_string(), cell.run as f64),
            ];
            InstanceRecord {
                label: format!(
                    "{}|{}|{} flows={flows} seed={seed}",
                    spec,
                    cell.policy.name(),
                    admission.name()
                ),
                flows,
                seed,
                alpha: power.alpha(),
                lower_bound,
                rs_energy: outcome.energy,
                sp_energy,
                rs_normalized: outcome.energy / lower_bound,
                sp_normalized: sp_energy / lower_bound,
                deadline_misses: outcome.missed,
                rs_capacity_excess: outcome.capacity_excess,
                rs_sim: None,
                sp_sim: None,
                extra,
                refusal: None,
            }
        })
    });

    let coordinates: Vec<(String, f64)> = grid
        .iter()
        .map(|cell| {
            (
                format!(
                    "{}|{}|{}",
                    topologies[cell.topology],
                    cell.policy.name(),
                    admission.name()
                ),
                flows as f64,
            )
        })
        .collect();
    let report = ExperimentReport::assemble(
        "serve",
        names,
        Some(UniformWorkload::paper_defaults(0, 0)),
        records,
        &coordinates,
    );

    for spec in &topologies {
        let rows: Vec<Vec<String>> = policies
            .iter()
            .map(|policy| {
                let group = format!("{}|{}|{}", spec, policy.name(), admission.name());
                let point = report
                    .points
                    .iter()
                    .find(|p| p.group == group)
                    .expect("every cell aggregated into a sweep point");
                let mean = |key: &str| report.mean_extra(&coordinates, &group, point.x, key);
                vec![
                    policy.name().to_string(),
                    format!("{:.3}", point.rs),
                    format!("{:.3}", point.sp),
                    format!("{:.3}", point.rs / point.sp),
                    format!("{:.1}", mean("admitted")),
                    format!("{:.1}", mean("rejected")),
                    format!("{:.1}", mean("missed")),
                ]
            })
            .collect();
        print_table(
            &format!("Serve {spec} ({} submissions, {})", flows, admission.name()),
            &[
                "policy",
                "serve/LB",
                "greedy/LB",
                "ratio",
                "admitted",
                "rejected",
                "missed",
            ],
            &rows,
        );
    }

    println!(
        "`serve/LB` audits the daemon's committed plans against the fluid per-flow bound; \
         `ratio` compares the policy to the greedy full-blast reference."
    );
    cli.emit(&report, elapsed_seconds);
}

/// Runs one closed-loop daemon pass: start, submit every flow of the
/// seeded workload in release order, collect and audit the snapshot.
fn run_pass(
    spec: TopologySpec,
    policy: ServePolicy,
    admission: AdmissionRule,
    cli: &ExperimentCli,
    flows: usize,
    seed: u64,
) -> PassOutcome {
    let built = spec.build();
    let workload = UniformWorkload::paper_defaults(flows, seed)
        .generate(&built.hosts)
        .expect("workload generation succeeds on topologies with >= 2 hosts");
    let mut submissions: Vec<_> = workload.iter().cloned().collect();
    submissions.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .expect("workload times are finite")
            .then(a.id.cmp(&b.id))
    });

    let mut config = ServerConfig::new(spec);
    config.policy = policy;
    config.admission = admission;
    config.seed = seed;
    config.shard_workers = cli.shard_workers.unwrap_or(1);
    if let Some(depth) = cli.queue_depth {
        config.queue_depth = depth;
    }
    let mut server = Server::start(config).unwrap_or_else(|e| panic!("[serve] {e}"));

    let mut admitted = 0usize;
    let mut rejected = 0usize;
    let mut busy = 0usize;
    for (i, flow) in submissions.iter().enumerate() {
        let body = RequestBody::SubmitFlow(SubmitFlow {
            src: flow.src.0,
            dst: flow.dst.0,
            release: flow.release,
            deadline: flow.deadline,
            volume: flow.volume,
        });
        let mut response = server.request(Request::new(i as u64, body.clone()));
        // A closed-loop client rarely sees Busy (the queue drains between
        // submissions), but honor the backpressure contract anyway.
        while matches!(response.body, ResponseBody::Busy { .. }) {
            busy += 1;
            response = server.request(Request::new(i as u64, body.clone()));
        }
        match response.body {
            ResponseBody::Admit(reply) => {
                if reply.admitted {
                    admitted += 1;
                } else {
                    rejected += 1;
                }
            }
            other => panic!("[serve] unexpected reply to a submission: {other:?}"),
        }
    }

    let snapshot = server
        .collect_snapshot()
        .unwrap_or_else(|e| panic!("[serve] snapshot collection failed: {e}"));
    server.shutdown();
    let missed = snapshot.missed_count();
    // With reject-infeasible admission every flow of a cell can be turned
    // away; an empty plan set carries zero energy by definition. A record
    // the daemon wrote and its own restore refuses is a bug, never zero
    // energy.
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let (energy, capacity_excess) = match snapshot.schedule(&built.network) {
        Ok(schedule) => (
            schedule.energy(&power).total(),
            schedule.max_capacity_excess(&built.network, &power),
        ),
        Err(SnapshotError::Empty) => (0.0, 0.0),
        Err(e) => panic!("[serve] the daemon's snapshot does not rebuild: {e}"),
    };

    PassOutcome {
        energy,
        capacity_excess,
        admitted,
        rejected,
        busy,
        missed,
    }
}

/// The fluid per-flow lower bound on total energy: each flow must move
/// `volume` units over at least its shortest-path hop count within its
/// `[release, deadline]` window, and for the pure speed-scaling power
/// function (`sigma = 0`, `alpha > 1`) spreading the volume evenly over
/// the whole window is pointwise optimal (Jensen) while sharing links
/// only adds energy (superadditivity of `x^alpha`).
fn fluid_lower_bound(spec: TopologySpec, power: &PowerFunction, flows: usize, seed: u64) -> f64 {
    let built = spec.build();
    let graph = GraphCsr::from_network(&built.network);
    let workload = UniformWorkload::paper_defaults(flows, seed)
        .generate(&built.hosts)
        .expect("workload generation succeeds on topologies with >= 2 hosts");
    workload
        .iter()
        .map(|flow| {
            let hops = graph
                .shortest_path(flow.src, flow.dst)
                .map_or(1, |path| path.links().len());
            let span = (flow.deadline - flow.release).max(f64::MIN_POSITIVE);
            hops as f64 * span * power.power(flow.volume / span)
        })
        .sum()
}
