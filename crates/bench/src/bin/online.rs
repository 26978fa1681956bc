//! `online` — event-driven online scheduling under Poisson arrivals.
//!
//! The paper's DCFSR evaluation is clairvoyant; this experiment measures
//! what the same instances cost when flows are revealed at their release
//! times. Each instance draws the paper's uniform workload, replaces its
//! release times with a Poisson arrival process at a given **load factor**
//! (expected number of flows concurrently in flight), and executes it
//! through the `dcn_core::online::OnlineEngine` — one warm
//! `SolverContext`, one `OnlinePolicy` selected by name from
//! `dcn_core::online::POLICY_NAMES` — under both admission rules. The
//! offline clairvoyant solve of the same instance is the reference, so the
//! artifact tracks the **competitive ratio** of each online policy versus
//! offline DCFSR as a function of load, alongside its re-solve count (how
//! often the policy fell back to a full Frank–Wolfe pass). The grid, the seeds, the
//! reference solve, the records and the tables are the shared sweep
//! driver's (`dcn_bench::run_online_sweep`, which `failures` runs too);
//! this binary describes its instances, `extra` keys and columns.
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
//! **`BENCH_online.json` schema:** the standard artifact (current schema
//! version). Groups are `"<topology>|<policy>|<admission>"` (e.g.
//! `"fat-tree(k=4)|hybrid|admit-all"`), `x` is the load factor; `rs_*`
//! fields carry the **online** energies, `sp_*` the **offline
//! clairvoyant** energies, `lower_bound` the fractional LB of the
//! clairvoyant instance — so `rs_normalized / sp_normalized` is the
//! competitive ratio's decomposition against the common LB.
//! `deadline_misses` counts online misses over admitted flows. Each
//! instance's `extra` records the `OnlineReport` counters: `[["load", L],
//! ["admission", 0|1], ["events", E], ["resolves", R],
//! ["solve_failures", F], ["admitted", A], ["rejected", J], ["missed", M],
//! ["run", r]]` (admission 0 = admit-all, 1 = reject-infeasible). Same
//! determinism contract as every artifact: fixed seed ⇒ byte-identical
//! JSON for any `--threads`.
//!
//! Under `--quick` the sweep is followed by a throughput smoke: 100 000
//! arrivals on a fat-tree(k=16) pushed through the event loop
//! (solver-free `edf` policy, so the runtime measures the engine,
//! not Frank–Wolfe), then replayed by `Schedule::audit`, which must see no
//! deadline miss, no link above capacity and the energy the engine
//! reported, to the bit. It prints its arrivals-per-second rate and the
//! replay seconds and is kept out of the JSON artifact — wall clock is not
//! deterministic.

use dcn_bench::runner::{timed, ExperimentCli};
use dcn_bench::{run_online_sweep, OnlineInstance, OnlineSweep};
use dcn_core::online::{OnlineEngine, POLICY_NAMES};
use dcn_core::SolverContext;
use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
use dcn_power::PowerFunction;
use dcn_topology::builders;

fn main() {
    let cli = ExperimentCli::parse(
        "online",
        &["--runs", "--flows", "--algorithms", "--policies", "--load"],
    );
    let sweep = OnlineSweep {
        name: "online",
        headline: "Online event-driven sweep",
        setting: String::new(),
        axis: "load",
        xs: cli.load.clone().unwrap_or_else(|| {
            if cli.quick {
                vec![1.0, 3.0]
            } else {
                vec![0.5, 1.0, 2.0, 4.0]
            }
        }),
        policies: POLICY_NAMES.iter().map(|n| n.to_string()).collect(),
        extra: vec![
            "load",
            "admission",
            "events",
            "resolves",
            "solve_failures",
            "admitted",
            "rejected",
            "missed",
            "run",
        ],
        fixed: Vec::new(),
        columns: vec![
            ("rejected", "rejected"),
            ("missed", "missed"),
            ("events", "events"),
            ("resolves", "resolves"),
        ],
    };
    let outcome = run_online_sweep(&cli, &sweep, |_, base, load, seed| OnlineInstance {
        flows: ArrivalProcess::with_load(load, seed)
            .apply(base)
            .expect("arrival rewrite preserves validity"),
        events: Vec::new(),
    });

    println!("`ratio` is the competitive ratio: online energy / offline clairvoyant energy.");
    println!(
        "Sweep more load factors with --load a,b,... and other policies with \
         --policies a,b,... (see EXPERIMENTS.md)."
    );
    cli.emit(&outcome.report, outcome.elapsed_seconds);

    if cli.quick {
        throughput_smoke();
    }
}

/// The `--quick` throughput smoke: 100 000 Poisson arrivals on a
/// fat-tree(k=16) through the event loop. The solver-free `edf` policy
/// bounds the runtime by the engine itself rather than by Frank–Wolfe, and
/// `Schedule::audit` replays the whole schedule as the end-to-end check.
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
    let (replay, replay_seconds) = timed(|| outcome.schedule.audit(ctx.graph(), &instance, &power));
    assert_eq!(
        replay.misses_among(&report.admitted_mask()),
        0,
        "the replay saw a deadline miss"
    );
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
