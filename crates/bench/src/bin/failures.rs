//! `failures` — online scheduling under link failures and recoveries.
//!
//! The paper's fabric is static; this experiment measures how the online
//! engine degrades when links fail and recover while flows are in flight.
//! Each instance draws the paper's uniform workload, rewrites its release
//! times with a Poisson arrival process, replaces its volumes with the
//! heavy-tailed **websearch** empirical size distribution
//! (`dcn_flow::workload::SizeDistribution`, rescaled to the base mean so
//! load factors stay comparable), and drives it through
//! `OnlineEngine::run_with_events` together with a seeded
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
//! duration; `--load` the arrival load factor (one value: a list is a
//! usage error); `--flows`, `--runs`, `--policies` and `--algorithms`
//! behave exactly as in the `online` binary, whose sweep driver
//! (`dcn_bench::run_online_sweep`) this binary shares: it only describes
//! its instances, its `extra` keys and its table columns.
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
//! so fixed seed ⇒ byte-identical JSON for any `--threads`.

use dcn_bench::runner::ExperimentCli;
use dcn_bench::{run_online_sweep, OnlineInstance, OnlineSweep};
use dcn_flow::failure::FailureProcess;
use dcn_flow::workload::{ArrivalProcess, SizeDistribution};

fn main() {
    let cli = ExperimentCli::parse(
        "failures",
        &[
            "--runs",
            "--flows",
            "--algorithms",
            "--policies",
            "--load",
            "--rates",
            "--downtime",
        ],
    );
    // `ExperimentCli` turns more than one `--load` value into a usage
    // error for this binary.
    let load = cli.load.as_ref().map_or(2.0, |loads| loads[0]);
    let downtime = cli.downtime.unwrap_or(1.0);
    let sweep = OnlineSweep {
        name: "failures",
        headline: "Failure/recovery sweep",
        setting: format!(
            " (load {load}, websearch sizes) with exponential outages (mean downtime {downtime})"
        ),
        axis: "rate",
        xs: cli.rates.clone().unwrap_or_else(|| {
            if cli.quick {
                vec![0.0, 0.05]
            } else {
                vec![0.0, 0.01, 0.03, 0.1]
            }
        }),
        policies: if cli.quick {
            vec!["resolve".to_string()]
        } else {
            vec!["resolve".to_string(), "hybrid".to_string()]
        },
        extra: vec![
            "rate",
            "admission",
            "events",
            "topology_events",
            "link_downs",
            "resolves",
            "solve_failures",
            "admitted",
            "rejected",
            "missed",
            "failure_missed",
            "load",
            "run",
        ],
        fixed: vec![("load", load)],
        columns: vec![
            ("downs", "link_downs"),
            ("missed", "missed"),
            ("fail-missed", "failure_missed"),
            ("rejected", "rejected"),
        ],
    };
    let outcome = run_online_sweep(&cli, &sweep, |topo, base, rate, seed| {
        let flows = ArrivalProcess::with_load(load, seed)
            .sizes(SizeDistribution::WebSearch)
            .apply(base)
            .expect("arrival rewrite preserves validity");
        // The failure stream covers the whole instance horizon. Rate 0 is
        // the static baseline: no process, no events.
        let events = if rate > 0.0 {
            FailureProcess::new(1.0 / rate, downtime, seed)
                .generate(topo.network.link_count(), flows.horizon().1)
        } else {
            Vec::new()
        };
        OnlineInstance { flows, events }
    });

    println!(
        "`fail-missed` counts deadline misses attributed to link failures (a subset of \
         `missed`); `ratio` is online energy / offline clairvoyant energy on the pristine \
         fabric."
    );
    println!(
        "Sweep other failure rates with --rates a,b,... and outage lengths with \
         --downtime D (see EXPERIMENTS.md)."
    );
    cli.emit(&outcome.report, outcome.elapsed_seconds);
}
