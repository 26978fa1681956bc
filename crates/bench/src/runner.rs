//! The parallel experiment runner and the CLI shared by every benchmark
//! binary.
//!
//! The sweeps in this crate are embarrassingly parallel: every
//! `(seed, flow-count)` instance is independent and internally seeded, so
//! [`run_indexed`] fans instances out across scoped worker threads and
//! collects results **in input order**, which makes the output of a run —
//! and therefore its JSON report — independent of the thread count. That
//! is the determinism contract the CI relies on: same seed ⇒
//! byte-identical `BENCH_*.json` regardless of `--threads`. This is the
//! only worker pool of the harness; each instance's solves run
//! sequentially inside its worker.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::report::ExperimentReport;
use dcn_core::online::PolicyRegistry;
use dcn_server::ServePolicy;

/// The number of worker threads to use by default: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `job(i)` for every `i in 0..count` on `threads` scoped worker
/// threads and returns the results **in index order**.
///
/// Workers claim indices from an atomic cursor, so long and short jobs mix
/// freely; every result is put back at its own index, so the returned
/// vector — unlike the execution schedule — does not depend on `threads`.
/// With `threads <= 1` the jobs run inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn run_indexed<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads == 1 {
        return (0..count).map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return claimed;
                        }
                        claimed.push((i, job(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Runs a closure and measures its wall-clock time in seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = work();
    (value, start.elapsed().as_secs_f64())
}

/// The command line shared by all benchmark binaries.
///
/// ```text
/// --runs N        seeds averaged per sweep point
/// --seeds N       rounding seeds (ablation_rounding)
/// --flows N       workload size for the single-size ablations
/// --step N        flow-count step of the fig2 sweep
/// --threads N     worker threads for instance sharding (default: all
///                 cores)
/// --algorithms L  comma-separated registry names to compare (primary,
///                 reference, extras), e.g. dcfsr,sp-mcf,ecmp,greedy;
///                 defaults to the experiment's own selection; a name the
///                 harness registry does not know is a usage error
/// --load L        comma-separated load factors swept by the `online`
///                 binary, e.g. 0.5,1,2,4
/// --rates L       comma-separated link failure rates (failures per link
///                 per unit time) swept by the `failures` binary, e.g.
///                 0,0.01,0.05; 0 means the link never fails
/// --downtime D    mean outage duration of the `failures` binary's
///                 alternating-renewal process (positive, finite)
/// --policies L    comma-separated online-policy registry names compared
///                 by the `online` binary, e.g. resolve,edf,hybrid (the
///                 `serve` bench takes the daemon's policy names);
///                 defaults to the binary's own selection; an unknown
///                 name is a usage error
/// --shard-workers N
///                 worker threads of the `serve` bench's in-process
///                 daemon; the artifact is byte-identical at any N
/// --queue-depth N per-worker queue bound of the `serve` bench's daemon
/// --admission R   admission rule of the `serve` bench's daemon:
///                 admit-all | reject-infeasible
/// --quick         CI smoke mode: smallest topology, one run per point
/// --full          paper-scale mode (fig2: 10 runs, step 20)
/// --small         swap the k=8 fat-tree for k=4 (fig2)
/// --json-out [P]  write the JSON report to P (default BENCH_<name>.json)
/// --timings       embed wall-clock seconds in the JSON report; timing
///                 varies run to run, so this intentionally opts out of
///                 the byte-determinism contract
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCli {
    /// Name of the experiment (used for the default JSON path).
    pub experiment: String,
    /// `--runs N`: number of seeds averaged per sweep point.
    pub runs: Option<usize>,
    /// `--seeds N`: number of rounding seeds (`ablation_rounding`).
    pub seeds: Option<u64>,
    /// `--flows N`: workload size for the single-size ablations.
    pub flows: Option<usize>,
    /// `--step N`: flow-count step of the `fig2` sweep.
    pub step: Option<usize>,
    /// `--threads N`: worker-pool size; defaults to every available core.
    pub threads: usize,
    /// `--algorithms a,b,...`: registry names to compare (primary,
    /// reference, extras); `None` keeps the experiment's default.
    pub algorithms: Option<Vec<String>>,
    /// `--load a,b,...`: load factors for the `online` sweep; `None` keeps
    /// the binary's default grid.
    pub load: Option<Vec<f64>>,
    /// `--rates a,b,...`: link failure rates (failures per link per unit
    /// time) for the `failures` sweep; `None` keeps the binary's default
    /// grid. A rate of `0` is valid and means "no failures" (the static
    /// baseline point).
    pub rates: Option<Vec<f64>>,
    /// `--downtime D`: mean outage duration of the `failures` binary's
    /// failure process; `None` keeps the binary's default.
    pub downtime: Option<f64>,
    /// `--policies a,b,...`: online-policy registry names compared by the
    /// `online` binary (a single name is fine — unlike `--algorithms`,
    /// there is no primary/reference pairing); `None` keeps the binary's
    /// default selection.
    pub policies: Option<Vec<String>>,
    /// `--shard-workers N`: worker threads of the `serve` bench's
    /// in-process daemon; `None` keeps the binary's default (1).
    pub shard_workers: Option<usize>,
    /// `--queue-depth N`: per-worker queue bound of the `serve` bench's
    /// daemon; `None` keeps the daemon's default.
    pub queue_depth: Option<usize>,
    /// `--admission R`: admission rule of the `serve` bench's daemon;
    /// `None` keeps the binary's default (`admit-all`).
    pub admission: Option<String>,
    /// `--quick`: CI smoke mode (smallest topology, one run per point).
    pub quick: bool,
    /// `--full`: paper-scale mode.
    pub full: bool,
    /// `--small`: swap the k=8 fat-tree for the k=4 one (`fig2`).
    pub small: bool,
    /// `--timings`: embed wall-clock seconds in the JSON report.
    pub timings: bool,
    /// `--json-out [PATH]`: where to write the JSON report, if anywhere.
    pub json_out: Option<PathBuf>,
}

/// The flags [`ExperimentCli::from_args`] accepts a value for.
const VALUE_FLAGS: &[&str] = &[
    "--runs",
    "--seeds",
    "--flows",
    "--step",
    "--threads",
    "--algorithms",
    "--load",
    "--rates",
    "--downtime",
    "--policies",
    "--shard-workers",
    "--queue-depth",
    "--admission",
];

/// The boolean flags [`ExperimentCli::from_args`] accepts.
const SWITCH_FLAGS: &[&str] = &["--quick", "--full", "--small", "--timings"];

impl ExperimentCli {
    /// Parses the process's command line, exiting with usage on errors.
    pub fn parse(experiment: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(experiment, &args) {
            Ok(cli) => cli,
            Err(message) => {
                eprintln!("{experiment}: {message}");
                eprintln!(
                    "usage: {experiment} [--runs N] [--seeds N] [--flows N] [--step N] \
                     [--threads N] [--algorithms a,b,...] \
                     [--load a,b,...] [--rates a,b,...] [--downtime D] \
                     [--policies a,b,...] \
                     [--shard-workers N] [--queue-depth N] [--admission R] \
                     [--quick] [--full] [--small] [--json-out [PATH]] [--timings]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument slice.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, missing or malformed values,
    /// and algorithm or policy names no registry knows.
    pub fn from_args(experiment: &str, args: &[String]) -> Result<Self, String> {
        let mut cli = Self {
            experiment: experiment.to_string(),
            runs: None,
            seeds: None,
            flows: None,
            step: None,
            threads: default_threads(),
            algorithms: None,
            load: None,
            rates: None,
            downtime: None,
            policies: None,
            shard_workers: None,
            queue_depth: None,
            admission: None,
            quick: false,
            full: false,
            small: false,
            timings: false,
            json_out: None,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--json-out" {
                // The path is optional: `--json-out --quick` and a trailing
                // `--json-out` both mean "use the default path".
                match args.get(i + 1) {
                    Some(path) if !path.starts_with("--") => {
                        cli.json_out = Some(PathBuf::from(path));
                        i += 2;
                    }
                    _ => {
                        cli.json_out = Some(cli.default_json_path());
                        i += 1;
                    }
                }
            } else if VALUE_FLAGS.contains(&flag) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} expects a value"))?;
                match flag {
                    "--runs" => cli.runs = Some(parse_value(flag, value)?),
                    "--seeds" => cli.seeds = Some(parse_value(flag, value)?),
                    "--flows" => cli.flows = Some(parse_value(flag, value)?),
                    "--step" => cli.step = Some(parse_value(flag, value)?),
                    "--threads" => cli.threads = parse_value(flag, value)?,
                    "--algorithms" => {
                        let names: Vec<String> = value
                            .split(',')
                            .map(str::trim)
                            .filter(|n| !n.is_empty())
                            .map(str::to_string)
                            .collect();
                        if names.len() < 2 {
                            return Err(format!(
                                "--algorithms expects at least a primary and a reference \
                                 (comma-separated), got {value:?}"
                            ));
                        }
                        check_known("algorithm", &names, &crate::harness_registry().names())?;
                        cli.algorithms = Some(names);
                    }
                    "--load" => {
                        let loads = value
                            .split(',')
                            .map(str::trim)
                            .filter(|l| !l.is_empty())
                            .map(|l| parse_value::<f64>(flag, l))
                            .collect::<Result<Vec<f64>, String>>()?;
                        if loads.is_empty() {
                            return Err(format!(
                                "--load expects comma-separated load factors, got {value:?}"
                            ));
                        }
                        if let Some(bad) = loads.iter().find(|l| !l.is_finite() || **l <= 0.0) {
                            return Err(format!(
                                "--load factors must be positive and finite, got {bad}"
                            ));
                        }
                        cli.load = Some(loads);
                    }
                    "--rates" => {
                        let rates = value
                            .split(',')
                            .map(str::trim)
                            .filter(|r| !r.is_empty())
                            .map(|r| parse_value::<f64>(flag, r))
                            .collect::<Result<Vec<f64>, String>>()?;
                        if rates.is_empty() {
                            return Err(format!(
                                "--rates expects comma-separated failure rates, got {value:?}"
                            ));
                        }
                        if let Some(bad) = rates.iter().find(|r| !r.is_finite() || **r < 0.0) {
                            return Err(format!(
                                "--rates must be non-negative and finite, got {bad}"
                            ));
                        }
                        cli.rates = Some(rates);
                    }
                    "--downtime" => {
                        let downtime: f64 = parse_value(flag, value)?;
                        if !downtime.is_finite() || downtime <= 0.0 {
                            return Err(format!(
                                "--downtime expects a positive finite duration, got {value:?}"
                            ));
                        }
                        cli.downtime = Some(downtime);
                    }
                    "--shard-workers" => cli.shard_workers = Some(parse_value(flag, value)?),
                    "--queue-depth" => cli.queue_depth = Some(parse_value(flag, value)?),
                    "--admission" => {
                        if !["admit-all", "reject-infeasible"].contains(&value.as_str()) {
                            return Err(format!(
                                "--admission expects admit-all or reject-infeasible, got {value:?}"
                            ));
                        }
                        cli.admission = Some(value.clone());
                    }
                    "--policies" => {
                        let names: Vec<String> = value
                            .split(',')
                            .map(str::trim)
                            .filter(|n| !n.is_empty())
                            .map(str::to_string)
                            .collect();
                        if names.is_empty() {
                            return Err(format!(
                                "--policies expects comma-separated policy names, got {value:?}"
                            ));
                        }
                        if experiment == "serve" {
                            // The serve bench compares the daemon's own
                            // policies, not the engine registry's.
                            for name in &names {
                                ServePolicy::parse(name)?;
                            }
                        } else {
                            check_known(
                                "policy",
                                &names,
                                &PolicyRegistry::with_defaults().names(),
                            )?;
                        }
                        cli.policies = Some(names);
                    }
                    _ => unreachable!("flag is in VALUE_FLAGS"),
                }
                i += 2;
            } else if SWITCH_FLAGS.contains(&flag) {
                match flag {
                    "--quick" => cli.quick = true,
                    "--full" => cli.full = true,
                    "--small" => cli.small = true,
                    "--timings" => cli.timings = true,
                    _ => unreachable!("flag is in SWITCH_FLAGS"),
                }
                i += 1;
            } else {
                return Err(format!("unknown flag {flag:?}"));
            }
        }
        if cli.threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        // Zero sweep sizes produce empty (schema-invalid) artifacts, NaN
        // averages, or a step_by(0) panic downstream; fail fast instead.
        for (flag, value) in [
            ("--runs", cli.runs),
            ("--flows", cli.flows),
            ("--step", cli.step),
        ] {
            if value == Some(0) {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        if cli.seeds == Some(0) {
            return Err("--seeds must be at least 1".to_string());
        }
        if cli.shard_workers == Some(0) {
            return Err("--shard-workers must be at least 1".to_string());
        }
        if cli.queue_depth == Some(0) {
            return Err("--queue-depth must be at least 1".to_string());
        }
        Ok(cli)
    }

    /// The conventional artifact path: `BENCH_<experiment>.json`.
    pub fn default_json_path(&self) -> PathBuf {
        PathBuf::from(format!("BENCH_{}.json", self.experiment))
    }

    /// Writes the report to `--json-out` (when given), embedding the
    /// measured wall-clock only under `--timings`, and prints where it
    /// went.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written — the artifact is the point
    /// of the run, so failing loudly beats a silent miss.
    pub fn emit(&self, report: &ExperimentReport, elapsed_seconds: f64) {
        eprintln!(
            "[{}] {} instance(s) on {} thread(s) in {:.2}s",
            self.experiment,
            report.instances.len(),
            self.threads,
            elapsed_seconds
        );
        let Some(path) = &self.json_out else {
            return;
        };
        let mut artifact = report.clone();
        artifact.wall_clock_seconds = self.timings.then_some(elapsed_seconds);
        artifact
            .write(path)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("[{}] report written to {}", self.experiment, path.display());
    }
}

/// Rejects the first of `names` that is not among `known`.
fn check_known(kind: &str, names: &[String], known: &[&str]) -> Result<(), String> {
    match names.iter().find(|name| !known.contains(&name.as_str())) {
        Some(bad) => Err(format!(
            "unknown {kind} {bad:?} (expected one of {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// Parses one flag value with a contextual error message.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_indexed_preserves_input_order() {
        let serial = run_indexed(17, 1, |i| i * i);
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
        // Widths above the job count included.
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_indexed(17, threads, |i| i * i), serial);
        }
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert!(default_threads() >= 1);
    }

    #[test]
    fn run_indexed_runs_every_job_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let results = run_indexed(100, 7, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(results, (0..100).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn cli_parses_the_shared_flags() {
        let cli = ExperimentCli::from_args(
            "fig2",
            &args(&[
                "--runs",
                "5",
                "--step",
                "20",
                "--threads",
                "3",
                "--quick",
                "--json-out",
                "out.json",
            ]),
        )
        .unwrap();
        assert_eq!(cli.runs, Some(5));
        assert_eq!(cli.step, Some(20));
        assert_eq!(cli.threads, 3);
        assert!(cli.quick && !cli.full);
        assert_eq!(cli.json_out, Some(PathBuf::from("out.json")));
    }

    #[test]
    fn cli_parses_the_algorithms_selector() {
        let cli = ExperimentCli::from_args("fig2", &args(&["--algorithms", "dcfsr,sp-mcf,ecmp"]))
            .unwrap();
        assert_eq!(
            cli.algorithms,
            Some(vec![
                "dcfsr".to_string(),
                "sp-mcf".to_string(),
                "ecmp".to_string()
            ])
        );
        // A single name cannot form a primary/reference pair.
        assert!(ExperimentCli::from_args("fig2", &args(&["--algorithms", "dcfsr"])).is_err());
        assert!(ExperimentCli::from_args("fig2", &args(&["--algorithms"])).is_err());
        // A name the harness registry cannot create is a usage error, not
        // a panic inside the sweep.
        let err =
            ExperimentCli::from_args("fig2", &args(&["--algorithms", "nope,sp-mcf"])).unwrap_err();
        assert!(
            err.starts_with("unknown algorithm \"nope\" (expected one of dcfsr, "),
            "{err}"
        );
    }

    #[test]
    fn cli_parses_the_load_sweep() {
        let cli = ExperimentCli::from_args("online", &args(&["--load", "0.5,1,2,4"])).unwrap();
        assert_eq!(cli.load, Some(vec![0.5, 1.0, 2.0, 4.0]));
        // Non-positive, non-finite and empty lists are rejected.
        assert!(ExperimentCli::from_args("online", &args(&["--load", "0"])).is_err());
        assert!(ExperimentCli::from_args("online", &args(&["--load", "-1"])).is_err());
        assert!(ExperimentCli::from_args("online", &args(&["--load", "nan"])).is_err());
        assert!(ExperimentCli::from_args("online", &args(&["--load", ","])).is_err());
        assert!(ExperimentCli::from_args("online", &args(&["--load"])).is_err());
    }

    #[test]
    fn cli_parses_the_failure_sweep_knobs() {
        let cli = ExperimentCli::from_args(
            "failures",
            &args(&["--rates", "0,0.01,0.05", "--downtime", "2.5"]),
        )
        .unwrap();
        assert_eq!(cli.rates, Some(vec![0.0, 0.01, 0.05]));
        assert_eq!(cli.downtime, Some(2.5));
        // Rate 0 is the static baseline; negatives and NaN are rejected.
        assert!(ExperimentCli::from_args("failures", &args(&["--rates", "-0.1"])).is_err());
        assert!(ExperimentCli::from_args("failures", &args(&["--rates", "nan"])).is_err());
        assert!(ExperimentCli::from_args("failures", &args(&["--rates", ","])).is_err());
        assert!(ExperimentCli::from_args("failures", &args(&["--downtime", "0"])).is_err());
        assert!(ExperimentCli::from_args("failures", &args(&["--downtime", "-1"])).is_err());
        assert!(ExperimentCli::from_args("failures", &args(&["--downtime", "inf"])).is_err());
    }

    #[test]
    fn cli_parses_the_policies_selector() {
        let cli = ExperimentCli::from_args("online", &args(&["--policies", "resolve,edf,hybrid"]))
            .unwrap();
        assert_eq!(
            cli.policies,
            Some(vec![
                "resolve".to_string(),
                "edf".to_string(),
                "hybrid".to_string()
            ])
        );
        // A single policy is a valid selection (no primary/reference pair).
        let cli = ExperimentCli::from_args("online", &args(&["--policies", "hybrid"])).unwrap();
        assert_eq!(cli.policies, Some(vec!["hybrid".to_string()]));
        assert!(ExperimentCli::from_args("online", &args(&["--policies", ","])).is_err());
        assert!(ExperimentCli::from_args("online", &args(&["--policies"])).is_err());
        // Unknown names are usage errors on every binary, including the
        // ones that never read the flag.
        for experiment in ["online", "failures", "fig2"] {
            let err = ExperimentCli::from_args(experiment, &args(&["--policies", "edf,nope"]))
                .unwrap_err();
            assert_eq!(
                err,
                "unknown policy \"nope\" (expected one of resolve, edf, srpt, rcd, hybrid)"
            );
        }
        // The serve bench speaks the daemon's policy names instead.
        let cli = ExperimentCli::from_args("serve", &args(&["--policies", "greedy"])).unwrap();
        assert_eq!(cli.policies, Some(vec!["greedy".to_string()]));
        assert!(ExperimentCli::from_args("serve", &args(&["--policies", "hybrid"])).is_err());
    }

    #[test]
    fn cli_json_out_path_is_optional() {
        let cli = ExperimentCli::from_args("fig2", &args(&["--json-out", "--quick"])).unwrap();
        assert_eq!(cli.json_out, Some(PathBuf::from("BENCH_fig2.json")));
        assert!(cli.quick);

        let cli = ExperimentCli::from_args("fig2", &args(&["--json-out"])).unwrap();
        assert_eq!(cli.json_out, Some(PathBuf::from("BENCH_fig2.json")));
    }

    #[test]
    fn cli_rejects_unknown_and_malformed_flags() {
        assert!(ExperimentCli::from_args("x", &args(&["--frobnicate"])).is_err());
        // The online engine has no batching or sharding flags, and solves
        // have no thread count of their own.
        for removed in [
            ["--epoch", "0.05"],
            ["--shards", "2"],
            ["--solver-threads", "2"],
        ] {
            assert_eq!(
                ExperimentCli::from_args("online", &args(&removed)).unwrap_err(),
                format!("unknown flag {:?}", removed[0])
            );
        }
        assert!(ExperimentCli::from_args("x", &args(&["--runs"])).is_err());
        assert!(ExperimentCli::from_args("x", &args(&["--runs", "many"])).is_err());
        assert!(ExperimentCli::from_args("x", &args(&["--threads", "0"])).is_err());
        for flag in ["--runs", "--seeds", "--flows", "--step"] {
            assert!(
                ExperimentCli::from_args("x", &args(&[flag, "0"])).is_err(),
                "{flag} 0 must be rejected"
            );
        }
    }

    #[test]
    fn timed_measures_something() {
        let (value, seconds) = timed(|| 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
    }
}
