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
use dcn_core::online::{AdmissionRule, POLICY_NAMES};
use dcn_core::AlgorithmRegistry;
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
/// Every binary accepts `--quick`, `--full`, `--threads` and `--json-out`,
/// plus the flags it reads, which it names to [`ExperimentCli::parse`]; any
/// other flag is a usage error.
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
///                 binary, e.g. 0.5,1,2,4 (`failures` runs at one)
/// --rates L       comma-separated link failure rates (failures per link
///                 per unit time) swept by the `failures` binary, e.g.
///                 0,0.01,0.05; 0 means the link never fails
/// --downtime D    mean outage duration of the `failures` binary's
///                 alternating-renewal process (positive, finite)
/// --policies L    comma-separated online-policy names compared
///                 by the `online` binary, e.g. resolve,edf,hybrid (the
///                 `serve` bench takes the daemon's policy names);
///                 defaults to the binary's own selection; an unknown
///                 name is a usage error
/// --shard-workers N
///                 shard executors of the `serve` bench's in-process
///                 daemon, the router included (N - 1 worker threads);
///                 the artifact is byte-identical at any N
/// --queue-depth N queue bound of each worker thread of the `serve`
///                 bench's daemon
/// --admission R   admission rule of the `serve` bench's daemon:
///                 admit-all | reject-infeasible
/// --quick         CI smoke mode: smallest topology, one run per point
/// --full          paper-scale mode (fig2: 10 runs, step 20)
/// --small         swap the k=8 fat-tree for k=4 (fig2)
/// --json-out [P]  write the JSON report to P (default BENCH_<name>.json)
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// `--load a,b,...`: load factors for the `online` sweep (one value for
    /// `failures`); `None` keeps the binary's default.
    pub load: Option<Vec<f64>>,
    /// `--rates a,b,...`: link failure rates (failures per link per unit
    /// time) for the `failures` sweep; `None` keeps the binary's default
    /// grid. A rate of `0` is valid and means "no failures" (the static
    /// baseline point).
    pub rates: Option<Vec<f64>>,
    /// `--downtime D`: mean outage duration of the `failures` binary's
    /// failure process; `None` keeps the binary's default.
    pub downtime: Option<f64>,
    /// `--policies a,b,...`: online-policy names compared by the
    /// `online` binary (a single name is fine — unlike `--algorithms`,
    /// there is no primary/reference pairing); `None` keeps the binary's
    /// default selection.
    pub policies: Option<Vec<String>>,
    /// `--shard-workers N`: shard executors of the `serve` bench's
    /// in-process daemon, the router included; `None` keeps the binary's
    /// default (1, no worker thread).
    pub shard_workers: Option<usize>,
    /// `--queue-depth N`: queue bound of each worker thread of the
    /// `serve` bench's daemon; `None` keeps the daemon's default.
    pub queue_depth: Option<usize>,
    /// `--admission R`: admission rule of the `serve` bench's daemon;
    /// `None` keeps the binary's default (`admit-all`).
    pub admission: Option<AdmissionRule>,
    /// `--quick`: CI smoke mode (smallest topology, one run per point).
    pub quick: bool,
    /// `--full`: paper-scale mode.
    pub full: bool,
    /// `--small`: swap the k=8 fat-tree for the k=4 one (`fig2`).
    pub small: bool,
    /// `--json-out [PATH]`: where to write the JSON report, if anywhere.
    pub json_out: Option<PathBuf>,
}

/// The flags every binary accepts.
const SHARED_FLAGS: &[&str] = &["--quick", "--full", "--threads", "--json-out"];

/// Every flag with the value it takes as the usage line shows it (empty
/// for a switch), in usage order.
const FLAGS: &[(&str, &str)] = &[
    ("--runs", "N"),
    ("--seeds", "N"),
    ("--flows", "N"),
    ("--step", "N"),
    ("--threads", "N"),
    ("--algorithms", "a,b,..."),
    ("--load", "a,b,..."),
    ("--rates", "a,b,..."),
    ("--downtime", "D"),
    ("--policies", "a,b,..."),
    ("--shard-workers", "N"),
    ("--queue-depth", "N"),
    ("--admission", "R"),
    ("--quick", ""),
    ("--full", ""),
    ("--small", ""),
    ("--json-out", "[PATH]"),
];

/// The usage line of a binary that reads `flags` besides the shared ones.
fn usage(experiment: &str, flags: &[&str]) -> String {
    let accepted = FLAGS
        .iter()
        .filter(|(flag, _)| SHARED_FLAGS.contains(flag) || flags.contains(flag))
        .map(|(flag, value)| format!("[{flag} {value}]").replace(" ]", "]"))
        .collect::<Vec<_>>();
    format!("usage: {experiment} {}", accepted.join(" "))
}

impl ExperimentCli {
    /// Parses the process's command line for a binary that reads `flags`
    /// besides the shared ones, exiting with usage on errors.
    pub fn parse(experiment: &str, flags: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(experiment, flags, &args) {
            Ok(cli) => cli,
            Err(message) => {
                eprintln!("{experiment}: {message}");
                eprintln!("{}", usage(experiment, flags));
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument slice for a binary that reads `flags` besides
    /// the shared ones.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, flags the binary does not
    /// read, missing or malformed values, and algorithm or policy names no
    /// registry knows.
    pub fn from_args(experiment: &str, flags: &[&str], args: &[String]) -> Result<Self, String> {
        debug_assert!(
            flags
                .iter()
                .all(|f| FLAGS.iter().any(|(flag, _)| flag == f)),
            "{experiment} names a flag the CLI does not have: {flags:?}"
        );
        let mut cli = Self {
            experiment: experiment.to_string(),
            threads: default_threads(),
            ..Self::default()
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let Some(&(_, takes)) = FLAGS.iter().find(|&&(f, _)| f == flag) else {
                return Err(format!("unknown flag {flag:?}"));
            };
            if !SHARED_FLAGS.contains(&flag) && !flags.contains(&flag) {
                return Err(format!("{flag} is not read here"));
            }
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
            } else if !takes.is_empty() {
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
                        let names: Vec<String> = split_list(value).map(str::to_string).collect();
                        if names.len() < 2 {
                            return Err(format!(
                                "--algorithms expects at least a primary and a reference \
                                 (comma-separated), got {value:?}"
                            ));
                        }
                        check_known("algorithm", &names, &AlgorithmRegistry::NAMES)?;
                        cli.algorithms = Some(names);
                    }
                    "--load" => {
                        let valid = |l: f64| l.is_finite() && l > 0.0;
                        cli.load =
                            Some(parse_list(flag, value, "load factors", "positive", valid)?);
                    }
                    "--rates" => {
                        let valid = |r: f64| r.is_finite() && r >= 0.0;
                        let rates =
                            parse_list(flag, value, "failure rates", "non-negative", valid)?;
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
                        let rule = AdmissionRule::from_name(value).ok_or_else(|| {
                            format!(
                                "--admission expects admit-all or reject-infeasible, got \
                                 {value:?}"
                            )
                        })?;
                        cli.admission = Some(rule);
                    }
                    "--policies" => {
                        let names: Vec<String> = split_list(value).map(str::to_string).collect();
                        if names.is_empty() {
                            return Err(format!(
                                "--policies expects comma-separated policy names, got {value:?}"
                            ));
                        }
                        // A repeated name would run its group twice and pool
                        // both into one point.
                        let repeated = (1..names.len()).find(|&i| names[..i].contains(&names[i]));
                        if let Some(i) = repeated {
                            return Err(format!("--policies lists {:?} twice", names[i]));
                        }
                        if experiment == "serve" {
                            // The serve bench compares the daemon's own
                            // policies, not the engine registry's.
                            for name in &names {
                                ServePolicy::parse(name)?;
                            }
                        } else {
                            check_known("policy", &names, &POLICY_NAMES)?;
                        }
                        cli.policies = Some(names);
                    }
                    _ => unreachable!("every flag that takes a value is matched"),
                }
                i += 2;
            } else {
                match flag {
                    "--quick" => cli.quick = true,
                    "--full" => cli.full = true,
                    "--small" => cli.small = true,
                    _ => unreachable!("every switch is matched"),
                }
                i += 1;
            }
        }
        if cli.threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        // Zero sweep sizes produce empty (schema-invalid) artifacts, NaN
        // averages, or a step_by(0) panic downstream; fail fast instead.
        for (flag, value) in [
            ("--runs", cli.runs),
            ("--seeds", cli.seeds.map(|seeds| seeds as usize)),
            ("--flows", cli.flows),
            ("--step", cli.step),
            ("--shard-workers", cli.shard_workers),
            ("--queue-depth", cli.queue_depth),
        ] {
            if value == Some(0) {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        // The failure sweep runs at one load; a list would silently run
        // its first value and drop the rest.
        let loads = cli.load.as_ref().map_or(0, Vec::len);
        if experiment == "failures" && loads > 1 {
            return Err(format!(
                "--load takes a single load factor for failures, got {loads} values"
            ));
        }
        Ok(cli)
    }

    /// The conventional artifact path: `BENCH_<experiment>.json`.
    pub fn default_json_path(&self) -> PathBuf {
        PathBuf::from(format!("BENCH_{}.json", self.experiment))
    }

    /// Prints the run's wall clock to stderr, writes the report to
    /// `--json-out` (when given) and prints where it went.
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
        report
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

/// The non-empty items of a comma-separated flag value, trimmed.
fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|v| !v.is_empty())
}

/// Parses a comma-separated list of numbers, each of which must pass
/// `valid` (a `bound`, finite value).
fn parse_list(
    flag: &str,
    value: &str,
    what: &str,
    bound: &str,
    valid: impl Fn(f64) -> bool,
) -> Result<Vec<f64>, String> {
    let list = split_list(value)
        .map(|v| parse_value::<f64>(flag, v))
        .collect::<Result<Vec<f64>, String>>()?;
    if list.is_empty() {
        return Err(format!(
            "{flag} expects comma-separated {what}, got {value:?}"
        ));
    }
    match list.iter().find(|&&v| !valid(v)) {
        Some(bad) => Err(format!(
            "{flag} values must be {bound} and finite, got {bad}"
        )),
        None => Ok(list),
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

    /// The flags some binaries read besides the shared ones, as their
    /// `main`s name them.
    const FIG2: &[&str] = &["--runs", "--step", "--small", "--algorithms"];
    const ONLINE: &[&str] = &["--runs", "--flows", "--algorithms", "--policies", "--load"];
    const FAILURES: &[&str] = &[
        "--runs",
        "--flows",
        "--algorithms",
        "--policies",
        "--load",
        "--rates",
        "--downtime",
    ];
    const SERVE: &[&str] = &[
        "--runs",
        "--flows",
        "--policies",
        "--admission",
        "--shard-workers",
        "--queue-depth",
    ];
    /// Every flag a binary can read.
    fn every() -> Vec<&'static str> {
        FLAGS.iter().map(|&(flag, _)| flag).collect()
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
            FIG2,
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
        let cli =
            ExperimentCli::from_args("fig2", FIG2, &args(&["--algorithms", "dcfsr,sp-mcf,ecmp"]))
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
        assert!(ExperimentCli::from_args("fig2", FIG2, &args(&["--algorithms", "dcfsr"])).is_err());
        assert!(ExperimentCli::from_args("fig2", FIG2, &args(&["--algorithms"])).is_err());
        // A name the harness registry cannot create is a usage error, not
        // a panic inside the sweep.
        let err = ExperimentCli::from_args("fig2", FIG2, &args(&["--algorithms", "nope,sp-mcf"]))
            .unwrap_err();
        assert!(
            err.starts_with("unknown algorithm \"nope\" (expected one of dcfsr, "),
            "{err}"
        );
    }

    #[test]
    fn cli_parses_the_load_sweep() {
        let cli =
            ExperimentCli::from_args("online", ONLINE, &args(&["--load", "0.5,1,2,4"])).unwrap();
        assert_eq!(cli.load, Some(vec![0.5, 1.0, 2.0, 4.0]));
        // Non-positive, non-finite and empty lists are rejected.
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--load", "0"])).is_err());
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--load", "-1"])).is_err());
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--load", "nan"])).is_err());
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--load", ","])).is_err());
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--load"])).is_err());
    }

    #[test]
    fn cli_parses_the_failure_sweep_knobs() {
        let cli = ExperimentCli::from_args(
            "failures",
            FAILURES,
            &args(&["--rates", "0,0.01,0.05", "--downtime", "2.5"]),
        )
        .unwrap();
        assert_eq!(cli.rates, Some(vec![0.0, 0.01, 0.05]));
        assert_eq!(cli.downtime, Some(2.5));
        // Rate 0 is the static baseline; negatives and NaN are rejected.
        assert!(
            ExperimentCli::from_args("failures", FAILURES, &args(&["--rates", "-0.1"])).is_err()
        );
        assert!(
            ExperimentCli::from_args("failures", FAILURES, &args(&["--rates", "nan"])).is_err()
        );
        assert!(ExperimentCli::from_args("failures", FAILURES, &args(&["--rates", ","])).is_err());
        assert!(
            ExperimentCli::from_args("failures", FAILURES, &args(&["--downtime", "0"])).is_err()
        );
        assert!(
            ExperimentCli::from_args("failures", FAILURES, &args(&["--downtime", "-1"])).is_err()
        );
        assert!(
            ExperimentCli::from_args("failures", FAILURES, &args(&["--downtime", "inf"])).is_err()
        );
    }

    #[test]
    fn cli_parses_the_policies_selector() {
        let cli = ExperimentCli::from_args(
            "online",
            ONLINE,
            &args(&["--policies", "resolve,edf,hybrid"]),
        )
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
        let cli =
            ExperimentCli::from_args("online", ONLINE, &args(&["--policies", "hybrid"])).unwrap();
        assert_eq!(cli.policies, Some(vec!["hybrid".to_string()]));
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--policies", ","])).is_err());
        assert!(ExperimentCli::from_args("online", ONLINE, &args(&["--policies"])).is_err());
        // Unknown names are usage errors.
        for (experiment, flags) in [("online", ONLINE), ("failures", FAILURES)] {
            let err =
                ExperimentCli::from_args(experiment, flags, &args(&["--policies", "edf,nope"]))
                    .unwrap_err();
            assert_eq!(
                err,
                "unknown policy \"nope\" (expected one of resolve, edf, srpt, hybrid)"
            );
        }
        // A repeated name is a usage error everywhere, not a group run twice.
        for (experiment, flags, list, name) in [
            ("online", ONLINE, "edf,edf", "edf"),
            ("failures", FAILURES, "resolve,edf,resolve", "resolve"),
            ("serve", SERVE, "edf,greedy,edf", "edf"),
        ] {
            let err = ExperimentCli::from_args(experiment, flags, &args(&["--policies", list]))
                .unwrap_err();
            assert_eq!(err, format!("--policies lists {name:?} twice"));
        }
        // The serve bench speaks the daemon's policy names instead.
        let cli =
            ExperimentCli::from_args("serve", SERVE, &args(&["--policies", "greedy"])).unwrap();
        assert_eq!(cli.policies, Some(vec!["greedy".to_string()]));
        assert!(
            ExperimentCli::from_args("serve", SERVE, &args(&["--policies", "hybrid"])).is_err()
        );
    }

    #[test]
    fn cli_json_out_path_is_optional() {
        let cli =
            ExperimentCli::from_args("fig2", FIG2, &args(&["--json-out", "--quick"])).unwrap();
        assert_eq!(cli.json_out, Some(PathBuf::from("BENCH_fig2.json")));
        assert!(cli.quick);

        let cli = ExperimentCli::from_args("fig2", FIG2, &args(&["--json-out"])).unwrap();
        assert_eq!(cli.json_out, Some(PathBuf::from("BENCH_fig2.json")));
    }

    #[test]
    fn cli_rejects_unknown_and_malformed_flags() {
        assert!(ExperimentCli::from_args("x", &every(), &args(&["--frobnicate"])).is_err());
        // A flag the binary does not read is a usage error, not a run that
        // silently ignores it; the shared flags stay accepted everywhere.
        for (experiment, flags, unread) in [
            ("online", ONLINE, ["--admission", "reject-infeasible"]),
            ("online", ONLINE, ["--shard-workers", "3"]),
            ("online", ONLINE, ["--step", "7"]),
            ("fig2", FIG2, ["--rates", "0.5"]),
            ("fig2", FIG2, ["--downtime", "3"]),
            ("fig2", FIG2, ["--admission", "reject-infeasible"]),
            ("fig2", FIG2, ["--policies", "edf"]),
            ("serve", SERVE, ["--algorithms", "dcfsr,sp-mcf"]),
            ("example1", &[], ["--runs", "2"]),
        ] {
            let mut line = vec!["--quick"];
            line.extend(unread);
            assert_eq!(
                ExperimentCli::from_args(experiment, flags, &args(&line)).unwrap_err(),
                format!("{} is not read here", unread[0])
            );
        }
        for (experiment, flags) in [("example1", &[][..]), ("online", ONLINE), ("fig2", FIG2)] {
            let shared = ["--quick", "--full", "--threads", "2", "--json-out"];
            assert!(ExperimentCli::from_args(experiment, flags, &args(&shared)).is_ok());
        }
        // The usage line lists what the binary reads and nothing else.
        assert_eq!(
            usage("fig2", FIG2),
            "usage: fig2 [--runs N] [--step N] [--threads N] [--algorithms a,b,...] [--quick] \
             [--full] [--small] [--json-out [PATH]]"
        );
        assert_eq!(
            usage("example1", &[]),
            "usage: example1 [--threads N] [--quick] [--full] [--json-out [PATH]]"
        );
        // The online engine has no batching or sharding flags, and solves
        // have no thread count of their own.
        for removed in [
            ["--epoch", "0.05"],
            ["--shards", "2"],
            ["--solver-threads", "2"],
        ] {
            assert_eq!(
                ExperimentCli::from_args("online", ONLINE, &args(&removed)).unwrap_err(),
                format!("unknown flag {:?}", removed[0])
            );
        }
        assert!(ExperimentCli::from_args("x", &every(), &args(&["--runs"])).is_err());
        assert!(ExperimentCli::from_args("x", &every(), &args(&["--runs", "many"])).is_err());
        assert!(ExperimentCli::from_args("x", &every(), &args(&["--threads", "0"])).is_err());
        // The failure sweep runs at one load: a list is a usage error
        // there, not a silent run at its first value.
        assert_eq!(
            ExperimentCli::from_args("failures", FAILURES, &args(&["--load", "1,2"])).unwrap_err(),
            "--load takes a single load factor for failures, got 2 values"
        );
        let cli = ExperimentCli::from_args("failures", FAILURES, &args(&["--load", "3"])).unwrap();
        assert_eq!(cli.load, Some(vec![3.0]));
        for flag in ["--runs", "--seeds", "--flows", "--step"] {
            assert!(
                ExperimentCli::from_args("x", &every(), &args(&[flag, "0"])).is_err(),
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
