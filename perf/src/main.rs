//! `dcn-perf`: the performance benchmark of deadline-dcn.
//!
//! ```text
//! dcn-perf --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! dcn-perf suite [--seed S] [--seconds N] [--smoke] [--json-out F]
//! dcn-perf compare A.json B.json
//! dcn-perf manifest
//! ```
//!
//! The first form runs one workload and prints, as the last line of its
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. See `perf/README.md`.

#![forbid(unsafe_code)]

mod fluid;
mod json;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use run::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use suite::SuiteConfig;
use workloads::Workload;

const USAGE: &str = "usage:
  dcn-perf --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
  dcn-perf suite [--seed S] [--seconds N] [--smoke] [--json-out F]
  dcn-perf compare A.json B.json
  dcn-perf manifest            (prints BENCHMARK.json)
workloads: offline_dcfsr offline_dcfs online_edf online_resolve serve_closed";

/// The flags of the run and suite forms.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    json_out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        json_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                flags.workload = Some(Workload::from_name(v).ok_or_else(|| bad("a workload", v))?);
            }
            "--seed" => {
                let v = value()?;
                flags.seed = v.parse().map_err(|_| bad("a whole number", v))?;
            }
            "--seconds" => {
                let v = value()?;
                flags.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("a number of seconds between 0 and 3600", v))?;
            }
            "--trace" => {
                let v = value()?;
                flags.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", v)),
                };
            }
            "--json-out" => flags.json_out = Some(PathBuf::from(value()?)),
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if flags.smoke {
        // Smoke passes are sub-second; two of them are the whole run.
        flags.seconds = 0.0;
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => serde_json::to_string_pretty(&metrics::manifest())
            .map(|text| println!("{text}"))
            .map_err(|e| e.to_string()),
        Some("suite") => parse_flags(&args[1..]).and_then(|flags| {
            suite::suite(&SuiteConfig {
                seed: flags.seed,
                seconds: flags.seconds,
                smoke: flags.smoke,
                json_out: flags.json_out,
            })
        }),
        _ => parse_flags(&args).and_then(|flags| {
            let workload = flags
                .workload
                .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
            run_one(&RunConfig {
                workload,
                seed: flags.seed,
                seconds: flags.seconds,
                trace: flags.trace,
                smoke: flags.smoke,
            })
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dcn-perf: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(config: &RunConfig) -> Result<(), String> {
    let result = run::run(config);
    let mut out = std::io::stdout().lock();
    result
        .print_table(config, &mut out)
        .map_err(|e| e.to_string())?;
    if result.metrics.is_empty() {
        return Err("no pass completed".to_string());
    }
    let line = serde_json::to_string(&result.to_json()).map_err(|e| e.to_string())?;
    println!("{line}");
    if result.correct {
        Ok(())
    } else {
        Err(format!("{} correctness checks failed", result.errors.len()))
    }
}
