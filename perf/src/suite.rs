//! The whole benchmark in one command, and the comparison of two of its
//! result files.
//!
//! `suite` runs every workload in a process of its own (so `peak_rss_mb`
//! is per workload): [`SUITE_RUNS`] rounds of one untraced run each for the
//! end-to-end metrics, then one traced run each for the per-layer ones. `compare` applies the
//! benchmark's same-seed bounds to two result files.

use crate::json::{field, number, object, text};
use crate::metrics::{self, Better};
use crate::run::OUT_DIR;
use crate::stats::Summary;
use crate::workloads::Workload;
use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Untraced runs per workload: five, so that one run that fell into a slow
/// stretch of the host moves neither the median nor the quartiles
/// `compare` judges by (of three values the quartiles lean on the extremes).
const SUITE_RUNS: usize = 5;

#[derive(Debug, Clone)]
pub struct SuiteConfig {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub json_out: Option<PathBuf>,
}

/// The fields of the environment block two result files must share to be
/// comparable.
const COMPARABLE: [&str; 7] = [
    "nproc", "pinned", "rustc", "seed", "seconds", "smoke", "sizes",
];

pub fn suite(config: &SuiteConfig) -> Result<(), String> {
    let runs = if config.smoke { 1 } else { SUITE_RUNS };
    let mut all_correct = true;
    // Round by round, not workload by workload: the host has slow stretches
    // of a minute and more, and this way one of them meets one run of each
    // workload instead of all the runs of one.
    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 1..=runs {
        eprintln!("dcn-perf: untraced round {round} of {runs}");
        for (workload, lines) in Workload::ALL.into_iter().zip(&mut untraced) {
            lines.push(child_run(config, workload, false)?);
        }
    }

    let mut workloads = Vec::new();
    for (workload, lines) in Workload::ALL.into_iter().zip(&untraced) {
        // Per end-to-end metric, the value of every untraced run.
        let mut end_to_end: Vec<(String, String, Vec<f64>)> = Vec::new();
        for line in lines {
            all_correct &= field(line, "correct") == Some(&Value::Bool(true));
            for (name, unit, value) in metric_values(line)? {
                match end_to_end.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => end_to_end.push((name, unit, vec![value])),
                }
            }
        }
        let last = &lines[lines.len() - 1];
        let count = |name: &str| field(last, name).and_then(number).unwrap_or(0.0) as u64;
        let (attempted, failed) = (count("attempted"), count("failed"));
        let traced = child_run(config, workload, true)?;
        all_correct &= field(&traced, "correct") == Some(&Value::Bool(true));
        let per_layer = metric_values(&traced)?;

        println!(
            "== {} ({} untraced runs, 1 traced run{})",
            workload.name(),
            runs,
            if config.smoke {
                ", SMOKE: not for numbers"
            } else {
                ""
            }
        );
        for (name, unit, values) in &end_to_end {
            let s = Summary::of(values);
            println!(
                "  {name:<36} {:>14.6} {unit:<6} q1 {:.6} q3 {:.6} runs={}",
                s.median, s.q1, s.q3, s.n
            );
        }
        println!(
            "  {:<36} {:>14.6} {:<6} ({failed} of {attempted})",
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "share"
        );
        for (name, unit, value) in &per_layer {
            println!("  {name:<36} {value:>14.6} {unit:<6}");
        }

        let end_to_end = end_to_end.iter().map(|(name, unit, values)| {
            let values = values.iter().copied().map(Value::F64).collect();
            let entry = object(vec![("unit", text(unit)), ("values", Value::Seq(values))]);
            (name.as_str(), entry)
        });
        let per_layer = per_layer.iter().map(|(name, unit, value)| {
            let entry = object(vec![("unit", text(unit)), ("value", Value::F64(*value))]);
            (name.as_str(), entry)
        });
        workloads.push((
            workload.name(),
            object(vec![
                ("attempted", Value::U64(attempted)),
                ("failed", Value::U64(failed)),
                ("end_to_end", object(end_to_end.collect())),
                ("per_layer", object(per_layer.collect())),
            ]),
        ));
    }

    let result = object(vec![
        ("env", environment(config)),
        ("workloads", object(workloads)),
    ]);
    let path = config
        .json_out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("a correctness check failed (see CHECK FAILED above)".to_string())
    }
}

/// Runs one workload in a child process and returns its result line.
fn child_run(config: &SuiteConfig, workload: Workload, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if config.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let value: Value = serde_json::from_str(line)
        .map_err(|e| format!("{} printed no result ({e}):\n{stdout}", workload.name()))?;
    if !output.status.success() {
        // The table names the failed check; the suite goes on so that one
        // broken workload does not hide the others.
        print!("{stdout}");
    }
    Ok(value)
}

fn environment(config: &SuiteConfig) -> Value {
    let env = |name: &str, missing: &str| text(&std::env::var(name).unwrap_or(missing.into()));
    // Counted by run.sh before it pins the process to one CPU.
    let nproc = std::env::var("DCN_PERF_NPROC")
        .ok()
        .and_then(|n| n.parse().ok())
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(0);
    let load = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    let sizes = Workload::ALL.iter().map(|w| {
        let s = w.sizes(config.smoke);
        let size = format!(
            "fat-tree:{} flows={} load={} capacity={}",
            s.k,
            s.flows,
            s.load.unwrap_or(0.0),
            s.capacity
        );
        (w.name(), text(&size))
    });
    object(vec![
        ("commit", env("DCN_PERF_COMMIT", "unknown")),
        ("nproc", Value::U64(nproc as u64)),
        ("pinned", env("DCN_PERF_PINNED", "false")),
        ("rustc", env("DCN_PERF_RUSTC", "unknown")),
        ("loadavg_at_start", text(&load.join(" "))),
        ("seed", Value::U64(config.seed)),
        ("seconds", Value::F64(config.seconds)),
        ("smoke", Value::Bool(config.smoke)),
        ("sizes", object(sizes.collect())),
    ])
}

/// `(name, unit, value)` of every metric of a result line.
fn metric_values(line: &Value) -> Result<Vec<(String, String, f64)>, String> {
    let metrics = field(line, "metrics")
        .and_then(Value::as_map)
        .ok_or("result line has no metrics")?;
    metrics
        .iter()
        .map(|(name, entry)| {
            let value = field(entry, "value")
                .and_then(number)
                .ok_or(format!("{name} has no value"))?;
            let unit = match field(entry, "unit") {
                Some(Value::Str(unit)) => unit.clone(),
                _ => return Err(format!("{name} has no unit")),
            };
            Ok((name.clone(), unit, value))
        })
        .collect()
}

/// How the second file's metric reads against the first's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` against the runs `a` of one metric: `b` may be worse
/// by the share `bound` of a median or by `floor`, whichever is more. An
/// inter-quartile spread wider than that leaves the pair unresolved unless
/// every run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> (f64, Verdict) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive when `b` is worse.
    let difference = match better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    let b_wins_every_pair = match better {
        Better::Lower => max(b) < sa.min,
        Better::Higher => sb.min > max(a),
    };
    let allowed = |s: &Summary| (bound * s.median.abs()).max(floor);
    let too_wide = |s: &Summary| s.q3 - s.q1 > allowed(s);
    let verdict = if (too_wide(&sa) || too_wide(&sb)) && !b_wins_every_pair {
        Verdict::Unresolved
    } else if difference > allowed(&sa) {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (difference / sa.median.abs(), verdict)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Prints one row per workload and end-to-end metric, `failed_share`
/// among them; errs when a row is `worse` or `unresolved`, or when the
/// files are not comparable.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let load = |path: &Path| -> Result<Value, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (env_a, env_b) = (field(&a, "env"), field(&b, "env"));
    for key in COMPARABLE {
        let (va, vb) = (
            env_a.and_then(|e| field(e, key)),
            env_b.and_then(|e| field(e, key)),
        );
        if va.is_none() || va != vb {
            let show = |v: Option<&Value>| {
                v.map_or("missing".to_string(), |v| {
                    serde_json::to_string(v).unwrap_or_default()
                })
            };
            return Err(format!(
                "the files are not comparable: env.{key} is {} in {} and {} in {}",
                show(va),
                a_path.display(),
                show(vb),
                b_path.display()
            ));
        }
    }

    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut bad = 0;
    for workload in Workload::ALL {
        for metric in &metrics::END_TO_END {
            let values = |file: &Value| -> Result<Vec<f64>, String> {
                workload_of(file, workload)
                    .and_then(|w| field(w, "end_to_end"))
                    .and_then(|m| field(m, metric.name))
                    .and_then(|m| field(m, "values"))
                    .and_then(Value::as_seq)
                    .filter(|v| !v.is_empty())
                    .ok_or(format!("{} has no {}", workload.name(), metric.name))?
                    .iter()
                    .map(|v| number(v).ok_or(format!("{} is not a number: {v:?}", metric.name)))
                    .collect()
            };
            let (va, vb) = (values(&a)?, values(&b)?);
            let (relative, verdict) = judge(
                &va,
                &vb,
                metric.better,
                metric.same_seed_bound,
                metric.same_seed_floor,
            );
            if verdict != Verdict::Ok {
                bad += 1;
            }
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                workload.name(),
                metric.name,
                Summary::of(&va).median,
                Summary::of(&vb).median,
                relative * 100.0,
                metric.same_seed_bound * 100.0,
                verdict.as_str()
            );
        }

        // Expected to read 0, so it has no relative bound: any increase is
        // a regression, and no speed-up excuses one.
        let failed_share = |file: &Value| -> Result<f64, String> {
            let count = |name: &str| {
                workload_of(file, workload)
                    .and_then(|w| field(w, name))
                    .and_then(number)
            };
            match (count("failed"), count("attempted")) {
                (Some(failed), Some(attempted)) if attempted > 0.0 => Ok(failed / attempted),
                _ => Err(format!("{} has no failed/attempted", workload.name())),
            }
        };
        let (fa, fb) = (failed_share(&a)?, failed_share(&b)?);
        let verdict = judge_failed_share(fa, fb);
        if verdict != Verdict::Ok {
            bad += 1;
        }
        println!(
            "{:<16} {:<18} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            workload.name(),
            "failed_share",
            fa,
            fb,
            "",
            "none",
            verdict.as_str()
        );
    }
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} rows are worse or unresolved"))
    }
}

/// The block of `workload` in a result file.
fn workload_of(file: &Value, workload: Workload) -> Option<&Value> {
    field(field(file, "workloads")?, workload.name())
}

/// `failed_share` of the second file against the first's.
fn judge_failed_share(a: f64, b: f64) -> Verdict {
    if b > a {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_and_beyond_is_worse() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(
            judge(&a, &[1.05, 1.04, 1.06], Better::Lower, 0.10, 0.0).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[1.20, 1.21, 1.19], Better::Lower, 0.10, 0.0).1,
            Verdict::Worse
        );
        // For a higher-is-better metric the sign flips.
        assert_eq!(
            judge(&a, &[0.80, 0.81, 0.79], Better::Higher, 0.10, 0.0).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[1.20, 1.21, 1.19], Better::Higher, 0.10, 0.0).1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_difference_below_the_floor_does_not_count() {
        // 0.1 ms of set-up doubling is timer noise under a 20 ms floor ...
        let (a, b) = ([1.0e-4, 1.1e-4, 0.9e-4], [2.0e-4, 2.6e-4, 1.9e-4]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10, 0.0).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&a, &b, Better::Lower, 0.10, 0.020).1, Verdict::Ok);
        // ... 12 ms growing by 25 ms is not.
        let (a, b) = ([0.012, 0.012, 0.013], [0.037, 0.037, 0.038]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10, 0.020).1, Verdict::Worse);
    }

    #[test]
    fn a_deterministic_metric_is_held_to_its_tight_bound() {
        let bound = metrics::END_TO_END
            .iter()
            .find(|m| m.name == "energy_over_fluid")
            .unwrap()
            .same_seed_bound;
        let a = [1.118, 1.118, 1.118];
        assert_eq!(judge(&a, &a, Better::Lower, bound, 0.0).1, Verdict::Ok);
        assert_eq!(
            judge(&a, &[1.13, 1.13, 1.13], Better::Lower, bound, 0.0).1,
            Verdict::Worse
        );
    }

    #[test]
    fn any_increase_of_failed_share_is_worse() {
        assert_eq!(judge_failed_share(0.0, 0.0), Verdict::Ok);
        assert_eq!(judge_failed_share(0.0, 1e-4), Verdict::Worse);
        assert_eq!(judge_failed_share(1e-3, 1e-4), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.10, 0.0).1,
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(
                &noisy,
                &[0.5, 0.7, 0.4, 0.6, 0.45],
                Better::Lower,
                0.10,
                0.0
            )
            .1,
            Verdict::Ok
        );
    }
}
