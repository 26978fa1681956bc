//! One run of one workload: passes until the time budget is spent, the
//! pass-to-pass checks, and the result the driver reads.

use crate::json::{object, text};
use crate::metrics::{Kind, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{Pass, Workload};
use serde::Value;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest passes a timing is taken over.
const MIN_PASSES: usize = 5;
/// A traced pass does the work twice and runs the probes; three keep the
/// traced run about as long as the untraced one.
const MIN_TRACED_PASSES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seeds the generated inputs only; the program under test never sees it.
    pub seed: u64,
    /// Passes repeat until this much wall time is spent.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread over the passes, for timings.
    pub passes: Option<Summary>,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

pub fn run(config: &RunConfig) -> RunResult {
    let sizes = config.workload.sizes(config.smoke);
    let min_passes = match (config.smoke, config.trace) {
        (true, _) => 2,
        (false, true) => MIN_TRACED_PASSES,
        (false, false) => MIN_PASSES,
    };
    let budget = Duration::from_secs_f64(config.seconds);
    let mut tracer = Tracer::new(config.trace);
    let mut passes: Vec<Pass> = Vec::new();
    let mut errors = Vec::new();
    let started = Instant::now();
    while passes.len() < min_passes || started.elapsed() < budget {
        tracer.start_pass(passes.len());
        let gate = passes.is_empty();
        match config.workload.pass(&sizes, config.seed, gate, &mut tracer) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                errors.push(format!("pass {}: {e}", passes.len()));
                break;
            }
        }
    }
    for (i, pass) in passes.iter().enumerate() {
        errors.extend(pass.errors.iter().map(|e| format!("pass {i}: {e}")));
        errors.extend(pass_errors(&passes[0], pass).map(|e| format!("pass {i}: {e}")));
    }
    if config.trace {
        if let Err(e) = write_trace(&tracer, config.workload) {
            errors.push(format!("trace file: {e}"));
        }
    }

    let metrics = if passes.is_empty() {
        Vec::new()
    } else if config.trace {
        layer_metrics(&passes, &mut errors)
    } else {
        end_to_end_metrics(&passes)
    };
    RunResult {
        correct: errors.is_empty(),
        attempted: passes.iter().map(|p| p.attempted).sum::<u64>().max(1),
        failed: passes.iter().map(|p| p.failed).sum(),
        passes: passes.len(),
        metrics,
        errors,
    }
}

/// What must hold between the first pass and every pass (itself included).
fn pass_errors(first: &Pass, pass: &Pass) -> impl Iterator<Item = String> {
    let mut errors = Vec::new();
    if pass.energy < pass.fluid {
        errors.push(format!(
            "energy {} is below the fluid bound {}",
            pass.energy, pass.fluid
        ));
    }
    if pass.failed > 0 {
        errors.push(format!(
            "{} of {} operations failed; every workload is sized so that none does",
            pass.failed, pass.attempted
        ));
    }
    if pass.fingerprint != first.fingerprint
        || pass.energy.to_bits() != first.energy.to_bits()
        || pass.fluid.to_bits() != first.fluid.to_bits()
        || (pass.attempted, pass.failed) != (first.attempted, first.failed)
    {
        errors.push(format!(
            "outputs differ from pass 0 (energy {} vs {}, failed {} vs {}, fingerprint {:016x} vs {:016x})",
            pass.energy, first.energy, pass.failed, first.failed, pass.fingerprint, first.fingerprint
        ));
    }
    errors.into_iter()
}

fn end_to_end_metrics(passes: &[Pass]) -> Vec<Metric> {
    let column = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    END_TO_END
        .iter()
        .map(|m| {
            let (value, summary) = match m.name {
                "work_s" => fastest(&column(|p| p.work_s)),
                "setup_s" => fastest(&column(|p| p.setup_s)),
                "energy_over_fluid" => (passes[0].energy / passes[0].fluid, None),
                "peak_rss_mb" => (peak_rss_mb(), None),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                passes: summary,
            }
        })
        .collect()
}

/// The reported value of a timing: its fastest pass. The passes are
/// identical deterministic computations, so what separates them is the
/// host, which on shared hardware alternates between two speeds for
/// seconds at a time; the median flips with it, the minimum does not
/// (`perf/README.md` has the measurement).
fn fastest(values: &[f64]) -> (f64, Option<Summary>) {
    let summary = Summary::of(values);
    (summary.min, Some(summary))
}

/// Every per-layer metric: timings by their fastest pass, the parts of the
/// traced operation all from its fastest execution, counts checked to
/// repeat exactly, derived ratios from the values reported beside them.
/// A layer the workload never enters reads 0.
fn layer_metrics(passes: &[Pass], errors: &mut Vec<String>) -> Vec<Metric> {
    let layer = |p: &Pass, name: &str| p.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| {
            let values: Vec<f64> = passes.iter().filter_map(|p| layer(p, m.name)).collect();
            let (value, passes) = match m.kind {
                // Filled in below, once the values it is made of are known.
                Kind::Derived(_) => (0.0, None),
                _ if values.is_empty() => (0.0, None),
                Kind::Time => fastest(&values),
                Kind::Part => {
                    let traced_s = |p: &&Pass| layer(p, "trace.work_s").unwrap_or(f64::INFINITY);
                    let entered = passes.iter().filter(|p| layer(p, m.name).is_some());
                    let best = entered.min_by(|a, b| traced_s(a).total_cmp(&traced_s(b)));
                    let best = best.unwrap_or_else(|| unreachable!("a pass reported a value"));
                    (
                        layer(best, m.name).unwrap_or(0.0),
                        Some(Summary::of(&values)),
                    )
                }
                Kind::Count => {
                    if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                        errors.push(format!("{} varies between passes: {values:?}", m.name));
                    }
                    (values[0], None)
                }
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                passes,
            }
        })
        .collect();
    for (i, m) in PER_LAYER.iter().enumerate() {
        if let Kind::Derived(derive) = m.kind {
            let reported = |name: &str| {
                let base = metrics.iter().find(|m| m.name == name);
                base.unwrap_or_else(|| unreachable!("{name} is not a per-layer metric"))
                    .value
            };
            metrics[i].value = derive(&reported);
        }
    }
    metrics
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where run artefacts (trace files, suite results) go, from the
/// repository root `run.sh` starts the binary in.
pub const OUT_DIR: &str = "perf/out";

fn write_trace(tracer: &Tracer, workload: Workload) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    let name = format!("trace_{}.jsonl", workload.name());
    let file = fs::File::create(Path::new(OUT_DIR).join(name))?;
    let mut out = BufWriter::new(file);
    tracer.write_jsonl(&mut out)?;
    out.flush()
}

impl RunResult {
    /// The one-line JSON object the driver reads off the last line of
    /// standard output.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let entry = object(vec![("value", Value::F64(m.value)), ("unit", text(m.unit))]);
            (m.name, entry)
        });
        object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", object(metrics.collect())),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self, config: &RunConfig, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{} seed={} passes={} {}{}",
            config.workload.name(),
            config.seed,
            self.passes,
            if config.trace { "traced" } else { "untraced" },
            if config.smoke {
                " SMOKE (not for numbers)"
            } else {
                ""
            },
        )?;
        for m in &self.metrics {
            write!(out, "  {:<36} {:>14.6} {:<6}", m.name, m.value, m.unit)?;
            if let Some(s) = m.passes {
                write!(
                    out,
                    " min {:.6} q1 {:.6} q3 {:.6} n={}",
                    s.min, s.q1, s.q3, s.n
                )?;
            }
            writeln!(out)?;
        }
        writeln!(
            out,
            "  {:<36} {:>14.6} {:<6} ({} failed of {} attempted)",
            "failed_share",
            self.failed as f64 / self.attempted as f64,
            "share",
            self.failed,
            self.attempted
        )?;
        for error in &self.errors {
            writeln!(out, "  CHECK FAILED: {error}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(energy: f64, fingerprint: u64) -> Pass {
        Pass {
            energy,
            fluid: 1.0,
            attempted: 10,
            fingerprint,
            ..Pass::default()
        }
    }

    #[test]
    fn identical_passes_raise_no_error() {
        let first = pass(2.0, 7);
        assert_eq!(pass_errors(&first, &first.clone()).count(), 0);
    }

    /// The correctness gate, demonstrated on a deliberately corrupted
    /// expected value: one flipped bit of the energy, a changed output
    /// hash, or an energy below the fluid bound each fail the run.
    #[test]
    fn corrupted_expected_values_fail_the_gate() {
        let first = pass(2.0, 7);
        let flipped = pass(f64::from_bits(2.0f64.to_bits() ^ 1), 7);
        assert_eq!(pass_errors(&first, &flipped).count(), 1);
        assert_eq!(pass_errors(&first, &pass(2.0, 8)).count(), 1);
        let below = pass(0.5, 7);
        assert!(pass_errors(&below, &below.clone()).any(|e| e.contains("fluid bound")));
    }

    /// `failed_share` is expected to read 0: a failed operation fails the
    /// run even when every pass fails the same way.
    #[test]
    fn a_failed_operation_fails_the_gate() {
        let mut rejecting = pass(2.0, 7);
        rejecting.failed = 1;
        let errors: Vec<String> = pass_errors(&rejecting, &rejecting.clone()).collect();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("1 of 10 operations failed"));
    }

    /// The parts of the traced operation come from one execution, the
    /// fastest, even where another pass had the faster part.
    #[test]
    fn parts_are_read_off_the_fastest_traced_pass() {
        let traced = |work_s: f64, relax_s: f64, sssp_us: f64| {
            let mut p = pass(2.0, 7);
            p.layers = vec![
                ("trace.work_s", work_s),
                ("core.relaxation.relax_s", relax_s),
                ("topology.engine.sssp_us", sssp_us),
            ];
            p
        };
        let passes = [traced(1.0, 0.9, 6.0), traced(1.2, 0.8, 5.0)];
        let metrics = layer_metrics(&passes, &mut Vec::new());
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("trace.work_s"), 1.0);
        assert_eq!(value("core.relaxation.relax_s"), 0.9);
        assert_eq!(value("core.relaxation.share"), 0.9);
        // A probe is a timing of its own: its fastest pass.
        assert_eq!(value("topology.engine.sssp_us"), 5.0);
    }

    #[test]
    fn exact_layer_metrics_must_repeat() {
        let mut a = pass(2.0, 7);
        a.layers.push(("core.online.events", 10.0));
        let mut b = a.clone();
        let mut errors = Vec::new();
        let metrics = layer_metrics(&[a.clone(), b.clone()], &mut errors);
        assert!(errors.is_empty());
        assert_eq!(metrics.len(), PER_LAYER.len());
        let events = metrics
            .iter()
            .find(|m| m.name == "core.online.events")
            .unwrap();
        assert_eq!(events.value, 10.0);
        // A layer off the workload's path reads 0.
        assert_eq!(metrics[0].value, 0.0);
        b.layers[0].1 = 11.0;
        layer_metrics(&[a, b], &mut errors);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            passes: 1,
            metrics: vec![Metric {
                name: "work_s",
                unit: "s",
                value: 1.25,
                passes: None,
            }],
            errors: Vec::new(),
        };
        assert_eq!(
            serde_json::to_string(&result.to_json()).unwrap(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"work_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
