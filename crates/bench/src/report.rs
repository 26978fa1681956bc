//! Machine-readable experiment reports.
//!
//! Every benchmark binary can serialize its run to a `BENCH_<name>.json`
//! artifact built from the types in this module. The schema is versioned
//! ([`SCHEMA_VERSION`]) and validated ([`ExperimentReport::validate`]), and
//! the serialization is **canonical**: field order follows the struct
//! definitions, floats print via Rust's shortest round-trip formatting, and
//! nothing in the artifact depends on the machine, the wall clock or the
//! thread count — unless the run opts into `--timings`, which embeds
//! [`ExperimentReport::wall_clock_seconds`] and is documented to break the
//! byte-determinism contract.

use dcn_flow::workload::UniformWorkload;
use dcn_sim::SimSummary;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Version of the report schema; bump on any breaking field change.
///
/// * v2 — added the opt-in per-instance timing columns
///   [`InstanceRecord::solve_wall_ms`] and
///   [`InstanceRecord::intervals_per_second`] (both `null` outside
///   `--timings` runs).
/// * v3 — added the serving-throughput columns
///   [`InstanceRecord::requests_per_second`] and
///   [`InstanceRecord::p99_latency_ms`] for the `serve` bench (both
///   `null` outside `--timings` runs and for every batch experiment).
pub const SCHEMA_VERSION: u32 = 3;

/// One solved `(topology, workload, power-function, seed)` instance, as it
/// appears in the JSON artifact.
///
/// The record is shared by all experiments: `rs_*` fields describe the
/// **primary** algorithm of the experiment (Random-Schedule everywhere
/// except `example1`, where it is the optimal DCFS schedule) and `sp_*`
/// fields the **reference** it is compared against (SP+MCF, or the paper's
/// closed form). `lower_bound` is the normaliser: the fractional LB for the
/// sweeps, the analytic optimum for the hardness gadget, the closed-form
/// energy for `example1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// Human-readable instance label, e.g. `"x^2 flows=80 seed=80003"`.
    pub label: String,
    /// Number of flows in the instance.
    pub flows: usize,
    /// RNG seed of the instance.
    pub seed: u64,
    /// Speed-scaling exponent of the power function.
    pub alpha: f64,
    /// The normaliser (fractional LB, analytic optimum, or closed form).
    pub lower_bound: f64,
    /// Absolute energy of the primary algorithm.
    pub rs_energy: f64,
    /// Absolute energy of the reference.
    pub sp_energy: f64,
    /// `rs_energy / lower_bound`.
    pub rs_normalized: f64,
    /// `sp_energy / lower_bound`.
    pub sp_normalized: f64,
    /// Deadline misses across both schedules (zero for every sweep).
    pub deadline_misses: usize,
    /// Worst per-link capacity excess of the primary schedule's rounding.
    pub rs_capacity_excess: f64,
    /// Simulator verification of the primary schedule, when simulated.
    pub rs_sim: Option<SimSummary>,
    /// Simulator verification of the reference schedule, when simulated.
    pub sp_sim: Option<SimSummary>,
    /// Wall-clock of the instance's algorithm `solve` calls in
    /// milliseconds; only populated under `--timings` because timing
    /// columns are machine-dependent and break byte-for-byte artifact
    /// comparison.
    pub solve_wall_ms: Option<f64>,
    /// Relaxation-interval throughput (`intervals / solve seconds`) of the
    /// instance; only populated under `--timings` and only when the
    /// instance solved at least one interval in measurable time.
    pub intervals_per_second: Option<f64>,
    /// Sustained request throughput of the `serve` bench's closed-loop
    /// client (`requests / wall seconds`); only populated under
    /// `--timings`, `null` for every batch experiment.
    pub requests_per_second: Option<f64>,
    /// 99th-percentile admission latency of the `serve` bench in
    /// milliseconds; only populated under `--timings`, `null` for every
    /// batch experiment.
    pub p99_latency_ms: Option<f64>,
    /// Experiment-specific dimensions (e.g. `grain`, `lambda`, `budget`,
    /// `m`), in a fixed order.
    pub extra: Vec<(String, f64)>,
}

impl InstanceRecord {
    /// Looks an experiment-specific dimension up by name.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// One averaged point of a sweep: the mean normalised energies of all
/// instances sharing a `(group, x)` coordinate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Series the point belongs to (e.g. `"x^2"`, one per table).
    pub group: String,
    /// Sweep coordinate (flow count, alpha, grain, ...).
    pub x: f64,
    /// Mean LB-normalised energy of the primary algorithm.
    pub rs: f64,
    /// Mean LB-normalised energy of the reference.
    pub sp: f64,
    /// Number of instances averaged.
    pub runs: usize,
}

/// The complete, versioned JSON artifact of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Schema version; always [`SCHEMA_VERSION`] for freshly written files.
    pub schema_version: u32,
    /// Experiment name (`fig2`, `ablation_alpha`, ...).
    pub experiment: String,
    /// Human-readable topology description.
    pub topology: String,
    /// The workload-descriptor template the instances were drawn from
    /// (`num_flows` and `seed` are overridden per instance), when the
    /// experiment uses the paper's uniform workload.
    pub workload: Option<UniformWorkload>,
    /// Every solved instance, in deterministic order.
    pub instances: Vec<InstanceRecord>,
    /// The averaged sweep table, in deterministic order.
    pub points: Vec<SweepPoint>,
    /// Wall-clock of the run in seconds; only embedded under `--timings`
    /// because it breaks byte-for-byte determinism across runs.
    pub wall_clock_seconds: Option<f64>,
}

impl ExperimentReport {
    /// Creates an empty report shell for an experiment.
    pub fn new(experiment: impl Into<String>, topology: impl Into<String>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.into(),
            topology: topology.into(),
            workload: None,
            instances: Vec::new(),
            points: Vec::new(),
            wall_clock_seconds: None,
        }
    }

    /// A report of `instances` under the `workload` template, with the
    /// sweep points averaged per `(group, x)` coordinate: `coordinates`
    /// holds one pair per instance, in the same order.
    ///
    /// # Panics
    ///
    /// Panics when `coordinates` and `instances` have different lengths.
    pub fn assemble(
        experiment: impl Into<String>,
        topology: impl Into<String>,
        workload: Option<UniformWorkload>,
        instances: Vec<InstanceRecord>,
        coordinates: &[(String, f64)],
    ) -> Self {
        let mut report = Self::new(experiment, topology);
        report.workload = workload;
        report.instances = instances;
        report.aggregate_points(coordinates);
        report
    }

    /// The mean of the `key` dimension of [`InstanceRecord::extra`] over
    /// the instances at `(group, x)`, given the `coordinates` the report
    /// was assembled with; an instance without the key adds zero.
    pub fn mean_extra(&self, coordinates: &[(String, f64)], group: &str, x: f64, key: &str) -> f64 {
        let members: Vec<&InstanceRecord> = self
            .instances
            .iter()
            .zip(coordinates)
            .filter(|(_, (g, gx))| g == group && *gx == x)
            .map(|(r, _)| r)
            .collect();
        members.iter().filter_map(|r| r.extra(key)).sum::<f64>() / members.len() as f64
    }

    /// Serializes the report to canonical pretty-printed JSON (trailing
    /// newline included).
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("reports always serialize");
        text.push('\n');
        text
    }

    /// Writes the canonical JSON to a file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Parses and validates a report from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a schema mismatch, or a
    /// validation failure (see [`Self::validate`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        report.validate()?;
        Ok(report)
    }

    /// Checks the report's structural invariants: current schema version,
    /// non-empty experiment name and instance list, finite metrics, labelled
    /// instances and extras, and sweep points whose `runs` add up to no more
    /// than the instance count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.experiment.is_empty() {
            return Err("experiment name is empty".to_string());
        }
        if self.instances.is_empty() {
            return Err("report contains no instances".to_string());
        }
        for (i, record) in self.instances.iter().enumerate() {
            if record.label.is_empty() {
                return Err(format!("instance {i} has an empty label"));
            }
            let metrics = [
                ("alpha", record.alpha),
                ("lower_bound", record.lower_bound),
                ("rs_energy", record.rs_energy),
                ("sp_energy", record.sp_energy),
                ("rs_normalized", record.rs_normalized),
                ("sp_normalized", record.sp_normalized),
                ("rs_capacity_excess", record.rs_capacity_excess),
            ];
            for (name, value) in metrics {
                if !value.is_finite() {
                    return Err(format!(
                        "instance {i} ({}): {name} not finite",
                        record.label
                    ));
                }
            }
            if record.lower_bound <= 0.0 {
                return Err(format!(
                    "instance {i} ({}): lower_bound must be positive",
                    record.label
                ));
            }
            for (name, value) in [
                ("solve_wall_ms", record.solve_wall_ms),
                ("intervals_per_second", record.intervals_per_second),
                ("requests_per_second", record.requests_per_second),
                ("p99_latency_ms", record.p99_latency_ms),
            ] {
                if let Some(value) = value {
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!(
                            "instance {i} ({}): {name} must be finite and non-negative",
                            record.label
                        ));
                    }
                }
            }
            for (key, value) in &record.extra {
                if key.is_empty() {
                    return Err(format!("instance {i} ({}): empty extra key", record.label));
                }
                if !value.is_finite() {
                    return Err(format!(
                        "instance {i} ({}): extra {key:?} not finite",
                        record.label
                    ));
                }
            }
        }
        let averaged: usize = self.points.iter().map(|p| p.runs).sum();
        if averaged > self.instances.len() {
            return Err(format!(
                "sweep points average {averaged} runs but only {} instances exist",
                self.instances.len()
            ));
        }
        for (i, point) in self.points.iter().enumerate() {
            if point.group.is_empty() {
                return Err(format!("sweep point {i} has an empty group"));
            }
            if point.runs == 0 {
                return Err(format!("sweep point {i} averages zero runs"));
            }
            for (name, value) in [("x", point.x), ("rs", point.rs), ("sp", point.sp)] {
                if !value.is_finite() {
                    return Err(format!("sweep point {i}: {name} not finite"));
                }
            }
        }
        Ok(())
    }

    /// Groups instances by `(group, x)` in first-appearance order and
    /// appends the averaged [`SweepPoint`]s, using each record's
    /// `rs_normalized` / `sp_normalized`.
    ///
    /// `coordinates` supplies the `(group, x)` pair of every instance, in
    /// the same order as `self.instances`.
    fn aggregate_points(&mut self, coordinates: &[(String, f64)]) {
        assert_eq!(
            coordinates.len(),
            self.instances.len(),
            "one (group, x) coordinate per instance"
        );
        // Insertion-ordered grouping: no HashMap, so the output order (and
        // therefore the JSON bytes) never depends on hasher state.
        let mut groups: Vec<((&String, u64), Vec<usize>)> = Vec::new();
        for (i, (group, x)) in coordinates.iter().enumerate() {
            let key = (group, x.to_bits());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for ((group, x_bits), members) in groups {
            let runs = members.len();
            let mean = |f: &dyn Fn(&InstanceRecord) -> f64| {
                members.iter().map(|&i| f(&self.instances[i])).sum::<f64>() / runs as f64
            };
            self.points.push(SweepPoint {
                group: group.clone(),
                x: f64::from_bits(x_bits),
                rs: mean(&|r| r.rs_normalized),
                sp: mean(&|r| r.sp_normalized),
                runs,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str) -> InstanceRecord {
        InstanceRecord {
            label: label.to_string(),
            flows: 10,
            seed: 3,
            alpha: 2.0,
            lower_bound: 100.0,
            rs_energy: 110.0,
            sp_energy: 130.0,
            rs_normalized: 1.1,
            sp_normalized: 1.3,
            deadline_misses: 0,
            rs_capacity_excess: 0.0,
            rs_sim: None,
            sp_sim: None,
            solve_wall_ms: None,
            intervals_per_second: None,
            requests_per_second: None,
            p99_latency_ms: None,
            extra: vec![("grain".to_string(), 2.0)],
        }
    }

    fn report() -> ExperimentReport {
        let mut r = ExperimentReport::new("unit", "fat-tree(k=4)");
        r.instances.push(record("a"));
        r.instances.push(record("b"));
        r.aggregate_points(&[("g".to_string(), 1.0), ("g".to_string(), 1.0)]);
        r
    }

    #[test]
    fn roundtrips_through_json() {
        let r = report();
        let back = ExperimentReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.instances[0].extra("grain"), Some(2.0));
        assert_eq!(back.instances[0].extra("absent"), None);
    }

    #[test]
    fn aggregation_averages_per_coordinate_in_order() {
        let mut r = ExperimentReport::new("unit", "t");
        for (label, rs) in [("a", 1.0), ("b", 3.0), ("c", 7.0)] {
            let mut rec = record(label);
            rec.rs_normalized = rs;
            r.instances.push(rec);
        }
        r.aggregate_points(&[
            ("g2".to_string(), 5.0),
            ("g1".to_string(), 5.0),
            ("g2".to_string(), 5.0),
        ]);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.points[0].group, "g2");
        assert_eq!(r.points[0].runs, 2);
        assert!((r.points[0].rs - 4.0).abs() < 1e-12);
        assert_eq!(r.points[1].group, "g1");
        assert_eq!(r.points[1].runs, 1);
    }

    #[test]
    fn validation_catches_schema_and_value_errors() {
        let mut r = report();
        r.schema_version = 99;
        assert!(r.validate().unwrap_err().contains("schema_version"));

        let mut r = report();
        r.instances.clear();
        r.points.clear();
        assert!(r.validate().unwrap_err().contains("no instances"));

        let mut r = report();
        r.instances[0].rs_energy = f64::NAN;
        assert!(r.validate().unwrap_err().contains("rs_energy"));

        let mut r = report();
        r.instances[0].lower_bound = 0.0;
        assert!(r.validate().unwrap_err().contains("lower_bound"));

        let mut r = report();
        r.points[0].runs = 9;
        assert!(r.validate().unwrap_err().contains("average"));

        let mut r = report();
        r.instances[0].solve_wall_ms = Some(-1.0);
        assert!(r.validate().unwrap_err().contains("solve_wall_ms"));

        let mut r = report();
        r.instances[0].intervals_per_second = Some(f64::INFINITY);
        assert!(r.validate().unwrap_err().contains("intervals_per_second"));

        let mut r = report();
        r.instances[0].requests_per_second = Some(-5.0);
        assert!(r.validate().unwrap_err().contains("requests_per_second"));

        let mut r = report();
        r.instances[0].p99_latency_ms = Some(f64::NAN);
        assert!(r.validate().unwrap_err().contains("p99_latency_ms"));
    }

    #[test]
    fn timing_columns_default_to_null_and_roundtrip_when_set() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"solve_wall_ms\": null"));
        assert!(json.contains("\"intervals_per_second\": null"));

        let mut r = report();
        r.instances[0].solve_wall_ms = Some(12.5);
        r.instances[0].intervals_per_second = Some(400.0);
        let back = ExperimentReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.instances[0].solve_wall_ms, Some(12.5));
        assert_eq!(back.instances[0].intervals_per_second, Some(400.0));
    }

    #[test]
    fn nan_does_not_sneak_through_serialization() {
        // The JSON stand-in writes non-finite floats as null, which fails
        // to parse back into the non-optional f64 field: a NaN metric can
        // never produce a loadable artifact.
        let mut r = report();
        r.instances[0].alpha = f64::NAN;
        assert!(ExperimentReport::from_json(&r.to_json()).is_err());
    }
}
