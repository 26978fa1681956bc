//! Machine-readable experiment reports.
//!
//! Every benchmark binary can serialize its run to a `BENCH_<name>.json`
//! artifact built from the types in this module. The schema is versioned
//! ([`SCHEMA_VERSION`]) and validated ([`ExperimentReport::validate`]), and
//! the serialization is **canonical**: field order follows the struct
//! definitions, floats print via Rust's shortest round-trip formatting, and
//! nothing in the artifact depends on the machine, the wall clock or the
//! thread count. Wall-clock readings go to stderr only; timing claims are
//! measured by `perf/`.

use dcn_core::Audit;
use dcn_flow::workload::UniformWorkload;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Version of the report schema; bump on any breaking field change.
///
/// * v2 — added the opt-in per-instance timing columns `solve_wall_ms` and
///   `intervals_per_second` (both `null` outside `--timings` runs).
/// * v3 — added the serving-throughput columns
///   `requests_per_second` and `p99_latency_ms` for the `serve` bench (both
///   `null` outside `--timings` runs and for every batch experiment).
/// * v4 — removed `--timings`, the four columns above and the report's
///   `wall_clock_seconds`: an artifact carries results only. An instance
///   record may carry a `refusal` (written only when present, so a run
///   nothing refused keeps its bytes).
pub const SCHEMA_VERSION: u32 = 4;

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
#[derive(Debug, Clone, PartialEq, Deserialize)]
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
    /// Audit digest of the primary schedule, when it has one.
    pub rs_sim: Option<SimSummary>,
    /// Audit digest of the reference schedule, when it has one.
    pub sp_sim: Option<SimSummary>,
    /// Experiment-specific dimensions (e.g. `grain`, `lambda`, `budget`,
    /// `m`), in a fixed order.
    pub extra: Vec<(String, f64)>,
    /// The first algorithm, in selection order, that refused the instance.
    /// A refused primary or reference reads energy `0.0` and no audit; a
    /// refused further algorithm has no `extra` energy. A record with a
    /// refusal is averaged into no [`SweepPoint`].
    pub refusal: Option<Refusal>,
}

/// An algorithm's typed refusal of an instance: the error it returned in
/// place of a schedule, e.g. `exact` on an instance above its enumeration
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Refusal {
    /// The algorithm's name.
    pub algorithm: String,
    /// The error it returned, as displayed.
    pub reason: String,
}

impl Refusal {
    /// The refusal of `algorithm` with `error`.
    pub fn new(algorithm: &str, error: &dcn_core::SolveError) -> Self {
        Self {
            algorithm: algorithm.to_string(),
            reason: error.to_string(),
        }
    }
}

/// The fields in declaration order, as the derive writes them, with
/// `refusal` only when present.
impl Serialize for InstanceRecord {
    fn serialize(&self, w: &mut serde::Writer) {
        w.open('{');
        w.key("label");
        self.label.serialize(w);
        w.key("flows");
        self.flows.serialize(w);
        w.key("seed");
        self.seed.serialize(w);
        w.key("alpha");
        self.alpha.serialize(w);
        w.key("lower_bound");
        self.lower_bound.serialize(w);
        w.key("rs_energy");
        self.rs_energy.serialize(w);
        w.key("sp_energy");
        self.sp_energy.serialize(w);
        w.key("rs_normalized");
        self.rs_normalized.serialize(w);
        w.key("sp_normalized");
        self.sp_normalized.serialize(w);
        w.key("deadline_misses");
        self.deadline_misses.serialize(w);
        w.key("rs_capacity_excess");
        self.rs_capacity_excess.serialize(w);
        w.key("rs_sim");
        self.rs_sim.serialize(w);
        w.key("sp_sim");
        self.sp_sim.serialize(w);
        w.key("extra");
        self.extra.serialize(w);
        if let Some(refusal) = &self.refusal {
            w.key("refusal");
            refusal.serialize(w);
        }
        w.close('}');
    }
}

impl InstanceRecord {
    /// Looks an experiment-specific dimension up by name.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// A compact digest of an [`Audit`], sized for embedding into experiment
/// artifacts (one per scheduler per instance) where the full per-flow /
/// per-link breakdown would dominate the file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Number of flows that missed their deadline (or never completed).
    pub deadline_misses: usize,
    /// Number of links whose peak rate exceeded the capacity.
    pub capacity_violations: usize,
    /// The largest peak utilisation over all links (1.0 = at capacity).
    pub max_utilization: f64,
    /// Number of links that carried any traffic.
    pub active_links: usize,
    /// Total measured energy under the paper's objective.
    pub energy: f64,
}

impl SimSummary {
    /// Returns `true` when every flow met its deadline and no link exceeded
    /// its capacity.
    pub fn all_good(&self) -> bool {
        self.deadline_misses == 0 && self.capacity_violations == 0
    }
}

impl From<&Audit> for SimSummary {
    fn from(audit: &Audit) -> Self {
        SimSummary {
            deadline_misses: audit.deadline_misses,
            capacity_violations: audit.capacity_violations,
            max_utilization: audit.max_utilization,
            active_links: audit.links.len(),
            energy: audit.energy.total(),
        }
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
            if let Some(refusal) = &record.refusal {
                if refusal.algorithm.is_empty() || refusal.reason.is_empty() {
                    return Err(format!("instance {i} ({}): empty refusal", record.label));
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
    /// `rs_normalized` / `sp_normalized`. Records with a refusal are left
    /// out, and so is a point none of whose records is left.
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
        let solved = coordinates
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.instances[i].refusal.is_none());
        for (i, (group, x)) in solved {
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
            extra: vec![("grain".to_string(), 2.0)],
            refusal: None,
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
    fn summary_digests_the_audit() {
        let audit = Audit {
            flows: vec![],
            links: vec![dcn_core::LinkLoad {
                link: dcn_topology::LinkId(0),
                peak_rate: 4.0,
                busy_time: 1.0,
                volume: 4.0,
                dynamic_energy: 16.0,
            }],
            energy: dcn_power::EnergyBreakdown {
                idle: 2.0,
                dynamic: 16.0,
                active_links: 1,
            },
            deadline_misses: 0,
            capacity_violations: 0,
            max_utilization: 0.4,
            capacity_excess: 0.0,
            violations: vec![],
        };
        let s = SimSummary::from(&audit);
        assert!(s.all_good());
        assert_eq!(s.active_links, 1);
        assert_eq!(s.energy, 18.0);
        assert_eq!(s.max_utilization, 0.4);
        let missed = SimSummary {
            deadline_misses: 1,
            ..s
        };
        assert!(!missed.all_good());
    }

    #[test]
    fn roundtrips_through_json() {
        let r = report();
        let back = ExperimentReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.instances[0].extra("grain"), Some(2.0));
        assert_eq!(back.instances[0].extra("absent"), None);
    }

    /// A refusal is written, last, only when present, reads back, and is
    /// checked for content; the refused record averages into no point.
    #[test]
    fn a_refusal_is_written_only_when_present() {
        let mut r = report();
        assert!(!r.to_json().contains("refusal"));
        let refusal = Refusal {
            algorithm: "exact".to_string(),
            reason: "exhaustive search would visit 4096 assignments (budget 100)".to_string(),
        };
        r.instances[1].refusal = Some(refusal.clone());
        let text = r.to_json();
        let back = ExperimentReport::from_json(&text).unwrap();
        assert_eq!(back.instances[1].refusal, Some(refusal));
        assert_eq!(back.to_json(), text);
        r.instances[1].refusal.as_mut().unwrap().reason.clear();
        assert!(ExperimentReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("empty refusal"));

        r.points.clear();
        r.instances[1].refusal = back.instances[1].refusal.clone();
        r.aggregate_points(&[("g".to_string(), 1.0), ("g".to_string(), 1.0)]);
        assert_eq!(r.points[0].runs, 1);
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
