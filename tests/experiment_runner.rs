//! Integration tests of the experiment-runner subsystem in `dcn-bench`:
//! the determinism contract (same seed ⇒ byte-identical JSON artifact
//! regardless of the worker-thread count) and a golden-file pin of the
//! report schema, so any accidental change to the artifact layout fails CI
//! instead of silently breaking downstream consumers of `BENCH_*.json`.

use dcn_bench::report::{ExperimentReport, InstanceRecord, SimSummary, SweepPoint, SCHEMA_VERSION};
use dcn_bench::runner::{run_indexed, ExperimentCli};
use dcn_bench::{Experiment, InstanceInput, InstanceSpec};
use dcn_power::PowerFunction;
use dcn_topology::builders;
use std::path::Path;

/// A small but real experiment: 2 flow counts x 2 seeds on a k=4 fat-tree.
fn small_experiment() -> Experiment {
    let mut exp = Experiment::new("itest", vec![builders::fat_tree(4)]);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
    for flows in [8usize, 12] {
        for run in 0..2u64 {
            exp.push(InstanceSpec {
                group: "x^2".to_string(),
                x: flows as f64,
                topology: 0,
                power,
                input: InstanceInput::Uniform { flows },
                seed: 1000 * flows as u64 + run,
                extra: vec![("run".to_string(), run as f64)],
            });
        }
    }
    exp
}

/// Same seed, different thread counts: the JSON artifact must be
/// byte-identical. This is the contract that lets CI diff `BENCH_*.json`
/// files across machines and `--threads` settings.
#[test]
fn report_is_byte_identical_across_thread_counts() {
    let exp = small_experiment();
    let serial = exp.run(1).report.to_json();
    for threads in [2, 3, 8] {
        let parallel = exp.run(threads).report.to_json();
        assert_eq!(
            serial, parallel,
            "JSON artifact changed between --threads 1 and --threads {threads}"
        );
    }
    // And the artifact actually validates.
    ExperimentReport::from_json(&serial).expect("artifact validates");
}

/// The runner itself returns results in input order for any pool size.
#[test]
fn run_indexed_is_order_and_thread_count_invariant() {
    let serial: Vec<u64> = run_indexed(23, 1, |i| (i as u64).wrapping_mul(0x9e3779b9));
    for threads in [2, 5, 16] {
        assert_eq!(
            run_indexed(23, threads, |i| (i as u64).wrapping_mul(0x9e3779b9)),
            serial
        );
    }
}

/// A fully synthetic report with every field populated, used to pin the
/// schema. Built from constants so the golden file never depends on
/// solver numerics.
fn golden_report() -> ExperimentReport {
    let mut report = ExperimentReport::new("golden", "fat-tree(k=4)");
    report.workload = Some(dcn_flow::workload::UniformWorkload::paper_defaults(8, 7));
    report.instances.push(InstanceRecord {
        label: "x^2 x=8 seed=8000".to_string(),
        flows: 8,
        seed: 8000,
        alpha: 2.0,
        lower_bound: 100.0,
        rs_energy: 105.5,
        sp_energy: 120.25,
        rs_normalized: 1.055,
        sp_normalized: 1.2025,
        deadline_misses: 0,
        rs_capacity_excess: 0.0,
        rs_sim: Some(SimSummary {
            deadline_misses: 0,
            capacity_violations: 0,
            max_utilization: 0.75,
            active_links: 12,
            energy: 105.5,
        }),
        sp_sim: None,
        extra: vec![("run".to_string(), 0.0)],
        refusal: None,
    });
    // An online-style exemplar: the event-driven sweep uses three-part
    // `"<topology>|<policy>|<admission>"` group labels and records the
    // OnlineReport counters in `extra`. Pinned here so a change to that
    // layout shows up as schema drift, not as a silent consumer break.
    report.instances.push(InstanceRecord {
        label: "fat-tree(k=4)|hybrid|admit-all load=2 seed=20000".to_string(),
        flows: 10,
        seed: 20000,
        alpha: 2.0,
        lower_bound: 80.0,
        rs_energy: 92.5,
        sp_energy: 88.0,
        rs_normalized: 1.15625,
        sp_normalized: 1.1,
        deadline_misses: 0,
        rs_capacity_excess: 0.0,
        rs_sim: Some(SimSummary {
            deadline_misses: 0,
            capacity_violations: 0,
            max_utilization: 0.5,
            active_links: 10,
            energy: 92.5,
        }),
        sp_sim: Some(SimSummary {
            deadline_misses: 0,
            capacity_violations: 0,
            max_utilization: 0.5,
            active_links: 10,
            energy: 88.0,
        }),
        extra: vec![
            ("load".to_string(), 2.0),
            ("admission".to_string(), 0.0),
            ("events".to_string(), 14.0),
            ("resolves".to_string(), 2.0),
            ("solve_failures".to_string(), 0.0),
            ("admitted".to_string(), 10.0),
            ("rejected".to_string(), 0.0),
            ("missed".to_string(), 0.0),
            ("run".to_string(), 0.0),
        ],
        refusal: None,
    });
    // A serve-style exemplar: the scheduler-as-a-service bench audits the
    // daemon's committed plans and records its admission counters in
    // `extra`, with no audit digests.
    report.instances.push(InstanceRecord {
        label: "fat-tree:8|edf|admit-all flows=1000 seed=10000".to_string(),
        flows: 1000,
        seed: 10000,
        alpha: 2.0,
        lower_bound: 250.0,
        rs_energy: 300.0,
        sp_energy: 450.0,
        rs_normalized: 1.2,
        sp_normalized: 1.8,
        deadline_misses: 0,
        rs_capacity_excess: 0.0,
        rs_sim: None,
        sp_sim: None,
        extra: vec![
            ("requests".to_string(), 1000.0),
            ("admitted".to_string(), 998.0),
            ("rejected".to_string(), 2.0),
            ("busy".to_string(), 0.0),
            ("missed".to_string(), 0.0),
            ("run".to_string(), 0.0),
        ],
        refusal: None,
    });
    report.points.push(SweepPoint {
        group: "x^2".to_string(),
        x: 8.0,
        rs: 1.055,
        sp: 1.2025,
        runs: 1,
    });
    report.points.push(SweepPoint {
        group: "fat-tree(k=4)|hybrid|admit-all".to_string(),
        x: 2.0,
        rs: 1.15625,
        sp: 1.1,
        runs: 1,
    });
    report.points.push(SweepPoint {
        group: "fat-tree:8|edf|admit-all".to_string(),
        x: 1000.0,
        rs: 1.2,
        sp: 1.8,
        runs: 1,
    });
    report
}

/// Golden-file pin of the JSON schema. Regenerate the golden file with
/// `BLESS_GOLDEN=1 cargo test --test experiment_runner` after an
/// intentional schema change (and bump `SCHEMA_VERSION`).
#[test]
fn report_schema_matches_golden_file() {
    let report = golden_report();
    report.validate().expect("golden report validates");
    let rendered = report.to_json();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/report_schema_golden.json");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("golden file writes");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file exists (regenerate with BLESS_GOLDEN=1)");
    assert_eq!(
        rendered, golden,
        "report schema drifted from tests/data/report_schema_golden.json; \
         if intentional, bump SCHEMA_VERSION and re-bless"
    );

    // The golden artifact round-trips and still claims the current schema.
    let parsed = ExperimentReport::from_json(&golden).expect("golden parses");
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
    assert_eq!(parsed, report);
}

/// The shared CLI accepts the documented flag set (spot-check from the
/// umbrella crate so a binary-facing regression fails tier-1 tests).
#[test]
fn shared_cli_round_trips_flags() {
    let args: Vec<String> = ["--quick", "--threads", "2", "--json-out"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cli = ExperimentCli::from_args(
        "fig2",
        &["--runs", "--step", "--small", "--algorithms"],
        &args,
    )
    .expect("flags parse");
    assert!(cli.quick);
    assert_eq!(cli.threads, 2);
    assert_eq!(cli.json_out.as_deref(), Some(Path::new("BENCH_fig2.json")));
    assert!(ExperimentCli::from_args("fig2", &[], &["--nope".to_string()]).is_err());
}

/// A command line written for the removed wall-clock switch fails loudly
/// instead of running without the columns it asked for.
#[test]
fn an_old_timings_command_line_is_a_usage_error() {
    let args: Vec<String> = ["--quick", "--timings", "--json-out"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for (experiment, flags) in [
        ("example1", &[][..]),
        ("fig2", &["--runs", "--step", "--small", "--algorithms"][..]),
        ("serve", &["--runs", "--flows", "--policies"][..]),
    ] {
        assert_eq!(
            ExperimentCli::from_args(experiment, flags, &args).unwrap_err(),
            "unknown flag \"--timings\""
        );
    }
}

/// An artifact of the previous schema, its wall-clock keys included, is
/// refused with the schema-mismatch message rather than read as current.
#[test]
fn a_schema_v3_artifact_is_refused() {
    let v3 = r#"{
  "schema_version": 3,
  "experiment": "example1",
  "topology": "line(n=3)",
  "workload": null,
  "instances": [
    {
      "label": "example1",
      "flows": 3,
      "seed": 0,
      "alpha": 2.0,
      "lower_bound": 90.588167,
      "rs_energy": 90.588167,
      "sp_energy": 90.588167,
      "rs_normalized": 1.0,
      "sp_normalized": 1.0,
      "deadline_misses": 0,
      "rs_capacity_excess": 0.0,
      "rs_sim": null,
      "sp_sim": null,
      "solve_wall_ms": null,
      "intervals_per_second": null,
      "requests_per_second": null,
      "p99_latency_ms": null,
      "extra": []
    }
  ],
  "points": [],
  "wall_clock_seconds": null
}"#;
    assert_eq!(
        ExperimentReport::from_json(v3).unwrap_err(),
        format!("schema_version 3 != supported {SCHEMA_VERSION}")
    );
}
