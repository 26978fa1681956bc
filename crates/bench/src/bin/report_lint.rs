//! Validates `BENCH_*.json` experiment artifacts against the report
//! schema. CI runs this over every artifact the experiment binaries
//! produce before archiving them.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin report_lint -- BENCH_*.json
//! ```
//!
//! Exits non-zero when any file is missing, malformed, violates a schema
//! invariant (see `dcn_bench::report::ExperimentReport::validate`), or
//! does not write back to its own bytes — so every CI run also checks the
//! JSON writer and reader against each artifact.

use dcn_bench::report::ExperimentReport;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: report_lint <report.json>...");
        std::process::exit(2);
    }
    let mut failures = 0usize;
    for path in &paths {
        match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match ExperimentReport::from_json(&text) {
                Ok(report) if report.to_json() != text => {
                    eprintln!("FAIL {path}: does not write back byte for byte");
                    failures += 1;
                }
                Ok(report) => println!(
                    "ok {path}: {} (schema v{}, {} instance(s), {} sweep point(s))",
                    report.experiment,
                    report.schema_version,
                    report.instances.len(),
                    report.points.len()
                ),
                Err(message) => {
                    eprintln!("FAIL {path}: {message}");
                    failures += 1;
                }
            },
            Err(message) => {
                eprintln!("FAIL {path}: {message}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} report(s) failed validation", paths.len());
        std::process::exit(1);
    }
}
