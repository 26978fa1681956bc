//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root is [`manifest`] printed (a unit
//! test keeps the two in step).

use crate::json::{object, text};
use crate::workloads::Workload;
use serde::Value;

/// How long one run measures, in seconds: enough passes that the fastest
/// one falls into a quiet stretch of a noisy host.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees. A bound is the share of the
/// reference median by which the metric may get worse before that is a
/// regression. There are two, because the metric is judged in two ways.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What `BENCHMARK.json` tells the driver, which takes medians over
    /// ten differently seeded instances: the instance changes with the
    /// seed, so even the deterministic metrics spread (`energy_over_fluid`
    /// by up to 11 % on `offline_dcfs`, `peak_rss_mb` by up to 11 % on
    /// `offline_dcfsr`).
    pub bound: f64,
    /// What `dcn-perf compare` applies. It only ever sets one seed against
    /// itself, where none of that spread exists.
    pub same_seed_bound: f64,
    /// A difference `compare` never counts, in the metric's unit.
    pub same_seed_floor: f64,
}

/// Every workload reports every end-to-end metric, from an untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    // Fastest pass of the timed operation: `Algorithm::solve`
    // (offline_*), `OnlineEngine::run` (online_*), the closed loop over
    // every frame (serve_closed).
    EndToEnd {
        name: "work_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
        same_seed_floor: 0.0,
    },
    // Fastest pass of everything a pass does before the timed operation:
    // topology build, context or server start, input generation, request
    // pre-encoding. It is 0.1 ms on four workloads and 12 ms on the fifth:
    // below 20 ms (a tenth of the shortest `work_s`) a difference is timer
    // noise, and no work worth hiding fits into it.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
        same_seed_floor: 0.020,
    },
    // Energy of the produced schedule over the closed-form fluid bound of
    // the instance: what stops a speed-up bought with worse schedules.
    // Bit-identical from pass to pass and run to run of one seed.
    EndToEnd {
        name: "energy_over_fluid",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.005,
        same_seed_floor: 0.0,
    },
    // `VmHWM` of the workload's process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
        same_seed_floor: 0.0,
    },
];

/// Looks the reported value of a measured per-layer metric up by name.
pub type Reported<'a> = &'a dyn Fn(&str) -> f64;

/// How the per-pass values of a per-layer metric become the reported one.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A timing of its own (a probe, a latency): its fastest pass is
    /// reported (see `perf/README.md` on why not the median).
    Time,
    /// A part of the traced operation: read off the fastest traced pass
    /// that entered the layer, so that the parts, the self time and the
    /// whole are of one execution and add up.
    Part,
    /// A count the passes must agree on exactly.
    Count,
    /// Computed from the reported values of other per-layer metrics, so
    /// that every ratio sits next to its base.
    Derived(fn(Reported) -> f64),
}

/// A metric of a single layer, from a traced run. A layer that is not on
/// a workload's path reads 0 there.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `BENCHMARK.json` wants a direction for every metric. Timings and
    /// failure counts have one. The shares (`*.share`) and the size counts
    /// (`*.events`, `*.intervals`, `*.iterations`, ...) say where the time
    /// goes, not whether that is good: their `lower` is a placeholder.
    pub better: Better,
    pub kind: Kind,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Time,
    }
}

const fn part(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Part,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind: Kind::Count,
    }
}

const fn derived(name: &'static str, unit: &'static str, derive: fn(Reported) -> f64) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Derived(derive),
    }
}

/// `numerator / denominator`, or 0 when the layer below the line was
/// never entered.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub const PER_LAYER: [Layer; 46] = [
    // The traced repetition of the timed operation and, from the same
    // run, the untraced one: the bases of the shares below.
    part("trace.work_s", "s"),
    time("trace.untraced_work_s", "s"),
    derived("trace.overhead_share", "share", |v| {
        ratio(v("trace.work_s"), v("trace.untraced_work_s")) - 1.0
    }),
    time("topology.builders.build_ms", "ms"),
    time("topology.csr.build_ms", "ms"),
    time("topology.engine.sssp_us", "us"),
    time("flow.workload.generate_ms", "ms"),
    count("solver.fmcf.iterations", "count", Better::Lower),
    count("solver.fmcf.converged_share", "share", Better::Higher),
    derived("solver.fmcf.us_per_iteration", "us", |v| {
        ratio(
            v("core.relaxation.relax_s") * 1e6,
            v("solver.fmcf.iterations"),
        )
    }),
    time("solver.decompose.decompose_ms", "ms"),
    time("core.context.validate_ms", "ms"),
    part("core.relaxation.relax_s", "s"),
    count("core.relaxation.intervals", "count", Better::Lower),
    derived("core.relaxation.share", "share", |v| {
        ratio(v("core.relaxation.relax_s"), v("trace.work_s"))
    }),
    part("core.dcfsr.round_ms", "ms"),
    count("core.dcfsr.attempts", "count", Better::Lower),
    part("core.routing.route_ms", "ms"),
    part("core.dcfs.mcf_s", "s"),
    derived("core.dcfs.share", "share", |v| {
        ratio(v("core.dcfs.mcf_s"), v("trace.work_s"))
    }),
    part("core.schedule.energy_ms", "ms"),
    part("core.algorithm.self_ms", "ms"),
    time("core.schedule.verify_ms", "ms"),
    count("core.online.events", "count", Better::Lower),
    count("core.online.resolves", "count", Better::Lower),
    count("core.online.solve_failures", "count", Better::Lower),
    count("core.online.admitted", "count", Better::Higher),
    count("core.online.missed", "count", Better::Lower),
    derived("core.online.us_per_event", "us", |v| {
        ratio(v("trace.work_s") * 1e6, v("core.online.events"))
    }),
    derived("core.online.ms_per_resolve", "ms", |v| {
        ratio(v("trace.work_s") * 1e3, v("core.online.resolves"))
    }),
    time("sim.run_ms", "ms"),
    time("server.protocol.encode_request_us", "us"),
    time("server.protocol.decode_request_us", "us"),
    time("server.protocol.encode_reply_us", "us"),
    time("server.protocol.decode_reply_us", "us"),
    count("server.protocol.request_bytes", "B", Better::Lower),
    count("server.protocol.reply_bytes", "B", Better::Lower),
    time("server.serve_connection_us", "us"),
    time("server.request_us", "us"),
    derived("server.codec_share", "share", |v| {
        if v("server.serve_connection_us") == 0.0 {
            0.0
        } else {
            1.0 - v("server.request_us") / v("server.serve_connection_us")
        }
    }),
    time("server.snapshot.collect_ms", "ms"),
    count("server.admitted", "count", Better::Higher),
    count("server.busy", "count", Better::Lower),
    time("server.submit_p50_us", "us"),
    time("server.submit_p99_us", "us"),
    time("server.query_p50_us", "us"),
];

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    object(vec![
        (
            "command",
            Value::Seq(vec![text("bash"), text("perf/run.sh")]),
        ),
        ("paths", Value::Seq(vec![text("perf")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                Workload::ALL
                    .iter()
                    .map(|w| object(vec![("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let committed: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            committed,
            manifest(),
            "regenerate BENCHMARK.json with `dcn-perf manifest`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let legal_name = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let legal_unit = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| legal_name(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| legal_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| legal_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn derived_metrics_read_zero_off_the_path() {
        for layer in &PER_LAYER {
            if let Kind::Derived(derive) = layer.kind {
                let value = derive(&|_| 0.0);
                assert!(
                    value == 0.0 || layer.name == "trace.overhead_share",
                    "{} reads {value} when nothing was measured",
                    layer.name
                );
            }
        }
    }

    #[test]
    fn shares_are_taken_of_the_traced_work() {
        let values = |name: &str| match name {
            "trace.work_s" => 2.0,
            "trace.untraced_work_s" => 1.6,
            "core.relaxation.relax_s" => 1.5,
            "solver.fmcf.iterations" => 3000.0,
            _ => 0.0,
        };
        let derive = |name: &str| match PER_LAYER.iter().find(|m| m.name == name).unwrap().kind {
            Kind::Derived(derive) => derive(&values),
            _ => panic!("{name} is not derived"),
        };
        assert_eq!(derive("core.relaxation.share"), 0.75);
        assert_eq!(derive("solver.fmcf.us_per_iteration"), 500.0);
        assert_eq!(derive("trace.overhead_share"), 0.25);
        assert_eq!(derive("core.dcfs.share"), 0.0);
    }
}
