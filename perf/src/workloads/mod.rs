//! The five workloads.
//!
//! Every workload runs the same way: a **pass** sets one seeded instance
//! up from scratch and runs its one timed operation untraced. The first
//! pass of a run puts the result through the full correctness gate; every
//! later pass must reproduce the first one's outputs bit for bit. A traced
//! pass then repeats the operation with a span around every call into a
//! layer and adds the layer probes; both executions must agree bit for bit.

use crate::trace::Tracer;
use dcn_core::Schedule;
use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_topology::{GraphCsr, NodeId, ShortestPathEngine};
use std::time::Instant;

mod offline;
mod online;
mod serve;

/// One benchmark workload. The reason each exists is in [`Workload::why`]
/// (and, at length, in `perf/README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineDcfsr,
    OfflineDcfs,
    OnlineEdf,
    OnlineResolve,
    ServeClosed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OfflineDcfsr,
        Workload::OfflineDcfs,
        Workload::OnlineEdf,
        Workload::OnlineResolve,
        Workload::ServeClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineDcfsr => "offline_dcfsr",
            Workload::OfflineDcfs => "offline_dcfs",
            Workload::OnlineEdf => "online_edf",
            Workload::OnlineResolve => "online_resolve",
            Workload::ServeClosed => "serve_closed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OfflineDcfsr => {
                "paper Algorithm 2 cold on fat-tree k=8: Frank-Wolfe relaxation dominates, so \
                 relaxation, SSSP and decomposition work must show here"
            }
            Workload::OfflineDcfs => {
                "paper Algorithm 1 (most-critical-first on shortest paths): never touches \
                 Frank-Wolfe, so a relaxation change predicts no move; dcfs/YDS work shows"
            }
            Workload::OnlineEdf => {
                "solver-free edf policy at arrival load 32: the time is the event loop itself \
                 (queue, ledger, stitching, energy), super-linear in the in-flight set"
            }
            Workload::OnlineResolve => {
                "warm-started re-solve per arrival at load 8: the relaxation layer used \
                 incrementally, so a cold-batch gain that breaks warm reuse loses here"
            }
            Workload::ServeClosed => {
                "one closed-loop client over the framed wire path of dcn-server: submissions are \
                 shard-work-dominated, every fifth frame is a codec-dominated query"
            }
        }
    }

    /// The size of the instance; `--smoke` sizes exercise every check in
    /// under two seconds and are not for numbers.
    pub fn sizes(self, smoke: bool) -> Sizes {
        let (k, flows, load, capacity) = match (self, smoke) {
            (Workload::OfflineDcfsr, false) => (8, 60, None, 10.0),
            (Workload::OfflineDcfsr, true) => (4, 16, None, 10.0),
            // The default capacity of 10 is infeasible for this many
            // concurrent flows on shortest paths.
            (Workload::OfflineDcfs, false) => (8, 800, None, 100.0),
            (Workload::OfflineDcfs, true) => (4, 100, None, 100.0),
            (Workload::OnlineEdf, false) => (8, 5000, Some(32.0), 10.0),
            (Workload::OnlineEdf, true) => (4, 1000, Some(8.0), 10.0),
            (Workload::OnlineResolve, false) => (8, 300, Some(8.0), 10.0),
            (Workload::OnlineResolve, true) => (4, 20, Some(2.0), 10.0),
            (Workload::ServeClosed, false) => (8, 8000, Some(128.0), 10.0),
            (Workload::ServeClosed, true) => (4, 2000, Some(16.0), 10.0),
        };
        Sizes {
            k,
            flows,
            load,
            capacity,
        }
    }

    /// Runs one pass. `gate` asks for the full correctness gate (replay,
    /// verification, audit) on top of the checks every pass makes; `tracer`
    /// decides whether the traced repetition and the layer probes run too.
    pub fn pass(
        self,
        sizes: &Sizes,
        seed: u64,
        gate: bool,
        tracer: &mut Tracer,
    ) -> Result<Pass, String> {
        match self {
            Workload::OfflineDcfsr => {
                offline::pass(offline::Kind::Dcfsr, sizes, seed, gate, tracer)
            }
            Workload::OfflineDcfs => offline::pass(offline::Kind::Dcfs, sizes, seed, gate, tracer),
            Workload::OnlineEdf => online::pass(online::Kind::Edf, sizes, seed, gate, tracer),
            Workload::OnlineResolve => {
                online::pass(online::Kind::Resolve, sizes, seed, gate, tracer)
            }
            Workload::ServeClosed => serve::pass(sizes, seed, tracer),
        }
    }
}

/// Instance size of a workload: fat-tree arity, flow count, arrival load
/// (expected flows in flight; `None` offline, where the whole instance is
/// known at once) and link capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub k: usize,
    pub flows: usize,
    pub load: Option<f64>,
    pub capacity: f64,
}

impl Sizes {
    /// The power function of every workload: `P(x) = x^2` up to capacity.
    pub fn power(&self) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, self.capacity)
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Topology build, context or server start, input generation.
    pub setup_s: f64,
    /// Wall time of the workload's one timed operation, untraced.
    pub work_s: f64,
    /// Energy of the schedule the operation produced.
    pub energy: f64,
    /// The fluid bound of the instance ([`crate::fluid::fluid_bound`]).
    pub fluid: f64,
    /// Flows, arrivals or frames the operation was asked to handle.
    pub attempted: u64,
    /// How many of them failed (violations, misses, rejections, `Busy`).
    pub failed: u64,
    /// Hash of everything that must repeat exactly from pass to pass.
    pub fingerprint: u64,
    /// Raw per-layer timings and counts (traced passes only), keyed by
    /// metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Broken invariants; any entry fails the run.
    pub errors: Vec<String>,
}

impl Pass {
    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Records, as `metric`, the time this pass spent in spans called
    /// `span` times `scale`; nothing when the pass never opened one.
    fn layer_time(&mut self, tracer: &Tracer, metric: &'static str, span: &str, scale: f64) {
        let durations = tracer.durations_s(span);
        if !durations.is_empty() {
            self.layer(metric, durations.iter().sum::<f64>() * scale);
        }
    }

    /// The spans every workload's set-up and gate share.
    fn common_layer_times(&mut self, tracer: &Tracer) {
        for (metric, span) in [
            ("topology.builders.build_ms", "topology.builders.build"),
            ("topology.csr.build_ms", "topology.csr.build"),
            ("flow.workload.generate_ms", "flow.workload.generate"),
            ("core.context.validate_ms", "core.context.validate"),
            ("core.schedule.energy_ms", "core.schedule.energy"),
            ("core.schedule.verify_ms", "core.schedule.verify"),
            ("sim.run_ms", "sim.run"),
        ] {
            self.layer_time(tracer, metric, span, 1e3);
        }
    }
}

/// The workload's flows: the paper's uniform workload, re-timed by a Poisson
/// arrival process when the workload has an arrival load.
fn generate_flows(
    tracer: &mut Tracer,
    sizes: &Sizes,
    seed: u64,
    hosts: &[NodeId],
) -> Result<FlowSet, String> {
    tracer
        .span("flow.workload.generate", || {
            let base = UniformWorkload::paper_defaults(sizes.flows, seed).generate(hosts)?;
            match sizes.load {
                Some(load) => ArrivalProcess::with_load(load, seed).apply(&base),
                None => Ok(base),
            }
        })
        .map_err(|e| e.to_string())
}

/// Runs `f` and returns its result with the wall time it took, in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// FNV-1a over a byte stream: the fingerprint of deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Every path and every rate segment of a schedule.
    pub fn schedule(&mut self, schedule: &Schedule) {
        for flow in schedule.flow_schedules() {
            self.u64(flow.flow as u64);
            for link in flow.path.links() {
                self.u64(link.index() as u64);
            }
            for (start, end, rate) in flow.profile.segments() {
                self.f64(start);
                self.f64(end);
                self.f64(rate);
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Layer probes every workload shares, measured on its own fabric: a cold
/// CSR build and the mean single-source shortest-path run from every host.
fn topology_probes(
    pass: &mut Pass,
    tracer: &mut Tracer,
    network: &dcn_topology::Network,
    hosts: &[NodeId],
) {
    let graph = tracer.span("topology.csr.build", || GraphCsr::from_network(network));
    let mut engine = ShortestPathEngine::new();
    let span = tracer.begin("topology.engine.sssp");
    for &host in hosts {
        engine.single_source_all_targets(&graph, host, &[], |_| 1.0);
        std::hint::black_box(engine.distance(hosts[0]));
    }
    tracer.end(span);
    pass.layer_time(
        tracer,
        "topology.engine.sssp_us",
        "topology.engine.sssp",
        1e6 / hosts.len() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn fingerprint_depends_on_every_byte() {
        let mut a = Fingerprint::new();
        a.f64(1.0);
        a.u64(7);
        let mut b = Fingerprint::new();
        b.f64(1.0);
        b.u64(8);
        assert_ne!(a.finish(), b.finish());
        // FNV-1a test vector for the empty input and for "a".
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut c = Fingerprint::new();
        c.bytes(b"a");
        assert_eq!(c.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
