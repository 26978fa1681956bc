//! Benchmark-size pins of the relaxation's shortest-path step and of
//! Most-Critical-First.
//!
//! The instances of the `online_resolve` and `offline_dcfsr` benchmark
//! workloads, solved here as the benchmark solves them, keep the bits
//! recorded before the search settled distance levels off its heap and
//! before a Frank–Wolfe step refreshed only the weights of loaded links:
//! online, the committed energy and an FNV-1a digest of the committed
//! schedule; offline, `dcfsr`'s energy and lower bound. Both changes
//! reorder work, never a result. Each instance also keeps its largest
//! capacity excess and its active-link count, as they read before the
//! per-link loads were summed once for every reader; offline, the
//! rounding attempts too. The `offline_dcfs` instances keep `sp-mcf`'s
//! energy and schedule digest. The `online_resolve` instances also keep
//! a digest of every re-solve's lower bound, interval count and capacity
//! excess, as they read while the active links were sorted and the
//! relaxation's cost rescanned every link. `#[ignore]`d outside CI's
//! release leg.

use deadline_dcn::core::online::OnlineEngine;
use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::failure::FailureProcess;
use deadline_dcn::flow::workload::{ArrivalProcess, UniformWorkload};
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::{PowerFunction, RateProfile};
use deadline_dcn::topology::builders::{self, BuiltTopology};
use std::sync::{Arc, Mutex};

/// Both workloads' fabric and power: fat-tree k = 8 at link capacity 10,
/// `P(x) = x^2`.
fn setting() -> (BuiltTopology, PowerFunction) {
    (
        builders::fat_tree_with_capacity(8, 10.0),
        PowerFunction::speed_scaling_only(1.0, 2.0, 10.0),
    )
}

/// The FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `word`'s little-endian bytes into the FNV-1a `hash`.
fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every flow's id, path links and rate segments.
fn digest(schedule: &Schedule) -> u64 {
    let mut hash = FNV_BASIS;
    let mut feed = |word: u64| fnv(&mut hash, word);
    for flow in schedule.flow_schedules() {
        feed(flow.flow as u64);
        for link in flow.path.links() {
            feed(link.index() as u64);
        }
        for (start, end, rate) in flow.profile.segments() {
            feed(start.to_bits());
            feed(end.to_bits());
            feed(rate.to_bits());
        }
    }
    hash
}

#[test]
#[ignore = "benchmark-size pin; run in release"]
fn online_resolve_instances_keep_their_energy_and_schedule() {
    let (topo, power) = setting();
    for (seed, energy, schedule, active) in [
        (1, 9029.720832751735, 0xf9cd_5ea7_fdd6_5734u64, 740),
        (2, 9016.167651448915, 0xacbd_149f_07b3_68da, 736),
        (3, 8018.46778328344, 0x8d41_18c3_acc8_e49f, 745),
    ] {
        let base = UniformWorkload::paper_defaults(300, seed)
            .generate(topo.hosts())
            .unwrap();
        let flows = ArrivalProcess::with_load(8.0, seed).apply(&base).unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = OnlineEngine::builder()
            .policy("resolve")
            .warm_start(true)
            .build()
            .unwrap();
        let outcome = engine.run(&mut ctx, &flows, &power).unwrap();
        let got = outcome.report.online_energy;
        assert_eq!(got.to_bits(), f64::to_bits(energy), "seed {seed}: {got}");
        assert_eq!(digest(&outcome.schedule), schedule, "seed {seed}");
        let excess = outcome.schedule.max_capacity_excess(&topo.network, &power);
        assert_eq!(excess.to_bits(), 0f64.to_bits(), "seed {seed}: {excess}");
        assert_eq!(
            outcome.schedule.link_loads(&power).len(),
            active,
            "seed {seed}"
        );
    }
}

/// `dcfsr` as the engine builds it by name, folding what each re-solve's
/// relaxation yields — the lower bound's bits, the interval count and the
/// chosen draw's capacity excess — into a digest the test reads after the
/// run.
struct FoldingDcfsr {
    inner: Dcfsr,
    digest: Arc<Mutex<u64>>,
}

impl Algorithm for FoldingDcfsr {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_seed(&mut self, seed: u64) {
        self.inner.set_seed(seed);
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        let solution = self.inner.solve(ctx, flows, power)?;
        let mut digest = self.digest.lock().unwrap();
        let diagnostics = &solution.diagnostics;
        for word in [
            solution.lower_bound.map(f64::to_bits),
            diagnostics.relaxation_intervals.map(|n| n as u64),
            solution
                .audit
                .as_ref()
                .map(|audit| audit.capacity_excess.to_bits()),
        ] {
            fnv(&mut digest, word.expect("dcfsr reports it"));
        }
        Ok(solution)
    }
}

/// The `online_resolve` instances' relaxations keep their bits, not only
/// the schedule they round to: the start loads and the interval costs
/// feed every re-solve's lower bound, which the committed
/// schedule does not show. Recorded while the active links were sorted
/// after every registration and the interval cost rescanned every link.
#[test]
#[ignore = "benchmark-size pin; run in release"]
fn online_resolve_relaxations_keep_their_lower_bounds() {
    let (topo, power) = setting();
    for (seed, relaxations, schedule) in [
        (1, 0x6142_7e90_62f5_391du64, 0xf9cd_5ea7_fdd6_5734u64),
        (2, 0x6af0_7354_7cd8_82ec, 0xacbd_149f_07b3_68da),
        (3, 0x53de_4521_8254_41ab, 0x8d41_18c3_acc8_e49f),
    ] {
        let base = UniformWorkload::paper_defaults(300, seed)
            .generate(topo.hosts())
            .unwrap();
        let flows = ArrivalProcess::with_load(8.0, seed).apply(&base).unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let folded = Arc::new(Mutex::new(FNV_BASIS));
        let algorithm = FoldingDcfsr {
            inner: Dcfsr::default(),
            digest: Arc::clone(&folded),
        };
        let mut engine = OnlineEngine::builder()
            .algorithm_instance(Box::new(algorithm))
            .policy("resolve")
            .warm_start(true)
            .build()
            .unwrap();
        let outcome = engine.run(&mut ctx, &flows, &power).unwrap();
        assert_eq!(digest(&outcome.schedule), schedule, "seed {seed}");
        let got = *folded.lock().unwrap();
        assert_eq!(got, relaxations, "seed {seed}: {got:#x}");
    }
}

#[test]
#[ignore = "benchmark-size pin; run in release"]
fn offline_dcfsr_instances_keep_their_energy_and_lower_bound() {
    let (topo, power) = setting();
    let registry = AlgorithmRegistry::with_defaults();
    for (seed, energy, lower_bound, active) in [
        (1, 1847.2441566533253, 951.7047201591002, 274),
        (2, 1750.394680865243, 881.9755339313115, 283),
        (3, 1487.0611047498028, 775.5062233251904, 280),
    ] {
        let flows = UniformWorkload::paper_defaults(60, seed)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = registry
            .create("dcfsr")
            .unwrap()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        assert_eq!(
            bits(solution.total_energy()),
            bits(Some(energy)),
            "seed {seed}: {:?}",
            solution.total_energy()
        );
        assert_eq!(
            bits(solution.lower_bound),
            bits(Some(lower_bound)),
            "seed {seed}: {:?}",
            solution.lower_bound
        );
        let schedule = solution.schedule.as_ref().unwrap();
        let excess = schedule.max_capacity_excess(&topo.network, &power);
        assert_eq!(excess.to_bits(), 0f64.to_bits(), "seed {seed}: {excess}");
        let audit = solution.audit.as_ref().unwrap();
        assert_eq!(audit.capacity_excess.to_bits(), 0f64.to_bits());
        assert_eq!(
            solution.diagnostics.rounding_attempts,
            Some(1),
            "seed {seed}"
        );
        assert_eq!(schedule.link_loads(&power).len(), active, "seed {seed}");
        assert_eq!(audit.energy.active_links, active, "seed {seed}");
    }
}

/// The `offline_dcfs` instances (`sp-mcf` on fat-tree k = 8 at capacity
/// 100, 800 paper-default flows) keep the energy and schedule they had
/// while every flow ran its own breadth-first search and EDF packing
/// rescanned its jobs at every step: one search tree per source and a
/// deadline heap change the work, never a route or a window.
#[test]
#[ignore = "benchmark-size pin; run in release"]
fn offline_dcfs_instances_keep_their_energy_and_schedule() {
    let topo = builders::fat_tree_with_capacity(8, 100.0);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
    let registry = AlgorithmRegistry::with_defaults();
    for (seed, energy, schedule) in [
        (1, 469273.68064078485, 0xe478_7614_938e_c360u64),
        (2, 445392.50411236566, 0x4747_f1de_bcf5_aa2e),
        (3, 445818.5818273328, 0x13de_beba_4b68_71bb),
    ] {
        let flows = UniformWorkload::paper_defaults(800, seed)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = registry
            .create("sp-mcf")
            .unwrap()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let got = solution.total_energy().unwrap();
        assert_eq!(got.to_bits(), f64::to_bits(energy), "seed {seed}: {got}");
        assert_eq!(
            digest(solution.schedule.as_ref().unwrap()),
            schedule,
            "seed {seed}"
        );
    }
}

/// FNV-1a over every flow's id, path links and stored pieces, then each of
/// its links with that link's pieces: a flow that changed route keeps a
/// profile per link, which the nominal profile alone does not show.
fn link_digest(schedule: &Schedule) -> u64 {
    let mut hash = FNV_BASIS;
    for flow in schedule.flow_schedules() {
        fnv(&mut hash, flow.flow as u64);
        for link in flow.path.links() {
            fnv(&mut hash, link.index() as u64);
        }
        fnv_pieces(&mut hash, &flow.profile);
        for (link, profile) in flow.link_profiles() {
            fnv(&mut hash, link.index() as u64);
            fnv_pieces(&mut hash, profile);
        }
    }
    hash
}

/// Folds `profile`'s piece count and pieces, as stored, into `hash`.
fn fnv_pieces(hash: &mut u64, profile: &RateProfile) {
    fnv(hash, profile.pieces().len() as u64);
    for &(start, end, rate) in profile.pieces() {
        for word in [start, end, rate] {
            fnv(hash, word.to_bits());
        }
    }
}

/// The `online_edf` benchmark's instances (`edf`, 5000 arrivals at load 32,
/// seeds 1-3, the energies of EXPERIMENTS.md's "Online event loop") and the
/// rate-assigning policies around them: `srpt` at load 32, `hybrid` at
/// load 64, an overloaded `edf` at load 512 that misses, and runs through
/// link failures (mean uptime twice the horizon, mean outage 5), whose
/// re-routed flows keep per-link schedules. Each keeps its energy bits, its
/// miss count and a digest of every flow's path, pieces and per-link pieces
/// with the delivered volumes and the event count, as they were while
/// plans carried their routes as shared `Path`s compared in full at every
/// commit.
#[test]
#[ignore = "benchmark-size pin; run in release"]
fn online_edf_instances_keep_their_energy_and_schedule() {
    let (topo, power) = setting();
    // ((policy, flows, load, seed, link failures), energy, misses, digest)
    let cases = [
        (
            ("edf", 5000, 32.0, 1, false),
            262181.527542233,
            0,
            0x02cc_ba23_df2c_0827u64,
        ),
        (
            ("edf", 5000, 32.0, 2, false),
            255105.20439454008,
            0,
            0xca11_5905_697e_e374,
        ),
        (
            ("edf", 5000, 32.0, 3, false),
            261476.70726718564,
            0,
            0xd843_b65b_9f8f_e512,
        ),
        (
            ("srpt", 2000, 32.0, 1, false),
            1142501.4950665655,
            0,
            0x024b_c079_dd25_d73e,
        ),
        (
            ("hybrid", 2000, 64.0, 1, false),
            153909.04869372674,
            0,
            0x07d9_10aa_5b3e_7ac4,
        ),
        (
            ("edf", 3000, 512.0, 1, false),
            788323.4657342648,
            1541,
            0x3269_635f_154e_9c45,
        ),
        (
            ("edf", 2000, 32.0, 1, true),
            106534.20018748278,
            7,
            0xbc02_a38d_58ac_5621,
        ),
        (
            ("edf", 2000, 32.0, 2, true),
            103371.8753530763,
            1,
            0x75aa_e17b_db7f_6e3c,
        ),
        (
            ("srpt", 2000, 32.0, 1, true),
            1141303.0038422071,
            2,
            0xf491_54a9_1c16_60b5,
        ),
        (
            ("hybrid", 2000, 64.0, 1, true),
            153217.28240528068,
            12,
            0x4525_18ec_fb66_aa2e,
        ),
    ];
    for ((policy, count, load, seed, failures), energy, missed, schedule) in cases {
        let base = UniformWorkload::paper_defaults(count, seed)
            .generate(topo.hosts())
            .unwrap();
        let flows = ArrivalProcess::with_load(load, seed).apply(&base).unwrap();
        let horizon = flows.horizon().1;
        let events = match failures {
            true => FailureProcess::new(2.0 * horizon, 5.0, seed)
                .generate(topo.network.link_count(), horizon),
            false => Vec::new(),
        };
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = OnlineEngine::builder().policy(policy).build().unwrap();
        let outcome = engine
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap();
        let report = &outcome.report;
        let mut hash = link_digest(&outcome.schedule);
        fnv(&mut hash, report.events as u64);
        for decision in &report.decisions {
            fnv(&mut hash, decision.delivered.to_bits());
        }
        let case = format!("{policy}, {count} flows at load {load}, seed {seed}");
        let got = report.online_energy;
        assert_eq!(got.to_bits(), f64::to_bits(energy), "{case}: {got}");
        assert_eq!(report.missed(), missed, "{case}");
        assert_eq!(hash, schedule, "{case}: {hash:#x}");
        assert_eq!(report.topology_events > 0, failures, "{case}");
    }
}
