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
use deadline_dcn::flow::workload::{ArrivalProcess, UniformWorkload};
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
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
