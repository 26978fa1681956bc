//! Equivalence guard for the incremental warm-start pipeline: warm starts
//! are an *acceleration*, never a change of answer.
//!
//! Two contracts are pinned bit for bit, each across 3 seeds × 2
//! topologies, plus one end-to-end check of the engine:
//!
//! * **Fingerprint shortcut** — re-solving the *identical* fractional
//!   relaxation with warm starts enabled returns the cached solution bit
//!   for bit (same lower-bound bit pattern), and the warm-enabled cold
//!   solve that seeds the cache is itself bit-identical to a plain cold
//!   solve.
//! * **Dirty invalidation** — marking every link dirty denies both the
//!   shortcut and the row seeding, so the re-solve degenerates to the
//!   cold path, bit for bit.
//! * **Warm vs cold** — a warm online run misses exactly as many
//!   deadlines as a cold run and lands within Frank–Wolfe tolerance (5 %)
//!   of its energy — warm seeding moves the iterate's starting point, not
//!   the feasible set.

use deadline_dcn::core::online::OnlineEngine;
use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::{ArrivalProcess, UniformWorkload};
use deadline_dcn::flow::{Flow, FlowSet};
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders::{self, BuiltTopology};
use deadline_dcn::topology::LinkId;

fn topologies() -> Vec<BuiltTopology> {
    vec![builders::fat_tree(4), builders::leaf_spine(4, 2, 6)]
}

fn x2(capacity: f64) -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
}

/// A single-interval workload: every flow shares the `[0, 10]` window, so
/// the interval relaxation solves exactly one FMCF problem and repeated
/// `lb` solves present the *identical* problem to the warm cache.
fn common_window(topo: &BuiltTopology, seed: u64) -> FlowSet {
    let base = UniformWorkload::paper_defaults(12, seed)
        .generate(topo.hosts())
        .unwrap();
    FlowSet::from_flows(
        base.iter()
            .map(|f| Flow::new(f.id, f.src, f.dst, 0.0, 10.0, f.volume).unwrap())
            .collect(),
    )
    .unwrap()
}

/// The fingerprint shortcut: warm cold-seed == plain cold, and the warm
/// re-solve of the identical problem == both, all bit for bit.
#[test]
fn warm_resolve_of_the_identical_problem_is_bit_identical() {
    let power = x2(10.0);
    let registry = AlgorithmRegistry::with_defaults();
    for topo in topologies() {
        for seed in [1u64, 17, 404] {
            let flows = common_window(&topo, seed);
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let mut lb = registry.create("lb").unwrap();

            let cold = lb.solve(&mut ctx, &flows, &power).unwrap();
            ctx.set_warm_start(true);
            let warm_first = lb.solve(&mut ctx, &flows, &power).unwrap();
            let warm_second = lb.solve(&mut ctx, &flows, &power).unwrap();

            let bits = |s: &Solution| s.lower_bound.unwrap().to_bits();
            assert_eq!(
                bits(&cold),
                bits(&warm_first),
                "{} seed {seed}: the cache-seeding solve must be the cold path",
                topo.name
            );
            assert_eq!(
                bits(&warm_first),
                bits(&warm_second),
                "{} seed {seed}: the identical re-solve must hit the shortcut",
                topo.name
            );
        }
    }
}

/// Marking every link dirty invalidates both the shortcut and the row
/// seeding: the warm re-solve degenerates to the cold path, bit for bit.
#[test]
fn dirty_links_invalidate_the_cache_back_to_the_cold_path() {
    let power = x2(10.0);
    let registry = AlgorithmRegistry::with_defaults();
    for topo in topologies() {
        for seed in [5u64, 23, 999] {
            let flows = common_window(&topo, seed);
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let mut lb = registry.create("lb").unwrap();

            let cold = lb.solve(&mut ctx, &flows, &power).unwrap();
            ctx.set_warm_start(true);
            lb.solve(&mut ctx, &flows, &power).unwrap(); // seed the cache
            let all_links: Vec<LinkId> = (0..ctx.graph().link_count()).map(LinkId).collect();
            ctx.mark_dirty_links(all_links);
            let invalidated = lb.solve(&mut ctx, &flows, &power).unwrap();

            assert_eq!(
                cold.lower_bound.unwrap().to_bits(),
                invalidated.lower_bound.unwrap().to_bits(),
                "{} seed {seed}: an all-dirty re-solve must be the cold path",
                topo.name
            );
        }
    }
}

/// A warm engine run misses exactly as many deadlines as a cold run and
/// stays within Frank–Wolfe tolerance of its energy: seeding changes the
/// iterate's starting point, never the feasible set.
#[test]
fn warm_runs_match_cold_runs_on_misses_and_energy() {
    let power = x2(10.0);
    for topo in topologies() {
        for seed in [7u64, 21, 1000] {
            let base = UniformWorkload::paper_defaults(14, seed)
                .generate(topo.hosts())
                .unwrap();
            let flows = ArrivalProcess::with_load(2.0, seed).apply(&base).unwrap();

            let run = |warm: bool| {
                let mut ctx = SolverContext::from_network(&topo.network).unwrap();
                let mut engine = OnlineEngine::builder()
                    .algorithm("dcfsr")
                    .policy("resolve")
                    .warm_start(warm)
                    .seed(seed)
                    .build()
                    .unwrap();
                engine.run(&mut ctx, &flows, &power).unwrap()
            };
            let cold = run(false);
            let warm = run(true);

            let tag = format!("{} seed {seed}", topo.name);
            assert_eq!(
                cold.report.missed(),
                warm.report.missed(),
                "{tag}: warm starts must not change the deadline-miss count"
            );
            assert_eq!(
                cold.report.solve_failures, warm.report.solve_failures,
                "{tag}: solve failures"
            );
            assert_eq!(cold.report.events, warm.report.events, "{tag}: events");
            let relative = (cold.report.online_energy - warm.report.online_energy).abs()
                / cold.report.online_energy.max(1e-12);
            assert!(
                relative <= 5e-2,
                "{tag}: warm energy {} vs cold {} ({relative:.2e} relative)",
                warm.report.online_energy,
                cold.report.online_energy
            );
        }
    }
}
