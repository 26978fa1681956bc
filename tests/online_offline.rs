//! Migration guard for the online rolling-horizon path — the same role
//! `api_equivalence.rs` played for the context API and `csr_equivalence.rs`
//! for the CSR refactor: with **full knowledge** (every flow released at
//! `t = 0`) and `AdmitAll`, the online engine under the `resolve` policy
//! must reproduce the
//! offline `Algorithm::solve` result **bit for bit** — same schedule
//! struct, same energy, same lower bound path. The engine moves the solve
//! inside an event queue and a commit step; with a single arrival event
//! neither may change a single number.
//!
//! Also pins the two typed-error paths the online loop must never turn
//! into panics: a flow considered after its deadline
//! ([`SolveError::DeadlinePassed`]) and a re-solve on an empty residual
//! set ([`SolveError::EmptyFlowSet`]).

use deadline_dcn::core::online::{
    fractionally_feasible, residual_flow, AdmissionRule, OnlineEngine,
};
use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::flow::{Flow, FlowSet};
use deadline_dcn::power::PowerFunction;
use deadline_dcn::sim::Simulator;
use deadline_dcn::topology::builders::{self, BuiltTopology};

fn topologies() -> Vec<BuiltTopology> {
    vec![builders::fat_tree(4), builders::leaf_spine(4, 2, 6)]
}

fn x2(capacity: f64) -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
}

/// The full-knowledge variant of a workload: every release moved to `t=0`,
/// deadlines and volumes untouched.
fn released_at_zero(flows: &FlowSet) -> FlowSet {
    FlowSet::from_flows(
        flows
            .iter()
            .map(|f| Flow::new(f.id, f.src, f.dst, 0.0, f.deadline, f.volume).unwrap())
            .collect(),
    )
    .unwrap()
}

/// Online-with-full-knowledge ≡ offline, bit for bit, for the randomized
/// primary algorithm (dcfsr) over 3 seeds × 2 topologies.
#[test]
fn online_full_knowledge_is_bit_identical_to_offline_dcfsr() {
    let power = x2(10.0);
    let registry = AlgorithmRegistry::with_defaults();
    for topo in topologies() {
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        for seed in [7u64, 21, 1000] {
            let flows = released_at_zero(
                &UniformWorkload::paper_defaults(16, seed)
                    .generate(topo.hosts())
                    .unwrap(),
            );

            let mut online = OnlineEngine::builder()
                .algorithm("dcfsr")
                .policy("resolve")
                .seed(seed)
                .build()
                .unwrap();
            let outcome = online.run(&mut ctx, &flows, &power).unwrap();
            assert_eq!(outcome.report.events, 1, "{} seed {seed}", topo.name);
            assert_eq!(outcome.report.resolves, 1);
            assert_eq!(outcome.report.admitted(), flows.len());
            assert_eq!(outcome.report.missed(), 0);

            let mut offline = registry.create("dcfsr").unwrap();
            offline.set_seed(seed);
            let clairvoyant = offline.solve(&mut ctx, &flows, &power).unwrap();

            // Bit-identical, not approximately equal: the whole schedule
            // struct (paths, nominal and per-link profiles, horizon) and
            // the energy must match exactly.
            assert_eq!(
                &outcome.schedule,
                clairvoyant.schedule.as_ref().unwrap(),
                "{} seed {seed}: schedules diverge",
                topo.name
            );
            assert_eq!(
                outcome.report.online_energy,
                clairvoyant.total_energy().unwrap(),
                "{} seed {seed}: energies diverge",
                topo.name
            );
            // The simulator measures the two schedules identically too.
            let simulator = Simulator::new(power);
            let online_sim = simulator.run_admitted(
                ctx.graph(),
                &flows,
                &outcome.schedule,
                &outcome.report.admitted_mask(),
            );
            let offline_sim =
                simulator.run_ctx(&ctx, &flows, clairvoyant.schedule.as_ref().unwrap());
            assert_eq!(online_sim, offline_sim);
        }
    }
}

/// The same pin for a deterministic baseline (sp-mcf), and for the
/// admission-checked policy: with ample capacity `RejectInfeasible` must
/// admit everything and change nothing.
#[test]
fn online_full_knowledge_is_bit_identical_to_offline_sp_mcf() {
    let power = x2(1e9);
    let registry = AlgorithmRegistry::with_defaults();
    for topo in topologies() {
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        for seed in [3u64, 11, 42] {
            let flows = released_at_zero(
                &UniformWorkload::paper_defaults(14, seed)
                    .generate(topo.hosts())
                    .unwrap(),
            );
            for admission in [
                AdmissionRule::AdmitAll,
                AdmissionRule::reject_infeasible(Default::default()),
            ] {
                let mut online = OnlineEngine::builder()
                    .algorithm("sp-mcf")
                    .policy("resolve")
                    .admission(admission)
                    .seed(seed)
                    .build()
                    .unwrap();
                let outcome = online.run(&mut ctx, &flows, &power).unwrap();
                assert_eq!(outcome.report.admitted(), flows.len());

                let mut offline = registry.create("sp-mcf").unwrap();
                offline.set_seed(seed);
                let clairvoyant = offline.solve(&mut ctx, &flows, &power).unwrap();
                assert_eq!(
                    &outcome.schedule,
                    clairvoyant.schedule.as_ref().unwrap(),
                    "{} seed {seed}: schedules diverge",
                    topo.name
                );
                assert_eq!(
                    outcome.report.online_energy,
                    clairvoyant.total_energy().unwrap()
                );
            }
        }
    }
}

/// With full knowledge the online energy equals, to the bit, the
/// `total_energy()` of the clairvoyant solve of the same seeded algorithm
/// on the same context: the price of going online is exactly 1.
#[test]
fn full_knowledge_competitive_ratio_is_exactly_one() {
    let power = x2(10.0);
    let topo = builders::fat_tree(4);
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let flows = released_at_zero(
        &UniformWorkload::paper_defaults(12, 5)
            .generate(topo.hosts())
            .unwrap(),
    );
    let mut online = OnlineEngine::builder()
        .algorithm("dcfsr")
        .policy("resolve")
        .seed(5)
        .build()
        .unwrap();
    let outcome = online.run(&mut ctx, &flows, &power).unwrap();
    let mut reference = AlgorithmRegistry::with_defaults().create("dcfsr").unwrap();
    reference.set_seed(5);
    let clairvoyant = reference.solve(&mut ctx, &flows, &power).unwrap();
    assert_eq!(
        outcome.report.online_energy.to_bits(),
        clairvoyant.total_energy().unwrap().to_bits()
    );
}

/// The typed-error paths of the online loop (PR 4 left these thinly
/// covered): a flow considered past its deadline and a re-solve on an
/// empty residual set are errors, never panics.
#[test]
fn online_error_paths_are_typed_not_panics() {
    let topo = builders::line(3);
    let power = x2(10.0);
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();

    // A flow whose residual would have deadline <= release.
    let late = Flow::new(4, topo.hosts()[0], topo.hosts()[2], 0.0, 2.0, 1.0).unwrap();
    assert_eq!(
        residual_flow(&late, 2.0, 1.0, 0).unwrap_err(),
        SolveError::DeadlinePassed { flow: 4, time: 2.0 }
    );

    // A re-solve (and the feasibility probe) on an empty residual set.
    let empty = FlowSet::from_flows(vec![]).unwrap();
    let mut online = OnlineEngine::builder()
        .algorithm("dcfsr")
        .policy("resolve")
        .build()
        .unwrap();
    assert_eq!(
        online.run(&mut ctx, &empty, &power).unwrap_err(),
        SolveError::EmptyFlowSet
    );
    assert_eq!(
        fractionally_feasible(&mut ctx, &empty, &power, &Default::default(), 1e-3).unwrap_err(),
        SolveError::EmptyFlowSet
    );
}
