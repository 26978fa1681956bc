//! Cross-cutting invariant suite: the physics every scheduler must obey,
//! pinned for **every registry algorithm** on three data-center fabrics
//! (fat-tree, leaf–spine, BCube) over seeded uniform workloads, via the
//! proptest stand-in with fixed seeds.
//!
//! For every schedule an algorithm claims is feasible:
//!
//! * (a) no link exceeds its capacity at any rate breakpoint;
//! * (b) every flow's delivered volume equals its demand;
//! * (c) no flow transmits outside its `[release, deadline]` span;
//! * (d) the reported (analytic) energy equals the audit's re-measured
//!   energy to the bit — both fold the segments of the same link
//!   aggregates `x_e(t)` in the same order, so a difference is a bug.
//!
//! The bound-only `lb` algorithm is held to its own invariant (it lower
//! bounds every scheduler), and the `exact` enumerator to its optimality
//! on instances small enough to enumerate. The same four physics
//! invariants are also asserted for **every registered online policy**
//! driven through the event-driven `OnlineEngine`, whose stitched
//! schedules are not produced by any single offline solve. The
//! deadline-aware policies (`resolve`, `edf`, `hybrid`) are held to the
//! full contract — zero misses, full delivery; the deadline-oblivious
//! heuristic `srpt` is held to the physics (capacity, span, energy
//! accounting) plus full delivery of every flow it did not declare
//! missed.

mod common;

use deadline_dcn::core::online::{OnlineEngine, OnlineOutcome, POLICY_NAMES};
use deadline_dcn::core::prelude::*;
use deadline_dcn::core::schedule::{exceeds_capacity, Audit};
use deadline_dcn::flow::failure::FailureProcess;
use deadline_dcn::flow::workload::{ArrivalProcess, UniformWorkload};
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders::{self, BuiltTopology};
use deadline_dcn::topology::{GraphCsr, LinkId, TopologyEvent};
use proptest::prelude::*;

/// Generous capacity so MCF's virtual-circuit model and dcfsr's rounding
/// stay feasible on every draw: the invariants are about what a schedule
/// *claims*, not about contention-induced infeasibility. Kept at 1e4 (three
/// orders above any workload density) rather than 1e9 because `greedy`
/// transmits at the full line rate, and `rate * dt` at rate 1e9 quantizes
/// delivered volume more coarsely than the audit's completion
/// tolerance — a float artifact, not scheduling physics.
const CAPACITY: f64 = 1e4;

/// The scheduling algorithms of the registry (every name that produces a
/// schedule on instances of this size; `lb` is bound-only and `exact` gets
/// its own small-instance test below).
const SCHEDULERS: &[&str] = &[
    "dcfsr",
    "sp-mcf",
    "ecmp",
    "least-loaded",
    "consolidate",
    "greedy",
];

fn topologies() -> Vec<BuiltTopology> {
    vec![
        builders::fat_tree_with_capacity(4, CAPACITY),
        builders::leaf_spine_with_capacity(4, 2, 4, CAPACITY),
        builders::bcube_with_capacity(3, 1, CAPACITY),
    ]
}

fn power() -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, CAPACITY)
}

/// Asserts the four physics invariants of one claimed-feasible schedule.
fn assert_schedule_invariants(
    context: &str,
    ctx: &SolverContext<'_>,
    flows: &FlowSet,
    schedule: &Schedule,
    reported_energy: f64,
    power: &PowerFunction,
) {
    // (a) No link exceeds its capacity at any breakpoint: the aggregate
    // profiles are piecewise constant, so checking every segment checks
    // every breakpoint.
    for (link, profile) in schedule.link_profiles() {
        let capacity = ctx.graph().capacity(link).min(power.capacity());
        for (start, end, rate) in profile.segments() {
            assert!(
                !exceeds_capacity(rate, capacity),
                "{context}: link {link} carries rate {rate} > capacity {capacity} \
                 on [{start}, {end})"
            );
        }
    }
    for flow in flows.iter() {
        let fs = schedule
            .flow_schedule(flow.id)
            .unwrap_or_else(|| panic!("{context}: flow {} has no schedule", flow.id));
        // (b) Delivered volume equals the demand.
        let delivered = fs.profile.volume();
        assert!(
            (delivered - flow.volume).abs() <= 1e-6 * flow.volume.max(1.0),
            "{context}: flow {} delivers {delivered} of {}",
            flow.id,
            flow.volume
        );
        // (c) All transmission stays inside [release, deadline], on every
        // link of the path.
        if let Some((start, end)) = fs.activity_span() {
            assert!(
                start >= flow.release - 1e-9 && end <= flow.deadline + 1e-9,
                "{context}: flow {} transmits in [{start}, {end}] outside \
                 its span [{}, {}]",
                flow.id,
                flow.release,
                flow.deadline
            );
        }
    }
    let report = schedule.audit(ctx.graph(), flows, power);
    assert_eq!(report.deadline_misses, 0, "{context}: the audit saw misses");
    assert_eq!(
        report.capacity_violations, 0,
        "{context}: replay over capacity"
    );
    assert_replayed_energy(context, &report, schedule, reported_energy, power);
}

/// (d) The replay measures the schedule's own energy — idle and dynamic,
/// to the bit — and that is what was reported.
fn assert_replayed_energy(
    context: &str,
    replay: &Audit,
    schedule: &Schedule,
    reported: f64,
    power: &PowerFunction,
) {
    let analytic = schedule.energy(power);
    assert_eq!(
        (
            replay.energy.idle.to_bits(),
            replay.energy.dynamic.to_bits()
        ),
        (analytic.idle.to_bits(), analytic.dynamic.to_bits()),
        "{context}: the audit measures {:?}, the schedule accounts {analytic:?}",
        replay.energy
    );
    assert_eq!(
        replay.energy.total().to_bits(),
        reported.to_bits(),
        "{context}: the audit measures {} but {reported} was reported",
        replay.energy.total()
    );
}

/// The relaxed contract for the deadline-oblivious policy (`srpt`):
/// capacity (a) and span (c) hold for everything committed, delivery (b)
/// holds for every flow the report does **not** declare missed, and the
/// energy accounting (d) still matches the audit — misses excuse a
/// flow from delivery, never from physics.
fn assert_relaxed_policy_invariants(
    context: &str,
    ctx: &SolverContext<'_>,
    flows: &FlowSet,
    outcome: &OnlineOutcome,
    power: &PowerFunction,
) {
    let schedule = &outcome.schedule;
    for (link, profile) in schedule.link_profiles() {
        let capacity = ctx.graph().capacity(link).min(power.capacity());
        for (start, end, rate) in profile.segments() {
            assert!(
                !exceeds_capacity(rate, capacity),
                "{context}: link {link} carries rate {rate} > capacity {capacity} \
                 on [{start}, {end})"
            );
        }
    }
    for decision in &outcome.report.decisions {
        let flow = flows.flow(decision.flow);
        let Some(fs) = schedule.flow_schedule(flow.id) else {
            assert!(
                decision.missed || !decision.admitted,
                "{context}: flow {} has no schedule yet is neither missed nor rejected",
                flow.id
            );
            continue;
        };
        if let Some((start, end)) = fs.activity_span() {
            assert!(
                start >= flow.release - 1e-9 && end <= flow.deadline + 1e-9,
                "{context}: flow {} transmits in [{start}, {end}] outside \
                 its span [{}, {}]",
                flow.id,
                flow.release,
                flow.deadline
            );
        }
        if !decision.missed {
            let delivered = fs.profile.volume();
            assert!(
                (delivered - flow.volume).abs() <= 1e-6 * flow.volume.max(1.0),
                "{context}: unmissed flow {} delivers {delivered} of {}",
                flow.id,
                flow.volume
            );
        }
    }
    let report = schedule.audit(ctx.graph(), flows, power);
    let reported = outcome.report.online_energy;
    assert_replayed_energy(context, &report, schedule, reported, power);
}

/// Total volume transmitted on `link` inside `[from, to]` across a
/// schedule.
fn link_volume_between(schedule: &Schedule, link: LinkId, from: f64, to: f64) -> f64 {
    schedule
        .flow_schedules()
        .iter()
        .map(|fs| {
            fs.link_profile(link)
                .map_or(0.0, |p| p.volume_between(from, to))
        })
        .sum()
}

/// The outage windows of every link, reconstructed from a time-sorted
/// event stream. A link still down when the stream ends gets a window
/// that never closes.
fn down_windows(events: &[TopologyEvent], link_count: usize) -> Vec<(LinkId, f64, f64)> {
    let mut open: Vec<Option<f64>> = vec![None; link_count];
    let mut windows = Vec::new();
    for event in events {
        let slot = &mut open[event.link().index()];
        match (event.is_down(), *slot) {
            (true, None) => *slot = Some(event.time()),
            (false, Some(since)) => {
                windows.push((event.link(), since, event.time()));
                *slot = None;
            }
            _ => {}
        }
    }
    for (index, slot) in open.into_iter().enumerate() {
        if let Some(since) = slot {
            windows.push((LinkId(index), since, f64::INFINITY));
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Invariants (a)–(d) for every scheduling algorithm of the registry,
    /// on all three fabrics, for seeded uniform workloads.
    #[test]
    fn every_registry_scheduler_obeys_the_physics(seed in 0u64..10_000, n in 4usize..14) {
        let registry = AlgorithmRegistry::with_defaults();
        let power = power();
        for topo in topologies() {
            let flows = UniformWorkload::paper_defaults(n, seed)
                .generate(topo.hosts())
                .expect("builder fabrics have >= 2 hosts");
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            for name in SCHEDULERS {
                let mut algo = registry.create(name).unwrap();
                algo.set_seed(seed);
                let solution = algo
                    .solve(&mut ctx, &flows, &power)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", topo.name));
                let schedule = solution.schedule.as_ref().expect("schedulers schedule");
                assert_schedule_invariants(
                    &format!("{name} on {} (seed {seed}, n {n})", topo.name),
                    &ctx,
                    &flows,
                    schedule,
                    solution.total_energy().unwrap(),
                    &power,
                );
            }
        }
    }

    /// The `lb` algorithm is a true lower bound for every scheduler, on
    /// every fabric.
    #[test]
    fn lb_bounds_every_scheduler(seed in 0u64..10_000) {
        let registry = AlgorithmRegistry::with_defaults();
        let power = power();
        for topo in topologies() {
            let flows = UniformWorkload::paper_defaults(10, seed)
                .generate(topo.hosts())
                .unwrap();
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let lb = registry
                .create("lb")
                .unwrap()
                .solve(&mut ctx, &flows, &power)
                .unwrap()
                .lower_bound
                .expect("lb reports a bound");
            prop_assert!(lb > 0.0);
            for name in SCHEDULERS {
                let mut algo = registry.create(name).unwrap();
                algo.set_seed(seed);
                let energy = algo
                    .solve(&mut ctx, &flows, &power)
                    .unwrap()
                    .total_energy()
                    .unwrap();
                prop_assert!(
                    energy >= lb - 1e-6 * (1.0 + lb),
                    "{} on {}: energy {} beats LB {}", name, topo.name, energy, lb
                );
            }
        }
    }

    /// The `exact` enumerator obeys the same physics and never loses to
    /// dcfsr, on instances small enough to enumerate.
    #[test]
    fn exact_obeys_the_physics_and_is_optimal(seed in 0u64..10_000) {
        let topo = builders::parallel(3, CAPACITY);
        let flows = FlowSet::from_tuples(
            (0..3).map(|i| (topo.source(), topo.sink(), i as f64, 4.0 + i as f64, 3.0)),
        )
        .unwrap();
        let power = power();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let registry = AlgorithmRegistry::with_defaults();
        let exact = registry
            .create("exact")
            .unwrap()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        assert_schedule_invariants(
            "exact on parallel(3)",
            &ctx,
            &flows,
            exact.schedule.as_ref().unwrap(),
            exact.total_energy().unwrap(),
            &power,
        );
        let mut dcfsr = registry.create("dcfsr").unwrap();
        dcfsr.set_seed(seed);
        let approx = dcfsr.solve(&mut ctx, &flows, &power).unwrap();
        prop_assert!(
            exact.total_energy().unwrap()
                <= approx.total_energy().unwrap() + 1e-6
        );
    }

    /// Every registered online policy obeys the physics when driven
    /// through the event-driven engine over Poisson arrivals. `resolve`,
    /// `edf` and `hybrid` are deadline-aware, so they additionally owe
    /// zero misses and full delivery (the strict offline contract); the
    /// preemptive heuristic `srpt` gets the relaxed variant.
    #[test]
    fn every_registered_policy_obeys_the_physics(seed in 0u64..10_000, load in 1u32..8) {
        let power = power();
        for topo in topologies() {
            let base = UniformWorkload::paper_defaults(10, seed)
                .generate(topo.hosts())
                .unwrap();
            let flows = ArrivalProcess::with_load(load as f64, seed).apply(&base).unwrap();
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            for name in POLICY_NAMES {
                let mut engine = OnlineEngine::builder()
                    .algorithm("dcfsr")
                    .policy(name)
                    .seed(seed)
                    .build()
                    .unwrap();
                let outcome = engine.run(&mut ctx, &flows, &power).unwrap();
                let context =
                    format!("online {name} on {} (seed {seed}, load {load})", topo.name);
                prop_assert_eq!(outcome.report.solve_failures, 0);
                match name {
                    "resolve" | "edf" | "hybrid" => {
                        prop_assert_eq!(outcome.report.missed(), 0);
                        assert_schedule_invariants(
                            &context,
                            &ctx,
                            &flows,
                            &outcome.schedule,
                            outcome.report.online_energy,
                            &power,
                        );
                    }
                    _ => assert_relaxed_policy_invariants(
                        &context,
                        &ctx,
                        &flows,
                        &outcome,
                        &power,
                    ),
                }
            }
        }
    }

    /// Random failure/recovery churn against every registered policy.
    /// Two contracts, for a seeded renewal stream of `LinkDown`/`LinkUp`
    /// events ([`FailureProcess`]) over the whole fabric:
    ///
    /// * the stitched schedule never carries volume on a link inside any
    ///   of its outage windows, and capacity holds on the surviving
    ///   links at every breakpoint;
    /// * recovery is exact — replaying the stream on a raw [`GraphCsr`]
    ///   and restoring whatever is still down reproduces the pristine
    ///   capacity vector bit-for-bit, and `run_with_events` itself hands
    ///   the context back with the same pristine fabric.
    #[test]
    fn every_policy_survives_failure_churn(seed in 0u64..10_000, uptime_index in 0usize..3) {
        let power = power();
        // Mean uptimes chosen so a fat-tree(4)'s 48 links see a handful
        // to a few dozen events over the workload horizon — enough churn
        // to exercise stranding, revival and re-routes without turning
        // every case into hundreds of re-solves.
        let mean_uptime = [30.0, 60.0, 120.0][uptime_index];
        let topo = builders::fat_tree_with_capacity(4, CAPACITY);
        let base = UniformWorkload::paper_defaults(8, seed)
            .generate(topo.hosts())
            .unwrap();
        let flows = ArrivalProcess::with_load(2.0, seed).apply(&base).unwrap();
        let (_, horizon_end) = flows.horizon();
        let events = FailureProcess::new(mean_uptime, 1.0, seed)
            .generate(topo.network.link_count(), horizon_end.min(20.0));

        // Raw machinery first: fail/restore round-trips to the pristine
        // graph. The manual `PartialEq` compares capacities (the epoch is
        // excluded), and the bit-for-bit loop pins that recovery copies
        // `base_capacity` exactly rather than recomputing it.
        let pristine = GraphCsr::from_network(&topo.network);
        let before: Vec<f64> = (0..pristine.link_count())
            .map(|i| pristine.capacity(LinkId(i)))
            .collect();
        let mut churned = pristine.clone();
        for event in &events {
            event.apply(&mut churned);
        }
        let still_down: Vec<LinkId> = churned.down_links().collect();
        for link in still_down {
            churned.restore_link(link);
        }
        prop_assert_eq!(churned.down_link_count(), 0);
        for (index, &capacity) in before.iter().enumerate() {
            prop_assert!(
                churned.capacity(LinkId(index)).to_bits() == capacity.to_bits(),
                "link {} recovers to {} instead of its pre-failure {}",
                index, churned.capacity(LinkId(index)), capacity
            );
        }
        prop_assert!(churned == pristine, "restored graph differs from the pristine fabric");

        let windows = down_windows(&events, topo.network.link_count());
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        for name in POLICY_NAMES {
            let mut engine = OnlineEngine::builder()
                .algorithm("dcfsr")
                .policy(name)
                .seed(seed)
                .build()
                .unwrap();
            let outcome = engine
                .run_with_events(&mut ctx, &flows, &power, &events)
                .unwrap_or_else(|e| {
                    panic!("{name} under churn (seed {seed}, uptime {mean_uptime}): {e}")
                });
            prop_assert_eq!(outcome.report.topology_events, events.len());
            // Nothing ever rides a link while it is down.
            for &(link, from, to) in &windows {
                let volume = link_volume_between(&outcome.schedule, link, from, to);
                prop_assert!(
                    volume <= 1e-9,
                    "{} schedules {} units on down link {} during [{}, {})",
                    name, volume, link, from, to
                );
            }
            // Capacity still holds on the surviving links: the stitched
            // profiles are piecewise constant, so segments cover every
            // breakpoint.
            for (link, profile) in outcome.schedule.link_profiles() {
                let capacity = ctx.graph().capacity(link).min(power.capacity());
                for (start, end, rate) in profile.segments() {
                    prop_assert!(
                        !exceeds_capacity(rate, capacity),
                        "{}: link {} carries rate {} > capacity {} on [{}, {})",
                        name, link, rate, capacity, start, end
                    );
                }
            }
            // The run hands the context back on the pristine fabric, so
            // the next policy (and any follow-up solve) starts clean.
            prop_assert_eq!(ctx.graph().down_link_count(), 0);
            for (index, &capacity) in before.iter().enumerate() {
                prop_assert!(ctx.graph().capacity(LinkId(index)).to_bits() == capacity.to_bits());
            }
            prop_assert!(*ctx.graph() == pristine);
        }
    }
}

/// A flow that transmits with its nominal profile on every link of its
/// path stores that profile once: what `link_profiles()` hands out per
/// link *is* the flow's `profile`, not a copy of it — for a schedule the
/// engine assembled window by window (`edf`) as for one solved offline
/// (`dcfsr`). Most-Critical-First (`sp-mcf`) packs every link on its own
/// and keeps a profile per link.
/// `sp-mcf` on the instance made of ties that `tests/critical_interval.rs`
/// pins to the bit against the pairwise reference. Capacity 100, so the
/// capacity checks are not vacuous.
#[test]
fn sp_mcf_obeys_the_physics_on_a_tie_heavy_instance() {
    let (topo, flows) = common::tie_heavy_instance();
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);

    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let solution = AlgorithmRegistry::with_defaults()
        .create("sp-mcf")
        .unwrap()
        .solve(&mut ctx, &flows, &power)
        .unwrap();
    let schedule = solution.schedule.as_ref().expect("sp-mcf schedules");
    ctx.verify(schedule, &flows, &power).unwrap();
    assert_schedule_invariants(
        "sp-mcf on the tie-heavy instance",
        &ctx,
        &flows,
        schedule,
        solution.total_energy().unwrap(),
        &power,
    );
}

#[test]
fn a_uniform_schedule_stores_one_profile_per_flow() {
    let topo = builders::fat_tree_with_capacity(4, CAPACITY);
    let power = power();
    let base = UniformWorkload::paper_defaults(12, 7)
        .generate(topo.hosts())
        .unwrap();
    let flows = ArrivalProcess::with_load(4.0, 7).apply(&base).unwrap();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let links_sharing_the_profile = |fs: &FlowSchedule| {
        let shared = fs
            .link_profiles()
            .filter(|&(_, profile)| std::ptr::eq(profile, &fs.profile))
            .count();
        (shared, fs.path.len())
    };

    let outcome = OnlineEngine::builder()
        .policy("edf")
        .build()
        .unwrap()
        .run(&mut ctx, &flows, &power)
        .unwrap();
    assert!(
        outcome.report.events > flows.len(),
        "flows are committed in several windows"
    );
    assert_eq!(outcome.schedule.len(), flows.len());
    for fs in outcome.schedule.flow_schedules() {
        let (shared, hops) = links_sharing_the_profile(fs);
        assert_eq!(shared, hops, "edf flow {}", fs.flow);
    }

    let registry = AlgorithmRegistry::with_defaults();
    for (name, one_copy) in [("dcfsr", true), ("sp-mcf", false)] {
        let solution = registry
            .create(name)
            .unwrap()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        for fs in solution.schedule.as_ref().unwrap().flow_schedules() {
            let (shared, hops) = links_sharing_the_profile(fs);
            assert_eq!(fs.link_profiles().count(), hops);
            assert_eq!(shared, if one_copy { hops } else { 0 }, "{name}");
        }
    }
}

/// A flow `edf` serves at its required rate is one virtual circuit at one
/// rate between population changes, and is stored that way: a window that
/// carries on where the flow's last one ended, at its rate, extends the
/// stored piece, so a run keeps about one nominal piece per flow (plus one
/// per capacity-clipped re-rate) — not one per event the flow was in flight
/// for. The replay walks each stored profile once, so it is affordable at the
/// size of the `online_edf` benchmark workload (fat-tree k=8, capacity 10,
/// 5000 flows at load 32): the audit sees no deadline miss, no link
/// above capacity, and the energy the engine reported.
#[test]
fn an_edf_run_stores_one_piece_per_constant_rate_run_and_replays() {
    // Capacity 10, so the capacity check of the replay is not vacuous.
    let topo = builders::fat_tree_with_capacity(8, 10.0);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
    let base = UniformWorkload::paper_defaults(5000, 3)
        .generate(topo.hosts())
        .unwrap();
    let flows = ArrivalProcess::with_load(32.0, 3).apply(&base).unwrap();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    let outcome = OnlineEngine::builder()
        .policy("edf")
        .build()
        .unwrap()
        .run(&mut ctx, &flows, &power)
        .unwrap();
    let report = &outcome.report;
    assert_eq!((report.admitted(), report.missed()), (flows.len(), 0));
    assert!(
        report.events >= 2 * flows.len(),
        "an arrival and a completion per flow"
    );

    let pieces: usize = outcome
        .schedule
        .flow_schedules()
        .iter()
        .map(|fs| fs.profile.pieces().len())
        .sum();
    assert!(
        flows.len() <= pieces && 10 * pieces <= 11 * flows.len(),
        "{pieces} nominal pieces stored for {} flows over {} events",
        flows.len(),
        report.events
    );

    let replay = outcome.schedule.audit(ctx.graph(), &flows, &power);
    assert_eq!(replay.misses_among(&report.admitted_mask()), 0);
    assert_eq!(replay.capacity_violations, 0);
    assert!(replay.max_utilization > 0.5, "the capacity check bites");
    assert_replayed_energy(
        "edf replay",
        &replay,
        &outcome.schedule,
        report.online_energy,
        &power,
    );
}
