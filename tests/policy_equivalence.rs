//! Refactor guard for the event-driven online engine — the same role
//! `csr_equivalence.rs` played for the CSR core: the `resolve` policy of
//! the new `OnlineEngine` must reproduce the **pre-refactor**
//! `OnlineScheduler` loop **bit for bit** on staggered arrivals — same
//! stitched schedule struct, same energy, same per-flow decisions, same
//! event/re-solve counters — across 3 seeds × 2 topologies and both
//! admission rules.
//!
//! The reference below is the pre-split rolling-horizon loop, carried
//! over verbatim (modulo the public helper imports) from
//! `crates/core/src/online.rs` as it stood before the engine/policy
//! split. It iterates the arrival events directly — no event queue, no
//! policy indirection — which is exactly what the engine must degenerate
//! to when the policy always answers `Resolve`.

use std::collections::BTreeMap;

use deadline_dcn::core::online::{
    fractionally_feasible, residual_flow, AdmissionRule, FlowDecision, OnlineEngine,
};
use deadline_dcn::core::prelude::*;
use deadline_dcn::flow::workload::{ArrivalProcess, UniformWorkload};
use deadline_dcn::flow::{FlowId, FlowSet};
use deadline_dcn::power::{PowerFunction, RateProfile};
use deadline_dcn::topology::builders::{self, BuiltTopology};
use deadline_dcn::topology::LinkId;

const VOLUME_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, Default)]
struct FlowState {
    admitted: bool,
    in_flight: bool,
    missed: bool,
    delivered: f64,
}

/// What the legacy loop produced, in comparable form.
struct LegacyOutcome {
    schedule: Schedule,
    decisions: Vec<FlowDecision>,
    events: usize,
    resolves: usize,
    solve_failures: usize,
    online_energy: f64,
}

/// The pre-refactor `OnlineScheduler::run`, verbatim.
fn legacy_run(
    algorithm: &mut dyn Algorithm,
    admission: AdmissionRule,
    seed: u64,
    ctx: &mut SolverContext<'_>,
    flows: &FlowSet,
    power: &PowerFunction,
) -> Result<LegacyOutcome, SolveError> {
    ctx.validate_flow_shape(flows)?;
    let events = arrival_events(flows);
    let mut state = vec![FlowState::default(); flows.len()];
    let mut commits: Vec<(FlowId, Vec<FlowSchedule>)> = Vec::new();
    let mut commit_index: BTreeMap<FlowId, usize> = BTreeMap::new();
    let mut resolves = 0usize;
    let mut solve_failures = 0usize;

    for (k, (now, arrivals)) in events.iter().enumerate() {
        let next = events.get(k + 1).map(|(t, _)| *t);

        // Retire in-flight flows: fully served, or out of time.
        for (id, s) in state.iter_mut().enumerate() {
            if !s.in_flight {
                continue;
            }
            let flow = flows.flow(id);
            if s.delivered >= flow.volume * (1.0 - VOLUME_TOL) {
                s.in_flight = false;
            } else if flow.deadline <= *now {
                s.in_flight = false;
                s.missed = true;
            }
        }

        // Admission of the new arrivals, in flow-id order.
        for &id in arrivals {
            let admit = match admission {
                AdmissionRule::AdmitAll => true,
                AdmissionRule::RejectInfeasible => {
                    let (candidate, _) = residual_instance(flows, &state, *now, Some(id))?;
                    fractionally_feasible(ctx, &candidate, power)?
                }
            };
            if admit {
                state[id].admitted = true;
                state[id].in_flight = true;
            }
        }

        // The residual instance of this event.
        let (residual, map) = match residual_instance(flows, &state, *now, None) {
            Ok(pair) => pair,
            Err(SolveError::EmptyFlowSet) => continue, // nothing to re-solve
            Err(e) => return Err(e),
        };

        algorithm.set_seed(seed.wrapping_add(k as u64));
        resolves += 1;
        let solution = match algorithm.solve(ctx, &residual, power) {
            Ok(solution) => solution,
            Err(_) => {
                solve_failures += 1;
                continue;
            }
        };
        let schedule = solution.schedule.expect("benchmark algorithms schedule");

        // Commit the slice of the fresh schedule up to the next event (or
        // all of it after the last event).
        for fs in schedule.flow_schedules() {
            let orig = map[fs.flow];
            let committed = match next {
                None => {
                    let mut clone = fs.clone();
                    clone.flow = orig;
                    clone
                }
                Some(until) => clip_flow_schedule(fs, orig, *now, until),
            };
            if committed.profile.is_empty() && committed.link_profiles().next().is_none() {
                continue;
            }
            state[orig].delivered += committed.profile.volume();
            match commit_index.get(&orig) {
                Some(&slot) => commits[slot].1.push(committed),
                None => {
                    commit_index.insert(orig, commits.len());
                    commits.push((orig, vec![committed]));
                }
            }
        }
    }

    // Final accounting: an admitted flow that never received its full
    // volume missed its deadline.
    for (id, s) in state.iter_mut().enumerate() {
        if s.admitted && s.delivered < flows.flow(id).volume * (1.0 - 1e-6) {
            s.missed = true;
        }
    }

    let schedule = stitch(commits, flows.horizon());
    let online_energy = schedule.energy(power).total();
    let decisions = state
        .iter()
        .enumerate()
        .map(|(id, s)| FlowDecision {
            flow: id,
            admitted: s.admitted,
            delivered: s.delivered,
            missed: s.missed,
            failure_missed: false,
        })
        .collect();
    Ok(LegacyOutcome {
        schedule,
        decisions,
        events: events.len(),
        resolves,
        solve_failures,
        online_energy,
    })
}

fn arrival_events(flows: &FlowSet) -> Vec<(f64, Vec<FlowId>)> {
    let mut order: Vec<FlowId> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        flows
            .flow(a)
            .release
            .partial_cmp(&flows.flow(b).release)
            .expect("flow times are finite")
            .then(a.cmp(&b))
    });
    let mut events: Vec<(f64, Vec<FlowId>)> = Vec::new();
    for id in order {
        let release = flows.flow(id).release;
        match events.last_mut() {
            Some((t, ids)) if *t == release => ids.push(id),
            _ => events.push((release, vec![id])),
        }
    }
    events
}

fn residual_instance(
    flows: &FlowSet,
    state: &[FlowState],
    now: f64,
    extra: Option<FlowId>,
) -> Result<(FlowSet, Vec<FlowId>), SolveError> {
    let mut map: Vec<FlowId> = state
        .iter()
        .enumerate()
        .filter(|&(id, s)| s.in_flight || extra == Some(id))
        .map(|(id, _)| id)
        .collect();
    map.sort_unstable();
    if map.is_empty() {
        return Err(SolveError::EmptyFlowSet);
    }
    let mut residual = Vec::with_capacity(map.len());
    for (rid, &orig) in map.iter().enumerate() {
        let flow = flows.flow(orig);
        residual.push(residual_flow(
            flow,
            now,
            flow.volume - state[orig].delivered,
            rid,
        )?);
    }
    let set = FlowSet::from_flows(residual).map_err(SolveError::from)?;
    Ok((set, map))
}

fn clip_flow_schedule(fs: &FlowSchedule, orig: FlowId, from: f64, to: f64) -> FlowSchedule {
    let link_profiles: BTreeMap<LinkId, RateProfile> = fs
        .link_profiles()
        .map(|(link, profile)| (link, profile.restricted(from, to)))
        .filter(|(_, profile)| profile.is_active())
        .collect();
    FlowSchedule::per_link(
        orig,
        fs.path.clone(),
        fs.profile.restricted(from, to),
        link_profiles,
    )
}

/// Accumulates each flow's slice list as the engine accumulates commits
/// since PR 21: the first slice is kept as committed and every later one is
/// appended piece by piece with `RateProfile::append_rate` (where this loop
/// used to `merge`), so a slice that carries on at the rate of the previous
/// one extends its last piece. Same function per flow and per link; the
/// stored layout is the engine's, which is what `==` compares.
fn stitch(commits: Vec<(FlowId, Vec<FlowSchedule>)>, horizon: (f64, f64)) -> Schedule {
    fn append(profile: &mut RateProfile, later: &RateProfile) {
        for &(start, end, rate) in later.pieces() {
            profile.append_rate(start, end, rate);
        }
    }
    let mut flow_schedules = Vec::with_capacity(commits.len());
    for (flow, mut parts) in commits {
        if parts.len() == 1 {
            flow_schedules.push(parts.pop().expect("one part"));
            continue;
        }
        let path = parts.last().expect("non-empty parts").path.clone();
        let (first, later) = parts.split_first().expect("non-empty parts");
        let mut profile = first.profile.clone();
        let mut link_profiles: BTreeMap<LinkId, RateProfile> = first
            .link_profiles()
            .map(|(link, slice)| (link, slice.clone()))
            .collect();
        for part in later {
            append(&mut profile, &part.profile);
            for (link, slice) in part.link_profiles() {
                append(link_profiles.entry(link).or_default(), slice);
            }
        }
        flow_schedules.push(FlowSchedule::per_link(flow, path, profile, link_profiles));
    }
    Schedule::new(flow_schedules, horizon)
}

fn topologies() -> Vec<BuiltTopology> {
    vec![builders::fat_tree(4), builders::leaf_spine(4, 2, 6)]
}

/// Runs one (topology, seed, algorithm, admission) instance through both
/// implementations and asserts bit identity.
fn assert_resolve_matches_legacy(
    topo: &BuiltTopology,
    seed: u64,
    algorithm: &str,
    admission: AdmissionRule,
) {
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
    let registry = AlgorithmRegistry::with_defaults();
    // Staggered arrivals: the Poisson rewrite guarantees multiple arrival
    // events, which is the regime where the two loops could diverge.
    let base = UniformWorkload::paper_defaults(14, seed)
        .generate(topo.hosts())
        .unwrap();
    let flows = ArrivalProcess::with_load(2.0, seed).apply(&base).unwrap();
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();

    let legacy = legacy_run(
        registry.create(algorithm).unwrap().as_mut(),
        admission,
        seed,
        &mut ctx,
        &flows,
        &power,
    )
    .unwrap();

    let mut engine = OnlineEngine::builder()
        .algorithm(algorithm)
        .policy("resolve")
        .admission(admission)
        .seed(seed)
        .build()
        .unwrap();
    let new = engine.run(&mut ctx, &flows, &power).unwrap();

    let tag = format!("{} seed {seed} {algorithm}", topo.name);
    assert!(new.report.events > 1, "{tag}: arrivals must be staggered");
    assert_eq!(legacy.schedule, new.schedule, "{tag}: schedules diverge");
    assert_eq!(
        legacy.online_energy, new.report.online_energy,
        "{tag}: energies diverge"
    );
    assert_eq!(
        legacy.decisions, new.report.decisions,
        "{tag}: decisions diverge"
    );
    assert_eq!(legacy.events, new.report.events, "{tag}: event counts");
    assert_eq!(legacy.resolves, new.report.resolves, "{tag}: resolves");
    assert_eq!(
        legacy.solve_failures, new.report.solve_failures,
        "{tag}: solve failures"
    );
}

/// The randomized primary (dcfsr) under AdmitAll: 3 seeds × 2 topologies.
#[test]
fn resolve_is_bit_identical_to_the_prerefactor_loop_dcfsr() {
    for topo in topologies() {
        for seed in [2u64, 13, 977] {
            assert_resolve_matches_legacy(&topo, seed, "dcfsr", AdmissionRule::AdmitAll);
        }
    }
}

/// A deterministic baseline (sp-mcf) under both admission rules — the
/// admission probe shares the warm context, so its Frank–Wolfe scratch
/// reuse must not perturb the re-solves either.
#[test]
fn resolve_is_bit_identical_under_both_admission_rules_sp_mcf() {
    for topo in topologies() {
        for seed in [5u64, 29, 311] {
            assert_resolve_matches_legacy(&topo, seed, "sp-mcf", AdmissionRule::AdmitAll);
            assert_resolve_matches_legacy(&topo, seed, "sp-mcf", AdmissionRule::RejectInfeasible);
        }
    }
}
