//! The fluid replay of a schedule: per link, the loads the schedule sums
//! once ([`Schedule::link_loads`]); per flow, one walk over its arrival
//! profile.

use crate::report::{FlowOutcome, SimReport};
use dcn_core::schedule::{energy_of, exceeds_capacity, Schedule};
use dcn_flow::FlowSet;
use dcn_power::{PowerFunction, RateProfile};
use dcn_topology::GraphCsr;

/// Executes schedules on a topology at fluid (flow-level) granularity.
///
/// The simulator reads each link's aggregate rate as
/// [`Schedule::link_loads`] sums it and walks the segments of each flow's
/// arrival profile; between two breakpoints of a profile nothing of that
/// profile changes, so all quantities of interest (delivered volume, link
/// loads, energy) have exact closed forms per segment, and a replay costs
/// one pass over what the schedule stores. This is the same granularity
/// the paper's evaluation works at.
#[derive(Debug, Clone)]
pub struct Simulator {
    power: PowerFunction,
}

impl Simulator {
    /// Creates a simulator for networks whose links follow `power`.
    pub fn new(power: PowerFunction) -> Self {
        Self { power }
    }

    /// The power function in effect.
    pub fn power(&self) -> &PowerFunction {
        &self.power
    }

    /// Runs `schedule` for the given instance on the CSR view owned by a
    /// [`SolverContext`](dcn_core::SolverContext) and reports what actually
    /// happened — the natural follow-up to [`dcn_core::Algorithm::solve`]
    /// on the same context.
    pub fn run_ctx(
        &self,
        ctx: &dcn_core::SolverContext<'_>,
        flows: &FlowSet,
        schedule: &Schedule,
    ) -> SimReport {
        self.run_on(ctx.graph(), flows, schedule)
    }

    /// Runs an *online* schedule: like [`Simulator::run_on`], but flows the
    /// admission rule rejected (`admitted[flow] == false`) are excluded
    /// from the deadline-miss count — a rejected flow never transmits, so
    /// counting it as a miss would conflate admission control with
    /// scheduling failures. Rejected flows still appear in
    /// [`SimReport::flows`] (with zero delivery) for inspection.
    ///
    /// This is the measurement half of the event-driven online engine:
    /// pass the stitched policy-committed schedule of an `OnlineOutcome`
    /// together with its report's admission mask. It applies to every
    /// registered `OnlinePolicy` alike — solver re-solves (`resolve`,
    /// `hybrid`) and direct rate assignments (`edf`, `srpt`) commit the
    /// same piecewise-constant profiles.
    ///
    /// # Panics
    ///
    /// Panics when `admitted` does not have one entry per flow.
    pub fn run_admitted(
        &self,
        graph: &GraphCsr,
        flows: &FlowSet,
        schedule: &Schedule,
        admitted: &[bool],
    ) -> SimReport {
        assert_eq!(
            admitted.len(),
            flows.len(),
            "one admission decision per flow"
        );
        let mut report = self.run_on(graph, flows, schedule);
        report.deadline_misses = report
            .flows
            .iter()
            .filter(|f| admitted[f.flow] && !f.deadline_met())
            .count();
        report
    }

    /// Runs `schedule` against a prebuilt CSR view of the network; link
    /// capacities are served from the flat per-link array instead of
    /// re-deriving anything from the mutable builder.
    ///
    /// A flow id the schedule lists twice is judged by its first entry, as
    /// [`Schedule::flow_schedule`] and [`Schedule::verify_on`] judge it
    /// (every entry loads the links it names).
    pub fn run_on(&self, graph: &GraphCsr, flows: &FlowSet, schedule: &Schedule) -> SimReport {
        let horizon = if flows.is_empty() {
            schedule.horizon()
        } else {
            flows.horizon()
        };

        // Each link's aggregate `x_e(t)` as `Schedule::link_loads` sums it,
        // and its energy as `Schedule::energy` folds it.
        let links = schedule.link_loads(&self.power);
        let energy = energy_of(&links, self.power.sigma() * (horizon.1 - horizon.0));
        let (mut capacity_violations, mut max_utilization) = (0, 0.0f64);
        for load in &links {
            let capacity = graph.capacity(load.link).min(self.power.capacity());
            capacity_violations += usize::from(exceeds_capacity(load.peak_rate, capacity));
            max_utilization = max_utilization.max(load.peak_rate / capacity);
        }

        // One walk per flow over the segments of its arrival profile, up to
        // the segment it completes in (entries indexed back to front, so the
        // first entry of an id is the one that stays).
        let mut arrivals: Vec<Option<&RateProfile>> = vec![None; flows.len()];
        for fs in schedule.flow_schedules().iter().rev() {
            if let Some(slot) = arrivals.get_mut(fs.flow) {
                *slot = Some(&fs.profile);
            }
        }
        let mut deadline_misses = 0;
        let mut flow_outcomes = Vec::with_capacity(flows.len());
        for flow in flows.iter() {
            let mut delivered = 0.0;
            let mut completion_time = None;
            for (start, end, rate) in arrivals[flow.id].map_or_else(Vec::new, RateProfile::segments)
            {
                let after = delivered + rate * (end - start);
                if after >= flow.volume - 1e-9 {
                    // Completion happens inside this segment.
                    completion_time = Some(start + (flow.volume - delivered) / rate);
                    delivered = flow.volume;
                    break;
                }
                delivered = after;
            }
            let outcome = FlowOutcome {
                flow: flow.id,
                delivered,
                required: flow.volume,
                completion_time,
                deadline: flow.deadline,
            };
            if !outcome.deadline_met() {
                deadline_misses += 1;
            }
            flow_outcomes.push(outcome);
        }

        SimReport {
            flows: flow_outcomes,
            links,
            energy,
            deadline_misses,
            capacity_violations,
            max_utilization,
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_core::online::{OnlineEngine, POLICY_NAMES};
    use dcn_core::prelude::*;
    use dcn_core::schedule::FlowSchedule;
    use dcn_core::LinkLoad;
    use dcn_flow::failure::FailureProcess;
    use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
    use dcn_power::EnergyBreakdown;
    use dcn_topology::{builders, LinkId};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::BTreeMap;

    impl Simulator {
        /// `Simulator::run_on` as it was before the per-profile walk, verbatim:
        /// a sweep of the *global* breakpoint list that asks every link's and
        /// every unfinished flow's profile for its rate in every window. Three
        /// things in it are deliberately not what `run_on` does, each pinned by
        /// a test of its own: a flow id listed twice is judged by its last
        /// entry, the capacity check has no absolute slack, and breakpoints
        /// closer than 1e-12 are one (so a narrower overlap is never seen).
        fn run_on_reference(
            &self,
            graph: &GraphCsr,
            flows: &FlowSet,
            schedule: &Schedule,
        ) -> SimReport {
            let horizon = if flows.is_empty() {
                schedule.horizon()
            } else {
                flows.horizon()
            };

            // Aggregate link profiles and per-flow arrival (last link) profiles.
            let link_profiles: BTreeMap<LinkId, RateProfile> = schedule.link_profiles();
            let arrival_profiles: BTreeMap<usize, RateProfile> = schedule
                .flow_schedules()
                .iter()
                .map(|fs| (fs.flow, fs.profile.clone()))
                .collect();

            // Global breakpoint sweep.
            let mut times: Vec<f64> = vec![horizon.0, horizon.1];
            for p in link_profiles.values() {
                for (s, e, _) in p.segments() {
                    times.push(s);
                    times.push(e);
                }
            }
            for p in arrival_profiles.values() {
                for (s, e, _) in p.segments() {
                    times.push(s);
                    times.push(e);
                }
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

            // Per-flow delivery tracking.
            let mut delivered: BTreeMap<usize, f64> = BTreeMap::new();
            let mut completion: BTreeMap<usize, Option<f64>> = BTreeMap::new();
            for flow in flows.iter() {
                delivered.insert(flow.id, 0.0);
                completion.insert(flow.id, None);
            }

            // Per-link accumulators.
            #[derive(Default, Clone)]
            struct LinkAcc {
                peak: f64,
                busy: f64,
                volume: f64,
                dynamic_energy: f64,
            }
            let mut link_acc: BTreeMap<LinkId, LinkAcc> = BTreeMap::new();

            for w in times.windows(2) {
                let (t0, t1) = (w[0], w[1]);
                let dt = t1 - t0;
                if dt <= 0.0 {
                    continue;
                }
                let mid = 0.5 * (t0 + t1);

                for (&link, profile) in &link_profiles {
                    let rate = profile.rate_at(mid);
                    if rate <= 0.0 {
                        continue;
                    }
                    let acc = link_acc.entry(link).or_default();
                    acc.peak = acc.peak.max(rate);
                    acc.busy += dt;
                    acc.volume += rate * dt;
                    acc.dynamic_energy += self.power.dynamic_power(rate) * dt;
                }

                for flow in flows.iter() {
                    if completion[&flow.id].is_some() {
                        continue;
                    }
                    let Some(profile) = arrival_profiles.get(&flow.id) else {
                        continue;
                    };
                    let rate = profile.rate_at(mid);
                    if rate <= 0.0 {
                        continue;
                    }
                    let before = delivered[&flow.id];
                    let after = before + rate * dt;
                    if after >= flow.volume - 1e-9 {
                        // Completion happens inside this segment.
                        let needed = flow.volume - before;
                        let finish = t0 + needed / rate;
                        completion.insert(flow.id, Some(finish));
                        delivered.insert(flow.id, flow.volume.max(after.min(flow.volume)));
                    } else {
                        delivered.insert(flow.id, after);
                    }
                }
            }

            // Assemble the report.
            let horizon_length = horizon.1 - horizon.0;
            let mut links = Vec::new();
            let mut idle_energy = 0.0;
            let mut dynamic_energy = 0.0;
            let mut capacity_violations = 0;
            let mut max_utilization: f64 = 0.0;
            for (link, acc) in &link_acc {
                let capacity = graph.capacity(*link).min(self.power.capacity());
                let idle = self.power.sigma() * horizon_length;
                idle_energy += idle;
                dynamic_energy += acc.dynamic_energy;
                if acc.peak > capacity * (1.0 + 1e-9) {
                    capacity_violations += 1;
                }
                max_utilization = max_utilization.max(acc.peak / capacity);
                links.push(LinkLoad {
                    link: *link,
                    peak_rate: acc.peak,
                    busy_time: acc.busy,
                    volume: acc.volume,
                    dynamic_energy: acc.dynamic_energy,
                });
            }

            let mut flow_outcomes = Vec::new();
            let mut deadline_misses = 0;
            for flow in flows.iter() {
                let outcome = FlowOutcome {
                    flow: flow.id,
                    delivered: delivered[&flow.id],
                    required: flow.volume,
                    completion_time: completion[&flow.id],
                    deadline: flow.deadline,
                };
                if !outcome.deadline_met() {
                    deadline_misses += 1;
                }
                flow_outcomes.push(outcome);
            }

            SimReport {
                flows: flow_outcomes,
                links,
                energy: EnergyBreakdown {
                    idle: idle_energy,
                    dynamic: dynamic_energy,
                    active_links: link_acc.len(),
                },
                deadline_misses,
                capacity_violations,
                max_utilization,
                horizon,
            }
        }
    }

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    /// The replay measures `Schedule::energy`, to the bit: both fold the
    /// same segments of the same link aggregates in the same order.
    fn assert_energy_bits(report: &SimReport, schedule: &Schedule, power: &PowerFunction) {
        let analytic = schedule.energy(power);
        assert_eq!(report.energy.active_links, analytic.active_links);
        assert_eq!(report.energy.idle.to_bits(), analytic.idle.to_bits());
        assert_eq!(report.energy.dynamic.to_bits(), analytic.dynamic.to_bits());
    }

    #[test]
    fn simple_constant_rate_flow_is_measured_exactly() {
        let topo = builders::line(3);
        let power = PowerFunction::new(1.0, 1.0, 2.0, 10.0).unwrap();
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)])
                .unwrap();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                dcn_power::RateProfile::constant(0.0, 4.0, 2.0),
            )],
            (0.0, 4.0),
        );

        let report = Simulator::new(power).run_on(&topo.csr(), &flows, &schedule);
        assert!(report.all_good());
        let f = report.flow(0).unwrap();
        assert!((f.delivered - 8.0).abs() < 1e-9);
        assert!((f.completion_time.unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(report.active_link_count(), 2);
        assert_energy_bits(&report, &schedule, &power);
        assert!((report.max_utilization - 0.2).abs() < 1e-9);
    }

    #[test]
    fn simulator_agrees_with_analytic_energy_for_sp_mcf() {
        let topo = builders::fat_tree(4);
        let power = x2(1e9);
        let flows = UniformWorkload::paper_defaults(30, 4)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        let report = Simulator::new(power).run_ctx(&ctx, &flows, schedule);
        assert_eq!(report.deadline_misses, 0);
        assert_energy_bits(&report, schedule, &power);
    }

    #[test]
    fn simulator_agrees_with_analytic_energy_for_random_schedule() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(25, 9)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        let report = Simulator::new(power).run_ctx(&ctx, &flows, schedule);
        assert_eq!(report.deadline_misses, 0);
        assert_energy_bits(&report, schedule, &power);
        assert!(report.energy.total() >= solution.lower_bound.unwrap() - 1e-6);
    }

    #[test]
    fn run_ctx_matches_run_on() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(20, 11)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        let simulator = Simulator::new(power);
        let on_csr = simulator.run_on(&topo.csr(), &flows, schedule);
        let on_ctx = simulator.run_ctx(&ctx, &flows, schedule);
        assert_eq!(on_csr, on_ctx);
    }

    #[test]
    fn run_admitted_excludes_rejected_flows_from_the_miss_count() {
        // Two flows, but only flow 0 is scheduled (flow 1 was "rejected").
        let topo = builders::line(3);
        let power = x2(10.0);
        let flows = dcn_flow::FlowSet::from_tuples([
            (topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0),
            (topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0),
        ])
        .unwrap();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                dcn_power::RateProfile::constant(0.0, 4.0, 2.0),
            )],
            (0.0, 4.0),
        );
        let simulator = Simulator::new(power);
        let graph = topo.csr();
        // The plain run counts the unscheduled flow as a miss ...
        let plain = simulator.run_on(&graph, &flows, &schedule);
        assert_eq!(plain.deadline_misses, 1);
        // ... the admission-aware run does not, but still reports it.
        let online = simulator.run_admitted(&graph, &flows, &schedule, &[true, false]);
        assert_eq!(online.deadline_misses, 0);
        assert_eq!(online.flows.len(), 2);
        assert_eq!(online.flow(1).unwrap().delivered, 0.0);
        // An admitted flow that misses still counts.
        let both = simulator.run_admitted(&graph, &flows, &schedule, &[true, true]);
        assert_eq!(both.deadline_misses, 1);
    }

    #[test]
    #[should_panic(expected = "one admission decision per flow")]
    fn run_admitted_rejects_a_short_mask() {
        let topo = builders::line(3);
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)])
                .unwrap();
        let schedule = Schedule::new(vec![], (0.0, 4.0));
        Simulator::new(x2(10.0)).run_admitted(&topo.csr(), &flows, &schedule, &[]);
    }

    #[test]
    fn deadline_miss_is_detected() {
        // A schedule that only delivers half the data in time.
        let topo = builders::line(3);
        let power = x2(10.0);
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)])
                .unwrap();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                dcn_power::RateProfile::constant(0.0, 2.0, 2.0),
            )],
            (0.0, 4.0),
        );
        let report = Simulator::new(power).run_on(&topo.csr(), &flows, &schedule);
        assert_eq!(report.deadline_misses, 1);
        assert!(!report.all_good());
        let f = report.flow(0).unwrap();
        assert!(f.completion_time.is_none());
        assert!((f.delivered - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_violation_is_detected_where_verify_detects_it() {
        // One constraint, one tolerance: a peak within rounding of a small
        // capacity (C + 5e-10 at C = 0.1, above the relative slack alone)
        // verifies and replays clean; past the slack both flag it. A link
        // below the power function's cap is judged by its own capacity,
        // and so is the excess Random-Schedule re-draws on.
        for (capacity, power_cap, rate, violates) in [
            (3.0, 3.0, 4.0, true),
            (3.0, 3.0, 3.0, false),
            (0.1, 0.1, 0.1 + 5e-10, false),
            (0.1, 0.1, 0.1 + 3e-9, true),
            (3.0, 10.0, 4.0, true),
        ] {
            let topo = builders::line_with_capacity(3, capacity);
            let power = PowerFunction::speed_scaling_only(1.0, 2.0, power_cap);
            let (src, dst) = (topo.hosts()[0], topo.hosts()[2]);
            let flows = FlowSet::from_tuples([(src, dst, 0.0, 2.0, 2.0 * rate)]).unwrap();
            let path = topo.network.shortest_path(src, dst).unwrap();
            let schedule = Schedule::new(
                vec![FlowSchedule::uniform(
                    0,
                    path,
                    RateProfile::constant(0.0, 2.0, rate),
                )],
                (0.0, 2.0),
            );
            let graph = topo.csr();
            let report = Simulator::new(power).run_on(&graph, &flows, &schedule);
            let context = format!("rate {rate} on capacity {capacity}, power cap {power_cap}");
            assert_eq!(
                report.capacity_violations,
                if violates { 2 } else { 0 },
                "{context}"
            );
            assert_eq!(
                schedule.verify_on(&graph, &flows, &power).is_err(),
                violates,
                "{context}"
            );
            assert_eq!(report.max_utilization > 1.0, rate > capacity, "{context}");
            assert_eq!(report.deadline_misses, 0, "{context}");
            let excess = schedule.max_capacity_excess(&topo.network, &power);
            assert_eq!(excess > 0.0, rate > capacity, "{context}");
        }
    }

    #[test]
    fn an_overlap_narrower_than_the_old_dedup_is_still_a_violation() {
        // Two flows hand a full link over 5e-13 s late: the aggregate has a
        // segment at twice the capacity. `verify_on` reads it off
        // `segments()`, and so does the replay; the global sweep merged the
        // two breakpoints and saw none.
        let topo = builders::line_with_capacity(3, 10.0);
        let power = x2(10.0);
        let (src, dst) = (topo.hosts()[0], topo.hosts()[2]);
        let flows =
            FlowSet::from_tuples([(src, dst, 0.0, 2.0, 10.0), (src, dst, 0.0, 2.0, 10.0)]).unwrap();
        let path = topo.network.shortest_path(src, dst).unwrap();
        let entry = |flow, from, to| {
            FlowSchedule::uniform(flow, path.clone(), RateProfile::constant(from, to, 10.0))
        };
        let schedule = Schedule::new(
            vec![entry(0, 0.0, 1.0 + 5e-13), entry(1, 1.0, 2.0)],
            (0.0, 2.0),
        );
        let graph = topo.csr();
        assert!(schedule.verify_on(&graph, &flows, &power).is_err());
        let simulator = Simulator::new(power);
        let report = simulator.run_on(&graph, &flows, &schedule);
        assert_eq!(
            (report.capacity_violations, report.max_utilization),
            (2, 2.0)
        );
        assert_eq!(report.deadline_misses, 0);
        let swept = simulator.run_on_reference(&graph, &flows, &schedule);
        assert_eq!((swept.capacity_violations, swept.max_utilization), (0, 1.0));
    }

    #[test]
    fn a_flow_id_listed_twice_is_judged_by_its_first_entry_everywhere() {
        let topo = builders::line(3);
        let power = x2(10.0);
        let (src, dst) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(src, dst, 0.0, 4.0, 8.0)]).unwrap();
        let path = topo.network.shortest_path(src, dst).unwrap();
        let entry =
            |until| FlowSchedule::uniform(0, path.clone(), RateProfile::constant(0.0, until, 2.0));
        let graph = topo.csr();
        for (first, delivers) in [(4.0, true), (2.0, false)] {
            let schedule = Schedule::new(vec![entry(first), entry(6.0 - first)], (0.0, 4.0));
            let judged = schedule.flow_schedule(0).unwrap();
            assert_eq!(judged.delivered_volume() >= 8.0, delivers);
            assert_eq!(schedule.verify_on(&graph, &flows, &power).is_ok(), delivers);
            let report = Simulator::new(power).run_on(&graph, &flows, &schedule);
            assert_eq!(report.deadline_misses == 0, delivers);
            assert_eq!(report.flow(0).unwrap().delivered, judged.delivered_volume());
            // Both entries load the links they name.
            assert!(report
                .links
                .iter()
                .all(|l| l.peak_rate == 4.0 && l.volume == 12.0));
        }
    }

    /// Both replays of one schedule: counts, peaks and which flows complete
    /// are equal, every sum is within 1e-12 relative (the walk adds a
    /// profile's own segments where the sweep added the global windows).
    fn assert_matches_reference(
        context: &str,
        simulator: &Simulator,
        graph: &GraphCsr,
        flows: &FlowSet,
        schedule: &Schedule,
    ) -> SimReport {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        let new = simulator.run_on(graph, flows, schedule);
        let old = simulator.run_on_reference(graph, flows, schedule);
        assert_eq!(new.horizon, old.horizon, "{context}");
        assert_eq!(new.deadline_misses, old.deadline_misses, "{context}");
        assert_eq!(
            new.capacity_violations, old.capacity_violations,
            "{context}"
        );
        assert_eq!(new.max_utilization, old.max_utilization, "{context}");
        assert_eq!(
            new.energy.active_links, old.energy.active_links,
            "{context}"
        );
        assert!(close(new.energy.idle, old.energy.idle), "{context}");
        assert!(close(new.energy.dynamic, old.energy.dynamic), "{context}");
        assert_eq!(new.links.len(), old.links.len(), "{context}");
        for (n, o) in new.links.iter().zip(&old.links) {
            assert_eq!((n.link, n.peak_rate), (o.link, o.peak_rate), "{context}");
            assert!(close(n.busy_time, o.busy_time), "{context}: {n:?} vs {o:?}");
            assert!(close(n.volume, o.volume), "{context}: {n:?} vs {o:?}");
            assert!(
                close(n.dynamic_energy, o.dynamic_energy),
                "{context}: {n:?} vs {o:?}"
            );
        }
        assert_eq!(new.flows.len(), old.flows.len(), "{context}");
        for (n, o) in new.flows.iter().zip(&old.flows) {
            assert_eq!(
                (n.flow, n.required, n.deadline),
                (o.flow, o.required, o.deadline)
            );
            assert!(close(n.delivered, o.delivered), "{context}: {n:?} vs {o:?}");
            match (n.completion_time, o.completion_time) {
                (Some(n), Some(o)) => assert!(close(n, o), "{context}: done {n} vs {o}"),
                (n, o) => assert_eq!(n, o, "{context}: flow completes in one replay only"),
            }
        }
        new
    }

    /// A hand-built schedule on a `k = 4` fat-tree of capacity 10: uniform
    /// and per-link entries (every link its own windows), several possibly
    /// overlapping pieces per profile, some flows delivered exactly, others
    /// under- or over-delivered, inside their span or not, and rates that
    /// add up above the capacity.
    fn random_schedule(
        rng: &mut StdRng,
        topo: &builders::BuiltTopology,
        graph: &GraphCsr,
    ) -> (FlowSet, Schedule) {
        let hosts = topo.hosts();
        let mut tuples = Vec::new();
        let mut entries = Vec::new();
        for flow in 0..rng.gen_range(3..=12) {
            let src = hosts[rng.gen_range(0..hosts.len())];
            let dst = *hosts.iter().filter(|&&h| h != src).choose(rng).unwrap();
            let release = rng.gen_range(0.0..5.0);
            let deadline = release + rng.gen_range(1.0..6.0);
            let volume = rng.gen_range(0.5..8.0);
            tuples.push((src, dst, release, deadline, volume));
            let path = graph.shortest_path(src, dst).unwrap();
            let exact = rng.gen_bool(0.5);
            let profile = |rng: &mut StdRng| {
                if exact {
                    return RateProfile::constant(release, deadline, volume / (deadline - release));
                }
                let mut profile = RateProfile::new();
                for _ in 0..rng.gen_range(1..=4) {
                    let start = rng.gen_range(release..deadline);
                    let end = start + rng.gen_range(0.1..2.0);
                    profile.add_rate(start, end, rng.gen_range(0.1..6.0));
                }
                profile
            };
            entries.push(if rng.gen_bool(0.6) {
                FlowSchedule::uniform(flow, path, profile(rng))
            } else {
                let per_link: BTreeMap<LinkId, RateProfile> =
                    path.links().iter().map(|&l| (l, profile(rng))).collect();
                let nominal = per_link[path.links().last().unwrap()].clone();
                FlowSchedule::per_link(flow, path, nominal, per_link)
            });
        }
        let flows = FlowSet::from_tuples(tuples).unwrap();
        let horizon = flows.horizon();
        (flows, Schedule::new(entries, horizon))
    }

    #[test]
    fn the_per_profile_walk_matches_the_global_sweep_on_random_schedules() {
        let topo = builders::fat_tree_with_capacity(4, 10.0);
        let graph = topo.csr();
        let power = PowerFunction::new(0.5, 1.0, 2.0, 10.0).unwrap();
        let simulator = Simulator::new(power);
        let (mut missing, mut overloaded, mut clean) = (0, 0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (flows, schedule) = random_schedule(&mut rng, &topo, &graph);
            let context = format!("hand-built, seed {seed}");
            let report = assert_matches_reference(&context, &simulator, &graph, &flows, &schedule);
            assert_energy_bits(&report, &schedule, &power);
            missing += usize::from(report.deadline_misses > 0);
            overloaded += usize::from(report.capacity_violations > 0);
            clean += usize::from(report.flows.iter().any(FlowOutcome::deadline_met));
        }
        assert!(
            missing > 20 && overloaded > 20 && clean > 20,
            "{missing} {overloaded} {clean}"
        );

        // Schedules the online engine appended window by window, under link
        // churn: a re-routed flow keeps the links of its earlier paths.
        let mut rerouted = 0;
        for seed in 0..20 {
            let base = UniformWorkload::paper_defaults(30, seed)
                .generate(topo.hosts())
                .unwrap();
            let flows = ArrivalProcess::with_load(8.0, seed).apply(&base).unwrap();
            let events = FailureProcess::new(30.0, 1.0, seed)
                .generate(topo.network.link_count(), flows.horizon().1);
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            for policy in POLICY_NAMES {
                let outcome = OnlineEngine::builder()
                    .policy(policy)
                    .seed(seed)
                    .build()
                    .unwrap()
                    .run_with_events(&mut ctx, &flows, &power, &events)
                    .unwrap();
                let schedule = &outcome.schedule;
                let context = format!("{policy} under churn, seed {seed}");
                let report =
                    assert_matches_reference(&context, &simulator, ctx.graph(), &flows, schedule);
                assert_energy_bits(&report, schedule, &power);
                rerouted += schedule
                    .flow_schedules()
                    .iter()
                    .filter(|fs| fs.link_profiles().count() > fs.path.len())
                    .count();
            }
        }
        assert!(rerouted > 20, "{rerouted} flows changed their path");
    }

    #[test]
    fn store_and_forward_windows_still_deliver_on_time() {
        // The per-link windows of Most-Critical-First may differ per link;
        // the nominal (arrival) profile is what the deadline check sees.
        let topo = builders::line_with_capacity(4, 1e9);
        let power = x2(1e9);
        let flows = dcn_flow::FlowSet::from_tuples([
            (topo.hosts()[0], topo.hosts()[3], 0.0, 6.0, 6.0),
            (topo.hosts()[1], topo.hosts()[2], 1.0, 3.0, 4.0),
        ])
        .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let report =
            Simulator::new(power).run_ctx(&ctx, &flows, solution.schedule.as_ref().unwrap());
        assert_eq!(report.deadline_misses, 0);
        for f in &report.flows {
            assert!(f.deadline_met());
        }
    }

    #[test]
    fn empty_schedule_produces_empty_report() {
        let topo = builders::line(2);
        let power = x2(10.0);
        let flows = dcn_flow::FlowSet::from_flows(vec![]).unwrap();
        let schedule = Schedule::new(vec![], (0.0, 1.0));
        let report = Simulator::new(power).run_on(&topo.csr(), &flows, &schedule);
        assert!(report.all_good());
        assert_eq!(report.active_link_count(), 0);
        assert_eq!(report.energy.total(), 0.0);
    }
}
