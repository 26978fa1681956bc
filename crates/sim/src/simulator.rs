//! The fluid event-driven simulation loop.

use crate::report::{FlowOutcome, LinkLoad, SimReport};
use dcn_core::Schedule;
use dcn_flow::FlowSet;
use dcn_power::{EnergyBreakdown, PowerFunction, RateProfile};
use dcn_topology::{GraphCsr, LinkId};
use std::collections::BTreeMap;

/// Executes schedules on a topology at fluid (flow-level) granularity.
///
/// The simulator sweeps the global list of rate breakpoints; between two
/// consecutive breakpoints every rate in the system is constant, so all
/// quantities of interest (delivered volume, link loads, energy) have exact
/// closed forms per segment. This is the same granularity the paper's
/// evaluation works at.
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
    /// `hybrid`) and direct rate assignments (`edf`, `srpt`, `rcd`)
    /// commit the same piecewise-constant profiles.
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
    pub fn run_on(&self, graph: &GraphCsr, flows: &FlowSet, schedule: &Schedule) -> SimReport {
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
                energy: idle + acc.dynamic_energy,
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_core::prelude::*;
    use dcn_core::schedule::FlowSchedule;
    use dcn_flow::workload::UniformWorkload;
    use dcn_topology::builders;

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
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
        // Analytic cross-check.
        assert!((report.energy.total() - schedule.energy(&power).total()).abs() < 1e-9);
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
        let analytic = schedule.energy(&power).total();
        assert!(
            (report.energy.total() - analytic).abs() < 1e-6 * analytic,
            "simulated {} vs analytic {analytic}",
            report.energy.total()
        );
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
        let analytic = schedule.energy(&power).total();
        assert!((report.energy.total() - analytic).abs() < 1e-6 * analytic);
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
    fn capacity_violation_is_detected() {
        let topo = builders::line_with_capacity(3, 3.0);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 3.0);
        let flows =
            dcn_flow::FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 2.0, 8.0)])
                .unwrap();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        // Rate 4 exceeds capacity 3.
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                dcn_power::RateProfile::constant(0.0, 2.0, 4.0),
            )],
            (0.0, 2.0),
        );
        let report = Simulator::new(power).run_on(&topo.csr(), &flows, &schedule);
        assert_eq!(report.capacity_violations, 2);
        assert!(report.max_utilization > 1.0);
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
