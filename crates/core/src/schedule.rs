//! The schedule data model: per-flow routing paths and rate profiles,
//! feasibility verification and energy accounting.
//!
//! A flow's schedule records both its *nominal* transmission profile (the
//! rate at which data arrives at the destination, used for volume and
//! deadline checks) and one profile per link of its path. For
//! Random-Schedule and simple hand-built schedules all links share the same
//! profile ([`FlowSchedule::uniform`]); Most-Critical-First packs each link
//! independently (store-and-forward), so the windows may differ per link
//! while the rate and the total transmission time are the same everywhere.

use dcn_flow::{FlowId, FlowSet};
use dcn_power::{EnergyBreakdown, EnergyMeter, PowerFunction, RateProfile};
use dcn_topology::{GraphCsr, LinkId, Path};
use std::collections::BTreeMap;
use std::fmt;

/// How a single flow is served: the path it follows and its transmission
/// rate over time, on every link of the path.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSchedule {
    /// The flow this schedule serves.
    pub flow: FlowId,
    /// The single routing path assigned to the flow.
    pub path: Path,
    /// The nominal transmission profile (arrival of data at the
    /// destination); used for volume and deadline verification.
    pub profile: RateProfile,
    /// The transmission profile of the flow on every link of its path.
    pub link_profiles: BTreeMap<LinkId, RateProfile>,
}

impl FlowSchedule {
    /// Creates a schedule in which the flow transmits with the same profile
    /// on every link of its path (cut-through / fluid semantics, as used by
    /// Random-Schedule).
    pub fn uniform(flow: FlowId, path: Path, profile: RateProfile) -> Self {
        let link_profiles = path.links().iter().map(|&l| (l, profile.clone())).collect();
        Self {
            flow,
            path,
            profile,
            link_profiles,
        }
    }

    /// Creates a schedule with explicit per-link profiles (store-and-forward
    /// semantics, as used by Most-Critical-First).
    pub fn per_link(
        flow: FlowId,
        path: Path,
        profile: RateProfile,
        link_profiles: BTreeMap<LinkId, RateProfile>,
    ) -> Self {
        Self {
            flow,
            path,
            profile,
            link_profiles,
        }
    }

    /// Total volume delivered to the destination by this schedule.
    pub fn delivered_volume(&self) -> f64 {
        self.profile.volume()
    }

    /// The profile of the flow on a particular link of its path, if any.
    pub fn link_profile(&self, link: LinkId) -> Option<&RateProfile> {
        self.link_profiles.get(&link)
    }

    /// The earliest and latest instants at which the flow transmits on any
    /// link, or `None` for an all-zero schedule.
    pub fn activity_span(&self) -> Option<(f64, f64)> {
        let mut span: Option<(f64, f64)> = self.profile.span();
        for p in self.link_profiles.values() {
            if let Some((s, e)) = p.span() {
                span = Some(match span {
                    None => (s, e),
                    Some((cs, ce)) => (cs.min(s), ce.max(e)),
                });
            }
        }
        span
    }
}

/// A violation detected when verifying a schedule against its instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleViolation {
    /// A flow has no schedule entry.
    MissingFlow(FlowId),
    /// A flow delivers less volume than required.
    VolumeShortfall {
        /// The flow in question.
        flow: FlowId,
        /// Volume delivered by the schedule.
        delivered: f64,
        /// Volume required by the flow.
        required: f64,
    },
    /// Some link of a flow's path carries less than the flow's volume.
    LinkVolumeShortfall {
        /// The flow in question.
        flow: FlowId,
        /// The link carrying too little.
        link: LinkId,
        /// Volume carried on that link.
        carried: f64,
    },
    /// A flow transmits outside its `[release, deadline]` span.
    OutsideSpan {
        /// The flow in question.
        flow: FlowId,
        /// First instant of transmission.
        start: f64,
        /// Last instant of transmission.
        end: f64,
    },
    /// A flow's path does not connect its source to its destination.
    WrongEndpoints {
        /// The flow in question.
        flow: FlowId,
    },
    /// A link's aggregate rate exceeds the capacity `C`.
    CapacityExceeded {
        /// The overloaded link.
        link: LinkId,
        /// The maximum aggregate rate observed on the link.
        max_rate: f64,
        /// The link capacity.
        capacity: f64,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::MissingFlow(id) => write!(f, "flow {id} has no schedule"),
            ScheduleViolation::VolumeShortfall {
                flow,
                delivered,
                required,
            } => write!(
                f,
                "flow {flow} delivers {delivered} of the required {required} units"
            ),
            ScheduleViolation::LinkVolumeShortfall {
                flow,
                link,
                carried,
            } => write!(
                f,
                "flow {flow} pushes only {carried} units through link {link}"
            ),
            ScheduleViolation::OutsideSpan { flow, start, end } => {
                write!(
                    f,
                    "flow {flow} transmits in [{start}, {end}] outside its span"
                )
            }
            ScheduleViolation::WrongEndpoints { flow } => {
                write!(f, "flow {flow} is routed on a path with wrong endpoints")
            }
            ScheduleViolation::CapacityExceeded {
                link,
                max_rate,
                capacity,
            } => write!(
                f,
                "link {link} reaches rate {max_rate}, above its capacity {capacity}"
            ),
        }
    }
}

/// The error returned by [`Schedule::verify_on`], wrapping every violation
/// found.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError {
    /// All detected violations.
    pub violations: Vec<ScheduleViolation>,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule has {} violation(s): ", self.violations.len())?;
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ScheduleError {}

/// A complete schedule: one [`FlowSchedule`] per flow, plus the horizon over
/// which energy is accounted.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    flows: Vec<FlowSchedule>,
    horizon: (f64, f64),
}

impl Schedule {
    /// Creates a schedule from per-flow schedules and the accounting horizon
    /// `[T0, T1]`.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is reversed.
    pub fn new(flows: Vec<FlowSchedule>, horizon: (f64, f64)) -> Self {
        assert!(horizon.1 >= horizon.0, "schedule horizon is reversed");
        Self { flows, horizon }
    }

    /// The accounting horizon `[T0, T1]`.
    pub fn horizon(&self) -> (f64, f64) {
        self.horizon
    }

    /// The per-flow schedules, in insertion order.
    pub fn flow_schedules(&self) -> &[FlowSchedule] {
        &self.flows
    }

    /// The schedule of a specific flow, if present.
    pub fn flow_schedule(&self, flow: FlowId) -> Option<&FlowSchedule> {
        self.flows.iter().find(|fs| fs.flow == flow)
    }

    /// Number of scheduled flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Returns `true` if the schedule contains no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The aggregate rate profile of every link that carries traffic.
    pub fn link_profiles(&self) -> BTreeMap<LinkId, RateProfile> {
        let mut profiles: BTreeMap<LinkId, RateProfile> = BTreeMap::new();
        for fs in &self.flows {
            for (&link, profile) in &fs.link_profiles {
                profiles.entry(link).or_default().merge(profile);
            }
        }
        profiles
    }

    /// The links that carry any traffic (the active set `E_a`).
    pub fn active_links(&self) -> Vec<LinkId> {
        self.link_profiles()
            .into_iter()
            .filter(|(_, p)| p.is_active())
            .map(|(l, _)| l)
            .collect()
    }

    /// Builds an [`EnergyMeter`] loaded with this schedule's link activity.
    pub fn energy_meter(&self, power: &PowerFunction) -> EnergyMeter {
        let mut meter = EnergyMeter::new(*power, self.horizon.0, self.horizon.1);
        for (link, profile) in self.link_profiles() {
            meter.add_profile(link, &profile);
        }
        meter
    }

    /// The energy of the schedule under the paper's objective (Eq. 5).
    pub fn energy(&self, power: &PowerFunction) -> EnergyBreakdown {
        self.energy_meter(power).breakdown()
    }

    /// The largest factor by which any link's aggregate rate exceeds the
    /// capacity (zero when none does).
    pub fn max_capacity_excess(&self, power: &PowerFunction) -> f64 {
        self.link_profiles()
            .values()
            .map(|p| p.capacity_excess(power.capacity()))
            .fold(0.0, f64::max)
    }

    /// Verifies the schedule against the instance it is supposed to solve,
    /// on a prebuilt CSR view of the network: every flow must be fully
    /// delivered, inside its span, along a path from its source to its
    /// destination, every link of the path must carry the full volume, and
    /// no link may exceed its capacity.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] listing every violation found.
    pub fn verify_on(
        &self,
        graph: &GraphCsr,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<(), ScheduleError> {
        let mut violations = Vec::new();
        for flow in flows.iter() {
            let Some(fs) = self.flow_schedule(flow.id) else {
                violations.push(ScheduleViolation::MissingFlow(flow.id));
                continue;
            };
            // Volume delivered to the destination.
            let delivered = fs.delivered_volume();
            if delivered + 1e-6 * flow.volume.max(1.0) < flow.volume {
                violations.push(ScheduleViolation::VolumeShortfall {
                    flow: flow.id,
                    delivered,
                    required: flow.volume,
                });
            }
            // Every link of the path must carry the full volume.
            for &link in fs.path.links() {
                let carried = fs
                    .link_profile(link)
                    .map(RateProfile::volume)
                    .unwrap_or(0.0);
                if carried + 1e-6 * flow.volume.max(1.0) < flow.volume {
                    violations.push(ScheduleViolation::LinkVolumeShortfall {
                        flow: flow.id,
                        link,
                        carried,
                    });
                }
            }
            // All activity must stay inside the span.
            if let Some((start, end)) = fs.activity_span() {
                if start < flow.release - 1e-9 || end > flow.deadline + 1e-9 {
                    violations.push(ScheduleViolation::OutsideSpan {
                        flow: flow.id,
                        start,
                        end,
                    });
                }
            }
            // Path endpoints.
            if fs.path.source() != flow.src || fs.path.destination() != flow.dst {
                violations.push(ScheduleViolation::WrongEndpoints { flow: flow.id });
            }
        }
        // Link capacities.
        for (link, profile) in self.link_profiles() {
            let max_rate = profile.max_rate();
            let capacity = graph.capacity(link).min(power.capacity());
            if max_rate > capacity * (1.0 + 1e-9) + 1e-9 {
                violations.push(ScheduleViolation::CapacityExceeded {
                    link,
                    max_rate,
                    capacity,
                });
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ScheduleError { violations })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_flow::FlowSet;
    use dcn_topology::builders;

    fn power() -> PowerFunction {
        PowerFunction::new(1.0, 1.0, 2.0, 10.0).unwrap()
    }

    /// A line A-B-C with one flow A->C served at a constant rate.
    fn simple_instance() -> (dcn_topology::builders::BuiltTopology, FlowSet, Schedule) {
        let topo = builders::line(3);
        let flows =
            FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)]).unwrap();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                RateProfile::constant(0.0, 4.0, 2.0),
            )],
            (0.0, 4.0),
        );
        (topo, flows, schedule)
    }

    fn rebuild_with_profile(topo: &builders::BuiltTopology, profile: RateProfile) -> Schedule {
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        Schedule::new(vec![FlowSchedule::uniform(0, path, profile)], (0.0, 4.0))
    }

    #[test]
    fn valid_schedule_verifies() {
        let (topo, flows, schedule) = simple_instance();
        schedule.verify_on(&topo.csr(), &flows, &power()).unwrap();
    }

    #[test]
    fn energy_counts_both_links_of_the_path() {
        let (_, _, schedule) = simple_instance();
        let e = schedule.energy(&power());
        assert_eq!(e.active_links, 2);
        // Each of the two links: dynamic 2^2*4 = 16, idle 1*4 = 4.
        assert!((e.dynamic - 32.0).abs() < 1e-9);
        assert!((e.idle - 8.0).abs() < 1e-9);
        assert!((e.total() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn volume_shortfall_detected() {
        let (topo, flows, _) = simple_instance();
        let schedule = rebuild_with_profile(&topo, RateProfile::constant(0.0, 2.0, 2.0));
        let err = schedule
            .verify_on(&topo.csr(), &flows, &power())
            .unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::VolumeShortfall { flow: 0, .. })));
    }

    #[test]
    fn link_volume_shortfall_detected() {
        let (topo, flows, _) = simple_instance();
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        // The nominal profile delivers everything, but the second link of
        // the path only carries half the data.
        let full = RateProfile::constant(0.0, 4.0, 2.0);
        let half = RateProfile::constant(0.0, 2.0, 2.0);
        let mut link_profiles = BTreeMap::new();
        link_profiles.insert(path.links()[0], full.clone());
        link_profiles.insert(path.links()[1], half);
        let schedule = Schedule::new(
            vec![FlowSchedule::per_link(0, path, full, link_profiles)],
            (0.0, 4.0),
        );
        let err = schedule
            .verify_on(&topo.csr(), &flows, &power())
            .unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::LinkVolumeShortfall { flow: 0, .. })));
    }

    #[test]
    fn transmission_outside_span_detected() {
        let (topo, flows, _) = simple_instance();
        let schedule = rebuild_with_profile(&topo, RateProfile::constant(1.0, 5.0, 2.0));
        let err = schedule
            .verify_on(&topo.csr(), &flows, &power())
            .unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::OutsideSpan { flow: 0, .. })));
    }

    #[test]
    fn capacity_violation_detected() {
        let (topo, flows, _) = simple_instance();
        let schedule = rebuild_with_profile(&topo, RateProfile::constant(0.0, 0.4, 20.0));
        let err = schedule
            .verify_on(&topo.csr(), &flows, &power())
            .unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::CapacityExceeded { .. })));
    }

    #[test]
    fn missing_flow_detected() {
        let (topo, flows, _) = simple_instance();
        let empty = Schedule::new(vec![], (0.0, 4.0));
        let err = empty.verify_on(&topo.csr(), &flows, &power()).unwrap_err();
        assert_eq!(err.violations, vec![ScheduleViolation::MissingFlow(0)]);
        assert!(err.to_string().contains("flow 0"));
    }

    #[test]
    fn wrong_endpoints_detected() {
        let (topo, flows, _) = simple_instance();
        let wrong_path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[1])
            .unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                wrong_path,
                RateProfile::constant(0.0, 4.0, 2.0),
            )],
            (0.0, 4.0),
        );
        let err = schedule
            .verify_on(&topo.csr(), &flows, &power())
            .unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::WrongEndpoints { flow: 0 })));
    }

    #[test]
    fn link_profiles_aggregate_sharing_flows() {
        let topo = builders::line(3);
        let path01 = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[1])
            .unwrap();
        let path02 = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let shared_link = path01.links()[0];
        let schedule = Schedule::new(
            vec![
                FlowSchedule::uniform(0, path01, RateProfile::constant(0.0, 2.0, 1.0)),
                FlowSchedule::uniform(1, path02, RateProfile::constant(1.0, 3.0, 2.0)),
            ],
            (0.0, 3.0),
        );
        let profiles = schedule.link_profiles();
        let shared = &profiles[&shared_link];
        assert_eq!(shared.rate_at(0.5), 1.0);
        assert_eq!(shared.rate_at(1.5), 3.0);
        assert_eq!(shared.rate_at(2.5), 2.0);
        // Flow 0 uses one link, flow 1 uses two; one of them is shared.
        assert_eq!(schedule.active_links().len(), 2);
    }

    #[test]
    fn per_link_profiles_are_used_for_energy() {
        // A store-and-forward schedule: same rate and duration on both
        // links, but shifted windows. Energy must count both links.
        let topo = builders::line(3);
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let mut link_profiles = BTreeMap::new();
        link_profiles.insert(path.links()[0], RateProfile::constant(0.0, 2.0, 4.0));
        link_profiles.insert(path.links()[1], RateProfile::constant(2.0, 4.0, 4.0));
        let schedule = Schedule::new(
            vec![FlowSchedule::per_link(
                0,
                path,
                RateProfile::constant(2.0, 4.0, 4.0),
                link_profiles,
            )],
            (0.0, 4.0),
        );
        let e = schedule.energy(&power());
        assert_eq!(e.active_links, 2);
        assert!((e.dynamic - 2.0 * 16.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn max_capacity_excess_reports_overload() {
        let (topo, _, _) = simple_instance();
        let schedule = rebuild_with_profile(&topo, RateProfile::constant(0.0, 1.0, 12.0));
        assert!((schedule.max_capacity_excess(&power()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn activity_span_covers_all_links() {
        let topo = builders::line(3);
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let mut link_profiles = BTreeMap::new();
        link_profiles.insert(path.links()[0], RateProfile::constant(1.0, 2.0, 1.0));
        link_profiles.insert(path.links()[1], RateProfile::constant(3.0, 5.0, 1.0));
        let fs =
            FlowSchedule::per_link(0, path, RateProfile::constant(3.0, 5.0, 1.0), link_profiles);
        assert_eq!(fs.activity_span(), Some((1.0, 5.0)));
    }
}
