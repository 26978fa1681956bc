//! The schedule data model: per-flow routing paths and rate profiles,
//! feasibility verification and energy accounting.
//!
//! A flow's schedule records its *nominal* transmission profile (the rate
//! at which data arrives at the destination, used for volume and deadline
//! checks) and its profile on every link. For Random-Schedule, the
//! rate-assigning online policies and simple hand-built schedules all links
//! share the nominal profile ([`FlowSchedule::uniform`]), which is then
//! stored once; Most-Critical-First packs each link independently
//! (store-and-forward), so the windows may differ per link while the rate
//! and the total transmission time are the same everywhere
//! ([`FlowSchedule::per_link`]). The layout is private to this module:
//! readers use [`FlowSchedule::link_profile`] / [`FlowSchedule::link_profiles`],
//! the online engine grows a flow's schedule one committed slice at a
//! time, and a `dcn-server` shard cuts it at its clock whenever it
//! re-plans the flow ([`FlowSchedule::replan`]). A slice that carries on
//! where the flow's last one ended, at its rate, extends the stored piece
//! ([`RateProfile::append_rate`]), so what a flow stores grows with its
//! rate changes, not with the events it lived through: every flow's own
//! `segments()` is what one piece per slice gave, to the bit; a link's
//! aggregate adds a constant-rate run's first rate where it used to add the
//! rate of each slice (1 ulp apart at most — ≤ 2.3e-16 relative in every
//! energy the bench artifacts record).

use dcn_flow::{FlowId, FlowSet};
use dcn_power::{EnergyBreakdown, PowerFunction, RateProfile};
use dcn_topology::{GraphCsr, LinkId, Path};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// How a single flow is served: the path it follows and its transmission
/// rate over time, on every link of the path.
#[derive(Debug, Clone)]
pub struct FlowSchedule {
    /// The flow this schedule serves.
    pub flow: FlowId,
    /// The single routing path assigned to the flow.
    pub path: Path,
    /// The nominal transmission profile (arrival of data at the
    /// destination); used for volume and deadline verification.
    pub profile: RateProfile,
    /// The profile on every link the flow transmits on, where those are
    /// not simply `profile` on every link of `path` (`None`).
    per_link: Option<BTreeMap<LinkId, RateProfile>>,
}

impl PartialEq for FlowSchedule {
    /// By content — the same flow, path, nominal profile and profile on
    /// every link — whichever way either side is stored.
    fn eq(&self, other: &Self) -> bool {
        self.flow == other.flow
            && self.path == other.path
            && self.profile == other.profile
            // Each side lists a link once, so with equal counts the match
            // below is one-to-one.
            && self.link_profiles().count() == other.link_profiles().count()
            && self
                .link_profiles()
                .all(|(link, profile)| other.link_profile(link) == Some(profile))
    }
}

impl FlowSchedule {
    /// Creates a schedule in which the flow transmits with the same profile
    /// on every link of its path (cut-through / fluid semantics, as used by
    /// Random-Schedule).
    pub fn uniform(flow: FlowId, path: Path, profile: RateProfile) -> Self {
        Self {
            flow,
            path,
            profile,
            per_link: None,
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
            per_link: Some(link_profiles),
        }
    }

    /// Total volume delivered to the destination by this schedule.
    pub fn delivered_volume(&self) -> f64 {
        self.profile.volume()
    }

    /// The profile of the flow on a particular link of its path, if any.
    pub fn link_profile(&self, link: LinkId) -> Option<&RateProfile> {
        match &self.per_link {
            Some(map) => map.get(&link),
            None => self.path.contains_link(link).then_some(&self.profile),
        }
    }

    /// Every link the flow transmits on with its profile there, each link
    /// once (in path order for a uniform schedule, else by link id).
    pub fn link_profiles(&self) -> impl Iterator<Item = (LinkId, &RateProfile)> + '_ {
        let uniform: &[LinkId] = match self.per_link {
            None => self.path.links(),
            Some(_) => &[],
        };
        let mapped = self.per_link.iter().flatten();
        uniform
            .iter()
            .map(|&link| (link, &self.profile))
            .chain(mapped.map(|(&link, profile)| (link, profile)))
    }

    /// The earliest and latest instants at which the flow transmits on any
    /// link, or `None` for an all-zero schedule.
    pub fn activity_span(&self) -> Option<(f64, f64)> {
        let mut span: Option<(f64, f64)> = self.profile.span();
        for p in self.per_link.iter().flat_map(BTreeMap::values) {
            if let Some((s, e)) = p.span() {
                span = Some(match span {
                    None => (s, e),
                    Some((cs, ce)) => (cs.min(s), ce.max(e)),
                });
            }
        }
        span
    }

    /// The part of this schedule inside the commit window `[from, to)`,
    /// relabelled as `flow` (re-solves number the residual flows afresh).
    /// Links idle in the window are dropped.
    pub(crate) fn restricted(&self, flow: FlowId, from: f64, to: f64) -> FlowSchedule {
        let profile = self.profile.restricted(from, to);
        let per_link = match &self.per_link {
            // Every link carries `profile`: all of them are idle in the
            // window, or none is.
            None if profile.is_active() => None,
            None => Some(BTreeMap::new()),
            Some(map) => Some(
                map.iter()
                    .map(|(&link, profile)| (link, profile.restricted(from, to)))
                    .filter(|(_, profile)| profile.is_active())
                    .collect(),
            ),
        };
        FlowSchedule {
            flow,
            path: self.path.clone(),
            profile,
            per_link,
        }
    }

    /// Appends a later committed `slice` of the same flow: the nominal
    /// profile and every link the slice transmits on gain its pieces behind
    /// the ones already there, and the path becomes the slice's — the
    /// routing of the latest decision (the per-link profiles keep the links
    /// of every earlier window, so energy and simulation see the true loads
    /// when the routing changed). Every piece goes through
    /// [`RateProfile::append_rate`]: a slice that carries on where the last
    /// one ended, at its rate, extends the stored piece instead of adding
    /// one, so a flow served at a constant rate over many windows stores one
    /// piece (see there for the tolerance). Pieces are never sorted or
    /// dropped: [`RateProfile::segments`] sums overlapping pieces in piece
    /// order, so commit order is what keeps an online run's energy stable.
    pub(crate) fn append(&mut self, slice: FlowSchedule) {
        debug_assert_eq!(self.flow, slice.flow, "slices of one flow");
        self.append_with(&slice, RateProfile::append_rate);
        self.path = slice.path;
    }

    /// [`FlowSchedule::append`], storing each piece of `slice` with `add`,
    /// except that the path stays the caller's to set.
    fn append_with(&mut self, slice: &FlowSchedule, add: impl Fn(&mut RateProfile, f64, f64, f64)) {
        let add_all = |profile: &mut RateProfile, later: &RateProfile| {
            for &(start, end, rate) in later.pieces() {
                add(profile, start, end, rate);
            }
        };
        // Uniform slices along one path stay one stored profile; anything
        // else is spelled out per link first.
        if self.per_link.is_some() || slice.per_link.is_some() || self.path != slice.path {
            let (path, profile) = (&self.path, &self.profile);
            let map = self.per_link.get_or_insert_with(|| {
                path.links().iter().map(|&l| (l, profile.clone())).collect()
            });
            for (link, pieces) in slice.link_profiles() {
                add_all(map.entry(link).or_default(), pieces);
            }
        }
        add_all(&mut self.profile, &slice.profile);
    }

    /// Re-plans the flow at `at`: keeps what the schedule transmits before
    /// `at`, on the links it used then, and appends `leg`'s part from `at` on
    /// — the flow's new plan, or nothing. A flow that transmitted nothing
    /// before `at` becomes the clipped leg alone (or nothing on its current
    /// path).
    ///
    /// A schedule whose pieces are in time order — every profile's pieces
    /// each start at or after the end of the one before, as a plan and
    /// every leg of the registry's algorithms are — stays so, and the cost
    /// is the pieces after `at` plus the leg's. The past is cut with
    /// [`RateProfile::truncate`], which folds a rate that held across the
    /// cut into one piece, as the online engine's commits store it. The
    /// leg's own pieces are clipped to `[at, ∞)` and never merged into the
    /// past, so until the next re-plan what the schedule delivers over a
    /// window after `at` is what the leg gives there, to the bit. (A leg out
    /// of time order is stored as its merged segments instead.)
    pub fn replan(&mut self, at: f64, leg: Option<&FlowSchedule>) {
        self.profile.truncate(at);
        if let Some(map) = &mut self.per_link {
            map.retain(|_, profile| {
                profile.truncate(at);
                profile.is_active()
            });
        }
        let kept = self.profile.is_active() || self.per_link.iter().any(|map| !map.is_empty());
        let Some(leg) = leg else {
            if !kept {
                // Idle everywhere: uniform along its path.
                self.per_link = None;
            }
            return;
        };
        let in_order = |p: &RateProfile| p.pieces().windows(2).all(|w| w[0].1 <= w[1].0);
        let mut links = leg.per_link.iter().flat_map(BTreeMap::values);
        if !(in_order(&leg.profile) && links.all(in_order)) {
            return self.replan(at, Some(&leg.restricted(self.flow, at, f64::INFINITY)));
        }
        if !kept {
            // Nothing kept: the schedule becomes the leg alone.
            self.per_link = leg.per_link.as_ref().map(|_| BTreeMap::new());
            self.path.clone_from(&leg.path);
        }
        self.append_with(leg, |profile, start, end, rate| {
            if end > at {
                profile.add_rate(start.max(at), end, rate);
            }
        });
        if self.path != leg.path {
            // A move: `append_with` spelled the past out on its links.
            self.path.clone_from(&leg.path);
        }
    }

    /// [`FlowSchedule::append`] of the uniform slice at `rate` over
    /// `[start, end)` along `path`, without building it, when that leaves
    /// this schedule stored once: it is uniform along `path` already.
    /// Returns `false`, with nothing done, when it is not.
    pub(crate) fn append_uniform(&mut self, path: &Path, start: f64, end: f64, rate: f64) -> bool {
        let stays_uniform = self.per_link.is_none() && self.path == *path;
        if stays_uniform {
            self.profile.append_rate(start, end, rate);
        }
        stays_uniform
    }
}

/// The hard constraint `x_e(t) ≤ C` (Eq. 5) as every check of it reads it:
/// `rate` is above `capacity` by more than rounding, relative and absolute
/// (1e-9 each) — the one tolerance of [`Schedule::verify_on`] and of the
/// simulator's replay.
pub fn exceeds_capacity(rate: f64, capacity: f64) -> bool {
    rate > capacity * (1.0 + 1e-9) + 1e-9
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
            for (link, profile) in fs.link_profiles() {
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

    /// The energy of the schedule under the paper's objective (Eq. 5):
    /// every link that is ever active pays the idle power `σ` for the whole
    /// horizon — a link may be powered down only if it carries nothing at
    /// all — plus `∫ μ·x_e(t)^α dt` of its aggregate rate.
    pub fn energy(&self, power: &PowerFunction) -> EnergyBreakdown {
        let horizon = self.horizon.1 - self.horizon.0;
        let mut energy = EnergyBreakdown::default();
        for profile in self.link_profiles().values().filter(|p| p.is_active()) {
            energy.active_links += 1;
            energy.idle += power.sigma() * horizon;
            energy.dynamic += profile.dynamic_energy(power);
        }
        energy
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
        // One id -> entry index per call (the first entry of an id wins, as
        // in `flow_schedule`), not a linear search per flow.
        let by_id: HashMap<FlowId, &FlowSchedule> =
            self.flows.iter().rev().map(|fs| (fs.flow, fs)).collect();
        for flow in flows.iter() {
            let Some(&fs) = by_id.get(&flow.id) else {
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
            if exceeds_capacity(max_rate, capacity) {
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
    use rand::prelude::*;
    use rand::rngs::StdRng;

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
        // Even a short burst keeps both links up for the whole horizon.
        let (topo, _, _) = simple_instance();
        let burst = rebuild_with_profile(&topo, RateProfile::constant(1.0, 1.5, 2.0));
        let e = burst.energy(&power());
        assert_eq!((e.active_links, e.idle, e.dynamic), (2, 8.0, 4.0));
        // Nothing scheduled, nothing charged.
        let idle = Schedule::new(vec![], (0.0, 4.0)).energy(&power());
        assert_eq!((idle.active_links, idle.total()), (0, 0.0));
    }

    #[test]
    #[should_panic(expected = "horizon is reversed")]
    fn reversed_horizon_rejected() {
        Schedule::new(vec![], (10.0, 0.0));
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
        // The shared link pays for the aggregate (1 + 3^2 + 2^2), not for
        // each flow's rate on its own; flow 1's second link for 2^2 * 2.
        let e = schedule.energy(&power());
        assert_eq!((e.active_links, e.idle, e.dynamic), (2, 6.0, 14.0 + 8.0));
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

    /// Three routes between one inter-pod host pair of a `k = 4` fat-tree:
    /// the same first and last hop, different links in between.
    fn routes(topo: &builders::BuiltTopology, src: usize, dst: usize) -> Vec<Path> {
        let mut graph = topo.csr();
        (0..3)
            .map(|_| {
                let path = graph
                    .shortest_path(topo.hosts()[src], topo.hosts()[dst])
                    .unwrap();
                graph.fail_link(path.links()[2]);
                path
            })
            .collect()
    }

    #[test]
    fn equality_is_by_content_whichever_way_a_side_is_stored() {
        let topo = builders::line(3);
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let profile = RateProfile::constant(0.0, 4.0, 2.0);
        let uniform = FlowSchedule::uniform(0, path.clone(), profile.clone());
        let mut map: BTreeMap<LinkId, RateProfile> =
            path.links().iter().map(|&l| (l, profile.clone())).collect();
        let spelled_out = FlowSchedule::per_link(0, path.clone(), profile.clone(), map.clone());
        assert_eq!(uniform, spelled_out);
        assert_eq!(spelled_out, uniform);
        // One link with another window, or one link missing, is a
        // different schedule.
        map.insert(path.links()[1], RateProfile::constant(1.0, 5.0, 2.0));
        let shifted = FlowSchedule::per_link(0, path.clone(), profile.clone(), map.clone());
        assert_ne!(uniform, shifted);
        map.remove(&path.links()[1]);
        assert_ne!(uniform, FlowSchedule::per_link(0, path, profile, map));
    }

    #[test]
    fn uniform_appends_on_one_path_keep_one_stored_profile() {
        let topo = builders::fat_tree(4);
        let path = routes(&topo, 0, 15).remove(0);
        let window = |k: usize| RateProfile::constant(k as f64, k as f64 + 1.0, 2.0);
        let mut fs = FlowSchedule::uniform(0, path.clone(), window(0));
        for k in 1..10 {
            fs.append(FlowSchedule::uniform(0, path.clone(), window(k)));
        }
        assert!(fs.per_link.is_none());
        assert_eq!(fs.profile.volume(), 20.0);
        let links: Vec<LinkId> = fs.link_profiles().map(|(link, _)| link).collect();
        assert_eq!(links, path.links());
        assert!(fs
            .link_profiles()
            .all(|(_, p)| std::ptr::eq(p, &fs.profile)));
    }

    #[test]
    fn a_path_change_expands_to_the_map_and_loses_no_piece() {
        let topo = builders::fat_tree(4);
        let paths = routes(&topo, 0, 15);
        let (old, new) = (&paths[0], &paths[2]);
        let mut fs = FlowSchedule::uniform(0, old.clone(), RateProfile::constant(0.0, 1.0, 2.0));
        fs.append(FlowSchedule::uniform(
            0,
            new.clone(),
            RateProfile::constant(1.0, 2.0, 3.0),
        ));
        assert_eq!(&fs.path, new, "the latest decision's routing");
        assert_eq!(fs.profile.volume(), 5.0);
        let mut links: Vec<LinkId> = old.links().iter().chain(new.links()).copied().collect();
        links.sort_unstable();
        links.dedup();
        assert!(links.len() > new.len(), "the routes differ");
        assert_eq!(fs.link_profiles().count(), links.len());
        for link in links {
            let mut expected = 0.0;
            if old.contains_link(link) {
                expected += 2.0;
            }
            if new.contains_link(link) {
                expected += 3.0;
            }
            assert_eq!(fs.link_profile(link).unwrap().volume(), expected);
        }
    }

    #[test]
    fn a_replan_keeps_the_past_on_its_links_and_stores_the_leg_unmerged() {
        let topo = builders::fat_tree(4);
        let paths = routes(&topo, 0, 15);
        let (old, new) = (&paths[0], &paths[2]);
        let planned = RateProfile::constant(0.0, 4.0, 2.0);
        let mut fs = FlowSchedule::uniform(7, old.clone(), planned.clone());
        // The same route at a rate 1e-14 off, in two abutting pieces, one
        // straddling the cut: `append` and `segments` would join runs, a
        // re-plan stores the leg's own pieces, clipped.
        let rate = 2.0 + 1e-14;
        let mut pieces = RateProfile::constant(0.5, 1.5, rate);
        pieces.add_rate(1.5, 2.5, rate);
        let leg = FlowSchedule::uniform(0, old.clone(), pieces);
        fs.replan(1.0, Some(&leg));
        assert!(fs.per_link.is_none());
        assert_eq!(fs.flow, 7);
        let cut = [(0.0, 1.0, 2.0), (1.0, 1.5, rate), (1.5, 2.5, rate)];
        assert_eq!(fs.profile.pieces(), cut);
        // After the cut the schedule delivers what the leg does, to the bit.
        for (from, to) in [(1.0, 2.5), (1.2, 2.0), (2.0, 3.0)] {
            let stored = fs.profile.volume_between(from, to);
            let planned = leg.profile.volume_between(from, to);
            assert_eq!(stored.to_bits(), planned.to_bits(), "[{from}, {to})");
        }

        // A move keeps the past on the old route's links. Once past, the
        // runs 1e-14 apart fold into one piece, as `append_rate` folds them.
        let moved = FlowSchedule::uniform(0, new.clone(), RateProfile::constant(2.0, 5.0, 1.0));
        fs.replan(2.0, Some(&moved));
        assert_eq!(&fs.path, new);
        for (link, profile) in fs.link_profiles() {
            let mut expected = Vec::new();
            if old.contains_link(link) {
                expected.push((0.0, 2.0, 2.0));
            }
            if new.contains_link(link) {
                expected.push((2.0, 5.0, 1.0));
            }
            assert_eq!(profile.pieces(), expected, "link {link}");
        }

        // Cut without a leg; and a flow that sent nothing becomes its leg.
        fs.replan(3.0, None);
        assert_eq!(fs.activity_span(), Some((0.0, 3.0)));
        let mut fresh = FlowSchedule::uniform(7, old.clone(), RateProfile::new());
        fresh.replan(1.0, Some(&moved));
        assert_eq!(
            fresh,
            FlowSchedule {
                flow: 7,
                ..moved.clone()
            }
        );
        let mut idle = FlowSchedule::uniform(7, old.clone(), planned.clone());
        idle.replan(0.0, None);
        assert_eq!(
            idle,
            FlowSchedule::uniform(7, old.clone(), RateProfile::new())
        );

        // A leg out of time order is stored as its segments, so the
        // schedule stays in time order.
        let mut shuffled = RateProfile::constant(3.0, 4.0, 1.0);
        shuffled.add_rate(1.0, 3.5, 1.0);
        let leg = FlowSchedule::uniform(0, old.clone(), shuffled);
        let mut fs = FlowSchedule::uniform(7, old.clone(), planned);
        fs.replan(2.0, Some(&leg));
        let stored = [
            (0.0, 2.0, 2.0),
            (2.0, 3.0, 1.0),
            (3.0, 3.5, 2.0),
            (3.5, 4.0, 1.0),
        ];
        assert_eq!(fs.profile.pieces(), stored);
    }

    #[test]
    fn restricted_drops_links_idle_in_the_window() {
        let topo = builders::line(3);
        let path = topo
            .network
            .shortest_path(topo.hosts()[0], topo.hosts()[2])
            .unwrap();
        let (first, second) = (path.links()[0], path.links()[1]);
        let mut link_profiles = BTreeMap::new();
        link_profiles.insert(first, RateProfile::constant(0.0, 1.0, 4.0));
        link_profiles.insert(second, RateProfile::constant(2.0, 3.0, 4.0));
        let stored = FlowSchedule::per_link(
            0,
            path.clone(),
            RateProfile::constant(2.0, 3.0, 4.0),
            link_profiles,
        );
        let clipped = stored.restricted(5, 0.0, 1.5);
        assert_eq!(clipped.flow, 5);
        assert_eq!(clipped.path, path);
        assert!(clipped.profile.is_empty());
        let links: Vec<LinkId> = clipped.link_profiles().map(|(link, _)| link).collect();
        assert_eq!(links, [first]);

        // A uniform schedule is idle on all of its links or on none, and a
        // window it is active in leaves it stored once.
        let uniform = FlowSchedule::uniform(0, path, RateProfile::constant(0.0, 1.0, 4.0));
        let idle = uniform.restricted(5, 2.0, 3.0);
        assert!(idle.profile.is_empty());
        assert_eq!(idle.link_profiles().count(), 0);
        let half = uniform.restricted(5, 0.5, 3.0);
        assert!(half.per_link.is_none());
        assert_eq!(half.profile.volume(), 2.0);
    }

    /// The engine's commit primitive before `FlowSchedule::restricted`,
    /// verbatim on the public constructors.
    fn oracle_clip(fs: &FlowSchedule, orig: FlowId, from: f64, to: f64) -> FlowSchedule {
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

    /// The engine's end-of-run merge of per-flow slice lists before
    /// `FlowSchedule::append`, verbatim on the public constructors.
    fn oracle_stitch(commits: Vec<(FlowId, Vec<FlowSchedule>)>, horizon: (f64, f64)) -> Schedule {
        let mut flow_schedules = Vec::with_capacity(commits.len());
        for (flow, mut parts) in commits {
            if parts.len() == 1 {
                flow_schedules.push(parts.pop().expect("one part"));
                continue;
            }
            let path = parts.last().expect("non-empty parts").path.clone();
            let mut profile = RateProfile::new();
            let mut link_profiles: BTreeMap<LinkId, RateProfile> = BTreeMap::new();
            for part in &parts {
                profile.merge(&part.profile);
                for (link, slice) in part.link_profiles() {
                    link_profiles.entry(link).or_default().merge(slice);
                }
            }
            flow_schedules.push(FlowSchedule::per_link(flow, path, profile, link_profiles));
        }
        Schedule::new(flow_schedules, horizon)
    }

    /// One inner schedule as a re-solve at time `from` could return it for
    /// residual flow 0: uniform, per-link with its own window on every
    /// link (some idle), or nothing at all; activity may start after the
    /// unit commit window, so its clip can be empty on some or all links.
    fn random_inner(rng: &mut StdRng, path: &Path, from: f64) -> FlowSchedule {
        let piece = |rng: &mut StdRng| {
            let start = from + rng.gen_range(0.0..1.5);
            let end = start + rng.gen_range(0.1..1.5);
            RateProfile::constant(start, end, rng.gen_range(0.1..2.0))
        };
        match rng.gen_range(0..5) {
            0 => FlowSchedule::per_link(0, path.clone(), RateProfile::new(), BTreeMap::new()),
            1 | 2 => {
                let mut nominal = RateProfile::new();
                let mut link_profiles = BTreeMap::new();
                for &link in path.links() {
                    if rng.gen_bool(0.8) {
                        nominal = piece(rng);
                        link_profiles.insert(link, nominal.clone());
                    }
                }
                FlowSchedule::per_link(0, path.clone(), nominal, link_profiles)
            }
            _ => {
                let mut profile = piece(rng);
                if rng.gen_bool(0.3) {
                    profile.merge(&piece(rng));
                }
                FlowSchedule::uniform(0, path.clone(), profile)
            }
        }
    }

    #[test]
    fn appended_slices_match_the_stitched_slice_lists() {
        let topo = builders::fat_tree(4);
        let graph = topo.csr();
        let power = power();
        let horizon = (0.0, 50.0);
        let endpoints = [(0, 15), (1, 14), (4, 11), (0, 9)];
        let flows = FlowSet::from_tuples(
            endpoints.map(|(s, d)| (topo.hosts()[s], topo.hosts()[d], 0.0, horizon.1, 1.0)),
        )
        .unwrap();
        let routes = endpoints.map(|(src, dst)| routes(&topo, src, dst));
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut appended: Vec<FlowSchedule> = Vec::new();
            let mut commits: Vec<(FlowId, Vec<FlowSchedule>)> = Vec::new();
            for (flow, routes) in routes.iter().enumerate() {
                let mut route = 0;
                let slices = rng.gen_range(1..=40);
                commits.push((flow, Vec::new()));
                for k in 0..slices {
                    if rng.gen_bool(0.3) {
                        route = rng.gen_range(0..routes.len());
                    }
                    let from = k as f64;
                    let inner = random_inner(&mut rng, &routes[route], from);
                    // Commit as the engine does: every window clipped to
                    // the next event, the last one taken whole.
                    let (slice, part) = if k + 1 < slices {
                        (
                            inner.restricted(flow, from, from + 1.0),
                            oracle_clip(&inner, flow, from, from + 1.0),
                        )
                    } else {
                        let mut whole = inner;
                        whole.flow = flow;
                        (whole.clone(), whole)
                    };
                    assert_eq!(slice, part, "seed {seed} flow {flow} slice {k}");
                    if k == 0 {
                        appended.push(slice);
                    } else {
                        appended[flow].append(slice);
                    }
                    commits[flow].1.push(part);
                }
            }
            let appended = Schedule::new(appended, horizon);
            let stitched = oracle_stitch(commits, horizon);
            assert_eq!(appended, stitched, "seed {seed}");
            let (new, old) = (appended.energy(&power), stitched.energy(&power));
            assert_eq!(new.dynamic.to_bits(), old.dynamic.to_bits(), "seed {seed}");
            assert_eq!(new.idle.to_bits(), old.idle.to_bits(), "seed {seed}");
            assert_eq!(
                appended.verify_on(&graph, &flows, &power),
                stitched.verify_on(&graph, &flows, &power),
                "seed {seed}"
            );
            for (new, old) in appended.flows.iter().zip(&stitched.flows) {
                assert_eq!(new.activity_span(), old.activity_span(), "seed {seed}");
            }
        }
    }
}
