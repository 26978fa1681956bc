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
//!
//! A link's aggregate rate `x_e(t)` is summed once, into one [`LinkLoad`]
//! per active link ([`Schedule::link_loads`]); the objective, the capacity
//! excess and [`Schedule::audit`] all read those. The audit is the one
//! verdict on a schedule: [`Schedule::verify_on`] returns its violations,
//! and every replay of a schedule (deadlines met, loads, energy) is its
//! report.

use dcn_flow::{FlowId, FlowSet};
use dcn_power::{EnergyBreakdown, PowerFunction, RateProfile};
use dcn_topology::{GraphCsr, LinkId, Network, Path};
use std::collections::BTreeMap;
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
    /// of every earlier window, so energy and the audit see the true loads
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
    /// `known` is the caller's word that it is, which skips comparing the
    /// paths. Returns `false`, with nothing done, when it is not.
    pub(crate) fn append_uniform(
        &mut self,
        path: &Path,
        known: bool,
        start: f64,
        end: f64,
        rate: f64,
    ) -> bool {
        let uniform_along = |fs: &Self| fs.per_link.is_none() && fs.path == *path;
        debug_assert!(
            !known || uniform_along(self),
            "not uniform along the known route"
        );
        let stays_uniform = known || uniform_along(self);
        if stays_uniform {
            self.profile.append_rate(start, end, rate);
        }
        stays_uniform
    }
}

/// The hard constraint `x_e(t) ≤ C` (Eq. 5) as every check of it reads it:
/// `rate` is above `capacity` by more than rounding, relative and absolute
/// (1e-9 each) — the one capacity tolerance of [`Schedule::audit`].
pub fn exceeds_capacity(rate: f64, capacity: f64) -> bool {
    rate > capacity * (1.0 + 1e-9) + 1e-9
}

/// The demand `w_i` as every verdict on it reads it: a flow of `volume`
/// counts as delivered once `delivered` is short of it by at most
/// `1e-6·max(volume, 1)`. [`Schedule::audit`] judges a flow's arrivals and
/// each link of its path by it, and so does the online ledger's final miss
/// rule.
pub fn delivers(volume: f64, delivered: f64) -> bool {
    delivered + 1e-6 * volume.max(1.0) >= volume
}

/// What a schedule's aggregate rate `x_e(t)` does on one active link, from
/// one walk over its segments ([`Schedule::link_loads`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoad {
    /// The link.
    pub link: LinkId,
    /// Highest instantaneous aggregate rate.
    pub peak_rate: f64,
    /// Total time during which the link carries traffic.
    pub busy_time: f64,
    /// Total data carried.
    pub volume: f64,
    /// `∫ μ·x_e(t)^α dt`, without the idle share `σ·|T|`, whose horizon is
    /// the caller's.
    pub dynamic_energy: f64,
}

/// [`Schedule::energy`] of `loads`, folded in their order, where each link's
/// idle share is `idle` (`σ` over the horizon accounted for).
fn energy_of(loads: &[LinkLoad], idle: f64) -> EnergyBreakdown {
    let mut energy = EnergyBreakdown::default();
    for load in loads {
        energy.active_links += 1;
        energy.idle += idle;
        energy.dynamic += load.dynamic_energy;
    }
    energy
}

/// The largest amount by which a peak of `loads` exceeds
/// `min(capacity(link), power capacity)`, or zero: the one fold behind
/// [`Schedule::max_capacity_excess`] (the network's capacities) and
/// [`Audit::capacity_excess`] (the audited graph's).
pub(crate) fn max_excess_of(
    loads: &[LinkLoad],
    capacity: impl Fn(LinkId) -> f64,
    power: &PowerFunction,
) -> f64 {
    loads
        .iter()
        .map(|load| (load.peak_rate - capacity(load.link).min(power.capacity())).max(0.0))
        .fold(0.0, f64::max)
}

/// What one flow's arrivals at its destination delivered
/// ([`Audit::flows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// The flow.
    pub flow: FlowId,
    /// Data delivered to the destination: the flow's volume once it
    /// completed, else what arrived over the whole schedule.
    pub delivered: f64,
    /// The instant at which the flow [`delivers`] its volume, if it does.
    pub completion_time: Option<f64>,
    /// The flow's hard deadline.
    pub deadline: f64,
}

impl FlowOutcome {
    /// Returns `true` if the flow delivered its volume no later than its
    /// deadline.
    pub fn deadline_met(&self) -> bool {
        self.completion_time
            .is_some_and(|t| t <= self.deadline + 1e-9)
    }

    /// Slack between completion and deadline (negative when the deadline is
    /// missed, `-∞` when the flow never completed).
    pub fn slack(&self) -> f64 {
        self.completion_time
            .map_or(f64::NEG_INFINITY, |t| self.deadline - t)
    }
}

/// The one verdict on a schedule against its instance ([`Schedule::audit`]):
/// what each flow delivered and when, what each link carried, the energy,
/// and every violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Audit {
    /// One outcome per flow of the instance, in flow order.
    pub flows: Vec<FlowOutcome>,
    /// One load per link that carries traffic, in link order.
    pub links: Vec<LinkLoad>,
    /// [`Schedule::energy`], to the bit.
    pub energy: EnergyBreakdown,
    /// Number of flows that missed their deadline (or never completed).
    pub deadline_misses: usize,
    /// Number of links whose peak rate exceeds their capacity.
    pub capacity_violations: usize,
    /// The largest peak utilisation over all links (1.0 = at capacity).
    pub max_utilization: f64,
    /// The largest amount by which a link's peak rate exceeds its capacity,
    /// or zero ([`Schedule::max_capacity_excess`] on the audited graph).
    pub capacity_excess: f64,
    /// Every violation found; empty exactly when [`Schedule::verify_on`]
    /// accepts the schedule.
    pub violations: Vec<ScheduleViolation>,
}

impl Audit {
    /// Returns `true` when every flow met its deadline and no link exceeded
    /// its capacity.
    pub fn all_good(&self) -> bool {
        self.deadline_misses == 0 && self.capacity_violations == 0
    }

    /// The deadline misses among the flows an online admission rule
    /// admitted (`admitted[flow]`): a rejected flow never transmits, so
    /// counting it would conflate admission control with scheduling.
    ///
    /// # Panics
    ///
    /// Panics when `admitted` does not have one entry per flow.
    pub fn misses_among(&self, admitted: &[bool]) -> usize {
        assert_eq!(
            admitted.len(),
            self.flows.len(),
            "one admission decision per flow"
        );
        self.flows
            .iter()
            .filter(|f| admitted[f.flow] && !f.deadline_met())
            .count()
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

    /// The aggregate rate profile of every link that carries traffic,
    /// merged afresh on each call: what [`Schedule::link_loads`] walks.
    pub fn link_profiles(&self) -> BTreeMap<LinkId, RateProfile> {
        let mut profiles: BTreeMap<LinkId, RateProfile> = BTreeMap::new();
        for fs in &self.flows {
            for (link, profile) in fs.link_profiles() {
                profiles.entry(link).or_default().merge(profile);
            }
        }
        profiles
    }

    /// One [`LinkLoad`] per link that carries traffic (the active set
    /// `E_a`), in link order: one merge of [`Schedule::link_profiles`] and
    /// one walk over each aggregate's segments.
    pub fn link_loads(&self, power: &PowerFunction) -> Vec<LinkLoad> {
        self.link_profiles()
            .into_iter()
            .filter(|(_, profile)| profile.is_active())
            .map(|(link, profile)| {
                let mut load = LinkLoad {
                    link,
                    peak_rate: 0.0,
                    busy_time: 0.0,
                    volume: 0.0,
                    dynamic_energy: 0.0,
                };
                for (start, end, rate) in profile.segments() {
                    let dt = end - start;
                    load.peak_rate = load.peak_rate.max(rate);
                    load.busy_time += dt;
                    load.volume += rate * dt;
                    load.dynamic_energy += power.dynamic_power(rate) * dt;
                }
                load
            })
            .collect()
    }

    /// The energy of the schedule under the paper's objective (Eq. 5):
    /// every link that is ever active pays the idle power `σ` for the whole
    /// horizon — a link may be powered down only if it carries nothing at
    /// all — plus `∫ μ·x_e(t)^α dt` of its aggregate rate.
    pub fn energy(&self, power: &PowerFunction) -> EnergyBreakdown {
        let idle = power.sigma() * (self.horizon.1 - self.horizon.0);
        energy_of(&self.link_loads(power), idle)
    }

    /// The largest amount by which any link's aggregate rate exceeds its
    /// capacity `C` — its own in `network`, capped by `power`'s, as
    /// [`Schedule::verify_on`] judges it — or zero when none does.
    pub fn max_capacity_excess(&self, network: &Network, power: &PowerFunction) -> f64 {
        max_excess_of(
            &self.link_loads(power),
            |link| network.link(link).capacity,
            power,
        )
    }

    /// Judges the schedule against the instance it is supposed to solve, on
    /// a prebuilt CSR view of the network, in one pass: every flow must
    /// deliver its volume ([`delivers`]) inside its span, along a path from
    /// its source to its destination, with every link of the path carrying
    /// the volume too, and no link may exceed its capacity
    /// ([`exceeds_capacity`] against `min(its capacity, power capacity)`).
    ///
    /// A flow completes where its arrival profile's segments first deliver
    /// its volume (a flow the tolerance covers entirely, at its release);
    /// the energy is [`Schedule::energy`]'s fold of the one
    /// [`Schedule::link_loads`] call. A flow id the schedule lists twice is
    /// judged by its first entry, as [`Schedule::flow_schedule`] reads it
    /// (every entry loads the links it names).
    pub fn audit(&self, graph: &GraphCsr, flows: &FlowSet, power: &PowerFunction) -> Audit {
        self.audit_with_loads(graph, flows, power, self.link_loads(power))
    }

    /// [`Schedule::audit`] on `links`, the schedule's
    /// [`Schedule::link_loads`] under `power`, already built by its caller.
    pub(crate) fn audit_with_loads(
        &self,
        graph: &GraphCsr,
        flows: &FlowSet,
        power: &PowerFunction,
        links: Vec<LinkLoad>,
    ) -> Audit {
        let mut violations = Vec::new();
        // Entries indexed back to front, so the first entry of an id stays.
        let mut entries: Vec<Option<&FlowSchedule>> = vec![None; flows.len()];
        for fs in self.flows.iter().rev() {
            if let Some(slot) = entries.get_mut(fs.flow) {
                *slot = Some(fs);
            }
        }
        let mut outcomes = Vec::with_capacity(flows.len());
        for flow in flows.iter() {
            let mut outcome = FlowOutcome {
                flow: flow.id,
                delivered: 0.0,
                completion_time: None,
                deadline: flow.deadline,
            };
            let Some(fs) = entries[flow.id] else {
                violations.push(ScheduleViolation::MissingFlow(flow.id));
                outcomes.push(outcome);
                continue;
            };
            // One walk over the segments of the arrival profile, up to the
            // one the flow completes in.
            for (start, end, rate) in fs.profile.segments() {
                let after = outcome.delivered + rate * (end - start);
                if delivers(flow.volume, after) {
                    let finish = start + (flow.volume - outcome.delivered) / rate;
                    outcome.completion_time = Some(finish.min(end));
                    break;
                }
                outcome.delivered = after;
            }
            if outcome.completion_time.is_none() && delivers(flow.volume, 0.0) {
                outcome.completion_time = Some(flow.release);
            }
            if outcome.completion_time.is_some() {
                outcome.delivered = flow.volume;
            } else {
                violations.push(ScheduleViolation::VolumeShortfall {
                    flow: flow.id,
                    delivered: outcome.delivered,
                    required: flow.volume,
                });
            }
            // Every link of the path must carry the full volume.
            for &link in fs.path.links() {
                let carried = fs.link_profile(link).map_or(0.0, RateProfile::volume);
                if !delivers(flow.volume, carried) {
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
            outcomes.push(outcome);
        }

        // Link capacities.
        let (mut capacity_violations, mut max_utilization) = (0, 0.0f64);
        for load in &links {
            let capacity = graph.capacity(load.link).min(power.capacity());
            max_utilization = max_utilization.max(load.peak_rate / capacity);
            if exceeds_capacity(load.peak_rate, capacity) {
                capacity_violations += 1;
                violations.push(ScheduleViolation::CapacityExceeded {
                    link: load.link,
                    max_rate: load.peak_rate,
                    capacity,
                });
            }
        }
        let idle = power.sigma() * (self.horizon.1 - self.horizon.0);
        Audit {
            energy: energy_of(&links, idle),
            capacity_excess: max_excess_of(&links, |link| graph.capacity(link), power),
            deadline_misses: outcomes.iter().filter(|f| !f.deadline_met()).count(),
            flows: outcomes,
            links,
            capacity_violations,
            max_utilization,
            violations,
        }
    }

    /// Verifies the schedule against the instance it is supposed to solve:
    /// [`Schedule::audit`] finds no violation.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] listing every violation the audit found.
    pub fn verify_on(
        &self,
        graph: &GraphCsr,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<(), ScheduleError> {
        let violations = self.audit(graph, flows, power).violations;
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
    use crate::online::POLICY_NAMES;
    use crate::prelude::*;
    use dcn_flow::failure::FailureProcess;
    use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
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
            .csr()
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
            .csr()
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
            .csr()
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
            .csr()
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
            .csr()
            .shortest_path(topo.hosts()[0], topo.hosts()[1])
            .unwrap();
        let path02 = topo
            .csr()
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
        let loads = schedule.link_loads(&power());
        assert_eq!(loads.len(), 2);
        let load = loads.iter().find(|l| l.link == shared_link).unwrap();
        assert_eq!((load.peak_rate, load.busy_time), (3.0, 3.0));
        assert_eq!((load.volume, load.dynamic_energy), (6.0, 14.0));
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
            .csr()
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
        let excess = schedule.max_capacity_excess(&topo.network, &power());
        assert!((excess - 2.0).abs() < 1e-9);
    }

    #[test]
    fn activity_span_covers_all_links() {
        let topo = builders::line(3);
        let path = topo
            .csr()
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
            .csr()
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
            .csr()
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

    /// The global-sweep replay the audit's per-profile walk replaced, kept
    /// as its reference: a sweep of the *global* breakpoint list that asks
    /// every link's and every unfinished flow's profile for its rate in
    /// every window. Three things in it are deliberately not what the audit
    /// does, each pinned by a test of its own: a flow id listed twice is
    /// judged by its last entry, the capacity check has no absolute slack,
    /// and breakpoints closer than 1e-12 are one (so a narrower overlap is
    /// never seen). It judges delivery with the one predicate, [`delivers`],
    /// finds no violations, and reads a link's peak off its runs as
    /// [`RateProfile::segments`] merges them: a window that carries on the
    /// run before it at a rate within 1e-12 of the run's is that run, at the
    /// run's first rate (otherwise a run of appended slices 1 ulp apart
    /// peaks 1 ulp higher here).
    fn audit_reference(
        graph: &GraphCsr,
        flows: &FlowSet,
        schedule: &Schedule,
        power: &PowerFunction,
    ) -> Audit {
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
        for p in link_profiles.values().chain(arrival_profiles.values()) {
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
            /// The end and the first rate of the run the last window was in.
            run: Option<(f64, f64)>,
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
                let run_rate = match acc.run {
                    Some((end, first))
                        if (end - t0).abs() < 1e-12 && (first - rate).abs() < 1e-12 =>
                    {
                        first
                    }
                    _ => rate,
                };
                acc.run = Some((t1, run_rate));
                acc.peak = acc.peak.max(run_rate);
                acc.busy += dt;
                acc.volume += rate * dt;
                acc.dynamic_energy += power.dynamic_power(rate) * dt;
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
                if delivers(flow.volume, after) {
                    // Completion happens inside this window.
                    let finish = t0 + (flow.volume - before) / rate;
                    completion.insert(flow.id, Some(finish.min(t1)));
                    delivered.insert(flow.id, flow.volume);
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
        let (mut max_utilization, mut capacity_excess): (f64, f64) = (0.0, 0.0);
        for (link, acc) in &link_acc {
            let capacity = graph.capacity(*link).min(power.capacity());
            idle_energy += power.sigma() * horizon_length;
            dynamic_energy += acc.dynamic_energy;
            if acc.peak > capacity * (1.0 + 1e-9) {
                capacity_violations += 1;
            }
            max_utilization = max_utilization.max(acc.peak / capacity);
            capacity_excess = capacity_excess.max(acc.peak - capacity);
            links.push(LinkLoad {
                link: *link,
                peak_rate: acc.peak,
                busy_time: acc.busy,
                volume: acc.volume,
                dynamic_energy: acc.dynamic_energy,
            });
        }

        let outcomes: Vec<FlowOutcome> = flows
            .iter()
            .map(|flow| FlowOutcome {
                flow: flow.id,
                delivered: delivered[&flow.id],
                completion_time: completion[&flow.id],
                deadline: flow.deadline,
            })
            .collect();
        Audit {
            deadline_misses: outcomes.iter().filter(|f| !f.deadline_met()).count(),
            flows: outcomes,
            links,
            energy: EnergyBreakdown {
                idle: idle_energy,
                dynamic: dynamic_energy,
                active_links: link_acc.len(),
            },
            capacity_violations,
            max_utilization,
            capacity_excess,
            violations: Vec::new(),
        }
    }

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    /// The audit measures `Schedule::energy`, to the bit: both fold the
    /// same segments of the same link aggregates in the same order.
    fn assert_energy_bits(audit: &Audit, schedule: &Schedule, power: &PowerFunction) {
        let analytic = schedule.energy(power);
        assert_eq!(audit.energy.active_links, analytic.active_links);
        assert_eq!(audit.energy.idle.to_bits(), analytic.idle.to_bits());
        assert_eq!(audit.energy.dynamic.to_bits(), analytic.dynamic.to_bits());
    }

    /// One flow from the first host of `topo` to its last, served on the
    /// shortest path by `profile`.
    fn one_flow(
        topo: &builders::BuiltTopology,
        (release, deadline, volume): (f64, f64, f64),
        profile: RateProfile,
    ) -> (FlowSet, Schedule) {
        let (src, dst) = (topo.hosts()[0], *topo.hosts().last().unwrap());
        let flows = FlowSet::from_tuples([(src, dst, release, deadline, volume)]).unwrap();
        let path = topo.csr().shortest_path(src, dst).unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(0, path, profile)],
            flows.horizon(),
        );
        (flows, schedule)
    }

    #[test]
    fn deadline_met_logic() {
        let ok = FlowOutcome {
            flow: 0,
            delivered: 10.0,
            completion_time: Some(5.0),
            deadline: 6.0,
        };
        assert!(ok.deadline_met());
        assert!((ok.slack() - 1.0).abs() < 1e-12);

        let late = FlowOutcome {
            completion_time: Some(7.0),
            ..ok
        };
        assert!(!late.deadline_met());

        let never = FlowOutcome {
            completion_time: None,
            delivered: 3.0,
            ..ok
        };
        assert!(!never.deadline_met());
        assert_eq!(never.slack(), f64::NEG_INFINITY);
    }

    #[test]
    fn a_short_flow_gets_one_verdict_from_verify_and_the_replay() {
        // A flow short of its volume by less than `delivers` allows is
        // delivered for `verify_on` and for the replay alike: it completes
        // at the end of its transmission, inside its span (a flow the
        // tolerance covers entirely, sending nothing, at its release).
        // Short by more, both reject it.
        let topo = builders::line(2);
        for (volume, short, completion) in [
            (10.0, 2e-6, Some(2.0)),
            (0.5, 5e-7, Some(2.0)),
            (5e-7, 5e-7, Some(0.0)),
            (10.0, 2e-5, None),
            (0.5, 2e-6, None),
        ] {
            let rate = (volume - short) / 2.0;
            let (flows, schedule) = one_flow(
                &topo,
                (0.0, 2.0, volume),
                RateProfile::constant(0.0, 2.0, rate),
            );
            let graph = topo.csr();
            let audit = schedule.audit(&graph, &flows, &x2(10.0));
            let context = format!("volume {volume} short by {short}");
            let delivered = completion.is_some();
            assert_eq!(
                schedule.verify_on(&graph, &flows, &x2(10.0)).is_ok(),
                delivered,
                "{context}"
            );
            assert_eq!(audit.deadline_misses, usize::from(!delivered), "{context}");
            assert_eq!(audit.flows[0].completion_time, completion, "{context}");
        }
    }

    #[test]
    fn simple_constant_rate_flow_is_measured_exactly() {
        let topo = builders::line(3);
        let power = PowerFunction::new(1.0, 1.0, 2.0, 10.0).unwrap();
        let (flows, schedule) =
            one_flow(&topo, (0.0, 4.0, 8.0), RateProfile::constant(0.0, 4.0, 2.0));
        let audit = schedule.audit(&topo.csr(), &flows, &power);
        assert!(audit.all_good());
        assert!(audit.violations.is_empty());
        let f = audit.flows[0];
        assert!((f.delivered - 8.0).abs() < 1e-9);
        assert!((f.completion_time.unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(audit.links.len(), 2);
        assert_energy_bits(&audit, &schedule, &power);
        assert!((audit.max_utilization - 0.2).abs() < 1e-9);
    }

    #[test]
    fn the_audit_measures_the_energy_of_sp_mcf_to_the_bit() {
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
        let audit = schedule.audit(ctx.graph(), &flows, &power);
        assert_eq!(audit.deadline_misses, 0);
        assert_energy_bits(&audit, schedule, &power);
    }

    #[test]
    fn the_audit_measures_the_energy_of_random_schedule_to_the_bit() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = UniformWorkload::paper_defaults(25, 9)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = Dcfsr::default().solve(&mut ctx, &flows, &power).unwrap();
        let schedule = solution.schedule.as_ref().unwrap();
        let audit = schedule.audit(ctx.graph(), &flows, &power);
        assert_eq!(audit.deadline_misses, 0);
        assert_energy_bits(&audit, schedule, &power);
        assert!(audit.energy.total() >= solution.lower_bound.unwrap() - 1e-6);
    }

    #[test]
    fn misses_among_excludes_rejected_flows() {
        // Two flows, but only flow 0 is scheduled (flow 1 was "rejected").
        let topo = builders::line(3);
        let (src, dst) = (topo.hosts()[0], topo.hosts()[2]);
        let flows =
            FlowSet::from_tuples([(src, dst, 0.0, 4.0, 8.0), (src, dst, 0.0, 4.0, 8.0)]).unwrap();
        let path = topo.csr().shortest_path(src, dst).unwrap();
        let schedule = Schedule::new(
            vec![FlowSchedule::uniform(
                0,
                path,
                RateProfile::constant(0.0, 4.0, 2.0),
            )],
            (0.0, 4.0),
        );
        let audit = schedule.audit(&topo.csr(), &flows, &x2(10.0));
        // The audit counts the unscheduled flow as a miss ...
        assert_eq!(audit.deadline_misses, 1);
        // ... the admission-aware count does not, but still reports it.
        assert_eq!(audit.misses_among(&[true, false]), 0);
        assert_eq!(audit.flows.len(), 2);
        assert_eq!(audit.flows[1].delivered, 0.0);
        // An admitted flow that misses still counts.
        assert_eq!(audit.misses_among(&[true, true]), 1);
    }

    #[test]
    #[should_panic(expected = "one admission decision per flow")]
    fn misses_among_rejects_a_short_mask() {
        let (topo, flows, _) = simple_instance();
        let schedule = Schedule::new(vec![], (0.0, 4.0));
        schedule
            .audit(&topo.csr(), &flows, &x2(10.0))
            .misses_among(&[]);
    }

    #[test]
    fn deadline_miss_is_detected() {
        // A schedule that only delivers half the data in time.
        let topo = builders::line(3);
        let (flows, schedule) =
            one_flow(&topo, (0.0, 4.0, 8.0), RateProfile::constant(0.0, 2.0, 2.0));
        let audit = schedule.audit(&topo.csr(), &flows, &x2(10.0));
        assert_eq!(audit.deadline_misses, 1);
        assert!(!audit.all_good());
        let f = audit.flows[0];
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
            let (flows, schedule) = one_flow(
                &topo,
                (0.0, 2.0, 2.0 * rate),
                RateProfile::constant(0.0, 2.0, rate),
            );
            let graph = topo.csr();
            let audit = schedule.audit(&graph, &flows, &power);
            let context = format!("rate {rate} on capacity {capacity}, power cap {power_cap}");
            assert_eq!(
                audit.capacity_violations,
                if violates { 2 } else { 0 },
                "{context}"
            );
            assert_eq!(
                schedule.verify_on(&graph, &flows, &power).is_err(),
                violates,
                "{context}"
            );
            assert_eq!(audit.max_utilization > 1.0, rate > capacity, "{context}");
            assert_eq!(audit.deadline_misses, 0, "{context}");
            let excess = schedule.max_capacity_excess(&topo.network, &power);
            assert_eq!(excess > 0.0, rate > capacity, "{context}");
        }
    }

    #[test]
    fn an_overlap_narrower_than_the_old_dedup_is_still_a_violation() {
        // Two flows hand a full link over 5e-13 s late: the aggregate has a
        // segment at twice the capacity. The audit reads it off
        // `segments()`; the global sweep merged the two breakpoints and saw
        // none.
        let topo = builders::line_with_capacity(3, 10.0);
        let power = x2(10.0);
        let (src, dst) = (topo.hosts()[0], topo.hosts()[2]);
        let flows =
            FlowSet::from_tuples([(src, dst, 0.0, 2.0, 10.0), (src, dst, 0.0, 2.0, 10.0)]).unwrap();
        let path = topo.csr().shortest_path(src, dst).unwrap();
        let entry = |flow, from, to| {
            FlowSchedule::uniform(flow, path.clone(), RateProfile::constant(from, to, 10.0))
        };
        let schedule = Schedule::new(
            vec![entry(0, 0.0, 1.0 + 5e-13), entry(1, 1.0, 2.0)],
            (0.0, 2.0),
        );
        let graph = topo.csr();
        assert!(schedule.verify_on(&graph, &flows, &power).is_err());
        let audit = schedule.audit(&graph, &flows, &power);
        assert_eq!((audit.capacity_violations, audit.max_utilization), (2, 2.0));
        assert_eq!(audit.deadline_misses, 0);
        let swept = audit_reference(&graph, &flows, &schedule, &power);
        assert_eq!((swept.capacity_violations, swept.max_utilization), (0, 1.0));
    }

    #[test]
    fn a_flow_id_listed_twice_is_judged_by_its_first_entry_everywhere() {
        let topo = builders::line(3);
        let power = x2(10.0);
        let (src, dst) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(src, dst, 0.0, 4.0, 8.0)]).unwrap();
        let path = topo.csr().shortest_path(src, dst).unwrap();
        let entry =
            |until| FlowSchedule::uniform(0, path.clone(), RateProfile::constant(0.0, until, 2.0));
        let graph = topo.csr();
        for (first, delivers) in [(4.0, true), (2.0, false)] {
            let schedule = Schedule::new(vec![entry(first), entry(6.0 - first)], (0.0, 4.0));
            let judged = schedule.flow_schedule(0).unwrap();
            assert_eq!(judged.profile.volume() >= 8.0, delivers);
            assert_eq!(schedule.verify_on(&graph, &flows, &power).is_ok(), delivers);
            let audit = schedule.audit(&graph, &flows, &power);
            assert_eq!(audit.deadline_misses == 0, delivers);
            assert_eq!(audit.flows[0].delivered, judged.profile.volume());
            // Both entries load the links they name.
            assert!(audit
                .links
                .iter()
                .all(|l| l.peak_rate == 4.0 && l.volume == 12.0));
        }
    }

    /// The audit and the reference of one schedule: counts, peaks and which
    /// flows complete are equal, every sum is within 1e-12 relative (the
    /// walk adds a profile's own segments where the sweep added the global
    /// windows).
    fn assert_matches_reference(
        context: &str,
        graph: &GraphCsr,
        flows: &FlowSet,
        schedule: &Schedule,
        power: &PowerFunction,
    ) -> Audit {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        let new = schedule.audit(graph, flows, power);
        let old = audit_reference(graph, flows, schedule, power);
        assert_eq!(new.deadline_misses, old.deadline_misses, "{context}");
        assert_eq!(
            new.capacity_violations, old.capacity_violations,
            "{context}"
        );
        assert_eq!(new.max_utilization, old.max_utilization, "{context}");
        assert_eq!(new.capacity_excess, old.capacity_excess, "{context}");
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
            assert_eq!((n.flow, n.deadline), (o.flow, o.deadline));
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
        let (mut missing, mut overloaded, mut clean) = (0, 0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (flows, schedule) = random_schedule(&mut rng, &topo, &graph);
            let context = format!("hand-built, seed {seed}");
            let audit = assert_matches_reference(&context, &graph, &flows, &schedule, &power);
            assert_energy_bits(&audit, &schedule, &power);
            missing += usize::from(audit.deadline_misses > 0);
            overloaded += usize::from(audit.capacity_violations > 0);
            clean += usize::from(audit.flows.iter().any(FlowOutcome::deadline_met));
        }
        assert!(
            missing > 20 && overloaded > 20 && clean > 20,
            "{missing} {overloaded} {clean}"
        );

        // Schedules the online engine appended window by window, under link
        // churn: a re-routed flow keeps the links of its earlier paths.
        // `resolve` re-solves with `sp-mcf`, which keeps the test cheap.
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
                    .algorithm("sp-mcf")
                    .policy(policy)
                    .seed(seed)
                    .build()
                    .unwrap()
                    .run_with_events(&mut ctx, &flows, &power, &events)
                    .unwrap();
                let schedule = &outcome.schedule;
                let context = format!("{policy} under churn, seed {seed}");
                let audit =
                    assert_matches_reference(&context, ctx.graph(), &flows, schedule, &power);
                assert_energy_bits(&audit, schedule, &power);
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
        let flows = FlowSet::from_tuples([
            (topo.hosts()[0], topo.hosts()[3], 0.0, 6.0, 6.0),
            (topo.hosts()[1], topo.hosts()[2], 1.0, 3.0, 4.0),
        ])
        .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let solution = RoutedMcf::shortest_path()
            .solve(&mut ctx, &flows, &power)
            .unwrap();
        let audit = solution
            .schedule
            .as_ref()
            .unwrap()
            .audit(ctx.graph(), &flows, &power);
        assert_eq!(audit.deadline_misses, 0);
        assert!(audit.flows.iter().all(FlowOutcome::deadline_met));
    }

    #[test]
    fn empty_schedule_produces_empty_audit() {
        let topo = builders::line(2);
        let flows = FlowSet::from_flows(vec![]).unwrap();
        let schedule = Schedule::new(vec![], (0.0, 1.0));
        let audit = schedule.audit(&topo.csr(), &flows, &x2(10.0));
        assert!(audit.all_good());
        assert!(audit.links.is_empty());
        assert_eq!(audit.energy.total(), 0.0);
    }
}
