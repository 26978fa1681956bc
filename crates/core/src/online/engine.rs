//! The event-driven core of the online subsystem.
//!
//! [`OnlineEngine`] executes a flow set under online arrivals by draining an
//! event queue: **arrival** events (groups of equal release times) and
//! **topology** events, both fixed up front, plus the one **predicted
//! instant** of the current rate plan — the earliest flow completion or
//! deadline watchdog its rates imply. At every event batch the
//! engine retires served and expired flows, admits new arrivals through the
//! [`AdmissionRule`], asks the [`OnlinePolicy`] what to do, and commits the
//! resulting rates — either a policy-computed [`RatePlan`] or the slice of
//! a full residual re-solve — up to the next queued event, appending them
//! to that flow's [`FlowSchedule`] in the schedule the run returns. The
//! per-flow state all of this reads and writes is the shared
//! [`InFlightLedger`](super::ledger).
//!
//! A commit costs what it changes. The flows a plan re-commits at an
//! unchanged rate along an unchanged path — under `edf`, all but the one
//! that arrived or left — have the new window appended to their stored
//! profile in place, where it extends the last piece
//! ([`RateProfile::append_rate`], which also states the tolerance); only a
//! first commit or a changed route builds a slice. The engine owns the
//! run's route table ([`PathCache`]) and lends it to the policy, whose plan
//! names each route by a `Copy` handle ([`RateAssignment::route`]). A flow
//! whose stored schedule was found uniform along a route is extended
//! without comparing paths for as long as the plan names that same handle;
//! a re-solve slice, a route change or a topology change (which starts a
//! new generation of handles) sends it back to the comparison.
//!
//! Every decision supersedes whatever the previous plan predicted, and only
//! the earliest prediction of a plan can ever be popped, so the queue keeps
//! that one instant beside the fixed events and each batch clears it: the
//! queue always reflects only the *current* rate plan. With a policy that
//! always resolves ([`super::ResolvePolicy`]) nothing is ever predicted,
//! and the engine replays the pre-split `OnlineScheduler` loop exactly,
//! which is what keeps the `resolve` policy bit-identical to it.
//!
//! Engines are assembled through the [`EngineConfig`] builder
//! ([`OnlineEngine::builder`]), which also switches **warm starts**
//! ([`EngineConfig::warm_start`]): the context's Frank–Wolfe scratch keeps
//! its last solve's path mixtures and seeds each carried-over commodity
//! from its own, unless its cached paths touch links dirtied by committed
//! rates since. No measured throughput gain: on the `online_resolve`
//! instances every interval solve stops after one iteration either way,
//! schedules are bit-identical, and warm ran slower than cold in 5 of 6
//! seed-rounds (EXPERIMENTS.md, "Online event loop"); see ROADMAP item 8.

use super::fractionally_feasible;
use super::ledger::InFlightLedger;
use super::policy::{
    create_policy, OnlinePolicy, PathCache, PolicyAction, RateAssignment, RatePlan, Route,
};
use crate::algorithm::{Algorithm, AlgorithmRegistry};
use crate::context::SolverContext;
use crate::error::SolveError;
use crate::schedule::{FlowSchedule, Schedule};
use dcn_flow::{Flow, FlowId, FlowSet};
use dcn_power::{PowerFunction, RateProfile};
use dcn_topology::{LinkId, TopologyEvent};
use std::collections::BTreeSet;

/// How the online loop decides whether a newly arrived flow is accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionRule {
    /// Every arrival is admitted. Under overload the re-solves may fail or
    /// flows may run out of time; the [`OnlineReport`] records the misses.
    #[default]
    AdmitAll,
    /// An arrival is admitted only if the fractional relaxation of the
    /// candidate residual instance (in-flight residuals + the candidate)
    /// fits under every link capacity — the LP-relaxation feasibility
    /// check of [`fractionally_feasible`].
    RejectInfeasible,
}

impl AdmissionRule {
    /// A short stable name for artifacts and tables (`admit-all` /
    /// `reject-infeasible`).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionRule::AdmitAll => "admit-all",
            AdmissionRule::RejectInfeasible => "reject-infeasible",
        }
    }

    /// The inverse of [`AdmissionRule::name`]: the rule called `name`, or
    /// `None` for any other name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "admit-all" => Some(AdmissionRule::AdmitAll),
            "reject-infeasible" => Some(AdmissionRule::RejectInfeasible),
            _ => None,
        }
    }

    /// Evaluates the rule for one candidate arrival: `AdmitAll` accepts
    /// unconditionally, `RejectInfeasible` probes the fractional
    /// feasibility of the candidate residual instance.
    ///
    /// # Errors
    ///
    /// Propagates [`fractionally_feasible`] errors.
    pub fn evaluate(
        self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        candidate: FlowId,
    ) -> Result<bool, SolveError> {
        match self {
            AdmissionRule::AdmitAll => Ok(true),
            AdmissionRule::RejectInfeasible => {
                let (candidate_set, _) = world.residual(Some(candidate))?;
                fractionally_feasible(ctx, &candidate_set, power)
            }
        }
    }
}

/// The admit/deliver outcome of one flow under the online loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDecision {
    /// The flow.
    pub flow: FlowId,
    /// Whether the admission rule accepted the flow.
    pub admitted: bool,
    /// Volume committed for the flow over the whole run.
    pub delivered: f64,
    /// Whether an *admitted* flow failed to receive its full volume by its
    /// deadline (rejected flows are never counted as misses).
    pub missed: bool,
    /// Whether the miss is attributed to a topology failure: the flow was
    /// stranded (endpoints disconnected) by a
    /// [`TopologyEvent::LinkDown`] while in flight, or a failure severed
    /// the path its committed rates were riding. Always `false` when
    /// `missed` is `false`.
    pub failure_missed: bool,
}

/// What the online loop did: per-flow decisions, event/re-solve counters
/// and the energy of the committed schedule.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// One decision per flow of the instance, in flow-id order.
    pub decisions: Vec<FlowDecision>,
    /// Number of event batches processed (arrival groups and topology
    /// instants, plus the predicted instants of rate-assigning policies).
    pub events: usize,
    /// Number of residual re-solves performed (for the `resolve` policy:
    /// one per event with a non-empty residual instance).
    pub resolves: usize,
    /// Number of re-solves that returned an error (the loop then keeps the
    /// previous commitments and the affected flows may miss).
    pub solve_failures: usize,
    /// Energy of the committed online schedule (the paper's objective).
    pub online_energy: f64,
    /// Number of [`TopologyEvent`]s that actually changed link state
    /// during the run (duplicate failures/recoveries are no-ops and not
    /// counted).
    pub topology_events: usize,
}

impl OnlineReport {
    /// Number of admitted flows.
    pub fn admitted(&self) -> usize {
        self.decisions.iter().filter(|d| d.admitted).count()
    }

    /// Number of rejected flows.
    pub fn rejected(&self) -> usize {
        self.decisions.iter().filter(|d| !d.admitted).count()
    }

    /// Number of admitted flows that missed their deadline.
    pub fn missed(&self) -> usize {
        self.decisions.iter().filter(|d| d.missed).count()
    }

    /// Number of misses attributed to topology failures (a subset of
    /// [`OnlineReport::missed`]; see [`FlowDecision::failure_missed`]).
    pub fn failure_missed(&self) -> usize {
        self.decisions.iter().filter(|d| d.failure_missed).count()
    }

    /// Per-flow admission mask, indexed by flow id (the shape
    /// [`Audit::misses_among`](crate::Audit::misses_among) consumes).
    pub fn admitted_mask(&self) -> Vec<bool> {
        self.decisions.iter().map(|d| d.admitted).collect()
    }
}

/// The result of one online run: the committed executable schedule and
/// the report.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Everything the run committed over the instance horizon, one entry
    /// per flow (with the path of the flow's *last* decision).
    pub schedule: Schedule,
    /// What the loop decided and measured.
    pub report: OnlineReport,
}

/// A read-only view of a driver's [`InFlightLedger`] at one instant, handed
/// to [`OnlinePolicy::on_event`] and to [`AdmissionRule::evaluate`]: which
/// flows are in flight (by id, or by deadline without a sort), how much
/// each has received, and the residual-instance constructor the `resolve`
/// path and the admission probe share.
#[derive(Debug, Clone, Copy)]
pub struct WorldView<'a> {
    ledger: &'a InFlightLedger,
    now: f64,
}

impl<'a> WorldView<'a> {
    /// Views `ledger` at clock `now`.
    pub fn new(ledger: &'a InFlightLedger, now: f64) -> Self {
        Self { ledger, now }
    }

    /// The revealed flow `id` (endpoints, span, volume).
    ///
    /// # Panics
    ///
    /// Panics when the ledger never saw `id`.
    pub fn flow(&self, id: FlowId) -> &'a Flow {
        &self.ledger.entries()[id].flow
    }

    /// The driver clock: the time of the event batch being processed.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The in-flight flows, in ascending id order.
    pub fn in_flight(&self) -> impl Iterator<Item = FlowId> + 'a {
        self.ledger.live()
    }

    /// The in-flight flows by deadline, ties by id
    /// ([`InFlightLedger::live_by_deadline`]): the ledger keeps this order
    /// as flows come and go, so reading it costs no sort.
    pub fn in_flight_by_deadline(&self) -> &'a [FlowId] {
        self.ledger.live_by_deadline()
    }

    /// Volume `flow` still has to receive (never negative).
    pub fn remaining(&self, flow: FlowId) -> f64 {
        let entry = &self.ledger.entries()[flow];
        (entry.flow.volume - entry.delivered).max(0.0)
    }

    /// [`InFlightLedger::residual`] at the view's clock.
    ///
    /// # Errors
    ///
    /// Propagates [`InFlightLedger::residual`] errors.
    pub fn residual(&self, extra: Option<FlowId>) -> Result<(FlowSet, Vec<FlowId>), SolveError> {
        self.ledger.residual(self.now, extra)
    }
}

/// One event batch: everything fixed up front that falls due at the same
/// instant, split by kind.
#[derive(Debug)]
struct OnlineEvent {
    /// The engine clock of the batch.
    time: f64,
    /// Zero-based index of the batch (drives the re-solve seed schedule:
    /// batch `k` re-seeds the wrapped algorithm with `seed + k`).
    index: usize,
    /// Flows released at this instant, ids ascending.
    arrivals: Vec<FlowId>,
    /// Topology events that take effect at this instant, in stream order.
    /// They are applied to the context *before* the policy decides, so
    /// routing decisions already reflect the new link state.
    topology: Vec<TopologyEvent>,
}

/// An event fixed when the run starts. The derived order is the order
/// within one instant: topology changes first (so the batch's decisions
/// already see the new link state), then arrivals, each kind by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum QueuedKind {
    /// Index into the run's topology-event stream.
    Topology { index: usize },
    /// Index into the precomputed arrival groups.
    Arrival { group: usize },
}

/// One queued event.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: f64,
    kind: QueuedKind,
}

/// The event queue, in two halves. Arrival and topology events are all
/// known when the run starts and are never invalidated: `fixed` holds them
/// sorted by `(time, kind)` and `next_fixed` is the first one not popped
/// yet. The current plan's completions and deadline watchdogs are
/// predictions that the next batch supersedes, so only their earliest
/// instant can ever be popped: `predicted` is that instant, and each batch
/// clears it.
#[derive(Debug)]
struct EventQueue {
    fixed: Vec<QueuedEvent>,
    next_fixed: usize,
    predicted: Option<f64>,
}

impl EventQueue {
    fn new(fixed: impl Iterator<Item = (f64, QueuedKind)>) -> Self {
        let mut fixed: Vec<_> = fixed
            .map(|(time, kind)| QueuedEvent { time, kind })
            .collect();
        fixed.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.kind.cmp(&b.kind)));
        Self {
            fixed,
            next_fixed: 0,
            predicted: None,
        }
    }

    /// Records a decision point the current plan predicts at `time`.
    fn predict(&mut self, time: f64) {
        self.predicted = Some(earliest(self.predicted, time));
    }

    /// The time of the next event.
    fn peek_valid_time(&self) -> Option<f64> {
        let fixed = self.fixed.get(self.next_fixed);
        fixed.map_or(self.predicted, |e| Some(earliest(self.predicted, e.time)))
    }

    /// Pops the earliest instant: every fixed event due then, in `(time,
    /// kind)` order, and the predicted instant, which the batch's decision
    /// replaces whether it is due or not.
    fn pop_batch(&mut self) -> Option<(f64, Vec<QueuedEvent>)> {
        let time = self.peek_valid_time()?;
        let due = self.fixed[self.next_fixed..]
            .iter()
            .take_while(|e| e.time == time);
        let batch: Vec<QueuedEvent> = due.copied().collect();
        self.next_fixed += batch.len();
        self.predicted = None;
        Some((time, batch))
    }
}

/// The earlier of `time` and `current` (when set), by
/// [`f64::total_cmp`]; a tie keeps `current`.
fn earliest(current: Option<f64>, time: f64) -> f64 {
    match current {
        Some(current) if current.total_cmp(&time).is_le() => current,
        _ => time,
    }
}

/// The wrapped re-solve backend of an [`EngineConfig`]: built by
/// [`AlgorithmRegistry::create`] name or injected as a ready-made instance.
#[derive(Debug)]
enum AlgorithmChoice {
    Name(String),
    Instance(Box<dyn Algorithm>),
}

/// The per-event decision rule of an [`EngineConfig`], by name or instance.
#[derive(Debug)]
enum PolicyChoice {
    Name(String),
    Instance(Box<dyn OnlinePolicy>),
}

/// The builder assembling an [`OnlineEngine`]: which algorithm re-solves
/// residual instances, which [`OnlinePolicy`] decides per event, which
/// [`AdmissionRule`] gates arrivals, and whether re-solves are warm-started
/// (see the [module docs](self)).
///
/// Obtained from [`OnlineEngine::builder`]; every knob has a safe default
/// (`dcfsr` re-solves, `resolve` policy, admit-all, no warm starts,
/// seed 0):
///
/// ```
/// use dcn_core::online::OnlineEngine;
///
/// # fn main() -> Result<(), dcn_core::SolveError> {
/// let mut engine = OnlineEngine::builder()
///     .policy("hybrid")
///     .warm_start(true)
///     .seed(7)
///     .build()?;
/// assert_eq!(engine.algorithm().name(), "dcfsr");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EngineConfig {
    algorithm: AlgorithmChoice,
    policy: PolicyChoice,
    admission: AdmissionRule,
    warm_start: bool,
    seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            algorithm: AlgorithmChoice::Name("dcfsr".into()),
            policy: PolicyChoice::Name("resolve".into()),
            admission: AdmissionRule::default(),
            warm_start: false,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Selects the re-solve algorithm by [`AlgorithmRegistry::create`] name
    /// (default `"dcfsr"`).
    pub fn algorithm(mut self, name: impl Into<String>) -> Self {
        self.algorithm = AlgorithmChoice::Name(name.into());
        self
    }

    /// Injects a ready-made re-solve algorithm.
    pub fn algorithm_instance(mut self, algorithm: Box<dyn Algorithm>) -> Self {
        self.algorithm = AlgorithmChoice::Instance(algorithm);
        self
    }

    /// Selects the per-event policy by [`create_policy`] name (default
    /// `"resolve"`).
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policy = PolicyChoice::Name(name.into());
        self
    }

    /// Injects a ready-made per-event policy.
    pub fn policy_instance(mut self, policy: Box<dyn OnlinePolicy>) -> Self {
        self.policy = PolicyChoice::Instance(policy);
        self
    }

    /// Sets the admission rule (default [`AdmissionRule::AdmitAll`]).
    pub fn admission(mut self, admission: AdmissionRule) -> Self {
        self.admission = admission;
        self
    }

    /// Enables warm-started Frank–Wolfe re-solves (default off): the
    /// context scratch seeds each re-solve from the previous solve's path
    /// mixtures, re-routing only commodities whose cached paths touch links
    /// dirtied in between — a different start, not a faster loop.
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Sets the seed handed to [`OnlineEngine::set_seed`] on build
    /// (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownAlgorithm`] / [`SolveError::UnknownPolicy`] for
    /// a name [`AlgorithmRegistry::create`] / [`create_policy`] does not
    /// know.
    pub fn build(self) -> Result<OnlineEngine, SolveError> {
        let algorithm = match self.algorithm {
            AlgorithmChoice::Name(name) => AlgorithmRegistry::with_defaults().create(&name)?,
            AlgorithmChoice::Instance(instance) => instance,
        };
        let policy = match self.policy {
            PolicyChoice::Name(name) => create_policy(&name)?,
            PolicyChoice::Instance(policy) => policy,
        };
        let mut engine = OnlineEngine {
            algorithm,
            policy,
            admission: self.admission,
            seed: 0,
            warm_start: self.warm_start,
        };
        engine.set_seed(self.seed);
        Ok(engine)
    }
}

/// The event-driven online driver: one wrapped [`Algorithm`] (the re-solve
/// backend), one [`OnlinePolicy`] (the per-event decision rule) and one
/// [`AdmissionRule`], executing a flow set under online arrivals (see the
/// [module docs](self)). Assembled through [`OnlineEngine::builder`].
#[derive(Debug)]
pub struct OnlineEngine {
    algorithm: Box<dyn Algorithm>,
    policy: Box<dyn OnlinePolicy>,
    admission: AdmissionRule,
    seed: u64,
    warm_start: bool,
}

impl OnlineEngine {
    /// Starts an [`EngineConfig`] with the default knobs.
    pub fn builder() -> EngineConfig {
        EngineConfig::default()
    }

    /// Re-seeds the engine's re-solves. Event batch `k` re-seeds the
    /// wrapped algorithm with `seed + k`, so the first batch — and
    /// therefore the full-knowledge run with a single arrival event — uses
    /// exactly `seed`, matching an offline solve seeded the same way.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The wrapped re-solve algorithm.
    pub fn algorithm(&self) -> &dyn Algorithm {
        self.algorithm.as_ref()
    }

    /// Executes the instance online: reveals flows at their release times,
    /// drains the event queue, applies the policy's decision at every
    /// batch and appends each committed slice to its flow's schedule.
    ///
    /// A re-solve *error* (e.g. an infeasible residual under `AdmitAll`
    /// overload) is not fatal: the loop counts it in
    /// [`OnlineReport::solve_failures`], keeps the commitments made so far
    /// and carries on — the affected flows are recorded as missed.
    ///
    /// # Errors
    ///
    /// * [`SolveError::EmptyFlowSet`] for an empty instance (there is no
    ///   event to run).
    /// * [`SolveError::InvalidInput`] for endpoints outside the network,
    ///   when the wrapped algorithm is bound-only (`lb`) and produces no
    ///   schedule to commit, or when the policy floods the queue without
    ///   converging.
    /// * Errors of [`OnlinePolicy::on_event`] / [`AdmissionRule::evaluate`].
    pub fn run(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<OnlineOutcome, SolveError> {
        self.run_with_events(ctx, flows, power, &[])
    }

    /// [`OnlineEngine::run`] with a dynamic topology: the typed
    /// failure/recovery stream is merged into the event queue and each
    /// event is applied to the context at its effect time, *before* the
    /// policy sees the batch. Because topology events sit in the queue
    /// from the start, every commit window is automatically bounded by
    /// the next one — no committed transmission ever crosses a failure on
    /// a stale path.
    ///
    /// On a [`TopologyEvent::LinkDown`] the in-flight flows are triaged:
    /// flows whose endpoints are disconnected are *stranded* (they leave
    /// the live set, revive on a reconnecting
    /// [`TopologyEvent::LinkUp`], and a final miss is attributed to the
    /// failure — [`FlowDecision::failure_missed`]); still-connected flows
    /// whose committed rates rode the failed link are re-routed by the
    /// policy machinery at the same batch, on the already-updated graph.
    ///
    /// The run leaves the context's topology exactly as it found it:
    /// whatever net link-state change the stream produced is rolled back
    /// before returning, so follow-up solves on the same context (a
    /// clairvoyant reference solve, say) see the pristine fabric.
    ///
    /// # Errors
    ///
    /// Everything [`OnlineEngine::run`] returns, plus
    /// [`SolveError::InvalidInput`] for an event with a non-finite time or
    /// an out-of-range link id.
    pub fn run_with_events(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
        events: &[TopologyEvent],
    ) -> Result<OnlineOutcome, SolveError> {
        ctx.validate_flow_shape(flows)?;
        for event in events {
            if !event.time().is_finite() {
                return Err(SolveError::InvalidInput {
                    reason: format!("topology event time must be finite, got {event:?}"),
                });
            }
            if event.link().index() >= ctx.graph().link_count() {
                return Err(SolveError::InvalidInput {
                    reason: format!(
                        "topology event names link {} but the network has {} links",
                        event.link(),
                        ctx.graph().link_count()
                    ),
                });
            }
        }
        // Snapshot the entry link state so the net effect of the stream
        // can be rolled back on return, whether the run succeeds or fails.
        let initial_down: BTreeSet<LinkId> = ctx.graph().down_links().collect();
        // The engine owns the scratch's warm flag for the duration of the
        // run (disabling also drops any stale cache from a previous run).
        ctx.set_warm_start(self.warm_start);
        let outcome = self.drive_events(ctx, flows, power, events);

        // Roll the context's topology back to its entry state on success
        // and on error alike: restore every link the stream left down,
        // re-fail every link it left up.
        let horizon_end = flows.horizon().1;
        let final_down: Vec<LinkId> = ctx.graph().down_links().collect();
        for link in final_down {
            if !initial_down.contains(&link) {
                ctx.apply_topology_event(TopologyEvent::LinkUp {
                    time: horizon_end,
                    link,
                });
            }
        }
        for &link in &initial_down {
            ctx.apply_topology_event(TopologyEvent::LinkDown {
                time: horizon_end,
                link,
            });
        }
        outcome
    }

    /// The event loop of [`OnlineEngine::run_with_events`], on validated
    /// events. Returns early on errors; the caller rolls the topology back
    /// on either outcome.
    fn drive_events(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
        events: &[TopologyEvent],
    ) -> Result<OnlineOutcome, SolveError> {
        let mut run = EngineRun::new(self, ctx, flows, power, events);
        while let Some(batch) = run.queue.pop_batch() {
            run.step(batch)?;
        }
        Ok(run.finish(flows.horizon()))
    }
}

/// The typed error for a bound-only backend that produces no schedule to
/// commit.
fn no_schedule_error(name: &str) -> SolveError {
    SolveError::InvalidInput {
        reason: format!("online engine wraps {name:?}, which produces no schedule to commit"),
    }
}

/// The state of one [`OnlineEngine::run_with_events`] call: the ledger, the
/// event queue, the schedule committed so far and the counters, advanced
/// one event batch at a time by [`EngineRun::step`].
struct EngineRun<'r, 'net> {
    engine: &'r mut OnlineEngine,
    ctx: &'r mut SolverContext<'net>,
    power: &'r PowerFunction,
    events: &'r [TopologyEvent],
    groups: Vec<(f64, Vec<FlowId>)>,
    /// A plan whose predicted instant does not move the clock (a rate so
    /// high that `remaining / rate` vanishes against `now`) would spin
    /// forever; built-in policies need at most a couple of batches per flow
    /// (one completion or one deadline watchdog).
    max_batches: usize,
    queue: EventQueue,
    ledger: InFlightLedger,
    /// Per-flow dedup stamps for rate plans, allocated once:
    /// `stamp[f] == generation` marks `f` as seen in the current plan.
    stamp: Vec<u64>,
    generation: u64,
    /// The schedule committed so far: one entry per flow, in
    /// first-commitment order so a single-event run reproduces the inner
    /// schedule's layout exactly. `slot[f]` is flow `f`'s entry.
    schedules: Vec<FlowSchedule>,
    slot: Vec<Option<usize>>,
    /// Per flow id: the links its *latest* committed slice transmits on —
    /// the plan a `LinkDown` severs.
    latest_links: Vec<Vec<LinkId>>,
    /// The run's route table, lent to the policy at every event.
    routes: PathCache,
    /// Per flow id: the route its stored schedule was last found uniform
    /// along. Set only by a successful [`FlowSchedule::append_uniform`]
    /// and cleared by every [`EngineRun::push_commit`], so a plan naming
    /// this handle extends the schedule without comparing paths.
    uniform_route: Vec<Option<Route>>,
    /// Links whose committed rates changed since the last re-solve; fed
    /// into the warm scratch as the dirty set before the next one. Only
    /// recorded under warm starts, each link once (`dirty_mark`).
    dirty: Vec<LinkId>,
    dirty_mark: Vec<bool>,
    batches: usize,
    resolves: usize,
    solve_failures: usize,
    topology_applied: usize,
}

impl<'r, 'net> EngineRun<'r, 'net> {
    fn new(
        engine: &'r mut OnlineEngine,
        ctx: &'r mut SolverContext<'net>,
        flows: &FlowSet,
        power: &'r PowerFunction,
        events: &'r [TopologyEvent],
    ) -> Self {
        let groups = arrival_events(flows);
        let arrivals = (groups.iter().enumerate())
            .map(|(group, (time, _))| (*time, QueuedKind::Arrival { group }));
        let topology = (events.iter().enumerate())
            .map(|(index, event)| (event.time(), QueuedKind::Topology { index }));
        let queue = EventQueue::new(arrivals.chain(topology));
        let mut ledger = InFlightLedger::new();
        for flow in flows.iter() {
            let id = ledger.reveal(flow.clone());
            debug_assert_eq!(id, flow.id, "validated flow sets have dense ids");
        }
        let link_count = ctx.graph().link_count();
        Self {
            engine,
            ctx,
            power,
            events,
            max_batches: groups.len() + events.len() + 16 * flows.len() + 16,
            groups,
            queue,
            ledger,
            stamp: vec![0; flows.len()],
            generation: 0,
            schedules: Vec::new(),
            slot: vec![None; flows.len()],
            latest_links: vec![Vec::new(); flows.len()],
            routes: PathCache::new(),
            uniform_route: vec![None; flows.len()],
            dirty: Vec::new(),
            dirty_mark: vec![false; link_count],
            batches: 0,
            resolves: 0,
            solve_failures: 0,
            topology_applied: 0,
        }
    }

    /// Processes one event batch: apply its topology changes, retire,
    /// admit the arrivals, ask the policy, commit its decision up to the
    /// next queued event.
    fn step(&mut self, (now, entries): (f64, Vec<QueuedEvent>)) -> Result<(), SolveError> {
        let index = self.batches;
        self.batches += 1;
        if self.batches > self.max_batches {
            return Err(SolveError::InvalidInput {
                reason: format!(
                    "online policy {:?} did not converge: over {} event batches for {} flows",
                    self.engine.policy.name(),
                    self.max_batches,
                    self.ledger.entries().len()
                ),
            });
        }
        let mut event = OnlineEvent {
            time: now,
            index,
            arrivals: Vec::new(),
            topology: Vec::new(),
        };
        for entry in entries {
            match entry.kind {
                QueuedKind::Topology { index } => event.topology.push(self.events[index]),
                QueuedKind::Arrival { group } => {
                    event.arrivals.extend(self.groups[group].1.iter().copied());
                }
            }
        }
        event.arrivals.sort_unstable();

        // Topology changes go first: the policy, the admission probe and
        // the re-solve below must all see the new link state.
        self.apply_topology(&event);
        self.ledger.retire(now);
        self.admit_arrivals(&event)?;
        let world = WorldView::new(&self.ledger, now);
        let routes = &mut self.routes;
        routes.sync(self.ctx.graph());
        let action = self
            .engine
            .policy
            .on_event(self.ctx, self.power, &world, routes)?;
        match action {
            PolicyAction::Resolve => self.commit_resolve(&event),
            PolicyAction::Assign(plan) => {
                self.commit_plan(now, plan);
                Ok(())
            }
        }
    }

    /// Applies the batch's topology events to the context and re-triages
    /// the ledger when the link state actually changed.
    fn apply_topology(&mut self, event: &OnlineEvent) {
        let mut changed = false;
        for &topo in &event.topology {
            // A severed committed path means the plan the flow was riding
            // is gone at this instant (the commit window ends here);
            // attribute a later miss to the failure.
            if topo.is_down() && self.ctx.graph().is_link_up(topo.link()) {
                let riding: Vec<FlowId> = self
                    .ledger
                    .live()
                    .filter(|&id| self.latest_links[id].contains(&topo.link()))
                    .collect();
                for id in riding {
                    self.ledger.mark_failure_touched(id);
                }
            }
            if self.ctx.apply_topology_event(topo) {
                changed = true;
                self.topology_applied += 1;
            }
        }
        if changed {
            let graph = self.ctx.graph();
            self.ledger
                .triage(event.time, |f| graph.shortest_path(f.src, f.dst).is_some());
        }
    }

    /// Admission of the batch's arrivals, in flow-id order.
    fn admit_arrivals(&mut self, event: &OnlineEvent) -> Result<(), SolveError> {
        for &id in &event.arrivals {
            if self.ctx.graph().down_link_count() > 0 {
                let flow = &self.ledger.entries()[id].flow;
                if self.ctx.graph().shortest_path(flow.src, flow.dst).is_none() {
                    // Disconnected by the current failures: under
                    // admit-all the flow is accepted and immediately
                    // stranded (it revives if a recovery reconnects it in
                    // time); reject-infeasible turns it away — a
                    // commodity with no route is never feasible.
                    if matches!(self.engine.admission, AdmissionRule::AdmitAll) {
                        self.ledger.admit(id);
                        self.ledger.strand(id);
                    }
                    continue;
                }
            }
            let world = WorldView::new(&self.ledger, event.time);
            let admit = self
                .engine
                .admission
                .evaluate(self.ctx, self.power, &world, id)?;
            if admit {
                self.ledger.admit(id);
            }
        }
        Ok(())
    }

    /// Re-solves the residual instance with the wrapped algorithm and
    /// commits the slice of the fresh schedule up to the next event (or all
    /// of it after the last event). A failing solve is counted, not fatal.
    fn commit_resolve(&mut self, event: &OnlineEvent) -> Result<(), SolveError> {
        let (residual, map) = match self.ledger.residual(event.time, None) {
            Ok(pair) => pair,
            Err(SolveError::EmptyFlowSet) => return Ok(()), // nothing to re-solve
            Err(e) => return Err(e),
        };
        self.resolves += 1;
        // Feed the links whose committed rates changed since the last
        // solve into the warm scratch as its dirty set — here and not at
        // commit time, or the admission probe, which shares the scratch,
        // would consume them first.
        for &link in &self.dirty {
            self.dirty_mark[link.index()] = false;
        }
        self.ctx.mark_dirty_links(self.dirty.drain(..));
        let algorithm = &mut self.engine.algorithm;
        algorithm.set_seed(self.engine.seed.wrapping_add(event.index as u64));
        let Ok(solution) = algorithm.solve(self.ctx, &residual, self.power) else {
            self.solve_failures += 1;
            return Ok(());
        };
        let Some(schedule) = solution.schedule else {
            return Err(no_schedule_error(algorithm.name()));
        };
        // The last-window commit clones the inner flow schedules verbatim,
        // which is what makes a single-event run bit-identical to the
        // offline solve.
        let next = self.queue.peek_valid_time();
        for fs in schedule.flow_schedules() {
            let orig = map[fs.flow];
            let committed = match next {
                None => {
                    let mut clone = fs.clone();
                    clone.flow = orig;
                    clone
                }
                Some(until) => fs.restricted(orig, event.time, until),
            };
            self.push_commit(committed);
        }
        Ok(())
    }

    /// Commits a policy-computed rate plan from `now` until the next
    /// queued event.
    fn commit_plan(&mut self, now: f64, plan: RatePlan) {
        // One assignment per flow: the first with a positive finite rate
        // for a known in-flight flow.
        self.generation += 1;
        let mut rates = plan.rates;
        rates.retain(|a| {
            let usable = a.rate.is_finite()
                && a.rate > 0.0
                && self
                    .ledger
                    .entries()
                    .get(a.flow)
                    .is_some_and(|e| e.in_flight)
                && self.stamp[a.flow] != self.generation;
            if usable {
                self.stamp[a.flow] = self.generation;
            }
            usable
        });
        // Predict the decision points the plan implies (per-flow
        // completion, or a deadline watchdog when the rate cannot finish in
        // time), so the commit window below can end at the earliest of them.
        for a in &rates {
            let entry = &self.ledger.entries()[a.flow];
            let remaining = (entry.flow.volume - entry.delivered).max(0.0);
            if remaining <= 0.0 {
                continue;
            }
            let completion = now + remaining / a.rate;
            let deadline = entry.flow.deadline;
            self.queue.predict(if completion <= deadline {
                completion
            } else {
                deadline
            });
        }
        // Commit each assigned rate from now until the next queued event,
        // clamped to the flow's deadline.
        let next = self.queue.peek_valid_time();
        for a in rates {
            let deadline = self.ledger.entries()[a.flow].flow.deadline;
            let until = next.unwrap_or(deadline).min(deadline);
            if until > now {
                self.commit_rate(a, now, until);
            }
        }
    }

    /// Commits one assignment over `[now, until)`. A flow whose stored
    /// schedule is uniform along the assignment's path — the plan of the
    /// previous event, carried on — has the window appended to it in
    /// place: same schedule, same credit and the same latest links as
    /// [`EngineRun::push_commit`] of the one-piece slice, which is built
    /// only for a first commit or a changed route. The paths are compared
    /// only when the route is not the handle the schedule was last found
    /// uniform along.
    fn commit_rate(&mut self, a: RateAssignment, now: f64, until: f64) {
        let path = self.routes.path(a.route);
        let known = self.uniform_route[a.flow] == Some(a.route);
        let stored = self.slot[a.flow].map(|slot| &mut self.schedules[slot]);
        if stored.is_some_and(|fs| fs.append_uniform(path, known, now, until, a.rate)) {
            self.uniform_route[a.flow] = Some(a.route);
            self.credit_commit(a.flow, (until - now) * a.rate);
        } else {
            let profile = RateProfile::constant(now, until, a.rate);
            let slice = FlowSchedule::uniform(a.flow, path.clone(), profile);
            self.push_commit(slice);
        }
    }

    /// Appends one committed slice to its flow's schedule (a first commit
    /// opens the entry), credits the delivered volume, and records the
    /// slice's links as the flow's latest plan and as warm-start dirt.
    fn push_commit(&mut self, committed: FlowSchedule) {
        let flow = committed.flow;
        self.uniform_route[flow] = None;
        if committed.profile.is_empty() && committed.link_profiles().next().is_none() {
            return;
        }
        let latest = &mut self.latest_links[flow];
        latest.clear();
        latest.extend(committed.link_profiles().map(|(link, _)| link));
        self.credit_commit(flow, committed.profile.volume());
        match self.slot[flow] {
            Some(slot) => self.schedules[slot].append(committed),
            None => {
                self.slot[flow] = Some(self.schedules.len());
                self.schedules.push(committed);
            }
        }
    }

    /// Credits `flow` with the `volume` of a slice on its latest links and
    /// records those links as warm-start dirt.
    fn credit_commit(&mut self, flow: FlowId, volume: f64) {
        if self.engine.warm_start {
            for &link in &self.latest_links[flow] {
                if !std::mem::replace(&mut self.dirty_mark[link.index()], true) {
                    self.dirty.push(link);
                }
            }
        }
        self.ledger.credit(flow, volume);
    }

    /// Closes the run: final miss accounting, energy.
    fn finish(mut self, horizon: (f64, f64)) -> OnlineOutcome {
        self.ledger.settle();
        let schedule = Schedule::new(self.schedules, horizon);
        let online_energy = schedule.energy(self.power).total();
        let decisions = self
            .ledger
            .entries()
            .iter()
            .map(|e| FlowDecision {
                flow: e.flow.id,
                admitted: e.admitted,
                delivered: e.delivered,
                missed: e.missed,
                failure_missed: e.missed && e.failure_touched,
            })
            .collect();
        OnlineOutcome {
            schedule,
            report: OnlineReport {
                decisions,
                events: self.batches,
                resolves: self.resolves,
                solve_failures: self.solve_failures,
                online_energy,
                topology_events: self.topology_applied,
            },
        }
    }
}

/// Groups the flows of the instance by release time: one `(time, flow
/// ids)` event per distinct release, in time order (ids ascending within
/// an event).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Dcfsr;
    use crate::online::policies::ResolvePolicy;
    use crate::solution::Solution;
    use dcn_flow::Flow;
    use dcn_topology::{builders, GraphCsr, Path};

    fn x2(capacity: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, capacity)
    }

    #[test]
    fn admission_rules_round_trip_through_their_names() {
        for rule in [AdmissionRule::AdmitAll, AdmissionRule::RejectInfeasible] {
            assert_eq!(AdmissionRule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(AdmissionRule::from_name("nope"), None);
    }

    fn resolve_engine(algorithm: &str, admission: AdmissionRule) -> OnlineEngine {
        OnlineEngine::builder()
            .algorithm(algorithm)
            .admission(admission)
            .build()
            .unwrap()
    }

    #[test]
    fn arrival_events_group_equal_releases() {
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([
            (a, c, 2.0, 6.0, 1.0),
            (a, c, 0.0, 4.0, 1.0),
            (a, c, 2.0, 8.0, 1.0),
        ])
        .unwrap();
        let events = arrival_events(&flows);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], (0.0, vec![1]));
        assert_eq!(events[1], (2.0, vec![0, 2]));
    }

    #[test]
    fn builder_builds_with_every_knob() {
        let engine = OnlineEngine::builder().build().unwrap();
        assert_eq!(engine.algorithm().name(), "dcfsr");

        let engine = OnlineEngine::builder()
            .algorithm("sp-mcf")
            .policy("hybrid")
            .admission(AdmissionRule::RejectInfeasible)
            .warm_start(true)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(engine.algorithm().name(), "sp-mcf");
    }

    #[test]
    fn builder_rejects_unknown_names() {
        assert!(matches!(
            OnlineEngine::builder().algorithm("no-such").build(),
            Err(SolveError::UnknownAlgorithm { .. })
        ));
        assert!(matches!(
            OnlineEngine::builder().policy("no-such").build(),
            Err(SolveError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn queue_batches_are_deterministic_and_plan_scoped() {
        let arrival = |time, group| (time, QueuedKind::Arrival { group });
        let topology = |time, index| (time, QueuedKind::Topology { index });
        let fixed = [arrival(4.0, 1), topology(4.0, 0), arrival(0.0, 0)];
        let mut queue = EventQueue::new(fixed.into_iter());
        let (t0, batch) = queue.pop_batch().unwrap();
        assert_eq!(t0, 0.0);
        assert_eq!(batch.len(), 1);

        // A plan's predictions collapse to their earliest instant, which
        // pops as a batch of no fixed events.
        queue.predict(3.0);
        queue.predict(2.0);
        queue.predict(2.5);
        assert_eq!(queue.peek_valid_time(), Some(2.0));
        let (t1, batch) = queue.pop_batch().unwrap();
        assert_eq!(t1, 2.0);
        assert!(batch.is_empty());

        // A fixed instant before the prediction pops first, topology before
        // arrivals, and supersedes the prediction.
        queue.predict(5.0);
        let (t2, batch) = queue.pop_batch().unwrap();
        assert_eq!(t2, 4.0);
        let kinds: Vec<QueuedKind> = batch.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                QueuedKind::Topology { index: 0 },
                QueuedKind::Arrival { group: 1 }
            ]
        );
        assert!(queue.pop_batch().is_none());
    }

    #[test]
    fn empty_instance_is_a_typed_error_not_a_panic() {
        let topo = builders::line(3);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let empty = FlowSet::from_flows(vec![]).unwrap();
        let err = resolve_engine("dcfsr", AdmissionRule::AdmitAll)
            .run(&mut ctx, &empty, &x2(10.0))
            .unwrap_err();
        assert_eq!(err, SolveError::EmptyFlowSet);
        // The feasibility primitive reports the same typed error on an
        // empty residual set.
        assert_eq!(
            fractionally_feasible(&mut ctx, &empty, &x2(10.0)).unwrap_err(),
            SolveError::EmptyFlowSet
        );
    }

    #[test]
    fn bound_only_algorithms_are_rejected_with_a_typed_error() {
        let topo = builders::line(3);
        let flows =
            FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 8.0)]).unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let err = resolve_engine("lb", AdmissionRule::AdmitAll)
            .run(&mut ctx, &flows, &x2(10.0))
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput { .. }));
        assert!(err.to_string().contains("lb"));
    }

    #[test]
    fn single_event_run_commits_the_offline_schedule_verbatim() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = dcn_flow::workload::UniformWorkload::paper_defaults(10, 11)
            .generate(topo.hosts())
            .unwrap();
        // Re-release everything at t = 0: one arrival event.
        let zeroed = FlowSet::from_flows(
            flows
                .iter()
                .map(|f| Flow::new(f.id, f.src, f.dst, 0.0, f.deadline, f.volume).unwrap())
                .collect(),
        )
        .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("dcfsr", AdmissionRule::AdmitAll);
        engine.set_seed(11);
        let outcome = engine.run(&mut ctx, &zeroed, &power).unwrap();
        assert_eq!(outcome.report.events, 1);
        assert_eq!(outcome.report.resolves, 1);
        assert_eq!(outcome.report.solve_failures, 0);

        let mut offline = Dcfsr::default();
        offline.set_seed(11);
        let clairvoyant = offline.solve(&mut ctx, &zeroed, &power).unwrap();
        assert_eq!(&outcome.schedule, clairvoyant.schedule.as_ref().unwrap());
        assert_eq!(
            outcome.report.online_energy.to_bits(),
            clairvoyant.total_energy().unwrap().to_bits()
        );
    }

    #[test]
    fn staggered_arrivals_deliver_every_admitted_flow() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = dcn_flow::workload::UniformWorkload::paper_defaults(14, 4)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("dcfsr", AdmissionRule::AdmitAll);
        engine.set_seed(4);
        let outcome = engine.run(&mut ctx, &flows, &power).unwrap();
        assert_eq!(outcome.report.events, 14);
        assert_eq!(outcome.report.admitted(), 14);
        assert_eq!(outcome.report.solve_failures, 0);
        assert_eq!(outcome.report.missed(), 0);
        for d in &outcome.report.decisions {
            let flow = flows.flow(d.flow);
            assert!(
                (d.delivered - flow.volume).abs() <= 1e-6 * flow.volume,
                "flow {}: delivered {} of {}",
                d.flow,
                d.delivered,
                flow.volume
            );
        }
        // All activity stays inside each flow's span, whatever window it
        // was committed in.
        for fs in outcome.schedule.flow_schedules() {
            let flow = flows.flow(fs.flow);
            let (start, end) = fs.activity_span().expect("admitted flows transmit");
            assert!(start >= flow.release - 1e-9 && end <= flow.deadline + 1e-9);
        }
        // The reported energy is the stitched schedule's energy.
        assert_eq!(
            outcome.report.online_energy,
            outcome.schedule.energy(&power).total()
        );
    }

    #[test]
    fn the_reject_infeasible_rule_rejects_only_the_impossible_flow() {
        // Capacity 10: a volume-100 flow over a unit span needs rate 100.
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([
            (a, c, 0.0, 10.0, 8.0),  // easy
            (a, c, 1.0, 2.0, 100.0), // impossible even alone
            (a, c, 2.0, 12.0, 8.0),  // easy again
        ])
        .unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("sp-mcf", AdmissionRule::RejectInfeasible);
        engine.set_seed(1);
        let outcome = engine.run(&mut ctx, &flows, &power).unwrap();
        assert_eq!(outcome.report.admitted(), 2);
        assert_eq!(outcome.report.rejected(), 1);
        assert!(!outcome.report.decisions[1].admitted);
        assert_eq!(outcome.report.missed(), 0);
        assert_eq!(outcome.report.solve_failures, 0);
        // Rejected flows never transmit.
        assert!(outcome.schedule.flow_schedule(1).is_none());
    }

    #[test]
    fn admit_all_solve_failures_are_counted_and_surface_as_misses() {
        /// An algorithm whose every solve fails — the deterministic stand-in
        /// for an infeasible residual under `AdmitAll` overload.
        #[derive(Debug)]
        struct NeverSolves;
        impl Algorithm for NeverSolves {
            fn name(&self) -> &str {
                "never"
            }
            fn solve(
                &mut self,
                _ctx: &mut SolverContext<'_>,
                _flows: &FlowSet,
                _power: &PowerFunction,
            ) -> Result<Solution, SolveError> {
                Err(SolveError::Infeasible { link: LinkId(0) })
            }
        }

        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(a, c, 0.0, 4.0, 8.0), (a, c, 1.0, 5.0, 8.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let outcome = OnlineEngine::builder()
            .algorithm_instance(Box::new(NeverSolves))
            .policy_instance(Box::new(ResolvePolicy))
            .build()
            .unwrap()
            .run(&mut ctx, &flows, &power)
            .unwrap();
        // Every re-solve failed; the loop carried on without panicking and
        // every admitted flow is recorded as missed with zero delivery.
        assert_eq!(outcome.report.events, 2);
        assert_eq!(outcome.report.resolves, 2);
        assert_eq!(outcome.report.solve_failures, 2);
        assert_eq!(outcome.report.admitted(), 2);
        assert_eq!(outcome.report.missed(), 2);
        assert!(outcome.schedule.is_empty());
        assert_eq!(outcome.report.online_energy, 0.0);
    }

    #[test]
    fn multi_window_commits_stitch_into_the_full_delivery() {
        // Two staggered flows on a line force a clipped first window.
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(a, c, 0.0, 8.0, 8.0), (a, c, 4.0, 12.0, 8.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let outcome = resolve_engine("sp-mcf", AdmissionRule::AdmitAll)
            .run(&mut ctx, &flows, &power)
            .unwrap();
        assert_eq!(outcome.report.events, 2);
        assert_eq!(outcome.report.resolves, 2);
        assert_eq!(outcome.report.missed(), 0);
        // Flow 0 is committed across both windows and still delivers fully
        // within its span; the stitched schedule verifies end to end
        // (sp-mcf keeps the single line path, so the per-link volume check
        // applies even across re-solves).
        ctx.verify(&outcome.schedule, &flows, &power).unwrap();
    }

    #[test]
    fn admission_rule_names_are_stable() {
        assert_eq!(AdmissionRule::AdmitAll.name(), "admit-all");
        assert_eq!(AdmissionRule::RejectInfeasible.name(), "reject-infeasible");
    }

    /// Total volume transmitted on `link` inside `[from, to]` across the
    /// whole stitched schedule.
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

    #[test]
    fn failure_and_recovery_reroute_without_transmitting_on_the_down_link() {
        // One flow on a line: the failure severs its only route, the
        // recovery brings it back with time to spare.
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(a, c, 0.0, 10.0, 4.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let link = ctx.graph().shortest_path(a, c).unwrap().links()[0];
        let events = [
            TopologyEvent::LinkDown { time: 1.0, link },
            TopologyEvent::LinkUp { time: 2.0, link },
        ];
        let mut engine = resolve_engine("sp-mcf", AdmissionRule::AdmitAll);
        let outcome = engine
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap();
        assert_eq!(outcome.report.topology_events, 2);
        assert_eq!(outcome.report.missed(), 0, "recovery leaves time to finish");
        assert_eq!(outcome.report.failure_missed(), 0);
        let delivered = outcome.report.decisions[0].delivered;
        assert!(
            (delivered - 4.0).abs() <= 1e-6 * 4.0,
            "delivered {delivered}"
        );
        // Physics: nothing rides the failed link while it is down.
        assert_eq!(
            link_volume_between(&outcome.schedule, link, 1.0, 2.0),
            0.0,
            "no transmission on a down link"
        );
        assert!(
            link_volume_between(&outcome.schedule, link, 2.0, 10.0) > 0.0,
            "the flow resumes after the recovery"
        );
        // The run rolled its topology changes back.
        assert_eq!(ctx.graph().down_link_count(), 0);
        assert_eq!(*ctx.graph(), GraphCsr::from_network(&topo.network));
    }

    #[test]
    fn permanent_failure_attributes_the_miss() {
        // Volume 20 at capacity 10 needs 2 time units; the failure at
        // t = 1 with no recovery leaves the flow stranded and short.
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(a, c, 0.0, 4.0, 20.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let link = ctx.graph().shortest_path(a, c).unwrap().links()[0];
        let events = [TopologyEvent::LinkDown { time: 1.0, link }];
        let mut engine = resolve_engine("sp-mcf", AdmissionRule::AdmitAll);
        let outcome = engine
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap();
        assert_eq!(outcome.report.topology_events, 1);
        assert_eq!(outcome.report.missed(), 1);
        assert_eq!(
            outcome.report.failure_missed(),
            1,
            "the miss is attributed to the failure"
        );
        assert!(outcome.report.decisions[0].failure_missed);
        assert_eq!(
            link_volume_between(&outcome.schedule, link, 1.0, 4.0),
            0.0,
            "nothing rides the link after it fails"
        );
        // Even though the stream never recovered the link, the run rolls
        // the context back to the pristine fabric.
        assert_eq!(ctx.graph().down_link_count(), 0);
    }

    #[test]
    fn a_failure_is_attributed_through_the_latest_slice_only() {
        /// Serves both flows too slowly to finish: flow 0 on `first` until
        /// the decision point at `t = 1` and on `second` after it, flow 1 on
        /// `first` throughout; nothing once the link has failed.
        #[derive(Debug)]
        struct Scripted {
            first: [Path; 2],
            second: Path,
        }
        impl OnlinePolicy for Scripted {
            fn name(&self) -> &str {
                "scripted"
            }
            fn on_event(
                &mut self,
                _ctx: &mut SolverContext<'_>,
                _power: &PowerFunction,
                world: &WorldView<'_>,
                routes: &mut PathCache,
            ) -> Result<PolicyAction, SolveError> {
                let mut plan = RatePlan::default();
                if world.now() < 2.0 {
                    let moved = world.now() >= 1.0;
                    let route = if moved { &self.second } else { &self.first[0] };
                    plan.assign(0, routes.insert(route.clone()), 0.5);
                    plan.assign(1, routes.insert(self.first[1].clone()), 0.5);
                }
                Ok(PolicyAction::Assign(plan))
            }
        }

        // Two flows from the same edge switch to the same remote one ride
        // the same fabric links; the second route avoids the link that
        // fails.
        let topo = builders::fat_tree(4);
        let hosts = topo.hosts();
        let flows = FlowSet::from_tuples([
            (hosts[0], hosts[15], 0.0, 10.0, 50.0),
            (hosts[1], hosts[14], 0.0, 10.0, 50.0),
        ])
        .unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let first = [
            ctx.graph().shortest_path(hosts[0], hosts[15]).unwrap(),
            ctx.graph().shortest_path(hosts[1], hosts[14]).unwrap(),
        ];
        let link = first[0].links()[2];
        assert!(first[1].contains_link(link));
        let mut detour = GraphCsr::from_network(&topo.network);
        detour.fail_link(link);
        let second = detour.shortest_path(hosts[0], hosts[15]).unwrap();

        // The link is up at t = 1, so its `LinkUp` changes nothing but
        // gives the instance its decision point there.
        let events = [
            TopologyEvent::LinkUp { time: 1.0, link },
            TopologyEvent::LinkDown { time: 2.0, link },
        ];
        let outcome = OnlineEngine::builder()
            .policy_instance(Box::new(Scripted { first, second }))
            .build()
            .unwrap()
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap();
        assert_eq!(outcome.report.events, 3);
        assert_eq!(outcome.report.topology_events, 1);
        assert_eq!(outcome.report.missed(), 2);
        // Flow 0 rode the link in its first window but had left it when it
        // failed; flow 1 was on it.
        assert!(link_volume_between(&outcome.schedule, link, 0.0, 1.0) > 0.5);
        assert!(!outcome.report.decisions[0].failure_missed);
        assert!(outcome.report.decisions[1].failure_missed);
    }

    #[test]
    fn a_window_appended_in_place_equals_its_pushed_slice() {
        // Two flows between the same edge switches of a k=4 fat-tree, in
        // abutting, re-rated and gapped windows; flow 0 changes route
        // mid-flow, after which its schedule is per link and every later
        // window takes the `push_commit` fallback.
        let topo = builders::fat_tree(4);
        let hosts = topo.hosts();
        let flows = FlowSet::from_tuples([
            (hosts[0], hosts[15], 0.0, 10.0, 50.0),
            (hosts[1], hosts[14], 0.0, 10.0, 50.0),
        ])
        .unwrap();
        let power = x2(10.0);
        let mut graph = GraphCsr::from_network(&topo.network);
        let first = graph.shortest_path(hosts[0], hosts[15]).unwrap();
        let other = graph.shortest_path(hosts[1], hosts[14]).unwrap();
        graph.fail_link(first.links()[2]);
        let second = graph.shortest_path(hosts[0], hosts[15]).unwrap();
        let paths = [&first, &other, &second];
        // (flow, index into `paths`, start, end, rate)
        let windows = [
            (0, 0, 0.0, 1.0, 2.0),
            (1, 1, 0.0, 1.0, 1.0),
            (0, 0, 1.0, 2.0, 2.0), // carried on: extends the piece
            (1, 1, 1.0, 2.0, 1.5), // re-rated: a second piece
            (0, 2, 2.0, 3.0, 2.0), // re-routed: expands per link
            (1, 1, 2.5, 3.0, 1.5), // after a gap: a third piece
            (0, 2, 3.0, 4.0, 2.0),
            (1, 1, 3.0, 4.0, 1.5),
        ];
        let commit = |in_place: bool| {
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let mut engine = OnlineEngine::builder()
                .policy("edf")
                .warm_start(true)
                .build()
                .unwrap();
            let mut run = EngineRun::new(&mut engine, &mut ctx, &flows, &power, &[]);
            run.ledger.admit(0);
            run.ledger.admit(1);
            run.routes.sync(run.ctx.graph());
            let routes = paths.map(|path| run.routes.insert(path.clone()));
            let mut dirty = Vec::new();
            for &(flow, path, now, until, rate) in &windows {
                if in_place {
                    let route = routes[path];
                    run.commit_rate(RateAssignment { flow, route, rate }, now, until);
                } else {
                    let profile = RateProfile::constant(now, until, rate);
                    run.push_commit(FlowSchedule::uniform(flow, paths[path].clone(), profile));
                }
                // What a re-solve after this window would be handed.
                dirty.push(std::mem::take(&mut run.dirty));
                run.dirty_mark.fill(false);
            }
            // Flow 1 is extended by its handle; flow 0, per link, by none.
            let known = [None, Some(routes[1])];
            assert_eq!(
                run.uniform_route,
                if in_place { &known[..] } else { &[None; 2] }
            );
            let entries = run.ledger.entries().iter();
            let delivered: Vec<u64> = entries.map(|e| e.delivered.to_bits()).collect();
            (run.schedules, delivered, run.latest_links, dirty)
        };
        let in_place = commit(true);
        assert_eq!(in_place, commit(false));

        let (schedules, delivered, latest_links, dirty) = in_place;
        assert_eq!(delivered, [8.0f64, 4.75].map(f64::to_bits));
        assert_eq!(latest_links, [second.links(), other.links()]);
        assert!(dirty.iter().all(|links| !links.is_empty()));
        // Flow 1 never left its route: one stored profile, a piece per
        // constant-rate run. Flow 0 is one run end to end, spread over the
        // links of both routes.
        let pieces = [(0.0, 1.0, 1.0), (1.0, 2.0, 1.5), (2.5, 4.0, 1.5)];
        assert_eq!(schedules[1].profile.pieces(), pieces);
        assert!(schedules[1]
            .link_profiles()
            .all(|(_, p)| std::ptr::eq(p, &schedules[1].profile)));
        assert_eq!(schedules[0].profile.pieces(), [(0.0, 4.0, 2.0)]);
        for (link, profile) in schedules[0].link_profiles() {
            let start = if first.contains_link(link) { 0.0 } else { 2.0 };
            let end = if second.contains_link(link) { 4.0 } else { 2.0 };
            assert_eq!(profile.pieces(), [(start, end, 2.0)], "link {link}");
        }
    }

    /// Commits flow `flow` along `route` at rate 2 over `[now, now + 1)`.
    fn commit_unit(run: &mut EngineRun<'_, '_>, flow: FlowId, route: Route, now: f64) {
        let rate = 2.0;
        run.commit_rate(RateAssignment { flow, route, rate }, now, now + 1.0);
    }

    #[test]
    fn a_recommitted_route_extends_by_handle_and_an_equal_path_by_comparison() {
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([(a, c, 0.0, 10.0, 50.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = OnlineEngine::builder().policy("edf").build().unwrap();
        let mut run = EngineRun::new(&mut engine, &mut ctx, &flows, &power, &[]);
        run.ledger.admit(0);
        run.routes.sync(run.ctx.graph());
        let route = run.routes.route(run.ctx, 0, a, c).unwrap();
        let twin = run.routes.insert(run.routes.path(route).clone());
        assert_ne!(route, twin, "the same path under a second handle");

        // The first commit builds a slice; the second finds the schedule
        // uniform along the route by comparison and remembers the handle;
        // the third extends by the handle alone.
        commit_unit(&mut run, 0, route, 0.0);
        assert_eq!(run.uniform_route[0], None);
        commit_unit(&mut run, 0, route, 1.0);
        assert_eq!(run.uniform_route[0], Some(route));
        commit_unit(&mut run, 0, route, 2.0);
        assert_eq!(run.uniform_route[0], Some(route));
        // The twin is not the remembered handle: the paths are compared,
        // found equal, and the piece still extends.
        commit_unit(&mut run, 0, twin, 3.0);
        assert_eq!(run.uniform_route[0], Some(twin));

        let stored = &run.schedules;
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].profile.pieces(), [(0.0, 4.0, 2.0)]);
        assert!(stored[0]
            .link_profiles()
            .all(|(_, p)| std::ptr::eq(p, &stored[0].profile)));
        assert_eq!(run.ledger.entries()[0].delivered, 8.0);
    }

    #[test]
    fn after_a_link_down_no_old_route_equals_a_new_one_and_a_moved_flow_goes_per_link() {
        let topo = builders::fat_tree(4);
        let hosts = topo.hosts();
        let flows = FlowSet::from_tuples([
            (hosts[0], hosts[15], 0.0, 10.0, 50.0),
            (hosts[1], hosts[14], 0.0, 10.0, 50.0),
        ])
        .unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = OnlineEngine::builder().policy("edf").build().unwrap();
        let mut run = EngineRun::new(&mut engine, &mut ctx, &flows, &power, &[]);
        run.ledger.admit(0);
        run.routes.sync(run.ctx.graph());
        let old = run.routes.route(run.ctx, 0, hosts[0], hosts[15]).unwrap();
        let other = run.routes.route(run.ctx, 1, hosts[1], hosts[14]).unwrap();
        let inserted = run.routes.insert(run.routes.path(old).clone());
        let first = run.routes.path(old).clone();
        commit_unit(&mut run, 0, old, 0.0);
        commit_unit(&mut run, 0, old, 1.0);
        assert_eq!(run.uniform_route[0], Some(old));

        let link = first.links()[2];
        assert!(run
            .ctx
            .apply_topology_event(TopologyEvent::LinkDown { time: 2.0, link }));
        run.routes.sync(run.ctx.graph());
        let new = run.routes.route(run.ctx, 0, hosts[0], hosts[15]).unwrap();
        let fresh = [
            new,
            run.routes.route(run.ctx, 1, hosts[1], hosts[14]).unwrap(),
            run.routes.insert(first.clone()),
        ];
        for handle in fresh {
            assert!([old, other, inserted].iter().all(|&stale| stale != handle));
        }
        let second = run.routes.path(new).clone();
        assert!(!second.contains_link(link), "re-routed around the failure");
        commit_unit(&mut run, 0, new, 2.0);
        commit_unit(&mut run, 0, new, 3.0);
        assert_eq!(
            run.uniform_route[0], None,
            "a per-link schedule is never uniform"
        );

        // What the engine stored when every commit compared paths: one
        // nominal run, and each link carrying the part of it that rode it.
        let stored = &run.schedules[0];
        assert_eq!(stored.profile.pieces(), [(0.0, 4.0, 2.0)]);
        assert_eq!(stored.path, second);
        for (link, profile) in stored.link_profiles() {
            let start = if first.contains_link(link) { 0.0 } else { 2.0 };
            let end = if second.contains_link(link) { 4.0 } else { 2.0 };
            assert_eq!(profile.pieces(), [(start, end, 2.0)], "link {link}");
        }
        assert_eq!(run.latest_links[0], second.links());
    }

    /// Re-issues every route of the wrapped policy's plans under a handle
    /// of its own, so the engine never finds a schedule by its handle and
    /// compares paths at every commit.
    #[derive(Debug)]
    struct FreshHandles(Box<dyn OnlinePolicy>);

    impl OnlinePolicy for FreshHandles {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn on_event(
            &mut self,
            ctx: &mut SolverContext<'_>,
            power: &PowerFunction,
            world: &WorldView<'_>,
            routes: &mut PathCache,
        ) -> Result<PolicyAction, SolveError> {
            let mut action = self.0.on_event(ctx, power, world, routes)?;
            if let PolicyAction::Assign(plan) = &mut action {
                for a in &mut plan.rates {
                    a.route = routes.insert(routes.path(a.route).clone());
                }
            }
            Ok(action)
        }
    }

    #[test]
    fn route_handles_commit_what_comparing_every_path_commits() {
        // A power-capped rate of 1 makes flows contend, so `hybrid`
        // re-solves; link churn re-routes flows and starts new
        // generations of handles.
        let topo = builders::fat_tree(4);
        let power = x2(1.0);
        let mut tally = [0usize; 3];
        for seed in 1..=2 {
            let base = dcn_flow::workload::UniformWorkload::paper_defaults(150, seed)
                .generate(topo.hosts())
                .unwrap();
            let flows = dcn_flow::workload::ArrivalProcess::with_load(12.0, seed)
                .apply(&base)
                .unwrap();
            let events = dcn_flow::failure::FailureProcess::new(400.0, 2.0, seed)
                .generate(topo.network.link_count(), flows.horizon().1);
            for policy in ["edf", "srpt", "hybrid"] {
                let engine = |policy: Box<dyn OnlinePolicy>| {
                    let builder = OnlineEngine::builder().algorithm("sp-mcf");
                    builder.policy_instance(policy).build().unwrap()
                };
                let mut ctx = SolverContext::from_network(&topo.network).unwrap();
                let mut by_handle = engine(create_policy(policy).unwrap());
                let mut run = EngineRun::new(&mut by_handle, &mut ctx, &flows, &power, &events);
                while let Some(batch) = run.queue.pop_batch() {
                    let resolves = run.resolves;
                    run.step(batch).unwrap();
                    if run.resolves > resolves {
                        // A re-solve slice was pushed for every live flow:
                        // the next plan cannot extend one by its handle.
                        tally[0] += 1;
                        assert!(run.ledger.live().all(|id| run.uniform_route[id].is_none()));
                    } else {
                        tally[1] += run.uniform_route.iter().flatten().count();
                    }
                }
                tally[2] += run.topology_applied;
                let got = run.finish(flows.horizon());

                let mut ctx = SolverContext::from_network(&topo.network).unwrap();
                let fresh = FreshHandles(create_policy(policy).unwrap());
                let want = engine(Box::new(fresh))
                    .run_with_events(&mut ctx, &flows, &power, &events)
                    .unwrap();
                let case = format!("{policy}, seed {seed}");
                assert_eq!(got.schedule, want.schedule, "{case}");
                assert_eq!(got.report.decisions, want.report.decisions, "{case}");
                assert_eq!(got.report.events, want.report.events, "{case}");
                assert_eq!(
                    got.report.online_energy.to_bits(),
                    want.report.online_energy.to_bits(),
                    "{case}"
                );
            }
        }
        let [resolved, known, link_events] = tally;
        assert!(
            resolved > 0 && known > 1000 && link_events > 10,
            "{tally:?}"
        );
    }

    #[test]
    fn the_dirty_buffer_is_bounded_by_the_link_count_and_idle_without_warm_starts() {
        // `edf` never re-solves, so nothing ever drains the buffer.
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let base = dcn_flow::workload::UniformWorkload::paper_defaults(500, 3)
            .generate(topo.hosts())
            .unwrap();
        let flows = dcn_flow::workload::ArrivalProcess::with_load(8.0, 3)
            .apply(&base)
            .unwrap();
        for warm in [false, true] {
            let mut ctx = SolverContext::from_network(&topo.network).unwrap();
            let link_count = ctx.graph().link_count();
            let mut engine = OnlineEngine::builder()
                .policy("edf")
                .warm_start(warm)
                .build()
                .unwrap();
            let mut run = EngineRun::new(&mut engine, &mut ctx, &flows, &power, &[]);
            let mut peak = 0;
            while let Some(batch) = run.queue.pop_batch() {
                run.step(batch).unwrap();
                peak = peak.max(run.dirty.len());
            }
            assert!(run.batches >= 500);
            if warm {
                assert!(
                    0 < peak && peak <= link_count,
                    "{peak} dirty of {link_count} links"
                );
            } else {
                assert_eq!(peak, 0, "no warm scratch to feed");
            }
        }
    }

    #[test]
    fn an_erroring_run_still_rolls_the_topology_back() {
        /// Resolves until the batch at `t = 1`, which carries the topology
        /// events, then errors — after the engine already applied them to
        /// the context.
        #[derive(Debug)]
        struct FailsOnTopology;
        impl OnlinePolicy for FailsOnTopology {
            fn name(&self) -> &str {
                "fails-on-topology"
            }
            fn on_event(
                &mut self,
                _ctx: &mut SolverContext<'_>,
                _power: &PowerFunction,
                world: &WorldView<'_>,
                _routes: &mut PathCache,
            ) -> Result<PolicyAction, SolveError> {
                if world.now() < 1.0 {
                    Ok(PolicyAction::Resolve)
                } else {
                    Err(SolveError::InvalidInput {
                        reason: "policy gave up".to_string(),
                    })
                }
            }
        }

        let topo = builders::fat_tree(4);
        let (a, c) = (topo.hosts()[0], topo.hosts()[15]);
        let flows = FlowSet::from_tuples([(a, c, 0.0, 10.0, 4.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let path = ctx.graph().shortest_path(a, c).unwrap();
        // Enter with one link already down: the rollback must restore the
        // entry state, not the pristine fabric.
        let entry_down = TopologyEvent::LinkDown {
            time: 0.0,
            link: path.links()[2],
        };
        assert!(ctx.apply_topology_event(entry_down));
        let capacities = |ctx: &SolverContext<'_>| -> Vec<u64> {
            (0..ctx.graph().link_count())
                .map(|l| ctx.graph().capacity(LinkId(l)).to_bits())
                .collect()
        };
        let at_entry = capacities(&ctx);

        let events = [
            TopologyEvent::LinkUp {
                time: 1.0,
                link: path.links()[2],
            },
            TopologyEvent::LinkDown {
                time: 1.0,
                link: path.links()[3],
            },
        ];
        let mut engine = OnlineEngine::builder()
            .algorithm("sp-mcf")
            .policy_instance(Box::new(FailsOnTopology))
            .build()
            .unwrap();
        let err = engine
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput { .. }));
        assert_eq!(ctx.graph().down_link_count(), 1);
        assert_eq!(capacities(&ctx), at_entry);
    }

    #[test]
    fn arrivals_while_disconnected_strand_under_admit_all_and_reject_otherwise() {
        let topo = builders::line(3);
        let (a, c) = (topo.hosts()[0], topo.hosts()[2]);
        // Flow 1 arrives inside the outage window.
        let flows = FlowSet::from_tuples([(a, c, 0.0, 10.0, 2.0), (a, c, 1.5, 10.0, 2.0)]).unwrap();
        let power = x2(10.0);
        let link = {
            let ctx = SolverContext::from_network(&topo.network).unwrap();
            ctx.graph().shortest_path(a, c).unwrap().links()[0]
        };
        let events = [
            TopologyEvent::LinkDown { time: 1.0, link },
            TopologyEvent::LinkUp { time: 3.0, link },
        ];

        // Admit-all: the disconnected arrival is admitted, stranded, and
        // revived by the recovery in time to finish.
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("sp-mcf", AdmissionRule::AdmitAll);
        let outcome = engine
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap();
        assert_eq!(outcome.report.admitted(), 2);
        assert_eq!(outcome.report.missed(), 0);

        // Reject-infeasible: a commodity with no route is never feasible.
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("sp-mcf", AdmissionRule::RejectInfeasible);
        let outcome = engine
            .run_with_events(&mut ctx, &flows, &power, &events)
            .unwrap();
        assert!(!outcome.report.decisions[1].admitted);
        assert_eq!(outcome.report.rejected(), 1);
    }

    #[test]
    fn event_validation_rejects_bad_times_and_links() {
        let topo = builders::line(3);
        let flows =
            FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[2], 0.0, 4.0, 1.0)]).unwrap();
        let power = x2(10.0);
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("sp-mcf", AdmissionRule::AdmitAll);
        let bad_time = [TopologyEvent::LinkDown {
            time: f64::NAN,
            link: LinkId(0),
        }];
        assert!(matches!(
            engine.run_with_events(&mut ctx, &flows, &power, &bad_time),
            Err(SolveError::InvalidInput { .. })
        ));
        let bad_link = [TopologyEvent::LinkDown {
            time: 1.0,
            link: LinkId(ctx.graph().link_count()),
        }];
        assert!(matches!(
            engine.run_with_events(&mut ctx, &flows, &power, &bad_link),
            Err(SolveError::InvalidInput { .. })
        ));
    }

    #[test]
    fn runs_without_events_are_bit_identical_to_plain_runs() {
        let topo = builders::fat_tree(4);
        let power = x2(10.0);
        let flows = dcn_flow::workload::UniformWorkload::paper_defaults(10, 4)
            .generate(topo.hosts())
            .unwrap();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();
        let mut engine = resolve_engine("dcfsr", AdmissionRule::AdmitAll);
        engine.set_seed(9);
        let plain = engine.run(&mut ctx, &flows, &power).unwrap();
        engine.set_seed(9);
        let with_events = engine
            .run_with_events(&mut ctx, &flows, &power, &[])
            .unwrap();
        assert_eq!(plain.report.online_energy, with_events.report.online_energy);
        assert_eq!(plain.report.events, with_events.report.events);
        assert_eq!(plain.report.decisions, with_events.report.decisions);
    }
}
