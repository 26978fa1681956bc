//! The per-shard scheduling engine: one warm [`SolverContext`] plus an
//! [`InFlightLedger`] of admitted flows, advanced one submission at a
//! time.
//!
//! A [`ShardEngine`] owns everything one logical shard (pod bucket)
//! needs to answer requests: the residual state of its admitted flows and
//! one [`FlowSchedule`] per flow, stored once — the path and rate it
//! delivered on up to the shard clock and the plan it follows after. Time
//! is the *logical* clock of the request stream — each submission advances
//! the shard to the flow's release time, credits every live flow with the
//! volume its schedule delivers in the meantime, retires completed or
//! expired flows, and only then decides admission. Nothing reads the wall
//! clock, so a shard's decisions are a pure function of the subsequence of
//! requests routed to it — the bedrock of the daemon's determinism
//! contract (same request stream, same replies, at any `--shard-workers`
//! width).
//!
//! A plan is written once, at admission. Every re-plan — a `resolve`
//! re-solve, or a link event that severs a plan — cuts the schedule at the
//! clock and appends the new leg ([`FlowSchedule::replan`]), so a flow that
//! moves keeps what it delivered on the links it delivered it on.
//!
//! The flow state itself (retire rule, residual builder, volume tolerance)
//! is the core [`InFlightLedger`], and admission is the core
//! [`AdmissionRule`]; the *planners* are the shard's own, because they are
//! a different algorithm from the core policies of the same name: `edf` and
//! `greedy` pace only the newcomer, O(1) per submission, and keep **no
//! per-link account** — see "What the daemon does not guarantee" in
//! [`crate`]'s docs and EXPERIMENTS.md ("Why `dcn-server` keeps its own
//! planners", "Why the daemon keeps its pacer") for the measured price of
//! the alternative.

use std::collections::BTreeSet;

use dcn_core::online::{AdmissionRule, InFlightLedger, PathCache, WorldView};
use dcn_core::{
    Algorithm, AlgorithmRegistry, FlowSchedule, LedgerEntry, SolveError, SolverContext,
};
use dcn_flow::{Flow, FlowId};
use dcn_power::{PowerFunction, RateProfile};
use dcn_topology::{LinkId, Network, TopologyEvent};

use crate::protocol::{PlanSegment, WirePlan};
use crate::snapshot::{BucketState, FlowRecord};

/// How a shard plans rates for admitted flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePolicy {
    /// Earliest-deadline-first pacing: each flow gets its required rate
    /// (`remaining / time-to-deadline`) on its fewest-hop path. Solver-free
    /// and O(live flows) per submission — the high-throughput default.
    Edf,
    /// Full-blast na&iuml;ve baseline: each flow transmits at its path's
    /// bottleneck capacity until done. What a deadline-oblivious fabric
    /// would do; the serve bench uses it as the energy reference.
    Greedy,
    /// Re-solves the whole residual instance with a registry algorithm at
    /// every admission (the online engine's `resolve` policy, adapted to
    /// serving). Highest quality, solver-priced.
    Resolve,
}

impl ServePolicy {
    /// The stable name used by `--policy`, snapshots and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            ServePolicy::Edf => "edf",
            ServePolicy::Greedy => "greedy",
            ServePolicy::Resolve => "resolve",
        }
    }

    /// Parses a `--policy` value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "edf" => Ok(ServePolicy::Edf),
            "greedy" => Ok(ServePolicy::Greedy),
            "resolve" => Ok(ServePolicy::Resolve),
            other => Err(format!(
                "unknown serve policy {other:?} (expected edf, greedy or resolve)"
            )),
        }
    }
}

/// The per-engine settings shared by every shard of a daemon.
#[derive(Debug, Clone)]
pub struct EngineSettings {
    /// The power function energy and capacities are accounted under.
    pub power: PowerFunction,
    /// Rate-planning policy.
    pub policy: ServePolicy,
    /// Admission rule (`reject-infeasible` probes with the fixed
    /// relaxation of [`dcn_core::online::fractionally_feasible`]).
    pub admission: AdmissionRule,
    /// Registry name of the algorithm behind [`ServePolicy::Resolve`].
    pub algorithm: String,
    /// Base seed; per-solve seeds derive from it, the bucket id and the
    /// bucket-local event index (never from thread identity).
    pub seed: u64,
}

/// One logical shard: warm solver context + residual state. See the
/// module docs for the time model.
pub struct ShardEngine<'net> {
    bucket: usize,
    ctx: SolverContext<'net>,
    settings: EngineSettings,
    algorithm: Option<Box<dyn Algorithm>>,
    /// The bucket's admitted flows. A ledger id is bucket-local
    /// (`schedules` is indexed by it); the entry's `flow.id` is the global
    /// id. Submissions reach a bucket in ascending global id, so local →
    /// global is an index and global → local a binary search.
    ledger: InFlightLedger,
    /// Each admitted flow's schedule, by ledger id and labelled with the
    /// global id, its pieces in time order: a plan is one piece, and a
    /// re-plan cuts at the clock before it appends the leg.
    schedules: Vec<FlowSchedule>,
    /// Global ids of the flows turned away (snapshots carry no flow data
    /// for them, so they never stay in the ledger).
    rejected: BTreeSet<FlowId>,
    /// Fewest-hop routes by endpoint pair: a submission routes once, with
    /// one pair probe, and nothing is kept per flow.
    paths: PathCache,
    clock: f64,
    events: u64,
}

impl<'net> ShardEngine<'net> {
    /// Creates an empty shard engine over a validated network.
    ///
    /// # Errors
    ///
    /// Propagates topology validation errors and an unknown
    /// [`EngineSettings::algorithm`] name.
    pub fn new(
        network: &'net Network,
        settings: EngineSettings,
        bucket: usize,
    ) -> Result<Self, SolveError> {
        let ctx = SolverContext::from_network(network)?;
        let algorithm = match settings.policy {
            ServePolicy::Resolve => {
                Some(AlgorithmRegistry::with_defaults().create(&settings.algorithm)?)
            }
            ServePolicy::Edf | ServePolicy::Greedy => None,
        };
        Ok(Self {
            bucket,
            ctx,
            settings,
            algorithm,
            ledger: InFlightLedger::new(),
            schedules: Vec::new(),
            rejected: BTreeSet::new(),
            paths: PathCache::new(),
            clock: f64::NEG_INFINITY,
            events: 0,
        })
    }

    /// Advances the shard to `now`: credits every live flow with what its
    /// schedule delivers over `[clock, now)`, then retires done or expired
    /// flows — a retired flow keeps what it delivered and drops what it
    /// still planned after `now`.
    fn advance(&mut self, now: f64) {
        if now <= self.clock {
            return;
        }
        let live: Vec<FlowId> = self.ledger.live().collect();
        for id in live {
            let delivered = self.schedules[id].profile.volume_between(self.clock, now);
            if delivered > 0.0 {
                self.ledger.credit(id, delivered);
            }
        }
        self.clock = now;
        for id in self.ledger.retire(now) {
            self.schedules[id].replan(now, None);
        }
    }

    /// Handles one flow submission: advance, admission check, plan, and
    /// commit. Answers the newcomer's plan, or why the flow was turned
    /// away. Never panics; every failure mode becomes a rejection.
    pub fn submit(&mut self, flow: Flow) -> Result<WirePlan, String> {
        self.events += 1;
        let now = flow.release.max(self.clock);
        self.advance(now);
        let global = flow.id;
        let last = self.ledger.entries().last().map(|e| e.flow.id);
        let verdict = if flow.deadline <= now {
            Err(format!(
                "deadline {} is not after the shard clock {now}",
                flow.deadline
            ))
        } else if last.is_some_and(|last| global <= last) {
            Err(format!(
                "flow id {global} does not ascend past the bucket's last admitted id"
            ))
        } else {
            // The shard clock only moves forward; a release in the past is
            // served from now on, and the shorter span may overflow the
            // rate the flow needs.
            match Flow::new(global, flow.src, flow.dst, now, flow.deadline, flow.volume) {
                Ok(revealed) => {
                    let local = self.ledger.reveal(revealed);
                    let verdict = self.admit_and_plan(local);
                    if verdict.is_err() {
                        // A rejected candidate leaves no trace in the ledger.
                        self.ledger.pop();
                    }
                    verdict
                }
                Err(e) => Err(format!("at the shard clock {now}: {e}")),
            }
        };
        if verdict.is_err() {
            self.rejected.insert(global);
        }
        verdict
    }

    /// The ledger id of global flow id `id`.
    fn local(&self, id: FlowId) -> Option<FlowId> {
        let entries = self.ledger.entries();
        entries.binary_search_by_key(&id, |e| e.flow.id).ok()
    }

    /// Runs the admission rule on the revealed candidate `local` and, when
    /// it passes, admits and plans it. The error is the rejection reason;
    /// a rejected candidate leaves every schedule as it was.
    fn admit_and_plan(&mut self, local: FlowId) -> Result<WirePlan, String> {
        let world = WorldView::new(&self.ledger, self.clock);
        let feasible = self
            .settings
            .admission
            .evaluate(&mut self.ctx, &self.settings.power, &world, local)
            .map_err(|e| format!("feasibility probe failed: {e}"))?;
        if !feasible {
            return Err("candidate residual instance is fractionally infeasible".to_string());
        }
        self.ledger.admit(local);
        match self.settings.policy {
            ServePolicy::Edf | ServePolicy::Greedy => {
                self.paced(local).map(|plan| self.schedules.push(plan))
            }
            ServePolicy::Resolve => self.replan_resolved(),
        }
        .map_err(|e| format!("planning failed: {e}"))?;
        Ok(wire_plan(&self.schedules[local]))
    }

    /// The paced leg of live flow `id` from the clock on: its remaining
    /// volume at the required rate (EDF pacing) or at its path's bottleneck
    /// (greedy full blast), at a constant rate on its fewest-hop path of the
    /// current fabric. Other flows are untouched — under constant pacing, a
    /// flow that tracks its plan keeps its required rate. A rate that
    /// overflows to infinity (much volume left just before the deadline)
    /// is an error: no leg is built.
    fn paced(&mut self, id: FlowId) -> Result<FlowSchedule, SolveError> {
        let entry = &self.ledger.entries()[id];
        let flow = &entry.flow;
        let path = self
            .paths
            .shortest(&self.ctx, flow.id, flow.src, flow.dst)?;
        let (start, volume) = (self.clock, flow.volume - entry.delivered);
        let span = flow.deadline - start;
        let rate = if self.settings.policy == ServePolicy::Greedy {
            let bottleneck = path
                .links()
                .iter()
                .map(|&l| self.ctx.graph().capacity(l))
                .fold(self.settings.power.capacity(), f64::min);
            bottleneck.max(volume / span)
        } else {
            volume / span
        };
        if !rate.is_finite() {
            return Err(SolveError::InvalidInput {
                reason: format!(
                    "flow {} needs an unbounded rate: {volume} left {span} before its deadline",
                    flow.id
                ),
            });
        }
        let duration = (volume / rate).min(span);
        let profile = RateProfile::constant(start, start + duration, rate);
        Ok(FlowSchedule::uniform(flow.id, path.clone(), profile))
    }

    /// Re-solves the whole residual instance and re-plans every live flow
    /// onto its fresh leg from the clock (a newcomer's schedule is its leg
    /// alone). A failed solve changes nothing.
    fn replan_resolved(&mut self) -> Result<(), SolveError> {
        let (set, originals) = self.ledger.residual(self.clock, None)?;
        let algorithm = self
            .algorithm
            .as_mut()
            .expect("resolve policy constructs its algorithm");
        algorithm.set_seed(
            self.settings
                .seed
                .wrapping_add(self.events)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.bucket as u64 + 1),
        );
        let solution = algorithm.solve(&mut self.ctx, &set, &self.settings.power)?;
        let schedule = solution.schedule.ok_or_else(|| SolveError::InvalidInput {
            reason: "the resolve algorithm produced no schedule".to_string(),
        })?;
        let legs = (0..originals.len())
            .map(|residual_id| {
                schedule
                    .flow_schedule(residual_id)
                    .ok_or_else(|| SolveError::InvalidInput {
                        reason: format!("re-solve left residual flow {residual_id} unscheduled"),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (&id, leg) in originals.iter().zip(legs) {
            if id == self.schedules.len() {
                let global = self.ledger.entries()[id].flow.id;
                let path = leg.path.clone();
                self.schedules
                    .push(FlowSchedule::uniform(global, path, RateProfile::new()));
            }
            self.schedules[id].replan(self.clock, Some(leg));
        }
        Ok(())
    }

    /// The status of a flow id: `("in-flight" | "delivered" | "missed" |
    /// "rejected" | "unknown", delivered, remaining)`, as of the shard
    /// clock.
    pub fn query(&self, id: FlowId) -> (&'static str, f64, f64) {
        if self.rejected.contains(&id) {
            return ("rejected", 0.0, 0.0);
        }
        let Some(entry) = self.local(id).map(|local| &self.ledger.entries()[local]) else {
            return ("unknown", 0.0, 0.0);
        };
        let state = if entry.in_flight {
            "in-flight"
        } else if entry.missed {
            "missed"
        } else {
            "delivered"
        };
        let delivered = rendered_delivery(entry);
        (state, delivered, entry.flow.volume - delivered)
    }

    /// Applies a link failure or recovery to the shard's solver context
    /// (the graph epoch bump invalidates the path cache and warm-start
    /// fingerprints automatically) and, when the fabric changed, re-plans
    /// from the clock every live flow whose schedule after the clock rides
    /// a down link or that plans nothing after the clock: `edf`/`greedy`
    /// pace it afresh on its new fewest-hop path, `resolve` re-solves the
    /// residual once. A flow the fabric cannot route keeps nothing after
    /// the clock, and retires missed at its deadline unless a later
    /// recovery re-plans it. Returns whether the link state changed.
    pub fn apply_link_event(&mut self, link: LinkId, down: bool) -> bool {
        // Only the link matters to the context; the time is a label.
        let time = self.clock.max(0.0);
        let event = if down {
            TopologyEvent::LinkDown { time, link }
        } else {
            TopologyEvent::LinkUp { time, link }
        };
        let changed = self.ctx.apply_topology_event(event);
        if changed {
            self.replan_severed();
        }
        changed
    }

    /// The re-plan of [`ShardEngine::apply_link_event`].
    fn replan_severed(&mut self) {
        let (graph, clock) = (self.ctx.graph(), self.clock);
        let plans_past_clock =
            |profile: &RateProfile| profile.span().is_some_and(|(_, end)| end > clock);
        let severed: Vec<FlowId> = (self.ledger.live())
            .filter(|&id| {
                let schedule = &self.schedules[id];
                !plans_past_clock(&schedule.profile)
                    || (schedule.link_profiles())
                        .any(|(link, p)| !graph.is_link_up(link) && plans_past_clock(p))
            })
            .collect();
        if severed.is_empty()
            || (self.settings.policy == ServePolicy::Resolve && self.replan_resolved().is_ok())
        {
            return;
        }
        for id in severed {
            let leg = match self.settings.policy {
                ServePolicy::Resolve => None,
                ServePolicy::Edf | ServePolicy::Greedy => self.paced(id).ok(),
            };
            self.schedules[id].replan(clock, leg.as_ref());
        }
    }

    /// Dumps the shard's full state for a snapshot.
    pub fn state(&self) -> BucketState {
        BucketState {
            bucket: self.bucket,
            clock: self.clock.is_finite().then_some(self.clock),
            events: self.events,
            rejected: self.rejected.iter().map(|&id| id as u64).collect(),
            flows: (self.ledger.entries().iter())
                .zip(&self.schedules)
                .map(|(entry, schedule)| FlowRecord::new(entry, schedule))
                .collect(),
        }
    }

    /// Rebuilds a shard engine from a snapshot dump, on the pristine fabric.
    ///
    /// # Errors
    ///
    /// Propagates construction errors and answers every record that does
    /// not describe a valid flow, delivery state, path or rate piece on
    /// this network with a [`SolveError::InvalidInput`] naming the bucket,
    /// the flow and the field — a damaged file never panics a worker and
    /// is never believed.
    pub fn restore(
        network: &'net Network,
        settings: EngineSettings,
        state: &BucketState,
    ) -> Result<Self, SolveError> {
        let bucket = state.bucket;
        let mut engine = Self::new(network, settings, bucket)?;
        engine.clock = state.clock.unwrap_or(f64::NEG_INFINITY);
        engine.events = state.events;
        engine.rejected = state.rejected.iter().map(|&id| id as FlowId).collect();
        let invalid = |reason: String| SolveError::InvalidInput { reason };
        let mut entries: Vec<LedgerEntry> = Vec::with_capacity(state.flows.len());
        for record in &state.flows {
            let restored = record.restore(bucket, engine.ctx.graph());
            let (entry, schedule) = restored.map_err(|e| invalid(e.to_string()))?;
            if (entries.last()).is_some_and(|last| entry.flow.id <= last.flow.id) {
                let flow = record.id;
                return Err(invalid(format!(
                    "snapshot bucket {bucket} flow {flow}: `id` is invalid: ids must ascend"
                )));
            }
            engine.schedules.push(schedule);
            entries.push(entry);
        }
        engine.ledger = InFlightLedger::restore(entries);
        Ok(engine)
    }

    /// Marks `links` down without re-planning anything: the fabric a
    /// restored shard left, whose schedules already route around it.
    pub(crate) fn restore_down_links(&mut self, links: &[LinkId]) {
        for &link in links {
            (self.ctx).apply_topology_event(TopologyEvent::LinkDown { time: 0.0, link });
        }
    }
}

/// The delivered volume as replies and snapshots render it. The ledger's
/// credit rule is the engine's (unclamped), so float drift in the last
/// slice can overshoot the volume by an ulp; the wire never shows that.
pub(crate) fn rendered_delivery(entry: &LedgerEntry) -> f64 {
    entry.delivered.min(entry.flow.volume)
}

/// Renders a flow's schedule for the wire: its path and its constant-rate
/// segments, in time order.
fn wire_plan(schedule: &FlowSchedule) -> WirePlan {
    WirePlan {
        path: schedule.path.nodes().iter().map(|n| n.0).collect(),
        segments: (schedule.profile.segments().into_iter())
            .map(|(start, end, rate)| PlanSegment { start, end, rate })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotFile, SNAPSHOT_VERSION};
    use dcn_core::Schedule;
    use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
    use dcn_topology::{builders, NodeId, Path};
    use std::collections::BTreeMap;

    /// The shard's state as the audit reads it.
    fn audit(engine: &ShardEngine<'_>, network: &Network) -> Option<Schedule> {
        let file = SnapshotFile {
            version: SNAPSHOT_VERSION,
            topology: String::new(),
            policy: String::new(),
            admission: String::new(),
            seed: 0,
            flows_assigned: 0,
            assignments: Vec::new(),
            down_links: Vec::new(),
            buckets: vec![engine.state()],
        };
        file.schedule(network).ok()
    }

    /// `a` and `b` agree to 1e-12, relative.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    /// Drives one shard through 120 flows of fat-tree(4) at load 8 with
    /// link 6 → 4 down from the 40th submission to the 80th. Before every
    /// submission it logs the links each flow's schedule rides up to the
    /// submission, and after it the volume the shard credited the flow
    /// over that window. The final audit must carry the logged volume on
    /// every link, and every flow's schedule up to the clock its ledger's
    /// delivery. Returns the path moves seen.
    fn credits_against_the_audit(policy: ServePolicy, seed: u64) -> usize {
        let built = builders::fat_tree(4);
        let network = &built.network;
        let base = UniformWorkload::paper_defaults(120, seed).generate(&built.hosts);
        let flows = ArrivalProcess::with_load(8.0, seed).apply(&base.expect("workload"));
        let settings = EngineSettings {
            power: PowerFunction::speed_scaling_only(1.0, 2.0, 10.0),
            policy,
            admission: AdmissionRule::AdmitAll,
            algorithm: "dcfsr".to_string(),
            seed,
        };
        let mut engine = ShardEngine::new(network, settings, 0).expect("engine builds");
        let failed = (built.csr().find_link(NodeId(6), NodeId(4))).expect("fat-tree link");
        let mut logged: BTreeMap<LinkId, f64> = BTreeMap::new();
        let mut paths: BTreeMap<FlowId, Path> = BTreeMap::new();
        let (mut moves, mut clock) = (0, f64::NEG_INFINITY);
        for (k, flow) in flows.expect("arrivals").iter().enumerate() {
            if k == 40 || k == 80 {
                assert!(engine.apply_link_event(failed, k == 40));
            }
            let now = flow.release.max(clock);
            let mut windows = Vec::new();
            for fs in audit(&engine, network)
                .iter()
                .flat_map(Schedule::flow_schedules)
            {
                if paths
                    .insert(fs.flow, fs.path.clone())
                    .is_some_and(|p| p != fs.path)
                {
                    moves += 1;
                }
                let links: Vec<LinkId> = (fs.link_profiles())
                    .filter(|(_, profile)| profile.volume_between(clock, now) > 0.0)
                    .map(|(link, _)| link)
                    .collect();
                if (40..80).contains(&k) {
                    assert!(
                        !links.contains(&failed),
                        "flow {} rides a down link",
                        fs.flow
                    );
                }
                windows.push((fs.flow, links, engine.query(fs.flow).1));
            }
            engine.submit(flow.clone()).expect("admit-all admits");
            for (id, links, before) in windows {
                let credited = engine.query(id).1 - before;
                for link in links {
                    *logged.entry(link).or_default() += credited;
                }
            }
            clock = now;
        }

        let schedule = audit(&engine, network).expect("the audit rebuilds");
        let mut audited: BTreeMap<LinkId, f64> = BTreeMap::new();
        for fs in schedule.flow_schedules() {
            for (link, profile) in fs.link_profiles() {
                *audited.entry(link).or_default() +=
                    profile.volume_between(f64::NEG_INFINITY, clock);
            }
            let (_, delivered, _) = engine.query(fs.flow);
            let scheduled = fs.profile.volume_between(f64::NEG_INFINITY, clock);
            assert!(
                close(delivered, scheduled),
                "{} seed {seed}: flow {} delivered {delivered}, its schedule {scheduled}",
                policy.name(),
                fs.flow
            );
        }
        audited.retain(|_, volume| *volume > 0.0);
        logged.retain(|_, volume| *volume > 0.0);
        assert_eq!(
            audited.keys().collect::<Vec<_>>(),
            logged.keys().collect::<Vec<_>>()
        );
        for (link, volume) in &logged {
            assert!(
                close(audited[link], *volume),
                "{} seed {seed}: link {link} audited {}, credited {volume}",
                policy.name(),
                audited[link]
            );
        }
        moves
    }

    #[test]
    fn the_audit_carries_what_the_shard_credited_on_the_links_it_used() {
        let mut moves = 0;
        for seed in 1..=3 {
            for policy in [ServePolicy::Resolve, ServePolicy::Edf] {
                moves += credits_against_the_audit(policy, seed);
            }
        }
        assert!(moves > 50, "only {moves} path moves: the check is vacuous");
    }

    fn engine(network: &Network, policy: ServePolicy) -> ShardEngine<'_> {
        let settings = EngineSettings {
            power: PowerFunction::speed_scaling_only(1.0, 2.0, 10.0),
            policy,
            admission: AdmissionRule::AdmitAll,
            algorithm: "dcfsr".to_string(),
            seed: 1,
        };
        ShardEngine::new(network, settings, 0).expect("engine builds")
    }

    fn flow(id: FlowId, release: f64, deadline: f64, volume: f64) -> Flow {
        Flow::new(id, NodeId(17), NodeId(26), release, deadline, volume).expect("valid flow")
    }

    /// A flow valid at its release whose required rate overflows at the
    /// shard clock is turned away, and the shard keeps serving.
    #[test]
    fn a_rate_that_overflows_at_the_shard_clock_is_a_rejection() {
        let network = builders::fat_tree(4).network;
        for policy in [ServePolicy::Edf, ServePolicy::Greedy, ServePolicy::Resolve] {
            let mut engine = engine(&network, policy);
            assert!(engine.submit(flow(0, 5.0, 9.0, 1.0)).is_ok());
            let late = flow(1, 0.0, 5.000000000000001, 1e300);
            let reason = engine.submit(late).expect_err("the rate is unbounded");
            assert!(reason.contains("finite"), "{}: {reason}", policy.name());
            assert_eq!(engine.query(1).0, "rejected");
            assert!(engine.submit(flow(2, 6.0, 9.0, 1.0)).is_ok());
        }
    }

    /// A flow that could not be routed for most of its span is re-planned
    /// on recovery with almost no time left: the rate it would need
    /// overflows, so it keeps no plan and misses instead of panicking.
    #[test]
    fn a_replan_that_needs_an_unbounded_rate_leaves_the_flow_unplanned() {
        let built = builders::fat_tree(4);
        let uplink = built.csr().out_links(NodeId(17))[0];
        let network = built.network;
        for policy in [ServePolicy::Edf, ServePolicy::Greedy] {
            let mut engine = engine(&network, policy);
            assert!(engine.submit(flow(0, 0.0, 10.0, 1e300)).is_ok());
            assert!(engine.apply_link_event(uplink, true));
            let other = Flow::new(1, NodeId(18), NodeId(26), 10.0 - 1e-14, 11.0, 1.0);
            assert!(engine.submit(other.expect("valid flow")).is_ok());
            assert!(engine.apply_link_event(uplink, false));
            assert_eq!(engine.query(0).0, "in-flight", "{}", policy.name());
            assert!(engine.submit(flow(2, 10.5, 12.0, 1.0)).is_ok());
            assert_eq!(engine.query(0).0, "missed", "{}", policy.name());
        }
    }
}
