//! The per-shard scheduling engine: one warm [`SolverContext`] plus an
//! [`InFlightLedger`] of admitted flows, advanced one submission at a
//! time.
//!
//! A [`ShardEngine`] owns everything one logical shard (pod bucket)
//! needs to answer requests: the residual state of its admitted flows,
//! the rate plan currently committed for each, and the stitched history
//! of what those plans already delivered. Time is the *logical* clock of
//! the request stream — each submission advances the shard to the flow's
//! release time, credits every live flow with the volume its plan
//! delivered in the meantime, retires completed or expired flows, and
//! only then decides admission. Nothing reads the wall clock, so a
//! shard's decisions are a pure function of the subsequence of requests
//! routed to it — the bedrock of the daemon's determinism contract (same
//! request stream, same replies, at any `--shard-workers` width).
//!
//! The flow state itself (retire rule, residual builder, volume tolerance)
//! is the core [`InFlightLedger`], and admission is the core
//! [`AdmissionRule`]; the *planners* are the shard's own, because they are
//! a different algorithm from the core policies of the same name: `edf` and
//! `greedy` pace only the newcomer, O(1) per submission, and keep **no
//! per-link account** — see "What the daemon does not guarantee" in
//! [`crate`]'s docs and EXPERIMENTS.md ("Why `dcn-server` keeps its own
//! planners") for the measured price of the alternative.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use dcn_core::online::{AdmissionRule, InFlightLedger, PathCache, WorldView};
use dcn_core::{Algorithm, AlgorithmRegistry, LedgerEntry, SolveError, SolverContext};
use dcn_flow::{Flow, FlowId};
use dcn_power::{PowerFunction, RateProfile};
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::{LinkId, Network, NodeId, Path, TopologyEvent};

use crate::protocol::{PlanSegment, WirePlan};
use crate::snapshot::{BucketState, FlowRecord, PlanRecord};

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
    /// Admission rule (`reject-infeasible` probes with
    /// [`serve_fmcf_config`] and a `1e-3` capacity slack).
    pub admission: AdmissionRule,
    /// Registry name of the algorithm behind [`ServePolicy::Resolve`].
    pub algorithm: String,
    /// Base seed; per-solve seeds derive from it, the bucket id and the
    /// bucket-local event index (never from thread identity).
    pub seed: u64,
}

/// The committed plan of one live flow: its path and the rate profile
/// from the shard clock onwards.
#[derive(Debug, Clone)]
struct Plan {
    path: Arc<Path>,
    profile: RateProfile,
}

/// The Frank–Wolfe configuration shards use for admission probes: the
/// benchmark harness's serving-grade settings
/// (fewer iterations and a looser tolerance than the offline default).
pub fn serve_fmcf_config() -> FmcfSolverConfig {
    FmcfSolverConfig {
        max_iterations: 25,
        tolerance: 1e-3,
        line_search_steps: 24,
        ..Default::default()
    }
}

/// One logical shard: warm solver context + residual state. See the
/// module docs for the time model.
pub struct ShardEngine<'net> {
    bucket: usize,
    ctx: SolverContext<'net>,
    settings: EngineSettings,
    algorithm: Option<Box<dyn Algorithm>>,
    /// The bucket's admitted flows. A ledger id is bucket-local (`plans`
    /// and `committed` are keyed by it); the entry's `flow.id` is the
    /// global id. Submissions reach a bucket in ascending global id, so
    /// local → global is an index and global → local a binary search.
    ledger: InFlightLedger,
    plans: BTreeMap<FlowId, Plan>,
    /// The stitched history of every flow that delivered anything,
    /// indexed by ledger id like the ledger itself (a dense table: every
    /// live plan's history is one index away at each submission).
    committed: Vec<Option<Plan>>,
    /// Global ids of the flows turned away (snapshots carry no flow data
    /// for them, so they never stay in the ledger).
    rejected: BTreeSet<FlowId>,
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
            plans: BTreeMap::new(),
            committed: Vec::new(),
            rejected: BTreeSet::new(),
            paths: PathCache::new(),
            clock: f64::NEG_INFINITY,
            events: 0,
        })
    }

    /// Advances the shard to `now`: credits every live flow with the
    /// volume its plan delivered over `[clock, now)`, stitches that slice
    /// into the committed history, and retires done or expired flows.
    ///
    /// The slice is appended segment by segment, clipped to the window —
    /// what `RateProfile::restricted` would build, without building it. A
    /// paced plan is one stored piece, which is its own segment list; only
    /// a re-solved plan with several pieces has them merged first. A
    /// carried-on plan extends its history's last piece instead of adding
    /// one per submission.
    fn advance(&mut self, now: f64) {
        if now <= self.clock {
            return;
        }
        let from = self.clock;
        for (&id, plan) in &self.plans {
            let delivered = plan.profile.volume_between(from, now);
            if delivered <= 0.0 {
                continue;
            }
            self.ledger.credit(id, delivered);
            let segments = match plan.profile.pieces() {
                one @ [_] => Cow::Borrowed(one),
                _ => Cow::Owned(plan.profile.segments()),
            };
            if self.committed.len() <= id {
                self.committed.resize_with(id + 1, || None);
            }
            let history = self.committed[id].get_or_insert_with(|| Plan {
                path: plan.path.clone(),
                profile: RateProfile::new(),
            });
            // Only a re-solve moves a flow to another path.
            if !Arc::ptr_eq(&history.path, &plan.path) {
                history.path = plan.path.clone();
            }
            for &(start, end, rate) in segments.iter() {
                let (lo, hi) = (start.max(from), end.min(now));
                if hi > lo {
                    history.profile.append_rate(lo, hi, rate);
                }
            }
        }
        self.clock = now;
        for id in self.ledger.retire(now) {
            self.plans.remove(&id);
        }
    }

    /// Handles one flow submission: advance, admission check, plan, and
    /// commit. Answers the committed plan, or why the flow was turned
    /// away. Never panics; every failure mode becomes a rejection.
    pub fn submit(&mut self, flow: Flow) -> Result<WirePlan, String> {
        self.events += 1;
        let now = flow.release.max(if self.clock.is_finite() {
            self.clock
        } else {
            flow.release
        });
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
            // served from now on.
            let local = self.ledger.reveal(Flow {
                release: now,
                ..flow
            });
            let verdict = self.admit_and_plan(local);
            if verdict.is_err() {
                // A rejected candidate leaves no trace in the ledger.
                self.ledger.pop();
                self.plans.remove(&local);
            }
            verdict
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
    /// it passes, admits and plans it. The error is the rejection reason.
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
            ServePolicy::Edf => self.plan_paced(local, false),
            ServePolicy::Greedy => self.plan_paced(local, true),
            ServePolicy::Resolve => self.plan_resolved(),
        }
        .map_err(|e| format!("planning failed: {e}"))?;
        Ok(wire_plan(&self.plans[&local]))
    }

    /// Plans the new flow alone at a constant rate on its fewest-hop
    /// path: the required rate (EDF pacing) or the path bottleneck
    /// (greedy full blast). Existing plans are untouched — under constant
    /// pacing, a flow that tracks its plan keeps its required rate.
    fn plan_paced(&mut self, local: FlowId, full_blast: bool) -> Result<(), SolveError> {
        let flow = &self.ledger.entries()[local].flow;
        let path = self
            .paths
            .shortest(&self.ctx, flow.id, flow.src, flow.dst)?;
        let span = flow.deadline - flow.release;
        let rate = if full_blast {
            let bottleneck = path
                .links()
                .iter()
                .map(|&l| self.ctx.graph().capacity(l))
                .fold(self.settings.power.capacity(), f64::min);
            bottleneck.max(flow.volume / span)
        } else {
            flow.volume / span
        };
        let duration = (flow.volume / rate).min(span);
        let profile = RateProfile::constant(flow.release, flow.release + duration, rate);
        self.plans.insert(local, Plan { path, profile });
        Ok(())
    }

    /// Re-solves the whole residual instance and replaces every live
    /// flow's plan with the fresh schedule.
    fn plan_resolved(&mut self) -> Result<(), SolveError> {
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
        let mut fresh: BTreeMap<FlowId, Plan> = BTreeMap::new();
        for (residual_id, &original) in originals.iter().enumerate() {
            let fs =
                schedule
                    .flow_schedule(residual_id)
                    .ok_or_else(|| SolveError::InvalidInput {
                        reason: format!("re-solve left residual flow {residual_id} unscheduled"),
                    })?;
            fresh.insert(
                original,
                Plan {
                    path: Arc::new(fs.path.clone()),
                    profile: fs.profile.clone(),
                },
            );
        }
        self.plans = fresh;
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

    /// Applies a link failure or recovery to the shard's solver context.
    /// Subsequent plans and re-solves see the updated fabric (the graph
    /// epoch bump invalidates the path cache and warm-start fingerprints
    /// automatically). Returns whether the link state actually changed.
    pub fn apply_link_event(&mut self, link: LinkId, down: bool) -> bool {
        let time = if self.clock.is_finite() {
            self.clock
        } else {
            0.0
        };
        let event = if down {
            TopologyEvent::LinkDown { time, link }
        } else {
            TopologyEvent::LinkUp { time, link }
        };
        self.ctx.apply_topology_event(event)
    }

    /// Dumps the shard's full state for a snapshot.
    pub fn state(&self) -> BucketState {
        let plan_records = |plans: &mut dyn Iterator<Item = (FlowId, &Plan)>| -> Vec<PlanRecord> {
            plans
                .map(|(local, plan)| PlanRecord {
                    flow: self.ledger.entries()[local].flow.id as u64,
                    path: plan.path.nodes().iter().map(|n| n.0).collect(),
                    segments: plan_segments(plan),
                })
                .collect()
        };
        BucketState {
            bucket: self.bucket,
            clock: if self.clock.is_finite() {
                Some(self.clock)
            } else {
                None
            },
            events: self.events,
            rejected: self.rejected.iter().map(|&id| id as u64).collect(),
            flows: self
                .ledger
                .entries()
                .iter()
                .map(|entry| FlowRecord {
                    id: entry.flow.id as u64,
                    src: entry.flow.src.0,
                    dst: entry.flow.dst.0,
                    release: entry.flow.release,
                    deadline: entry.flow.deadline,
                    volume: entry.flow.volume,
                    delivered: rendered_delivery(entry),
                    retired: !entry.in_flight,
                    missed: entry.missed,
                })
                .collect(),
            plans: plan_records(&mut self.plans.iter().map(|(&local, plan)| (local, plan))),
            committed: plan_records(
                &mut (self.committed.iter().enumerate())
                    .filter_map(|(local, history)| Some((local, history.as_ref()?))),
            ),
        }
    }

    /// Rebuilds a shard engine from a snapshot dump.
    ///
    /// # Errors
    ///
    /// Propagates construction errors and answers every record that does
    /// not describe a valid flow, delivery state, path or rate segment on
    /// this network with a [`SolveError::InvalidInput`] naming the bucket,
    /// the flow and the field — a damaged file never panics a worker and
    /// is never believed.
    pub fn restore(
        network: &'net Network,
        settings: EngineSettings,
        state: &BucketState,
    ) -> Result<Self, SolveError> {
        let mut engine = Self::new(network, settings, state.bucket)?;
        engine.clock = state.clock.unwrap_or(f64::NEG_INFINITY);
        engine.events = state.events;
        engine.rejected = state.rejected.iter().map(|&id| id as FlowId).collect();
        let mut entries: Vec<LedgerEntry> = Vec::with_capacity(state.flows.len());
        for record in &state.flows {
            let entry = record.to_entry(state.bucket)?;
            if entries
                .last()
                .is_some_and(|last| entry.flow.id <= last.flow.id)
            {
                return Err(damaged(state.bucket, record.id, "id", "ids must ascend"));
            }
            entries.push(entry);
        }
        engine.ledger = InFlightLedger::restore(entries);
        engine.plans = engine.restore_plans(network, &state.plans, "plans")?;
        engine
            .committed
            .resize_with(engine.ledger.entries().len(), || None);
        for (local, history) in engine.restore_plans(network, &state.committed, "committed")? {
            engine.committed[local] = Some(history);
        }
        Ok(engine)
    }

    /// Rebuilds one plan map of a snapshot dump against a network, keyed
    /// by the ledger's local ids.
    fn restore_plans(
        &self,
        network: &Network,
        records: &[PlanRecord],
        field: &str,
    ) -> Result<BTreeMap<FlowId, Plan>, SolveError> {
        let mut plans = BTreeMap::new();
        for record in records {
            let local = self.local(record.flow as FlowId).ok_or_else(|| {
                damaged(self.bucket, record.flow, field, "flow is not in `flows`")
            })?;
            plans.insert(local, record.to_plan(network, self.bucket, field)?);
        }
        Ok(plans)
    }
}

/// The typed error for a snapshot record that cannot be believed.
fn damaged(bucket: usize, flow: u64, field: &str, why: impl std::fmt::Display) -> SolveError {
    SolveError::InvalidInput {
        reason: format!("snapshot bucket {bucket} flow {flow}: `{field}` is invalid: {why}"),
    }
}

impl PlanRecord {
    fn to_plan(&self, network: &Network, bucket: usize, field: &str) -> Result<Plan, SolveError> {
        let nodes: Vec<_> = self.path.iter().map(|&n| NodeId(n)).collect();
        let path = Path::from_nodes(network, &nodes)
            .map(Arc::new)
            .map_err(|e| damaged(bucket, self.flow, &format!("{field}.path"), e))?;
        let mut profile = RateProfile::new();
        for segment in &self.segments {
            let (start, end, rate) = (segment.start, segment.end, segment.rate);
            // Exactly what `RateProfile::add_rate` would assert.
            let sound = start.is_finite() && end.is_finite() && end >= start;
            if !(sound && rate.is_finite() && rate >= 0.0) {
                return Err(damaged(
                    bucket,
                    self.flow,
                    &format!("{field}.segments"),
                    format_args!("[{start}, {end}) at rate {rate}"),
                ));
            }
            profile.add_rate(start, end, rate);
        }
        Ok(Plan { path, profile })
    }
}

impl FlowRecord {
    fn to_entry(&self, bucket: usize) -> Result<LedgerEntry, SolveError> {
        let flow = Flow::new(
            self.id as FlowId,
            NodeId(self.src),
            NodeId(self.dst),
            self.release,
            self.deadline,
            self.volume,
        )
        .map_err(|e| damaged(bucket, self.id, "flow", e))?;
        if !(self.delivered >= 0.0 && self.delivered <= self.volume) {
            return Err(damaged(
                bucket,
                self.id,
                "delivered",
                format_args!("{} is outside [0, {}]", self.delivered, self.volume),
            ));
        }
        if self.missed && !self.retired {
            return Err(damaged(
                bucket,
                self.id,
                "missed",
                "a missed flow is retired",
            ));
        }
        Ok(LedgerEntry {
            flow,
            admitted: true,
            in_flight: !self.retired,
            missed: self.missed,
            delivered: self.delivered,
            stranded: false,
            failure_touched: false,
        })
    }
}

/// The delivered volume as replies and snapshots render it. The ledger's
/// credit rule is the engine's (unclamped), so float drift in the last
/// slice can overshoot the volume by an ulp; the wire never shows that.
fn rendered_delivery(entry: &LedgerEntry) -> f64 {
    entry.delivered.min(entry.flow.volume)
}

/// The constant-rate segments of a plan, in time order.
fn plan_segments(plan: &Plan) -> Vec<PlanSegment> {
    plan.profile
        .segments()
        .into_iter()
        .map(|(start, end, rate)| PlanSegment { start, end, rate })
        .collect()
}

/// Renders a plan for the wire.
fn wire_plan(plan: &Plan) -> WirePlan {
    WirePlan {
        path: plan.path.nodes().iter().map(|n| n.0).collect(),
        segments: plan_segments(plan),
    }
}
