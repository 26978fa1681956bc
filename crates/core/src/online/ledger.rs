//! The in-flight ledger: the one per-flow state both online drivers run on.
//!
//! [`InFlightLedger`] is a dense table (`Vec` indexed by flow id) of every
//! flow a driver has seen, each [`LedgerEntry`] carrying the flow itself
//! plus its admit/deliver/miss state, and the id sets of the flows
//! currently *live* (admitted, not fully served, not expired) and
//! *stranded* (admitted but disconnected by link failures). The live set
//! is indexed twice: by id ([`InFlightLedger::live`], what the residual
//! builder and the shard walk) and by `(deadline, id)`
//! ([`InFlightLedger::live_by_deadline`], the order `edf` packs in), both
//! kept in step by every transition, so no event re-sorts the live set.
//! The deadline index is derived state: snapshots carry the entries only,
//! and [`InFlightLedger::restore`] rebuilds it. It has two users:
//!
//! * [`super::engine::OnlineEngine`] reveals the whole instance up front
//!   and drives one ledger through a batch run;
//! * every `dcn-server` shard keeps one under bucket-local dense ids,
//!   reveals flows one submission at a time, and dumps/restores it
//!   through snapshots ([`InFlightLedger::entries`] /
//!   [`InFlightLedger::restore`]).
//!
//! What a flow's state *means* is decided here and nowhere else: the
//! retire rule ([`InFlightLedger::retire`]: delivered to within the volume
//! tolerance, or out of time — the latter is a miss), the strand/revive
//! triage after a topology change, the final miss accounting, and the
//! residual-instance builder ([`InFlightLedger::residual`]) that admission
//! probes and re-solves operate on.
//!
//! The ledger never touches wall-clock time: `now` is always supplied by
//! the caller, so decisions stay a pure function of the event stream.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use dcn_flow::{Flow, FlowId, FlowSet};

use super::residual_flow;
use crate::error::SolveError;
use crate::schedule::delivers;

/// Relative volume tolerance of the retire rule: a live flow this close to
/// its volume is fully served and leaves the live set. A scheduling rule,
/// far tighter than the verdict on a run ([`delivers`]'s
/// `1e-6·max(w, 1)`), which [`InFlightLedger::settle`] applies.
const VOLUME_TOL: f64 = 1e-9;

/// One flow tracked by an [`InFlightLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The flow, exactly as revealed (full volume).
    pub flow: Flow,
    /// Whether the flow was admitted.
    pub admitted: bool,
    /// Admitted, not yet fully served, deadline not yet passed.
    pub in_flight: bool,
    /// Whether the flow ran out of time with volume outstanding.
    pub missed: bool,
    /// Volume credited so far.
    pub delivered: f64,
    /// Admitted but currently disconnected by link failures: out of the
    /// live set until a recovery reconnects the endpoints (or the deadline
    /// expires first).
    pub stranded: bool,
    /// A failure stranded this flow or severed a path its committed rates
    /// were riding; a final miss is then attributed to the failure.
    pub failure_touched: bool,
}

impl LedgerEntry {
    /// The delivered half of the retire rule.
    fn served(&self) -> bool {
        self.delivered >= self.flow.volume * (1.0 - VOLUME_TOL)
    }
}

/// The per-flow state of an online driver. See the module docs for the
/// contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InFlightLedger {
    entries: Vec<LedgerEntry>,
    /// The ids with `in_flight` set, so per-event work scales with the
    /// in-flight population instead of the whole table (100k-arrival
    /// traces make a full scan per event the dominant cost).
    live: BTreeSet<FlowId>,
    /// The same ids sorted by `(deadline.total_cmp, id)`: the earliest-
    /// deadline-first order, maintained by binary search on every
    /// transition instead of re-sorted at every event.
    by_deadline: Vec<FlowId>,
    /// The ids with `stranded` set.
    stranded: BTreeSet<FlowId>,
}

impl InFlightLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a not-yet-admitted flow and returns its ledger id: the
    /// entry's index, which every other method addresses it by. (The core
    /// engine reveals a validated flow set in order, so `flow.id` is the
    /// same number; a shard keeps the flow's global id there.)
    pub fn reveal(&mut self, flow: Flow) -> FlowId {
        self.entries.push(LedgerEntry {
            flow,
            admitted: false,
            in_flight: false,
            missed: false,
            delivered: 0.0,
            stranded: false,
            failure_touched: false,
        });
        self.entries.len() - 1
    }

    /// Removes the most recently revealed flow again (a candidate that was
    /// turned away leaves no trace). Returns the entry, if one existed.
    pub fn pop(&mut self) -> Option<LedgerEntry> {
        let id = self.entries.len().checked_sub(1)?;
        self.live_remove(id);
        self.stranded.remove(&id);
        self.entries.pop()
    }

    /// Admits a revealed flow into the live set. Unknown ids are ignored.
    pub fn admit(&mut self, id: FlowId) {
        if let Some(entry) = self.entries.get_mut(id) {
            entry.admitted = true;
            entry.in_flight = true;
            self.live_insert(id);
        }
    }

    /// Adds `id` to both indexes of the live set (a no-op when it is live).
    fn live_insert(&mut self, id: FlowId) {
        if self.live.insert(id) {
            if let Err(slot) = self.deadline_slot(id) {
                self.by_deadline.insert(slot, id);
            }
        }
    }

    /// Removes `id` from both indexes of the live set (a no-op when it is
    /// not live).
    fn live_remove(&mut self, id: FlowId) {
        if self.live.remove(&id) {
            if let Ok(slot) = self.deadline_slot(id) {
                self.by_deadline.remove(slot);
            }
        }
    }

    /// Where `id` sits (`Ok`) or belongs (`Err`) in `by_deadline`.
    fn deadline_slot(&self, id: FlowId) -> Result<usize, usize> {
        self.by_deadline
            .binary_search_by(|&other| deadline_order(&self.entries, other, id))
    }

    /// Takes an admitted flow out of the live set because no route connects
    /// its endpoints.
    pub(crate) fn strand(&mut self, id: FlowId) {
        let entry = &mut self.entries[id];
        entry.in_flight = false;
        entry.stranded = true;
        entry.failure_touched = true;
        self.live_remove(id);
        self.stranded.insert(id);
    }

    /// Records that a failure severed a path `id`'s committed rates were
    /// riding.
    pub(crate) fn mark_failure_touched(&mut self, id: FlowId) {
        self.entries[id].failure_touched = true;
    }

    /// Credits delivered volume to a live flow. Credit to retired or
    /// unknown flows is ignored.
    pub fn credit(&mut self, id: FlowId, volume: f64) {
        if let Some(entry) = self.entries.get_mut(id) {
            if entry.in_flight {
                entry.delivered += volume;
            }
        }
    }

    /// Re-triages after a topology change: strands every live flow whose
    /// endpoints `connected` reports cut off, then revives the stranded
    /// flows a recovery reconnected, if they still have time and volume
    /// left at `now`.
    pub(crate) fn triage(&mut self, now: f64, mut connected: impl FnMut(&Flow) -> bool) {
        let unreachable = |id: &FlowId| !connected(&self.entries[*id].flow);
        let cut: Vec<FlowId> = self.live().filter(unreachable).collect();
        for id in cut {
            self.strand(id);
        }
        let revivable = |id: &FlowId| {
            let entry = &self.entries[*id];
            entry.flow.deadline > now && !entry.served() && connected(&entry.flow)
        };
        let back: Vec<FlowId> = self.stranded.iter().copied().filter(revivable).collect();
        for id in back {
            self.stranded.remove(&id);
            self.live_insert(id);
            self.entries[id].in_flight = true;
            self.entries[id].stranded = false;
        }
    }

    /// Retires every live flow that is fully served or whose deadline has
    /// passed at `now` (the latter is marked missed). Returns the retired
    /// ids in ascending order.
    ///
    /// One walk of the deadline index drops them from it in place; only the
    /// few retired ids are sorted, and looked up in the id set.
    pub fn retire(&mut self, now: f64) -> Vec<FlowId> {
        let mut retired = Vec::new();
        let entries = &mut self.entries;
        self.by_deadline.retain(|&id| {
            let entry = &mut entries[id];
            let served = entry.served();
            let retires = served || entry.flow.deadline <= now;
            if retires {
                entry.in_flight = false;
                entry.missed = !served;
                retired.push(id);
            }
            !retires
        });
        retired.sort_unstable();
        for id in &retired {
            self.live.remove(id);
        }
        retired
    }

    /// Final accounting of a finished run: an admitted flow that never
    /// received its volume, as [`delivers`] judges it, missed its deadline,
    /// whether or not it was ever retired.
    pub(crate) fn settle(&mut self) {
        for entry in &mut self.entries {
            if entry.admitted && !delivers(entry.flow.volume, entry.delivered) {
                entry.missed = true;
            }
        }
    }

    /// Every revealed flow, indexed by ledger id. This is the snapshot view:
    /// feeding the cloned entries to [`InFlightLedger::restore`]
    /// reproduces the ledger.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The live flow ids, in ascending order.
    pub fn live(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.live.iter().copied()
    }

    /// The live flow ids by deadline, ties by id: the order
    /// earliest-deadline-first serves them in.
    pub fn live_by_deadline(&self) -> &[FlowId] {
        &self.by_deadline
    }

    /// Rebuilds a ledger from dumped entries; the live and stranded sets
    /// and the deadline index are derived from the flags.
    pub fn restore(entries: Vec<LedgerEntry>) -> Self {
        let ids_where = |flag: fn(&LedgerEntry) -> bool| {
            (0..entries.len())
                .filter(|&id| flag(&entries[id]))
                .collect()
        };
        let live: BTreeSet<FlowId> = ids_where(|e| e.in_flight);
        let mut by_deadline: Vec<FlowId> = live.iter().copied().collect();
        by_deadline.sort_by(|&a, &b| deadline_order(&entries, a, b));
        Self {
            live,
            by_deadline,
            stranded: ids_where(|e| e.stranded),
            entries,
        }
    }

    /// Builds the residual instance at `now` from every live flow (plus
    /// `extra`, a revealed but not-yet-admitted candidate), in flow-id
    /// order with remaining volumes and releases clamped to `now`, and the
    /// residual-id → ledger-id map.
    ///
    /// # Errors
    ///
    /// * [`SolveError::EmptyFlowSet`] when nothing is live.
    /// * [`residual_flow`] errors for an expired or fully served flow.
    pub fn residual(
        &self,
        now: f64,
        extra: Option<FlowId>,
    ) -> Result<(FlowSet, Vec<FlowId>), SolveError> {
        let mut map: Vec<FlowId> = self.live().collect();
        if let Some(id) = extra {
            if let Err(slot) = map.binary_search(&id) {
                map.insert(slot, id);
            }
        }
        if map.is_empty() {
            return Err(SolveError::EmptyFlowSet);
        }
        let mut residual = Vec::with_capacity(map.len());
        for (rid, &orig) in map.iter().enumerate() {
            let entry = &self.entries[orig];
            residual.push(residual_flow(
                &entry.flow,
                now,
                entry.flow.volume - entry.delivered,
                rid,
            )?);
        }
        let set = FlowSet::from_flows(residual).map_err(SolveError::from)?;
        Ok((set, map))
    }
}

/// The earliest-deadline-first order of ledger ids `a` and `b`: by
/// deadline, ties by id.
fn deadline_order(entries: &[LedgerEntry], a: FlowId, b: FlowId) -> Ordering {
    let deadline = |id: FlowId| entries[id].flow.deadline;
    deadline(a).total_cmp(&deadline(b)).then(a.cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::NodeId;

    fn flow(id: usize, release: f64, deadline: f64, volume: f64) -> Flow {
        Flow::new(id, NodeId(0), NodeId(1), release, deadline, volume).expect("valid test flow")
    }

    /// A ledger with every given flow revealed and admitted.
    fn admitted(flows: impl IntoIterator<Item = Flow>) -> InFlightLedger {
        let mut ledger = InFlightLedger::new();
        for flow in flows {
            let id = ledger.reveal(flow);
            ledger.admit(id);
        }
        ledger
    }

    #[test]
    fn admit_credit_retire_cycle() {
        let mut ledger = InFlightLedger::new();
        assert_eq!(ledger.reveal(flow(0, 0.0, 10.0, 5.0)), 0);
        assert_eq!(ledger.reveal(flow(1, 0.0, 2.0, 4.0)), 1);
        assert_eq!(ledger.live().count(), 0, "revealed is not admitted");
        ledger.admit(0);
        ledger.admit(1);
        assert_eq!(ledger.live().collect::<Vec<_>>(), vec![0, 1]);

        ledger.credit(0, 5.0);
        // Flow 1 misses: deadline 2.0 passes with volume outstanding.
        let retired = ledger.retire(3.0);
        assert_eq!(retired, vec![0, 1]);
        assert!(!ledger.entries()[0].missed);
        assert!(ledger.entries()[1].missed);
        assert!(ledger.entries().iter().all(|e| e.admitted && !e.in_flight));
        assert_eq!(ledger.live().count(), 0);
        assert_eq!(ledger.entries().len(), 2);

        // A rejected candidate leaves no trace.
        assert_eq!(ledger.reveal(flow(2, 3.0, 9.0, 1.0)), 2);
        assert_eq!(ledger.pop().unwrap().flow.id, 2);
        assert_eq!(ledger.entries().len(), 2);
    }

    #[test]
    fn settle_misses_exactly_the_flows_the_audit_finds_short() {
        // Short of the volume by less than `delivers` allows is delivered,
        // by more is a miss.
        let cases = [
            (0.5, 8e-7, false),
            (10.0, 2e-6, false),
            (0.5, 2e-6, true),
            (10.0, 2e-5, true),
        ];
        let mut ledger = admitted((0..cases.len()).map(|id| flow(id, 0.0, 10.0, cases[id].0)));
        for (id, &(volume, short, _)) in cases.iter().enumerate() {
            ledger.credit(id, volume - short);
        }
        ledger.settle();
        for (entry, &(volume, short, missed)) in ledger.entries().iter().zip(&cases) {
            assert_eq!(entry.missed, missed, "volume {volume} short by {short}");
            assert_eq!(!entry.missed, delivers(volume, entry.delivered));
        }
    }

    #[test]
    fn credit_ignores_retired_and_unknown_flows() {
        let mut ledger = admitted([flow(0, 0.0, 10.0, 5.0)]);
        ledger.credit(0, 5.0);
        ledger.retire(1.0);
        ledger.credit(0, 1.0);
        assert_eq!(ledger.entries()[0].delivered, 5.0);
        // Unknown ids are a no-op, not a panic.
        ledger.credit(9, 1.0);
        ledger.admit(9);
        assert_eq!(ledger.entries().len(), 1);
    }

    #[test]
    fn residual_translates_ids_and_clamps_release() {
        let mut ledger = InFlightLedger::new();
        // Ledger ids are positions, whatever id the flow itself carries:
        // 0 and 2 are live, 1 was never admitted, 3 is the candidate.
        ledger.reveal(flow(10, 0.0, 10.0, 6.0));
        ledger.reveal(flow(11, 0.0, 10.0, 1.0));
        ledger.reveal(flow(12, 4.0, 12.0, 2.0));
        ledger.reveal(flow(13, 2.0, 8.0, 1.0));
        ledger.admit(0);
        ledger.admit(2);
        ledger.credit(0, 1.5);

        let (set, originals) = ledger.residual(2.0, Some(3)).expect("residual builds");
        assert_eq!(originals, vec![0, 2, 3]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.flow(0).volume, 4.5);
        assert_eq!(set.flow(0).release, 2.0, "release clamped to now");
        assert_eq!(set.flow(1).release, 4.0, "future release kept");
        assert_eq!(set.flow(2).volume, 1.0, "the candidate owes all of it");

        let err = ledger.residual(11.0, None).unwrap_err();
        assert!(matches!(err, SolveError::DeadlinePassed { .. }));
        assert_eq!(
            InFlightLedger::new().residual(0.0, None).unwrap_err(),
            SolveError::EmptyFlowSet
        );
    }

    #[test]
    fn restore_round_trips_the_ledger() {
        let flows = [(10.0, 5.0), (1.0, 4.0), (10.0, 3.0)];
        let mut ledger = admitted((0..3).map(|id| flow(id, 0.0, flows[id].0, flows[id].1)));
        ledger.credit(0, 2.0);
        ledger.retire(2.0);
        ledger.triage(2.0, |f| f.id != 2);

        let restored = InFlightLedger::restore(ledger.entries().to_vec());
        assert_eq!(restored, ledger);
        assert_eq!(restored.live().collect::<Vec<_>>(), vec![0]);
        assert!(restored.entries()[2].stranded);

        // The deadline index is rebuilt, and maintained alike afterwards:
        // an earlier deadline goes in front, a revived flow back in place.
        assert_eq!(restored.live_by_deadline(), ledger.live_by_deadline());
        let (mut ledger, mut restored) = (ledger, restored);
        for ledger in [&mut ledger, &mut restored] {
            let id = ledger.reveal(flow(3, 2.0, 6.0, 1.0));
            ledger.admit(id);
            ledger.triage(2.0, |_| true);
        }
        assert_eq!(restored, ledger);
        assert_eq!(restored.live_by_deadline(), [3, 0, 2]);
    }

    /// The live set collected and sorted by deadline, ties by id.
    fn sorted_live(ledger: &InFlightLedger) -> Vec<FlowId> {
        let mut live: Vec<FlowId> = ledger.live().collect();
        let deadline = |id: FlowId| ledger.entries()[id].flow.deadline;
        live.sort_by(|&a, &b| deadline(a).total_cmp(&deadline(b)).then(a.cmp(&b)));
        live
    }

    #[test]
    fn the_deadline_index_is_the_sorted_live_set_after_every_operation() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let (mut checked, mut ties, mut widest) = ([0usize; 6], 0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ledger = InFlightLedger::new();
            let mut now = 0.0;
            for step in 0..120 {
                let op = rng.gen_range(0..6);
                let ids = ledger.entries().len();
                match op {
                    // Deadlines on a half-unit grid collide often, and a
                    // clock on the same grid lands on them exactly.
                    0 => {
                        let deadline = now + f64::from(rng.gen_range(1..6)) * 0.5;
                        ledger.reveal(flow(ids, now, deadline, 1.0));
                    }
                    1 if ids > 0 => ledger.admit(rng.gen_range(0..ids)),
                    // Full credit (then served when the deadline also
                    // passes) or a part of it.
                    2 if ids > 0 => {
                        let volume = if rng.gen_bool(0.5) { 1.0 } else { 0.25 };
                        ledger.credit(rng.gen_range(0..ids), volume);
                    }
                    3 => {
                        now += f64::from(rng.gen_range(0..2)) * 0.5;
                        ledger.retire(now);
                    }
                    4 => ledger.triage(now, |f| (f.id + step) % 3 != 0),
                    5 if rng.gen_bool(0.3) => {
                        ledger.pop();
                    }
                    _ => continue,
                }
                checked[op] += 1;
                assert_eq!(
                    ledger.live_by_deadline(),
                    sorted_live(&ledger),
                    "seed {seed}, step {step}, operation {op}"
                );
                let index = ledger.live_by_deadline();
                let deadline = |id: &FlowId| ledger.entries()[*id].flow.deadline;
                ties += index
                    .windows(2)
                    .filter(|w| deadline(&w[0]) == deadline(&w[1]))
                    .count();
                widest = widest.max(index.len());
            }
            assert_eq!(InFlightLedger::restore(ledger.entries().to_vec()), ledger);
        }
        assert!(checked.iter().all(|&n| n > 1000), "{checked:?}");
        assert!(
            ties > 1000 && widest >= 8,
            "{ties} ties, {widest} live at most"
        );
    }
}
