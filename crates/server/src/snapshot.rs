//! Snapshot/restore of the daemon's in-flight state as a JSON file.
//!
//! A snapshot captures everything a restarted daemon needs to keep
//! making *bit-identical* decisions: per-bucket logical clocks, event
//! counters (they seed `resolve` re-solves), and one record per admitted
//! flow — the flow, its delivery state and its schedule. The file also
//! pins the configuration the state was produced under (topology, policy,
//! admission, seed); [`crate::Server`] refuses to restore a snapshot whose
//! configuration does not match its own, because the state would silently
//! mean something else.
//!
//! # Layout version 2
//!
//! The file records the links down in the fabric once, and a shard
//! stores each flow's schedule once, as one [`FlowSchedule`]: what
//! it delivered up to the bucket clock and what it plans after, in one
//! profile. A [`FlowRecord`] carries that schedule losslessly — the
//! flow's latest path, its stored pieces in stored order, and, only for a
//! flow that moved (a `resolve` re-solve or a link event re-planned it
//! onto another route), its stored pieces on every link it used, so what
//! it delivered before the move stays on the links it took then. Version 1
//! kept a second, stitched copy of each flow's past on one path; a version
//! 1 file is refused with the typed version error of [`SnapshotFile::load`].
//!
//! The same dump doubles as the daemon's audit artifact: the serve bench
//! reads the final snapshot back and turns each record into its
//! [`FlowSchedule`] to account energy, misses and capacity excess — see
//! [`SnapshotFile::schedule`].

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path as FsPath;

use dcn_core::{FlowSchedule, LedgerEntry, Schedule};
use dcn_flow::{Flow, FlowId};
use dcn_power::RateProfile;
use dcn_topology::{GraphCsr, LinkId, Network, NodeId};
use serde::{Deserialize, Serialize};

use crate::protocol::PlanSegment;
use crate::worker::rendered_delivery;

/// Typed errors of a snapshot's records — everything that can make a dump
/// unbelievable on the restore host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A record does not describe a valid flow, delivery state, path or
    /// rate piece on the restore network; the message names the bucket, the
    /// flow and the field.
    InvalidRecord(String),
    /// The snapshot contains no served flows, so there is no schedule to
    /// rebuild.
    Empty,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRecord(why) => f.write_str(why),
            Self::Empty => write!(f, "snapshot holds no served flows"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Version stamp of the snapshot layout.
pub const SNAPSHOT_VERSION: u32 = 2;

/// One admitted flow as dumped by a shard: the original request, its
/// delivery state and its schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Server-assigned flow id.
    pub id: u64,
    /// Source host node id.
    pub src: usize,
    /// Destination host node id.
    pub dst: usize,
    /// Release time (as served; clamped to the shard clock at admission).
    pub release: f64,
    /// Hard deadline.
    pub deadline: f64,
    /// Total volume of the flow.
    pub volume: f64,
    /// Volume delivered as of the bucket's clock.
    pub delivered: f64,
    /// Whether the flow has left the live set.
    pub retired: bool,
    /// Whether it retired with undelivered volume.
    pub missed: bool,
    /// Node ids of the flow's routing path (its latest), source first.
    pub path: Vec<usize>,
    /// The stored pieces of the flow's schedule — delivered up to the
    /// bucket clock, planned after it — in stored (time) order.
    pub pieces: Vec<PlanSegment>,
    /// For a flow that moved: every link it used, by link id, with its
    /// stored pieces there. Empty when the flow runs `pieces` on every link
    /// of `path` and nowhere else.
    pub links: Vec<(usize, Vec<PlanSegment>)>,
}

impl FlowRecord {
    /// The record of an admitted ledger entry and its schedule.
    pub(crate) fn new(entry: &LedgerEntry, schedule: &FlowSchedule) -> Self {
        let flow = &entry.flow;
        let (path, profile) = (schedule.path.clone(), schedule.profile.clone());
        let moved = *schedule != FlowSchedule::uniform(flow.id, path, profile);
        let links = schedule.link_profiles().filter(|_| moved);
        Self {
            id: flow.id as u64,
            src: flow.src.0,
            dst: flow.dst.0,
            release: flow.release,
            deadline: flow.deadline,
            volume: flow.volume,
            delivered: rendered_delivery(entry),
            retired: !entry.in_flight,
            missed: entry.missed,
            path: schedule.path.nodes().iter().map(|n| n.0).collect(),
            pieces: pieces(&schedule.profile),
            links: links.map(|(link, p)| (link.0, pieces(p))).collect(),
        }
    }

    /// The ledger entry and the schedule, exactly as the shard stored it, on
    /// `graph` with no link down: a recorded path may cross one down now.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::InvalidRecord`] for an invalid flow, delivery state
    /// or path (one that does not run from `src` to `dst` included), an
    /// unknown or repeated link, or a piece that is not a finite forward
    /// interval at a finite non-negative rate after the previous one.
    pub(crate) fn restore(
        &self,
        bucket: usize,
        graph: &GraphCsr,
    ) -> Result<(LedgerEntry, FlowSchedule), SnapshotError> {
        let invalid = |field: &str, why: &dyn fmt::Display| {
            let flow = self.id;
            let why = format!("snapshot bucket {bucket} flow {flow}: `{field}` is invalid: {why}");
            SnapshotError::InvalidRecord(why)
        };
        // Refused where it does not fit, never truncated into another id.
        let id = FlowId::try_from(self.id).map_err(|e| invalid("id", &e))?;
        let (src, dst) = (NodeId(self.src), NodeId(self.dst));
        let flow = Flow::new(id, src, dst, self.release, self.deadline, self.volume)
            .map_err(|e| invalid("flow", &e))?;
        if !(0.0..=self.volume).contains(&self.delivered) {
            let why = format_args!("{} is outside [0, {}]", self.delivered, self.volume);
            return Err(invalid("delivered", &why));
        }
        if self.missed && !self.retired {
            return Err(invalid("missed", &"a missed flow is retired"));
        }
        let nodes: Vec<NodeId> = self.path.iter().map(|&n| NodeId(n)).collect();
        // Checked before the path resolves: an empty one has no ends.
        if (nodes.first(), nodes.last()) != (Some(&src), Some(&dst)) {
            let why = format_args!("{:?} does not run from {src} to {dst}", self.path);
            return Err(invalid("path", &why));
        }
        let path = (graph.path_from_nodes(&nodes)).map_err(|e| invalid("path", &e))?;
        let nominal = profile(&self.pieces).map_err(|e| invalid("pieces", &e))?;
        let mut link_profiles = BTreeMap::new();
        for (link, pieces) in &self.links {
            if *link >= graph.link_count() || link_profiles.contains_key(&LinkId(*link)) {
                let why = format_args!("link {link} is unknown or repeated");
                return Err(invalid("links", &why));
            }
            let pieces = profile(pieces).map_err(|e| invalid("links.pieces", &e))?;
            link_profiles.insert(LinkId(*link), pieces);
        }
        let schedule = if self.links.is_empty() {
            FlowSchedule::uniform(id, path, nominal)
        } else {
            FlowSchedule::per_link(id, path, nominal, link_profiles)
        };
        let entry = LedgerEntry {
            flow,
            admitted: true,
            in_flight: !self.retired,
            missed: self.missed,
            delivered: self.delivered,
            stranded: false,
            failure_touched: false,
        };
        Ok((entry, schedule))
    }
}

/// The stored pieces of a profile, in stored order.
fn pieces(profile: &RateProfile) -> Vec<PlanSegment> {
    let pieces = profile.pieces().iter();
    pieces
        .map(|&(start, end, rate)| PlanSegment { start, end, rate })
        .collect()
}

/// Stored pieces back into a profile, refusing what
/// [`RateProfile::add_rate`] would assert and a piece that starts before
/// the previous one ends: a shard stores its pieces in time order, and
/// re-plans cut them from the back.
fn profile(pieces: &[PlanSegment]) -> Result<RateProfile, String> {
    let mut profile = RateProfile::new();
    let mut previous_end = f64::NEG_INFINITY;
    for &PlanSegment { start, end, rate } in pieces {
        let sound = start.is_finite() && end.is_finite() && end >= start;
        if !(sound && rate.is_finite() && rate >= 0.0) {
            return Err(format!("[{start}, {end}) at rate {rate}"));
        }
        if start < previous_end {
            return Err(format!("[{start}, {end}) starts before {previous_end}"));
        }
        profile.add_rate(start, end, rate);
        previous_end = end;
    }
    Ok(profile)
}

/// The complete dump of one logical shard (pod bucket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketState {
    /// The bucket id (pod index, or the cross bucket).
    pub bucket: usize,
    /// Logical clock; `null` when the bucket never saw a submission.
    pub clock: Option<f64>,
    /// Submissions processed (seeds `resolve` re-solves).
    pub events: u64,
    /// Ids of rejected flows (for `QueryFlow` answers).
    pub rejected: Vec<u64>,
    /// Every admitted flow, live and retired, in id order.
    pub flows: Vec<FlowRecord>,
}

/// The snapshot file: configuration pin plus every bucket's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Topology spec string (e.g. `fat-tree:4`).
    pub topology: String,
    /// Serve policy name.
    pub policy: String,
    /// Admission rule name.
    pub admission: String,
    /// Base seed of the daemon.
    pub seed: u64,
    /// Total flow ids assigned so far (the next id continues from here).
    pub flows_assigned: u64,
    /// Bucket owning each assigned flow id, dense by id.
    pub assignments: Vec<usize>,
    /// Ids of the links down in the fabric. A link event reaches every
    /// shard, so this is the router's view and each bucket's alike; a
    /// restarted daemon routes and plans on the fabric it left.
    pub down_links: Vec<usize>,
    /// Per-bucket dumps, in bucket order.
    pub buckets: Vec<BucketState>,
}

/// The one field every snapshot layout shares.
#[derive(Deserialize)]
struct Layout {
    version: u32,
}

impl SnapshotFile {
    /// Total number of flows (live and retired) captured in the dump.
    pub fn flow_count(&self) -> usize {
        self.buckets.iter().map(|b| b.flows.len()).sum()
    }

    /// Number of flows that retired with undelivered volume.
    pub fn missed_count(&self) -> usize {
        self.buckets
            .iter()
            .flat_map(|b| b.flows.iter())
            .filter(|f| f.missed)
            .count()
    }

    /// Serializes and writes the snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &FsPath) -> std::io::Result<()> {
        let mut text = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable files, invalid JSON, or an
    /// unsupported layout version (also when that layout does not decode
    /// as this one).
    pub fn load(path: &FsPath) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
        let unsupported = |version: u32| {
            format!(
                "snapshot {} has layout version {version} (this build reads {SNAPSHOT_VERSION})",
                path.display()
            )
        };
        match serde_json::from_str::<SnapshotFile>(&text) {
            Ok(snapshot) if snapshot.version == SNAPSHOT_VERSION => Ok(snapshot),
            Ok(snapshot) => Err(unsupported(snapshot.version)),
            Err(e) => Err(match serde_json::from_str::<Layout>(&text) {
                Ok(Layout { version }) if version != SNAPSHOT_VERSION => unsupported(version),
                _ => format!("snapshot {} is not valid JSON: {e}", path.display()),
            }),
        }
    }

    /// The schedule the daemon has committed to: every record's
    /// [`FlowSchedule`] — delivered past and planned future — in bucket and
    /// id order. The horizon spans the earliest release to the latest of
    /// deadline and activity, so idle energy is accounted the same way the
    /// batch harness does.
    ///
    /// # Errors
    ///
    /// Rejects records that do not describe a valid flow and schedule on
    /// `network`, and snapshots that hold no served flows.
    pub fn schedule(&self, network: &Network) -> Result<Schedule, SnapshotError> {
        let graph = GraphCsr::from_network(network);
        let mut flow_schedules = Vec::with_capacity(self.flow_count());
        let (mut start, mut end) = (f64::INFINITY, f64::NEG_INFINITY);
        for bucket in &self.buckets {
            for record in &bucket.flows {
                let (entry, schedule) = record.restore(bucket.bucket, &graph)?;
                start = start.min(entry.flow.release);
                end = end.max(entry.flow.deadline);
                if let Some((_, active_end)) = schedule.activity_span() {
                    end = end.max(active_end);
                }
                flow_schedules.push(schedule);
            }
        }
        if flow_schedules.is_empty() {
            return Err(SnapshotError::Empty);
        }
        Ok(Schedule::new(flow_schedules, (start, end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    fn snapshot_with(buckets: Vec<BucketState>) -> SnapshotFile {
        SnapshotFile {
            version: SNAPSHOT_VERSION,
            topology: "line:3".to_string(),
            policy: "resolve".to_string(),
            admission: "admit-all".to_string(),
            seed: 1,
            flows_assigned: 1,
            assignments: vec![0],
            down_links: Vec::new(),
            buckets,
        }
    }

    fn record(path: Vec<usize>) -> FlowRecord {
        FlowRecord {
            id: 7,
            src: 0,
            dst: 2,
            release: 0.0,
            deadline: 2.0,
            volume: 1.0,
            delivered: 0.0,
            retired: false,
            missed: false,
            path,
            pieces: vec![PlanSegment {
                start: 0.0,
                end: 1.0,
                rate: 1.0,
            }],
            links: Vec::new(),
        }
    }

    fn bucket(flows: Vec<FlowRecord>) -> BucketState {
        BucketState {
            bucket: 0,
            clock: Some(0.0),
            events: 1,
            rejected: Vec::new(),
            flows,
        }
    }

    #[test]
    fn empty_snapshots_yield_a_typed_error() {
        let built = builders::line(3);
        let err = snapshot_with(Vec::new())
            .schedule(&built.network)
            .unwrap_err();
        assert_eq!(err, SnapshotError::Empty);
        assert!(err.to_string().contains("no served flows"));
    }

    #[test]
    fn broken_paths_yield_a_typed_error_naming_the_flow() {
        let built = builders::line(3);
        // Node 99 does not exist on a 3-node line.
        let snapshot = snapshot_with(vec![bucket(vec![record(vec![0, 99, 2])])]);
        let err = snapshot.schedule(&built.network).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::InvalidRecord(why)
                if why.starts_with("snapshot bucket 0 flow 7: `path` is invalid")),
            "expected an invalid path, got {err:?}"
        );
    }

    #[test]
    fn a_path_that_does_not_run_from_src_to_dst_is_refused() {
        let built = builders::line(3);
        // Flow 7 runs 0 → 2; each path below is a walk on the line or
        // empty, so only its ends are wrong.
        for path in [vec![2, 1, 0], vec![0, 1], vec![1, 2], vec![]] {
            let snapshot = snapshot_with(vec![bucket(vec![record(path.clone())])]);
            let err = snapshot.schedule(&built.network).unwrap_err();
            let why = format!(
                "snapshot bucket 0 flow 7: `path` is invalid: {path:?} does not run from n0 to n2"
            );
            assert_eq!(err, SnapshotError::InvalidRecord(why));
        }
        let snapshot = snapshot_with(vec![bucket(vec![record(vec![0, 1, 2])])]);
        assert!(snapshot.schedule(&built.network).is_ok());
    }

    #[test]
    fn records_carry_a_moved_schedule_losslessly() {
        let built = builders::fat_tree(4);
        let mut graph = built.csr();
        let (src, dst) = (built.hosts[0], built.hosts[15]);
        let first = graph.shortest_path(src, dst).unwrap();
        graph.fail_link(first.links()[2]);
        let second = graph.shortest_path(src, dst).unwrap();
        let flow = Flow::new(3, src, dst, 0.0, 10.0, 8.0).unwrap();
        let planned = RateProfile::constant(0.0, 10.0, 0.8);
        let mut schedule = FlowSchedule::uniform(3, first.clone(), planned);
        let leg = FlowSchedule::uniform(3, second, RateProfile::constant(4.0, 9.0, 1.28));
        schedule.replan(4.0, Some(&leg));
        let entry = LedgerEntry {
            flow,
            admitted: true,
            in_flight: true,
            missed: false,
            delivered: 3.2,
            stranded: false,
            failure_touched: false,
        };
        let written = FlowRecord::new(&entry, &schedule);
        assert!(!written.links.is_empty(), "a moved flow lists its links");
        let text = serde_json::to_string(&written).unwrap();
        let read: FlowRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(
            read.restore(0, &built.csr()).unwrap(),
            (entry.clone(), schedule)
        );

        // A flow that never moved is its path and pieces alone.
        let still = FlowSchedule::uniform(3, first, RateProfile::constant(0.0, 10.0, 0.8));
        let written = FlowRecord::new(&entry, &still);
        assert!(written.links.is_empty());
        assert_eq!(written.restore(0, &built.csr()).unwrap(), (entry, still));
    }

    #[test]
    fn pieces_out_of_time_order_are_refused() {
        let built = builders::line(3);
        let mut overlapping = record(vec![0, 1, 2]);
        overlapping.pieces.push(PlanSegment {
            start: 0.5,
            end: 1.5,
            rate: 1.0,
        });
        let err = overlapping.restore(0, &built.csr()).unwrap_err();
        assert!(err
            .to_string()
            .contains("`pieces` is invalid: [0.5, 1.5) starts before 1"));
    }

    #[test]
    fn a_version_1_file_gets_the_version_error() {
        // Version 1 kept `plans` and a `committed` history beside records
        // without a schedule: it does not decode as version 2.
        let v1 = r#"{"version": 1, "topology": "line:3", "policy": "edf",
            "admission": "admit-all", "seed": 1, "flows_assigned": 1, "assignments": [0],
            "buckets": [{"bucket": 0, "clock": 1.0, "events": 1, "rejected": [],
              "flows": [{"id": 0, "src": 0, "dst": 2, "release": 0.0, "deadline": 2.0,
                "volume": 1.0, "delivered": 0.5, "retired": false, "missed": false}],
              "plans": [], "committed": []}]}"#;
        let path = std::env::temp_dir().join(format!("dcn-snapshot-v1-{}", std::process::id()));
        std::fs::write(&path, v1).unwrap();
        let err = SnapshotFile::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(
            err.ends_with("has layout version 1 (this build reads 2)"),
            "{err}"
        );
    }
}
