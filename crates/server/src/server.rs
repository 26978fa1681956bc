//! The daemon: a router in front of message-passing shard workers.
//!
//! ```text
//!                    +--------------------------------------+
//!   framed requests  |  Server (router)                     |
//!  ----------------> |  pod_of(src) -> bucket -> worker     |
//!                    |  seq-stamped jobs, bounded queues    |
//!                    +----+------------+------------+-------+
//!                         | mpsc       | mpsc       | mpsc
//!                    +----v----+  +----v----+  +----v----+
//!                    | worker 0|  | worker 1|  | worker W |   one thread each,
//!                    | buckets |  | buckets |  | buckets  |   warm ShardEngine
//!                    | 0,W,..  |  | 1,W+1,..|  | ...      |   per owned bucket
//!                    +----+----+  +----+----+  +----+-----+
//!                         |            |            |
//!                         +-----> reply mux <-------+
//!                                (seq-ordered)
//!                                      |
//!                     framed replies   v
//!                    <-----------------+
//! ```
//!
//! Determinism contract: logical shards are *pod buckets* fixed by the
//! topology (`pod_of(src)`, plus one cross bucket for pod-less sources);
//! `--shard-workers` only maps buckets onto threads (`bucket % workers`).
//! The router stamps every request with a global sequence number,
//! dispatches in arrival order, and the reply mux writes responses back
//! in sequence order — so the reply stream is byte-identical at any
//! worker width.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::thread::JoinHandle;

use dcn_core::online::AdmissionRule;
use dcn_core::AlgorithmRegistry;
use dcn_flow::Flow;
use dcn_power::PowerFunction;
use dcn_topology::{builders, BuiltTopology, GraphCsr, LinkId, NodeId};

use crate::protocol::{
    write_frame, AdmitReply, Request, RequestBody, Response, ResponseBody, StatusReply,
};
use crate::snapshot::{BucketState, SnapshotFile, SNAPSHOT_VERSION};
use crate::worker::{EngineSettings, ServePolicy, ShardEngine};

/// A parsed `--topology` specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `fat-tree:K` — a k-ary fat-tree (k pods, `k^3/4` hosts).
    FatTree {
        /// The arity; even and at least 2.
        k: usize,
    },
    /// `leaf-spine:L,S,H` — L leaves, S spines, H hosts per leaf.
    LeafSpine {
        /// Leaf switch count.
        leaves: usize,
        /// Spine switch count.
        spines: usize,
        /// Hosts attached to each leaf.
        hosts_per_leaf: usize,
    },
}

impl TopologySpec {
    /// Parses a `--topology` value such as `fat-tree:8`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the expected forms.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (family, params) = spec.split_once(':').unwrap_or((spec, ""));
        match family {
            "fat-tree" => {
                let k: usize = params
                    .parse()
                    .map_err(|_| format!("fat-tree expects `fat-tree:K`, got {spec:?}"))?;
                if k < 2 || !k.is_multiple_of(2) {
                    return Err(format!("fat-tree requires an even k >= 2, got {k}"));
                }
                Ok(TopologySpec::FatTree { k })
            }
            "leaf-spine" => {
                let parts: Vec<usize> = params
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("leaf-spine expects `leaf-spine:L,S,H`, got {spec:?}"))?;
                let [leaves, spines, hosts_per_leaf] = parts[..] else {
                    return Err(format!(
                        "leaf-spine expects `leaf-spine:L,S,H`, got {spec:?}"
                    ));
                };
                if leaves == 0 || spines == 0 || hosts_per_leaf == 0 {
                    return Err("leaf-spine parameters must all be positive".to_string());
                }
                Ok(TopologySpec::LeafSpine {
                    leaves,
                    spines,
                    hosts_per_leaf,
                })
            }
            other => Err(format!(
                "unknown topology family {other:?} (expected fat-tree or leaf-spine)"
            )),
        }
    }

    /// Builds the topology.
    pub fn build(&self) -> BuiltTopology {
        match *self {
            TopologySpec::FatTree { k } => builders::fat_tree(k),
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => builders::leaf_spine(leaves, spines, hosts_per_leaf),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::FatTree { k } => write!(f, "fat-tree:{k}"),
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => write!(f, "leaf-spine:{leaves},{spines},{hosts_per_leaf}"),
        }
    }
}

/// Full configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The fabric to schedule on.
    pub topology: TopologySpec,
    /// Rate-planning policy of every shard.
    pub policy: ServePolicy,
    /// Admission rule of every shard.
    pub admission: AdmissionRule,
    /// Algorithm behind the `resolve` policy, by
    /// [`AlgorithmRegistry::create`] name; [`Server::start`] refuses an
    /// unknown one under every policy.
    pub algorithm: String,
    /// The power function energy and capacities are accounted under.
    pub power: PowerFunction,
    /// Worker thread count (buckets are striped `bucket % workers`).
    pub shard_workers: usize,
    /// Bound of each worker's job queue; a full queue answers `Busy`.
    pub queue_depth: usize,
    /// The `retry_after_ms` hint carried by `Busy` replies.
    pub retry_after_ms: u64,
    /// Base seed (per-solve seeds derive from it deterministically).
    pub seed: u64,
    /// Snapshot file; written on `Snapshot` requests and read back on
    /// startup when present.
    pub snapshot_path: Option<PathBuf>,
    /// Automatically snapshot after every N admitted submissions.
    pub snapshot_every: Option<u64>,
}

impl ServerConfig {
    /// The workload-facing defaults: fat-tree k=4, `edf` policy,
    /// admit-all, one worker, queue depth 1024, seed 1.
    pub fn new(topology: TopologySpec) -> Self {
        Self {
            topology,
            policy: ServePolicy::Edf,
            admission: AdmissionRule::AdmitAll,
            algorithm: "dcfsr".to_string(),
            power: PowerFunction::speed_scaling_only(1.0, 2.0, 10.0),
            shard_workers: 1,
            queue_depth: 1024,
            retry_after_ms: 10,
            seed: 1,
            snapshot_path: None,
            snapshot_every: None,
        }
    }
}

/// Startup/runtime failures of the daemon itself (protocol-level errors
/// are answered on the wire instead).
#[derive(Debug)]
pub enum ServerError {
    /// Invalid configuration, incompatible snapshot, or worker startup
    /// failure.
    Config(String),
    /// Filesystem failure around the snapshot file.
    Io(io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config(msg) => write!(f, "{msg}"),
            ServerError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// A unit of work on a worker queue.
enum Job {
    /// Admit-or-reject one flow on its bucket's engine.
    Submit {
        seq: u64,
        req_id: u64,
        bucket: usize,
        flow: Flow,
        reply: Sender<(u64, Response)>,
    },
    /// Answer a status query from the bucket owning the flow id.
    Query {
        seq: u64,
        req_id: u64,
        bucket: usize,
        flow: u64,
        reply: Sender<(u64, Response)>,
    },
    /// Dump the state of every bucket the worker owns. Rides the same
    /// FIFO queue as submissions, so it naturally serializes after all
    /// previously dispatched work — the snapshot barrier.
    Collect { reply: Sender<Vec<BucketState>> },
    /// Apply a link failure/recovery to every engine the worker owns.
    /// Rides the FIFO queue like [`Job::Collect`], so it lands *after*
    /// all previously dispatched submissions and *before* all later ones
    /// — at any worker width, every submission sees the same fabric.
    Topology {
        link: LinkId,
        down: bool,
        reply: Sender<()>,
    },
    /// Drain and exit.
    Stop,
}

/// What [`Server::serve_connection`] ran into at the end of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The peer closed the stream (or broke framing and was dropped).
    Eof,
    /// The peer sent `Shutdown`; the caller should stop accepting.
    Shutdown,
}

/// A running daemon: router state plus its worker threads.
pub struct Server {
    config: ServerConfig,
    graph: GraphCsr,
    hosts: Vec<bool>,
    bucket_count: usize,
    queues: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    reply_tx: Sender<(u64, Response)>,
    reply_rx: Receiver<(u64, Response)>,
    /// Next global sequence number (== requests dispatched so far).
    seq: u64,
    /// Next flow id (== flows ever enqueued, across restarts).
    flows_assigned: u64,
    /// Bucket owning each assigned flow id.
    assignments: Vec<usize>,
    admitted_since_snapshot: u64,
}

impl Server {
    /// Builds the topology, restores the snapshot when one exists, and
    /// spawns the worker threads.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations (zero workers/queue depth, unknown
    /// algorithm), unreadable or incompatible snapshots, and worker
    /// startup failures.
    pub fn start(config: ServerConfig) -> Result<Self, ServerError> {
        if config.shard_workers == 0 {
            return Err(ServerError::Config(
                "--shard-workers must be positive".into(),
            ));
        }
        if config.queue_depth == 0 {
            return Err(ServerError::Config("--queue-depth must be positive".into()));
        }
        // Refused under every policy, not only by a `resolve` shard.
        AlgorithmRegistry::with_defaults()
            .create(&config.algorithm)
            .map_err(|e| ServerError::Config(e.to_string()))?;
        let built = config.topology.build();
        let mut graph = GraphCsr::from_network(&built.network);
        let mut hosts = vec![false; built.network.node_count()];
        for &h in &built.hosts {
            hosts[h.index()] = true;
        }
        let bucket_count = graph.pod_count() + 1;

        let snapshot = match &config.snapshot_path {
            Some(path) if path.exists() => {
                let file = SnapshotFile::load(path).map_err(ServerError::Config)?;
                check_snapshot_compat(&config, &file)?;
                Some(file)
            }
            _ => None,
        };
        let (flows_assigned, assignments, mut states, down) = match snapshot {
            Some(file) => {
                let mut states: BTreeMap<usize, BucketState> = BTreeMap::new();
                for bucket in file.buckets {
                    states.insert(bucket.bucket, bucket);
                }
                let down: Vec<LinkId> = file.down_links.into_iter().map(LinkId).collect();
                (file.flows_assigned, file.assignments, states, down)
            }
            None => (0, Vec::new(), BTreeMap::new(), Vec::new()),
        };
        // The fabric the daemon left: the router and every shard route on it.
        for &link in &down {
            if link.0 >= graph.link_count() {
                let why = format!("snapshot down link {} does not exist", link.0);
                return Err(ServerError::Config(why));
            }
            graph.fail_link(link);
        }

        let settings = EngineSettings {
            power: config.power,
            policy: config.policy,
            admission: config.admission.clone(),
            algorithm: config.algorithm.clone(),
            seed: config.seed,
        };
        let workers = config.shard_workers.min(bucket_count);
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        for worker in 0..workers {
            let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            let buckets: Vec<usize> = (0..bucket_count)
                .filter(|b| b % workers == worker)
                .collect();
            let initial: BTreeMap<usize, BucketState> = buckets
                .iter()
                .filter_map(|b| states.remove(b).map(|s| (*b, s)))
                .collect();
            let spec = config.topology;
            let settings = settings.clone();
            let down = down.clone();
            let ready = ready_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("shard-worker-{worker}"))
                .spawn(move || {
                    // Each worker owns its topology so engines can borrow
                    // it for the thread's whole lifetime.
                    let built = spec.build();
                    let mut engines: BTreeMap<usize, ShardEngine<'_>> = BTreeMap::new();
                    for &bucket in &buckets {
                        let engine = match initial.get(&bucket) {
                            Some(state) => {
                                ShardEngine::restore(&built.network, settings.clone(), state)
                            }
                            None => ShardEngine::new(&built.network, settings.clone(), bucket),
                        };
                        match engine {
                            Ok(mut engine) => {
                                engine.restore_down_links(&down);
                                engines.insert(bucket, engine);
                            }
                            Err(e) => {
                                let _ = ready.send(Err(format!(
                                    "worker {worker} failed to start bucket {bucket}: {e}"
                                )));
                                return;
                            }
                        }
                    }
                    let _ = ready.send(Ok(()));
                    run_worker(&job_rx, &mut engines);
                })
                .map_err(|e| ServerError::Config(format!("cannot spawn worker: {e}")))?;
            queues.push(job_tx);
            handles.push(handle);
        }
        drop(ready_tx);
        for _ in 0..workers {
            match ready_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(msg)) => return Err(ServerError::Config(msg)),
                Err(_) => {
                    return Err(ServerError::Config(
                        "a shard worker died during startup".to_string(),
                    ))
                }
            }
        }

        Ok(Self {
            config,
            graph,
            hosts,
            bucket_count,
            queues,
            handles,
            reply_tx,
            reply_rx,
            seq: 0,
            flows_assigned,
            assignments,
            admitted_since_snapshot: 0,
        })
    }

    /// The configuration the daemon is running under.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of logical shards (pod buckets) of the topology.
    pub fn bucket_count(&self) -> usize {
        self.bucket_count
    }

    /// The bucket a source node routes to: its pod, or the cross bucket.
    fn bucket_of(&self, src: usize) -> usize {
        self.graph
            .pod_of(NodeId(src))
            .unwrap_or(self.bucket_count - 1)
    }

    /// Routes one decoded request. Returns the stamped sequence number
    /// and, for requests the router itself answers (errors, `Busy`,
    /// snapshots, `Shutdown`), the immediate response; `None` means a
    /// worker will deliver the reply through the mux channel later.
    pub fn dispatch(&mut self, request: Request) -> (u64, Option<Response>) {
        let seq = self.seq;
        self.seq += 1;
        let id = request.id;
        match request.body {
            RequestBody::SubmitFlow(submit) => {
                if submit.src >= self.hosts.len() || !self.hosts[submit.src] {
                    return (
                        seq,
                        Some(Response::error(
                            id,
                            "bad-flow",
                            format!("source {} is not a host", submit.src),
                        )),
                    );
                }
                if submit.dst >= self.hosts.len() || !self.hosts[submit.dst] {
                    return (
                        seq,
                        Some(Response::error(
                            id,
                            "bad-flow",
                            format!("destination {} is not a host", submit.dst),
                        )),
                    );
                }
                // Under link failures an endpoint pair can be cut off
                // entirely; routing such a flow to a shard would at best
                // be rejected with an opaque planning error and at worst
                // admitted on a stale route. Answer with a typed error
                // up front instead.
                if self.graph.down_link_count() > 0
                    && self
                        .graph
                        .shortest_path(NodeId(submit.src), NodeId(submit.dst))
                        .is_none()
                {
                    return (
                        seq,
                        Some(Response::error(
                            id,
                            "unreachable",
                            format!(
                                "no route from {} to {}: link failures disconnected the endpoints",
                                submit.src, submit.dst
                            ),
                        )),
                    );
                }
                let flow_id = self.flows_assigned as usize;
                let flow = match Flow::new(
                    flow_id,
                    NodeId(submit.src),
                    NodeId(submit.dst),
                    submit.release,
                    submit.deadline,
                    submit.volume,
                ) {
                    Ok(flow) => flow,
                    Err(e) => {
                        return (seq, Some(Response::error(id, "bad-flow", e.to_string())));
                    }
                };
                let bucket = self.bucket_of(submit.src);
                let job = Job::Submit {
                    seq,
                    req_id: id,
                    bucket,
                    flow,
                    reply: self.reply_tx.clone(),
                };
                match self.queues[bucket % self.queues.len()].try_send(job) {
                    Ok(()) => {
                        self.flows_assigned += 1;
                        self.assignments.push(bucket);
                        self.admitted_since_snapshot += 1;
                        if let Some(every) = self.config.snapshot_every {
                            if self.admitted_since_snapshot >= every {
                                self.admitted_since_snapshot = 0;
                                // Periodic persistence is best-effort; a
                                // failed write must not take down serving.
                                let _ = self.take_snapshot();
                            }
                        }
                        (seq, None)
                    }
                    Err(TrySendError::Full(_)) => (seq, Some(self.busy(id))),
                    Err(TrySendError::Disconnected(_)) => (
                        seq,
                        Some(Response::error(id, "internal", "shard worker is gone")),
                    ),
                }
            }
            RequestBody::QueryFlow { flow } => {
                let Some(&bucket) = self.assignments.get(flow as usize) else {
                    return (
                        seq,
                        Some(Response::new(
                            id,
                            ResponseBody::Status(StatusReply {
                                flow,
                                state: "unknown".to_string(),
                                delivered: 0.0,
                                remaining: 0.0,
                            }),
                        )),
                    );
                };
                let job = Job::Query {
                    seq,
                    req_id: id,
                    bucket,
                    flow,
                    reply: self.reply_tx.clone(),
                };
                match self.queues[bucket % self.queues.len()].try_send(job) {
                    Ok(()) => (seq, None),
                    Err(TrySendError::Full(_)) => (seq, Some(self.busy(id))),
                    Err(TrySendError::Disconnected(_)) => (
                        seq,
                        Some(Response::error(id, "internal", "shard worker is gone")),
                    ),
                }
            }
            RequestBody::LinkEvent { link, down } => {
                if link >= self.graph.link_count() {
                    return (
                        seq,
                        Some(Response::error(
                            id,
                            "bad-link",
                            format!(
                                "link {link} does not exist (topology has {} directed links)",
                                self.graph.link_count()
                            ),
                        )),
                    );
                }
                let link_id = LinkId(link);
                // The router's own graph answers reachability checks for
                // later submissions; the broadcast updates every shard
                // engine behind the FIFO barrier before the ack goes out.
                let changed = if down {
                    self.graph.fail_link(link_id)
                } else {
                    self.graph.restore_link(link_id)
                };
                let mut acks = Vec::with_capacity(self.queues.len());
                for queue in &self.queues {
                    let (tx, rx) = mpsc::channel();
                    if queue
                        .send(Job::Topology {
                            link: link_id,
                            down,
                            reply: tx,
                        })
                        .is_err()
                    {
                        return (
                            seq,
                            Some(Response::error(id, "internal", "shard worker is gone")),
                        );
                    }
                    acks.push(rx);
                }
                for ack in acks {
                    if ack.recv().is_err() {
                        return (
                            seq,
                            Some(Response::error(id, "internal", "shard worker is gone")),
                        );
                    }
                }
                (
                    seq,
                    Some(Response::new(
                        id,
                        ResponseBody::LinkAck {
                            link,
                            down,
                            changed,
                        },
                    )),
                )
            }
            RequestBody::Snapshot => match self.take_snapshot() {
                Ok((path, flows)) => (
                    seq,
                    Some(Response::new(
                        id,
                        ResponseBody::SnapshotDone { path, flows },
                    )),
                ),
                Err(e) => (
                    seq,
                    Some(Response::error(id, "snapshot-failed", e.to_string())),
                ),
            },
            RequestBody::Shutdown => (seq, Some(Response::new(id, ResponseBody::Bye))),
        }
    }

    fn busy(&self, id: u64) -> Response {
        Response::new(
            id,
            ResponseBody::Busy {
                retry_after_ms: self.config.retry_after_ms,
            },
        )
    }

    /// Collects every bucket's state (a FIFO barrier behind all
    /// previously dispatched work) and writes the snapshot file.
    ///
    /// # Errors
    ///
    /// Fails without a `--snapshot-path` and on filesystem errors.
    pub fn take_snapshot(&mut self) -> Result<(String, usize), ServerError> {
        let Some(path) = self.config.snapshot_path.clone() else {
            return Err(ServerError::Config(
                "no --snapshot-path configured".to_string(),
            ));
        };
        let file = self.collect_snapshot()?;
        file.save(&path)?;
        Ok((path.display().to_string(), file.flow_count()))
    }

    /// Assembles the in-memory snapshot of all buckets.
    ///
    /// # Errors
    ///
    /// Fails when a worker died.
    pub fn collect_snapshot(&mut self) -> Result<SnapshotFile, ServerError> {
        let mut buckets = Vec::with_capacity(self.bucket_count);
        for queue in &self.queues {
            let (tx, rx) = mpsc::channel();
            queue
                .send(Job::Collect { reply: tx })
                .map_err(|_| ServerError::Config("shard worker is gone".to_string()))?;
            let states = rx
                .recv()
                .map_err(|_| ServerError::Config("shard worker is gone".to_string()))?;
            buckets.extend(states);
        }
        buckets.sort_by_key(|b| b.bucket);
        Ok(SnapshotFile {
            version: SNAPSHOT_VERSION,
            topology: self.config.topology.to_string(),
            policy: self.config.policy.name().to_string(),
            admission: self.config.admission.name().to_string(),
            seed: self.config.seed,
            flows_assigned: self.flows_assigned,
            assignments: self.assignments.clone(),
            down_links: self.graph.down_links().map(|link| link.0).collect(),
            buckets,
        })
    }

    /// Closed-loop helper: dispatches one request and blocks until its
    /// reply is ready. Intended for benches and tests; interleaving it
    /// with [`Server::serve_connection`] on the same server would steal
    /// that loop's replies.
    pub fn request(&mut self, request: Request) -> Response {
        let (seq, immediate) = self.dispatch(request);
        if let Some(response) = immediate {
            return response;
        }
        loop {
            match self.reply_rx.recv() {
                Ok((got, response)) if got == seq => return response,
                Ok(_) => continue, // A stale reply from an abandoned loop.
                Err(_) => {
                    return Response::error(0, "internal", "shard worker is gone");
                }
            }
        }
    }

    /// Serves one framed request stream: reads frames, routes them, and
    /// writes replies back in sequence order. Malformed or oversized
    /// frames get a typed error reply (when the stream is still
    /// writable) and a clean disconnect; the daemon itself never panics
    /// on bad input.
    ///
    /// # Errors
    ///
    /// Propagates write-side I/O errors; read-side errors end the
    /// stream with [`ServeOutcome::Eof`] instead.
    pub fn serve_connection(
        &mut self,
        reader: &mut impl BufRead,
        writer: &mut impl Write,
    ) -> io::Result<ServeOutcome> {
        use crate::protocol::{decode_request, read_frame, FrameError};

        let mut pending: BTreeMap<u64, Response> = BTreeMap::new();
        let mut next_write = self.seq;
        let mut outcome = ServeOutcome::Eof;
        let mut error_reply: Option<Response> = None;
        loop {
            match read_frame(reader) {
                Ok(Some(payload)) => {
                    let (seq, immediate) = match decode_request(&payload) {
                        Ok(request) => {
                            let shutdown = matches!(request.body, RequestBody::Shutdown);
                            let routed = self.dispatch(request);
                            if shutdown {
                                outcome = ServeOutcome::Shutdown;
                            }
                            routed
                        }
                        Err(response) => {
                            let seq = self.seq;
                            self.seq += 1;
                            (seq, Some(response))
                        }
                    };
                    if let Some(response) = immediate {
                        deliver(&mut pending, &mut next_write, writer, seq, response)?;
                    }
                    self.drain_replies(&mut pending, &mut next_write, writer, false)?;
                    if outcome == ServeOutcome::Shutdown {
                        break;
                    }
                }
                Ok(None) => break,
                Err(FrameError::Oversized(len)) => {
                    error_reply = Some(Response::error(
                        0,
                        "frame-too-large",
                        format!("frame of {len} bytes exceeds the limit"),
                    ));
                    break;
                }
                Err(FrameError::Malformed(msg)) => {
                    error_reply = Some(Response::error(0, "bad-frame", msg));
                    break;
                }
                // The peer vanished mid-frame; nothing left to answer.
                Err(FrameError::Truncated) | Err(FrameError::Io(_)) => break,
            }
        }
        self.drain_replies(&mut pending, &mut next_write, writer, true)?;
        if let Some(response) = error_reply {
            write_frame(writer, &response)?;
        }
        writer.flush()?;
        Ok(outcome)
    }

    /// Delivers worker replies in sequence order (see [`deliver`]). With
    /// `block`, waits until all outstanding sequence numbers have been
    /// written.
    fn drain_replies(
        &mut self,
        pending: &mut BTreeMap<u64, Response>,
        next_write: &mut u64,
        writer: &mut impl Write,
        block: bool,
    ) -> io::Result<()> {
        loop {
            while let Ok((seq, response)) = self.reply_rx.try_recv() {
                deliver(pending, next_write, writer, seq, response)?;
            }
            if !block || *next_write >= self.seq {
                return Ok(());
            }
            match self.reply_rx.recv() {
                Ok((seq, response)) => deliver(pending, next_write, writer, seq, response)?,
                Err(_) => {
                    // Workers are gone; answer what we can and stop.
                    while *next_write < self.seq {
                        let response = pending.remove(next_write).unwrap_or_else(|| {
                            Response::error(0, "internal", "shard worker is gone")
                        });
                        write_frame(writer, &response)?;
                        *next_write += 1;
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Stops and joins every worker thread.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for queue in &self.queues {
            let _ = queue.send(Job::Stop);
        }
        self.queues.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Writes `response` at once when it is the next in sequence — then every
/// buffered reply that follows it — and otherwise buffers it in `pending`
/// until its turn. A closed-loop client's replies never touch the buffer.
fn deliver(
    pending: &mut BTreeMap<u64, Response>,
    next_write: &mut u64,
    writer: &mut impl Write,
    seq: u64,
    response: Response,
) -> io::Result<()> {
    if seq != *next_write {
        pending.insert(seq, response);
        return Ok(());
    }
    write_frame(writer, &response)?;
    *next_write += 1;
    while let Some(response) = pending.remove(next_write) {
        write_frame(writer, &response)?;
        *next_write += 1;
    }
    Ok(())
}

/// Verifies a snapshot was produced under this configuration.
fn check_snapshot_compat(config: &ServerConfig, file: &SnapshotFile) -> Result<(), ServerError> {
    let mine = (
        config.topology.to_string(),
        config.policy.name().to_string(),
        config.admission.name().to_string(),
        config.seed,
    );
    let theirs = (
        file.topology.clone(),
        file.policy.clone(),
        file.admission.clone(),
        file.seed,
    );
    if mine != theirs {
        return Err(ServerError::Config(format!(
            "snapshot was taken under topology={} policy={} admission={} seed={}, \
             but the daemon is configured with topology={} policy={} admission={} seed={}",
            theirs.0, theirs.1, theirs.2, theirs.3, mine.0, mine.1, mine.2, mine.3
        )));
    }
    Ok(())
}

/// The worker loop: pull jobs, answer on the reply channel.
fn run_worker(jobs: &Receiver<Job>, engines: &mut BTreeMap<usize, ShardEngine<'_>>) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Submit {
                seq,
                req_id,
                bucket,
                flow,
                reply,
            } => {
                let flow_id = flow.id as u64;
                let response = match engines.get_mut(&bucket) {
                    Some(engine) => {
                        let (plan, reason) = match engine.submit(flow) {
                            Ok(plan) => (Some(plan), None),
                            Err(reason) => (None, Some(reason)),
                        };
                        Response::new(
                            req_id,
                            ResponseBody::Admit(AdmitReply {
                                flow: flow_id,
                                admitted: plan.is_some(),
                                reason,
                                plan,
                            }),
                        )
                    }
                    None => Response::error(req_id, "internal", "bucket routed to wrong worker"),
                };
                let _ = reply.send((seq, response));
            }
            Job::Query {
                seq,
                req_id,
                bucket,
                flow,
                reply,
            } => {
                let response = match engines.get(&bucket) {
                    Some(engine) => {
                        let (state, delivered, remaining) = engine.query(flow as usize);
                        Response::new(
                            req_id,
                            ResponseBody::Status(StatusReply {
                                flow,
                                state: state.to_string(),
                                delivered,
                                remaining,
                            }),
                        )
                    }
                    None => Response::error(req_id, "internal", "bucket routed to wrong worker"),
                };
                let _ = reply.send((seq, response));
            }
            Job::Collect { reply } => {
                let states = engines.values().map(ShardEngine::state).collect();
                let _ = reply.send(states);
            }
            Job::Topology { link, down, reply } => {
                for engine in engines.values_mut() {
                    engine.apply_link_event(link, down);
                }
                let _ = reply.send(());
            }
            Job::Stop => break,
        }
    }
}
