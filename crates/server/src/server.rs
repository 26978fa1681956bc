//! The daemon: a router that is itself shard executor 0, in front of
//! message-passing worker threads for executors 1..W−1.
//!
//! ```text
//!                    +------------------------------------------+
//!   framed requests  |  Server (router = shard executor 0)      |
//!  ----------------> |  pod_of(src) -> bucket -> bucket % W     |
//!                    |  seq-stamped jobs; executor 0's buckets  |
//!                    |  0,W,2W,.. run inline (warm ShardEngines)|
//!                    +----+---------------------------+---------+
//!                         | bounded mpsc              | bounded mpsc
//!                    +----v-------+             +-----v------+
//!                    | executor 1 |     ...     | executor   |   one thread each,
//!                    | buckets    |             | W-1        |   warm ShardEngine
//!                    | 1,W+1,..   |             | buckets .. |   per owned bucket
//!                    +----+-------+             +-----+------+
//!                         | own reply channel         |
//!                         +-------> reply mux <-------+
//!                                 (seq-ordered; executor 0's
//!                                  replies are immediate)
//!                                        |
//!                       framed replies   v
//!                    <-------------------+
//! ```
//!
//! At the default width 1 the router runs every job on the thread that
//! decoded its frame: no thread is spawned and no frame crosses a queue.
//!
//! Determinism contract: logical shards are *pod buckets* fixed by the
//! topology (`pod_of(src)`, plus one cross bucket for pod-less sources);
//! `--shard-workers` only maps buckets onto executors (`bucket % W`,
//! `W = min(shard_workers, buckets)`, executor 0 the router). The router
//! stamps every request with a global sequence number, dispatches in
//! arrival order, and the reply mux writes responses back in sequence
//! order. A link event or a snapshot applies to the router's engines at
//! once and reaches every thread through its FIFO queue, so every bucket
//! sees the same request subsequence and the reply stream is
//! byte-identical at any width.
//!
//! Backpressure: a worker thread's full queue answers `Busy`. Executor 0
//! never does — its job runs synchronously, so it is its own backpressure.
//! A worker thread that is gone (stopped, or panicked mid-job) answers
//! every request it still owed with `internal`; a job that panics on the
//! router takes the router down with it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

use dcn_core::online::AdmissionRule;
use dcn_core::AlgorithmRegistry;
use dcn_flow::Flow;
use dcn_power::PowerFunction;
use dcn_topology::{builders, BuiltTopology, GraphCsr, LinkId, Network, NodeId};

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
    /// Returns a message describing the expected forms, or the fabric's size.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let sized = |parsed, nodes: Option<usize>, links: Option<usize>| match nodes.zip(links) {
            Some((n, m)) if n.max(m) < u32::MAX as usize => Ok(parsed),
            Some((n, m)) => Err(format!("{spec:?}: {n} nodes, {m} links, past u32 ids")),
            None => Err(format!("{spec:?} overflows its node or link count")),
        };
        let (family, params) = spec.split_once(':').unwrap_or((spec, ""));
        match family {
            "fat-tree" => {
                let k: usize = params
                    .parse()
                    .map_err(|_| format!("fat-tree expects `fat-tree:K`, got {spec:?}"))?;
                if k < 2 || !k.is_multiple_of(2) {
                    return Err(format!("fat-tree requires an even k >= 2, got {k}"));
                }
                // (k/2)² cores; k pods of k switches, (k/2)² hosts, 6·(k/2)² links.
                let q = (k / 2).checked_mul(k / 2);
                let nodes = q.and_then(|q| k.checked_mul(k.checked_add(q)?)?.checked_add(q));
                let links = q.and_then(|q| q.checked_mul(6)?.checked_mul(k));
                sized(TopologySpec::FatTree { k }, nodes, links)
            }
            "leaf-spine" => {
                let parts: Result<Vec<usize>, _> = params.split(',').map(str::parse).collect();
                let Ok(&[l, s, h]) = parts.as_deref() else {
                    return Err(format!(
                        "leaf-spine expects `leaf-spine:L,S,H`, got {spec:?}"
                    ));
                };
                if l == 0 || s == 0 || h == 0 {
                    return Err("leaf-spine parameters must all be positive".to_string());
                }
                let nodes = (h.checked_add(1)).and_then(|h| l.checked_mul(h)?.checked_add(s));
                let links = (s.checked_add(h)).and_then(|c| l.checked_mul(c)?.checked_mul(2));
                let parsed = TopologySpec::LeafSpine {
                    leaves: l,
                    spines: s,
                    hosts_per_leaf: h,
                };
                sized(parsed, nodes, links)
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

    /// The topology, built on first use and shared by every server and
    /// shard executor of the process after: engines borrow its network for
    /// as long as the process runs.
    fn shared(&self) -> &'static BuiltTopology {
        static BUILT: Mutex<Vec<(TopologySpec, &'static BuiltTopology)>> = Mutex::new(Vec::new());
        let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, topology)) = built.iter().find(|(spec, _)| spec == self) {
            return topology;
        }
        let topology: &'static BuiltTopology = Box::leak(Box::new(self.build()));
        built.push((*self, topology));
        topology
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
    /// Shard executors, the router included: buckets are striped
    /// `bucket % W` with `W = min(shard_workers, buckets)`; the router runs
    /// executor 0's buckets itself, a worker thread each of the others.
    pub shard_workers: usize,
    /// Bound of each worker thread's job queue; a full queue answers
    /// `Busy`. The router's own buckets have no queue.
    pub queue_depth: usize,
    /// The `retry_after_ms` hint carried by `Busy` replies.
    pub retry_after_ms: u64,
    /// Base seed (per-solve seeds derive from it deterministically).
    pub seed: u64,
    /// Snapshot file; written on `Snapshot` requests and read back on
    /// startup when present.
    pub snapshot_path: Option<PathBuf>,
    /// Automatically snapshot after every N submissions queued to a shard,
    /// counted as the router queues them, whether the shard then admits
    /// or rejects them.
    pub snapshot_every: Option<u64>,
}

impl ServerConfig {
    /// The workload-facing defaults: fat-tree k=4, `edf` policy,
    /// admit-all, one executor (the router; no worker thread), queue
    /// depth 1024, seed 1.
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
    /// Invalid configuration, incompatible snapshot, or shard startup
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

/// A request's shard work: what the executor owning its bucket runs on
/// that bucket's engine, inline on the router (executor 0) or on a worker
/// thread.
enum Job {
    /// Admit-or-reject one flow on its bucket's engine.
    Submit {
        req_id: u64,
        bucket: usize,
        flow: Flow,
    },
    /// Answer a status query from the bucket owning the flow id.
    Query {
        req_id: u64,
        bucket: usize,
        flow: u64,
    },
}

impl Job {
    fn req_id(&self) -> u64 {
        match *self {
            Job::Submit { req_id, .. } | Job::Query { req_id, .. } => req_id,
        }
    }
}

/// What the router sends a worker thread, on its bounded FIFO queue.
enum Message {
    /// Run a job and answer on the thread's reply channel, stamped `seq`.
    Run { seq: u64, job: Job },
    /// Dump the state of every bucket the thread owns. Rides the same
    /// FIFO queue as the jobs, so it serializes after all previously
    /// dispatched work — the snapshot barrier.
    Collect(Sender<Vec<BucketState>>),
    /// Apply a link failure/recovery to every engine the thread owns.
    /// Rides the FIFO queue like [`Message::Collect`], so it lands *after*
    /// all previously dispatched submissions and *before* all later ones
    /// — at any width, every submission sees the same fabric.
    Topology {
        link: LinkId,
        down: bool,
        ack: Sender<()>,
    },
    /// Drain and exit.
    Stop,
}

/// The warm engines of one executor's buckets, by bucket.
type Engines = BTreeMap<usize, ShardEngine<'static>>;

/// Shard executor `i + 1`, a thread: its queue, its own reply channel
/// and the requests it has not answered yet.
struct WorkerThread {
    jobs: SyncSender<Message>,
    replies: Receiver<(u64, Response)>,
    /// `(seq, request id)` of every job queued to the thread and not yet
    /// answered, in dispatch order — the order the thread answers in.
    owed: VecDeque<(u64, u64)>,
    handle: JoinHandle<()>,
}

impl WorkerThread {
    /// The reply to the oldest job the thread owes, waiting for it when
    /// `block`; `None` when it owes nothing, or has not answered yet and
    /// `block` is off. A thread that is gone — it stopped or panicked with
    /// jobs queued — answers each job it owes with `internal`.
    fn next_reply(&mut self, block: bool) -> Option<(u64, Response)> {
        let &(seq, req_id) = self.owed.front()?;
        let received = if block {
            self.replies.recv().ok()
        } else {
            match self.replies.try_recv() {
                Ok(reply) => Some(reply),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => None,
            }
        };
        self.owed.pop_front();
        Some(received.unwrap_or_else(|| (seq, worker_gone(req_id))))
    }
}

fn worker_gone(req_id: u64) -> Response {
    Response::error(req_id, "internal", "shard worker is gone")
}

/// What [`Server::serve_connection`] ran into at the end of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The peer closed the stream (or broke framing and was dropped).
    Eof,
    /// The peer sent `Shutdown`; the caller should stop accepting.
    Shutdown,
}

/// A running daemon: the router, which is shard executor 0 and runs its
/// own buckets' jobs inline, and the worker threads of executors 1..W−1.
pub struct Server {
    config: ServerConfig,
    graph: GraphCsr,
    hosts: Vec<bool>,
    bucket_count: usize,
    /// Executor 0's engines: the buckets `b % W == 0`.
    engines: Engines,
    /// Executors 1..W−1, so `W = threads.len() + 1`.
    threads: Vec<WorkerThread>,
    /// Next global sequence number (== requests dispatched so far).
    seq: u64,
    /// Next flow id (== flows ever enqueued, across restarts).
    flows_assigned: u64,
    /// Bucket owning each assigned flow id.
    assignments: Vec<usize>,
    queued_since_snapshot: u64,
}

impl Server {
    /// Shares the topology, restores the snapshot when one exists, builds
    /// the router's engines and spawns the worker threads (none at width
    /// 1).
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations (zero workers/queue depth, unknown
    /// algorithm), unreadable or incompatible snapshots, and engine
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
        let built = config.topology.shared();
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
            admission: config.admission,
            algorithm: config.algorithm.clone(),
            seed: config.seed,
        };
        let executors = config.shard_workers.min(bucket_count);
        let mut buckets_of = |executor: usize| -> Vec<(usize, Option<BucketState>)> {
            (executor..bucket_count)
                .step_by(executors)
                .map(|bucket| (bucket, states.remove(&bucket)))
                .collect()
        };
        let mut threads = Vec::with_capacity(executors - 1);
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        for executor in 1..executors {
            let (job_tx, job_rx) = mpsc::sync_channel::<Message>(config.queue_depth);
            let (reply_tx, reply_rx) = mpsc::channel();
            let buckets = buckets_of(executor);
            let settings = settings.clone();
            let down = down.clone();
            let ready = ready_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("shard-worker-{executor}"))
                .spawn(move || {
                    match start_engines(&built.network, executor, buckets, &settings, &down) {
                        Ok(mut engines) => {
                            let _ = ready.send(Ok(()));
                            run_worker(&job_rx, &reply_tx, &mut engines);
                        }
                        Err(msg) => {
                            let _ = ready.send(Err(msg));
                        }
                    }
                })
                .map_err(|e| ServerError::Config(format!("cannot spawn worker: {e}")))?;
            threads.push(WorkerThread {
                jobs: job_tx,
                replies: reply_rx,
                owed: VecDeque::new(),
                handle,
            });
        }
        drop(ready_tx);
        let mut server = Self {
            config,
            graph,
            hosts,
            bucket_count,
            engines: Engines::new(),
            threads,
            seq: 0,
            flows_assigned,
            assignments,
            queued_since_snapshot: 0,
        };
        // The router builds its own engines while the threads build theirs.
        // On an error the server drops, which stops and joins the threads.
        server.engines = start_engines(&built.network, 0, buckets_of(0), &settings, &down)
            .map_err(ServerError::Config)?;
        for _ in 1..executors {
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
        Ok(server)
    }

    /// The configuration the daemon is running under.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The bucket a source node routes to: its pod, or the cross bucket.
    fn bucket_of(&self, src: usize) -> usize {
        self.graph
            .pod_of(NodeId(src))
            .unwrap_or(self.bucket_count - 1)
    }

    /// Routes one decoded request. Returns the stamped sequence number
    /// and, for requests the router itself answers (jobs of its own
    /// buckets, errors, `Busy`, snapshots, `Shutdown`), the immediate
    /// response; `None` means a worker thread will deliver the reply
    /// through its reply channel later.
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
                    req_id: id,
                    bucket,
                    flow,
                };
                let reply = match self.execute(seq, bucket, job) {
                    Ok(reply) => reply,
                    Err(refused) => return (seq, Some(refused)),
                };
                self.flows_assigned += 1;
                self.assignments.push(bucket);
                self.queued_since_snapshot += 1;
                if let Some(every) = self.config.snapshot_every {
                    if self.queued_since_snapshot >= every {
                        self.queued_since_snapshot = 0;
                        // Periodic persistence is best-effort; a failed
                        // write must not take down serving.
                        let _ = self.take_snapshot();
                    }
                }
                (seq, reply)
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
                    req_id: id,
                    bucket,
                    flow,
                };
                (seq, self.execute(seq, bucket, job).unwrap_or_else(Some))
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
                // later submissions. The router's engines take the event at
                // once; the threads' take it behind their FIFO barrier,
                // before the ack goes out.
                let changed = if down {
                    self.graph.fail_link(link_id)
                } else {
                    self.graph.restore_link(link_id)
                };
                let mut acks = Vec::with_capacity(self.threads.len());
                for thread in &self.threads {
                    let (ack, done) = mpsc::channel();
                    let event = Message::Topology {
                        link: link_id,
                        down,
                        ack,
                    };
                    if thread.jobs.send(event).is_err() {
                        return (seq, Some(worker_gone(id)));
                    }
                    acks.push(done);
                }
                apply_link(&mut self.engines, link_id, down);
                if acks.iter().any(|done| done.recv().is_err()) {
                    return (seq, Some(worker_gone(id)));
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

    /// Runs `job` on the executor owning `bucket`. Executor 0 is the
    /// router itself: it runs the job inline and its reply is the immediate
    /// response. It never answers `Busy` — a synchronous job is its own
    /// backpressure. Any other executor's job joins its thread's bounded
    /// queue (`Ok(None)`: the reply comes through that thread's channel);
    /// a full queue refuses it with `Busy`, a dead thread with `internal`.
    fn execute(&mut self, seq: u64, bucket: usize, job: Job) -> Result<Option<Response>, Response> {
        let executor = bucket % (self.threads.len() + 1);
        let Some(thread) = executor.checked_sub(1) else {
            return Ok(Some(run_job(&mut self.engines, job)));
        };
        let req_id = job.req_id();
        let thread = &mut self.threads[thread];
        match thread.jobs.try_send(Message::Run { seq, job }) {
            Ok(()) => {
                thread.owed.push_back((seq, req_id));
                Ok(None)
            }
            Err(TrySendError::Full(_)) => Err(Response::new(
                req_id,
                ResponseBody::Busy {
                    retry_after_ms: self.config.retry_after_ms,
                },
            )),
            Err(TrySendError::Disconnected(_)) => Err(worker_gone(req_id)),
        }
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
    /// Fails when a worker thread died.
    pub fn collect_snapshot(&mut self) -> Result<SnapshotFile, ServerError> {
        let gone = || ServerError::Config("shard worker is gone".to_string());
        let mut collected = Vec::with_capacity(self.threads.len());
        for thread in &self.threads {
            let (tx, rx) = mpsc::channel();
            thread.jobs.send(Message::Collect(tx)).map_err(|_| gone())?;
            collected.push(rx);
        }
        let mut buckets = collect(&self.engines);
        for rx in collected {
            buckets.extend(rx.recv().map_err(|_| gone())?);
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
        // The job is the last its thread owes; whatever the thread answers
        // before it belongs to an abandoned loop.
        let owner = (self.threads.iter_mut())
            .find(|thread| thread.owed.back().is_some_and(|&(owed, _)| owed == seq));
        if let Some(thread) = owner {
            while let Some((got, response)) = thread.next_reply(true) {
                if got == seq {
                    return response;
                }
            }
        }
        worker_gone(0)
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
    /// written: each wait is on the thread that owes the oldest of them,
    /// and a dead thread answers what it owes with `internal`.
    fn drain_replies(
        &mut self,
        pending: &mut BTreeMap<u64, Response>,
        next_write: &mut u64,
        writer: &mut impl Write,
        block: bool,
    ) -> io::Result<()> {
        for thread in &mut self.threads {
            while let Some((seq, response)) = thread.next_reply(false) {
                deliver(pending, next_write, writer, seq, response)?;
            }
        }
        while block && *next_write < self.seq {
            let owner = (self.threads.iter_mut())
                .filter_map(|thread| Some((thread.owed.front()?.0, thread)))
                .min_by_key(|&(seq, _)| seq);
            let Some((_, thread)) = owner else {
                break;
            };
            if let Some((seq, response)) = thread.next_reply(true) {
                deliver(pending, next_write, writer, seq, response)?;
            }
        }
        Ok(())
    }

    /// Stops and joins every worker thread.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for thread in &self.threads {
            let _ = thread.jobs.send(Message::Stop);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.handle.join();
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
    if seq < *next_write {
        // A reply of an abandoned loop (a connection that failed midway).
        return Ok(());
    }
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

/// Builds the engines of the buckets striped to `executor`, each restored
/// from the snapshot state it has, on the fabric the daemon left.
fn start_engines(
    network: &'static Network,
    executor: usize,
    buckets: Vec<(usize, Option<BucketState>)>,
    settings: &EngineSettings,
    down: &[LinkId],
) -> Result<Engines, String> {
    let mut engines = Engines::new();
    for (bucket, state) in buckets {
        let engine = match &state {
            Some(state) => ShardEngine::restore(network, settings.clone(), state),
            None => ShardEngine::new(network, settings.clone(), bucket),
        };
        let mut engine = engine.map_err(|e| {
            format!("shard executor {executor} failed to start bucket {bucket}: {e}")
        })?;
        engine.restore_down_links(down);
        engines.insert(bucket, engine);
    }
    Ok(engines)
}

/// The one job executor: runs `job` on the engines of the executor that
/// owns its bucket — the router's own or a worker thread's.
fn run_job(engines: &mut Engines, job: Job) -> Response {
    match job {
        Job::Submit {
            req_id,
            bucket,
            flow,
        } => {
            let flow_id = flow.id as u64;
            let Some(engine) = engines.get_mut(&bucket) else {
                return misrouted(req_id);
            };
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
        Job::Query {
            req_id,
            bucket,
            flow,
        } => {
            let Some(engine) = engines.get(&bucket) else {
                return misrouted(req_id);
            };
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
    }
}

fn misrouted(req_id: u64) -> Response {
    Response::error(req_id, "internal", "bucket routed to wrong worker")
}

/// Every bucket state of one executor.
fn collect(engines: &Engines) -> Vec<BucketState> {
    engines.values().map(ShardEngine::state).collect()
}

/// Applies a link failure/recovery to every engine of one executor.
fn apply_link(engines: &mut Engines, link: LinkId, down: bool) {
    for engine in engines.values_mut() {
        engine.apply_link_event(link, down);
    }
}

/// A worker thread's loop: handle messages in queue order, answering jobs
/// on the thread's own reply channel.
fn run_worker(
    messages: &Receiver<Message>,
    replies: &Sender<(u64, Response)>,
    engines: &mut Engines,
) {
    while let Ok(message) = messages.recv() {
        match message {
            Message::Run { seq, job } => {
                let _ = replies.send((seq, run_job(engines, job)));
            }
            Message::Collect(reply) => {
                let _ = reply.send(collect(engines));
            }
            Message::Topology { link, down, ack } => {
                apply_link(engines, link, down);
                let _ = ack.send(());
            }
            Message::Stop => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, SubmitFlow};
    use std::time::Duration;

    #[test]
    fn topology_specs_past_the_graph_ids_are_refused_by_count() {
        // 1.5·k³ directed links: k = 1420 is the largest even k under
        // `u32::MAX`.
        assert_eq!(
            TopologySpec::parse("fat-tree:1420"),
            Ok(TopologySpec::FatTree { k: 1420 })
        );
        let err = TopologySpec::parse("fat-tree:1422").unwrap_err();
        assert!(err.contains("721378467 nodes, 4313105172 links"), "{err}");
        let err = TopologySpec::parse("fat-tree:4294967296").unwrap_err();
        assert!(err.contains("overflows its node or link count"), "{err}");
        let err = TopologySpec::parse("leaf-spine:1,1,4294967296").unwrap_err();
        assert!(err.contains("4294967298 nodes, 8589934594 links"), "{err}");
        let err = TopologySpec::parse(&format!("leaf-spine:{},2,2", usize::MAX)).unwrap_err();
        assert!(err.contains("overflows its node or link count"), "{err}");
        for bad in ["leaf-spine:1,2", "leaf-spine:1,2,x", "leaf-spine:1,2,3,4"] {
            let err = TopologySpec::parse(bad).unwrap_err();
            assert!(err.starts_with("leaf-spine expects"), "{err}");
        }
    }

    fn config(workers: usize) -> ServerConfig {
        let mut config = ServerConfig::new(TopologySpec::FatTree { k: 4 });
        config.shard_workers = workers;
        config
    }

    /// A submission from pod 1 (hosts 16–19 of the k=4 fat-tree), whose
    /// bucket executor 1 owns at width 2.
    fn from_pod_1(id: u64) -> Request {
        Request::new(
            id,
            RequestBody::SubmitFlow(SubmitFlow {
                src: 16,
                dst: 24,
                release: 1.0,
                deadline: 10.0,
                volume: 1.0,
            }),
        )
    }

    /// Runs `serve` on a thread of its own and waits at most 10 s for it:
    /// a router that waits on a dead thread forever fails here (and its
    /// thread is left behind, as nothing could join it).
    fn within_timeout<T: Send + 'static>(serve: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(serve());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the router answered within 10 s")
    }

    /// Stops executor 1 and puts in its place a thread that runs `body`
    /// on a fresh queue and reply channel.
    fn replace_thread(
        server: &mut Server,
        body: impl FnOnce(Receiver<Message>, Sender<(u64, Response)>) + Send + 'static,
    ) {
        let (jobs, messages) = mpsc::sync_channel(4);
        let (replies_tx, replies) = mpsc::channel();
        let handle = std::thread::spawn(move || body(messages, replies_tx));
        let fake = WorkerThread {
            jobs,
            replies,
            owed: VecDeque::new(),
            handle,
        };
        let old = std::mem::replace(&mut server.threads[0], fake);
        let _ = old.jobs.send(Message::Stop);
        let _ = old.handle.join();
    }

    fn assert_internal(response: &Response, id: u64) {
        match &response.body {
            ResponseBody::Error(e) => assert_eq!((response.id, e.code.as_str()), (id, "internal")),
            other => panic!("expected an internal error, got {other:?}"),
        }
    }

    #[test]
    fn the_router_is_executor_0_and_width_1_starts_no_thread() {
        fn send<T: Send>() {}
        send::<Server>();
        // Fat-tree k=4: four pod buckets and the cross bucket.
        for (width, threads) in [(1, 0), (2, 1), (3, 2), (5, 4), (8, 4)] {
            let server = Server::start(config(width)).expect("server starts");
            assert_eq!(server.threads.len(), threads, "width {width}");
            let executors = threads + 1;
            let own: Vec<usize> = server.engines.keys().copied().collect();
            let striped: Vec<usize> = (0..5).step_by(executors).collect();
            assert_eq!(own, striped, "width {width}");
        }
    }

    #[test]
    fn a_thread_that_stops_with_a_job_queued_answers_it_with_internal() {
        let (queued, written) = within_timeout(|| {
            let mut server = Server::start(config(2)).expect("server starts");
            // The thread reads its queue only once both the `Stop` and the
            // submission behind it are in.
            let (open, gate) = mpsc::channel::<()>();
            replace_thread(&mut server, move |messages, replies| {
                let _ = gate.recv();
                run_worker(&messages, &replies, &mut Engines::new());
            });
            let stop = server.threads[0].jobs.send(Message::Stop);
            let (seq, immediate) = server.dispatch(from_pod_1(7));
            drop(open);
            let (mut pending, mut next_write, mut written) = (BTreeMap::new(), seq, Vec::new());
            let drained = server.drain_replies(&mut pending, &mut next_write, &mut written, true);
            (
                stop.is_ok() && drained.is_ok() && immediate.is_none(),
                written,
            )
        });
        assert!(queued, "the submission was queued behind the Stop");
        let payload = read_frame(&mut written.as_slice()).expect("a reply frame");
        let text = String::from_utf8(payload.expect("one reply")).expect("UTF-8");
        assert_internal(&serde_json::from_str(&text).expect("a Response"), 7);
    }

    #[test]
    fn a_thread_that_dies_mid_job_answers_with_internal() {
        let (reply, after) = within_timeout(|| {
            let mut server = Server::start(config(2)).expect("server starts");
            replace_thread(&mut server, |messages, _replies| {
                while let Ok(message) = messages.recv() {
                    if let Message::Run { .. } = message {
                        return;
                    }
                }
            });
            let reply = server.request(from_pod_1(3));
            // The dead thread's buckets stay answered; the router's own
            // (pod 0, hosts 8–11) keep serving.
            let after = server.request(from_pod_1(4));
            let mut own = from_pod_1(5);
            if let RequestBody::SubmitFlow(submit) = &mut own.body {
                submit.src = 8;
            }
            (reply, [after, server.request(own)])
        });
        assert_internal(&reply, 3);
        assert_internal(&after[0], 4);
        assert!(
            matches!(&after[1].body, ResponseBody::Admit(a) if a.admitted),
            "{:?}",
            after[1]
        );
    }
}
