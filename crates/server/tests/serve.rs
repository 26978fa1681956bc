//! Behavioral pins of the daemon: reply streams are byte-identical at
//! every `--shard-workers` width, a snapshot/restore cycle continues
//! bit-identically to an uninterrupted run, full queues answer `Busy`
//! with the configured retry hint, and incompatible or damaged snapshots
//! are refused at startup with a typed error.

use std::io::Cursor;
use std::path::PathBuf;

use dcn_core::online::{
    OnlineEngine, OnlineEvent, OnlinePolicy, PolicyAction, RatePlan, WorldView,
};
use dcn_core::{FlowSchedule, SolveError, SolverContext};
use dcn_flow::workload::UniformWorkload;
use dcn_flow::FlowSet;
use dcn_power::{PowerFunction, RateProfile};
use dcn_server::{
    encode_frame, read_frame, AdmitReply, BucketState, Request, RequestBody, Response,
    ResponseBody, ServePolicy, Server, ServerConfig, SnapshotFile, StatusReply, SubmitFlow,
    TopologySpec,
};
use dcn_topology::{BuiltTopology, GraphCsr, LinkId, NodeId};

fn config() -> ServerConfig {
    ServerConfig::new(TopologySpec::FatTree { k: 4 })
}

/// A deterministic request stream: `n` submissions from the paper's
/// uniform workload in release order, a query after every fifth.
fn canned_requests(n: usize, seed: u64) -> Vec<Request> {
    canned_requests_on(TopologySpec::FatTree { k: 4 }, n, seed)
}

/// [`canned_requests`] on the hosts of `spec`.
fn canned_requests_on(spec: TopologySpec, n: usize, seed: u64) -> Vec<Request> {
    let built = spec.build();
    let flows = UniformWorkload::paper_defaults(n, seed)
        .generate(&built.hosts)
        .expect("workload generates");
    let mut flows: Vec<_> = flows.iter().cloned().collect();
    flows.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .expect("finite times")
            .then(a.id.cmp(&b.id))
    });
    let mut requests = Vec::new();
    for (submitted, flow) in flows.iter().enumerate() {
        requests.push(Request::new(
            requests.len() as u64,
            RequestBody::SubmitFlow(SubmitFlow {
                src: flow.src.0,
                dst: flow.dst.0,
                release: flow.release,
                deadline: flow.deadline,
                volume: flow.volume,
            }),
        ));
        if (submitted + 1) % 5 == 0 {
            requests.push(Request::new(
                requests.len() as u64,
                RequestBody::QueryFlow {
                    flow: submitted as u64,
                },
            ));
        }
    }
    requests
}

fn to_stream(requests: &[Request]) -> Vec<u8> {
    let mut stream = Vec::new();
    for request in requests {
        stream.extend_from_slice(&encode_frame(request));
    }
    stream
}

/// Runs one connection over `stream` against a fresh server of `config`.
fn serve(config: ServerConfig, stream: &[u8]) -> Vec<u8> {
    let mut server = Server::start(config).expect("server starts");
    let mut reader = Cursor::new(stream.to_vec());
    let mut replies = Vec::new();
    server
        .serve_connection(&mut reader, &mut replies)
        .expect("in-memory write cannot fail");
    server.shutdown();
    replies
}

fn parse_replies(bytes: &[u8]) -> Vec<Response> {
    let mut reader = Cursor::new(bytes.to_vec());
    let mut replies = Vec::new();
    while let Some(payload) = read_frame(&mut reader).expect("well-formed reply frames") {
        let text = std::str::from_utf8(&payload).expect("UTF-8 replies");
        replies.push(serde_json::from_str(text).expect("valid Response"));
    }
    replies
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dcn-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn replies_are_byte_identical_at_every_worker_width() {
    let stream = to_stream(&canned_requests(40, 11));
    let baseline = serve(config(), &stream);
    assert!(!baseline.is_empty());
    for workers in [2, 3, 5, 8] {
        let mut wide = config();
        wide.shard_workers = workers;
        assert_eq!(
            serve(wide, &stream),
            baseline,
            "reply stream diverged at {workers} workers"
        );
    }
}

#[test]
fn policies_differ_but_each_is_width_invariant() {
    let stream = to_stream(&canned_requests(25, 3));
    for policy in [ServePolicy::Edf, ServePolicy::Greedy, ServePolicy::Resolve] {
        let mut narrow = config();
        narrow.policy = policy;
        let mut wide = narrow.clone();
        wide.shard_workers = 4;
        assert_eq!(
            serve(narrow, &stream),
            serve(wide, &stream),
            "{} diverged across widths",
            policy.name()
        );
    }
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    let requests = canned_requests(40, 17);
    let split = requests.len() / 2;
    restart_continues_bit_identically(config(), &requests, split, "roundtrip");

    // Across re-solves that move flows from route to route.
    let mut resolve = config();
    resolve.policy = ServePolicy::Resolve;
    restart_continues_bit_identically(resolve, &requests, split, "roundtrip-resolve");

    // Across a link failure before the snapshot and its recovery after it:
    // the failed link is one a live flow has been delivering on.
    let snapshot_after = |requests: &[Request]| {
        let mut server = Server::start(config()).expect("server starts");
        for request in requests {
            server.request(request.clone());
        }
        let snapshot = server.collect_snapshot().expect("snapshot collects");
        server.shutdown();
        snapshot
    };
    let fails_at = split / 2;
    let before = snapshot_after(&requests[..fails_at]);
    let ridden = (before.buckets.iter().flat_map(|b| &b.flows))
        .find(|f| !f.retired && f.delivered > 0.0 && f.path.len() > 3)
        .expect("some live flow leaves its edge switch");
    let built = TopologySpec::FatTree { k: 4 }.build();
    let link = link_id(&built, ridden.path[1], ridden.path[2]);
    let event = |down: bool| Request::new(8_000_000, RequestBody::LinkEvent { link, down });
    let mut churned = requests.clone();
    churned.insert(fails_at, event(true));
    churned.insert(split + 1 + (requests.len() - split) / 2, event(false));
    restart_continues_bit_identically(config(), &churned, split + 1, "roundtrip-link");
    // The snapshot holds the failure once, and that the flow moved: its
    // past stays on the failed link.
    let moved = snapshot_after(&churned[..=split]);
    assert_eq!(moved.down_links, [link]);
    let moved = (moved.buckets.iter().flat_map(|b| &b.flows)).find(|f| f.id == ridden.id);
    let moved = moved.expect("the ridden flow is still recorded");
    assert!(moved.links.iter().any(|&(l, _)| l == link), "{moved:?}");
}

/// The id of the directed link `a → b` of `built`.
fn link_id(built: &BuiltTopology, a: usize, b: usize) -> usize {
    let link = built.network.find_link(NodeId(a), NodeId(b));
    link.expect("the link exists").0
}

/// The benchmark-size restart: a fat-tree:8 daemon restarted from the
/// snapshot of 8000 submissions — a file of several megabytes, the size
/// of `serve_closed`'s own — continues byte-identically. The parser that
/// re-validated the remaining input for every string character took
/// minutes to load such a file; it is well under a second now.
#[test]
#[ignore = "benchmark-size (seconds in debug): cargo test --release -p dcn-server -- --ignored"]
fn a_benchmark_size_snapshot_restores_and_continues_bit_identically() {
    let spec = TopologySpec::FatTree { k: 8 };
    let requests = canned_requests_on(spec, 8_400, 29);
    // 8000 submissions and their 1600 queries before the snapshot.
    let split = 8_000 * 6 / 5;
    let bytes = restart_continues_bit_identically(
        ServerConfig::new(spec),
        &requests,
        split,
        "benchmark-size",
    );
    assert!(bytes > 4 << 20, "the snapshot is only {bytes} bytes");
}

/// Serves `requests[..split]`, snapshots, restarts from the file and
/// serves the rest; both halves must equal an uninterrupted run reply
/// for reply. Returns the snapshot's size in bytes.
fn restart_continues_bit_identically(
    config: ServerConfig,
    requests: &[Request],
    split: usize,
    name: &str,
) -> u64 {
    let snapshot_path = temp_path(name);

    // The uninterrupted reference run.
    let mut reference = Server::start(config.clone()).expect("server starts");
    let full: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_frame(&reference.request(r.clone())))
        .collect();
    reference.shutdown();

    // First half, snapshot, kill.
    let mut cfg = config;
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut first = Server::start(cfg.clone()).expect("server starts");
    let head: Vec<Vec<u8>> = requests[..split]
        .iter()
        .map(|r| encode_frame(&first.request(r.clone())))
        .collect();
    let done = first.request(Request::new(9_000_000, RequestBody::Snapshot));
    assert!(
        matches!(done.body, ResponseBody::SnapshotDone { .. }),
        "snapshot failed: {done:?}"
    );
    first.shutdown();
    let bytes = std::fs::metadata(&snapshot_path)
        .expect("snapshot written")
        .len();

    // Restart from the snapshot and serve the second half.
    let mut second = Server::start(cfg).expect("server restores");
    let tail: Vec<Vec<u8>> = requests[split..]
        .iter()
        .map(|r| encode_frame(&second.request(r.clone())))
        .collect();
    second.shutdown();

    assert_eq!(
        head,
        full[..split].to_vec(),
        "{name}: pre-snapshot replies diverged"
    );
    assert_eq!(
        tail,
        full[split..].to_vec(),
        "{name}: post-restore replies diverged"
    );
    let _ = std::fs::remove_file(&snapshot_path);
    bytes
}

#[test]
fn snapshot_file_rebuilds_an_auditable_schedule() {
    let snapshot_path = temp_path("audit");
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg).expect("server starts");
    for request in canned_requests(30, 5) {
        server.request(request);
    }
    server.request(Request::new(9_000, RequestBody::Snapshot));
    server.shutdown();

    let file = SnapshotFile::load(&snapshot_path).expect("snapshot loads");
    assert_eq!(file.flow_count(), 30);
    let built = TopologySpec::FatTree { k: 4 }.build();
    let schedule = file.schedule(&built.network).expect("schedule rebuilds");
    let power = config().power;
    let energy = schedule.energy(&power);
    assert!(energy.idle.is_finite() && energy.dynamic > 0.0);
    let _ = std::fs::remove_file(&snapshot_path);

    // Each flow's audited schedule delivered, up to its bucket's clock,
    // what the daemon answers for it.
    let mut server = Server::start(config()).expect("server starts");
    for request in canned_requests(30, 5) {
        server.request(request);
    }
    for bucket in &file.buckets {
        let clock = bucket.clock.unwrap_or(f64::NEG_INFINITY);
        for record in &bucket.flows {
            let audited = schedule.flow_schedule(record.id as usize).expect("audited");
            let audited = audited.profile.volume_between(f64::NEG_INFINITY, clock);
            let query = Request::new(0, RequestBody::QueryFlow { flow: record.id });
            let ResponseBody::Status(status) = server.request(query).body else {
                panic!("a query answers a status");
            };
            assert!(
                (audited - status.delivered).abs() <= 1e-9 * record.volume,
                "flow {}: audited {audited}, answered {}",
                record.id,
                status.delivered
            );
        }
    }
    server.shutdown();
}

#[test]
fn incompatible_snapshot_is_refused_at_startup() {
    let snapshot_path = temp_path("compat");
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg.clone()).expect("server starts");
    for request in canned_requests(10, 2) {
        server.request(request);
    }
    server.request(Request::new(9_000, RequestBody::Snapshot));
    server.shutdown();

    let mut other = cfg;
    other.policy = ServePolicy::Greedy;
    let err = match Server::start(other) {
        Ok(_) => panic!("policy mismatch must be refused"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("policy=edf"),
        "unhelpful refusal: {err}"
    );
    let _ = std::fs::remove_file(&snapshot_path);
}

#[test]
fn full_queues_answer_busy_with_the_configured_hint() {
    // One worker, queue depth 1, solver-priced policy: a burst of
    // submissions outruns the worker, so the overflow gets `Busy`.
    let mut cfg = config();
    cfg.policy = ServePolicy::Resolve;
    cfg.queue_depth = 1;
    cfg.retry_after_ms = 7;
    let stream = to_stream(&canned_requests(30, 23));
    let replies = parse_replies(&serve(cfg, &stream));
    let mut admits = 0usize;
    let mut busy = 0usize;
    for reply in &replies {
        match &reply.body {
            ResponseBody::Admit(_) | ResponseBody::Status(_) => admits += 1,
            ResponseBody::Busy { retry_after_ms } => {
                assert_eq!(*retry_after_ms, 7);
                busy += 1;
            }
            other => panic!("unexpected reply under backpressure: {other:?}"),
        }
    }
    assert_eq!(admits + busy, replies.len());
    assert!(
        busy > 0,
        "queue depth 1 under a 30-submission burst never overflowed"
    );
}

#[test]
fn queries_report_lifecycle_states() {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let host = |i: usize| built.hosts[i].0;
    let mut server = Server::start(config()).expect("server starts");

    let admit = server.request(Request::new(
        0,
        RequestBody::SubmitFlow(SubmitFlow {
            src: host(0),
            dst: host(5),
            release: 1.0,
            deadline: 10.0,
            volume: 4.0,
        }),
    ));
    assert!(matches!(
        &admit.body,
        ResponseBody::Admit(a) if a.admitted && a.plan.is_some()
    ));

    let live = server.request(Request::new(1, RequestBody::QueryFlow { flow: 0 }));
    assert!(
        matches!(&live.body, ResponseBody::Status(s) if s.state == "in-flight"),
        "fresh flow should be in flight: {live:?}"
    );

    let unknown = server.request(Request::new(2, RequestBody::QueryFlow { flow: 99 }));
    assert!(matches!(&unknown.body, ResponseBody::Status(s) if s.state == "unknown"));

    // A submission whose deadline is behind the shard clock is rejected,
    // and stays queryable as rejected on the same shard.
    let src = host(0);
    let graph = GraphCsr::from_network(&built.network);
    let same_pod_src = built
        .hosts
        .iter()
        .map(|h| h.0)
        .find(|&h| {
            h != src
                && graph.pod_of(dcn_topology::NodeId(h)) == graph.pod_of(dcn_topology::NodeId(src))
        })
        .expect("fat-tree pods hold several hosts");
    let late = server.request(Request::new(
        3,
        RequestBody::SubmitFlow(SubmitFlow {
            src: same_pod_src,
            dst: host(9),
            release: 0.5,
            deadline: 0.9,
            volume: 1.0,
        }),
    ));
    assert!(
        matches!(&late.body, ResponseBody::Admit(a) if !a.admitted),
        "expired deadline must be rejected: {late:?}"
    );
    let rejected = server.request(Request::new(4, RequestBody::QueryFlow { flow: 1 }));
    assert!(
        matches!(&rejected.body, ResponseBody::Status(s) if s.state == "rejected"),
        "rejected flow should be queryable: {rejected:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_request_gets_bye_and_ends_the_connection() {
    let mut requests = canned_requests(5, 41);
    requests.push(Request::new(500, RequestBody::Shutdown));
    // Anything after Shutdown must not be served.
    requests.push(Request::new(501, RequestBody::QueryFlow { flow: 0 }));
    let replies = parse_replies(&serve(config(), &to_stream(&requests)));
    assert_eq!(replies.len(), requests.len() - 1);
    let last = replies.last().expect("bye reply");
    assert_eq!(last.id, 500);
    assert!(matches!(last.body, ResponseBody::Bye));
}

/// Serves a few flows, snapshots, lets `damage` edit the first bucket
/// that holds a flow, and returns the startup error of a daemon restarted
/// on the damaged file.
fn restart_on_damaged_snapshot(name: &str, damage: impl FnOnce(&mut BucketState)) -> String {
    restart_on_damaged_file(name, |file| {
        let bucket = file.buckets.iter_mut().find(|b| !b.flows.is_empty());
        damage(bucket.expect("some bucket holds a flow"));
    })
}

/// Serves a few flows, snapshots, lets `damage` edit the file, and
/// returns the startup error of a daemon restarted on the damaged file.
fn restart_on_damaged_file(name: &str, damage: impl FnOnce(&mut SnapshotFile)) -> String {
    let snapshot_path = temp_path(name);
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg.clone()).expect("server starts");
    for request in canned_requests(10, 2) {
        server.request(request);
    }
    server.request(Request::new(9_000, RequestBody::Snapshot));
    server.shutdown();

    let mut file = SnapshotFile::load(&snapshot_path).expect("snapshot loads");
    damage(&mut file);
    file.save(&snapshot_path).expect("snapshot saves");

    let err = match Server::start(cfg) {
        Ok(_) => panic!("a damaged snapshot must be refused"),
        Err(e) => e.to_string(),
    };
    let _ = std::fs::remove_file(&snapshot_path);
    err
}

#[test]
fn snapshot_with_a_negative_rate_is_a_typed_startup_error() {
    let mut named = (0, 0);
    let err = restart_on_damaged_snapshot("negative-rate", |bucket| {
        bucket.flows[0].pieces[0].rate = -3.0;
        named = (bucket.bucket, bucket.flows[0].id);
    });
    let (bucket, flow) = named;
    assert!(
        err.contains(&format!("failed to start bucket {bucket}:"))
            && err.contains(&format!("bucket {bucket} flow {flow}: `pieces`"))
            && err.contains("at rate -3"),
        "unhelpful refusal: {err}"
    );
}

#[test]
fn snapshot_with_a_reversed_segment_is_a_typed_startup_error() {
    let mut named = (0, 0);
    let err = restart_on_damaged_snapshot("reversed-segment", |bucket| {
        bucket.flows[0].pieces[0].end = -4.0;
        named = (bucket.bucket, bucket.flows[0].id);
    });
    let (bucket, flow) = named;
    assert!(
        err.contains(&format!("bucket {bucket} flow {flow}: `pieces`")) && err.contains(", -4)"),
        "unhelpful refusal: {err}"
    );
}

#[test]
fn an_unknown_algorithm_is_refused_at_startup_under_every_policy() {
    for policy in [ServePolicy::Edf, ServePolicy::Greedy, ServePolicy::Resolve] {
        let mut config = config();
        config.policy = policy;
        config.algorithm = "nope".into();
        let err = Server::start(config)
            .err()
            .unwrap_or_else(|| panic!("{policy:?} started on an unknown algorithm"))
            .to_string();
        assert!(err.contains("\"nope\""), "unhelpful refusal: {err}");
    }
}

#[test]
fn snapshot_with_an_unknown_down_link_is_a_typed_startup_error() {
    let err = restart_on_damaged_file("unknown-down-link", |file| file.down_links.push(9_999));
    assert!(
        err.contains("snapshot down link 9999 does not exist"),
        "unhelpful refusal: {err}"
    );
}

#[test]
fn snapshot_with_a_negative_delivery_is_a_typed_startup_error() {
    let mut named = (0, 0);
    let err = restart_on_damaged_snapshot("negative-delivered", |bucket| {
        bucket.flows[0].delivered = -5.0;
        named = (bucket.bucket, bucket.flows[0].id);
    });
    let (bucket, flow) = named;
    assert!(
        err.contains(&format!("bucket {bucket} flow {flow}: `delivered`")),
        "unhelpful refusal: {err}"
    );
}

/// The one retire rule, seen from both drivers: a flow delivered to
/// exactly `volume * (1 - 1e-9)` counts as served by the core engine and
/// reads `delivered` from a shard.
#[test]
fn both_drivers_retire_a_flow_delivered_to_exactly_the_volume_tolerance() {
    /// Serves every in-flight flow at one fixed rate on its shortest path.
    #[derive(Debug)]
    struct Pace(f64);
    impl OnlinePolicy for Pace {
        fn name(&self) -> &str {
            "pace"
        }
        fn on_event(
            &mut self,
            ctx: &mut SolverContext<'_>,
            _power: &PowerFunction,
            _event: &OnlineEvent,
            world: &WorldView<'_>,
        ) -> Result<PolicyAction, SolveError> {
            let mut plan = RatePlan::default();
            for id in world.in_flight() {
                let flow = world.flow(id);
                let path = ctx
                    .graph()
                    .shortest_path(flow.src, flow.dst)
                    .expect("fat-tree hosts are connected");
                plan.assign(id, path, self.0);
            }
            Ok(PolicyAction::Assign(plan))
        }
    }

    let volume = 4.0;
    let exactly = volume * (1.0 - 1e-9);
    let built = TopologySpec::FatTree { k: 4 }.build();
    let (src, dst) = (built.hosts[0], built.hosts[5]);

    // Core engine: one commit over the unit span delivers `exactly`.
    let flows = FlowSet::from_tuples([(src, dst, 0.0, 1.0, volume)]).expect("valid flow");
    let mut ctx = SolverContext::from_network(&built.network).expect("valid network");
    let outcome = OnlineEngine::builder()
        .policy_instance(Box::new(Pace(exactly)))
        .build()
        .expect("engine builds")
        .run(&mut ctx, &flows, &config().power)
        .expect("run succeeds");
    let decision = outcome.report.decisions[0];
    assert_eq!(decision.delivered, exactly);
    assert!(decision.admitted && !decision.missed);

    // Shard: the same delivery state, restored from a snapshot, retires as
    // delivered on the next advance of the bucket clock.
    let status = status_after_edited_restart("tolerance", volume, |bucket| {
        bucket.flows[0].pieces.clear();
        bucket.flows[0].delivered = exactly;
    });
    assert!(
        status.state == "delivered"
            && status.delivered == exactly
            && status.remaining == volume - exactly,
        "the shard disagrees with the engine: {status:?}"
    );
}

/// Admits one flow of `volume` over `[1, 50]`, snapshots, lets `edit`
/// rewrite its bucket in the file, restarts on the edited file, advances
/// the bucket clock to 30 with a second submission and returns the first
/// flow's status.
fn status_after_edited_restart(
    name: &str,
    volume: f64,
    edit: impl FnOnce(&mut BucketState),
) -> StatusReply {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let submit = |release: f64| {
        RequestBody::SubmitFlow(SubmitFlow {
            src: built.hosts[0].0,
            dst: built.hosts[5].0,
            release,
            deadline: 50.0,
            volume,
        })
    };
    let snapshot_path = temp_path(name);
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg.clone()).expect("server starts");
    server.request(Request::new(0, submit(1.0)));
    server.request(Request::new(1, RequestBody::Snapshot));
    server.shutdown();
    let mut file = SnapshotFile::load(&snapshot_path).expect("snapshot loads");
    let bucket = file.buckets.iter_mut().find(|b| !b.flows.is_empty());
    edit(bucket.expect("the admitted flow is in some bucket"));
    file.save(&snapshot_path).expect("snapshot saves");

    let mut server = Server::start(cfg).expect("server restores");
    server.request(Request::new(2, submit(30.0)));
    let status = server.request(Request::new(3, RequestBody::QueryFlow { flow: 0 }));
    server.shutdown();
    let _ = std::fs::remove_file(&snapshot_path);
    match status.body {
        ResponseBody::Status(status) => status,
        other => panic!("expected a status reply, got {other:?}"),
    }
}

/// The ledger credits what a plan delivered, unclamped; a plan that
/// overshoots the volume must still read as exactly the volume on the wire.
#[test]
fn replies_never_show_more_than_the_volume_delivered() {
    let status = status_after_edited_restart("overshoot", 4.0, |bucket| {
        // Twice the paced rate: by t = 30 the plan has moved 4.7 of 4.
        bucket.flows[0].pieces[0].rate *= 2.0;
    });
    assert!(
        status.state == "delivered" && status.delivered == 4.0 && status.remaining == 0.0,
        "overshoot leaked into the reply: {status:?}"
    );
}

/// Flow 0 of fat-tree:4, 8 → 35 over `[1, 50]`, is admitted on
/// `[8, 6, 4, 0, 28, 31, 35]`; then link `a → b` fails and a same-pod flow
/// moves the bucket clock to 60. Returns flow 0's status and its audited
/// schedule.
fn after_a_failure_under_flow_0(a: usize, b: usize) -> (StatusReply, FlowSchedule) {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let submit = |src: usize, dst: usize, release: f64, deadline: f64| {
        RequestBody::SubmitFlow(SubmitFlow {
            src,
            dst,
            release,
            deadline,
            volume: 4.0,
        })
    };
    let mut server = Server::start(config()).expect("server starts");
    let admit = server.request(Request::new(0, submit(8, 35, 1.0, 50.0)));
    let ResponseBody::Admit(AdmitReply {
        plan: Some(plan), ..
    }) = admit.body
    else {
        panic!("flow 0 is admitted: {admit:?}");
    };
    assert_eq!(plan.path, [8, 6, 4, 0, 28, 31, 35]);
    let link = link_id(&built, a, b);
    let ack = server.request(Request::new(1, RequestBody::LinkEvent { link, down: true }));
    assert!(matches!(
        ack.body,
        ResponseBody::LinkAck { changed: true, .. }
    ));
    server.request(Request::new(2, submit(10, 11, 60.0, 70.0)));
    let status = server.request(Request::new(3, RequestBody::QueryFlow { flow: 0 }));
    let snapshot = server.collect_snapshot().expect("snapshot collects");
    server.shutdown();
    let ResponseBody::Status(status) = status.body else {
        panic!("a query answers a status");
    };
    let schedule = snapshot
        .schedule(&built.network)
        .expect("the audit rebuilds");
    (
        status,
        schedule
            .flow_schedule(0)
            .expect("flow 0 is audited")
            .clone(),
    )
}

#[test]
fn a_link_event_re_plans_what_it_severs() {
    // A failed fabric link: flow 0 moves off it at t = 1 and still delivers.
    let (status, schedule) = after_a_failure_under_flow_0(6, 4);
    assert_eq!(status.state, "delivered");
    assert!((status.delivered - 4.0).abs() < 1e-12, "{status:?}");
    let built = TopologySpec::FatTree { k: 4 }.build();
    let failed = LinkId(link_id(&built, 6, 4));
    let after = |p: &RateProfile| p.volume_between(1.0, f64::INFINITY);
    assert_eq!(schedule.link_profile(failed).map_or(0.0, after), 0.0);
    assert!((after(&schedule.profile) - 4.0).abs() < 1e-12);
    assert!(!schedule.path.contains_link(failed));

    // Host 8's access link: nothing routes flow 0, which misses.
    let (status, schedule) = after_a_failure_under_flow_0(8, 6);
    assert_eq!((status.state.as_str(), status.delivered), ("missed", 0.0));
    assert_eq!(schedule.activity_span(), None);
}
