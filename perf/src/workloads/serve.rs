//! `serve_closed`: one closed-loop client talking to a `dcn-server`
//! daemon over the framed wire path.
//!
//! A scheduler client needs its rate plan before it may send, so the next
//! frame goes out only after the previous reply has been decoded.

use super::{generate_flows, timed, topology_probes, Fingerprint, Pass, Sizes};
use crate::fluid::fluid_bound;
use crate::stats;
use crate::trace::Tracer;
use dcn_server::protocol::{
    decode_request, encode_frame, read_frame, Request, RequestBody, Response, ResponseBody,
    SubmitFlow,
};
use dcn_server::{Server, ServerConfig, TopologySpec};
use dcn_topology::GraphCsr;
use std::time::Instant;

/// A `QueryFlow` follows every this many submissions.
const SUBMITS_PER_QUERY: u64 = 4;

/// The pre-encoded request stream of one pass.
struct Stream {
    requests: Vec<Request>,
    frames: Vec<Vec<u8>>,
}

impl Stream {
    fn is_query(&self, index: usize) -> bool {
        matches!(self.requests[index].body, RequestBody::QueryFlow { .. })
    }
}

/// What the client saw over one run of the stream.
struct Replies {
    /// Every reply frame, concatenated in order.
    bytes: Vec<u8>,
    /// Round trip of each frame (sent → reply decoded), in seconds.
    latency_s: Vec<f64>,
    /// Frames answered with anything but an admission or a known status.
    failed: u64,
    busy: u64,
    admitted: u64,
}

pub fn pass(sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let power = sizes.power();

    let setup = Instant::now();
    let spec = TopologySpec::parse(&format!("fat-tree:{}", sizes.k))?;
    let topo = tracer.span("topology.builders.build", || spec.build());
    let flows = generate_flows(tracer, sizes, seed, topo.hosts())?;
    // The arrival process releases flows in id order, so id order is
    // release order and the daemon assigns submission `i` the flow id `i`.
    let mut requests = Vec::with_capacity(flows.len() + flows.len() / SUBMITS_PER_QUERY as usize);
    for flow in flows.iter() {
        requests.push(Request::new(
            requests.len() as u64,
            RequestBody::SubmitFlow(SubmitFlow {
                src: flow.src.index(),
                dst: flow.dst.index(),
                release: flow.release,
                deadline: flow.deadline,
                volume: flow.volume,
            }),
        ));
        let submitted = flow.id as u64 + 1;
        if submitted.is_multiple_of(SUBMITS_PER_QUERY) {
            requests.push(Request::new(
                requests.len() as u64,
                RequestBody::QueryFlow {
                    flow: splitmix64(seed ^ submitted) % submitted,
                },
            ));
        }
    }
    let frames: Vec<Vec<u8>> = tracer.span("server.protocol.encode_request", || {
        requests.iter().map(encode_frame).collect()
    });
    let stream = Stream { requests, frames };
    let mut server = start_server(&spec)?;
    pass.setup_s = setup.elapsed().as_secs_f64();

    let (replies, work_s) = timed(|| closed_loop(&mut server, &stream, &mut Tracer::new(false)));
    let replies = replies?;
    pass.work_s = work_s;
    pass.attempted = stream.frames.len() as u64;

    // Audit what the daemon committed, on every pass because the energy
    // comes out of it: the snapshot must rebuild into a schedule.
    let snapshot = tracer.span("server.snapshot.collect", || server.collect_snapshot());
    let snapshot = snapshot.map_err(|e| e.to_string())?;
    server.shutdown();
    let schedule = snapshot
        .schedule(&topo.network)
        .map_err(|e| format!("the snapshot does not rebuild into a schedule: {e}"))?;
    pass.energy = tracer.span("core.schedule.energy", || schedule.energy(&power).total());
    let graph = GraphCsr::from_network(&topo.network);
    pass.fluid = fluid_bound(&graph, &flows, &power)?;
    pass.failed = replies.failed + snapshot.missed_count() as u64;
    if snapshot.flow_count() != flows.len() {
        pass.errors.push(format!(
            "the snapshot holds {} flows, {} were submitted",
            snapshot.flow_count(),
            flows.len()
        ));
    }

    let mut fingerprint = Fingerprint::new();
    fingerprint.bytes(&replies.bytes);
    fingerprint.f64(pass.energy);
    fingerprint.u64(snapshot.missed_count() as u64);
    pass.fingerprint = fingerprint.finish();

    if tracer.enabled() {
        topology_probes(&mut pass, tracer, &topo.network, topo.hosts());
        traced(&mut pass, tracer, &spec, &stream, &replies)?;
    }
    Ok(pass)
}

fn start_server(spec: &TopologySpec) -> Result<Server, String> {
    Server::start(ServerConfig::new(*spec)).map_err(|e| e.to_string())
}

/// Sends every frame through `serve_connection` on a one-frame reader and
/// decodes the reply before sending the next.
fn closed_loop(
    server: &mut Server,
    stream: &Stream,
    tracer: &mut Tracer,
) -> Result<Replies, String> {
    let mut replies = Replies {
        bytes: Vec::with_capacity(stream.frames.len() * 256),
        latency_s: Vec::with_capacity(stream.frames.len()),
        failed: 0,
        busy: 0,
        admitted: 0,
    };
    for frame in &stream.frames {
        let sent = Instant::now();
        let before = replies.bytes.len();
        let served = tracer.span("server.serve_connection", || {
            server.serve_connection(&mut frame.as_slice(), &mut replies.bytes)
        });
        served.map_err(|e| e.to_string())?;
        let response = decode_reply(&mut &replies.bytes[before..])?;
        replies.latency_s.push(sent.elapsed().as_secs_f64());
        match response.body {
            ResponseBody::Admit(reply) if reply.admitted => replies.admitted += 1,
            ResponseBody::Status(status) if status.state != "unknown" => {}
            ResponseBody::Busy { .. } => {
                replies.busy += 1;
                replies.failed += 1;
            }
            _ => replies.failed += 1,
        }
    }
    Ok(replies)
}

/// Reads one reply frame off `bytes` and decodes it.
fn decode_reply(bytes: &mut &[u8]) -> Result<Response, String> {
    let payload = read_frame(bytes)
        .map_err(|e| format!("reply frame: {e}"))?
        .ok_or("the daemon sent no reply")?;
    let text = std::str::from_utf8(&payload).map_err(|e| format!("reply frame: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("reply does not decode: {e}"))
}

/// Repeats the stream with a span per `serve_connection` call, once more
/// through `Server::request` (the same routing and shard work without the
/// codec), and times each codec direction alone over the same frames.
fn traced(
    pass: &mut Pass,
    tracer: &mut Tracer,
    spec: &TopologySpec,
    stream: &Stream,
    expected: &Replies,
) -> Result<(), String> {
    let mut server = start_server(spec)?;
    let (replies, traced_s) = timed(|| closed_loop(&mut server, stream, tracer));
    let replies = replies?;
    server.shutdown();
    if replies.bytes != expected.bytes {
        pass.errors
            .push("the traced run's reply bytes differ from the untraced run's".to_string());
    }
    let serve_us = stats::median(&tracer.durations_s("server.serve_connection")) * 1e6;

    let mut server = start_server(spec)?;
    let mut request_s = Vec::with_capacity(stream.requests.len());
    for request in stream.requests.iter().cloned() {
        let (response, seconds) = timed(|| server.request(request));
        std::hint::black_box(response);
        request_s.push(seconds);
    }
    server.shutdown();
    let request_us = stats::median(&request_s) * 1e6;

    let frames = stream.frames.len() as f64;
    let span = tracer.begin("server.protocol.decode_request");
    for frame in &stream.frames {
        let payload = read_frame(&mut frame.as_slice())
            .map_err(|e| e.to_string())?
            .ok_or("empty request frame")?;
        std::hint::black_box(decode_request(&payload).map_err(|_| "request does not decode")?);
    }
    tracer.end(span);
    let mut cursor = expected.bytes.as_slice();
    let mut responses = Vec::with_capacity(stream.frames.len());
    let span = tracer.begin("server.protocol.decode_reply");
    while !cursor.is_empty() {
        responses.push(decode_reply(&mut cursor)?);
    }
    tracer.end(span);
    let encoded: usize = tracer.span("server.protocol.encode_reply", || {
        responses.iter().map(|r| encode_frame(r).len()).sum()
    });
    if responses.len() != stream.frames.len() || encoded != expected.bytes.len() {
        pass.errors.push(format!(
            "{} replies re-encode to {encoded} bytes, the daemon sent {} replies in {} bytes",
            responses.len(),
            stream.frames.len(),
            expected.bytes.len()
        ));
    }

    let (mut submit, mut query) = (Vec::new(), Vec::new());
    for (i, &seconds) in expected.latency_s.iter().enumerate() {
        if stream.is_query(i) {
            query.push(seconds * 1e6);
        } else {
            submit.push(seconds * 1e6);
        }
    }
    stats::sort(&mut submit);
    let request_bytes: usize = stream.frames.iter().map(Vec::len).sum();
    pass.common_layer_times(tracer);
    for (metric, span, scale) in [
        (
            "server.protocol.encode_request_us",
            "server.protocol.encode_request",
            1e6 / frames,
        ),
        (
            "server.protocol.decode_request_us",
            "server.protocol.decode_request",
            1e6 / frames,
        ),
        (
            "server.protocol.encode_reply_us",
            "server.protocol.encode_reply",
            1e6 / frames,
        ),
        (
            "server.protocol.decode_reply_us",
            "server.protocol.decode_reply",
            1e6 / frames,
        ),
        ("server.snapshot.collect_ms", "server.snapshot.collect", 1e3),
    ] {
        pass.layer_time(tracer, metric, span, scale);
    }
    for (metric, value) in [
        ("trace.untraced_work_s", pass.work_s),
        ("trace.work_s", traced_s),
        (
            "server.protocol.request_bytes",
            request_bytes as f64 / frames,
        ),
        (
            "server.protocol.reply_bytes",
            expected.bytes.len() as f64 / frames,
        ),
        ("server.serve_connection_us", serve_us),
        ("server.request_us", request_us),
        ("server.admitted", expected.admitted as f64),
        ("server.busy", expected.busy as f64),
        ("server.submit_p50_us", stats::quantile_sorted(&submit, 0.5)),
        (
            "server.submit_p99_us",
            stats::quantile_sorted(&submit, 0.99),
        ),
        ("server.query_p50_us", stats::median(&query)),
    ] {
        pass.layer(metric, value);
    }
    Ok(())
}

/// One round of SplitMix64: spreads the query targets over earlier flows.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
