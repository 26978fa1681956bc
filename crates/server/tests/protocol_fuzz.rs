//! Protocol robustness: the daemon must answer malformed input with a
//! typed error reply or a clean disconnect — never a panic, never a
//! hang. Covers hand-picked edge frames (truncated frames, oversized
//! length prefixes, invalid JSON, unknown request versions) and a
//! proptest sweep over random byte streams, both at the frame layer
//! ([`read_frame`]/[`decode_request`]) and through a full in-process
//! [`Server::serve_connection`].

use std::io::Cursor;

use dcn_server::{
    decode_request, read_frame, Request, RequestBody, Response, ResponseBody, Server, ServerConfig,
    SubmitFlow, TopologySpec, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn test_server() -> Server {
    Server::start(ServerConfig::new(TopologySpec::FatTree { k: 4 })).expect("server starts")
}

/// Serves `input` as one connection and returns the reply bytes.
fn serve_bytes(input: &[u8]) -> Vec<u8> {
    let mut server = test_server();
    let mut reader = Cursor::new(input.to_vec());
    let mut replies = Vec::new();
    server
        .serve_connection(&mut reader, &mut replies)
        .expect("in-memory write cannot fail");
    replies
}

/// Parses every reply frame of a served stream.
fn parse_replies(bytes: &[u8]) -> Vec<Response> {
    let mut reader = Cursor::new(bytes.to_vec());
    let mut replies = Vec::new();
    while let Some(payload) = read_frame(&mut reader).expect("server output frames are well-formed")
    {
        let text = std::str::from_utf8(&payload).expect("server output is UTF-8");
        replies.push(serde_json::from_str(text).expect("server output is a Response"));
    }
    replies
}

fn error_code(response: &Response) -> Option<&str> {
    match &response.body {
        ResponseBody::Error(e) => Some(e.code.as_str()),
        _ => None,
    }
}

#[test]
fn truncated_frames_disconnect_without_a_reply() {
    // Prefix only, prefix + partial payload, payload missing its
    // trailing newline: the peer died mid-frame, nothing to answer.
    for stream in ["7", "7\n{\"v\"", "7\n{\"v\":1}"] {
        let replies = serve_bytes(stream.as_bytes());
        assert!(
            replies.is_empty(),
            "truncated stream {stream:?} produced replies: {replies:?}"
        );
    }
}

#[test]
fn oversized_length_prefix_gets_a_typed_error() {
    let stream = format!("{}\nx", MAX_FRAME_BYTES + 1);
    let replies = parse_replies(&serve_bytes(stream.as_bytes()));
    assert_eq!(replies.len(), 1);
    assert_eq!(error_code(&replies[0]), Some("frame-too-large"));
}

#[test]
fn non_numeric_prefix_gets_a_typed_error() {
    for stream in ["notanumber\n{}\n", "-5\n{}\n", "\u{fF}12\n{}\n"] {
        let replies = parse_replies(&serve_bytes(stream.as_bytes()));
        assert_eq!(replies.len(), 1, "stream {stream:?}");
        assert_eq!(
            error_code(&replies[0]),
            Some("bad-frame"),
            "stream {stream:?}"
        );
    }
}

#[test]
fn invalid_json_payload_gets_bad_json() {
    let payload = "{not json!";
    let stream = format!("{}\n{}\n", payload.len(), payload);
    let replies = parse_replies(&serve_bytes(stream.as_bytes()));
    assert_eq!(replies.len(), 1);
    assert_eq!(error_code(&replies[0]), Some("bad-json"));
}

#[test]
fn non_object_and_unknown_body_get_bad_envelope_or_bad_request() {
    let cases = [
        ("[1,2,3]", "bad-envelope"),
        ("{\"v\":1,\"id\":4}", "bad-request"),
        (
            "{\"v\":1,\"id\":4,\"body\":{\"NoSuchRequest\":{}}}",
            "bad-request",
        ),
    ];
    for (payload, expected) in cases {
        let stream = format!("{}\n{}\n", payload.len(), payload);
        let replies = parse_replies(&serve_bytes(stream.as_bytes()));
        assert_eq!(replies.len(), 1, "payload {payload:?}");
        assert_eq!(
            error_code(&replies[0]),
            Some(expected),
            "payload {payload:?}"
        );
    }
}

#[test]
fn unknown_version_echoes_the_request_id() {
    let payload = format!(
        "{{\"v\":{},\"id\":99,\"body\":\"Shutdown\"}}",
        PROTOCOL_VERSION + 1
    );
    let stream = format!("{}\n{}\n", payload.len(), payload);
    let replies = parse_replies(&serve_bytes(stream.as_bytes()));
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].id, 99);
    assert_eq!(error_code(&replies[0]), Some("unsupported-version"));
}

#[test]
fn bad_frame_after_good_requests_answers_them_first() {
    let mut stream = dcn_server::encode_frame(&Request::new(
        0,
        RequestBody::SubmitFlow(SubmitFlow {
            src: 8,
            dst: 9,
            release: 1.0,
            deadline: 5.0,
            volume: 2.0,
        }),
    ));
    stream.extend_from_slice(b"garbage\n{}\n");
    let replies = parse_replies(&serve_bytes(&stream));
    assert_eq!(replies.len(), 2, "admission reply then frame error");
    assert!(matches!(replies[0].body, ResponseBody::Admit(_)));
    assert_eq!(error_code(&replies[1]), Some("bad-frame"));
}

#[test]
fn nonsense_submissions_are_rejected_not_panicked() {
    // Non-host endpoints, reversed deadlines, non-finite and negative
    // volumes: each gets a typed reply.
    let bodies = [
        SubmitFlow {
            src: 0,
            dst: 9,
            release: 1.0,
            deadline: 5.0,
            volume: 2.0,
        },
        SubmitFlow {
            src: 8,
            dst: 8_000,
            release: 1.0,
            deadline: 5.0,
            volume: 2.0,
        },
        SubmitFlow {
            src: 8,
            dst: 9,
            release: 5.0,
            deadline: 1.0,
            volume: 2.0,
        },
        SubmitFlow {
            src: 8,
            dst: 9,
            release: 1.0,
            deadline: 5.0,
            volume: -2.0,
        },
        SubmitFlow {
            src: 8,
            dst: 9,
            release: f64::NAN,
            deadline: 5.0,
            volume: 2.0,
        },
        SubmitFlow {
            src: 8,
            dst: 9,
            release: 1.0,
            deadline: f64::INFINITY,
            volume: 2.0,
        },
    ];
    let mut server = test_server();
    for (id, body) in bodies.into_iter().enumerate() {
        let response = server.request(Request::new(id as u64, RequestBody::SubmitFlow(body)));
        assert_eq!(response.id, id as u64);
        assert!(
            matches!(&response.body, ResponseBody::Error(e) if e.code == "bad-flow"),
            "submission {id} got {response:?}"
        );
    }
}

/// The outgoing access link of host `node` on a fat-tree(k=4).
fn access_link_of(node: usize) -> usize {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let link = built
        .network
        .links()
        .find(|l| l.src.0 == node)
        .expect("hosts have an access link")
        .id;
    link.index()
}

fn submit(src: usize, dst: usize) -> RequestBody {
    RequestBody::SubmitFlow(SubmitFlow {
        src,
        dst,
        release: 1.0,
        deadline: 50.0,
        volume: 0.5,
    })
}

#[test]
fn failed_links_turn_submissions_into_typed_errors_until_recovery() {
    let mut server = test_server();
    let link = access_link_of(8);

    // Pristine fabric: the flow admits.
    let reply = server.request(Request::new(0, submit(8, 9)));
    assert!(
        matches!(&reply.body, ResponseBody::Admit(a) if a.admitted),
        "pristine fabric must admit: {reply:?}"
    );

    // Fail host 8's only outgoing link: 8 cannot reach anything.
    let reply = server.request(Request::new(1, RequestBody::LinkEvent { link, down: true }));
    assert!(
        matches!(
            &reply.body,
            ResponseBody::LinkAck {
                down: true,
                changed: true,
                ..
            }
        ),
        "failing an up link must ack changed: {reply:?}"
    );
    let reply = server.request(Request::new(2, submit(8, 9)));
    assert!(
        matches!(&reply.body, ResponseBody::Error(e) if e.code == "unreachable"),
        "submissions across the cut must get a typed error: {reply:?}"
    );
    // Other host pairs are untouched.
    let reply = server.request(Request::new(3, submit(9, 10)));
    assert!(
        matches!(&reply.body, ResponseBody::Admit(a) if a.admitted),
        "unrelated pairs must still admit: {reply:?}"
    );
    // Failing an already-down link acks with changed = false.
    let reply = server.request(Request::new(4, RequestBody::LinkEvent { link, down: true }));
    assert!(
        matches!(&reply.body, ResponseBody::LinkAck { changed: false, .. }),
        "re-failing must be idempotent: {reply:?}"
    );

    // Recovery restores admission.
    let reply = server.request(Request::new(
        5,
        RequestBody::LinkEvent { link, down: false },
    ));
    assert!(
        matches!(
            &reply.body,
            ResponseBody::LinkAck {
                down: false,
                changed: true,
                ..
            }
        ),
        "restoring a down link must ack changed: {reply:?}"
    );
    let reply = server.request(Request::new(6, submit(8, 9)));
    assert!(
        matches!(&reply.body, ResponseBody::Admit(a) if a.admitted),
        "recovery must restore admission: {reply:?}"
    );
    server.shutdown();
}

#[test]
fn out_of_range_link_events_get_bad_link() {
    let mut server = test_server();
    let reply = server.request(Request::new(
        0,
        RequestBody::LinkEvent {
            link: usize::MAX,
            down: true,
        },
    ));
    assert!(
        matches!(&reply.body, ResponseBody::Error(e) if e.code == "bad-link"),
        "got {reply:?}"
    );
    server.shutdown();
}

#[test]
fn frame_layer_never_panics_on_edge_prefixes() {
    for stream in [
        "\n",
        "0\n\n",
        "0\n",
        "00000000000000000000000007\n{}\n",
        "18446744073709551616\nx",
        "1\n{\n",
        "2\n{}x",
    ] {
        let mut reader = Cursor::new(stream.as_bytes().to_vec());
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let _ = decode_request(&payload);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random byte soup through the frame layer: every frame either
    /// decodes or produces a typed error; no panics, ever.
    #[test]
    fn random_bytes_never_panic_the_frame_layer(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let mut reader = Cursor::new(bytes.clone());
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let _ = decode_request(&payload);
        }
    }

    /// Random byte soup through a full in-process daemon: the reply
    /// stream itself is always well-framed valid JSON.
    #[test]
    fn random_bytes_never_panic_the_daemon(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let replies = serve_bytes(&bytes);
        let _ = parse_replies(&replies);
    }

    /// Random interleavings of link failures/recoveries (including
    /// out-of-range link ids) and submissions: every request gets exactly
    /// one reply, submissions answer `Admit` or a typed error — never a
    /// panic, never a hang behind the topology broadcast barrier.
    #[test]
    fn failure_event_interleavings_never_panic_the_daemon(
        ops in prop::collection::vec(
            // (selector, link-or-src, down-or-dst): selector picks a link
            // event or a submission. Link ids straddle the real link
            // count of fat-tree(k=4) (valid and bad-link ids alike);
            // submissions span the hosts (8..=15) plus non-host ids.
            (0usize..2, 0usize..200, 0usize..2, 6usize..16, 6usize..16).prop_map(
                |(is_link, link, down, src, dst)| {
                    if is_link == 1 {
                        RequestBody::LinkEvent {
                            link,
                            down: down == 1,
                        }
                    } else {
                        submit(src, dst)
                    }
                },
            ),
            1..24,
        ),
    ) {
        let mut stream = Vec::new();
        for (id, body) in ops.iter().enumerate() {
            stream.extend_from_slice(&dcn_server::encode_frame(
                &Request::new(id as u64, body.clone()),
            ));
        }
        let replies = parse_replies(&serve_bytes(&stream));
        prop_assert_eq!(replies.len(), ops.len());
        for (op, reply) in ops.iter().zip(&replies) {
            match op {
                RequestBody::LinkEvent { .. } => prop_assert!(
                    matches!(
                        &reply.body,
                        ResponseBody::LinkAck { .. } | ResponseBody::Error(_)
                    ),
                    "link event got {:?}", reply
                ),
                RequestBody::SubmitFlow(_) => prop_assert!(
                    matches!(
                        &reply.body,
                        ResponseBody::Admit(_) | ResponseBody::Error(_)
                    ),
                    "submission got {:?}", reply
                ),
                _ => unreachable!("only link events and submissions are generated"),
            }
        }
    }

    /// Streams that *start* with valid frames but carry random JSON
    /// payloads: every payload gets exactly one reply (typed error or a
    /// real answer) until the stream ends.
    #[test]
    fn framed_random_payloads_get_one_reply_each(
        payloads in prop::collection::vec(
            prop::collection::vec(0u8..=255, 0..64),
            1..8,
        ),
    ) {
        let mut stream = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(payload.len().to_string().as_bytes());
            stream.push(b'\n');
            stream.extend_from_slice(payload);
            stream.push(b'\n');
        }
        let replies = parse_replies(&serve_bytes(&stream));
        prop_assert_eq!(replies.len(), payloads.len());
    }
}

// The decode corpus: payloads derived from the golden stream, each pinned
// to the outcome the decoder gave when the file was generated.

/// One payload per line: `req` (read with [`decode_request`]) or `rep` (a
/// [`Response`] read with `serde_json::from_str`), the payload and the
/// outcome, both escaped with `escape_ascii`, separated by tabs.
const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/protocol_decode_corpus.txt"
);

fn request_outcome(payload: &[u8]) -> String {
    match decode_request(payload) {
        Ok(request) => format!("ok {request:?}"),
        Err(Response {
            id,
            body: ResponseBody::Error(e),
            ..
        }) => format!("err {} id={id} {}", e.code, e.message),
        Err(other) => format!("err {other:?}"),
    }
}

fn reply_outcome(payload: &[u8]) -> String {
    match std::str::from_utf8(payload) {
        Ok(text) => match serde_json::from_str::<Response>(text) {
            Ok(reply) => format!("ok {reply:?}"),
            Err(e) => format!("err {e}"),
        },
        Err(_) => "err not UTF-8".to_string(),
    }
}

fn corpus_outcome(kind: &str, payload: &[u8]) -> String {
    let outcome = match kind {
        "req" => request_outcome(payload),
        "rep" => reply_outcome(payload),
        other => panic!("unknown corpus kind {other:?}"),
    };
    outcome.as_bytes().escape_ascii().to_string()
}

/// Inverts `escape_ascii`.
fn unescape(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len());
    let mut bytes = text.bytes();
    while let Some(byte) = bytes.next() {
        if byte != b'\\' {
            out.push(byte);
            continue;
        }
        out.push(match bytes.next() {
            Some(b't') => b'\t',
            Some(b'r') => b'\r',
            Some(b'n') => b'\n',
            Some(b'x') => {
                let hex =
                    [bytes.next(), bytes.next()].map(|b| char::from(b.expect("two hex digits")));
                u8::from_str_radix(&hex.iter().collect::<String>(), 16).expect("hex escape")
            }
            Some(other) => other,
            None => panic!("dangling escape in {text:?}"),
        });
    }
    out
}

#[test]
fn the_decode_corpus_reproduces_line_by_line() {
    let corpus = std::fs::read_to_string(CORPUS).expect("corpus readable");
    // `# changed <n> <outcome>`: what the strict integer bounds read in
    // payload `n` (counted from 1), where the decoder that made the file
    // saturated.
    let mut changed = std::collections::BTreeMap::new();
    for rest in corpus.lines().filter_map(|l| l.strip_prefix("# changed ")) {
        let (n, outcome) = rest.split_once(' ').expect("`# changed <n> <outcome>`");
        changed.insert(n.parse::<usize>().expect("payload number"), outcome);
    }
    let mut mismatches = Vec::new();
    let payloads = corpus.lines().filter(|l| !l.starts_with('#'));
    let mut checked = 0;
    for (index, line) in payloads.enumerate() {
        let number = index + 1;
        let mut fields = line.split('\t');
        let (Some(kind), Some(payload), Some(recorded), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            panic!("payload {number} is not `kind\\tpayload\\toutcome`");
        };
        let outcome = corpus_outcome(kind, &unescape(payload));
        let expected = changed.get(&number).copied().unwrap_or(recorded);
        if outcome != expected {
            mismatches.push(format!("# changed {number} {outcome}"));
        }
        checked += 1;
    }
    assert!(checked > 2000, "only {checked} corpus lines");
    assert!(
        mismatches.is_empty(),
        "{} of {checked} lines differ:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// SplitMix64: the corpus must not move with the vendored RNG.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((x ^ (x >> 31)) % n.max(1) as u64) as usize
    }
}

/// One structural edit, applied while a payload is written back out.
#[derive(Clone, Copy, PartialEq)]
enum Edit {
    Reorder,
    Unknown,
    DupAfter,
    DupBefore,
    Whitespace,
    IntAsFloat,
    FloatAsInt,
    FloatExponent,
    Escapes,
    /// Replaces the integer with this index by a boundary literal.
    Boundary(usize, &'static str),
}

const BOUNDARIES: [&str; 12] = [
    "18446744073709551616",
    "1.8446744073709552e19",
    "18446744073709551616.0",
    "18446744073709549568.0",
    "18446744073709551615",
    "9223372036854775808.0",
    "4294967296",
    "4294967295.0",
    "-0",
    "-1",
    "1e0",
    "0.5",
];

struct Writer<'a> {
    edit: Edit,
    mix: &'a mut Mix,
    ints: usize,
    out: String,
}

impl Writer<'_> {
    fn space(&mut self) {
        if self.edit == Edit::Whitespace && self.mix.below(2) == 0 {
            self.out
                .push_str([" ", "\n", "\t", "\r\n", "  "][self.mix.below(5)]);
        }
    }

    fn string(&mut self, s: &str) {
        if self.edit != Edit::Escapes {
            self.out
                .push_str(&serde_json::to_string(&s.to_string()).unwrap());
            return;
        }
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '/' => self.out.push_str("\\/"),
                c if u32::from(c) < 0x20 || (c.is_ascii() && self.mix.below(3) == 0) => {
                    self.out.push_str(&format!("\\u{:04x}", u32::from(c)));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn int(&mut self, text: String) {
        let index = self.ints;
        self.ints += 1;
        match self.edit {
            Edit::IntAsFloat => self.out.push_str(&format!("{text}.0")),
            Edit::Boundary(at, literal) if at == index => self.out.push_str(literal),
            _ => self.out.push_str(&text),
        }
    }

    fn value(&mut self, value: &serde::Value) {
        use serde::Value;
        self.space();
        match value {
            Value::U64(n) => self.int(n.to_string()),
            Value::I64(n) => self.int(n.to_string()),
            Value::F64(f) => match self.edit {
                Edit::FloatAsInt if f.fract() == 0.0 && f.abs() < 1e15 => {
                    self.out.push_str(&(*f as i64).to_string())
                }
                Edit::FloatExponent => self.out.push_str(&format!("{f:e}")),
                _ => self.out.push_str(&serde_json::to_string(f).unwrap()),
            },
            Value::Str(s) => self.string(s),
            Value::Null | Value::Bool(_) => {
                self.out.push_str(&serde_json::to_string(value).unwrap())
            }
            Value::Seq(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.space();
                        self.out.push(',');
                    }
                    self.value(item);
                }
                self.space();
                self.out.push(']');
            }
            Value::Map(entries) => {
                let mut entries = entries.clone();
                let len = entries.len();
                match self.edit {
                    Edit::Reorder => entries.reverse(),
                    Edit::Unknown if self.mix.below(2) == 0 => {
                        let junk =
                            serde_json::from_str(r#"{"a":[1,2.5,"x\\y",null,true,{}]}"#).unwrap();
                        entries.insert(self.mix.below(len + 1), ("zz".to_string(), junk));
                    }
                    Edit::DupAfter | Edit::DupBefore if len > 0 && self.mix.below(2) == 0 => {
                        let at = self.mix.below(len);
                        let to = if self.edit == Edit::DupAfter {
                            at + 1 + self.mix.below(len - at)
                        } else {
                            self.mix.below(at + 1)
                        };
                        let key = entries[at].0.clone();
                        entries.insert(to, (key, Value::Str("dup".to_string())));
                    }
                    _ => {}
                }
                self.out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        self.space();
                        self.out.push(',');
                    }
                    self.space();
                    self.string(key);
                    self.space();
                    self.out.push(':');
                    self.value(item);
                }
                self.space();
                self.out.push('}');
            }
        }
    }
}

fn count_ints(value: &serde::Value) -> usize {
    use serde::Value;
    match value {
        Value::U64(_) | Value::I64(_) => 1,
        Value::Seq(items) => items.iter().map(count_ints).sum(),
        Value::Map(entries) => entries.iter().map(|(_, v)| count_ints(v)).sum(),
        _ => 0,
    }
}

/// The golden stream's payloads plus the request and reply kinds it does
/// not carry.
fn corpus_seeds() -> Vec<(&'static str, String)> {
    let mut seeds = Vec::new();
    for (kind, file) in [
        ("req", "serve_requests.txt"),
        ("rep", "serve_replies_golden.txt"),
    ] {
        let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
        let bytes = std::fs::read(path).expect("golden stream readable");
        let mut reader = bytes.as_slice();
        while let Some(payload) = read_frame(&mut reader).expect("golden frames") {
            seeds.push((kind, String::from_utf8(payload).expect("UTF-8")));
        }
    }
    for body in [
        RequestBody::LinkEvent {
            link: 12,
            down: true,
        },
        RequestBody::LinkEvent {
            link: 3,
            down: false,
        },
        RequestBody::Snapshot,
        RequestBody::QueryFlow { flow: u64::MAX },
    ] {
        seeds.push((
            "req",
            serde_json::to_string(&Request::new(77, body)).unwrap(),
        ));
    }
    for body in [
        ResponseBody::LinkAck {
            link: 5,
            down: true,
            changed: false,
        },
        ResponseBody::SnapshotDone {
            path: "/var/snap \"a\"\\b.json".to_string(),
            flows: 12,
        },
        ResponseBody::Busy { retry_after_ms: 5 },
        ResponseBody::Error(dcn_server::ErrorReply {
            code: "bad-json".to_string(),
            message: "invalid JSON: expected ':' at byte 3\ttab é".to_string(),
        }),
        ResponseBody::Admit(dcn_server::AdmitReply {
            flow: 9,
            admitted: false,
            reason: Some("no route".to_string()),
            plan: None,
        }),
    ] {
        seeds.push((
            "rep",
            serde_json::to_string(&Response::new(78, body)).unwrap(),
        ));
    }
    seeds
}

/// Writes the corpus, with the outcomes of the decoder it is built
/// against, to the path in `DECODE_CORPUS_OUT` (and does nothing without
/// it, so that `--ignored` runs leave the file alone). Run it on the
/// decoder whose behaviour is to be pinned, then list in the header the
/// payloads a later decoder changes on purpose:
/// `DECODE_CORPUS_OUT=$PWD/tests/data/protocol_decode_corpus.txt cargo test --release -p dcn-server --test protocol_fuzz -- --ignored regenerate_the_decode_corpus`
#[test]
#[ignore]
fn regenerate_the_decode_corpus() {
    let Some(out) = std::env::var_os("DECODE_CORPUS_OUT") else {
        return;
    };
    let mut mix = Mix(29);
    let mut lines = Vec::new();
    for (kind, seed) in corpus_seeds() {
        let value: serde::Value = serde_json::from_str(&seed).expect("seed payloads are JSON");
        let ints = count_ints(&value);
        let mut edits = vec![
            Edit::Reorder,
            Edit::Unknown,
            Edit::DupAfter,
            Edit::DupBefore,
            Edit::Whitespace,
            Edit::IntAsFloat,
            Edit::FloatAsInt,
            Edit::FloatExponent,
            Edit::Escapes,
        ];
        for _ in 0..3 {
            edits.push(Edit::Boundary(
                mix.below(ints),
                BOUNDARIES[mix.below(BOUNDARIES.len())],
            ));
        }
        let mut payloads = vec![seed.clone().into_bytes()];
        for edit in edits {
            let mut writer = Writer {
                edit,
                mix: &mut mix,
                ints: 0,
                out: String::new(),
            };
            writer.value(&value);
            payloads.push(writer.out.into_bytes());
        }
        for _ in 0..4 {
            payloads.push(seed.as_bytes()[..mix.below(seed.len())].to_vec());
        }
        for _ in 0..8 {
            let mut flipped = seed.clone().into_bytes();
            let at = mix.below(flipped.len());
            flipped[at] ^= 1 << mix.below(8);
            payloads.push(flipped);
        }
        for payload in payloads {
            lines.push(format!(
                "{kind}\t{}\t{}",
                payload.escape_ascii(),
                corpus_outcome(kind, &payload)
            ));
        }
    }
    let header = "\
# Decode corpus of the wire protocol: one payload per line, `req` (read with
# `decode_request`) or `rep` (a `Response` read with `serde_json::from_str`),
# then the payload and the decoder's outcome, both escaped with
# `escape_ascii`, separated by tabs. The payloads are the golden stream's
# frames with keys reordered, unknown or duplicate keys added, whitespace
# added, integers written as floats and integral floats as integers, floats
# in exponent form, string escapes, integers replaced by boundary literals,
# and truncated or bit-flipped text.
# Regenerate: see `regenerate_the_decode_corpus` in crates/server/tests/protocol_fuzz.rs
";
    std::fs::write(out, format!("{header}{}\n", lines.join("\n"))).expect("corpus writable");
}
