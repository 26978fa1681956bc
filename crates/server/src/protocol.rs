//! The wire protocol of the daemon: length-prefixed JSON frames carrying
//! versioned request/response envelopes.
//!
//! # Framing
//!
//! Each frame is the ASCII decimal byte length of a JSON payload, a
//! newline, the payload itself, and a closing newline:
//!
//! ```text
//! 62\n{"v":1,"id":0,"body":{"QueryFlow":{"flow":3}}}\n
//! ```
//!
//! The text-only format keeps canned request files hand-writable and
//! diffable while still making payload boundaries explicit (a payload may
//! contain anything, including newlines). [`read_frame`] enforces
//! [`MAX_FRAME_BYTES`] *before* allocating, so an adversarial length
//! prefix cannot balloon memory, and distinguishes a clean end-of-stream
//! (`Ok(None)`) from a truncated frame ([`FrameError::Truncated`]).
//!
//! # Envelopes
//!
//! Requests and responses both carry the protocol version `v` and a
//! client-chosen correlation id `id`, echoed verbatim in the reply.
//! Malformed payloads never panic the server: [`decode_request`] returns
//! a typed [`ErrorReply`] (with a stable machine-readable `code`) for
//! anything it cannot accept — invalid JSON, a non-object envelope, an
//! unsupported version, or an unknown request body.

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize, Value};

/// The protocol version this build speaks. Requests carrying any other
/// version are answered with an `unsupported-version` error reply.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on the JSON payload size of a single frame. Length
/// prefixes above this are rejected before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A flow-admission request: move `volume` units from `src` to `dst`
/// entirely within `[release, deadline]`. Node ids index the daemon's
/// topology; both endpoints must be hosts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitFlow {
    /// Source host node id.
    pub src: usize,
    /// Destination host node id.
    pub dst: usize,
    /// Release time (logical clock; clamped up to the shard clock).
    pub release: f64,
    /// Hard deadline.
    pub deadline: f64,
    /// Volume of data to move.
    pub volume: f64,
}

/// The request bodies of the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Admit a new flow; answered with [`ResponseBody::Admit`].
    SubmitFlow(SubmitFlow),
    /// Query the state of a previously submitted flow (by the server-
    /// assigned id from the admission reply).
    QueryFlow {
        /// The server-assigned flow id.
        flow: u64,
    },
    /// Apply a topology change: take a directed link down or bring it
    /// back up. Applied to every shard executor (on a worker thread, a
    /// FIFO barrier behind all previously dispatched work) before the
    /// [`ResponseBody::LinkAck`] reply, so later submissions are planned
    /// on the updated fabric — never on a stale route.
    LinkEvent {
        /// Directed link id on the daemon's topology.
        link: usize,
        /// `true` = the link failed, `false` = it recovered.
        down: bool,
    },
    /// Persist the in-flight state of every shard to the snapshot file.
    Snapshot,
    /// Drain and stop the daemon; answered with [`ResponseBody::Bye`].
    Shutdown,
}

/// A request envelope: version, correlation id, body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version; must equal [`PROTOCOL_VERSION`].
    pub v: u32,
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// The request body.
    pub body: RequestBody,
}

impl Request {
    /// Convenience constructor stamping the current protocol version.
    pub fn new(id: u64, body: RequestBody) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            id,
            body,
        }
    }
}

/// One constant-rate segment of a committed rate plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSegment {
    /// Segment start time.
    pub start: f64,
    /// Segment end time.
    pub end: f64,
    /// Transmission rate over the segment.
    pub rate: f64,
}

/// The rate plan committed for an admitted flow: the routing path (as
/// node ids, source first) and the planned rate over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirePlan {
    /// The node ids of the routing path, source first.
    pub path: Vec<usize>,
    /// The planned constant-rate segments, in time order.
    pub segments: Vec<PlanSegment>,
}

/// Reply to [`RequestBody::SubmitFlow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmitReply {
    /// The server-assigned flow id (use it in [`RequestBody::QueryFlow`]).
    pub flow: u64,
    /// Whether the flow was admitted.
    pub admitted: bool,
    /// Why the flow was rejected; `null` when admitted.
    pub reason: Option<String>,
    /// The committed rate plan; `null` when rejected.
    pub plan: Option<WirePlan>,
}

/// Reply to [`RequestBody::QueryFlow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReply {
    /// The queried flow id.
    pub flow: u64,
    /// `"in-flight"`, `"delivered"`, `"missed"`, `"rejected"` or
    /// `"unknown"`.
    pub state: String,
    /// Volume delivered as of the shard's logical clock.
    pub delivered: f64,
    /// Volume still outstanding.
    pub remaining: f64,
}

/// A typed error reply; `code` is stable and machine-readable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Stable machine-readable error code (e.g. `bad-json`,
    /// `unsupported-version`, `bad-flow`, `frame-too-large`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// The response bodies of the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Admission decision and committed rate plan.
    Admit(AdmitReply),
    /// Flow status.
    Status(StatusReply),
    /// Acknowledges [`RequestBody::LinkEvent`] after every shard executor
    /// has applied it.
    LinkAck {
        /// The directed link the event addressed.
        link: usize,
        /// The state the link is now in.
        down: bool,
        /// Whether the event changed anything (`false` when the link was
        /// already in the requested state).
        changed: bool,
    },
    /// Snapshot written.
    SnapshotDone {
        /// Where the snapshot landed.
        path: String,
        /// Total flows (live and retired) captured in the snapshot.
        flows: usize,
    },
    /// The target worker thread's queue is over the configured depth;
    /// retry after the suggested backoff. The router's own buckets never
    /// answer it.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Acknowledges [`RequestBody::Shutdown`]; the stream closes after.
    Bye,
    /// Typed error reply.
    Error(ErrorReply),
}

/// A response envelope mirroring [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version of the daemon.
    pub v: u32,
    /// Correlation id of the request this answers (0 when the request
    /// was too malformed to carry one).
    pub id: u64,
    /// The response body.
    pub body: ResponseBody,
}

impl Response {
    /// Convenience constructor stamping the current protocol version.
    pub fn new(id: u64, body: ResponseBody) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            id,
            body,
        }
    }

    /// A typed error reply with the given stable code.
    pub fn error(id: u64, code: &str, message: impl Into<String>) -> Self {
        Self::new(
            id,
            ResponseBody::Error(ErrorReply {
                code: code.to_string(),
                message: message.into(),
            }),
        )
    }
}

/// Why a frame could not be read off the stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The length prefix is not a decimal number, or the frame delimiter
    /// is missing — the stream is desynchronized and must be closed.
    Malformed(String),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The stream ended in the middle of a frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_BYTES} bytes")
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The longest length-prefix line [`read_frame`] reads: the prefix of a
/// [`MAX_FRAME_BYTES`] payload takes 7 digits.
const MAX_PREFIX_BYTES: usize = 32;

/// Reads one frame's JSON payload. Returns `Ok(None)` on a clean
/// end-of-stream (EOF between frames).
///
/// # Errors
///
/// See [`FrameError`]; none of the failure modes panic or allocate
/// according to untrusted lengths. A prefix line longer than
/// `MAX_PREFIX_BYTES` (32) bytes is [`FrameError::Oversized`] when it is all
/// digits and [`FrameError::Malformed`] otherwise; the rest of it is not
/// read.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; MAX_PREFIX_BYTES + 1];
    let mut filled = 0;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(FrameError::Truncated)
            };
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(buf.len()).min(prefix.len() - filled);
        prefix[filled..filled + take].copy_from_slice(&buf[..take]);
        filled += take;
        if filled > MAX_PREFIX_BYTES {
            return Err(if prefix.iter().all(u8::is_ascii_digit) {
                FrameError::Oversized(usize::MAX)
            } else {
                FrameError::Malformed(format!(
                    "length prefix is longer than {MAX_PREFIX_BYTES} bytes"
                ))
            });
        }
        match newline {
            Some(at) => {
                reader.consume(at + 1);
                break;
            }
            None => reader.consume(take),
        }
    }
    let text = std::str::from_utf8(&prefix[..filled])
        .map_err(|_| FrameError::Malformed("length prefix is not UTF-8".to_string()))?;
    let len: usize = text
        .trim()
        .parse()
        .map_err(|_| FrameError::Malformed(format!("length prefix {text:?} is not a number")))?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    let mut delimiter = [0u8; 1];
    match reader.read_exact(&mut delimiter) {
        Ok(()) if delimiter[0] == b'\n' => Ok(Some(payload)),
        Ok(()) => Err(FrameError::Malformed(
            "payload is not followed by a newline".to_string(),
        )),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Encodes one value as a frame (length prefix + JSON payload).
pub fn encode_frame<T: Serialize>(value: &T) -> Vec<u8> {
    let payload = json_payload(value);
    let mut frame = Vec::with_capacity(payload.len() + 24);
    put_frame(&mut frame, &payload).expect("writing into a Vec cannot fail");
    frame
}

/// Writes one value as a frame to `writer`.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_frame<T: Serialize>(writer: &mut impl Write, value: &T) -> std::io::Result<()> {
    put_frame(writer, &json_payload(value))
}

fn json_payload<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol types serialize to JSON infallibly")
}

/// Writes prefix, payload and closing newline straight to `writer`, with
/// no frame buffer in between.
fn put_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    writeln!(writer, "{}", payload.len())?;
    writer.write_all(payload.as_bytes())?;
    writer.write_all(b"\n")
}

/// A [`Request`] whose version is read as it was written, so that a `v`
/// the staged checks of [`decode_request`] refuse (`1.0`, say) is told
/// apart from `1`.
#[derive(Deserialize)]
struct Envelope {
    v: Value,
    id: u64,
    body: RequestBody,
}

/// Decodes a frame payload into a [`Request`]. A well-formed request at
/// this version decodes in one pass; anything else is staged so that every
/// malformed input maps to a typed error reply instead of a panic: first
/// JSON, then the envelope (`v`, `id`), then the body.
///
/// # Errors
///
/// The error side carries the ready-to-send error [`Response`].
pub fn decode_request(payload: &[u8]) -> Result<Request, Response> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| Response::error(0, "bad-json", format!("payload is not UTF-8: {e}")))?;
    if let Ok(Envelope {
        v: Value::U64(version),
        id,
        body,
    }) = serde_json::from_str(text)
    {
        if version == u64::from(PROTOCOL_VERSION) {
            return Ok(Request::new(id, body));
        }
    }
    let value: Value = serde_json::from_str(text)
        .map_err(|e| Response::error(0, "bad-json", format!("invalid JSON: {e}")))?;
    let Value::Map(ref fields) = value else {
        return Err(Response::error(
            0,
            "bad-envelope",
            "request envelope must be a JSON object",
        ));
    };
    let field_u64 = |name: &str| -> Option<u64> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| match v {
                Value::U64(n) => Some(*n),
                Value::I64(n) if *n >= 0 => Some(*n as u64),
                _ => None,
            })
    };
    // Surface the correlation id even when the rest of the envelope is
    // unusable, so the client can match the error to its request.
    let id = field_u64("id").unwrap_or(0);
    let Some(version) = field_u64("v") else {
        return Err(Response::error(
            id,
            "bad-envelope",
            "request envelope is missing the numeric version field `v`",
        ));
    };
    if version != u64::from(PROTOCOL_VERSION) {
        return Err(Response::error(
            id,
            "unsupported-version",
            format!("request version {version} is not supported (this daemon speaks {PROTOCOL_VERSION})"),
        ));
    }
    serde_json::from_str::<Request>(text)
        .map_err(|e| Response::error(id, "bad-request", format!("unrecognized request: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(request: &Request) -> Request {
        let frame = encode_frame(request);
        let mut reader = Cursor::new(frame);
        let payload = read_frame(&mut reader)
            .expect("frame reads")
            .expect("frame present");
        decode_request(&payload).expect("request decodes")
    }

    #[test]
    fn frames_round_trip_every_request_kind() {
        for body in [
            RequestBody::SubmitFlow(SubmitFlow {
                src: 0,
                dst: 5,
                release: 1.0,
                deadline: 9.5,
                volume: 10.0,
            }),
            RequestBody::QueryFlow { flow: 3 },
            RequestBody::LinkEvent {
                link: 12,
                down: true,
            },
            RequestBody::LinkEvent {
                link: 12,
                down: false,
            },
            RequestBody::Snapshot,
            RequestBody::Shutdown,
        ] {
            let request = Request::new(7, body);
            assert_eq!(round_trip(&request), request);
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let response = Response::new(
            9,
            ResponseBody::Admit(AdmitReply {
                flow: 4,
                admitted: true,
                reason: None,
                plan: Some(WirePlan {
                    path: vec![0, 16, 5],
                    segments: vec![PlanSegment {
                        start: 1.0,
                        end: 2.0,
                        rate: 3.5,
                    }],
                }),
            }),
        );
        let text = serde_json::to_string(&response).expect("response serializes");
        let parsed: Response = serde_json::from_str(&text).expect("response parses");
        assert_eq!(parsed, response);
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_truncated() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).expect("clean EOF").is_none());

        for partial in ["12", "12\n{\"v\":1", "5\nabcde"] {
            let mut reader = Cursor::new(partial.as_bytes().to_vec());
            assert!(
                matches!(read_frame(&mut reader), Err(FrameError::Truncated)),
                "{partial:?} should be truncated"
            );
        }
    }

    #[test]
    fn bad_length_prefixes_are_typed_errors() {
        let mut garbage = Cursor::new(b"not-a-number\n{}\n".to_vec());
        assert!(matches!(
            read_frame(&mut garbage),
            Err(FrameError::Malformed(_))
        ));

        let mut oversized = Cursor::new(b"999999999999\n".to_vec());
        assert!(matches!(
            read_frame(&mut oversized),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn missing_payload_delimiter_is_malformed() {
        let mut reader = Cursor::new(b"2\n{}X".to_vec());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn decode_stages_map_to_stable_error_codes() {
        let code_of = |payload: &str| match decode_request(payload.as_bytes()) {
            Err(Response {
                body: ResponseBody::Error(e),
                ..
            }) => e.code,
            other => panic!("expected error reply, got {other:?}"),
        };
        assert_eq!(code_of("{not json"), "bad-json");
        assert_eq!(code_of("[1,2,3]"), "bad-envelope");
        assert_eq!(code_of("{\"id\":4}"), "bad-envelope");
        assert_eq!(
            code_of("{\"v\":99,\"id\":4,\"body\":\"Snapshot\"}"),
            "unsupported-version"
        );
        assert_eq!(
            code_of("{\"v\":1,\"id\":4,\"body\":{\"Launch\":{}}}"),
            "bad-request"
        );
    }

    #[test]
    fn out_of_range_integers_are_bad_requests_not_saturated() {
        let code_and_id = |payload: &str| match decode_request(payload.as_bytes()) {
            Err(Response {
                id,
                body: ResponseBody::Error(e),
                ..
            }) => (e.code, id),
            other => panic!("expected error reply, got {other:?}"),
        };
        // The staged check echoes no id it cannot read as an integer.
        for (payload, id) in [
            (
                r#"{"v":1,"id":18446744073709551616,"body":{"QueryFlow":{"flow":3}}}"#,
                0,
            ),
            (
                r#"{"v":1,"id":4,"body":{"QueryFlow":{"flow":1.8446744073709552e19}}}"#,
                4,
            ),
        ] {
            assert_eq!(code_and_id(payload), ("bad-request".to_string(), id));
        }
        // 2^64 - 2048 is the largest float below 2^64: it still decodes.
        let request =
            decode_request(br#"{"v":1,"id":18446744073709549568.0,"body":"Snapshot"}"#).unwrap();
        assert_eq!(request.id, 18_446_744_073_709_549_568);
        // A version written as a float is refused, as the staged check does.
        assert_eq!(
            code_and_id(r#"{"v":1.0,"id":4,"body":"Snapshot"}"#),
            ("bad-envelope".to_string(), 4)
        );
    }

    #[test]
    fn a_length_prefix_line_is_read_no_further_than_its_cap() {
        let mut digits = vec![b'7'; 10 << 20];
        digits.push(b'\n');
        let mut reader = Cursor::new(digits);
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Oversized(usize::MAX))
        ));
        assert!(reader.position() <= 64, "read {} bytes", reader.position());

        let mut noise = vec![b'7'; 10 << 20];
        noise[20] = b'x';
        assert!(matches!(
            read_frame(&mut Cursor::new(noise)),
            Err(FrameError::Malformed(_))
        ));
        // A padded prefix within the cap still reads.
        let padded = format!("{:0>32}\n{{}}\n", 2);
        let payload = read_frame(&mut Cursor::new(padded.into_bytes())).unwrap();
        assert_eq!(payload.as_deref(), Some(&b"{}"[..]));
    }

    #[test]
    fn decode_echoes_the_correlation_id_when_present() {
        let reply = decode_request(b"{\"v\":99,\"id\":41,\"body\":\"Snapshot\"}").unwrap_err();
        assert_eq!(reply.id, 41);
    }
}
