//! Scheduler-as-a-service: a long-lived daemon serving admission and
//! rate-plan decisions over a framed JSON protocol.
//!
//! The batch crates solve a complete instance at once; this crate keeps
//! the scheduler *resident*. A [`Server`] owns message-passing shard
//! workers — one thread per worker, each holding warm
//! [`worker::ShardEngine`]s (solver context + in-flight ledger) for the
//! pod buckets it was striped — and a router that hashes every
//! submission to its source pod's bucket. Replies flow back through a
//! sequence-ordered mux, so the reply stream for a given request stream
//! is byte-identical at any `--shard-workers` width; see
//! [`server`] for the full determinism contract.
//!
//! The pieces:
//!
//! - [`protocol`] — length-prefixed JSON frames and the versioned
//!   request/response envelope ([`Request`]/[`Response`]); malformed
//!   input becomes a typed error reply, never a panic.
//! - [`worker`] — the per-shard engine: logical clock, delivery
//!   crediting, admission ([`ServeAdmission`]) and rate planning
//!   ([`ServePolicy`]).
//! - [`server`] — the router, bounded worker queues with `Busy`
//!   backpressure, and the connection loop ([`Server::serve_connection`]).
//! - [`snapshot`] — JSON persistence of the complete in-flight state;
//!   a restarted daemon resumes its admitted flows bit-identically.
//!
//! The `dcn-serve` binary wires a [`Server`] to stdin/stdout
//! (`--stdio`) or a TCP listener (`--listen`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod worker;

pub use protocol::{
    decode_request, encode_frame, read_frame, write_frame, AdmitReply, ErrorReply, FrameError,
    PlanSegment, Request, RequestBody, Response, ResponseBody, StatusReply, SubmitFlow, WirePlan,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{ServeOutcome, Server, ServerConfig, ServerError, TopologySpec};
pub use snapshot::{
    BucketState, FlowRecord, PlanRecord, SnapshotError, SnapshotFile, SNAPSHOT_VERSION,
};
pub use worker::{serve_fmcf_config, AdmitOutcome, EngineSettings, ServeAdmission, ServePolicy};
