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
//!   crediting, admission (the core `AdmissionRule`) and rate planning
//!   ([`ServePolicy`]).
//! - [`server`] — the router, bounded worker queues with `Busy`
//!   backpressure, and the connection loop ([`Server::serve_connection`]).
//! - [`snapshot`] — JSON persistence of the complete in-flight state, one
//!   record per flow; a restarted daemon resumes its admitted flows
//!   bit-identically.
//!
//! The `dcn-serve` binary wires a [`Server`] to stdin/stdout
//! (`--stdio`) or a TCP listener (`--listen`).
//!
//! # What a frame costs
//!
//! Nothing in a served frame grows with the input seen so far: the codec
//! is linear in the frame's bytes, a route is read off the source's
//! breadth-first tree, and a submission reads each live schedule of its
//! bucket once. A schedule stores a piece per rate change of its flow —
//! one under `edf`/`greedy` until a link event re-plans it — and, for a
//! flow that moved, its pieces on every link it used. On the benchmark's
//! `serve_closed` stream
//! (one closed-loop client, fat-tree k=8, 10 000 frames) the loop takes
//! about 0.09 s — per frame about 4.5 µs of router → worker thread hop,
//! 4.5–5 µs of JSON codec at both ends and under 1.7 µs of shard work —
//! and the 5.3 MB snapshot of that stream restores in 0.05 s
//! (EXPERIMENTS.md, "Where a served request goes" and "Why the daemon
//! keeps its pacer").
//!
//! # What the daemon does not guarantee
//!
//! **Link capacity.** Every bucket plans independently on the *full*
//! fabric, and the `edf`/`greedy` planners pace each flow once, at
//! admission, without a per-link account — so the plans the daemon commits
//! can add up to more than a link carries. On the benchmark's
//! `serve_closed` stream (fat-tree k=8, 8000 submissions, load 128,
//! capacity 10) `edf` admits 8000 of 8000, misses none by its own
//! accounting, and the worst link peaks 1.23 / 0.86 / 5.82 above capacity
//! (seeds 1/2/3); `greedy` peaks at a link rate of 50–60; `--admission
//! reject-infeasible` probes each bucket's residual alone and, at load
//! 160, rejected nothing while the excess stood at 2.49–6.68. Nothing
//! gates this: the `serve --quick` artifact CI uploads carries
//! `rs_capacity_excess` 14.17 for `fat-tree:8|edf|admit-all`. The core
//! engine's `edf` run per bucket keeps each bucket, not their union,
//! within capacity (still 1.08 / 0.82 / 5.83 over), at 4.7–4.8× the
//! shard's own planning time (EXPERIMENTS.md, "Why the daemon keeps its
//! pacer"): capacity safety needs one per-link account shared by the
//! buckets. Link churn, by contrast, is safe: a failure re-plans from
//! the shard clock every admitted flow whose plan rides the failed link,
//! and a flow left without a route plans nothing until a recovery
//! re-plans it.

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
pub use snapshot::{BucketState, FlowRecord, SnapshotError, SnapshotFile, SNAPSHOT_VERSION};
pub use worker::{EngineSettings, ServePolicy};
