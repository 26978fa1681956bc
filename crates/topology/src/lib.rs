//! Data-center network topology substrate.
//!
//! This crate provides the network model `G = (V, E)` used throughout the
//! reproduction of *"Energy-Efficient Flow Scheduling and Routing with Hard
//! Deadlines in Data Center Networks"* (Wang et al., ICDCS 2014): a directed
//! multigraph of switches and hosts connected by capacitated links, the
//! classic data-center topologies the paper assumes (fat-tree, BCube, ...),
//! and the path algorithms the scheduling/routing layer builds on.
//!
//! # Design notes
//!
//! * Every physical cable is represented by **two directed links** (one per
//!   direction), matching the paper's per-link rate variable `x_e(t)`.
//! * Links and nodes are identified by dense integer ids ([`NodeId`],
//!   [`LinkId`]) so that downstream crates can use plain `Vec`-indexed state
//!   and the randomized rounding in the core crate stays deterministic under
//!   a fixed seed.
//! * No external graph library is used: the schedulers need stable link ids,
//!   per-link attributes and deterministic iteration order, which are easier
//!   to guarantee with a purpose-built structure.
//! * [`Network`] is the **mutable builder**; the read path of every hot
//!   loop is the flat CSR view ([`GraphCsr`]) traversed through the
//!   arena-reuse [`ShortestPathEngine`], which keeps the per-query cost
//!   allocation-free and cache-friendly.
//!
//! # Example
//!
//! ```
//! use dcn_topology::{Network, builders};
//!
//! // The paper's evaluation topology: a k=8 fat-tree with 80 switches and
//! // 128 hosts.
//! let ft = builders::fat_tree(8);
//! assert_eq!(ft.hosts().len(), 128);
//! assert_eq!(ft.network.switch_count(), 80);
//!
//! // Shortest path between two hosts in different pods.
//! let path = ft
//!     .network
//!     .shortest_path(ft.hosts()[0], ft.hosts()[127])
//!     .expect("fat-tree is connected");
//! assert_eq!(path.len(), 6); // host-edge-agg-core-agg-edge-host
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
mod csr;
mod engine;
mod event;
mod ids;
mod network;
mod path;
mod routing;

pub use builders::BuiltTopology;
pub use csr::{BfsTree, GraphCsr};
pub use engine::ShortestPathEngine;
pub use event::TopologyEvent;
pub use ids::{LinkId, NodeId, NodeKind};
pub use network::{Link, Network, Node};
pub use path::{Path, PathError};
pub use routing::{all_shortest_paths_on, dijkstra_on, k_shortest_paths_on};
