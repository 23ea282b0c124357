//! tcast-net: a wire protocol, TCP front-end, and pipelined client for
//! the query service.
//!
//! The crate is std-only — no async runtime, no serde, no `libc` crate —
//! and splits into these layers:
//!
//! - [`frame`]: the versioned, length-prefixed, CRC-checked binary wire
//!   protocol. Frames carry [`tcast_service::QueryJob`] specs out and
//!   [`tcast::QueryReport`] / [`tcast_service::JobError`] payloads back,
//!   plus typed error frames and the `Hello`/`HelloAck` version
//!   negotiation pair.
//! - [`reactor`]: `poll(2)`-style readiness primitives on raw fds —
//!   a poll wrapper, a socketpair doorbell, and an accept-failure
//!   backoff policy — with zero dependencies beyond std.
//! - [`server`]: [`NetServer`], an event-driven TCP front-end wrapping
//!   a [`tcast_service::QueryService`]: a small fixed pool of I/O
//!   threads multiplexes many non-blocking connections, so thread
//!   count is independent of connection count. Connections pipeline
//!   many jobs; responses stream back in completion order matched by
//!   request id. Admission backpressure surfaces as explicit `Busy`
//!   error frames, a peer that stops reading its responses is closed
//!   rather than buffered for unboundedly, and shutdown drains
//!   in-flight work before closing.
//! - [`client`]: [`NetClient`], a pooled, pipelined client: a submit
//!   returns a [`NetBatch`] or one [`NetJobHandle`] per job, each waited
//!   on once, like the in-process `Batch`.
//! - [`cluster`]: [`ShardedClient`], a front-end fanning jobs across
//!   several servers by rendezvous hashing on each job's identity
//!   bytes, with transparent failover to surviving shards and
//!   background recovery probing.
//!
//! Because job execution is fully deterministic (every seed travels in
//! the job spec), a report computed remotely is bit-identical to one
//! computed in-process — the loopback integration tests assert exactly
//! that.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tcast::{ChannelSpec, CollisionModel};
//! use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};
//! use tcast_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
//!
//! let service = Arc::new(QueryService::new(ServiceConfig::default()));
//! let server = NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).unwrap();
//!
//! let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
//! let job = QueryJob::new(
//!     AlgorithmSpec::TwoTBins,
//!     ChannelSpec::ideal(256, 40, CollisionModel::OnePlus),
//!     32,
//!     7,
//! );
//! let report = client.submit_one(job).wait().unwrap();
//! assert!(report.answer);
//! client.close();
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod crc;
pub mod frame;
pub mod reactor;
pub mod server;

pub use client::{
    fetch_metrics, fetch_trace_export, NetBatch, NetClient, NetClientConfig, NetError,
    NetJobHandle, NetJobResult, TenantAuth,
};
pub use cluster::{ClusterBatch, ClusterConfig, ClusterEvent, ShardedClient};
pub use frame::{
    ErrorCode, Frame, FrameReadError, FrameReader, MalformedFrame, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
pub use server::{NetServer, NetServerConfig};

/// Blessed network-tier entrypoints, layered over
/// [`tcast_service::prelude`].
///
/// `use tcast_net::prelude::*;` brings in everything a typical remote
/// embedding needs: the core + service surface plus the wire client,
/// server, and sharded-cluster front-end.
pub mod prelude {
    pub use tcast_service::prelude::*;

    pub use crate::client::{NetClient, NetClientConfig, NetError, TenantAuth};
    pub use crate::cluster::{ClusterConfig, ShardedClient};
    pub use crate::server::{NetServer, NetServerConfig};
}
