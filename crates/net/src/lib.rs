//! `dpack-net`: the wire protocol and remote tenant frontend.
//!
//! DPack is meant to run as a *shared service*: the paper's §6.4
//! deployment puts the scheduler behind a cluster API that many
//! tenants hit over the network (as PrivateKube does for budget
//! admission). This crate is that layer for the in-process
//! [`dpack_service::BudgetService`], in the house style — std-only,
//! vendored, deterministic, testable without sockets:
//!
//! * [`wire`] — a length-prefixed, checksummed binary protocol (the
//!   WAL's frame and field rules from `dpack_wal::codec`, on a socket)
//!   with request/response codecs for submit, batch submit, block
//!   registration, stats, budget snapshots, metrics scrapes, and
//!   flight-recorder dumps. Request ids make pipelining and
//!   out-of-order completion first-class.
//! * [`error`] — one [`NetError`] for io/protocol/admission/remote
//!   failures, carrying **stable** [`ErrorCode`]s shared by both codec
//!   directions; every [`dpack_service::AdmissionError`] variant has
//!   its own frozen code.
//! * [`server`] — [`NetServer`], a reactor over nonblocking `std::net`
//!   sockets that waits on their readiness (connection sweep,
//!   per-connection buffers, pipelined requests, graceful shutdown),
//!   answering submissions
//!   with **final decisions** via the service's async submission
//!   surface ([`dpack_service::BudgetService::submit_async`]); and
//!   [`ServiceCore`], the transport-independent request processor.
//! * [`transport`] / [`client`] — the [`Transport`] seam with a real
//!   [`TcpTransport`] and an in-memory [`LoopbackTransport`], under a
//!   pipelining [`NetClient`], one per connection, whose
//!   [`NetClient::connect_primary`] probes candidate addresses for the
//!   current primary of a replicated deployment.
//! * [`repl`] / [`cluster`] — quorum WAL shipping ([`Replicator`] on
//!   the primary, [`ReplicaNode`] on the receivers) and the
//!   self-healing deployment member ([`ClusterNode`]): heartbeat
//!   failure detection, durable-seq-vector leader election with
//!   stale-term fencing, automatic promotion, and snapshot+suffix
//!   replica catch-up with backoff redials.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use dp_accounting::{AlphaGrid, RdpCurve};
//! use dpack_core::problem::{Block, Task};
//! use dpack_service::{BudgetService, ServiceConfig, ServiceHandle};
//! use dpack_net::{NetClient, NetServer, Outcome};
//!
//! let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
//! let service = Arc::new(BudgetService::new(grid, ServiceConfig {
//!     unlock_steps: 1,
//!     ..ServiceConfig::default()
//! }));
//! let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
//! let cycles = ServiceHandle::spawn(Arc::clone(&service), Duration::from_millis(1));
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let grid = client.grid().unwrap();
//! client.register_block(&Block::new(0, RdpCurve::constant(&grid, 1.0), 0.0)).unwrap();
//! let task = Task::new(1, 1.0, vec![0], RdpCurve::constant(&grid, 0.4), 0.0);
//! // The reply is the *final decision*, not an enqueue ack.
//! assert!(matches!(client.submit(7, &task).unwrap(), Outcome::Granted { .. }));
//!
//! cycles.stop();
//! server.stop();
//! ```

pub mod client;
pub mod cluster;
pub mod error;
mod readiness;
pub mod repl;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{Connector, NetClient, PongInfo, ReplyHandle};
pub use cluster::{ClusterConfig, ClusterNode, ClusterPeer, ClusterRunner};
pub use error::{admission_code, ErrorCode, NetError};
pub use repl::{ReplicaNode, Replicator};
pub use server::{NetServer, PendingReply, ServiceCore, Step};
pub use transport::{LoopbackTransport, TcpTransport, Transport};
pub use wire::{
    Outcome, Request, RequestFrame, Response, ResponseFrame, WireClusterStatus, WirePeer,
    WireStats, WireTask, REPL_COORD_STREAM,
};

/// The observability crate whose snapshots and events travel on the
/// wire, re-exported so remote scrapers can consume
/// [`obs::MetricsSnapshot`] and [`obs::Event`] without a separate
/// dependency.
pub use dpack_obs as obs;
