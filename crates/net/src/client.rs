//! The remote tenant's client library.
//!
//! [`NetClient`] is a synchronous client with **pipelining**: the
//! `*_nowait` methods send a request and return a [`ReplyHandle`]
//! immediately, so a tenant can keep any number of submissions in
//! flight and collect decisions later. Responses arrive in whatever
//! order the server resolves them (a stats reply overtakes a
//! submission that is still waiting on its scheduling cycle); the
//! client matches them to handles by request id and stashes
//! out-of-order arrivals.
//!
//! **Flush contract.** Over TCP, requests are coalesced: a `*_nowait`
//! request reaches the server no later than this client's next
//! receive, its next [`NetClient::flush`], or its drop. A tenant that
//! pipelines a burst and then waits on anything *other* than this
//! client (another connection, an in-process counter, a clock) calls
//! `flush` first. A burst therefore costs one socket write, not one
//! per request.
//!
//! A connection that surfaced a transport or protocol error is
//! **broken** ([`NetClient::is_broken`]): its pipelining stream can no
//! longer be trusted to stay in sync, so the tenant drops it and
//! redials. [`NetClient::connect_primary`] makes that redial a primary
//! probe across candidate addresses, which is the client half of
//! replicated-service failover.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use dp_accounting::AlphaGrid;
use dpack_core::problem::{Block, Task, TaskId};
use dpack_service::BudgetService;

use crate::error::NetError;
use crate::transport::{LoopbackTransport, TcpTransport, Transport};
use crate::wire::{
    Outcome, Request, RequestFrame, Response, ResponseFrame, WireClusterStatus, WireStats,
    WireTask, MAX_FRAME,
};
use dpack_obs::{Span, TraceContext};

/// How a caller (re)opens a connection to one peer: the replicator's
/// links and a cluster node's peers redial through it, and tests inject
/// loopback or failing connections through it.
pub type Connector = Arc<dyn Fn() -> Result<NetClient, NetError> + Send + Sync>;

/// A claim on one in-flight request's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an unredeemed handle leaves its response in the stash forever"]
pub struct ReplyHandle(u64);

/// A synchronous, pipelining protocol client over any [`Transport`].
pub struct NetClient {
    transport: Box<dyn Transport>,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    stash: BTreeMap<u64, Response>,
    /// The stream desynced (transport failure, undecodable frame, or a
    /// server parting shot): request/response matching is no longer
    /// trustworthy, so the connection must be discarded, not reused.
    broken: bool,
}

impl NetClient {
    /// Wraps an arbitrary transport.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        Self {
            transport,
            next_id: 1,
            stash: BTreeMap::new(),
            broken: false,
        }
    }

    /// Connects over TCP to a [`crate::NetServer`].
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Ok(Self::new(Box::new(TcpTransport::connect(addr)?)))
    }

    /// Connects to the current **primary** among `addrs`, probing the
    /// candidates in order: the first that accepts the connection *and*
    /// answers the handshake with `token` wins. A replica that is alive
    /// but not promoted answers [`crate::ErrorCode::NotPrimary`] and is
    /// skipped, as is a candidate that refuses the connection.
    ///
    /// # Errors
    ///
    /// The last candidate's error when no candidate is currently
    /// primary ([`NetError::Closed`] for an empty list).
    pub fn connect_primary(addrs: &[SocketAddr], token: Option<&str>) -> Result<Self, NetError> {
        let mut last = NetError::Closed;
        for &addr in addrs {
            match Self::connect(addr).and_then(|mut c| c.handshake(token).map(|_| c)) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// A client wired straight to an in-process service (no sockets);
    /// see [`LoopbackTransport`] for the receive semantics.
    pub fn loopback(service: Arc<BudgetService>) -> Self {
        Self::new(Box::new(LoopbackTransport::new(service)))
    }

    /// Whether this connection's stream desynced; a broken client must
    /// be discarded and redialed (see [`NetClient::connect_primary`]).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Writes out every request sent so far — see the flush contract in
    /// the module docs. A failure marks the connection broken, as a
    /// failed send does.
    ///
    /// # Errors
    ///
    /// Transport failures (the requests may or may not have reached
    /// the server).
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.transport.flush().map_err(|e| self.fatal(e))
    }

    /// Marks the stream broken and passes the error through — the
    /// bookkeeping for any failure after which the request/response
    /// pipeline can no longer be trusted.
    fn fatal(&mut self, e: NetError) -> NetError {
        self.broken = true;
        e
    }

    fn send(&mut self, body: Request) -> Result<ReplyHandle, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = RequestFrame { id, body }.encode();
        // Refuse rather than let the frame encoder's size assertion
        // fire: a single request this large (a giant batch) is a
        // caller error the protocol cannot carry. Nothing touched the
        // wire, so the stream stays healthy.
        if payload.len() > MAX_FRAME as usize {
            return Err(NetError::Protocol(format!(
                "request of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            )));
        }
        self.transport
            .send_frame(&payload)
            .map_err(|e| self.fatal(e))?;
        Ok(ReplyHandle(id))
    }

    /// Receives until the response for `handle` arrives, stashing
    /// others.
    fn recv_for(&mut self, handle: ReplyHandle) -> Result<Response, NetError> {
        if let Some(resp) = self.stash.remove(&handle.0) {
            return Ok(resp);
        }
        loop {
            let payload = match self.transport.recv_frame() {
                Ok(p) => p,
                Err(e) => return Err(self.fatal(e)),
            };
            let ResponseFrame { id, body } = match ResponseFrame::decode(&payload) {
                Ok(f) => f,
                Err(e) => return Err(self.fatal(e)),
            };
            // A request-id-0 error is the server's parting shot before
            // it drops a connection it no longer trusts.
            if id == 0 {
                self.broken = true;
                if let Response::Error { code, message } = body {
                    return Err(NetError::Remote { code, message });
                }
                return Err(NetError::Protocol("response with request id 0".into()));
            }
            if id == handle.0 {
                return Ok(body);
            }
            // A second response for a stashed id means the server (or
            // something in between) desynced — silently overwriting
            // would hand a later caller the wrong decision.
            if self.stash.insert(id, body).is_some() {
                return Err(self.fatal(NetError::Protocol(format!(
                    "duplicate response for request id {id}"
                ))));
            }
        }
    }

    fn unexpected(body: &Response) -> NetError {
        match body {
            Response::Error { code, message } => NetError::Remote {
                code: *code,
                message: message.clone(),
            },
            other => NetError::Protocol(format!("response type mismatch: {other:?}")),
        }
    }

    /// The server's alpha grid — remote tenants build their demand and
    /// capacity curves on it.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a grid the accounting layer
    /// rejects.
    pub fn grid(&mut self) -> Result<AlphaGrid, NetError> {
        self.handshake(None)
    }

    /// The handshake with an optional shared-secret token. On a secured
    /// node this must run (and succeed) before any other request on the
    /// connection; a wrong or missing token answers
    /// [`crate::ErrorCode::Unauthorized`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, an `Unauthorized` refusal, or a
    /// grid the accounting layer rejects.
    pub fn handshake(&mut self, token: Option<&str>) -> Result<AlphaGrid, NetError> {
        let handle = self.send(Request::Hello {
            token: token.map(str::to_owned),
        })?;
        match self.recv_for(handle)? {
            Response::Hello { alphas } => AlphaGrid::new(alphas)
                .map_err(|e| NetError::Protocol(format!("server sent an invalid grid: {e}"))),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Bounds how long any receive on this connection blocks; an
    /// expired bound surfaces as [`NetError::Timeout`] **and marks the
    /// connection broken** (a reply that arrives after its caller gave
    /// up would desync the pipeline).
    ///
    /// # Errors
    ///
    /// Socket configuration failures.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.transport.set_read_timeout(timeout)
    }

    /// Pipelines one submission; redeem the handle with
    /// [`NetClient::wait_decision`]. The request may wait in the
    /// client until its next receive, [`NetClient::flush`] or drop.
    ///
    /// # Errors
    ///
    /// Transport failures (the submission may or may not have reached
    /// the server).
    pub fn submit_nowait(&mut self, tenant: u32, task: &Task) -> Result<ReplyHandle, NetError> {
        self.send(Request::Submit {
            tenant,
            task: WireTask::from_task(task),
            trace: None,
        })
    }

    /// [`NetClient::submit_nowait`] under a distributed-trace context:
    /// the server opens the grant's root span at admission and every
    /// node it touches records children under the same trace id.
    ///
    /// # Errors
    ///
    /// Transport failures (the submission may or may not have reached
    /// the server).
    pub fn submit_traced_nowait(
        &mut self,
        tenant: u32,
        task: &Task,
        trace: TraceContext,
    ) -> Result<ReplyHandle, NetError> {
        self.send(Request::Submit {
            tenant,
            task: WireTask::from_task(task),
            trace: Some(trace),
        })
    }

    /// Redeems a [`NetClient::submit_nowait`] handle: blocks until the
    /// service's **final decision** for that task arrives.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures. A rejection is *not* an error —
    /// it is an [`Outcome::Rejected`] decision.
    pub fn wait_decision(&mut self, handle: ReplyHandle) -> Result<Outcome, NetError> {
        match self.recv_for(handle)? {
            Response::Decision { outcome, .. } => Ok(outcome),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Submits one task and blocks for its final decision.
    ///
    /// # Errors
    ///
    /// See [`NetClient::wait_decision`].
    pub fn submit(&mut self, tenant: u32, task: &Task) -> Result<Outcome, NetError> {
        let handle = self.submit_nowait(tenant, task)?;
        self.wait_decision(handle)
    }

    /// Submits a batch in one frame and blocks until every decision is
    /// made; decisions come back in submission order.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures (individual rejections are
    /// decisions, not errors).
    pub fn submit_batch(
        &mut self,
        tenant: u32,
        tasks: &[Task],
    ) -> Result<Vec<(TaskId, Outcome)>, NetError> {
        let handle = self.send(Request::SubmitBatch {
            tenant,
            tasks: tasks.iter().map(WireTask::from_task).collect(),
            traces: Vec::new(),
        })?;
        match self.recv_for(handle)? {
            Response::BatchDecision { decisions } => Ok(decisions),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Registers a data block.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with [`crate::ErrorCode::BlockRejected`]
    /// when the service refuses it; transport failures otherwise.
    pub fn register_block(&mut self, block: &Block) -> Result<(), NetError> {
        let handle = self.send(Request::RegisterBlock {
            id: block.id,
            arrival: block.arrival,
            capacity: block.capacity.values().to_vec(),
        })?;
        match self.recv_for(handle)? {
            Response::BlockRegistered { .. } => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Reads the service counters.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn stats(&mut self) -> Result<WireStats, NetError> {
        let handle = self.send(Request::Stats)?;
        match self.recv_for(handle)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Reads every block's available budget at virtual time `now`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn snapshot(&mut self, now: f64) -> Result<BTreeMap<u64, Vec<f64>>, NetError> {
        let handle = self.send(Request::Snapshot { now })?;
        match self.recv_for(handle)? {
            Response::Snapshot { blocks } => Ok(blocks.into_iter().collect()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Scrapes the service's metrics registry: every counter, gauge,
    /// and histogram as one point-in-time snapshot. Render it with
    /// [`dpack_obs::MetricsSnapshot::render`] for the Prometheus-style
    /// text exposition.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn metrics(&mut self) -> Result<dpack_obs::MetricsSnapshot, NetError> {
        let handle = self.send(Request::Metrics)?;
        match self.recv_for(handle)? {
            Response::Metrics { samples } => Ok(dpack_obs::MetricsSnapshot { samples }),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Dumps the service's flight recorder from sequence number
    /// `since` (0 for everything retained). A post-mortem scraper
    /// remembers the last seq it saw and passes `last + 1`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn trace(&mut self, since: u64) -> Result<Vec<dpack_obs::Event>, NetError> {
        let handle = self.send(Request::Trace { since })?;
        match self.recv_for(handle)? {
            Response::Trace { events } => Ok(events),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Pipelines one replication batch (`seq` on stream `shard`) to a
    /// replica; redeem the handle with
    /// [`NetClient::wait_replicate_ack`]. The primary's
    /// [`crate::Replicator`] sends to every replica first and collects
    /// acks second, so one quorum round costs one RTT, not one per
    /// replica.
    ///
    /// # Errors
    ///
    /// Transport failures (the batch may or may not have reached the
    /// replica).
    pub fn replicate_nowait(
        &mut self,
        term: u64,
        shard: u32,
        seq: u64,
        records: Vec<Vec<u8>>,
        traces: Vec<u64>,
    ) -> Result<ReplyHandle, NetError> {
        self.send(Request::Replicate {
            term,
            shard,
            seq,
            records,
            traces,
        })
    }

    /// Redeems a [`NetClient::replicate_nowait`] handle: blocks until
    /// the replica's durability ack arrives. Returns `(stream, seq,
    /// durable)` where `durable` is the replica's highest contiguously
    /// applied sequence on that stream (≥ `seq` means the shipped batch
    /// is on its disk).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a remote
    /// [`crate::ErrorCode::ReplicationGap`] /
    /// [`crate::ErrorCode::NotPrimary`] refusal.
    pub fn wait_replicate_ack(&mut self, handle: ReplyHandle) -> Result<(u32, u64, u64), NetError> {
        match self.recv_for(handle)? {
            Response::ReplicateAck {
                shard,
                seq,
                durable,
            } => Ok((shard, seq, durable)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Reads the node's introspection answer: its role, term, durable
    /// seq vector, and its live view of every peer (state, per-stream
    /// replication lag when it is the primary, resync/backoff state).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn cluster_status(&mut self) -> Result<WireClusterStatus, NetError> {
        let handle = self.send(Request::ClusterStatus)?;
        match self.recv_for(handle)? {
            Response::ClusterStatus(status) => Ok(status),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Dumps the node's span ring from sequence number `since` (0 for
    /// everything retained). A scraper that polls remembers the last
    /// seq it saw and passes `last + 1`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn span_dump(&mut self, since: u64) -> Result<Vec<Span>, NetError> {
        let handle = self.send(Request::SpanDump { since })?;
        match self.recv_for(handle)? {
            Response::SpanDump { spans } => Ok(spans),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// One failure-detector heartbeat: sends this node's term and
    /// durable seq vector, blocks for the peer's [`PongInfo`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn ping(&mut self, term: u64, vector: Vec<u64>) -> Result<PongInfo, NetError> {
        let handle = self.send(Request::Ping { term, vector })?;
        match self.recv_for(handle)? {
            Response::Pong {
                term,
                is_primary,
                lineage,
                vector,
            } => Ok(PongInfo {
                term,
                is_primary,
                lineage,
                vector,
            }),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks the peer for its vote in `term`; returns `(voter_term,
    /// granted)` — a refusal carries the voter's (possibly newer) term
    /// so the candidate can campaign above it next time.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn request_vote(
        &mut self,
        term: u64,
        candidate: u64,
        ballot: Vec<u64>,
    ) -> Result<(u64, bool), NetError> {
        let handle = self.send(Request::Vote {
            term,
            candidate,
            ballot,
        })?;
        match self.recv_for(handle)? {
            Response::VoteReply { term, granted } => Ok((term, granted)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Installs one stream's snapshot on a lagging replica (catch-up);
    /// returns the stream's new durable base.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a remote refusal
    /// ([`crate::ErrorCode::StaleTerm`], [`crate::ErrorCode::Io`]).
    pub fn resync_stream(
        &mut self,
        term: u64,
        shard: u32,
        base_seq: u64,
        snapshot: Vec<u8>,
    ) -> Result<u64, NetError> {
        let handle = self.send(Request::ResyncStream {
            term,
            shard,
            base_seq,
            snapshot,
        })?;
        match self.recv_for(handle)? {
            Response::ResyncAck { durable, .. } => Ok(durable),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Commits a resync round: the replica persists `lineage`, clears
    /// its dirty mark, and resumes counting toward the quorum.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a remote refusal.
    pub fn resync_commit(&mut self, term: u64, lineage: u64) -> Result<(), NetError> {
        let handle = self.send(Request::ResyncCommit { term, lineage })?;
        match self.recv_for(handle)? {
            Response::ResyncAck { .. } => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }
}

/// What a peer's heartbeat answer reveals: its term, role, lineage, and
/// durable per-stream seq vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PongInfo {
    /// The peer's current election term.
    pub term: u64,
    /// Whether the peer believes it is the primary.
    pub is_primary: bool,
    /// The peer's persisted lineage (0 = unattached).
    pub lineage: u64,
    /// The peer's durable per-stream seq vector (shards, then coord).
    pub vector: Vec<u64>,
}
