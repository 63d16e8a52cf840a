//! The remote frontend's server side: a shared request-processing core
//! and a poll-based TCP reactor around it.
//!
//! # Design
//!
//! [`ServiceCore`] is the transport-independent half: one wire request
//! in, either an immediate response or a [`PendingReply`] out. A
//! submission's reply is *pending* by construction — the service
//! answers with the **final decision** (via
//! [`dpack_service::BudgetService::submit_async`] tickets), which a
//! later scheduling cycle produces. The loopback transport calls the
//! core synchronously; the TCP reactor polls pending replies in its
//! sweep.
//!
//! A request is dispatched in one order: the auth gate of a secured
//! core first; then the role-independent requests (`Metrics`, `Trace`,
//! `SpanDump`), answered from the observability context the core
//! pinned at construction, which every role of the node shares; then
//! the current role, primary or replica. Every immediate reply is
//! encoded and clamped to one frame in one place.
//!
//! [`NetServer`] is the socket half: a single-threaded reactor over
//! nonblocking `std::net` sockets in the house style — vendored,
//! deterministic, no async runtime. Each sweep accepts new
//! connections, reads whatever bytes are available (clients may
//! pipeline any number of requests), processes complete frames, polls
//! pending decisions, and flushes write buffers. Request ids make
//! out-of-order completion safe: a stats request answers immediately
//! even while earlier submissions are still awaiting their cycle.
//!
//! A sweep that moves nothing waits on **readiness**: until the
//! listener has a connection, a connection has bytes to read, or a
//! stalled write buffer can drain (`ppoll(2)` on Linux, see
//! `readiness.rs`) — bounded by `IDLE_PARK`, because a decision a
//! cycle resolves wakes no socket and is noticed on the next sweep.
//! A half-closed connection that only waits on decisions registers no
//! interest — the kernel would report its hang-up on every wait — so
//! it cannot keep the reactor spinning.
//!
//! The reactor never blocks on any one connection (a slow reader only
//! grows its own write buffer) and a protocol violation answers with a
//! final [`Response::Error`] frame before the connection closes.
//!
//! Scheduling cycles are *not* the server's job: the embedded
//! [`BudgetService`] is shared (an `Arc`), and whoever owns it drives
//! [`BudgetService::run_cycle`] — a [`dpack_service::ServiceHandle`]
//! loop in production, the test itself in deterministic tests.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use dpack_obs::trace::{span_id, SpanKind};
use dpack_obs::{Clock, Counter, EventKind, FlightRecorder, Gauge, Histogram, TraceContext};
use dpack_service::wal::codec::Reader;
use dpack_service::{BudgetService, Decision, SubmissionTicket};

use crate::error::{admission_code, ErrorCode, NetError};
use crate::readiness::PollSet;
use crate::repl::{ReplicaNode, Replicator};
use crate::wire::{
    frame_into, FrameDecoder, Outcome, Request, RequestFrame, Response, ResponseFrame,
    WireClusterStatus, WireStats, MAX_FRAME,
};

/// The encoded `Error` response to request `id` (0 for a connection's
/// parting shot, which answers no one request).
fn error_reply(id: u64, code: ErrorCode, message: impl Into<String>) -> Vec<u8> {
    let message = message.into();
    ResponseFrame {
        id,
        body: Response::Error { code, message },
    }
    .encode()
}

/// The encoded response to request `id`, clamped to one frame.
fn encode_reply(id: u64, body: Response) -> Vec<u8> {
    clamp_reply(ResponseFrame { id, body }.encode())
}

/// Replaces a reply that cannot fit in one frame with an `Error`
/// response for the same request id. A tenant can legitimately request
/// more than a frame holds (a snapshot of a very large ledger), and an
/// oversized reply must degrade to an error — never trip the frame
/// encoder's size assertion inside the reactor.
fn clamp_reply(payload: Vec<u8>) -> Vec<u8> {
    if payload.len() <= MAX_FRAME as usize {
        return payload;
    }
    // `tag u8 ‖ request id u64` prefixes every encoded response.
    let id = Reader::new(&payload[1..]).u64().expect("a response");
    let size = payload.len();
    error_reply(
        id,
        ErrorCode::Protocol,
        format!("response of {size} bytes exceeds the {MAX_FRAME}-byte frame cap"),
    )
}

/// One slot of a (possibly batched) submission reply.
#[derive(Debug)]
enum Slot {
    /// Decided at admission time (rejections) or by an earlier poll.
    Done(u64, Outcome),
    /// Awaiting the scheduling cycle's decision.
    Waiting(SubmissionTicket),
}

impl Slot {
    fn poll(&mut self) -> bool {
        if let Slot::Waiting(ticket) = self {
            match ticket.try_decision() {
                Some(d) => *self = Slot::Done(ticket.task_id(), decision_outcome(d)),
                None => return false,
            }
        }
        true
    }

    fn block(&mut self) {
        if let Slot::Waiting(ticket) = self {
            let d = ticket.wait();
            *self = Slot::Done(ticket.task_id(), decision_outcome(d));
        }
    }
}

fn decision_outcome(d: Decision) -> Outcome {
    match d {
        Decision::Granted { allocated_at } => Outcome::Granted { allocated_at },
        Decision::Evicted => Outcome::Evicted,
    }
}

/// A reply that resolves when the scheduling loop decides the
/// submission(s) it answers.
#[derive(Debug)]
pub struct PendingReply {
    request_id: u64,
    /// `false` encodes a single [`Response::Decision`]; `true` a
    /// [`Response::BatchDecision`] (even for a 1-task batch, so the
    /// reply shape always matches the request shape).
    batch: bool,
    slots: Vec<Slot>,
}

impl PendingReply {
    fn encode(self) -> Vec<u8> {
        let decisions: Vec<(u64, Outcome)> = self
            .slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(task, outcome) => (task, outcome),
                Slot::Waiting(_) => unreachable!("encode is called only once resolved"),
            })
            .collect();
        let body = if self.batch {
            Response::BatchDecision { decisions }
        } else {
            let (task, outcome) = decisions.into_iter().next().expect("single slot");
            Response::Decision { task, outcome }
        };
        encode_reply(self.request_id, body)
    }

    /// Polls every undecided slot; returns the encoded response once
    /// all are decided. Never blocks.
    pub fn try_poll(&mut self) -> Option<Vec<u8>> {
        let mut all = true;
        for slot in &mut self.slots {
            all &= slot.poll();
        }
        all.then(|| {
            let slots = std::mem::take(&mut self.slots);
            PendingReply { slots, ..*self }.encode()
        })
    }

    /// Parks until every slot is decided and returns the encoded
    /// response (the loopback transport's path; cycles must be driven
    /// by another thread or before this call).
    pub fn wait(mut self) -> Vec<u8> {
        for slot in &mut self.slots {
            slot.block();
        }
        self.encode()
    }
}

/// What [`ServiceCore::handle`] produced for one request.
#[derive(Debug)]
pub enum Step {
    /// The response payload, ready to send.
    Reply(Vec<u8>),
    /// A submission awaiting its cycle decision.
    Pending(PendingReply),
}

/// Which half of a replicated pair this node is serving as. The role
/// is *swappable* ([`ServiceCore::promote`] / [`ServiceCore::demote`]):
/// self-healing failover changes what a node is without rebinding its
/// socket or dropping its connections.
enum Role {
    /// The full service surface (and the only role that accepts
    /// tenant traffic).
    Primary {
        /// The embedded service.
        service: Arc<BudgetService>,
        /// The outbound replication fan-out, when this primary ships
        /// to replicas (answers heartbeats with its term and seq
        /// vector).
        repl: Option<Arc<Replicator>>,
    },
    /// A durability follower: answers [`Request::Replicate`],
    /// heartbeats, votes, and resync installs; every tenant request is
    /// refused with [`ErrorCode::NotPrimary`] so failover probes move
    /// on.
    Replica(Arc<ReplicaNode>),
}

/// Constant-time byte-string comparison (length folded into the
/// accumulator, so mismatched lengths cost the same as mismatched
/// bytes): the handshake token check must not leak a prefix-length
/// timing oracle.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// The transport-independent request processor: decodes one request
/// payload, runs it against the embedded service (or replica state),
/// and produces either an immediate reply or a pending one. Clones
/// share the role, so a promotion through one clone is visible to all.
#[derive(Clone)]
pub struct ServiceCore {
    role: Arc<RwLock<Role>>,
    /// Pinned at construction so the reactor's instruments survive
    /// role swaps (a promotion must not orphan the sweep histogram).
    obs: Arc<dpack_obs::Obs>,
    /// Optional shared-secret; when set, connections must present it
    /// in `Hello` before any other request is served.
    secret: Option<Arc<str>>,
    auth_rejected: Counter,
    /// The deployment view behind [`Request::ClusterStatus`]: whoever
    /// drives this node (a [`crate::ClusterNode`] step loop) pushes
    /// what only it knows — node ids, peer addresses, the believed
    /// leader — and the handler overlays the live role-owned fields
    /// (term, seq vector, per-stream lag) at answer time.
    cluster: Arc<RwLock<Option<WireClusterStatus>>>,
}

impl ServiceCore {
    /// Wraps a shared service as a **primary**.
    pub fn new(service: Arc<BudgetService>) -> Self {
        let obs = Arc::clone(service.obs());
        let repl = None;
        Self::from_role(Role::Primary { service, repl }, obs)
    }

    /// Wraps replica state: the node answers the primary's replication
    /// stream and refuses tenant traffic with
    /// [`ErrorCode::NotPrimary`].
    pub fn replica(node: Arc<ReplicaNode>) -> Self {
        let obs = Arc::clone(node.obs());
        Self::from_role(Role::Replica(node), obs)
    }

    fn from_role(role: Role, obs: Arc<dpack_obs::Obs>) -> Self {
        let auth_rejected = obs.registry.counter("dpack_auth_rejected_total", "");
        Self {
            role: Arc::new(RwLock::new(role)),
            obs,
            secret: None,
            auth_rejected,
            cluster: Arc::new(RwLock::new(None)),
        }
    }

    /// Publishes the deployment view served by
    /// [`Request::ClusterStatus`] — node ids, peer addresses and
    /// states, the believed leader. Role-owned fields (term, seq
    /// vector, per-stream lag) are refreshed live at answer time, so
    /// the pushed view only needs to be topologically current.
    pub fn set_cluster_view(&self, view: WireClusterStatus) {
        *self.cluster.write().expect("cluster view lock poisoned") = Some(view);
    }

    /// Requires every connection to present `secret` in its `Hello`
    /// before any other request is served (compared in constant time;
    /// failures count in `dpack_auth_rejected_total`).
    #[must_use]
    pub fn with_secret(mut self, secret: impl Into<String>) -> Self {
        self.secret = Some(Arc::from(secret.into()));
        self
    }

    /// The embedded service when this core is currently a primary.
    pub fn service(&self) -> Option<Arc<BudgetService>> {
        match &*self.role.read().expect("role lock poisoned") {
            Role::Primary { service, .. } => Some(Arc::clone(service)),
            Role::Replica(_) => None,
        }
    }

    /// The replication fan-out when this core is a shipping primary.
    pub fn replicator(&self) -> Option<Arc<Replicator>> {
        match &*self.role.read().expect("role lock poisoned") {
            Role::Primary { repl, .. } => repl.clone(),
            Role::Replica(_) => None,
        }
    }

    /// The replica node when this core is currently a replica.
    pub fn replica_node(&self) -> Option<Arc<ReplicaNode>> {
        match &*self.role.read().expect("role lock poisoned") {
            Role::Primary { .. } => None,
            Role::Replica(node) => Some(Arc::clone(node)),
        }
    }

    /// Whether this core currently serves the primary role.
    pub fn is_primary(&self) -> bool {
        matches!(
            &*self.role.read().expect("role lock poisoned"),
            Role::Primary { .. }
        )
    }

    /// Swaps the role to primary — the decided end of a won election.
    /// In-flight requests finish under the old role; everything after
    /// sees the new one. The service shares this core's pinned
    /// context, which answers the role-independent requests.
    pub(crate) fn promote(&self, service: Arc<BudgetService>, repl: Option<Arc<Replicator>>) {
        debug_assert!(
            Arc::ptr_eq(service.obs(), &self.obs),
            "one context per node"
        );
        *self.role.write().expect("role lock poisoned") = Role::Primary { service, repl };
    }

    /// Swaps the role to replica — a deposed primary stepping down.
    pub(crate) fn demote(&self, node: Arc<ReplicaNode>) {
        debug_assert!(Arc::ptr_eq(node.obs(), &self.obs), "one context per node");
        *self.role.write().expect("role lock poisoned") = Role::Replica(node);
    }

    /// The observability context the reactor registers its instruments
    /// on. Pinned at construction: role swaps do not change it.
    pub fn obs(&self) -> &Arc<dpack_obs::Obs> {
        &self.obs
    }

    /// Processes one request payload from a **trusted** caller: the
    /// auth gate is bypassed (in-process transports and the cluster's
    /// own tick path own the process; there is nothing to prove).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the payload does not decode — the
    /// caller should send a final [`ErrorCode::Protocol`] error and drop
    /// the connection, since frame boundaries can no longer be trusted
    /// to carry meaning.
    pub fn handle(&self, payload: &[u8]) -> Result<Step, NetError> {
        let mut authed = true;
        self.handle_with(payload, &mut authed)
    }

    /// Processes one request payload with per-connection handshake
    /// state: on a secured core, everything but a correct `Hello` is
    /// refused [`ErrorCode::Unauthorized`] until `*authed` flips.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the payload does not decode (see
    /// [`ServiceCore::handle`]).
    pub fn handle_with(&self, payload: &[u8], authed: &mut bool) -> Result<Step, NetError> {
        let RequestFrame { id, body } = RequestFrame::decode(payload)?;
        if let Some(secret) = &self.secret {
            let refusal = match &body {
                Request::Hello { token } => {
                    *authed = token
                        .as_deref()
                        .is_some_and(|t| constant_time_eq(t.as_bytes(), secret.as_bytes()));
                    (!*authed).then_some("handshake token missing or wrong")
                }
                _ => {
                    (!*authed).then_some("request before a successful handshake on a secured node")
                }
            };
            if let Some(message) = refusal {
                self.auth_rejected.inc();
                let reply = error_reply(id, ErrorCode::Unauthorized, message);
                return Ok(Step::Reply(reply));
            }
        }
        // Role-independent requests answer from the pinned context, so
        // a replica's own instruments stay scrapeable — that is how an
        // operator watches replication lag from outside.
        let body = match body {
            Request::Metrics => Response::Metrics {
                samples: self.obs.registry.snapshot().samples,
            },
            Request::Trace { since } => Response::Trace {
                events: self.obs.recorder().dump_since(since),
            },
            Request::SpanDump { since } => Response::SpanDump {
                spans: self.obs.spans().dump_since(since),
            },
            body => match &*self.role.read().expect("role lock poisoned") {
                Role::Primary { service, repl } => {
                    return Ok(Self::handle_primary(
                        service,
                        repl.as_ref(),
                        &self.cluster,
                        id,
                        body,
                    ))
                }
                Role::Replica(node) => Self::handle_replica(node, &self.cluster, body),
            },
        };
        Ok(Step::Reply(encode_reply(id, body)))
    }

    fn handle_primary(
        service: &Arc<BudgetService>,
        repl: Option<&Arc<Replicator>>,
        cluster: &RwLock<Option<WireClusterStatus>>,
        id: u64,
        body: Request,
    ) -> Step {
        let body = match body {
            Request::Hello { .. } => Response::Hello {
                alphas: service.ledger().grid().orders().to_vec(),
            },
            Request::Submit {
                tenant,
                task,
                trace,
            } => {
                let slot = Self::submit_slot(service, tenant, task, trace);
                return Self::submission_step(id, false, vec![slot]);
            }
            Request::SubmitBatch {
                tenant,
                tasks,
                traces,
            } => {
                // The decoder guarantees `traces` is empty or pairs
                // with `tasks` in order; pad the empty case out.
                let mut traces: Vec<Option<TraceContext>> = traces.into_iter().map(Some).collect();
                traces.resize(tasks.len(), None);
                let slots = tasks
                    .into_iter()
                    .zip(traces)
                    .map(|(t, ctx)| Self::submit_slot(service, tenant, t, ctx))
                    .collect();
                return Self::submission_step(id, true, slots);
            }
            Request::RegisterBlock {
                id: block_id,
                arrival,
                capacity,
            } => Self::register(service, block_id, arrival, capacity),
            Request::Stats => {
                let summary = service.stats_summary();
                Response::Stats(WireStats {
                    submitted: summary.submitted,
                    admitted: summary.admitted,
                    rejected: summary.rejected,
                    granted: summary.granted,
                    evicted: summary.evicted,
                    cycles: summary.cycles,
                    granted_weight: summary.granted_weight,
                    throughput: summary.throughput,
                    queue_depth: service.queue_depth() as u64,
                    pending: service.pending_count() as u64,
                })
            }
            Request::Snapshot { now } => Response::Snapshot {
                blocks: service
                    .ledger()
                    .snapshot_all(now)
                    .into_iter()
                    .map(|(id, curve)| (id, curve.values().to_vec()))
                    .collect(),
            },
            Request::ClusterStatus => {
                let pushed = cluster.read().expect("cluster view lock poisoned").clone();
                let node_id = pushed
                    .as_ref()
                    .map_or_else(|| service.obs().spans().node(), |v| v.node_id);
                Response::ClusterStatus(match repl {
                    // A shipping primary's live fields come straight
                    // from the replicator — terms, seq vector, and
                    // per-stream lag are authoritative there, not in
                    // whatever view was pushed last step. The pushed
                    // view contributes what the replicator cannot
                    // know: the peers' deployment ids.
                    Some(r) => {
                        let mut peers = r.peer_status();
                        if let Some(v) = &pushed {
                            for (live, known) in peers.iter_mut().zip(&v.peers) {
                                live.id = known.id;
                            }
                        }
                        WireClusterStatus {
                            node_id,
                            is_primary: true,
                            term: r.term(),
                            leader: node_id,
                            vector: r.vector(),
                            peers,
                        }
                    }
                    None => pushed.unwrap_or(WireClusterStatus {
                        node_id,
                        is_primary: true,
                        term: 0,
                        leader: node_id,
                        vector: Vec::new(),
                        peers: Vec::new(),
                    }),
                })
            }
            // A deposed primary shipping into the new primary learns
            // its term is over; any other inbound stream is a wiring
            // error — refuse loudly rather than double-apply records
            // that the primary already owns.
            Request::Replicate { term, .. } => {
                let my_term = repl.map_or(0, |r| r.term());
                if term < my_term {
                    Response::Error {
                        code: ErrorCode::StaleTerm,
                        message: format!(
                            "ship from term {term} refused; this primary holds term {my_term}"
                        ),
                    }
                } else {
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "replication stream sent to a primary".into(),
                    }
                }
            }
            // The primary's heartbeat answer carries its term and ship
            // vector, so peers (and the redial fast path) can judge
            // currency without a resync round-trip.
            Request::Ping { .. } => {
                let (term, lineage, vector) = match repl {
                    Some(r) => (r.term(), r.lineage(), r.vector()),
                    None => (0, 0, Vec::new()),
                };
                Response::Pong {
                    term,
                    is_primary: true,
                    lineage,
                    vector,
                }
            }
            // A live primary never votes: granting one would risk two
            // leaders in one term. The candidate hears the refusal
            // (with this primary's term) and backs off.
            Request::Vote { .. } => Response::VoteReply {
                term: repl.map_or(0, |r| r.term()),
                granted: false,
            },
            Request::ResyncStream { .. } | Request::ResyncCommit { .. } => Response::Error {
                code: ErrorCode::NotPrimary,
                message: "resync install sent to a primary".into(),
            },
            Request::Metrics | Request::Trace { .. } | Request::SpanDump { .. } => {
                unreachable!("handle_with answers role-independent requests")
            }
        };
        Step::Reply(encode_reply(id, body))
    }

    fn handle_replica(
        node: &Arc<ReplicaNode>,
        cluster: &RwLock<Option<WireClusterStatus>>,
        body: Request,
    ) -> Response {
        match body {
            Request::Replicate {
                term,
                shard,
                seq,
                records,
                traces,
            } => {
                // The clock is read only on traced ships: untraced
                // replication stays byte-for-byte on its old path (and
                // deterministic tests see zero extra clock reads).
                let started = (!traces.is_empty()).then(|| node.obs().clock().now_nanos());
                let reply = node.apply(term, shard, seq, &records);
                if let (Some(start), Response::ReplicateAck { .. }) = (started, &reply) {
                    let end = node.obs().clock().now_nanos();
                    let ring = node.obs().spans();
                    // Salted with this node's id so sibling replicas'
                    // append spans stay distinct when dumps merge; the
                    // parent is the primary's ship span for the same
                    // stream — both sides derive it from the trace id
                    // alone, which is all the frame carried.
                    let salt = u64::from(shard) | node.node_id().wrapping_shl(32);
                    for trace in traces {
                        ring.record(
                            trace,
                            span_id(trace, SpanKind::ReplicaAppend, salt),
                            span_id(trace, SpanKind::ReplShip, u64::from(shard)),
                            SpanKind::ReplicaAppend,
                            start,
                            end,
                            seq,
                        );
                    }
                }
                reply
            }
            Request::Ping { term, .. } => node.pong(term),
            Request::Vote {
                term,
                candidate,
                ballot,
            } => node.vote(term, candidate, &ballot),
            Request::ResyncStream {
                term,
                shard,
                base_seq,
                snapshot,
            } => node.install(term, shard, base_seq, &snapshot),
            Request::ResyncCommit { term, lineage } => node.commit_resync(term, lineage),
            Request::ClusterStatus => {
                let pushed = cluster.read().expect("cluster view lock poisoned").clone();
                // A replica owns its term and durable vector; the
                // pushed view supplies what only the cluster driver
                // knows (ids, the believed leader, peer states).
                Response::ClusterStatus(WireClusterStatus {
                    node_id: pushed.as_ref().map_or(node.node_id(), |v| v.node_id),
                    is_primary: false,
                    term: node.current_term(),
                    leader: pushed.as_ref().map_or(0, |v| v.leader),
                    vector: node.wal().vector(),
                    peers: pushed.map_or_else(Vec::new, |v| v.peers),
                })
            }
            _ => Response::Error {
                code: ErrorCode::NotPrimary,
                message: "this node is a replica; submit to the primary".into(),
            },
        }
    }

    /// Submits one wire task; an admission rejection *is* the final
    /// decision, so it fills the slot immediately.
    fn submit_slot(
        service: &Arc<BudgetService>,
        tenant: u32,
        task: crate::wire::WireTask,
        trace: Option<TraceContext>,
    ) -> Slot {
        let task_id = task.id;
        let result = task
            .into_task(service.ledger().grid())
            .and_then(|t| match trace {
                Some(ctx) => service.submit_async_traced(tenant, t, ctx),
                None => service.submit_async(tenant, t),
            });
        match result {
            Ok(ticket) => Slot::Waiting(ticket),
            Err(e) => Slot::Done(
                task_id,
                Outcome::Rejected {
                    code: admission_code(&e),
                    message: e.to_string(),
                },
            ),
        }
    }

    fn submission_step(id: u64, batch: bool, slots: Vec<Slot>) -> Step {
        let mut pending = PendingReply {
            request_id: id,
            batch,
            slots,
        };
        match pending.try_poll() {
            Some(reply) => Step::Reply(reply),
            None => Step::Pending(pending),
        }
    }

    fn register(
        service: &Arc<BudgetService>,
        block_id: u64,
        arrival: f64,
        capacity: Vec<f64>,
    ) -> Response {
        let grid = service.ledger().grid();
        let capacity = match dp_accounting::RdpCurve::new(grid, capacity) {
            Ok(c) => c,
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::BlockRejected,
                    message: format!("capacity does not fit the grid: {e}"),
                }
            }
        };
        let block = dpack_core::problem::Block::new(block_id, capacity, arrival);
        match service.register_block(block) {
            Ok(()) => Response::BlockRegistered { id: block_id },
            Err(e) => Response::Error {
                code: ErrorCode::BlockRejected,
                message: e.to_string(),
            },
        }
    }
}

/// The reactor's own instruments, registered on the embedded service's
/// observability context — `None` (and cost-free) when that context is
/// fully off.
struct ReactorTelemetry {
    clock: Arc<dyn Clock>,
    recorder: FlightRecorder,
    sweep_nanos: Histogram,
    open_connections: Gauge,
    conn_queue_depth: Gauge,
    violations: Counter,
    overloaded: Counter,
    accept_rejected: Counter,
}

impl ReactorTelemetry {
    fn new(core: &ServiceCore) -> Option<Self> {
        let obs = core.obs();
        if !obs.is_enabled() && obs.recorder().capacity() == 0 {
            return None;
        }
        Some(Self {
            clock: Arc::clone(obs.clock()),
            recorder: obs.recorder().clone(),
            sweep_nanos: obs.registry.histogram("dpack_reactor_sweep_nanos", ""),
            open_connections: obs.registry.gauge("dpack_open_connections", ""),
            conn_queue_depth: obs.registry.gauge("dpack_conn_queue_depth", ""),
            violations: obs.registry.counter("dpack_protocol_violations_total", ""),
            overloaded: obs.registry.counter("dpack_overloaded_conns_total", ""),
            accept_rejected: obs.registry.counter("dpack_accept_rejected_total", ""),
        })
    }

    fn violation(&self, conn_ordinal: u64) {
        self.violations.inc();
        self.recorder
            .record(EventKind::ProtocolViolation, conn_ordinal, 0);
    }

    fn accept_reject(&self) {
        self.accept_rejected.inc();
        self.recorder.record(EventKind::AcceptRejected, 0, 0);
    }
}

/// One client connection's reactor state.
struct Conn {
    stream: TcpStream,
    /// Accept-order ordinal, the connection's identity in violation
    /// events (remote addresses don't fit a `u64` payload word).
    ordinal: u64,
    decoder: FrameDecoder,
    /// Encoded-but-unflushed response bytes.
    wbuf: Vec<u8>,
    /// Written prefix of `wbuf`.
    wpos: usize,
    pending: Vec<PendingReply>,
    /// Flush what is buffered, then drop the connection.
    close_after_flush: bool,
    /// The client half-closed; answer what is pending, then finish.
    eof: bool,
    /// The write side was shut down after the final flush of a
    /// `close_after_flush` connection (the lingering-close FIN).
    fin_sent: bool,
    /// Bytes drained and discarded while lingering.
    drained: usize,
    /// Whether a secured core has seen this connection's `Hello`.
    authed: bool,
}

impl Conn {
    fn new(stream: TcpStream, ordinal: u64) -> Self {
        Self {
            stream,
            ordinal,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: Vec::new(),
            close_after_flush: false,
            eof: false,
            fin_sent: false,
            drained: 0,
            authed: false,
        }
    }

    fn queue(&mut self, payload: &[u8]) {
        frame_into(&mut self.wbuf, payload);
    }

    /// Queues the parting shot — a final `Error` frame — and marks the
    /// connection to close once it is flushed. Returns `true`: the
    /// connection lingers until then.
    fn close_with(&mut self, code: ErrorCode, message: String) -> bool {
        self.queue(&error_reply(0, code, message));
        self.close_after_flush = true;
        true
    }

    /// Reads available bytes and processes complete frames — or, once
    /// the connection is closing, drains and discards them. Returns
    /// `false` when the connection is finished (EOF or fatal error),
    /// `true` with `progress` updated otherwise.
    fn pump_read(
        &mut self,
        core: &ServiceCore,
        telemetry: Option<&ReactorTelemetry>,
        progress: &mut bool,
    ) -> bool {
        if self.eof {
            return true; // Half-closed: just answer what is pending.
        }
        let mut chunk = [0u8; 8192];
        // Per-sweep read budget: a tenant streaming pipelined requests
        // faster than they are processed must not monopolize the sweep
        // — other connections' reads, pending decisions, and flushes
        // run between budget slices. Unread bytes stay in the kernel
        // buffer (and eventually push back on the sender).
        let mut budget = READ_BUDGET;
        while budget > 0 {
            let n = match self.stream.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return e.kind() == ErrorKind::WouldBlock,
            };
            if n == 0 {
                // A partial frame at EOF means the peer died
                // mid-send — a dropped request, not a half-close,
                // so it must leave a trace.
                if !self.close_after_flush && self.decoder.buffered() > 0 {
                    if let Some(t) = telemetry {
                        t.violation(self.ordinal);
                    }
                }
                // Half-close: a pipelining client may shut its write
                // side down and still await the decisions. A closing
                // connection whose peer is done too closes cleanly once
                // flushed; an unflushed one finishes after its last
                // flush (`pump_write` sees the eof).
                self.eof = true;
                return !self.fin_sent;
            }
            *progress = true;
            budget = budget.saturating_sub(n);
            if self.close_after_flush {
                // Lingering close: keep draining (and discarding) the
                // peer's backlog so the final error frame is
                // deliverable — closing with unread inbound bytes
                // resets the connection and can destroy the parting
                // shot in flight. Bounded, so a peer that never stops
                // sending cannot hold the slot.
                self.drained += n;
                if self.drained > MAX_LINGER_DRAIN {
                    return false; // Hostile flood: hard close.
                }
                continue;
            }
            self.decoder.extend(&chunk[..n]);
            loop {
                let step = match self.decoder.next_frame() {
                    Ok(Some(payload)) => core.handle_with(&payload, &mut self.authed),
                    Ok(None) => break,
                    Err(e) => Err(e),
                };
                match step {
                    Ok(Step::Reply(reply)) => self.queue(&reply),
                    Ok(Step::Pending(p)) => self.pending.push(p),
                    // A frame that does not decode, or a payload that
                    // does not parse: a protocol violation.
                    Err(e) => {
                        if let Some(t) = telemetry {
                            t.violation(self.ordinal);
                        }
                        return self.close_with(ErrorCode::Protocol, e.to_string());
                    }
                }
                // A reader that falls behind its own replies (or floods
                // submissions awaiting cycles) is cut off at the caps —
                // otherwise one slow reader grows server memory without
                // bound.
                let (buffered, pending) = (self.wbuf.len() - self.wpos, self.pending.len());
                if buffered > MAX_CONN_BUFFER || pending > MAX_CONN_PENDING {
                    if let Some(t) = telemetry {
                        t.overloaded.inc();
                    }
                    return self.close_with(
                        ErrorCode::Overloaded,
                        format!(
                            "connection exceeded buffering caps \
                             ({buffered} reply bytes unread, {pending} decisions pending)"
                        ),
                    );
                }
            }
        }
        true
    }

    /// Polls pending decisions into the write buffer.
    fn pump_pending(&mut self, progress: &mut bool) {
        let mut i = 0;
        while i < self.pending.len() {
            if let Some(reply) = self.pending[i].try_poll() {
                self.queue(&reply);
                self.pending.swap_remove(i);
                *progress = true;
            } else {
                i += 1;
            }
        }
    }

    /// Flushes buffered bytes. Returns `false` when the connection is
    /// finished.
    fn pump_write(&mut self, progress: &mut bool) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wpos += n;
                    *progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.close_after_flush {
                if self.eof {
                    return false; // Both sides done: clean close.
                }
                // Everything (including the parting shot) is in the
                // kernel's hands: half-close and linger until the
                // peer reads it and hangs up.
                if !self.fin_sent {
                    let _ = self.stream.shutdown(std::net::Shutdown::Write);
                    self.fin_sent = true;
                }
            }
        }
        true
    }

    /// Whether the reactor still has work or obligations here.
    fn idle_done(&self) -> bool {
        self.pending.is_empty() && self.wpos >= self.wbuf.len()
    }
}

/// A TCP server exposing a [`BudgetService`] to remote tenants.
///
/// Runs one reactor thread; stop it with [`NetServer::stop`] (also on
/// drop). Pending decisions on live connections are answered as cycles
/// resolve them; at shutdown, unanswered connections are dropped and
/// clients observe [`NetError::Closed`].
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds and spawns the reactor serving a **primary**. Bind to
    /// port 0 to let the OS pick ([`NetServer::local_addr`] reports
    /// the choice).
    ///
    /// # Errors
    ///
    /// Socket bind/configuration errors.
    pub fn bind(service: Arc<BudgetService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_core(ServiceCore::new(service), addr)
    }

    /// Binds and spawns the reactor serving a **replica**: the node
    /// accepts the primary's replication stream (and metrics/trace
    /// scrapes) and answers everything else with
    /// [`ErrorCode::NotPrimary`].
    ///
    /// # Errors
    ///
    /// Socket bind/configuration errors.
    pub fn bind_replica(node: Arc<ReplicaNode>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_core(ServiceCore::replica(node), addr)
    }

    /// Binds and spawns the reactor around an arbitrary core — the
    /// entry point for cluster nodes whose role swaps over the
    /// server's lifetime, and for secured cores
    /// ([`ServiceCore::with_secret`]).
    ///
    /// # Errors
    ///
    /// Socket bind/configuration errors.
    pub fn bind_core(core: ServiceCore, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dpack-net-reactor".into())
            .spawn(move || reactor(listener, core, &reactor_stop))
            .expect("spawn reactor thread");
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the reactor and joins it. Connections still waiting on
    /// decisions are dropped.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("reactor thread panicked");
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The longest the reactor waits for a socket when a sweep made no
/// progress. Pending decisions resolve at scheduling-cycle granularity
/// and wake no socket, so this bound is how soon a resolved decision
/// is noticed; a sub-cycle bound costs latency nobody observes.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Bytes one connection may feed into the processor per sweep — the
/// fairness slice between connections (see [`Conn::pump_read`]).
const READ_BUDGET: usize = 64 * 1024;

/// Unflushed reply bytes one connection may accumulate before the
/// server declares it overloaded: a slow (or stopped) reader pipelining
/// requests grows its own write buffer, and past this cap it gets a
/// final [`ErrorCode::Overloaded`] frame and the connection closes.
const MAX_CONN_BUFFER: usize = 1 << 20;

/// In-flight pending decisions one connection may hold (submissions
/// whose scheduling cycle has not resolved yet) — the ROADMAP's
/// max-in-flight bound, enforced per connection.
const MAX_CONN_PENDING: usize = 4096;

/// Bytes a closing connection will drain and discard while lingering
/// (delivering its final error frame to a peer with a deep pipeline
/// still in flight). Past this, the peer is flooding, not finishing,
/// and the connection hard-closes.
const MAX_LINGER_DRAIN: usize = 64 << 20;

fn reactor(listener: TcpListener, core: ServiceCore, stop: &AtomicBool) {
    let telemetry = ReactorTelemetry::new(&core);
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_ordinal = 0u64;
    let mut interest = PollSet::default();
    while !stop.load(Ordering::Acquire) {
        let sweep_started = telemetry.as_ref().map(|t| t.clock.now_nanos());
        let mut progress = false;
        // A failing accept (out of descriptors, say) can leave the
        // listener readable: this sweep's wait must not trust it.
        let mut accept_failed = false;

        // Accept whatever is queued.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        // Misconfigured socket: drop it — but leave a
                        // trace, or a flaky network stack looks like
                        // clients that never connected.
                        if let Some(t) = &telemetry {
                            t.accept_reject();
                        }
                        continue;
                    }
                    conns.push(Conn::new(stream, next_ordinal));
                    next_ordinal += 1;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    accept_failed = true;
                    break;
                }
            }
        }

        // Sweep every connection: read → process → poll pending →
        // write; drop the finished ones.
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let mut alive = conn.pump_read(&core, telemetry.as_ref(), &mut progress);
            conn.pump_pending(&mut progress);
            alive &= conn.pump_write(&mut progress);
            // A half-closed connection finishes once fully answered.
            alive &= !(conn.eof && conn.idle_done());
            if alive {
                i += 1;
            } else {
                conns.swap_remove(i);
                progress = true;
            }
        }

        if let Some(t) = &telemetry {
            t.open_connections.set_u64(conns.len() as u64);
            t.conn_queue_depth
                .set_u64(conns.iter().map(|c| c.pending.len() as u64).sum());
            if let Some(started) = sweep_started {
                t.sweep_nanos
                    .record(t.clock.now_nanos().saturating_sub(started));
            }
        }

        // No bytes moved and no decision resolved this sweep: wait
        // until a socket is ready, for at most `IDLE_PARK`. Decisions
        // resolve at cycle granularity and wake no socket; the bound
        // is what polls them again.
        if !progress {
            if accept_failed {
                std::thread::park_timeout(IDLE_PARK);
            } else {
                interest.clear();
                interest.listener(&listener);
                for conn in &conns {
                    interest.stream(&conn.stream, !conn.eof, conn.wpos < conn.wbuf.len());
                }
                interest.wait(IDLE_PARK);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::AlphaGrid;
    use dpack_obs::Obs;
    use dpack_service::wal::SimStorage;
    use dpack_service::ServiceConfig;

    /// A dump answers every retained entry in one reply on both roles:
    /// a ring past its capacity still fits one frame, `since = last + 1`
    /// answers nothing new, and the scrape reads the recorder's losses.
    #[test]
    fn trace_and_span_dumps_answer_the_whole_ring_in_one_reply_on_both_roles() {
        let obs = Obs::manual(1).0;
        let grid = AlphaGrid::new(vec![2.0]).expect("valid grid");
        let service = BudgetService::with_obs(grid, ServiceConfig::default(), Arc::clone(&obs));
        let node = ReplicaNode::open(&SimStorage::new(), 1, 1 << 16, Arc::clone(&obs));
        let cores = [
            ServiceCore::new(Arc::new(service)),
            ServiceCore::replica(Arc::new(node.expect("fresh replica"))),
        ];
        let (recorder, spans) = (obs.recorder(), obs.spans());
        assert_eq!(recorder.recorded() + spans.recorded(), 0);
        let events = recorder.capacity() as u64 + 3;
        for i in 0..events {
            recorder.record(EventKind::TaskAdmitted, i, 0);
        }
        let span_count = spans.capacity() as u64 + 3;
        for i in 0..span_count {
            spans.record(1, i + 1, 0, SpanKind::Cycle, i, i + 1, 0);
        }
        assert_eq!(recorder.dropped(), 3);
        for core in &cores {
            let ask = |body| match core.handle(&RequestFrame { id: 9, body }.encode()) {
                Ok(Step::Reply(reply)) => {
                    assert!(reply.len() <= MAX_FRAME as usize);
                    ResponseFrame::decode(&reply).expect("a response").body
                }
                _ => panic!("a dump answers at once"),
            };
            let Response::Trace { events: dump } = ask(Request::Trace { since: 0 }) else {
                panic!("a trace reply");
            };
            let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (4..=events).collect::<Vec<u64>>());
            let since = events + 1;
            assert!(
                matches!(ask(Request::Trace { since }), Response::Trace { events } if events.is_empty())
            );
            let Response::SpanDump { spans: dump } = ask(Request::SpanDump { since: 0 }) else {
                panic!("a span dump reply");
            };
            let seqs: Vec<u64> = dump.iter().map(|s| s.seq).collect();
            assert_eq!(seqs, (4..=span_count).collect::<Vec<u64>>());
            let since = span_count + 1;
            assert!(
                matches!(ask(Request::SpanDump { since }), Response::SpanDump { spans } if spans.is_empty())
            );
            let Response::Metrics { samples } = ask(Request::Metrics) else {
                panic!("a metrics reply");
            };
            let scraped = dpack_obs::MetricsSnapshot { samples };
            assert_eq!(
                scraped.counter_total("dpack_recorder_dropped_total"),
                recorder.dropped()
            );
        }
    }

    /// After promote → demote → promote the service families are the
    /// new primary's own counts: a demoted node exports none of them,
    /// and the next primary starts from zero, as after a restart.
    #[test]
    fn each_promotion_exports_the_new_primary_s_own_counts() {
        use dp_accounting::RdpCurve;
        use dpack_core::problem::{Block, Task};
        use dpack_obs::Value;
        let obs = Obs::manual(1).0;
        let grid = AlphaGrid::new(vec![2.0]).expect("valid grid");
        let config = ServiceConfig {
            unlock_steps: 1,
            ..ServiceConfig::default()
        };
        let primary = |grants: u64| {
            let service = BudgetService::with_obs(grid.clone(), config, Arc::clone(&obs));
            let capacity = RdpCurve::constant(&grid, 1.0);
            service
                .register_block(Block::new(0, capacity, 0.0))
                .unwrap();
            for id in 0..grants {
                let task = Task::new(id, 1.0, vec![0], RdpCurve::constant(&grid, 0.1), 0.0);
                service.submit(0, task).unwrap();
            }
            service.run_cycle(1.0);
            Arc::new(service)
        };
        let granted = || {
            obs.registry
                .snapshot()
                .get("dpack_granted_total", "")
                .cloned()
        };
        let core = ServiceCore::new(primary(3));
        assert_eq!(granted(), Some(Value::Counter(3)));
        let node = ReplicaNode::open(&SimStorage::new(), 1, 1 << 16, Arc::clone(&obs));
        core.demote(Arc::new(node.expect("fresh replica")));
        let scraped = obs.registry.snapshot();
        for family in [
            "dpack_granted_total",
            "dpack_queue_depth",
            "dpack_wal_records",
        ] {
            assert!(
                scraped.get(family, "").is_none(),
                "a replica exports no {family}"
            );
        }
        let second = primary(2);
        core.promote(Arc::clone(&second), None);
        assert_eq!(second.stats().granted_total, 2);
        assert_eq!(
            granted(),
            Some(Value::Counter(2)),
            "the new primary's own count"
        );
    }

    /// A role's replication levels leave with it: a promoted replica
    /// stops exporting its durable seqs, and a demoted primary its lag
    /// and live-replica count, so a merged scrape sums live roles only.
    #[test]
    fn a_role_change_takes_its_replication_levels_with_it() {
        use crate::client::Connector;
        use dpack_obs::Value;
        use dpack_service::durability::LogRecord;
        let obs = Obs::manual(1).0;
        let level = |name: &str, stream: &str| {
            let labels = if stream.is_empty() {
                String::new()
            } else {
                format!("stream=\"{stream}\"")
            };
            match obs.registry.snapshot().get(name, &labels) {
                Some(Value::Gauge(v)) => Some(*v as u64),
                None => None,
                other => panic!("{name} is no gauge: {other:?}"),
            }
        };
        let gone = |name: &str| {
            obs.registry
                .snapshot()
                .samples
                .iter()
                .all(|s| s.name != name)
        };
        let node = ReplicaNode::open(&SimStorage::new(), 1, 1 << 16, Arc::clone(&obs));
        let node = Arc::new(node.expect("fresh replica"));
        let block = LogRecord::Block {
            shard: 0,
            id: 0,
            arrival: 0.0,
            capacity: vec![1.0],
        };
        let applied = node.apply(0, 0, 1, &[block.encode()]);
        assert!(matches!(applied, Response::ReplicateAck { durable: 1, .. }));
        let core = ServiceCore::replica(node);
        assert_eq!(level("dpack_repl_durable_seq", "shard-0"), Some(1));

        let grid = AlphaGrid::new(vec![2.0]).expect("valid grid");
        let service = BudgetService::with_obs(grid, ServiceConfig::default(), Arc::clone(&obs));
        let refused: Connector = Arc::new(|| Err(NetError::Closed));
        let links = vec![(([127, 0, 0, 1], 0).into(), refused)];
        let repl = Arc::new(Replicator::resume(links, 1, 1, &[5, 0], 1, &obs));
        core.promote(Arc::new(service), Some(Arc::clone(&repl)));
        assert!(repl.tend(0, None));
        assert_eq!(level("dpack_repl_lag", "shard-0"), Some(5));
        assert_eq!(level("dpack_repl_lag", "coord"), Some(0));
        assert_eq!(level("dpack_repl_live_replicas", ""), Some(0));
        assert!(
            gone("dpack_repl_durable_seq"),
            "a primary exports no durable seq"
        );

        drop(repl);
        let fresh = ReplicaNode::open(&SimStorage::new(), 1, 1 << 16, Arc::clone(&obs));
        core.demote(Arc::new(fresh.expect("fresh replica")));
        assert!(gone("dpack_repl_lag"), "a replica exports no lag");
        assert!(
            gone("dpack_repl_live_replicas"),
            "a replica exports no live count"
        );
        assert_eq!(level("dpack_repl_durable_seq", "shard-0"), Some(0));
    }

    #[test]
    fn oversized_replies_degrade_to_an_error_frame_not_a_panic() {
        // A synthetic response payload past the frame cap (any tag; the
        // clamp only needs the `tag ‖ request id` prefix).
        let mut huge = vec![0x06u8];
        huge.extend_from_slice(&42u64.to_le_bytes());
        huge.resize(MAX_FRAME as usize + 1, 0);
        let clamped = clamp_reply(huge);
        assert!(clamped.len() <= MAX_FRAME as usize);
        let resp = ResponseFrame::decode(&clamped).expect("valid error frame");
        assert_eq!(resp.id, 42, "the error answers the original request");
        assert!(matches!(
            resp.body,
            Response::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
        // In-bounds replies pass through untouched.
        let small = ResponseFrame {
            id: 7,
            body: Response::BlockRegistered { id: 1 },
        }
        .encode();
        assert_eq!(clamp_reply(small.clone()), small);
    }
}
