//! WAL shipping over the wire: the primary-side [`Replicator`] and the
//! replica-side [`ReplicaNode`].
//!
//! The model (ordering, quorum, promotion-only recovery) is specified
//! in [`dpack_service::replication`]; this module is the transport for
//! it. A [`Replicator`] holds one pipelined [`NetClient`] link per
//! replica and implements [`ReplicationSink`]: each
//! [`ReplicationSink::ship_all`] round sends **every stream's batch to
//! every up replica first** — per replica all the frames back to back
//! — **then collects the durability acks**: one
//! round-trip per commit step regardless of the shard and replica
//! counts ([`ReplicationSink::ship`] is a round of one). Sequence
//! numbers and quorum counts stay per stream: a batch is shipped iff
//! its own stream's acks reach the configured quorum, and every
//! acknowledged grant is durable on every replica that acked it.
//!
//! Links are **self-healing**: a replica whose link fails anywhere in
//! a round (send error, broken stream, refused batch, bad ack, expired
//! [`Replicator::with_ship_timeout`] deadline) drops to `Suspect` once,
//! none of its later acks are waited for — a round waits at most one
//! timeout per link — and it stops receiving ships, but [`Replicator::tend`] — called
//! periodically by whatever drives the node (a
//! [`crate::ClusterNode`] step, or a test) — redials it with capped
//! exponential backoff. A redialed replica whose durable state still
//! matches the primary's (same lineage, same seq vector) rejoins on
//! the spot; one that lagged or restarted is **resynced**: the primary
//! quiesces shipping, pushes a per-stream snapshot at the current seq
//! vector (the same state+suffix law compaction uses), and commits the
//! round with its lineage, after which ships resume to it as an
//! ordinary suffix.
//!
//! Every [`crate::Request::Replicate`] carries the primary's election
//! **term**. A replica fences ships from terms older than the highest
//! it has seen with [`ErrorCode::StaleTerm`], and a deposed primary
//! that sees that refusal (or a newer term in any reply) marks itself
//! [`Replicator::is_deposed`] and refuses further ships — the wire is
//! how an old leader learns it lost.
//!
//! A [`ReplicaNode`] is the state behind
//! [`crate::NetServer::bind_replica`]: a
//! [`dpack_service::ReplicaWal`] with the primary's log layout (so
//! promotion is [`BudgetService::recover`] on its storage), an
//! election state (current term, vote bookkeeping), plus its own
//! observability — `dpack_repl_*` metrics and
//! [`EventKind::ReplicaApplied`] flight-recorder events. The term is
//! **durable**: adopting a term consumes that term's vote, so the term
//! is the whole election state, and every adoption is synced to the
//! node's own `term` log before the reply that reveals it (Raft's
//! persistent `currentTerm`/`votedFor`). A restarted voter therefore
//! never votes twice in one term. What protects it from voting with
//! stale *logs* is the durable `dirty` marker ([`ReplicaWal::open`]
//! wipes a mid-resync node back to unattached) plus the ballot rule
//! below.
//!
//! [`BudgetService::recover`]: dpack_service::BudgetService::recover

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dpack_obs::trace::{span_id, with_active_traces, SpanKind, SpanRing};
use dpack_obs::{Clock, Counter, EventKind, FlightRecorder, Gauge, Histogram, Obs};
use dpack_service::wal::{codec, Wal, WalError, WalOptions, WalStorage};
use dpack_service::{
    BudgetService, ReplShipError, ReplStream, ReplicaApplyError, ReplicaWal, ReplicationSink,
    ShipBatch,
};

use crate::client::NetClient;
use crate::error::{ErrorCode, NetError};
use crate::wire::{Response, WirePeer, REPL_COORD_STREAM};

fn wire_stream(shard: u32) -> ReplStream {
    if shard == REPL_COORD_STREAM {
        ReplStream::Coordinator
    } else {
        ReplStream::Shard(shard)
    }
}

/// The election-ballot order: a candidate may lead a voter iff its
/// durable seq vector is at least the voter's. Ships are serialized
/// under the primary's cycle lock, so honest vectors are totally
/// ordered by sum; the lexicographic leg breaks byzantine ties and the
/// id leg breaks exact ties (lower id wins, so staggered candidates
/// converge on one winner).
fn ballot_wins(cand_ballot: &[u64], cand_id: u64, own_ballot: &[u64], own_id: u64) -> bool {
    let cand_sum: u64 = cand_ballot.iter().sum();
    let own_sum: u64 = own_ballot.iter().sum();
    if cand_sum != own_sum {
        return cand_sum > own_sum;
    }
    if cand_ballot != own_ballot {
        return cand_ballot > own_ballot;
    }
    cand_id <= own_id
}

/// The namespace of a replica's storage that holds its term log. The
/// replica log's wipe and a promoted service's recovery each read only
/// their own namespaces, so the term outlives both.
const TERM_DIR: &str = "term";

/// The replica's view of the election: the highest term it has seen.
/// Adopting a term consumes this node's vote for it — a voter grants
/// only to the **first** candidate that moves it to a new term, which
/// is what makes two leaders in one term impossible, across restarts
/// too: the term is appended to `log` before it is adopted.
struct ElectionState {
    term: u64,
    /// One record per adopted term, in increasing order.
    log: Wal,
}

impl ElectionState {
    /// Rebuilds the term from the log in `storage`'s [`TERM_DIR`]: its
    /// last record.
    fn open(storage: &dyn WalStorage) -> Result<Self, WalError> {
        let (log, recovered) = Wal::open(storage.sub(TERM_DIR)?, WalOptions::default())?;
        let term = match recovered.records.last() {
            Some(bytes) => codec::decode(bytes)?,
            None => 0,
        };
        Ok(Self { term, log })
    }

    /// Adopts `term` if it is newer than anything seen, durably first:
    /// on `Err` the term is not adopted (and so no vote is spent).
    fn adopt(&mut self, term: u64) -> Result<(), WalError> {
        if term > self.term {
            self.log.repair()?;
            self.log.append(&codec::encode(&term))?;
            self.term = term;
        }
        Ok(())
    }
}

/// Replica-side state: the replica's logs plus its instruments. Serve
/// it with [`crate::NetServer::bind_replica`] (or a loopback core via
/// [`crate::ServiceCore::replica`] in tests).
pub struct ReplicaNode {
    wal: ReplicaWal,
    obs: Arc<Obs>,
    /// This node's id in the deployment — the election tiebreak. Set it
    /// with [`ReplicaNode::with_node_id`]; standalone replicas
    /// (never candidates) can leave the default 0.
    node_id: u64,
    election: Mutex<ElectionState>,
    applied_batches: Counter,
    applied_records: Counter,
    duplicate_batches: Counter,
    /// One durable-seq gauge per shard stream, coordinator last.
    durable_gauges: Vec<Gauge>,
}

impl fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("shards", &self.wal.n_shards())
            .field("node_id", &self.node_id)
            .finish_non_exhaustive()
    }
}

impl ReplicaNode {
    /// Opens (or reopens) replica logs in `storage`, laid out for a
    /// primary with `shards` shards. Reopening resumes each stream's
    /// sequence from the surviving log — unless a `dirty` marker shows
    /// the node died mid-resync, in which case the logs are wiped back
    /// to unattached (they were not a faithful prefix of anything) —
    /// and the election term from the term log, which no wipe touches.
    ///
    /// # Errors
    ///
    /// Storage and log-recovery errors.
    pub fn open(
        storage: &dyn WalStorage,
        shards: usize,
        segment_bytes: u64,
        obs: Arc<Obs>,
    ) -> Result<Self, WalError> {
        let wal = ReplicaWal::open(storage, shards, segment_bytes)?;
        let election = ElectionState::open(storage)?;
        let mut durable_gauges: Vec<Gauge> = (0..shards)
            .map(|s| {
                obs.registry
                    .gauge("dpack_repl_durable_seq", &format!("stream=\"shard-{s}\""))
            })
            .collect();
        durable_gauges.push(
            obs.registry
                .gauge("dpack_repl_durable_seq", "stream=\"coord\""),
        );
        // Reopened logs may already be ahead of zero.
        for (s, gauge) in durable_gauges.iter().take(shards).enumerate() {
            gauge.set_u64(wal.durable_seq(ReplStream::Shard(s as u32)));
        }
        durable_gauges[shards].set_u64(wal.durable_seq(ReplStream::Coordinator));
        Ok(Self {
            applied_batches: obs.registry.counter("dpack_repl_applied_batches_total", ""),
            applied_records: obs.registry.counter("dpack_repl_applied_records_total", ""),
            duplicate_batches: obs
                .registry
                .counter("dpack_repl_duplicate_batches_total", ""),
            durable_gauges,
            node_id: 0,
            election: Mutex::new(election),
            wal,
            obs,
        })
    }

    /// Sets this node's deployment id (the election tiebreak).
    #[must_use]
    pub fn with_node_id(mut self, node_id: u64) -> Self {
        self.node_id = node_id;
        self
    }

    /// This node's deployment id.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// The replica's logs (promotion reads the storage they were opened
    /// on; tests read sequences through this).
    pub fn wal(&self) -> &ReplicaWal {
        &self.wal
    }

    /// The replica's observability context — the reactor registers its
    /// instruments here, and remote `Metrics`/`Trace` scrapes read it.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    fn election(&self) -> std::sync::MutexGuard<'_, ElectionState> {
        self.election.lock().expect("election lock poisoned")
    }

    /// The highest election term this node has seen.
    pub fn current_term(&self) -> u64 {
        self.election().term
    }

    /// Adopts `term` if it is newer than anything seen — how a
    /// candidate learns from a refusal carrying a higher term, and how
    /// a follower tracks its leader.
    ///
    /// # Errors
    ///
    /// The term log failed; the term is not adopted.
    pub fn observe_term(&self, term: u64) -> Result<(), WalError> {
        self.election().adopt(term)
    }

    /// Starts a campaign: durably bumps to a fresh term (consuming this
    /// node's own vote for it — the self-vote) and returns `(term,
    /// ballot)` to send in [`crate::Request::Vote`] to the peers.
    ///
    /// # Errors
    ///
    /// The term log failed; no campaign may start.
    pub fn prepare_campaign(&self) -> Result<(u64, Vec<u64>), WalError> {
        let mut es = self.election();
        let term = es.term + 1;
        es.adopt(term)?;
        Ok((term, self.wal.vector()))
    }

    /// Whether a resync round is in flight (dirty marker set); a
    /// mid-resync node holds unusable logs and must not vote.
    pub fn is_resyncing(&self) -> bool {
        self.wal.is_resyncing()
    }

    /// Wipes the node back to unattached in place — the follower-side
    /// response to its primary dying mid-resync.
    ///
    /// # Errors
    ///
    /// Storage errors; retry or reopen.
    pub fn reset_unattached(&self) -> Result<(), WalError> {
        let reset = self.wal.reset_unattached();
        if reset.is_ok() {
            for gauge in &self.durable_gauges {
                gauge.set_u64(0);
            }
        }
        reset
    }

    /// Fences `term` against the highest seen: an older term is
    /// refused (the sender is a deposed primary), a newer one is
    /// adopted — or refused with [`ErrorCode::Io`] if it cannot be made
    /// durable. Returns the refusal reply, or `None` to proceed.
    fn fence(&self, term: u64, what: &str) -> Option<Response> {
        let mut es = self.election();
        if term < es.term {
            return Some(Response::Error {
                code: ErrorCode::StaleTerm,
                message: format!(
                    "{what} from term {term} refused; this replica follows term {}",
                    es.term
                ),
            });
        }
        es.adopt(term).err().map(|e| Response::Error {
            code: ErrorCode::Io,
            message: format!("{what} from term {term} refused; the term log failed: {e}"),
        })
    }

    /// Applies one shipped batch and builds the wire reply: a
    /// [`Response::ReplicateAck`] carrying the stream's durable
    /// sequence, or an `Error` with [`ErrorCode::StaleTerm`] /
    /// [`ErrorCode::ReplicationGap`] / [`ErrorCode::Io`].
    pub(crate) fn apply(&self, term: u64, shard: u32, seq: u64, records: &[Vec<u8>]) -> Response {
        if let Some(refusal) = self.fence(term, "ship") {
            return refusal;
        }
        let stream = wire_stream(shard);
        // Sampled before the apply: afterwards a fresh batch and a
        // redelivery of the newest batch both show `durable == seq`.
        let fresh = seq > self.wal.durable_seq(stream);
        match self.wal.apply(stream, seq, records) {
            Ok(durable) => {
                if fresh {
                    self.applied_batches.inc();
                    self.applied_records.add(records.len() as u64);
                    self.obs
                        .recorder
                        .record(EventKind::ReplicaApplied, u64::from(shard), seq);
                } else {
                    self.duplicate_batches.inc();
                }
                let slot = match stream {
                    ReplStream::Shard(s) => s as usize,
                    ReplStream::Coordinator => self.wal.n_shards(),
                };
                self.durable_gauges[slot].set_u64(durable);
                Response::ReplicateAck {
                    shard,
                    seq,
                    durable,
                }
            }
            Err(e @ ReplicaApplyError::Gap { .. }) => Response::Error {
                code: ErrorCode::ReplicationGap,
                message: e.to_string(),
            },
            Err(e) => Response::Error {
                code: ErrorCode::Io,
                message: e.to_string(),
            },
        }
    }

    /// Answers a heartbeat: adopts a newer sender term and reveals this
    /// node's term, role, lineage, and durable seq vector.
    pub(crate) fn pong(&self, sender_term: u64) -> Response {
        let mut es = self.election();
        // A term that cannot be made durable is not adopted, and the
        // pong reveals the one that is.
        let _ = es.adopt(sender_term);
        Response::Pong {
            term: es.term,
            is_primary: false,
            lineage: self.wal.lineage(),
            vector: self.wal.vector(),
        }
    }

    /// Answers a vote request. Granted iff `term` is newer than
    /// anything seen (each term holds at most one vote — adopting the
    /// term consumes it), this node is not mid-resync, and the
    /// candidate's ballot is at least this node's own (no voter elects
    /// a leader that would lose its acked grants). The term is adopted
    /// even on a ballot refusal, so a refused candidate retries above
    /// it and the better-placed node campaigns in between.
    pub(crate) fn vote(&self, term: u64, candidate: u64, ballot: &[u64]) -> Response {
        let mut es = self.election();
        let eligible = term > es.term
            && !self.wal.is_resyncing()
            && ballot_wins(ballot, candidate, &self.wal.vector(), self.node_id);
        // The grant is the durable term: no grant if it cannot be kept.
        let granted = es.adopt(term).is_ok() && eligible;
        Response::VoteReply {
            term: es.term,
            granted,
        }
    }

    /// Installs one stream's snapshot (catch-up). The first install of
    /// a round durably marks the node dirty — killed mid-resync it
    /// reopens unattached instead of trusting half-installed logs.
    pub(crate) fn install(
        &self,
        term: u64,
        shard: u32,
        base_seq: u64,
        snapshot: &[u8],
    ) -> Response {
        if let Some(refusal) = self.fence(term, "resync install") {
            return refusal;
        }
        let stream = wire_stream(shard);
        match self.wal.install_stream(stream, base_seq, snapshot) {
            Ok(()) => {
                let slot = match stream {
                    ReplStream::Shard(s) => s as usize,
                    ReplStream::Coordinator => self.wal.n_shards(),
                };
                self.durable_gauges[slot].set_u64(base_seq);
                Response::ResyncAck {
                    stream: shard,
                    durable: base_seq,
                }
            }
            Err(e) => Response::Error {
                code: ErrorCode::Io,
                message: e.to_string(),
            },
        }
    }

    /// Commits a resync round: persists the installing primary's
    /// lineage and clears the dirty marker. The ack echoes the lineage
    /// under the coordinator stream id.
    pub(crate) fn commit_resync(&self, term: u64, lineage: u64) -> Response {
        if let Some(refusal) = self.fence(term, "resync commit") {
            return refusal;
        }
        match self.wal.commit_resync(lineage) {
            Ok(()) => Response::ResyncAck {
                stream: REPL_COORD_STREAM,
                durable: lineage,
            },
            Err(e) => Response::Error {
                code: ErrorCode::Io,
                message: e.to_string(),
            },
        }
    }
}

/// How a [`Replicator`] link (re)opens its connection — the seam that
/// lets tests inject loopback or failing connections.
pub type Connector = Box<dyn Fn() -> Result<NetClient, NetError> + Send + Sync>;

/// Link health. `Up` receives ships; `Suspect` and `Down` are skipped
/// and redialed by [`Replicator::tend`] — `Suspect` is a fresh failure
/// (first redial comes quickly), `Down` is a link that also failed its
/// redials (backoff has grown).
const LINK_UP: u8 = 0;
const LINK_SUSPECT: u8 = 1;
const LINK_DOWN: u8 = 2;

/// First redial delay after a failure; doubles per consecutive
/// failure up to [`REDIAL_CAP_NANOS`].
const REDIAL_BASE_NANOS: u64 = 50_000_000;
/// Redial backoff ceiling (5s).
const REDIAL_CAP_NANOS: u64 = 5_000_000_000;
/// Consecutive redial failures that demote `Suspect` to `Down`.
const SUSPECT_FAILS_TO_DOWN: u32 = 3;

/// One replica link and its failure-detector state.
struct Link {
    addr: SocketAddr,
    connector: Connector,
    client: Mutex<Option<NetClient>>,
    status: AtomicU8,
    /// Consecutive failed redial/probe rounds (backoff exponent).
    fails: AtomicU32,
    /// Clock-nanos before which [`Replicator::tend`] leaves this link
    /// alone.
    next_redial_nanos: AtomicU64,
    /// Highest durable seq this replica has acked, per stream (shard
    /// streams first, coordinator last) — the subtrahend of the
    /// `dpack_repl_lag` gauges and of [`Replicator::peer_status`].
    /// Sized by [`Replicator::over_links`].
    acked: Vec<AtomicU64>,
    /// Snapshot resyncs pushed down this link.
    resyncs: AtomicU64,
}

impl Link {
    fn status(&self) -> u8 {
        self.status.load(Ordering::Acquire)
    }
}

/// What one tend round concluded about a link.
enum Probe {
    /// The link is caught up (fast path or after a resync) — mark Up.
    Caught,
    /// Not reachable / not caught up yet — back off and retry.
    NotYet,
    /// The peer answered from a higher term: this primary is deposed.
    Deposed,
}

/// The primary's [`ReplicationSink`] over [`NetClient`] links.
///
/// Per-stream sequence numbers are assigned here (the ledger serializes
/// rounds per stream, and a round carries a stream at most once, so a
/// fetch-add suffices). Attach it to a **fresh**
/// ledger ([`dpack_service::ShardedLedger::set_replication`]) or — for
/// a promoted primary resuming an existing stream — build it with
/// [`Replicator::resume`] and attach with
/// [`dpack_service::ShardedLedger::set_replication_resumed`].
pub struct Replicator {
    links: Vec<Link>,
    quorum: usize,
    n_shards: usize,
    /// Next-1 sequence per stream; shard streams first, coordinator
    /// last.
    seqs: Vec<AtomicU64>,
    /// This primary's election term, carried in every ship.
    term: AtomicU64,
    /// The lineage stamped on resynced replicas (the primary's own
    /// election term; 0 for a legacy/bootstrap deployment).
    lineage: AtomicU64,
    /// Set when the wire proved a newer term exists (a
    /// [`ErrorCode::StaleTerm`] refusal or a higher-term pong): this
    /// node lost the leadership and must stop acking grants.
    deposed: AtomicBool,
    /// Read deadline applied to every link connection; an ack that
    /// takes longer marks the replica `Suspect` instead of wedging the
    /// commit path.
    ship_timeout: Option<Duration>,
    clock: Arc<dyn Clock>,
    recorder: FlightRecorder,
    /// Where traced ships record their `ReplShip`/`QuorumWait` spans.
    spans: SpanRing,
    /// Per-stream replication lag (primary seq − the slowest up
    /// replica's acked seq); shard streams first, coordinator last.
    lag_gauges: Vec<Gauge>,
    shipped_batches: Counter,
    shipped_records: Counter,
    acked_batches: Counter,
    ship_failures: Counter,
    ship_timeout_total: Counter,
    redials_total: Counter,
    resyncs_total: Counter,
    live_replicas: Gauge,
    /// Pipelined quorum rounds ([`ReplicationSink::ship_all`] calls);
    /// `shipped_batches` counts the per-stream batches they carried.
    ship_rounds: Counter,
    /// Send → last ack collected, per round.
    quorum_wait_nanos: Histogram,
}

impl fmt::Debug for Replicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replicator")
            .field(
                "replicas",
                &self.links.iter().map(|l| l.addr).collect::<Vec<_>>(),
            )
            .field("quorum", &self.quorum)
            .field("live", &self.live())
            .field("term", &self.term.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl Replicator {
    /// Connects one link per replica address. `quorum` is how many
    /// durability acks a ship needs to succeed; `n_shards` must match
    /// the ledger this sink will be attached to (and the `shards` the
    /// replicas' logs were opened with). Links start `Up`; without a
    /// driver calling [`Replicator::tend`], a failed link stays down
    /// (the original operator-driven deployment model).
    ///
    /// # Errors
    ///
    /// The first connection failure — replication starts with every
    /// replica reachable or not at all.
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is 0 or exceeds the replica count, or if
    /// `n_shards` is 0.
    pub fn connect(
        addrs: &[SocketAddr],
        quorum: usize,
        n_shards: usize,
        obs: &Obs,
    ) -> Result<Self, NetError> {
        let links = addrs
            .iter()
            .map(|&addr| {
                Ok(Link {
                    addr,
                    connector: Box::new(move || NetClient::connect(addr)),
                    client: Mutex::new(Some(NetClient::connect(addr)?)),
                    status: AtomicU8::new(LINK_UP),
                    fails: AtomicU32::new(0),
                    next_redial_nanos: AtomicU64::new(0),
                    acked: Vec::new(),
                    resyncs: AtomicU64::new(0),
                })
            })
            .collect::<Result<Vec<_>, NetError>>()?;
        Ok(Self::over_links(links, quorum, n_shards, 0, &[], obs))
    }

    /// Builds a self-healing replicator over connectors. Every link
    /// starts `Down` with an immediate redial due — the first
    /// [`Replicator::tend`] dials, probes, and (if needed) resyncs
    /// each replica before it counts toward quorum.
    ///
    /// # Panics
    ///
    /// Same contract as [`Replicator::connect`].
    pub fn with_connectors(
        connectors: Vec<(SocketAddr, Connector)>,
        quorum: usize,
        n_shards: usize,
        obs: &Obs,
    ) -> Self {
        Self::resume(connectors, quorum, n_shards, &[], 0, obs)
    }

    /// [`Replicator::with_connectors`] for a **promoted** primary:
    /// resumes the per-stream sequence counters from `seqs` (the seq
    /// vector the promoting node folded its logs at; shard streams
    /// first, coordinator last — pass `&[]` for a fresh stream) and
    /// stamps `term` as this primary's election term and lineage.
    /// Attach with
    /// [`dpack_service::ShardedLedger::set_replication_resumed`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Replicator::connect`], plus `seqs` (when
    /// non-empty) must hold exactly `n_shards + 1` entries.
    pub fn resume(
        connectors: Vec<(SocketAddr, Connector)>,
        quorum: usize,
        n_shards: usize,
        seqs: &[u64],
        term: u64,
        obs: &Obs,
    ) -> Self {
        let links = connectors
            .into_iter()
            .map(|(addr, connector)| Link {
                addr,
                connector,
                client: Mutex::new(None),
                status: AtomicU8::new(LINK_DOWN),
                fails: AtomicU32::new(0),
                next_redial_nanos: AtomicU64::new(0),
                acked: Vec::new(),
                resyncs: AtomicU64::new(0),
            })
            .collect();
        Self::over_links(links, quorum, n_shards, term, seqs, obs)
    }

    fn over_links(
        mut links: Vec<Link>,
        quorum: usize,
        n_shards: usize,
        term: u64,
        seqs: &[u64],
        obs: &Obs,
    ) -> Self {
        assert!(
            quorum >= 1 && quorum <= links.len(),
            "quorum must be within 1..=replica count"
        );
        assert!(n_shards >= 1, "need at least one shard stream");
        assert!(
            seqs.is_empty() || seqs.len() == n_shards + 1,
            "a resumed seq vector must cover every shard stream plus the coordinator"
        );
        for link in &mut links {
            link.acked = (0..=n_shards).map(|_| AtomicU64::new(0)).collect();
        }
        let lag_gauges = (0..n_shards)
            .map(|s| {
                obs.registry
                    .gauge("dpack_repl_lag", &format!("stream=\"shard-{s}\""))
            })
            .chain(std::iter::once(
                obs.registry.gauge("dpack_repl_lag", "stream=\"coord\""),
            ))
            .collect();
        let this = Self {
            quorum,
            n_shards,
            seqs: (0..=n_shards)
                .map(|s| AtomicU64::new(seqs.get(s).copied().unwrap_or(0)))
                .collect(),
            term: AtomicU64::new(term),
            lineage: AtomicU64::new(term),
            deposed: AtomicBool::new(false),
            ship_timeout: None,
            clock: Arc::clone(obs.clock()),
            recorder: obs.recorder.clone(),
            spans: obs.spans.clone(),
            lag_gauges,
            shipped_batches: obs.registry.counter("dpack_repl_shipped_batches_total", ""),
            shipped_records: obs.registry.counter("dpack_repl_shipped_records_total", ""),
            acked_batches: obs.registry.counter("dpack_repl_acked_batches_total", ""),
            ship_failures: obs.registry.counter("dpack_repl_ship_failures_total", ""),
            ship_timeout_total: obs.registry.counter("dpack_repl_ship_timeout_total", ""),
            redials_total: obs.registry.counter("dpack_repl_redials_total", ""),
            resyncs_total: obs.registry.counter("dpack_repl_resyncs_total", ""),
            live_replicas: obs.registry.gauge("dpack_repl_live_replicas", ""),
            ship_rounds: obs.registry.counter("dpack_repl_ship_rounds_total", ""),
            quorum_wait_nanos: obs.registry.histogram("dpack_repl_quorum_wait_nanos", ""),
            links,
        };
        this.live_replicas.set_u64(this.live() as u64);
        this
    }

    /// Bounds how long a ship round waits for any single replica — one
    /// expired bound marks that replica `Suspect` (counted in
    /// `dpack_repl_ship_timeout_total`) and ends the wait for it,
    /// instead of wedging the commit path behind a hung peer. Applies to current and future
    /// connections.
    #[must_use]
    pub fn with_ship_timeout(mut self, timeout: Duration) -> Self {
        self.ship_timeout = Some(timeout);
        for link in &self.links {
            let mut client = link.client.lock().expect("replica link lock poisoned");
            if let Some(c) = client.as_mut() {
                if c.set_read_timeout(Some(timeout)).is_err() {
                    *client = None;
                    link.status.store(LINK_SUSPECT, Ordering::Release);
                }
            }
        }
        self
    }

    /// Replicas whose links are up (receiving ships and counted toward
    /// quorum).
    pub fn live(&self) -> usize {
        self.links.iter().filter(|l| l.status() == LINK_UP).count()
    }

    /// The configured quorum.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// This primary's election term (0 for legacy deployments).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// The lineage stamped on resynced replicas.
    pub fn lineage(&self) -> u64 {
        self.lineage.load(Ordering::Acquire)
    }

    /// Whether the wire proved a newer term exists. A deposed
    /// replicator refuses every further ship; the node driving it must
    /// demote to a replica role.
    pub fn is_deposed(&self) -> bool {
        self.deposed.load(Ordering::Acquire)
    }

    /// The current per-stream sequence vector (shard streams first,
    /// coordinator last) — the primary's ballot.
    pub fn vector(&self) -> Vec<u64> {
        self.seqs
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect()
    }

    /// Refreshes the `dpack_repl_lag` gauges: per stream, the
    /// primary's shipped seq minus the slowest **up** replica's acked
    /// seq. With no up replica everything shipped is unacked, so the
    /// lag is the seq itself.
    fn refresh_lag(&self) {
        for (slot, gauge) in self.lag_gauges.iter().enumerate() {
            let seq = self.seqs[slot].load(Ordering::Acquire);
            let slowest = self
                .links
                .iter()
                .filter(|l| l.status() == LINK_UP)
                .map(|l| l.acked[slot].load(Ordering::Acquire))
                .min()
                .unwrap_or(0);
            gauge.set_u64(seq.saturating_sub(slowest));
        }
    }

    /// A point-in-time view of every replica link for cluster
    /// introspection: address, Up/Suspect/Down state, per-stream lag
    /// against this primary's seq vector, remaining redial backoff,
    /// and resyncs pushed. Peer ids and terms are the cluster
    /// driver's knowledge, not the replicator's — they are left 0 for
    /// the caller to fill.
    pub fn peer_status(&self) -> Vec<WirePeer> {
        let vector = self.vector();
        let now = self.clock.now_nanos();
        self.links
            .iter()
            .map(|link| WirePeer {
                id: 0,
                addr: link.addr.to_string(),
                state: link.status(),
                term: self.term(),
                is_primary: false,
                lag: vector
                    .iter()
                    .zip(&link.acked)
                    .map(|(seq, acked)| seq.saturating_sub(acked.load(Ordering::Acquire)))
                    .collect(),
                backoff_nanos: link
                    .next_redial_nanos
                    .load(Ordering::Acquire)
                    .saturating_sub(now),
                resyncs: link.resyncs.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Marks a link failed right now: out of the ship path, first
    /// redial due after the base backoff.
    fn suspect(&self, link: &Link) {
        link.status.store(LINK_SUSPECT, Ordering::Release);
        link.fails.store(0, Ordering::Release);
        link.next_redial_nanos.store(
            self.clock.now_nanos().saturating_add(REDIAL_BASE_NANOS),
            Ordering::Release,
        );
    }

    /// Records a failed redial/probe round: doubles the backoff and
    /// demotes a repeatedly-failing `Suspect` to `Down`.
    fn backoff(&self, link: &Link, now_nanos: u64) {
        let fails = link.fails.fetch_add(1, Ordering::AcqRel) + 1;
        if fails >= SUSPECT_FAILS_TO_DOWN {
            link.status.store(LINK_DOWN, Ordering::Release);
        }
        let delay = REDIAL_BASE_NANOS
            .checked_shl(fails.min(16).saturating_sub(1))
            .unwrap_or(REDIAL_CAP_NANOS)
            .min(REDIAL_CAP_NANOS);
        link.next_redial_nanos
            .store(now_nanos.saturating_add(delay), Ordering::Release);
    }

    fn mark_up(&self, link: &Link) {
        link.fails.store(0, Ordering::Release);
        link.status.store(LINK_UP, Ordering::Release);
    }

    /// One failure-detector round: redials every non-`Up` link whose
    /// backoff expired, probes it with a heartbeat, and rejoins it —
    /// directly when its durable state still matches (same lineage and
    /// seq vector), via a quiesced snapshot resync otherwise (which
    /// needs `service`; without one, out-of-date replicas stay down).
    /// Call it off the commit path (a cluster step thread, a test)
    /// with the current clock reading.
    ///
    /// Returns `false` once the wire proves this primary deposed —
    /// stop tending and demote.
    pub fn tend(&self, now_nanos: u64, service: Option<&BudgetService>) -> bool {
        if self.is_deposed() {
            return false;
        }
        for (i, link) in self.links.iter().enumerate() {
            if link.status() == LINK_UP {
                continue;
            }
            if now_nanos < link.next_redial_nanos.load(Ordering::Acquire) {
                continue;
            }
            if !self.redial(link) {
                self.backoff(link, now_nanos);
                continue;
            }
            // Probe (and resync) under the cycle lock: with shipping
            // quiesced the seq vector cannot move between the capture
            // and the rejoin, so a rejoined replica has missed nothing.
            let probe = match service {
                Some(svc) => svc.quiesced(|| self.probe_and_sync(i, link, Some(svc))),
                None => self.probe_and_sync(i, link, None),
            };
            match probe {
                Probe::Caught => self.mark_up(link),
                Probe::NotYet => self.backoff(link, now_nanos),
                Probe::Deposed => {
                    self.deposed.store(true, Ordering::Release);
                    self.live_replicas.set_u64(self.live() as u64);
                    return false;
                }
            }
        }
        self.live_replicas.set_u64(self.live() as u64);
        self.refresh_lag();
        true
    }

    /// Ensures the link holds a connection, dialing through its
    /// connector if not.
    fn redial(&self, link: &Link) -> bool {
        let mut client = link.client.lock().expect("replica link lock poisoned");
        if client.is_some() {
            return true;
        }
        match (link.connector)() {
            Ok(mut c) => {
                if c.set_read_timeout(self.ship_timeout).is_err() {
                    return false;
                }
                self.redials_total.inc();
                *client = Some(c);
                true
            }
            Err(_) => false,
        }
    }

    /// Heartbeats a redialed link and, when it lagged, pushes a full
    /// per-stream snapshot resync. Runs under the service's cycle lock
    /// when a service is present.
    fn probe_and_sync(&self, index: usize, link: &Link, service: Option<&BudgetService>) -> Probe {
        let term = self.term();
        let lineage = self.lineage();
        let vector = self.vector();
        let mut guard = link.client.lock().expect("replica link lock poisoned");
        let pong_res = match guard.as_mut() {
            Some(client) => client.ping(term, vector.clone()),
            None => return Probe::NotYet,
        };
        let pong = match pong_res {
            Ok(p) => p,
            Err(NetError::Remote {
                code: ErrorCode::StaleTerm,
                ..
            }) => return Probe::Deposed,
            Err(_) => {
                *guard = None;
                return Probe::NotYet;
            }
        };
        if pong.term > term {
            return Probe::Deposed;
        }
        if pong.lineage == lineage && pong.vector == vector {
            // Fast path: the replica's durable state is exactly ours —
            // a transient disconnect, nothing was missed.
            for (slot, seq) in vector.iter().enumerate() {
                link.acked[slot].store(*seq, Ordering::Release);
            }
            return Probe::Caught;
        }
        let Some(service) = service else {
            return Probe::NotYet;
        };
        // Full resync: per-stream snapshot at the current (quiesced)
        // seq vector — the same state+suffix law compaction relies on.
        let payloads = service.ledger().shard_snapshot_payloads();
        debug_assert_eq!(payloads.len(), self.n_shards);
        let pushed = match guard.as_mut() {
            Some(client) => {
                let mut push = || -> Result<(), NetError> {
                    for (s, payload) in payloads.iter().enumerate() {
                        client.resync_stream(term, s as u32, vector[s], payload.clone())?;
                    }
                    // The shard snapshots carry the whole ledger
                    // state; the coordinator stream restarts empty
                    // (its records only matter for promotion-time
                    // dedup, and the base seq keeps it aligned).
                    client.resync_stream(
                        term,
                        REPL_COORD_STREAM,
                        vector[self.n_shards],
                        Vec::new(),
                    )?;
                    client.resync_commit(term, lineage)
                };
                push()
            }
            None => return Probe::NotYet,
        };
        match pushed {
            Ok(()) => {
                self.resyncs_total.inc();
                link.resyncs.fetch_add(1, Ordering::AcqRel);
                for (slot, seq) in vector.iter().enumerate() {
                    link.acked[slot].store(*seq, Ordering::Release);
                }
                self.recorder
                    .record(EventKind::ReplicaResynced, index as u64, lineage);
                Probe::Caught
            }
            Err(NetError::Remote {
                code: ErrorCode::StaleTerm,
                ..
            }) => Probe::Deposed,
            Err(_) => {
                *guard = None;
                Probe::NotYet
            }
        }
    }
}

/// One batch of a ship round, addressed and sequenced.
struct InFlight<'a> {
    batch: &'a ShipBatch<'a>,
    /// The stream's wire address and its slot in the seq/lag vectors.
    wire: u32,
    slot: usize,
    seq: u64,
    /// Replicas that durably acknowledged it.
    acked: usize,
    /// On a traced batch, the ack that completed its quorum is the one
    /// the commit was waiting for: (clock reading, link ordinal),
    /// attributing the quorum wait to its slowest contributor.
    /// Untraced batches never take the extra clock reads.
    quorum_closed: Option<(u64, usize)>,
}

impl ReplicationSink for Replicator {
    /// A round of one, on behalf of the thread's pinned traces.
    fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> Result<(), ReplShipError> {
        let mut traces = Vec::new();
        with_active_traces(|ctxs| traces.extend_from_slice(ctxs));
        let batch = ShipBatch {
            stream,
            records,
            traces: &traces,
        };
        self.ship_all(&[batch]).remove(0)
    }

    /// One pipelined quorum round for every batch: per up link, every
    /// batch's `Replicate` frame goes out back to back, then every ack
    /// is collected — one round-trip per round, whatever the number of
    /// streams and replicas. Sequence numbers, quorum counts and
    /// `acked` watermarks stay per stream; a link that fails anywhere
    /// in the round drops to `Suspect` once and its remaining acks are
    /// not waited for, so a round waits at most one ship timeout per
    /// link.
    fn ship_all(&self, batches: &[ShipBatch<'_>]) -> Vec<Result<(), ReplShipError>> {
        let lost = |acked| ReplShipError::QuorumLost {
            acked,
            quorum: self.quorum,
        };
        if self.is_deposed() {
            self.ship_failures.add(batches.len() as u64);
            return batches.iter().map(|_| Err(lost(0))).collect();
        }
        let term = self.term();
        let started = self.clock.now_nanos();
        self.ship_rounds.inc();
        let mut flights: Vec<InFlight<'_>> = batches
            .iter()
            .map(|batch| {
                let (wire, slot) = match batch.stream {
                    ReplStream::Shard(s) => (s, s as usize),
                    ReplStream::Coordinator => (REPL_COORD_STREAM, self.n_shards),
                };
                debug_assert!(slot < self.seqs.len(), "stream outside the attached ledger");
                self.shipped_batches.inc();
                self.shipped_records.add(batch.records.len() as u64);
                InFlight {
                    batch,
                    wire,
                    slot,
                    seq: self.seqs[slot].fetch_add(1, Ordering::Relaxed) + 1,
                    acked: 0,
                    quorum_closed: None,
                }
            })
            .collect();

        // Phase 1: pipeline the round to every up replica, and flush
        // each link before any ack is awaited — otherwise a link's
        // frames would wait for the links before it to answer; a send
        // or flush failure marks the link Suspect on the spot. The
        // traced grants' bare ids ride the wire so each replica can
        // derive its append span.
        let mut handles = Vec::with_capacity(self.links.len());
        for link in &self.links {
            if link.status() != LINK_UP {
                handles.push(None);
                continue;
            }
            let mut client = link.client.lock().expect("replica link lock poisoned");
            let sent: Option<Vec<_>> = client.as_mut().and_then(|c| {
                let send = |flight: &InFlight<'_>| {
                    let records = flight.batch.records.iter().map(|r| r.to_vec()).collect();
                    let traces = flight.batch.traces.iter().map(|ctx| ctx.trace).collect();
                    c.replicate_nowait(term, flight.wire, flight.seq, records, traces)
                        .ok()
                };
                let sent = flights.iter().map(send).collect::<Option<Vec<_>>>()?;
                c.flush().ok().map(|()| sent)
            });
            if sent.is_none() {
                *client = None;
                self.suspect(link);
            }
            handles.push(sent);
        }

        // Phase 2: collect durability acks, link by link, in send
        // order. An errored wait, a mismatched ack, or a `durable`
        // short of `seq` all mean the replica can no longer be trusted
        // to hold the acked prefix — Suspect, pending a redial and (if
        // needed) resync, and none of its later acks count. A
        // stale-term refusal means *we* are the untrustworthy side.
        for (ordinal, (link, sent)) in self.links.iter().zip(handles).enumerate() {
            let Some(sent) = sent else { continue };
            let mut guard = link.client.lock().expect("replica link lock poisoned");
            for (flight, handle) in flights.iter_mut().zip(sent) {
                let Some(client) = guard.as_mut() else { break };
                match client.wait_replicate_ack(handle) {
                    Ok((s, q, durable))
                        if s == flight.wire && q == flight.seq && durable >= flight.seq =>
                    {
                        flight.acked += 1;
                        link.acked[flight.slot].fetch_max(durable, Ordering::AcqRel);
                        if !flight.batch.traces.is_empty() && flight.acked == self.quorum {
                            flight.quorum_closed = Some((self.clock.now_nanos(), ordinal));
                        }
                        continue;
                    }
                    Err(NetError::Timeout) => self.ship_timeout_total.inc(),
                    Err(NetError::Remote {
                        code: ErrorCode::StaleTerm,
                        ..
                    }) => self.deposed.store(true, Ordering::Release),
                    _ => {}
                }
                *guard = None;
                self.suspect(link);
            }
        }

        self.live_replicas.set_u64(self.live() as u64);
        let ended = self.clock.now_nanos();
        self.quorum_wait_nanos.record(ended.saturating_sub(started));
        self.refresh_lag();
        let deposed = self.is_deposed();
        let outcome = |flight: InFlight<'_>| {
            let stream_salt = u64::from(flight.wire);
            for ctx in flight.batch.traces {
                let ship_span = span_id(ctx.trace, SpanKind::ReplShip, stream_salt);
                self.spans.record(
                    ctx.trace,
                    ship_span,
                    span_id(ctx.trace, SpanKind::Cycle, 0),
                    SpanKind::ReplShip,
                    started,
                    ended,
                    stream_salt,
                );
                if let Some((closed_at, ordinal)) = flight.quorum_closed {
                    self.spans.record(
                        ctx.trace,
                        span_id(ctx.trace, SpanKind::QuorumWait, stream_salt),
                        ship_span,
                        SpanKind::QuorumWait,
                        started,
                        closed_at,
                        ordinal as u64,
                    );
                }
            }
            if flight.acked >= self.quorum && !deposed {
                self.acked_batches.inc();
                Ok(())
            } else {
                self.ship_failures.inc();
                Err(lost(flight.acked))
            }
        };
        flights.into_iter().map(outcome).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;
    use crate::ServiceCore;
    use dpack_service::durability::LogRecord;
    use dpack_service::wal::SimStorage;

    /// A record tagged with `stream`, as a primary ships it.
    fn record(stream: ReplStream) -> Vec<u8> {
        match stream {
            ReplStream::Shard(shard) => LogRecord::Apply {
                shard,
                task: 0,
                demand: vec![],
                blocks: vec![],
            },
            ReplStream::Coordinator => LogRecord::Abort {
                attempt: 0,
                task: 0,
            },
        }
        .encode()
    }

    fn loopback_replica(sim: &SimStorage, shards: usize) -> (Arc<ReplicaNode>, NetClient) {
        let obs = Obs::off();
        let node = Arc::new(ReplicaNode::open(sim, shards, 1 << 16, obs).unwrap());
        let client = loopback_client(&node);
        (node, client)
    }

    fn loopback_client(node: &Arc<ReplicaNode>) -> NetClient {
        let core = ServiceCore::replica(Arc::clone(node));
        NetClient::new(Box::new(LoopbackTransport::with_core(core)))
    }

    /// A replicator over loopback links to `nodes`, every link tended
    /// up once: a fresh replica rejoins a fresh primary on the spot.
    /// Nothing tends it again, so a link that fails stays down.
    fn replicator(
        nodes: &[&Arc<ReplicaNode>],
        quorum: usize,
        shards: usize,
        obs: &Obs,
    ) -> Replicator {
        let links = nodes.iter().map(|node| {
            let node = Arc::clone(node);
            let connector: Connector = Box::new(move || Ok(loopback_client(&node)));
            (([0, 0, 0, 0], 0).into(), connector)
        });
        let repl = Replicator::with_connectors(links.collect(), quorum, shards, obs);
        assert!(repl.tend(0, None));
        assert_eq!(repl.live(), nodes.len());
        repl
    }

    #[test]
    fn a_quorum_of_loopback_replicas_acks_a_ship() {
        let sim_a = SimStorage::new();
        let sim_b = SimStorage::new();
        let (node_a, _) = loopback_replica(&sim_a, 2);
        let (node_b, _) = loopback_replica(&sim_b, 2);
        let repl = replicator(&[&node_a, &node_b], 2, 2, &Obs::off());

        let one = record(ReplStream::Shard(1));
        repl.ship(ReplStream::Shard(1), &[&one, &one]).unwrap();
        repl.ship(ReplStream::Shard(1), &[&one]).unwrap();
        repl.ship(ReplStream::Coordinator, &[&record(ReplStream::Coordinator)])
            .unwrap();
        for node in [&node_a, &node_b] {
            assert_eq!(node.wal().durable_seq(ReplStream::Shard(1)), 2);
            assert_eq!(node.wal().durable_seq(ReplStream::Coordinator), 1);
            assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 0);
        }
    }

    #[test]
    fn a_dead_replica_fails_quorum_and_stays_dead_without_tending() {
        let sim_a = SimStorage::new();
        let sim_b = SimStorage::new();
        let (node_a, _) = loopback_replica(&sim_a, 1);
        let (node_b, _) = loopback_replica(&sim_b, 1);
        let repl = replicator(&[&node_a, &node_b], 2, 1, &Obs::off());
        // Break replica B's log so its applies fail.
        sim_b.set_append_errors(true);

        let err = repl
            .ship(ReplStream::Shard(0), &[&record(ReplStream::Shard(0))])
            .unwrap_err();
        assert_eq!(
            err,
            ReplShipError::QuorumLost {
                acked: 1,
                quorum: 2
            }
        );
        assert_eq!(repl.live(), 1, "the failed replica is out of the fleet");
        // Nothing tends the replicator again, so B never
        // recovers even if its storage does: quorum 2 of a 1-live
        // fleet keeps failing, and A (live) keeps applying.
        sim_b.set_append_errors(false);
        assert!(repl
            .ship(ReplStream::Shard(0), &[&record(ReplStream::Shard(0))])
            .is_err());
        assert_eq!(node_a.wal().durable_seq(ReplStream::Shard(0)), 2);
    }

    #[test]
    fn quorum_one_survives_a_single_replica_failure() {
        let sim_a = SimStorage::new();
        let sim_b = SimStorage::new();
        let (node_a, _) = loopback_replica(&sim_a, 1);
        let (node_b, _) = loopback_replica(&sim_b, 1);
        let repl = replicator(&[&node_a, &node_b], 1, 1, &Obs::off());
        sim_b.set_append_errors(true);

        repl.ship(ReplStream::Shard(0), &[&record(ReplStream::Shard(0))])
            .unwrap();
        assert_eq!(repl.live(), 1);
        assert_eq!(node_a.wal().durable_seq(ReplStream::Shard(0)), 1);
        assert_eq!(node_b.wal().durable_seq(ReplStream::Shard(0)), 0);
    }

    #[test]
    fn a_primary_refuses_the_replication_stream() {
        use dp_accounting::AlphaGrid;
        use dpack_service::{BudgetService, ServiceConfig};
        let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
        let service = Arc::new(BudgetService::new(grid, ServiceConfig::default()));
        let mut client = NetClient::loopback(service);
        let err = client
            .replicate(0, 0, 1, vec![record(ReplStream::Shard(0))])
            .unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Remote {
                    code: ErrorCode::Protocol,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn a_replica_refuses_tenant_traffic_as_not_primary() {
        let sim = SimStorage::new();
        let (_node, mut client) = loopback_replica(&sim, 1);
        let err = client.grid().unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Remote {
                    code: ErrorCode::NotPrimary,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn duplicate_and_gap_deliveries_answer_idempotently_and_with_gap_errors() {
        let sim = SimStorage::new();
        let (node, mut client) = loopback_replica(&sim, 1);
        assert_eq!(
            client
                .replicate(0, 0, 1, vec![record(ReplStream::Shard(0))])
                .unwrap(),
            1
        );
        assert_eq!(
            client
                .replicate(0, 0, 2, vec![record(ReplStream::Shard(0))])
                .unwrap(),
            2
        );
        // Duplicate: acked with the unchanged durable sequence.
        assert_eq!(
            client
                .replicate(0, 0, 1, vec![record(ReplStream::Shard(0))])
                .unwrap(),
            2
        );
        // Gap: refused with the dedicated code.
        let err = client
            .replicate(0, 0, 9, vec![record(ReplStream::Shard(0))])
            .unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Remote {
                    code: ErrorCode::ReplicationGap,
                    ..
                }
            ),
            "got {err:?}"
        );
        assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 2);
    }

    #[test]
    fn a_stale_term_ship_is_fenced_and_newer_terms_are_adopted() {
        let sim = SimStorage::new();
        let (node, mut client) = loopback_replica(&sim, 1);
        // Term 0 (legacy) ships flow while nothing newer was seen.
        assert_eq!(
            client
                .replicate(0, 0, 1, vec![record(ReplStream::Shard(0))])
                .unwrap(),
            1
        );
        // A ship from term 3 is adopted...
        assert_eq!(
            client
                .replicate(3, 0, 2, vec![record(ReplStream::Shard(0))])
                .unwrap(),
            2
        );
        assert_eq!(node.current_term(), 3);
        // ...after which the old term's ships bounce with StaleTerm.
        let err = client
            .replicate(0, 0, 3, vec![record(ReplStream::Shard(0))])
            .unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Remote {
                    code: ErrorCode::StaleTerm,
                    ..
                }
            ),
            "got {err:?}"
        );
        assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 2);
    }

    #[test]
    fn a_restarted_voter_remembers_its_term_and_grants_no_second_vote() {
        let sim = SimStorage::new();
        let (node, mut client) = loopback_replica(&sim, 1);
        let (_, granted) = client.request_vote(7, 1, vec![1, 0]).unwrap();
        assert!(granted);
        drop((node, client));
        // Restart on what the storage kept: term 7's vote is spent.
        let sim = sim.surviving();
        let (node, mut client) = loopback_replica(&sim, 1);
        assert_eq!(node.current_term(), 7);
        let (term, granted) = client.request_vote(7, 2, vec![1, 0]).unwrap();
        assert_eq!((term, granted), (7, false), "two votes in term 7");

        // Every other adoption is durable too: a fenced ship, a pong,
        // an observed term, a campaign — and no replica-log wipe
        // touches it.
        client
            .replicate(9, 0, 1, vec![record(ReplStream::Shard(0))])
            .unwrap();
        assert_eq!(client.ping(11, vec![0, 0]).unwrap().term, 11);
        node.observe_term(12).unwrap();
        assert_eq!(node.prepare_campaign().unwrap().0, 13);
        node.wal().mark_dirty().unwrap();
        drop((node, client));
        let sim = sim.surviving();
        let (node, mut client) = loopback_replica(&sim, 1);
        assert_eq!(node.wal().vector(), vec![0, 0], "the dirty log was wiped");
        assert_eq!(node.current_term(), 13);

        // A term that cannot be made durable is not adopted, and so
        // spends no vote and starts no campaign.
        sim.set_append_errors(true);
        let (term, granted) = client.request_vote(14, 1, vec![1, 0]).unwrap();
        assert_eq!((term, granted), (13, false));
        assert!(node.prepare_campaign().is_err());
        assert!(node.observe_term(20).is_err());
        assert!(matches!(
            client.replicate(20, 0, 1, vec![record(ReplStream::Shard(0))]),
            Err(NetError::Remote {
                code: ErrorCode::Io,
                ..
            })
        ));
        assert_eq!(client.ping(20, vec![0, 0]).unwrap().term, 13);
        sim.set_append_errors(false);
        let (term, granted) = client.request_vote(14, 1, vec![1, 0]).unwrap();
        assert_eq!((term, granted), (14, true));
        drop((node, client));
        let (node, _client) = loopback_replica(&sim.surviving(), 1);
        assert_eq!(node.current_term(), 14);
    }

    #[test]
    fn votes_grant_once_per_term_and_respect_the_ballot_order() {
        let sim = SimStorage::new();
        let (_node, mut client) = loopback_replica(&sim, 1);
        // An equal ballot (fresh node, all-zero vector) is granted.
        let (term, granted) = client.request_vote(1, 0, vec![0, 0]).unwrap();
        assert_eq!((term, granted), (1, true));
        // The same term cannot be granted twice, even to the same id.
        let (_, again) = client.request_vote(1, 0, vec![0, 0]).unwrap();
        assert!(!again);
        // Ship a record so the voter's own ballot becomes [1, 0].
        client
            .replicate(2, 0, 1, vec![record(ReplStream::Shard(0))])
            .unwrap();
        // A candidate whose ballot would lose acked work is refused —
        // and the term is consumed anyway (the refused candidate must
        // campaign above it, letting the better-placed node go first).
        let (term, granted) = client.request_vote(3, 5, vec![0, 0]).unwrap();
        assert_eq!((term, granted), (3, false));
        // An exact ballot tie goes to the lower node id.
        let (_, granted) = client.request_vote(4, 5, vec![1, 0]).unwrap();
        assert!(!granted, "candidate id 5 loses the tie against voter id 0");
        let (_, granted) = client.request_vote(5, 0, vec![1, 0]).unwrap();
        assert!(granted, "a covering ballot from a low id wins");
    }

    #[test]
    fn resync_installs_a_snapshot_base_and_commits_a_lineage() {
        let sim = SimStorage::new();
        let (node, mut client) = loopback_replica(&sim, 1);
        // Install shard 0 at base 7 and the coordinator at base 3.
        assert_eq!(client.resync_stream(2, 0, 7, Vec::new()).unwrap(), 7);
        assert!(node.is_resyncing(), "mid-round the node is dirty");
        assert_eq!(
            client
                .resync_stream(2, REPL_COORD_STREAM, 3, Vec::new())
                .unwrap(),
            3
        );
        client.resync_commit(2, 2).unwrap();
        assert!(!node.is_resyncing());
        assert_eq!(node.wal().lineage(), 2);
        assert_eq!(node.wal().vector(), vec![7, 3]);
        // Ships resume as a suffix of the installed base.
        assert_eq!(
            client
                .replicate(2, 0, 8, vec![record(ReplStream::Shard(0))])
                .unwrap(),
            8
        );
        // A mid-resync node refuses to vote even for a covering ballot.
        assert_eq!(client.resync_stream(2, 0, 9, Vec::new()).unwrap(), 9);
        let (_, granted) = client.request_vote(9, 0, vec![99, 99]).unwrap();
        assert!(!granted);
    }

    #[test]
    fn a_deposed_primary_refuses_further_ships() {
        let sim = SimStorage::new();
        let (node, _) = loopback_replica(&sim, 1);
        let repl = replicator(&[&node], 1, 1, &Obs::off());
        // The replica has seen term 5 — a newer primary exists.
        node.observe_term(5).unwrap();
        // A term-0 replicator shipping into that view is fenced with
        // StaleTerm, learns it is deposed, and fails every later ship
        // without touching the wire.
        let err = repl
            .ship(ReplStream::Shard(0), &[&record(ReplStream::Shard(0))])
            .unwrap_err();
        assert_eq!(
            err,
            ReplShipError::QuorumLost {
                acked: 0,
                quorum: 1
            }
        );
        assert!(repl.is_deposed());
        assert!(repl
            .ship(ReplStream::Shard(0), &[&record(ReplStream::Shard(0))])
            .is_err());
        assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 0);
    }

    /// Four one-record batches, one per shard stream of an S = 4
    /// ledger.
    fn four_streams() -> Vec<ShipBatch<'static>> {
        (0..4u32)
            .map(|s| {
                let tagged: &[u8] = Vec::leak(record(ReplStream::Shard(s)));
                ShipBatch {
                    stream: ReplStream::Shard(s),
                    records: Vec::leak(vec![tagged]),
                    traces: &[],
                }
            })
            .collect()
    }

    #[test]
    fn a_round_ships_every_stream_and_counts_once() {
        let (node_a, _) = loopback_replica(&SimStorage::new(), 4);
        let (node_b, _) = loopback_replica(&SimStorage::new(), 4);
        let obs = Obs::wall();
        let repl = replicator(&[&node_a, &node_b], 2, 4, &obs);
        let nodes = [node_a, node_b];

        let outcomes = repl.ship_all(&four_streams());
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
        // A single-stream `ship` is a round of one, and per-stream
        // sequences advance independently.
        repl.ship(ReplStream::Shard(2), &[&record(ReplStream::Shard(2))])
            .unwrap();
        assert_eq!(repl.vector(), [1, 1, 2, 1, 0]);
        for node in &nodes {
            assert_eq!(node.wal().vector(), repl.vector());
        }
        let metrics = obs.registry.snapshot();
        assert_eq!(metrics.counter_total("dpack_repl_ship_rounds_total"), 2);
        assert_eq!(metrics.counter_total("dpack_repl_shipped_batches_total"), 5);
        assert_eq!(metrics.counter_total("dpack_repl_acked_batches_total"), 5);
    }

    #[test]
    fn a_deposed_replicator_fails_every_batch_of_a_round() {
        let sim = SimStorage::new();
        let (node, _) = loopback_replica(&sim, 4);
        let obs = Obs::wall();
        let repl = replicator(&[&node], 1, 4, &obs);
        node.observe_term(5).unwrap();
        let lost = Err(ReplShipError::QuorumLost {
            acked: 0,
            quorum: 1,
        });
        // The first refusal deposes; no batch of the round survives it,
        // and the next round fails without touching the wire.
        assert_eq!(repl.ship_all(&four_streams()), vec![lost.clone(); 4]);
        assert!(repl.is_deposed());
        assert_eq!(repl.ship_all(&four_streams()), vec![lost; 4]);
        assert_eq!(node.wal().vector(), [0; 5]);
        let metrics = obs.registry.snapshot();
        assert_eq!(metrics.counter_total("dpack_repl_ship_rounds_total"), 1);
        assert_eq!(metrics.counter_total("dpack_repl_ship_failures_total"), 8);
    }

    #[test]
    fn tend_redials_and_rejoins_a_matching_replica_on_the_fast_path() {
        let sim = SimStorage::new();
        let node = Arc::new(ReplicaNode::open(&sim, 1, 1 << 16, Obs::off()).unwrap());
        let obs = Obs::off();
        let target = Arc::clone(&node);
        let connector: Connector = Box::new(move || {
            Ok(NetClient::new(Box::new(LoopbackTransport::with_core(
                ServiceCore::replica(Arc::clone(&target)),
            ))))
        });
        let repl =
            Replicator::with_connectors(vec![(([0, 0, 0, 0], 0).into(), connector)], 1, 1, &obs);
        assert_eq!(repl.live(), 0, "connector links start Down");
        assert!(repl.tend(0, None));
        assert_eq!(
            repl.live(),
            1,
            "a fresh replica matches the fresh primary: rejoined without a resync"
        );
        repl.ship(ReplStream::Shard(0), &[&record(ReplStream::Shard(0))])
            .unwrap();
        assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 1);
    }
}
