//! Self-healing cluster membership: failure detection, leader
//! election, and automatic promotion/demotion around the replicated
//! service.
//!
//! A [`ClusterNode`] wraps one deployment member. It owns the member's
//! durable storage, its [`ServiceCore`] (whose role — primary service
//! or replica — swaps in place, visible to every connection), and a
//! failure-detector link to each peer. Everything it does happens
//! inside an explicit [`ClusterNode::step`] call with a caller-supplied
//! clock reading, which is what makes the whole protocol — heartbeats,
//! miss counting, election timeouts, promotion — drivable from a
//! single-threaded chaos test under virtual time. Production wraps the
//! same node in a [`ClusterRunner`] thread that steps it on a
//! wall-clock interval and drives the scheduling cycles whenever the
//! node holds the primary role.
//!
//! The protocol, end to end:
//!
//! * **Failure detection** — every [`ClusterConfig::heartbeat_nanos`] a
//!   follower pings each peer with its term and durable seq vector.
//!   A reply resets the peer to `Up`; a miss increments a counter and
//!   moves the peer `Up → Suspect`, and [`SUSPECT_FAILS_TO_DOWN`]
//!   misses move it to `Down` (each transition is a
//!   [`EventKind::PeerStateChanged`] event).
//! * **Leader tracking** — pongs carry `is_primary` and the peer's
//!   term; the follower believes the highest-term peer that answers as
//!   primary, and adopts any newer term it sees.
//! * **Election** — with no live leader, a follower arms an election
//!   timeout of `election_base_nanos + node_id × stagger_nanos` (the
//!   stagger makes the best-placed low-id node campaign first). When
//!   it fires, the node campaigns: a fresh term (self-vote included)
//!   and its durable seq vector as the ballot, sent to every peer.
//!   Voters grant at most one vote per term and only to candidates
//!   whose ballot covers their own — the deterministic
//!   highest-durable-wins rule that makes the winner's fold lossless.
//!   A majority promotes; anything less re-arms the timeout.
//! * **Promotion** — the winner durably dirty-marks its logs (a later
//!   reopen must not mistake them for a faithful replica stream),
//!   recovers a [`BudgetService`] from them, and resumes replication
//!   at its folded seq vector under the won term
//!   ([`Replicator::resume`]); the term fences any still-running old
//!   primary out of the stream ([`crate::ErrorCode::StaleTerm`]).
//!   Replicas rejoin through [`Replicator::tend`]'s redial + resync
//!   path before they count toward the write quorum again.
//! * **Demotion** — a primary whose replicator learns of a newer term
//!   reopens its storage as a replica, which wipes its logs back to
//!   unattached (the promotion's dirty mark: its unacked suffix may not
//!   have survived the election); the new primary resyncs it like any
//!   rejoining node.

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dp_accounting::AlphaGrid;
use dpack_obs::{Counter, EventKind, Gauge, Obs};
use dpack_service::wal::{WalError, WalStorage};
use dpack_service::{BudgetService, DurabilityOptions, ReplicationSink, ServiceConfig};

use crate::client::{Connector, NetClient};
use crate::repl::{ReplicaNode, Replicator};
use crate::server::ServiceCore;
use crate::wire::{
    WireClusterStatus, WirePeer, PEER_DOWN, PEER_SUSPECT, PEER_UP, SUSPECT_FAILS_TO_DOWN,
};

/// One peer of a [`ClusterNode`]: its deployment id, advertised
/// address, and how to open a connection to it.
#[derive(Clone)]
pub struct ClusterPeer {
    /// The peer's deployment id (its election tiebreak).
    pub id: u64,
    /// The peer's advertised address (informational; dialing goes
    /// through the connector).
    pub addr: SocketAddr,
    /// Connection factory for this peer, shared by the failure
    /// detector and, once this node is primary, its replication link.
    pub connector: Connector,
}

impl fmt::Debug for ClusterPeer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterPeer")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Deployment parameters of one [`ClusterNode`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's deployment id — unique, and the election tiebreak
    /// (lower wins exact ballot ties).
    pub node_id: u64,
    /// The service the winner recovers: alpha grid…
    pub grid: AlphaGrid,
    /// …scheduler/ledger parameters (`service.shards` is also the
    /// replica stream layout)…
    pub service: ServiceConfig,
    /// …and WAL durability options.
    pub durability: DurabilityOptions,
    /// Replica durability acks a ship needs. The primary's own append
    /// is implicit, so `1` in a 3-node deployment is a 2-of-3 write
    /// majority.
    pub quorum: usize,
    /// Votes (including the candidate's own) needed to win — a
    /// majority of the full deployment, e.g. `2` for 3 nodes.
    pub majority: usize,
    /// Failure-detector ping interval.
    pub heartbeat_nanos: u64,
    /// Base election timeout after leader loss.
    pub election_base_nanos: u64,
    /// Per-id election stagger: node `i` waits `base + i × stagger`,
    /// so candidates don't collide and low ids (ballot winners on
    /// ties) go first.
    pub election_stagger_nanos: u64,
    /// Per-replica ship-ack deadline for the promoted replicator
    /// (`None` waits indefinitely on a hung replica).
    pub ship_timeout: Option<Duration>,
}

struct PeerLink {
    id: u64,
    addr: SocketAddr,
    connector: Connector,
    client: Option<NetClient>,
    /// [`PEER_UP`], [`PEER_SUSPECT`] or [`PEER_DOWN`], also what
    /// [`EventKind::PeerStateChanged`] events carry in `b`.
    status: u8,
    misses: u32,
    /// The peer's term and role as of its last pong.
    term: u64,
    is_primary: bool,
}

/// One deployment member with a swappable role, stepped explicitly.
/// Bind its [`ClusterNode::core`] to a listener
/// ([`crate::NetServer::bind_core`]) or to loopback transports, then
/// drive [`ClusterNode::step`] — via [`ClusterRunner`] in production,
/// directly under virtual time in tests.
pub struct ClusterNode {
    config: ClusterConfig,
    core: ServiceCore,
    storage: Box<dyn WalStorage>,
    obs: Arc<Obs>,
    peers: Vec<PeerLink>,
    /// The peer id this node currently believes leads (never its own).
    leader: Option<u64>,
    /// When to campaign, armed while no live leader is known.
    election_due: Option<u64>,
    next_heartbeat_nanos: u64,
    /// Highest term seen at the end of the last step — a jump means
    /// someone else is campaigning, so back off our own timeout.
    last_seen_term: u64,
    /// Scheduling cycles [`ClusterNode::tick`] has run; the next runs
    /// at virtual time `(vstep + 1) × scheduling_period`.
    vstep: u64,
    term_gauge: Gauge,
    is_primary_gauge: Gauge,
    elections_total: Counter,
    elections_won_total: Counter,
    heartbeat_misses_total: Counter,
}

impl fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterNode")
            .field("node_id", &self.config.node_id)
            .field("is_primary", &self.core.is_primary())
            .field("leader", &self.leader)
            .finish_non_exhaustive()
    }
}

impl ClusterNode {
    /// Opens the member over its durable storage, starting as a
    /// replica. If the storage carries the dirty mark (the node died
    /// mid-resync, or led) the logs are wiped back to unattached — the
    /// node rejoins through resync.
    ///
    /// # Errors
    ///
    /// Storage/log-recovery errors.
    pub fn new(
        config: ClusterConfig,
        peers: Vec<ClusterPeer>,
        storage: Box<dyn WalStorage>,
        obs: Arc<Obs>,
    ) -> Result<Self, WalError> {
        // Spans recorded anywhere on this member carry its id, so
        // multi-node span dumps merge into one causal tree.
        obs.spans().set_node(config.node_id);
        let node = ReplicaNode::open(
            storage.as_ref(),
            config.service.shards,
            config.durability.segment_bytes,
            Arc::clone(&obs),
        )?
        .with_node_id(config.node_id);
        let core = ServiceCore::replica(Arc::new(node));
        let peers = peers
            .into_iter()
            .map(|p| PeerLink {
                id: p.id,
                addr: p.addr,
                connector: p.connector,
                client: None,
                status: PEER_DOWN,
                misses: 0,
                term: 0,
                is_primary: false,
            })
            .collect();
        Ok(Self {
            term_gauge: obs.registry.gauge("dpack_cluster_term", ""),
            is_primary_gauge: obs.registry.gauge("dpack_cluster_is_primary", ""),
            elections_total: obs.registry.counter("dpack_cluster_elections_total", ""),
            elections_won_total: obs
                .registry
                .counter("dpack_cluster_elections_won_total", ""),
            heartbeat_misses_total: obs
                .registry
                .counter("dpack_cluster_heartbeat_misses_total", ""),
            config,
            core,
            storage,
            obs,
            peers,
            leader: None,
            election_due: None,
            next_heartbeat_nanos: 0,
            last_seen_term: 0,
            vstep: 0,
        })
    }

    /// The request processor whose role this node manages. Clone it
    /// into transports/listeners — clones share the role, so a
    /// promotion here is visible to every connection.
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// This node's observability context.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// This node's deployment id.
    pub fn node_id(&self) -> u64 {
        self.config.node_id
    }

    /// Whether this node currently holds the primary role.
    pub fn is_primary(&self) -> bool {
        self.core.is_primary()
    }

    /// The peer id this node currently believes leads (`None` while
    /// unknown, or while this node leads itself).
    pub fn leader(&self) -> Option<u64> {
        self.leader
    }

    /// The highest election term this node has seen (its own term
    /// while primary).
    pub fn current_term(&self) -> u64 {
        if let Some(repl) = self.core.replicator() {
            return repl.term();
        }
        self.core
            .replica_node()
            .map_or(0, |node| node.current_term())
    }

    /// One protocol step at clock reading `now_nanos`: heartbeats,
    /// miss counting, election timeouts, campaign/promote as a
    /// follower; replica tending and deposition checks as a primary.
    pub fn step(&mut self, now_nanos: u64) {
        if self.core.is_primary() {
            self.step_primary(now_nanos);
        } else {
            self.step_replica(now_nanos);
        }
        self.term_gauge.set_u64(self.current_term());
        self.is_primary_gauge
            .set_u64(u64::from(self.core.is_primary()));
        self.publish_view();
    }

    /// One driver tick at clock reading `now_nanos`: a
    /// [`ClusterNode::step`], then — while this node holds the primary
    /// role — one scheduling cycle at its next virtual step, one
    /// `scheduling_period` after the last.
    pub fn tick(&mut self, now_nanos: u64) {
        self.step(now_nanos);
        if let Some(service) = self.core.service() {
            self.vstep += 1;
            #[allow(clippy::cast_precision_loss)]
            service.run_cycle(self.vstep as f64 * self.config.service.scheduling_period);
        }
    }

    /// Pushes what only the cluster driver knows — node ids, peer
    /// addresses and failure-detector states, the believed leader —
    /// into the core, where [`crate::Request::ClusterStatus`] overlays
    /// the live role-owned fields (term, seq vector, per-stream lag)
    /// at answer time.
    fn publish_view(&self) {
        let is_primary = self.core.is_primary();
        let peers = self
            .peers
            .iter()
            .map(|p| WirePeer {
                id: p.id,
                addr: p.addr.to_string(),
                state: p.status,
                term: p.term,
                is_primary: p.is_primary,
                lag: Vec::new(),
                backoff_nanos: 0,
                resyncs: 0,
            })
            .collect();
        self.core.set_cluster_view(WireClusterStatus {
            node_id: self.config.node_id,
            is_primary,
            term: self.current_term(),
            leader: if is_primary {
                self.config.node_id
            } else {
                self.leader.unwrap_or(0)
            },
            vector: Vec::new(),
            peers,
        });
    }

    fn step_primary(&mut self, now_nanos: u64) {
        let Some(repl) = self.core.replicator() else {
            return;
        };
        let service = self
            .core
            .service()
            .expect("a primary role always holds a service");
        if !repl.tend(now_nanos, Some(service.as_ref())) {
            // The wire proved a newer term: step down.
            self.demote(repl.term());
        }
    }

    /// Swaps back to a replica role after deposition. The old logs may
    /// hold an unacked suffix the new primary never saw; the dirty mark
    /// the promotion set makes the reopen wipe them to unattached, and
    /// the new primary resyncs this node like any rejoiner.
    fn demote(&mut self, deposed_term: u64) {
        let node = match ReplicaNode::open(
            self.storage.as_ref(),
            self.config.service.shards,
            self.config.durability.segment_bytes,
            Arc::clone(&self.obs),
        ) {
            Ok(n) => n.with_node_id(self.config.node_id),
            // Leave the deposed primary in place: it refuses all work
            // (deposed replicator, stale term) and the next step
            // retries the demotion.
            Err(_) => return,
        };
        // Best effort: the deposed term's vote was spent durably when
        // this node campaigned for it.
        let _ = node.observe_term(deposed_term);
        self.core.demote(Arc::new(node));
        self.leader = None;
        self.election_due = None;
        self.last_seen_term = deposed_term;
    }

    fn step_replica(&mut self, now_nanos: u64) {
        let Some(node) = self.core.replica_node() else {
            return;
        };
        if now_nanos >= self.next_heartbeat_nanos {
            self.next_heartbeat_nanos = now_nanos.saturating_add(self.config.heartbeat_nanos);
            self.heartbeat_round(&node);
        }
        // Believe the highest-term peer that answers as primary.
        self.leader = self
            .peers
            .iter()
            .filter(|p| p.status == PEER_UP && p.is_primary)
            .max_by_key(|p| p.term)
            .map(|p| p.id);
        if self.leader.is_some() {
            self.election_due = None;
            return;
        }
        // A term jump without a leader means another candidate is
        // already campaigning — give it a full timeout before we do.
        let term = node.current_term();
        if term > self.last_seen_term {
            self.last_seen_term = term;
            if self.election_due.is_some() {
                self.election_due = Some(now_nanos.saturating_add(self.election_delay()));
            }
        }
        match self.election_due {
            None => {
                self.election_due = Some(now_nanos.saturating_add(self.election_delay()));
            }
            Some(due) if now_nanos >= due => self.campaign(&node, now_nanos),
            Some(_) => {}
        }
    }

    fn election_delay(&self) -> u64 {
        self.config
            .election_base_nanos
            .saturating_add(self.config.node_id * self.config.election_stagger_nanos)
    }

    /// One failure-detector round: ping every peer with this node's
    /// term and durable vector, tracking replies and misses.
    fn heartbeat_round(&mut self, node: &Arc<ReplicaNode>) {
        let term = node.current_term();
        let vector = node.wal().vector();
        for peer in &mut self.peers {
            if peer.client.is_none() {
                peer.client = (peer.connector)().ok();
            }
            let reply = peer.client.as_mut().map(|c| c.ping(term, vector.clone()));
            match reply {
                Some(Ok(pong)) => {
                    if peer.status != PEER_UP {
                        self.obs.recorder().record(
                            EventKind::PeerStateChanged,
                            peer.id,
                            u64::from(PEER_UP),
                        );
                    }
                    peer.status = PEER_UP;
                    peer.misses = 0;
                    peer.term = pong.term;
                    peer.is_primary = pong.is_primary;
                    let _ = node.observe_term(pong.term);
                }
                _ => {
                    peer.client = None;
                    peer.misses = peer.misses.saturating_add(1);
                    peer.is_primary = false;
                    self.heartbeat_misses_total.inc();
                    let next = if peer.misses >= SUSPECT_FAILS_TO_DOWN {
                        PEER_DOWN
                    } else {
                        PEER_SUSPECT
                    };
                    if next != peer.status {
                        self.obs.recorder().record(
                            EventKind::PeerStateChanged,
                            peer.id,
                            u64::from(next),
                        );
                        peer.status = next;
                    }
                }
            }
        }
    }

    /// Campaigns for the leadership: fresh term, own durable vector as
    /// the ballot, one vote request per peer. A majority (self-vote
    /// included) promotes this node; anything less re-arms the
    /// election timeout.
    fn campaign(&mut self, node: &Arc<ReplicaNode>, now_nanos: u64) {
        self.election_due = Some(now_nanos.saturating_add(self.election_delay()));
        if node.is_resyncing() {
            // The primary died mid-resync: these logs are not a
            // faithful prefix of anything. Wipe to unattached (zero
            // ballot) rather than stand for election on them.
            if node.reset_unattached().is_err() {
                return;
            }
        }
        let Ok((term, ballot)) = node.prepare_campaign() else {
            return; // the standing log failed: retry at the re-armed timeout
        };
        self.last_seen_term = term;
        self.elections_total.inc();
        let mut votes = 1usize; // the self-vote consumed by prepare_campaign
        for peer in &mut self.peers {
            if peer.client.is_none() {
                peer.client = (peer.connector)().ok();
            }
            let Some(client) = peer.client.as_mut() else {
                continue;
            };
            match client.request_vote(term, self.config.node_id, ballot.clone()) {
                Ok((voter_term, granted)) => {
                    if granted {
                        votes += 1;
                    } else {
                        let _ = node.observe_term(voter_term);
                    }
                }
                Err(_) => peer.client = None,
            }
        }
        if votes >= self.config.majority {
            self.promote(term, node);
        }
    }

    /// Promotes this node: dirty-mark the logs, recover the service
    /// from them, and resume replication at the folded seq vector
    /// under the won term. Replicas (all `Down` at first) rejoin
    /// through [`Replicator::tend`] before counting toward quorum — a
    /// freshly promoted primary therefore cannot ack a grant until at
    /// least one replica has resynced, which is exactly the write
    /// majority the acked-durability invariant needs.
    fn promote(&mut self, term: u64, node: &Arc<ReplicaNode>) {
        // The mark makes a later reopen of this storage wipe to
        // unattached: once we append as a primary, these logs stop
        // being a faithful replica stream.
        if node.wal().mark_dirty().is_err() {
            return;
        }
        let seqs = node.wal().vector();
        let mut service = match BudgetService::recover_with_obs(
            self.config.grid.clone(),
            self.config.service,
            self.storage.as_ref(),
            self.config.durability,
            Arc::clone(&self.obs),
        ) {
            Ok(s) => s,
            Err(_) => return, // retry at the re-armed election timeout
        };
        let connectors = self
            .peers
            .iter()
            .map(|p| (p.addr, Arc::clone(&p.connector)))
            .collect();
        let mut repl = Replicator::resume(
            connectors,
            self.config.quorum,
            self.config.service.shards,
            &seqs,
            term,
            &self.obs,
        );
        if let Some(timeout) = self.config.ship_timeout {
            repl = repl.with_ship_timeout(timeout);
        }
        let repl = Arc::new(repl);
        service.replicate_to_resumed(Arc::clone(&repl) as Arc<dyn ReplicationSink>);
        self.core.promote(Arc::new(service), Some(repl));
        self.elections_won_total.inc();
        self.obs
            .recorder()
            .record(EventKind::LeaderElected, term, self.config.node_id);
        self.leader = None;
        self.election_due = None;
    }
}

/// Production driver: a thread calling [`ClusterNode::tick`] on a
/// wall-clock interval.
pub struct ClusterRunner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<ClusterNode>>,
}

impl ClusterRunner {
    /// Spawns the driver thread.
    pub fn spawn(mut node: ClusterNode, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                node.tick(node.obs.now_nanos());
                std::thread::sleep(interval);
            }
            node
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the driver and returns the node.
    ///
    /// # Panics
    ///
    /// Panics if the driver thread panicked.
    pub fn stop(mut self) -> ClusterNode {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .expect("driver runs until stop")
            .join()
            .expect("cluster driver thread panicked")
    }
}

impl Drop for ClusterRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
