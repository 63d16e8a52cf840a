//! Chaos suite for the self-healing cluster: a three-node deployment
//! under a single-threaded virtual clock, with a drawn kill/rejoin
//! schedule, asserting the failover invariants end to end —
//!
//! * **at most one leader per term** — across every node's flight
//!   recorder (including nodes that later died), no term carries two
//!   [`EventKind::LeaderElected`] events;
//! * **acked grants survive any single-node loss** — after the
//!   first failover the promoted leader refuses every resubmitted
//!   acked task as a duplicate (its fold carries the full record
//!   history), and every later fold still charges each grant exactly
//!   once;
//! * **rejoined replicas converge bit-identically** — at the end,
//!   folding each replica's logs with [`BudgetService::recover`]
//!   reproduces the live leader ledger bit for bit, through kills,
//!   wipes, and snapshot resyncs;
//! * **grant-count conservation across election storms** — the number
//!   of unique `Granted` decisions tenants ever received equals the
//!   granted total in the final fold, with power-of-two demands so
//!   budget sums are exact in `f64`.
//!
//! `dpack_check::check_history` judges the first, second and fourth,
//! and `dpack_check::diff_states` the third.
//!
//! Promotion is fully automatic: the harness only steps nodes and
//! kills/revives them — every election, promotion, demotion, and
//! resync below is the cluster protocol's own doing. Runs on
//! dpack-check, so `DPACK_CHECK_SEED=<seed>` replays one schedule
//! deterministically (the CI determinism guard double-runs it).

#[path = "../../service/tests/common/mod.rs"]
mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::{grant, ledger};
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, check_history, diff_states, ints, prop_assert, prop_assert_eq};
use dpack_check::{vecs, Failed, History, Strategy};
use dpack_core::problem::{Block, Task};
use dpack_net::obs::{EventKind, ManualClock, Obs};
use dpack_net::{
    ClusterConfig, ClusterNode, ClusterPeer, ErrorCode, LoopbackTransport, NetClient, NetError,
    Outcome, ServiceCore, Transport,
};
use dpack_service::wal::{SimStorage, WalStorage};
use dpack_service::{BudgetService, DurabilityOptions, ServiceConfig, StatsRetention};

const N: usize = 3;
const SHARDS: usize = 2;
const BLOCKS: u64 = 8;
/// Virtual time advances in 5ms steps; heartbeats every 10ms, a peer
/// is down after 3 misses, elections fire 30ms + 10ms×id after the
/// first miss (a `Suspect` leader already counts as no leader).
const TICK: u64 = 5_000_000;
const HEARTBEAT: u64 = 2 * TICK;
const ELECTION_BASE: u64 = 6 * TICK;
const ELECTION_STAGGER: u64 = 2 * TICK;
/// Ticks from a leader kill to a writable successor, derived from the
/// cluster's timing: one heartbeat period until a survivor's ping
/// misses (which drops its leader belief and arms the election
/// timeout — the miss threshold only relabels the peer `Down`), the
/// election timeout of the worst-placed candidate, and two ticks for
/// promotion plus the other survivor's resync.
const FAILOVER_BOUND_TICKS: u64 =
    (HEARTBEAT + ELECTION_BASE + ELECTION_STAGGER * (N as u64 - 1)) / TICK + 2;
const CASES: u32 = 4;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![4.0, 16.0]).expect("valid grid")
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        workers: 1,
        unlock_steps: 1,
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    }
}

/// Power-of-two demands: any sum of them is exact in `f64`, so the
/// conservation assertions compare bit patterns, not approximations.
const DEMANDS: [f64; 3] = [0.125, 0.25, 0.5];

fn task(id: u64, demand_pick: u8) -> Task {
    let eps = DEMANDS[demand_pick as usize % DEMANDS.len()];
    Task::new(
        id,
        1.0,
        vec![id % BLOCKS],
        RdpCurve::constant(&grid(), eps),
        0.0,
    )
}

// ---- the simulated network -------------------------------------------

/// The switchboard: who is reachable, at which incarnation, behind
/// which request core. Killing a node refuses new dials *and* breaks
/// every connection already established to it (epoch mismatch), the
/// way a real crash resets TCP streams.
struct ChaosNet {
    cores: Mutex<Vec<Option<ServiceCore>>>,
    alive: Vec<AtomicBool>,
    epochs: Vec<AtomicU64>,
}

impl ChaosNet {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            cores: Mutex::new((0..N).map(|_| None).collect()),
            alive: (0..N).map(|_| AtomicBool::new(false)).collect(),
            epochs: (0..N).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn check(&self, target: usize, epoch: u64) -> Result<(), NetError> {
        if !self.alive[target].load(Ordering::Acquire)
            || self.epochs[target].load(Ordering::Acquire) != epoch
        {
            return Err(NetError::Closed);
        }
        Ok(())
    }

    fn dial(&self, target: usize) -> Result<(ServiceCore, u64), NetError> {
        if !self.alive[target].load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let core = self.cores.lock().expect("switchboard lock poisoned")[target]
            .clone()
            .ok_or(NetError::Closed)?;
        Ok((core, self.epochs[target].load(Ordering::Acquire)))
    }
}

/// A loopback connection pinned to one incarnation of its target: any
/// frame after the target dies or restarts fails with `Closed`.
struct ChaosTransport {
    inner: LoopbackTransport,
    net: Arc<ChaosNet>,
    target: usize,
    epoch: u64,
}

impl Transport for ChaosTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.net.check(self.target, self.epoch)?;
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.net.check(self.target, self.epoch)?;
        self.inner.recv_frame()
    }
}

fn dial(net: &Arc<ChaosNet>, target: usize) -> Result<NetClient, NetError> {
    let (core, epoch) = net.dial(target)?;
    Ok(NetClient::new(Box::new(ChaosTransport {
        inner: LoopbackTransport::with_core(core),
        net: Arc::clone(net),
        target,
        epoch,
    })))
}

// ---- the harness ------------------------------------------------------

struct Cluster {
    net: Arc<ChaosNet>,
    storages: Vec<SimStorage>,
    nodes: Vec<Option<ClusterNode>>,
    clocks: Vec<Option<Arc<ManualClock>>>,
    /// Every observability context ever created, dead nodes included —
    /// the leader-per-term audit reads all of their flight recorders.
    all_obs: Vec<Arc<Obs>>,
    now: u64,
}

impl Cluster {
    fn new() -> Self {
        let mut cluster = Self {
            net: ChaosNet::new(),
            storages: (0..N).map(|_| SimStorage::new()).collect(),
            nodes: (0..N).map(|_| None).collect(),
            clocks: (0..N).map(|_| None).collect(),
            all_obs: Vec::new(),
            now: 0,
        };
        for i in 0..N {
            cluster.boot(i);
        }
        cluster
    }

    /// Opens (or reopens) node `i` over its surviving storage and
    /// plugs it into the switchboard under a fresh incarnation.
    fn boot(&mut self, i: usize) {
        let (obs, clock) = Obs::manual(0);
        clock.set(self.now);
        let peers = (0..N)
            .filter(|j| *j != i)
            .map(|j| {
                let net = Arc::clone(&self.net);
                ClusterPeer {
                    id: j as u64,
                    addr: ([127, 0, 0, 1], 7000 + j as u16).into(),
                    connector: Arc::new(move || dial(&net, j)),
                }
            })
            .collect();
        let config = ClusterConfig {
            node_id: i as u64,
            grid: grid(),
            service: service_config(),
            durability: DurabilityOptions::default(),
            quorum: 1,
            majority: 2,
            heartbeat_nanos: HEARTBEAT,
            election_base_nanos: ELECTION_BASE,
            election_stagger_nanos: ELECTION_STAGGER,
            ship_timeout: None,
        };
        let node = ClusterNode::new(
            config,
            peers,
            self.storages[i].clone_handle(),
            Arc::clone(&obs),
        )
        .expect("node opens on surviving storage");
        self.net.epochs[i].fetch_add(1, Ordering::AcqRel);
        self.net.cores.lock().expect("switchboard lock poisoned")[i] = Some(node.core().clone());
        self.net.alive[i].store(true, Ordering::Release);
        self.all_obs.push(obs);
        self.clocks[i] = Some(clock);
        self.nodes[i] = Some(node);
    }

    /// Crashes node `i`: its process state is gone, its storage
    /// survives, and every connection to it is broken.
    fn kill(&mut self, i: usize) {
        self.net.alive[i].store(false, Ordering::Release);
        self.net.cores.lock().expect("switchboard lock poisoned")[i] = None;
        self.nodes[i] = None;
        self.clocks[i] = None;
    }

    /// One virtual 5ms step: every live node's clock advances and it
    /// ticks ([`ClusterNode::tick`]), exactly like
    /// [`dpack_net::ClusterRunner`] does on a wall-clock thread.
    fn tick(&mut self) {
        self.now += TICK;
        for i in 0..N {
            let Some(node) = self.nodes[i].as_mut() else {
                continue;
            };
            self.clocks[i]
                .as_ref()
                .expect("live nodes keep their clock")
                .set(self.now);
            node.tick(self.now);
        }
    }

    fn primaries(&self) -> Vec<usize> {
        (0..N)
            .filter(|&i| self.nodes[i].as_ref().is_some_and(ClusterNode::is_primary))
            .collect()
    }

    /// Ticks until exactly one node leads **and** its replicator has
    /// at least `live` rejoined replicas (so ships can reach quorum).
    /// Returns the leader and the ticks it took.
    fn await_leader(&mut self, live: usize) -> Result<(usize, u64), Failed> {
        for waited in 1..=400 {
            self.tick();
            let primaries = self.primaries();
            if primaries.len() > 1 {
                return Err(Failed::new(format!("two live primaries: {primaries:?}")));
            }
            if let [leader] = primaries[..] {
                let ready = self.nodes[leader]
                    .as_ref()
                    .and_then(|n| n.core().replicator())
                    .is_some_and(|r| r.live() >= live);
                if ready {
                    return Ok((leader, waited));
                }
            }
        }
        Err(Failed::new(format!(
            "no leader with {live} live replicas within 400 ticks"
        )))
    }

    /// Submits each task to the leader, drives cycles, and returns the
    /// final decisions in task order.
    fn submit(&mut self, leader: usize, tasks: &[Task]) -> Result<Vec<Outcome>, Failed> {
        let mut client =
            dial(&self.net, leader).map_err(|e| Failed::new(format!("dial leader: {e}")))?;
        let mut handles = Vec::with_capacity(tasks.len());
        for t in tasks {
            handles.push(
                client
                    .submit_nowait(7, t)
                    .map_err(|e| Failed::new(format!("submit {}: {e}", t.id)))?,
            );
        }
        // Two cycles: one to ingest + decide, one of margin.
        self.tick();
        self.tick();
        let mut outcomes = Vec::with_capacity(handles.len());
        for (t, h) in tasks.iter().zip(handles) {
            outcomes.push(
                client
                    .wait_decision(h)
                    .map_err(|e| Failed::new(format!("decision {}: {e}", t.id)))?,
            );
        }
        Ok(outcomes)
    }
}

// ---- the property -----------------------------------------------------

/// One chaos schedule: per-task demand picks, which replica to crash
/// mid-run, and how many idle ticks to pad between phases.
type Schedule = (Vec<u8>, u8, u8);

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (vecs(ints(0u8..3), 40..41), ints(0u8..2), ints(0u8..4))
}

#[test]
fn chaos_schedule_elects_once_per_term_and_conserves_every_acked_grant() {
    check_cases(
        "cluster_chaos::schedule",
        CASES,
        schedule_strategy(),
        |(demands, replica_pick, pad)| {
            let mut cluster = Cluster::new();
            let mut acked = BTreeMap::new();
            let demand_of = |id: u64| demands[id as usize % demands.len()];
            let pad_ticks = *pad as usize;

            // Phase A: cold bootstrap. Nothing leads; the protocol
            // must elect on its own (node 0's shorter stagger and the
            // all-equal ballots make it the term-1 winner, but the
            // assertion is only "exactly one").
            let (leader_a, _) = cluster.await_leader(2)?;
            let mut client = dial(&cluster.net, leader_a)
                .map_err(|e| Failed::new(format!("dial bootstrap leader: {e}")))?;
            for b in 0..BLOCKS {
                client
                    .register_block(&Block::new(b, RdpCurve::constant(&grid(), 4.0), 0.0))
                    .map_err(|e| Failed::new(format!("register block {b}: {e}")))?;
            }
            drop(client);
            let batch: Vec<Task> = (0..12).map(|id| task(id, demand_of(id))).collect();
            for (t, o) in batch.iter().zip(cluster.submit(leader_a, &batch)?) {
                prop_assert!(o.is_granted(), "bootstrap task {} refused: {o}", t.id);
                acked.insert(t.id, grant(t));
            }

            // Phase B: the leader crashes. A survivor must campaign,
            // win the next term, promote from its shipped stream, and
            // resync the other survivor — automatically.
            cluster.kill(leader_a);
            let (leader_b, waited) = cluster.await_leader(1)?;
            prop_assert!(leader_b != leader_a, "the dead node cannot lead");
            prop_assert!(
                waited <= FAILOVER_BOUND_TICKS,
                "failover took {waited} ticks, bound is {FAILOVER_BOUND_TICKS}"
            );
            // Resubmitting every acked task is refused as a duplicate:
            // the promoted fold carries the full record history, so no
            // acked grant was lost and none is double-charged.
            let resubmit: Vec<Task> = (0..12).map(|id| task(id, demand_of(id))).collect();
            for (t, o) in resubmit.iter().zip(cluster.submit(leader_b, &resubmit)?) {
                prop_assert!(
                    matches!(
                        o,
                        Outcome::Rejected {
                            code: ErrorCode::DuplicateTask,
                            ..
                        }
                    ),
                    "acked task {} must be refused as a duplicate, got {o}",
                    t.id
                );
            }
            let batch: Vec<Task> = (12..24).map(|id| task(id, demand_of(id))).collect();
            for (t, o) in batch.iter().zip(cluster.submit(leader_b, &batch)?) {
                prop_assert!(o.is_granted(), "post-failover task {} refused: {o}", t.id);
                acked.insert(t.id, grant(t));
            }

            // The crashed ex-leader rejoins: its storage carries the
            // promotion dirty-marker, so it reopens unattached and the
            // new leader resyncs it from a quiesced snapshot.
            cluster.boot(leader_a);
            cluster.await_leader(2)?;
            for _ in 0..pad_ticks {
                cluster.tick();
            }

            // Phase C: a (drawn) replica crashes. Quorum 1 keeps the
            // deployment writable through the other replica.
            let replicas: Vec<usize> = (0..N).filter(|&i| i != leader_b).collect();
            let victim = replicas[*replica_pick as usize % replicas.len()];
            cluster.kill(victim);
            cluster.await_leader(1)?;
            let batch: Vec<Task> = (24..32).map(|id| task(id, demand_of(id))).collect();
            for (t, o) in batch.iter().zip(cluster.submit(leader_b, &batch)?) {
                prop_assert!(o.is_granted(), "degraded task {} refused: {o}", t.id);
                acked.insert(t.id, grant(t));
            }
            cluster.boot(victim);
            cluster.await_leader(2)?;

            // Phase D: election storm — the second leader dies too.
            // The survivors (one of them the twice-rejoined node A)
            // elect a third leader; its fold is snapshot + suffix, and
            // fresh grants keep landing exactly once.
            cluster.kill(leader_b);
            let (leader_d, waited) = cluster.await_leader(1)?;
            prop_assert!(leader_d != leader_b, "the dead node cannot lead");
            prop_assert!(
                waited <= FAILOVER_BOUND_TICKS,
                "second failover took {waited} ticks, bound is {FAILOVER_BOUND_TICKS}"
            );
            let batch: Vec<Task> = (32..40).map(|id| task(id, demand_of(id))).collect();
            for (t, o) in batch.iter().zip(cluster.submit(leader_d, &batch)?) {
                prop_assert!(o.is_granted(), "storm task {} refused: {o}", t.id);
                acked.insert(t.id, grant(t));
            }
            cluster.boot(leader_b);
            cluster.await_leader(2)?;
            for _ in 0..pad_ticks {
                cluster.tick();
            }

            // Invariants: at most one LeaderElected event per term,
            // across every incarnation's flight recorder; every unique
            // Granted decision is charged exactly once in the live
            // leader ledger; no block over budget.
            let elections: Vec<(u64, u64)> = cluster
                .all_obs
                .iter()
                .flat_map(|obs| obs.recorder().dump())
                .filter(|event| event.kind == EventKind::LeaderElected)
                .map(|event| (event.a, event.b))
                .collect();
            prop_assert!(!elections.is_empty(), "no election was recorded");
            prop_assert_eq!(acked.len(), 40, "all 40 unique tasks were acked");
            let service = cluster.nodes[leader_d]
                .as_ref()
                .and_then(|n| n.core().service())
                .ok_or_else(|| Failed::new("final leader lost its service".to_string()))?;
            let acked = acked.into_values().collect();
            let states = service.ledger().block_states();
            drop(service);
            let live = common::views(&states);
            check_history(&History {
                elections,
                ..common::history(acked, &states)
            })?;

            // Invariant: convergence. Folding each replica's surviving
            // logs reproduces the live leader ledger bit for bit —
            // through two promotions, three crashes, a dirty-marker
            // wipe, and snapshot resyncs.
            for i in 0..N {
                cluster.kill(i);
            }
            for i in (0..N).filter(|&i| i != leader_d) {
                let fold = BudgetService::recover(
                    grid(),
                    service_config(),
                    &cluster.storages[i],
                    DurabilityOptions::default(),
                )
                .map_err(|e| Failed::new(format!("fold replica {i}: {e}")))?;
                diff_states(&format!("replica {i} vs the leader"), &ledger(&fold), &live)?;
            }
            Ok(())
        },
    );
}
