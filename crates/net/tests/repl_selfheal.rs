//! Self-healing replication, observed through its instruments: the
//! `dpack_repl_*` counters and the live-replica and lag gauges must
//! tell the exact story of a replica's life — hang, suspect, backoff,
//! redial, fast-path rejoin, state loss, full resync — under a
//! [`ManualClock`] so every backoff window is crossed deliberately.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::Block;
use dpack_net::obs::{Clock, EventKind, Obs, Value};
use dpack_net::{
    Connector, LoopbackTransport, NetClient, NetError, ReplicaNode, Replicator, ServiceCore,
    Transport,
};
use dpack_service::durability::LogRecord;
use dpack_service::wal::SimStorage;
use dpack_service::{
    BudgetService, DurabilityOptions, ReplShipError, ReplStream, ReplicationSink, ServiceConfig,
    ShipBatch,
};

/// A record of shard `s`'s stream, tagged as a primary ships it.
fn record(s: u32) -> Vec<u8> {
    let apply = LogRecord::Apply {
        shard: s,
        task: 0,
        demand: vec![],
        blocks: vec![],
    };
    apply.encode()
}

/// A loopback transport whose acks can be made to hang: with the flag
/// set, `recv_frame` surfaces [`NetError::Timeout`] — exactly what a
/// ship sees when `SO_RCVTIMEO` expires on a wedged replica — while
/// `send_frame` still delivers (the batch lands, the ack does not).
struct HangableTransport {
    inner: LoopbackTransport,
    hang: Arc<AtomicBool>,
}

impl Transport for HangableTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        if self.hang.load(Ordering::Acquire) {
            return Err(NetError::Timeout);
        }
        self.inner.recv_frame()
    }
}

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![4.0, 16.0]).expect("valid grid")
}

const BASE_BACKOFF: u64 = 50_000_000; // first redial delay, nanos

#[test]
fn the_self_healing_counters_tell_the_exact_lifecycle_story() {
    // The primary: a real (durable, unreplicated-WAL) service whose
    // ledger feeds resync snapshots, on a manual clock shared with the
    // replicator so backoff arithmetic is deterministic.
    let (obs, clock) = Obs::manual(0);
    let sim_p = SimStorage::new();
    let config = ServiceConfig {
        shards: 1,
        unlock_steps: 1,
        ..ServiceConfig::default()
    };
    let service = BudgetService::recover_with_obs(
        grid(),
        config,
        &sim_p,
        DurabilityOptions::default(),
        Arc::clone(&obs),
    )
    .expect("fresh primary");
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 4.0), 0.0))
        .expect("unique block");

    // One replica node, kept across the whole story (its own gauges
    // must track wipes and reinstalls), behind a connector that the
    // test can unplug (dial refused) or wedge (acks hang).
    let robs = Obs::wall();
    let sim_r = SimStorage::new();
    let node = Arc::new(ReplicaNode::open(&sim_r, 1, 1 << 16, Arc::clone(&robs)).expect("replica"));
    let reachable = Arc::new(AtomicBool::new(true));
    let hang = Arc::new(AtomicBool::new(false));
    let connector: Connector = {
        let node = Arc::clone(&node);
        let reachable = Arc::clone(&reachable);
        let hang = Arc::clone(&hang);
        Arc::new(move || {
            if !reachable.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            Ok(NetClient::new(Box::new(HangableTransport {
                inner: LoopbackTransport::with_core(ServiceCore::replica(Arc::clone(&node))),
                hang: Arc::clone(&hang),
            })))
        })
    };
    let links = vec![(([127, 0, 0, 1], 0).into(), connector)];
    let repl =
        Replicator::resume(links, 1, 1, &[], 0, &obs).with_ship_timeout(Duration::from_millis(100));

    let counters = |name: &str| obs.registry.snapshot().counter_total(name);
    let live_gauge = || match obs.registry.snapshot().get("dpack_repl_live_replicas", "") {
        Some(Value::Gauge(v)) => *v as u64,
        other => panic!("missing live gauge: {other:?}"),
    };
    let durable_gauge = || match robs
        .registry
        .snapshot()
        .get("dpack_repl_durable_seq", "stream=\"shard-0\"")
    {
        Some(Value::Gauge(v)) => *v as u64,
        other => panic!("missing durable gauge: {other:?}"),
    };
    // Each lag gauge reads what `peer_status` shows: the largest lag
    // among Up (state 0) links, or the stream's seq when none is up.
    let lag_agrees = || {
        let scraped = obs.registry.snapshot();
        let peers = repl.peer_status();
        for (slot, (stream, seq)) in ["shard-0", "coord"].iter().zip(repl.vector()).enumerate() {
            let up = peers.iter().filter(|p| p.state == 0);
            let want = up.map(|p| p.lag[slot]).max().unwrap_or(seq);
            let labels = format!("stream=\"{stream}\"");
            let got = scraped.get("dpack_repl_lag", &labels);
            assert_eq!(got, Some(&Value::Gauge(want as f64)), "{stream} lag");
        }
    };

    // Chapter 1: connector links start Down; the first tend dials and
    // rejoins on the fast path (a fresh replica matches a fresh
    // primary — lineage 0, all-zero vector — so no resync).
    assert_eq!((repl.live(), live_gauge()), (0, 0));
    lag_agrees();
    assert!(repl.tend(clock.now_nanos(), Some(&service)));
    assert_eq!((repl.live(), live_gauge()), (1, 1));
    lag_agrees();
    assert_eq!(counters("dpack_repl_redials_total"), 1);
    assert_eq!(counters("dpack_repl_resyncs_total"), 0);

    // Chapter 2: an ordinary acked ship.
    repl.ship(ReplStream::Shard(0), &[&record(0)])
        .expect("quorum");
    assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 1);
    assert_eq!(durable_gauge(), 1);
    lag_agrees();

    // Chapter 3: the replica wedges. The batch is delivered but its
    // ack never comes: the ship times out, counts it, and drops the
    // replica to Suspect — the commit path never blocks on a hung peer.
    hang.store(true, Ordering::Release);
    repl.ship(ReplStream::Shard(0), &[&record(0)])
        .expect_err("no ack");
    assert_eq!((repl.live(), live_gauge()), (0, 0));
    lag_agrees();
    assert_eq!(counters("dpack_repl_ship_timeout_total"), 1);
    assert_eq!(counters("dpack_repl_ship_failures_total"), 1);

    // Chapter 4: the replica is unreachable. Each due redial fails and
    // doubles the backoff; before the window expires tend must not
    // even attempt a dial.
    reachable.store(false, Ordering::Release);
    hang.store(false, Ordering::Release);
    assert!(repl.tend(clock.now_nanos(), Some(&service)));
    assert_eq!(
        counters("dpack_repl_redials_total"),
        1,
        "inside the backoff window nothing is dialed"
    );
    for due in [BASE_BACKOFF, 2 * BASE_BACKOFF, 4 * BASE_BACKOFF] {
        clock.advance(due);
        assert!(repl.tend(clock.now_nanos(), Some(&service)));
    }
    assert_eq!(
        counters("dpack_repl_redials_total"),
        1,
        "refused dials are probe failures, not redials"
    );
    assert_eq!(repl.live(), 0);
    lag_agrees();

    // Chapter 5: the replica is back, state intact. The timed-out
    // batch *did* land (send succeeded), so its durable vector matches
    // the primary's exactly — fast-path rejoin, no resync.
    reachable.store(true, Ordering::Release);
    clock.advance(8 * BASE_BACKOFF);
    assert!(repl.tend(clock.now_nanos(), Some(&service)));
    assert_eq!((repl.live(), live_gauge()), (1, 1));
    assert_eq!(counters("dpack_repl_redials_total"), 2);
    assert_eq!(counters("dpack_repl_resyncs_total"), 0);
    assert_eq!(node.wal().vector(), repl.vector());
    lag_agrees();

    // Chapter 6: the replica wedges again and then loses its state
    // (an operator wipe / disk replacement — the logs restart empty).
    // Now the probe sees a lagging vector and must run the full
    // catch-up: quiesced snapshot install at the primary's vector,
    // then a committed lineage.
    hang.store(true, Ordering::Release);
    repl.ship(ReplStream::Shard(0), &[&record(0)])
        .expect_err("no ack");
    assert_eq!(counters("dpack_repl_ship_timeout_total"), 2);
    assert_eq!(counters("dpack_repl_ship_failures_total"), 2);
    node.reset_unattached().expect("wipe");
    assert_eq!(durable_gauge(), 0, "the wipe zeroes the replica's gauges");
    lag_agrees();
    hang.store(false, Ordering::Release);
    clock.advance(BASE_BACKOFF);
    assert!(repl.tend(clock.now_nanos(), Some(&service)));
    assert_eq!((repl.live(), live_gauge()), (1, 1));
    assert_eq!(counters("dpack_repl_redials_total"), 3);
    assert_eq!(counters("dpack_repl_resyncs_total"), 1);
    assert_eq!(
        node.wal().vector(),
        repl.vector(),
        "the resync re-bases the replica at the primary's seq vector"
    );
    assert!(!node.is_resyncing(), "the round was committed");
    lag_agrees();
    let resyncs = obs
        .recorder()
        .dump()
        .iter()
        .filter(|e| e.kind == EventKind::ReplicaResynced)
        .count();
    assert_eq!(resyncs, 1, "one ReplicaResynced flight-recorder event");

    // Chapter 7: ships resume as an ordinary suffix of the installed
    // base, and the final ledger of counters is exact.
    repl.ship(ReplStream::Shard(0), &[&record(0)])
        .expect("quorum");
    assert_eq!(node.wal().durable_seq(ReplStream::Shard(0)), 4);
    assert_eq!(durable_gauge(), 4);
    lag_agrees();
    let metrics = obs.registry.snapshot();
    for (name, want) in [
        ("dpack_repl_shipped_batches_total", 4),
        ("dpack_repl_acked_batches_total", 2),
        ("dpack_repl_ship_failures_total", 2),
        ("dpack_repl_ship_timeout_total", 2),
        ("dpack_repl_redials_total", 3),
        ("dpack_repl_resyncs_total", 1),
    ] {
        assert_eq!(metrics.counter_total(name), want, "{name}");
    }
    assert_eq!(live_gauge(), 1);
}

/// One round of four one-record batches, one per shard stream.
fn four_streams() -> Vec<ShipBatch<'static>> {
    (0..4u32)
        .map(|s| {
            let tagged: &[u8] = Vec::leak(record(s));
            ShipBatch {
                stream: ReplStream::Shard(s),
                records: Vec::leak(vec![tagged]),
                traces: &[],
            }
        })
        .collect()
}

#[test]
fn a_hung_replica_costs_a_round_one_timeout_not_one_per_frame() {
    let (obs, clock) = Obs::manual(0);
    let node = Arc::new(ReplicaNode::open(&SimStorage::new(), 4, 1 << 16, Obs::wall()).unwrap());
    let hang = Arc::new(AtomicBool::new(false));
    let connector: Connector = {
        let (node, hang) = (Arc::clone(&node), Arc::clone(&hang));
        Arc::new(move || {
            Ok(NetClient::new(Box::new(HangableTransport {
                inner: LoopbackTransport::with_core(ServiceCore::replica(Arc::clone(&node))),
                hang: Arc::clone(&hang),
            })))
        })
    };
    let links = vec![(([127, 0, 0, 1], 0).into(), connector)];
    let repl =
        Replicator::resume(links, 1, 4, &[], 0, &obs).with_ship_timeout(Duration::from_millis(100));
    assert!(repl.tend(clock.now_nanos(), None));
    assert_eq!(repl.live(), 1);

    // All four frames are delivered, no ack comes back: the first wait
    // times out, the link drops to Suspect, and the other three acks
    // are not waited for — the round costs one timeout, not four.
    hang.store(true, Ordering::Release);
    let outcomes = repl.ship_all(&four_streams());
    assert!(outcomes.iter().all(Result::is_err), "{outcomes:?}");
    assert_eq!(repl.live(), 0);
    let metrics = obs.registry.snapshot();
    assert_eq!(metrics.counter_total("dpack_repl_ship_timeout_total"), 1);
    assert_eq!(metrics.counter_total("dpack_repl_ship_failures_total"), 4);
    assert_eq!(node.wal().vector(), repl.vector(), "the frames did land");
}

/// A loopback transport to a replica whose log starts failing when the
/// `break_at`-th frame of the connection arrives, and that counts the
/// acks waited for.
struct BreaksMidRound {
    inner: LoopbackTransport,
    sim: SimStorage,
    sent: usize,
    break_at: usize,
    waits: Arc<AtomicUsize>,
}

impl Transport for BreaksMidRound {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.sent += 1;
        if self.sent == self.break_at {
            self.sim.set_append_errors(true);
        }
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.inner.recv_frame()
    }
}

#[test]
fn a_replica_that_dies_mid_round_is_suspected_once_and_resyncs_to_the_primary_vector() {
    const SHARDS: usize = 4;
    let (obs, clock) = Obs::manual(0);
    let config = ServiceConfig {
        shards: SHARDS,
        unlock_steps: 1,
        ..ServiceConfig::default()
    };
    let service = BudgetService::recover_with_obs(
        grid(),
        config,
        &SimStorage::new(),
        DurabilityOptions::default(),
        Arc::clone(&obs),
    )
    .expect("fresh primary");

    // Two replicas at quorum 1: `steady` acks everything, `flaky`
    // breaks on the third frame of its first connection.
    let open = |sim: &SimStorage| {
        Arc::new(ReplicaNode::open(sim, SHARDS, 1 << 16, Obs::wall()).expect("replica"))
    };
    let (sim_steady, sim_flaky) = (SimStorage::new(), SimStorage::new());
    let (steady, flaky) = (open(&sim_steady), open(&sim_flaky));
    let waits = Arc::new(AtomicUsize::new(0));
    let steady_connector: Connector = {
        let node = Arc::clone(&steady);
        Arc::new(move || {
            Ok(NetClient::new(Box::new(LoopbackTransport::with_core(
                ServiceCore::replica(Arc::clone(&node)),
            ))))
        })
    };
    let flaky_connector: Connector = {
        let (node, sim, waits) = (Arc::clone(&flaky), sim_flaky.clone(), Arc::clone(&waits));
        let dials = AtomicUsize::new(0);
        Arc::new(move || {
            // Frame 1 is the rejoin heartbeat; frames 2.. are the round.
            let first = dials.fetch_add(1, Ordering::Relaxed) == 0;
            Ok(NetClient::new(Box::new(BreaksMidRound {
                inner: LoopbackTransport::with_core(ServiceCore::replica(Arc::clone(&node))),
                sim: sim.clone(),
                sent: 0,
                break_at: if first { 1 + 3 } else { usize::MAX },
                waits: Arc::clone(&waits),
            })))
        })
    };
    let addr = |port: u16| ([127, 0, 0, 1], port).into();
    let links = vec![(addr(1), steady_connector), (addr(2), flaky_connector)];
    let repl = Replicator::resume(links, 1, SHARDS, &[], 0, &obs)
        .with_ship_timeout(Duration::from_millis(100));
    assert!(repl.tend(clock.now_nanos(), Some(&service)));
    assert_eq!(repl.live(), 2);
    let probes = waits.swap(0, Ordering::Relaxed);
    assert_eq!(probes, 1, "the rejoin heartbeat");

    // One round of four streams. The flaky replica applies shards 0
    // and 1, refuses shard 2 — and is dropped right there: its fourth
    // ack is never waited for, and it is suspected exactly once.
    let outcomes: Vec<Result<(), ReplShipError>> = repl.ship_all(&four_streams());
    assert!(
        outcomes.iter().all(Result::is_ok),
        "quorum 1 holds on the steady replica: {outcomes:?}"
    );
    assert_eq!(
        waits.load(Ordering::Relaxed),
        3,
        "acks 1–3 waited, ack 4 not"
    );
    assert_eq!(repl.live(), 1);
    assert_eq!(steady.wal().vector(), repl.vector());
    assert_eq!(flaky.wal().vector(), [1, 1, 0, 0, 0]);
    let suspected = repl.peer_status();
    assert_eq!((suspected[0].state, suspected[1].state), (0, 1));
    assert_eq!(suspected[1].lag, [0, 0, 1, 1, 0]);

    // Its disk heals; the next due tend redials, sees the lagging
    // vector and resyncs it to the primary's.
    sim_flaky.set_append_errors(false);
    clock.advance(BASE_BACKOFF);
    assert!(repl.tend(clock.now_nanos(), Some(&service)));
    assert_eq!(repl.live(), 2);
    assert_eq!(flaky.wal().vector(), repl.vector());
    assert_eq!(repl.vector(), [1, 1, 1, 1, 0]);
    let metrics = obs.registry.snapshot();
    for (name, want) in [
        ("dpack_repl_ship_rounds_total", 1),
        ("dpack_repl_shipped_batches_total", 4),
        ("dpack_repl_acked_batches_total", 4),
        ("dpack_repl_ship_failures_total", 0),
        ("dpack_repl_resyncs_total", 1),
    ] {
        assert_eq!(metrics.counter_total(name), want, "{name}");
    }
}
