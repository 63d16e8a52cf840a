//! Replicated service over real `127.0.0.1` sockets: the primary
//! ships its write-ahead stream to two replicas and acks grants only
//! at quorum; the primary then dies, one replica is promoted, and the
//! tenant's client redials the candidate list — losing no acked grant
//! and double-charging no resubmission.

#[path = "../../service/tests/common/mod.rs"]
mod common;

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use common::{grant, ledger};
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_history, diff_states};
use dpack_core::problem::{Block, Task};
use dpack_net::{
    ErrorCode, NetClient, NetError, NetServer, Outcome, ReplicaNode, Replicator, ServiceCore,
};
use dpack_service::wal::SimStorage;
use dpack_service::{
    BudgetService, DurabilityOptions, ServiceConfig, ServiceHandle, StatsRetention,
};

const SHARDS: usize = 2;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 4.0, 16.0]).expect("valid grid")
}

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        workers: 2,
        unlock_steps: 1,
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    }
}

fn task(id: u64, blocks: Vec<u64>, eps: f64) -> Task {
    Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0)
}

/// The replication acceptance scenario, end to end over real sockets:
///
/// 1. A primary with `quorum = 2` over two socket replicas grants 20
///    tasks; every grant is on both replicas before its tenant hears
///    about it.
/// 2. The primary dies. Replica A is promoted by recovering a fresh
///    service from A's shipped write-ahead stream — bit-identical to
///    the dead primary's live ledger.
/// 3. The tenant's client breaks on the dead primary and redials
///    the failover candidate list (which starts with a *replica*,
///    exercising the `NotPrimary` probe skip). Resubmitting every acked task is refused as a duplicate
///    — no double charge — and 20 fresh tasks land on the promoted
///    service. Exact conservation, client side: 40 unique tasks, 40
///    final decisions.
#[test]
fn promotion_after_primary_death_loses_no_acked_grant() {
    // Two socket replicas on their own storages.
    let sim_a = SimStorage::new();
    let sim_b = SimStorage::new();
    let seg = DurabilityOptions::default().segment_bytes;
    let node_a = Arc::new(
        ReplicaNode::open(&sim_a, SHARDS, seg, dpack_obs::Obs::wall()).expect("replica a"),
    );
    let node_b = Arc::new(
        ReplicaNode::open(&sim_b, SHARDS, seg, dpack_obs::Obs::wall()).expect("replica b"),
    );
    let server_a = NetServer::bind_replica(Arc::clone(&node_a), "127.0.0.1:0").expect("bind a");
    let server_b = NetServer::bind_replica(Arc::clone(&node_b), "127.0.0.1:0").expect("bind b");
    let (addr_a, addr_b) = (server_a.local_addr(), server_b.local_addr());

    // The primary: durable, fresh, shipping every append to both
    // replicas and acking at quorum 2 — a grant is only acked once it
    // is on *every* live replica, so promoting either loses nothing.
    let sim_p = SimStorage::new();
    let mut primary =
        BudgetService::recover(grid(), config(), &sim_p, DurabilityOptions::default())
            .expect("fresh primary");
    let replicator = Replicator::connect(&[addr_a, addr_b], 2, SHARDS, primary.obs().as_ref())
        .expect("replicas reachable");
    primary.replicate_to(Arc::new(replicator));
    let primary = Arc::new(primary);
    for j in 0..8u64 {
        primary
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 4.0), 0.0))
            .expect("unique block");
    }
    let primary_server = NetServer::bind(Arc::clone(&primary), "127.0.0.1:0").expect("bind");
    let primary_addr = primary_server.local_addr();
    let cycles = ServiceHandle::spawn(Arc::clone(&primary), Duration::from_millis(1));

    // Reserve the promotion address up front so it can be a failover
    // candidate before the promoted server exists. The reserving
    // listener never accepts, so no TIME_WAIT blocks the later bind.
    let promoted_addr = TcpListener::bind("127.0.0.1:0")
        .expect("reserve")
        .local_addr()
        .expect("addr");

    // The candidate list leads with replica A: probes must skip past
    // its `NotPrimary` refusal to find the real primary.
    let candidates = [addr_a, primary_addr, promoted_addr];
    let mut client = NetClient::connect_primary(&candidates, None).expect("the primary");

    // Phase 1: 20 grants through the replicated primary.
    for id in 0..20u64 {
        let outcome = client
            .submit(0, &task(id, vec![id % 8], 0.05))
            .expect("submit");
        assert!(outcome.is_granted(), "fits: {outcome}");
    }

    // Both replicas saw real traffic, visible in their own metrics;
    // and a replica refuses tenant traffic outright.
    for addr in [addr_a, addr_b] {
        let mut probe = NetClient::connect(addr).expect("connect replica");
        let metrics = probe.metrics().expect("scrape");
        assert!(
            metrics.counter_total("dpack_repl_applied_batches_total") > 0,
            "replica applied nothing"
        );
        match probe.grid() {
            Err(NetError::Remote {
                code: ErrorCode::NotPrimary,
                ..
            }) => {}
            other => panic!("a replica must refuse tenant traffic, got {other:?}"),
        }
    }

    // The primary dies (gracefully here; the crash-offset sweep lives
    // in the service-level suite).
    let primary = cycles.stop();
    primary_server.stop();
    let pre_kill = ledger(&primary);

    // Promote replica A: recover a fresh service from its shipped
    // stream. The promoted ledger is bit-identical to the dead
    // primary's live ledger — quorum = replica count means *every*
    // acked append is on A.
    server_a.stop();
    drop(node_a);
    let promoted = BudgetService::recover(grid(), config(), &sim_a, DurabilityOptions::default())
        .expect("promote replica a");
    diff_states("promoted vs dead primary", &ledger(&promoted), &pre_kill)
        .expect("promotion must lose no acked state");
    let promoted = Arc::new(promoted);
    let promoted_server =
        NetServer::bind(Arc::clone(&promoted), promoted_addr).expect("bind promoted");
    let cycles = ServiceHandle::spawn(Arc::clone(&promoted), Duration::from_millis(1));

    // Phase 2: the client still points at the dead primary; its
    // failed round trip breaks it, and the redial probes through to
    // the promoted service. The tenant resubmits everything already
    // acked (refused as duplicates — no double charge) plus 20 fresh
    // tasks.
    let mut outcomes = BTreeMap::new();
    for id in 0..40u64 {
        let t = task(id, vec![id % 8], 0.05);
        let outcome = loop {
            match client.submit(0, &t) {
                Ok(o) => break o,
                Err(e) => {
                    assert!(client.is_broken(), "a dead primary breaks the client: {e}");
                    client = NetClient::connect_primary(&candidates, None).expect("promoted");
                }
            }
        };
        outcomes.insert(id, outcome);
    }
    assert_eq!(outcomes.len(), 40, "every unique task got a final decision");
    for id in 0..20u64 {
        assert!(
            matches!(
                outcomes[&id],
                Outcome::Rejected {
                    code: ErrorCode::DuplicateTask,
                    ..
                }
            ),
            "acked task {id} must not be double-charged, got {}",
            outcomes[&id]
        );
    }
    for id in 20..40u64 {
        assert!(
            outcomes[&id].is_granted(),
            "fresh task {id} fits, got {}",
            outcomes[&id]
        );
    }

    let promoted = cycles.stop();
    promoted_server.stop();
    server_b.stop();
    // The 20 phase-2 grants are charged exactly once each on top of
    // the recovered state, and no block is overdrawn.
    let pre: u64 = pre_kill.iter().map(|b| b.granted).sum();
    assert_eq!(pre, 20, "phase 1 grants, one block each");
    let acked = (0..40)
        .map(|id| grant(&task(id, vec![id % 8], 0.05)))
        .collect();
    let states = promoted.ledger().block_states();
    check_history(&common::history(acked, &states))
        .expect("exact conservation across the failover");
}

/// Failover finds a secured primary: the probe handshakes with the
/// tenant's token, so a primary built `with_secret` behind a replica is
/// found with the right token, and a wrong one fails typed.
#[test]
fn connect_primary_finds_a_secured_primary_behind_a_replica() {
    let seg = DurabilityOptions::default().segment_bytes;
    let node = ReplicaNode::open(&SimStorage::new(), SHARDS, seg, dpack_obs::Obs::wall());
    let replica =
        NetServer::bind_replica(Arc::new(node.expect("replica")), "127.0.0.1:0").expect("bind");
    let service = Arc::new(BudgetService::new(grid(), config()));
    let core = ServiceCore::new(service).with_secret("cluster-secret");
    let primary = NetServer::bind_core(core, "127.0.0.1:0").expect("bind secured primary");
    let candidates = [replica.local_addr(), primary.local_addr()];

    let mut client = NetClient::connect_primary(&candidates, Some("cluster-secret"))
        .expect("the secured primary");
    assert_eq!(
        client
            .stats()
            .expect("served after the handshake")
            .submitted,
        0
    );
    match NetClient::connect_primary(&candidates, Some("wrong")).map(|_| ()) {
        Err(NetError::Remote {
            code: ErrorCode::Unauthorized,
            ..
        }) => {}
        other => panic!("a wrong token must be refused as unauthorized, got {other:?}"),
    }
    replica.stop();
    primary.stop();
}
