//! Remote-frontend integration over real `127.0.0.1` sockets.
//!
//! The acceptance scenario for the remote frontend: tenants on real
//! TCP connections submit concurrently with in-process tenants and
//! receive **final decisions**; and a remote submission stream leaves
//! the ledger in a state bit-identical to the same stream submitted
//! in-process.

#[path = "../../service/tests/common/mod.rs"]
mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::ledger;
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::diff_states;
use dpack_core::problem::{Block, Task};
use dpack_net::{ErrorCode, NetClient, NetError, NetServer, Outcome};
use dpack_service::{BudgetService, ServiceConfig, ServiceHandle, StatsRetention};
use rand::{RngExt, SeedableRng};

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 4.0, 16.0]).expect("valid grid")
}

/// No default timeout: the concurrency tests run cycles on a
/// wall-clock thread whose *virtual* time races far ahead of the
/// tenants' `arrival: 0.0`, so any timeout would spuriously evict.
/// The deterministic equivalence test, which drives its own cycles,
/// opts into one explicitly.
fn service_with(shards: usize, workers: usize, timeout: Option<f64>) -> Arc<BudgetService> {
    Arc::new(BudgetService::new(
        grid(),
        ServiceConfig {
            shards,
            workers,
            unlock_steps: 1,
            default_timeout: timeout,
            retention: StatsRetention::Unbounded,
            ..ServiceConfig::default()
        },
    ))
}

fn service(shards: usize, workers: usize) -> Arc<BudgetService> {
    service_with(shards, workers, None)
}

fn task(id: u64, blocks: Vec<u64>, eps: f64, arrival: f64) -> Task {
    Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), arrival)
}

/// The acceptance scenario: remote tenants over real sockets race
/// in-process tenants; everyone gets a final decision and the ledger
/// stays sound with exact conservation.
#[test]
fn remote_and_in_process_tenants_submit_concurrently() {
    let service = service(4, 2);
    for j in 0..8u64 {
        service
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 4.0), 0.0))
            .expect("unique block");
    }
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let cycles = ServiceHandle::spawn(Arc::clone(&service), Duration::from_millis(1));

    const PER_TENANT: u64 = 50;
    let mut grants = 0u64;
    std::thread::scope(|s| {
        // Two remote tenants, each on its own connection, pipelining.
        let mut remote_handles = Vec::new();
        for tenant in 0..2u32 {
            remote_handles.push(s.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut handles = Vec::new();
                for i in 0..PER_TENANT {
                    let id = u64::from(tenant) * 1_000 + i;
                    let t = task(id, vec![id % 8], 0.05, 0.0);
                    handles.push(client.submit_nowait(tenant, &t).expect("send"));
                }
                let mut granted = 0u64;
                for h in handles {
                    match client.wait_decision(h).expect("decision") {
                        Outcome::Granted { .. } => granted += 1,
                        other => panic!("workload fits, got {other}"),
                    }
                }
                granted
            }));
        }
        // Two in-process tenants race them through submit_async.
        let mut local_handles = Vec::new();
        for tenant in 2..4u32 {
            let service = Arc::clone(&service);
            local_handles.push(s.spawn(move || {
                let mut granted = 0u64;
                for i in 0..PER_TENANT {
                    let id = u64::from(tenant) * 1_000 + i;
                    let t = task(id, vec![id % 8], 0.05, 0.0);
                    let ticket = service.submit_async(tenant, t).expect("admitted");
                    if matches!(
                        ticket.wait_timeout(Duration::from_secs(30)),
                        Some(dpack_service::Decision::Granted { .. })
                    ) {
                        granted += 1;
                    }
                }
                granted
            }));
        }
        for h in remote_handles.into_iter().chain(local_handles) {
            grants += h.join().expect("tenant thread");
        }
    });

    let service = cycles.stop();
    server.stop();
    // 4 tenants × 50 tasks × ε=0.05 ⇒ 2.5 per two blocks… everything
    // fits inside capacity 4.0 per block; conservation is exact.
    assert_eq!(grants, 4 * PER_TENANT);
    let stats = service.stats_summary();
    assert_eq!(stats.submitted, 4 * PER_TENANT);
    assert_eq!(stats.granted, 4 * PER_TENANT);
    assert!(service.ledger().unsound_blocks().is_empty());
}

/// Drives one seeded workload, submitting each chunk then running one
/// deterministic cycle, through either surface; returns the service.
fn seeded_workload(seed: u64) -> Vec<Vec<Task>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut chunks = Vec::new();
    let mut id = 0u64;
    for step in 0..6 {
        let now = step as f64;
        let mut chunk = Vec::new();
        for _ in 0..12 {
            let n_blocks = 1 + (rng.random::<u64>() % 3) as usize;
            let mut blocks: Vec<u64> = (0..n_blocks).map(|_| rng.random::<u64>() % 8).collect();
            blocks.sort_unstable();
            blocks.dedup();
            // A sprinkle of infeasible demands exercises evictions.
            let eps = if rng.random::<u64>() % 8 == 0 {
                9.0
            } else {
                0.02 + (rng.random::<u64>() % 100) as f64 * 0.002
            };
            chunk.push(task(id, blocks, eps, now));
            id += 1;
        }
        chunks.push(chunk);
    }
    chunks
}

/// The equivalence criterion: the same seeded workload, submitted
/// remotely over a real TCP socket vs in-process, produces
/// bit-identical ledger state and identical grant/eviction counts.
#[test]
fn remote_submission_is_bit_identical_to_in_process() {
    let chunks = seeded_workload(20250728);

    // Path A: in-process submission, deterministic manual cycles.
    let local = service_with(4, 2, Some(4.0));
    for j in 0..8u64 {
        local
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 2.0), 0.0))
            .expect("unique block");
    }
    for (step, chunk) in chunks.iter().enumerate() {
        for t in chunk {
            local
                .submit((t.id % 3) as u32, t.clone())
                .expect("fits admission");
        }
        local.run_cycle((step + 1) as f64);
    }
    // Strictly past every arrival's 4.0 timeout, so each infeasible
    // task evicts (and, in path B, resolves its parked decision).
    for extra in 0..6 {
        local.run_cycle((chunks.len() + 1 + extra) as f64);
    }

    // Path B: the same stream over a real socket. The test drives the
    // cycles itself: submissions are pipelined, then the test waits
    // until the server has admitted the whole chunk (the `submitted`
    // counter is exact) before running the cycle — same ingest
    // boundaries as path A.
    let remote = service_with(4, 2, Some(4.0));
    for j in 0..8u64 {
        remote
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 2.0), 0.0))
            .expect("unique block");
    }
    let server = NetServer::bind(Arc::clone(&remote), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let mut handles = Vec::new();
    let mut sent = 0u64;
    for (step, chunk) in chunks.iter().enumerate() {
        for t in chunk {
            handles.push(client.submit_nowait((t.id % 3) as u32, t).expect("send"));
            sent += 1;
        }
        // The wait below reads the server, not this client.
        client.flush().expect("flush");
        while remote.stats_summary().submitted < sent {
            std::thread::sleep(Duration::from_micros(100));
        }
        remote.run_cycle((step + 1) as f64);
    }
    for extra in 0..6 {
        remote.run_cycle((chunks.len() + 1 + extra) as f64);
    }
    // Every decision arrives (grants and evictions both resolved).
    let mut outcomes = std::collections::BTreeMap::new();
    for (h, t) in handles.into_iter().zip(chunks.iter().flatten()) {
        outcomes.insert(t.id, client.wait_decision(h).expect("decision"));
    }
    server.stop();

    // Decisions, counters, and ledger state all agree bit-for-bit.
    let a = local.stats_summary();
    let b = remote.stats_summary();
    assert_eq!(a.granted, b.granted);
    assert_eq!(a.evicted, b.evicted);
    assert_eq!(a.admitted, b.admitted);
    let granted_remote = outcomes.values().filter(|o| o.is_granted()).count() as u64;
    assert_eq!(granted_remote, a.granted);
    diff_states("local vs remote", &ledger(&local), &ledger(&remote)).expect("bit-identical");
    assert!(
        a.granted > 0 && a.evicted > 0,
        "workload must exercise both"
    );
}

#[test]
fn pipelined_stats_overtake_pending_submissions() {
    let service = service(2, 1);
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // This submission cannot resolve yet: no cycle is running.
    let pending = client
        .submit_nowait(0, &task(1, vec![0], 0.5, 0.0))
        .expect("send");
    // A stats request sent *after* it completes *before* it.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.granted, 0);
    assert_eq!(stats.queue_depth, 1);
    // Snapshot also answers immediately, with full budget available.
    let snap = client.snapshot(1.0).expect("snapshot");
    assert_eq!(snap[&0], vec![1.0, 1.0, 1.0]);
    // Now run the cycle; the parked decision resolves.
    service.run_cycle(1.0);
    assert_eq!(
        client.wait_decision(pending).expect("decision"),
        Outcome::Granted { allocated_at: 1.0 }
    );
    let snap = client.snapshot(1.0).expect("snapshot");
    assert_eq!(snap[&0], vec![0.5, 0.5, 0.5]);
    server.stop();
}

#[test]
fn batch_submissions_answer_with_every_decision() {
    let service = service(2, 1);
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let cycles = ServiceHandle::spawn(Arc::clone(&service), Duration::from_millis(1));
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let batch = vec![
        task(1, vec![0], 0.4, 0.0),
        task(1, vec![0], 0.1, 0.0), // Duplicate id: rejected.
        task(2, vec![9], 0.1, 0.0), // Unknown block: rejected.
        task(3, vec![0], 0.4, 0.0),
    ];
    let decisions = client.submit_batch(7, &batch).expect("batch");
    assert_eq!(decisions.len(), 4);
    assert!(matches!(decisions[0], (1, Outcome::Granted { .. })));
    assert!(matches!(
        decisions[1],
        (
            1,
            Outcome::Rejected {
                code: ErrorCode::DuplicateTask,
                ..
            }
        )
    ));
    assert!(matches!(
        decisions[2],
        (
            2,
            Outcome::Rejected {
                code: ErrorCode::UnknownBlock,
                ..
            }
        )
    ));
    assert!(matches!(decisions[3], (3, Outcome::Granted { .. })));
    cycles.stop();
    server.stop();
}

/// The observability acceptance: a remote client scrapes live metrics
/// and the flight recorder over a real TCP socket, and the scrape
/// reflects the submissions it just made.
#[test]
fn remote_client_scrapes_live_metrics_and_trace() {
    let service = service(2, 1);
    for j in 0..4u64 {
        service
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
            .expect("block");
    }
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let pending = client
        .submit_nowait(3, &task(1, vec![0], 0.25, 0.0))
        .expect("send");
    client.flush().expect("flush");
    while service.stats_summary().submitted < 1 {
        std::thread::sleep(Duration::from_micros(100));
    }
    service.run_cycle(1.0);
    assert_eq!(
        client.wait_decision(pending).expect("decision"),
        Outcome::Granted { allocated_at: 1.0 }
    );

    let metrics = client.metrics().expect("scrape");
    assert_eq!(metrics.counter_total("dpack_submitted_total"), 1);
    assert_eq!(metrics.counter_total("dpack_granted_total"), 1);
    assert_eq!(metrics.counter_total("dpack_cycles_total"), 1);
    let grant = metrics
        .histogram("dpack_grant_latency_nanos", "")
        .expect("grant latency histogram");
    assert_eq!(grant.count, 1);
    // The reactor's self-instrumentation lands in the same scrape.
    let sweeps = metrics
        .histogram("dpack_reactor_sweep_nanos", "")
        .expect("sweep histogram");
    assert!(sweeps.count > 0, "the reactor has swept at least once");
    let rendered = metrics.render();
    assert!(rendered.contains("dpack_granted_total 1"));
    assert!(rendered.contains("dpack_cycle_phase_nanos"));

    // The flight recorder saw the admission then the grant, in order.
    let events = client.trace(0).expect("trace");
    let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
    use dpack_net::obs::EventKind;
    assert_eq!(kinds, vec![EventKind::TaskAdmitted, EventKind::TaskGranted]);
    assert_eq!(events[0].a, 1, "admitted task id");
    assert_eq!(events[0].b, 3, "admitting tenant");
    assert_eq!(events[1].b, 1.0f64.to_bits(), "grant time");
    assert!(events[0].seq < events[1].seq);
    // An incremental scrape from past the end returns nothing new.
    let last = events.last().expect("events").seq;
    assert!(client.trace(last + 1).expect("trace").is_empty());
    server.stop();
}

#[test]
fn protocol_violations_get_a_final_error_frame_then_the_boot() {
    let service = service(1, 1);
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(&[0x00; 32]).expect("write garbage");
    // The server answers with a framed protocol error, then closes.
    let mut bytes = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    raw.read_to_end(&mut bytes).expect("read until close");
    let mut dec = dpack_net::wire::FrameDecoder::new();
    dec.extend(&bytes);
    let payload = dec.next_frame().expect("valid frame").expect("one frame");
    let resp = dpack_net::ResponseFrame::decode(&payload).expect("decodes");
    assert_eq!(resp.id, 0, "no request id can be trusted");
    assert!(matches!(
        resp.body,
        dpack_net::Response::Error {
            code: ErrorCode::Protocol,
            ..
        }
    ));
    // A well-behaved client on a fresh connection is unaffected — and
    // can read the violation off the metrics and the flight recorder.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.grid().expect("hello"), grid());
    let metrics = client.metrics().expect("scrape");
    assert_eq!(metrics.counter_total("dpack_protocol_violations_total"), 1);
    let events = client.trace(0).expect("trace");
    assert!(events
        .iter()
        .any(|e| e.kind == dpack_net::obs::EventKind::ProtocolViolation));
    server.stop();
}

#[test]
fn shutdown_closes_clients_cleanly() {
    let service = service(1, 1);
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.grid().expect("hello"), grid());
    // A decision still pending at shutdown surfaces as Closed/Io, not
    // a hang or a fabricated outcome.
    let h = client
        .submit_nowait(0, &task(1, vec![0], 0.5, 0.0))
        .expect("send");
    client.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20)); // Let the reactor ingest it.
    server.stop();
    match client.wait_decision(h) {
        Err(NetError::Closed | NetError::Io(_)) => {}
        other => panic!("expected a closed-connection error, got {other:?}"),
    }
}

/// The flush contract, first half: a pipelined request is written out
/// when its client is dropped, so the server admits it.
#[test]
fn a_dropped_client_still_delivers_its_pipelined_submission() {
    let service = service(1, 1);
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let admitted = |n: u64, what: &str| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while service.stats_summary().admitted < n {
            assert!(
                std::time::Instant::now() < deadline,
                "the {what}'s submission never arrived"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let _ = client
        .submit_nowait(0, &task(1, vec![0], 0.3, 0.0))
        .expect("send");
    drop(client);
    admitted(1, "dropped client");
    server.stop();
}

/// The flush contract, second half: `flush` delivers every pipelined
/// request, with no receive on the client.
#[test]
fn flush_delivers_a_pipelined_burst_without_a_receive() {
    let service = service(1, 1);
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    const K: u64 = 16;
    let handles: Vec<_> = (1..=K)
        .map(|id| {
            client
                .submit_nowait(0, &task(id, vec![0], 0.01, 0.0))
                .expect("send")
        })
        .collect();
    client.flush().expect("flush");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.stats_summary().submitted < K {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of {K} flushed submissions arrived",
            service.stats_summary().submitted
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.stats_summary().submitted, K);
    service.run_cycle(1.0);
    for handle in handles {
        assert!(client.wait_decision(handle).expect("decision").is_granted());
    }
    server.stop();
}
