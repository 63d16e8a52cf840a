//! The reactor's idle wait, over real `127.0.0.1` sockets: an idle
//! server answers as soon as a request arrives, and a connection that
//! only waits on a decision does not keep the reactor sweeping.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, Task};
use dpack_net::obs::Histogram;
use dpack_net::wire::{frame_into, Request, RequestFrame, WireTask};
use dpack_net::{NetClient, NetServer};
use dpack_service::{BudgetService, ServiceConfig};

/// The reactor's bound on one idle wait (`IDLE_PARK` in `server.rs`).
const IDLE_PARK: Duration = Duration::from_micros(200);

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 4.0, 16.0]).expect("valid grid")
}

fn service() -> Arc<BudgetService> {
    Arc::new(BudgetService::new(
        grid(),
        ServiceConfig {
            unlock_steps: 1,
            ..ServiceConfig::default()
        },
    ))
}

fn sweeps(service: &BudgetService) -> u64 {
    sweep_histogram(service).snapshot().count
}

/// The reactor's own sweep histogram: one sample per sweep.
fn sweep_histogram(service: &BudgetService) -> Histogram {
    service
        .obs()
        .registry
        .histogram("dpack_reactor_sweep_nanos", "")
}

/// A request to an idle server is answered when it arrives, not when
/// the reactor's idle wait runs out. Each call starts only once the
/// sweep counter shows the reactor went idle after the previous reply
/// — two more sweeps: the one that answered (if it was still running)
/// and one that moved nothing, after which the reactor waits. A fixed
/// park then makes *every* call wait out most of `IDLE_PARK`, so the
/// median shows it, while the readiness wait answers in one wake-up;
/// the bound sits between the two (three quarters of `IDLE_PARK`), and
/// a few calls preempted on a shared machine do not move the median.
#[test]
fn sequential_round_trips_to_an_idle_server_beat_the_idle_park() {
    let service = service();
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let sweeps = sweep_histogram(&service);
    let await_idle = || {
        let seen = sweeps.snapshot().count;
        while sweeps.snapshot().count < seen + 2 {
            std::thread::yield_now();
        }
    };
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for _ in 0..50 {
        client.stats().expect("warm-up stats");
    }
    let mut calls: Vec<Duration> = (0..500)
        .map(|_| {
            await_idle();
            let started = Instant::now();
            client.stats().expect("stats");
            started.elapsed()
        })
        .collect();
    calls.sort_unstable();
    let median = calls[calls.len() / 2];
    let bound = IDLE_PARK * 3 / 4;
    assert!(
        median < bound,
        "the median sequential round trip took {median:?}, want < {bound:?}"
    );
    server.stop();
}

/// A half-closed connection waiting on a decision no cycle will make
/// registers no interest: the kernel reports its hang-up on every
/// wait, so registering it would turn the idle wait into a spin.
#[test]
fn a_half_closed_connection_awaiting_a_decision_does_not_spin_the_reactor() {
    let service = service();
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let task = Task::new(1, 1.0, vec![0], RdpCurve::constant(&grid(), 0.5), 0.0);
    let mut out = Vec::new();
    let submit = RequestFrame {
        id: 1,
        body: Request::Submit {
            tenant: 0,
            task: WireTask::from_task(&task),
            trace: None,
        },
    };
    frame_into(&mut out, &submit.encode());
    raw.write_all(&out).expect("send the submission");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");

    // No cycle ever runs, so the decision stays pending; give the
    // reactor time to admit the task and read the hang-up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats_summary().submitted < 1 {
        assert!(Instant::now() < deadline, "the submission never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    let before = sweeps(&service);
    let started = Instant::now();
    std::thread::sleep(Duration::from_millis(100));
    let swept = sweeps(&service) - before;
    let elapsed = started.elapsed();
    // One sweep per idle wait, twice over for sweeps and slow wakes,
    // plus a small slack.
    let bound = 2 * elapsed.as_micros() / IDLE_PARK.as_micros() + 50;
    assert!(
        u128::from(swept) <= bound,
        "{swept} sweeps in {elapsed:?} (bound {bound}): the reactor spins"
    );
    assert_eq!(service.stats_summary().granted, 0, "no cycle ran");
    drop(raw);
    server.stop();
}
