//! Remote-frontend hardening: a broken connection says so and is
//! redialed, hostile servers cannot corrupt the pipeline, slow readers
//! are cut off at the buffering caps, and dying clients leave a trace.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, Task};
use dpack_net::wire::{frame_into, FrameDecoder};
use dpack_net::{
    ErrorCode, NetClient, NetError, NetServer, Request, RequestFrame, Response, ResponseFrame,
    ServiceCore, Transport,
};
use dpack_service::{BudgetService, ServiceConfig, StatsRetention};

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 4.0, 16.0]).expect("valid grid")
}

fn service(shards: usize, workers: usize) -> Arc<BudgetService> {
    Arc::new(BudgetService::new(
        grid(),
        ServiceConfig {
            shards,
            workers,
            unlock_steps: 1,
            retention: StatsRetention::Unbounded,
            ..ServiceConfig::default()
        },
    ))
}

fn task(id: u64, blocks: Vec<u64>, eps: f64) -> Task {
    Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0)
}

/// A connection whose server dies mid-use is marked broken, and the
/// redial through [`NetClient::connect_primary`] lands on whichever
/// candidate is alive.
#[test]
fn a_broken_connection_is_flagged_and_connect_primary_redials() {
    let server_a = NetServer::bind(service(1, 1), "127.0.0.1:0").expect("bind a");
    let server_b = NetServer::bind(service(1, 1), "127.0.0.1:0").expect("bind b");
    let candidates = [server_a.local_addr(), server_b.local_addr()];

    // The first live candidate wins: a healthy round trip through A.
    let mut client = NetClient::connect_primary(&candidates, None).expect("dial a");
    assert_eq!(client.grid().expect("hello"), grid());
    assert!(!client.is_broken());

    // Kill server A under the connection: the next round trip on it
    // fails, and the client says it must not be reused.
    server_a.stop();
    let err = client.grid().expect_err("server died");
    assert!(matches!(err, NetError::Closed | NetError::Io(_)), "{err:?}");
    assert!(client.is_broken(), "a dead transport poisons the client");

    // The redial skips the dead address and lands on B.
    let mut client = NetClient::connect_primary(&candidates, None).expect("dial b");
    assert_eq!(client.grid().expect("hello via b"), grid());
    assert!(!client.is_broken());
    server_b.stop();
}

/// A hostile transport that ignores requests and plays back scripted
/// response payloads.
struct ScriptedTransport {
    replies: std::collections::VecDeque<Vec<u8>>,
}

impl Transport for ScriptedTransport {
    fn send_frame(&mut self, _payload: &[u8]) -> Result<(), NetError> {
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.replies.pop_front().ok_or(NetError::Closed)
    }
}

/// A server repeating a response id must surface as a protocol error,
/// not silently replace the stashed response (which would hand a later
/// waiter the wrong decision).
#[test]
fn duplicate_response_ids_surface_as_protocol_errors() {
    let decision = |id: u64| {
        ResponseFrame {
            id,
            body: Response::Decision {
                task: 9,
                outcome: dpack_net::Outcome::Evicted,
            },
        }
        .encode()
    };
    // The hostile server answers request 2 twice while the client
    // waits on request 1.
    let mut client = NetClient::new(Box::new(ScriptedTransport {
        replies: [decision(2), decision(2), decision(1)].into(),
    }));
    let h1 = client
        .submit_nowait(0, &task(1, vec![0], 0.1))
        .expect("send");
    let _h2 = client
        .submit_nowait(0, &task(2, vec![0], 0.1))
        .expect("send");
    let err = client.wait_decision(h1).expect_err("duplicate id");
    match &err {
        NetError::Protocol(msg) => assert!(
            msg.contains("duplicate response"),
            "wrong protocol error: {msg}"
        ),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(client.is_broken(), "a desynced stream poisons the client");
}

/// Reads framed responses off a raw socket until EOF; returns the
/// decoded frames.
fn read_all_frames(stream: &mut TcpStream) -> Vec<ResponseFrame> {
    use std::io::Read;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut bytes = Vec::new();
    // A reset is how a cutoff ends when the peer closed with unread
    // request bytes still inbound — everything sent before it is
    // already buffered and decodes below.
    match stream.read_to_end(&mut bytes) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("read until close: {e}"),
    }
    let mut dec = FrameDecoder::new();
    dec.extend(&bytes);
    let mut frames = Vec::new();
    while let Some(payload) = dec.next_frame().expect("valid frames") {
        frames.push(ResponseFrame::decode(&payload).expect("decodes"));
    }
    frames
}

/// A client that pipelines requests without reading replies grows the
/// server's write buffer; past the cap it gets one final `Overloaded`
/// error frame and the connection closes.
#[test]
fn a_slow_reader_is_cut_off_at_the_buffer_cap() {
    let service = service(1, 1);
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    // 1M pipelined Hellos (tens of MB of replies) with nothing read:
    // far past the 1 MiB write-buffer cap even after the kernel's
    // autotuned loopback socket buffers absorb their share.
    const FLOOD: u64 = 1_000_000;
    let mut out = Vec::new();
    for id in 1..=FLOOD {
        let payload = RequestFrame {
            id,
            body: Request::Hello { token: None },
        }
        .encode();
        frame_into(&mut out, &payload);
    }
    // Once the cap trips the server stops reading, so the tail of the
    // flood may never drain from the kernel buffers — a short write (or
    // a reset) here is part of the scenario, not a failure.
    raw.set_write_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    let _ = raw.write_all(&out);

    let frames = read_all_frames(&mut raw);
    let last = frames.last().expect("at least the parting shot");
    assert_eq!(last.id, 0, "the cutoff is a parting shot");
    assert!(
        matches!(
            last.body,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "expected Overloaded, got {:?}",
        last.body
    );
    assert!(
        (frames.len() as u64) < FLOOD,
        "the connection must close before answering the whole flood"
    );
    // The cutoff is visible to the operator.
    let mut probe = NetClient::connect(server.local_addr()).expect("connect");
    let metrics = probe.metrics().expect("scrape");
    assert_eq!(metrics.counter_total("dpack_overloaded_conns_total"), 1);
    server.stop();
}

/// Undecided submissions hold server memory (a `PendingReply` each), so
/// they are capped per connection too — a tenant flooding submissions
/// while no cycle runs is cut off, and the cutoff does not disturb a
/// well-behaved connection.
#[test]
fn pending_decisions_are_capped_per_connection() {
    let service = service(1, 1);
    service
        .register_block(Block::new(0, RdpCurve::constant(&grid(), 1e9), 0.0))
        .expect("block");
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // No cycles run, so every submission parks a pending decision; one
    // past the cap trips the cutoff.
    let mut handles = Vec::new();
    for id in 0..4097u64 {
        handles.push(
            client
                .submit_nowait(0, &task(id, vec![0], 1e-9))
                .expect("send"),
        );
    }
    let err = client
        .wait_decision(handles.remove(0))
        .expect_err("the flood must be cut off before any decision");
    assert!(
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "expected Overloaded, got {err:?}"
    );
    assert!(client.is_broken());

    // A fresh, modest connection is unaffected.
    let mut probe = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(probe.grid().expect("hello"), grid());
    server.stop();
}

/// A peer dying mid-frame (EOF with a partial frame buffered) used to
/// vanish without a trace; now it lands in the violation counter and
/// the flight recorder.
#[test]
fn a_client_dying_mid_frame_leaves_a_trace() {
    let service = service(1, 1);
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    {
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let payload = RequestFrame {
            id: 1,
            body: Request::Hello { token: None },
        }
        .encode();
        let mut framed = Vec::new();
        frame_into(&mut framed, &payload);
        // A valid frame prefix that promises more bytes than ever come.
        raw.write_all(&framed[..framed.len() - 3]).expect("partial");
    } // Drop: EOF with a partial frame buffered in the server's decoder.

    let mut probe = NetClient::connect(server.local_addr()).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = probe.metrics().expect("scrape");
        if metrics.counter_total("dpack_protocol_violations_total") == 1 {
            let events = probe.trace(0).expect("trace");
            assert!(events
                .iter()
                .any(|e| e.kind == dpack_net::obs::EventKind::ProtocolViolation));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame EOF never surfaced in the metrics"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.stop();
}

/// A secured node refuses wrong-token handshakes and any request
/// before a successful one — with the stable `unauthorized` code on
/// the wire and every refusal counted in `dpack_auth_rejected_total`.
#[test]
fn a_secured_node_refuses_and_counts_bad_handshakes() {
    let service = service(1, 1);
    let core = ServiceCore::new(Arc::clone(&service)).with_secret("cluster-secret");
    let server = NetServer::bind_core(core, "127.0.0.1:0").expect("bind secured");
    let rejected = || {
        service
            .obs()
            .registry
            .snapshot()
            .counter_total("dpack_auth_rejected_total")
    };
    let unauthorized = |err: &NetError| {
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::Unauthorized,
                ..
            }
        )
    };

    // A wrong token is refused (constant-time compare server-side)…
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let err = client
        .handshake(Some("cluster-secret-almost"))
        .expect_err("wrong token");
    assert!(unauthorized(&err), "{err:?}");
    assert_eq!(rejected(), 1);
    // …a missing token too (`grid()` is the tokenless handshake)…
    let err = client.grid().expect_err("missing token");
    assert!(unauthorized(&err), "{err:?}");
    assert_eq!(rejected(), 2);
    // …and so is any request smuggled in before the handshake: the
    // connection stays usable (the protocol was not violated) but
    // nothing reaches the service.
    let err = client
        .register_block(&Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect_err("request before handshake");
    assert!(unauthorized(&err), "{err:?}");
    assert_eq!(rejected(), 3);
    assert!(!client.is_broken(), "a refusal is a reply, not a cut line");

    // The right token flips the connection to authed; requests flow
    // and the rejection counter stops moving.
    assert_eq!(
        client.handshake(Some("cluster-secret")).expect("handshake"),
        grid()
    );
    client
        .register_block(&Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
        .expect("authed request reaches the service");
    assert_eq!(rejected(), 3);
    server.stop();
}

/// A wire `RegisterBlock` carries its capacity bit-verbatim, so `+inf`
/// at any order — a filter that would never refuse anything — must be
/// refused with the stable `block-rejected` code, leave nothing
/// registered, and leave the connection usable.
#[test]
fn a_non_finite_block_capacity_is_rejected_over_the_wire() {
    let service = service(2, 1);
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let g = grid();
    for bad in [f64::INFINITY, f64::NEG_INFINITY] {
        for order in 0..g.len() {
            let mut eps = vec![1.0; g.len()];
            eps[order] = bad;
            let block = Block::new(7, RdpCurve::new(&g, eps).expect("not NaN"), 0.0);
            let err = client
                .register_block(&block)
                .expect_err("non-finite capacity");
            assert!(
                matches!(
                    err,
                    NetError::Remote {
                        code: ErrorCode::BlockRejected,
                        ..
                    }
                ),
                "capacity {bad} at order {order}: {err:?}"
            );
        }
    }
    assert!(!service.ledger().contains(7));
    assert!(!client.is_broken(), "a refusal is a reply, not a cut line");
    client
        .register_block(&Block::new(7, RdpCurve::constant(&g, 1.0), 0.0))
        .expect("the same connection still registers a sane block");
    assert!(service.ledger().contains(7));
    server.stop();
}
