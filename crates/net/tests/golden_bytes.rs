//! The golden-file pin of every byte the program writes or reads: one
//! instance of every wire message, every ledger log record kind, a
//! two-block snapshot, one framed wire message, and the storage bytes
//! of a one-record `Wal::append` and a three-record `append_batch`.
//!
//! Each file under `tests/golden/` holds one `name hex` line per
//! vector. Every test encodes its values and compares the hex with the
//! file, then decodes the file's bytes and compares the result with
//! the value (by `Debug` text, so a NaN payload compares by its bits
//! through the re-encode). The files are the compatibility contract for
//! a log left on disk and a peer on an older build; after an
//! *intentional* format change, regenerate with
//! `DPACK_GOLDEN=write cargo test -p dpack-net --test golden_bytes`
//! and review the diff.

use dpack_net::obs::{Event, EventKind, Histogram, Sample, Span, SpanKind, TraceContext, Value};
use dpack_net::wire::{frame, FrameDecoder};
use dpack_net::{
    ErrorCode, Outcome, Request, RequestFrame, Response, ResponseFrame, WireClusterStatus,
    WirePeer, WireStats, WireTask, REPL_COORD_STREAM,
};
use dpack_service::durability::{decode_snapshot, encode_snapshot, BlockState, LogRecord};
use dpack_service::wal::{SimStorage, Wal, WalOptions, WalStorage};
use dpack_service::ReplStream;

/// A quiet NaN with a payload: the bytes must carry its exact bits.
fn nan() -> f64 {
    f64::from_bits(0x7FF8_0000_0000_0BAD)
}

fn golden_path(file: &str) -> String {
    format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// Compares `vectors` (name, encoded bytes) with the golden file
/// `file` line for line, after writing it under `DPACK_GOLDEN=write`;
/// returns the file's bytes per line for the decode half.
fn pin(file: &str, vectors: &[(String, Vec<u8>)]) -> Vec<Vec<u8>> {
    let text: String = vectors
        .iter()
        .map(|(name, bytes)| format!("{name} {}\n", hex(bytes)))
        .collect();
    if std::env::var_os("DPACK_GOLDEN").is_some_and(|v| v == "write") {
        std::fs::write(golden_path(file), &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path(file)).expect("golden file committed");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), vectors.len(), "{file}: vector count drifted");
    for (line, (name, bytes)) in lines.iter().zip(vectors) {
        assert_eq!(
            *line,
            format!("{name} {}", hex(bytes)),
            "{file}: {name} drifted from the golden bytes; if intentional, \
             regenerate with DPACK_GOLDEN=write and review the diff"
        );
    }
    lines
        .iter()
        .map(|line| unhex(line.split_once(' ').expect("name hex").1))
        .collect()
}

fn task(id: u64, timeout: Option<f64>) -> WireTask {
    WireTask {
        id,
        weight: 2.5,
        arrival: 0.1 + 0.2,
        timeout,
        demand: vec![0.25, -0.0, nan(), f64::MIN_POSITIVE],
        blocks: vec![1, 5, u64::MAX],
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Hello { token: None },
        Request::Hello {
            token: Some("s3cret".into()),
        },
        Request::Submit {
            tenant: 7,
            task: task(42, Some(7.0)),
            trace: Some(TraceContext {
                trace: 0xDEAD_BEEF,
                span: 0x5EED,
            }),
        },
        Request::Submit {
            tenant: u32::MAX,
            task: task(43, None),
            trace: None,
        },
        Request::SubmitBatch {
            tenant: 3,
            tasks: vec![task(1, None), task(2, Some(-0.0))],
            traces: vec![
                TraceContext { trace: 1, span: 2 },
                TraceContext { trace: 3, span: 4 },
            ],
        },
        Request::SubmitBatch {
            tenant: 0,
            tasks: vec![task(5, Some(nan()))],
            traces: Vec::new(),
        },
        Request::RegisterBlock {
            id: 11,
            arrival: -0.0,
            capacity: vec![1.0, -3.5, nan()],
        },
        Request::Stats,
        Request::Snapshot { now: 4.25 },
        Request::Metrics,
        Request::Trace { since: 1234 },
        Request::Replicate {
            term: 4,
            shard: 3,
            seq: 17,
            records: vec![vec![], vec![0xD7, 1, 2, 3]],
            traces: vec![0xABCD, 0xEF01],
        },
        Request::Replicate {
            term: 0,
            shard: REPL_COORD_STREAM,
            seq: 1,
            records: vec![vec![0xFF]],
            traces: Vec::new(),
        },
        Request::Ping {
            term: 3,
            vector: vec![9, 4, 12],
        },
        Request::Vote {
            term: 5,
            candidate: 2,
            ballot: vec![9, 4, 12],
        },
        Request::ResyncStream {
            term: 5,
            shard: 1,
            base_seq: 4,
            snapshot: vec![0xD7, 0, 1, 2],
        },
        Request::ResyncCommit {
            term: 5,
            lineage: 6,
        },
        Request::ClusterStatus,
        Request::SpanDump { since: 77 },
    ]
}

fn histogram() -> Box<dpack_net::obs::HistogramSnapshot> {
    let h = Histogram::new();
    for v in [3, 100, 100_000] {
        h.record(v);
    }
    Box::new(h.snapshot())
}

fn responses() -> Vec<Response> {
    vec![
        Response::Hello {
            alphas: vec![2.0, 4.0, nan()],
        },
        Response::Decision {
            task: 9,
            outcome: Outcome::Granted { allocated_at: -0.0 },
        },
        Response::BatchDecision {
            decisions: vec![
                (1, Outcome::Evicted),
                (
                    2,
                    Outcome::Rejected {
                        code: ErrorCode::DuplicateTask,
                        message: "task id 2 is already queued or pending".into(),
                    },
                ),
                (3, Outcome::Granted { allocated_at: 3.0 }),
            ],
        },
        Response::BlockRegistered { id: 11 },
        Response::Stats(WireStats {
            submitted: 10,
            admitted: 9,
            rejected: 1,
            granted: 8,
            evicted: 1,
            cycles: 4,
            granted_weight: nan(),
            throughput: 123.5,
            queue_depth: 2,
            pending: 1,
        }),
        Response::Snapshot {
            blocks: vec![(0, vec![0.5, -0.0]), (3, vec![])],
        },
        Response::Error {
            code: ErrorCode::Protocol,
            message: "bad".into(),
        },
        Response::Metrics {
            samples: vec![
                Sample {
                    name: "dpack_granted_total".into(),
                    labels: String::new(),
                    value: Value::Counter(42),
                },
                Sample {
                    name: "dpack_queue_depth".into(),
                    labels: "tenant=\"3\"".into(),
                    value: Value::Gauge(-0.0),
                },
                Sample {
                    name: "dpack_grant_latency_nanos".into(),
                    labels: String::new(),
                    value: Value::Histogram(histogram()),
                },
            ],
        },
        Response::Trace {
            events: vec![
                Event {
                    seq: 1,
                    kind: EventKind::TaskAdmitted,
                    a: 42,
                    b: 7,
                },
                Event {
                    seq: 2,
                    kind: EventKind::TaskGranted,
                    a: 42,
                    b: nan().to_bits(),
                },
            ],
        },
        Response::ReplicateAck {
            shard: REPL_COORD_STREAM,
            seq: 17,
            durable: 16,
        },
        Response::Pong {
            term: 3,
            is_primary: true,
            lineage: 2,
            vector: vec![9, 4, 12],
        },
        Response::VoteReply {
            term: 5,
            granted: false,
        },
        Response::ResyncAck {
            stream: 1,
            durable: 4,
        },
        Response::ClusterStatus(WireClusterStatus {
            node_id: 2,
            is_primary: true,
            term: 9,
            leader: 2,
            vector: vec![17, 4],
            peers: vec![
                WirePeer {
                    id: 1,
                    addr: "10.0.0.1:7001".into(),
                    state: 1,
                    term: 9,
                    is_primary: false,
                    lag: vec![0, 3],
                    backoff_nanos: 1_500_000_000,
                    resyncs: 2,
                },
                WirePeer {
                    id: 3,
                    addr: String::new(),
                    state: 2,
                    term: 8,
                    is_primary: true,
                    lag: vec![],
                    backoff_nanos: 0,
                    resyncs: 0,
                },
            ],
        }),
        Response::SpanDump {
            spans: vec![Span {
                seq: 1,
                trace: 0xABCD,
                span: 0x1234,
                parent: 0,
                kind: SpanKind::Grant,
                node: 2,
                start_nanos: 100,
                end_nanos: 900,
                a: 42,
            }],
        },
    ]
}

#[test]
fn wire_messages_match_the_golden_bytes() {
    let requests: Vec<RequestFrame> = requests()
        .into_iter()
        .enumerate()
        .map(|(i, body)| RequestFrame {
            id: 100 + i as u64,
            body,
        })
        .collect();
    let responses: Vec<ResponseFrame> = responses()
        .into_iter()
        .enumerate()
        .map(|(i, body)| ResponseFrame {
            id: u64::MAX - i as u64,
            body,
        })
        .collect();
    let framed = frame(&requests[2].encode());
    let mut vectors: Vec<(String, Vec<u8>)> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        vectors.push((format!("request-{i:02}"), req.encode()));
    }
    for (i, resp) in responses.iter().enumerate() {
        vectors.push((format!("response-{i:02}"), resp.encode()));
    }
    vectors.push(("framed-request-02".into(), framed));
    let golden = pin("wire.hex", &vectors);

    let (req_bytes, rest) = golden.split_at(requests.len());
    let (resp_bytes, framed) = rest.split_at(responses.len());
    for (bytes, req) in req_bytes.iter().zip(&requests) {
        let back = RequestFrame::decode(bytes).expect("golden request decodes");
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
        assert_eq!(&back.encode(), bytes, "bits survive the round trip");
    }
    for (bytes, resp) in resp_bytes.iter().zip(&responses) {
        let back = ResponseFrame::decode(bytes).expect("golden response decodes");
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        assert_eq!(&back.encode(), bytes, "bits survive the round trip");
    }
    let mut dec = FrameDecoder::new();
    dec.extend(&framed[0]);
    let payload = dec.next_frame().expect("golden frame").expect("whole");
    assert_eq!(payload, requests[2].encode());
    assert_eq!(dec.buffered(), 0);
}

fn records() -> Vec<LogRecord> {
    let states = two_blocks();
    vec![
        LogRecord::Block {
            shard: 2,
            id: 7,
            arrival: 1.25,
            capacity: vec![1.0, 0.1 + 0.2, nan()],
        },
        LogRecord::Apply {
            shard: 0,
            task: u64::MAX,
            demand: vec![0.3, -0.0],
            blocks: vec![1, 9, 42],
        },
        LogRecord::Intent {
            shard: u32::MAX - 1,
            attempt: 3,
            task: 8,
            demand: vec![nan()],
            blocks: vec![0],
        },
        LogRecord::Commit {
            attempt: 5,
            task: 2,
        },
        LogRecord::Abort {
            attempt: 6,
            task: 3,
        },
        LogRecord::Base {
            stream: ReplStream::Shard(1),
            seq: 12,
            snapshot: encode_snapshot(&states),
        },
        LogRecord::Base {
            stream: ReplStream::Coordinator,
            seq: 4,
            snapshot: vec![],
        },
    ]
}

fn two_blocks() -> Vec<BlockState> {
    vec![
        BlockState {
            id: 0,
            arrival: -0.0,
            total: vec![1.0, 2.0],
            consumed: vec![0.25, nan()],
            granted: 4,
        },
        BlockState {
            id: 3,
            arrival: 2.5,
            total: vec![1.5],
            consumed: vec![],
            granted: u64::MAX,
        },
    ]
}

#[test]
fn log_records_and_snapshots_match_the_golden_bytes() {
    let records = records();
    let states = two_blocks();
    let mut vectors: Vec<(String, Vec<u8>)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("record-{i}"), r.encode()))
        .collect();
    vectors.push(("snapshot".into(), encode_snapshot(&states)));
    let golden = pin("records.hex", &vectors);

    for (bytes, rec) in golden.iter().zip(&records) {
        let back = LogRecord::decode(bytes).expect("golden record decodes");
        assert_eq!(format!("{back:?}"), format!("{rec:?}"));
        assert_eq!(&back.encode(), bytes, "bits survive the round trip");
    }
    let snapshot = golden.last().expect("snapshot line");
    let back = decode_snapshot(snapshot).expect("golden snapshot decodes");
    assert_eq!(format!("{back:?}"), format!("{states:?}"));
    assert_eq!(&encode_snapshot(&back), snapshot);
}

/// Every storage file the WAL wrote, as (name, bytes), sorted.
fn storage_files(sim: &SimStorage) -> Vec<(String, Vec<u8>)> {
    let mut names = sim.list().expect("sim lists");
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bytes = sim.read(&name).expect("sim reads");
            (name, bytes)
        })
        .collect()
}

#[test]
fn wal_storage_bytes_match_the_golden_bytes() {
    let single: Vec<u8> = LogRecord::Commit {
        attempt: 1,
        task: 2,
    }
    .encode();
    let batch: Vec<Vec<u8>> = records()[..3].iter().map(LogRecord::encode).collect();
    let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();

    let append = SimStorage::new();
    let (mut wal, _) = Wal::open(Box::new(append.clone()), WalOptions::default()).unwrap();
    wal.append(&single).unwrap();
    let batched = SimStorage::new();
    let (mut wal, _) = Wal::open(Box::new(batched.clone()), WalOptions::default()).unwrap();
    wal.append_batch(&views).unwrap();

    let mut vectors = Vec::new();
    for (label, sim) in [("append", &append), ("append-batch", &batched)] {
        for (name, bytes) in storage_files(sim) {
            vectors.push((format!("{label}/{name}"), bytes));
        }
    }
    let golden = pin("wal.hex", &vectors);

    // The golden bytes, laid back down as storage, recover the records.
    for (label, want) in [("append", vec![single.clone()]), ("append-batch", batch)] {
        let sim = SimStorage::new();
        for ((name, _), bytes) in vectors.iter().zip(&golden) {
            if let Some(file) = name.strip_prefix(&format!("{label}/")) {
                sim.append(file, bytes).unwrap();
            }
        }
        let (_, recovered) = Wal::open(Box::new(sim), WalOptions::default()).unwrap();
        assert_eq!(recovered.records, want, "{label}");
        assert!(!recovered.truncated_tail, "{label}");
    }
}
