//! One drawn property over every byte codec: wire requests and
//! responses, ledger log records, and snapshots (which also ride a
//! resync `Base` and a `ResyncStream` as their payload). For each drawn
//! value of each codec:
//!
//! 1. encode then decode gives the value back, bit for bit (the decoded
//!    value re-encodes to the same bytes, so NaN payloads and `-0.0`
//!    count);
//! 2. every strict prefix of the encoding fails with the codec's typed
//!    error;
//! 3. the encoding plus one extra byte fails with the typed error;
//! 4. the encoding is at least the codec's `MIN_BYTES` long;
//! 5. junk of 0–64 bytes, alone or behind a prefix of the encoding,
//!    never panics and never fails untyped.

use std::fmt::Debug;

use dpack_check::{
    check_cases, ints, one_of, prop_assert, prop_assert_eq, vecs, weighted, Failed, PropResult,
    Strategy,
};
use dpack_net::obs::{Event, EventKind, Histogram, Sample, Span, SpanKind, TraceContext, Value};
use dpack_net::{
    ErrorCode, NetError, Outcome, Request, RequestFrame, Response, ResponseFrame,
    WireClusterStatus, WirePeer, WireStats, WireTask,
};
use dpack_service::durability::{decode_snapshot, encode_snapshot, BlockState, LogRecord};
use dpack_service::wal::codec::Codec;
use dpack_service::wal::WalError;
use dpack_service::ReplStream;

const CASES: u32 = 256;

/// The raw material one case spins every codec's value from.
#[derive(Debug, Clone)]
struct Draw {
    pick: u64,
    words: Vec<u64>,
    floats: Vec<f64>,
    bytes: Vec<u8>,
    junk: Vec<u8>,
}

impl Draw {
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(i as u64)
    }

    fn float(&self, i: usize) -> f64 {
        self.floats.get(i).copied().unwrap_or(-0.0)
    }

    fn text(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }

    fn ids(&self) -> Vec<u64> {
        self.words
            .iter()
            .take(self.bytes.len() % 5)
            .copied()
            .collect()
    }

    fn curve(&self) -> Vec<f64> {
        self.floats.clone()
    }
}

/// Floats that stress the bits: any pattern, NaN payloads, signed
/// zeros, infinities, subnormals.
fn any_float() -> impl Strategy<Value = f64> {
    one_of(vec![
        ints(0u64..u64::MAX).prop_map(f64::from_bits).boxed(),
        weighted(vec![
            (1, -0.0),
            (1, 0.0),
            (1, f64::from_bits(0x7FF8_0000_0000_0BAD)),
            (1, f64::from_bits(0xFFF0_0000_0000_0001)),
            (1, f64::INFINITY),
            (1, f64::NEG_INFINITY),
            (1, f64::from_bits(1)),
        ])
        .boxed(),
    ])
}

fn draws() -> impl Strategy<Value = Draw> {
    (
        ints(0u64..u64::MAX),
        vecs(ints(0u64..u64::MAX), 0..6),
        vecs(any_float(), 0..5),
        vecs(ints(0u16..256).prop_map(|b| b as u8), 0..12),
        vecs(ints(0u16..256).prop_map(|b| b as u8), 0..65),
    )
        .prop_map(|(pick, words, floats, bytes, junk)| Draw {
            pick,
            words,
            floats,
            bytes,
            junk,
        })
}

fn task(d: &Draw, i: usize) -> WireTask {
    WireTask {
        id: d.word(i),
        weight: d.float(i),
        arrival: d.float(i + 1),
        timeout: d.word(i + 1).is_multiple_of(2).then(|| d.float(i + 2)),
        demand: d.curve(),
        blocks: d.ids(),
    }
}

fn trace(d: &Draw, i: usize) -> TraceContext {
    TraceContext {
        trace: d.word(i),
        span: d.word(i + 1),
    }
}

fn code(d: &Draw) -> ErrorCode {
    let codes: Vec<ErrorCode> = (0..1024).filter_map(ErrorCode::from_u16).collect();
    codes[(d.pick / 31) as usize % codes.len()]
}

fn request(d: &Draw) -> RequestFrame {
    let n = d.bytes.len() % 3;
    let body = match d.pick % 15 {
        0 => Request::Hello {
            token: (n > 0).then(|| d.text()),
        },
        1 => Request::Submit {
            tenant: d.word(0) as u32,
            task: task(d, 1),
            trace: (n > 0).then(|| trace(d, 2)),
        },
        2 => Request::SubmitBatch {
            tenant: d.word(0) as u32,
            tasks: (0..n).map(|i| task(d, i)).collect(),
            traces: match d.word(3) % 2 {
                0 => Vec::new(),
                _ => (0..n).map(|i| trace(d, i)).collect(),
            },
        },
        3 => Request::RegisterBlock {
            id: d.word(0),
            arrival: d.float(0),
            capacity: d.curve(),
        },
        4 => Request::Stats,
        5 => Request::Snapshot { now: d.float(1) },
        6 => Request::Metrics,
        7 => Request::Trace { since: d.word(0) },
        8 => Request::Replicate {
            term: d.word(0),
            shard: d.word(1) as u32,
            seq: d.word(2),
            records: (0..n).map(|i| d.bytes[i..].to_vec()).collect(),
            traces: d.ids(),
        },
        9 => Request::Ping {
            term: d.word(0),
            vector: d.ids(),
        },
        10 => Request::Vote {
            term: d.word(0),
            candidate: d.word(1),
            ballot: d.ids(),
        },
        11 => Request::ResyncStream {
            term: d.word(0),
            shard: d.word(1) as u32,
            base_seq: d.word(2),
            snapshot: encode_snapshot(&snapshot(d)),
        },
        12 => Request::ResyncCommit {
            term: d.word(0),
            lineage: d.word(1),
        },
        13 => Request::ClusterStatus,
        _ => Request::SpanDump { since: d.word(0) },
    };
    RequestFrame {
        id: d.word(5),
        body,
    }
}

fn outcome(d: &Draw, i: usize) -> Outcome {
    match d.word(i) % 3 {
        0 => Outcome::Granted {
            allocated_at: d.float(i),
        },
        1 => Outcome::Rejected {
            code: code(d),
            message: d.text(),
        },
        _ => Outcome::Evicted,
    }
}

fn sample(d: &Draw, i: usize) -> Sample {
    let value = match d.word(i) % 3 {
        0 => Value::Counter(d.word(i + 1)),
        1 => Value::Gauge(d.float(i)),
        _ => {
            let h = Histogram::new();
            for w in &d.words {
                h.record(*w >> (w % 64));
            }
            Value::Histogram(Box::new(h.snapshot()))
        }
    };
    Sample {
        name: d.text(),
        labels: format!("shard=\"{i}\""),
        value,
    }
}

fn peer(d: &Draw, i: usize) -> WirePeer {
    WirePeer {
        id: d.word(i),
        addr: d.text(),
        state: (d.word(i + 1) % 3) as u8,
        term: d.word(i + 2),
        is_primary: d.word(i + 3) % 2 == 1,
        lag: d.ids(),
        backoff_nanos: d.word(i + 4),
        resyncs: d.word(i + 5),
    }
}

fn response(d: &Draw) -> ResponseFrame {
    let n = d.bytes.len() % 3;
    let body = match d.pick % 15 {
        0 => Response::Hello { alphas: d.curve() },
        1 => Response::Decision {
            task: d.word(0),
            outcome: outcome(d, 1),
        },
        2 => Response::BatchDecision {
            decisions: (0..n).map(|i| (d.word(i), outcome(d, i))).collect(),
        },
        3 => Response::BlockRegistered { id: d.word(0) },
        4 => Response::Stats(WireStats {
            submitted: d.word(0),
            admitted: d.word(1),
            rejected: d.word(2),
            granted: d.word(3),
            evicted: d.word(4),
            cycles: d.word(5),
            granted_weight: d.float(0),
            throughput: d.float(1),
            queue_depth: d.word(6),
            pending: d.word(7),
        }),
        5 => Response::Snapshot {
            blocks: (0..n).map(|i| (d.word(i), d.curve())).collect(),
        },
        6 => Response::Error {
            code: code(d),
            message: d.text(),
        },
        7 => Response::Metrics {
            samples: (0..n).map(|i| sample(d, i)).collect(),
        },
        8 => Response::Trace {
            events: (0..n)
                .map(|i| Event {
                    seq: d.word(i),
                    kind: EventKind::from_u8(1 + (d.word(i + 1) % 15) as u8).expect("kinds 1..=15"),
                    a: d.word(i + 2),
                    b: d.float(i).to_bits(),
                })
                .collect(),
        },
        9 => Response::ReplicateAck {
            shard: d.word(0) as u32,
            seq: d.word(1),
            durable: d.word(2),
        },
        10 => Response::Pong {
            term: d.word(0),
            is_primary: d.word(1).is_multiple_of(2),
            lineage: d.word(2),
            vector: d.ids(),
        },
        11 => Response::VoteReply {
            term: d.word(0),
            granted: d.word(1) % 2 == 1,
        },
        12 => Response::ResyncAck {
            stream: d.word(0) as u32,
            durable: d.word(1),
        },
        13 => Response::ClusterStatus(WireClusterStatus {
            node_id: d.word(0),
            is_primary: d.word(1).is_multiple_of(2),
            term: d.word(2),
            leader: d.word(3),
            vector: d.ids(),
            peers: (0..n).map(|i| peer(d, i)).collect(),
        }),
        _ => Response::SpanDump {
            spans: (0..n)
                .map(|i| Span {
                    seq: d.word(i),
                    trace: d.word(i + 1),
                    span: d.word(i + 2),
                    parent: d.word(i + 3),
                    kind: SpanKind::from_u8(1 + (d.word(i) % 11) as u8).expect("kinds 1..=11"),
                    node: d.word(i + 4),
                    start_nanos: d.word(i + 5),
                    end_nanos: d.word(i),
                    a: d.float(i).to_bits(),
                })
                .collect(),
        },
    };
    ResponseFrame {
        id: d.word(5),
        body,
    }
}

fn snapshot(d: &Draw) -> Vec<BlockState> {
    (0..d.bytes.len() % 3)
        .map(|i| BlockState {
            id: d.word(i),
            arrival: d.float(i),
            total: d.curve(),
            consumed: d.curve().into_iter().rev().collect(),
            granted: d.word(i + 1),
        })
        .collect()
}

fn record(d: &Draw) -> LogRecord {
    let shard = d.word(0) as u32;
    match d.pick % 7 {
        0 => LogRecord::Block {
            shard,
            id: d.word(1),
            arrival: d.float(0),
            capacity: d.curve(),
        },
        1 => LogRecord::Apply {
            shard,
            task: d.word(1),
            demand: d.curve(),
            blocks: d.ids(),
        },
        2 => LogRecord::Intent {
            shard,
            attempt: d.word(2),
            task: d.word(1),
            demand: d.curve(),
            blocks: d.ids(),
        },
        3 => LogRecord::Commit {
            attempt: d.word(1),
            task: d.word(2),
        },
        4 => LogRecord::Abort {
            attempt: d.word(1),
            task: d.word(2),
        },
        5 => LogRecord::Base {
            stream: ReplStream::Shard(shard),
            seq: d.word(1),
            snapshot: encode_snapshot(&snapshot(d)),
        },
        _ => LogRecord::Base {
            stream: ReplStream::Coordinator,
            seq: d.word(1),
            snapshot: Vec::new(),
        },
    }
}

/// The five laws for one codec on one drawn value. `typed` says whether
/// a decode error is the codec's typed error.
fn laws<T: Debug, E: Debug>(
    value: &T,
    min_bytes: usize,
    junk: &[u8],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    typed: impl Fn(&E) -> bool,
) -> PropResult {
    let must_fail = |bytes: &[u8], what: &str| match decode(bytes) {
        Err(e) if typed(&e) => Ok(()),
        other => Err(Failed::new(format!("{what} of {value:?}: {other:?}"))),
    };
    let bytes = encode(value);
    prop_assert!(
        bytes.len() >= min_bytes,
        "{value:?} encodes to {} bytes, under MIN_BYTES {min_bytes}",
        bytes.len()
    );
    let back = decode(&bytes).map_err(|e| Failed::new(format!("{value:?}: {e:?}")))?;
    prop_assert_eq!(encode(&back), bytes.clone(), "{value:?} lost bits");
    prop_assert_eq!(format!("{back:?}"), format!("{value:?}"));
    for cut in 0..bytes.len() {
        must_fail(&bytes[..cut], &format!("the {cut}-byte prefix"))?;
    }
    let mut longer = bytes.clone();
    longer.push(junk.first().copied().unwrap_or(0));
    must_fail(&longer, "one extra byte")?;
    let mut behind = bytes[..junk.len().min(bytes.len())].to_vec();
    behind.extend_from_slice(junk);
    for input in [junk, &behind[..]] {
        if let Err(e) = decode(input) {
            prop_assert!(typed(&e), "junk {input:?} failed untyped: {e:?}");
        }
    }
    Ok(())
}

fn protocol(e: &NetError) -> bool {
    matches!(e, NetError::Protocol(_))
}

fn corrupt(e: &WalError) -> bool {
    matches!(e, WalError::Corrupt(_))
}

#[test]
fn every_codec_round_trips_and_refuses_prefixes_trailers_and_junk_typed() {
    check_cases(
        "every_codec_round_trips_and_refuses_prefixes_trailers_and_junk_typed",
        CASES,
        draws(),
        |d| {
            laws(
                &request(d),
                RequestFrame::MIN_BYTES,
                &d.junk,
                RequestFrame::encode,
                RequestFrame::decode,
                protocol,
            )?;
            laws(
                &response(d),
                ResponseFrame::MIN_BYTES,
                &d.junk,
                ResponseFrame::encode,
                ResponseFrame::decode,
                protocol,
            )?;
            laws(
                &record(d),
                LogRecord::MIN_BYTES,
                &d.junk,
                LogRecord::encode,
                LogRecord::decode,
                corrupt,
            )?;
            laws(
                &snapshot(d),
                <Vec<BlockState>>::MIN_BYTES,
                &d.junk,
                |blocks| encode_snapshot(blocks),
                decode_snapshot,
                corrupt,
            )?;
            // A record's head reads no further than its stream and kind
            // (and a base's seq), so junk may pass; it must not panic.
            if let Err(e) = LogRecord::head(&d.junk) {
                prop_assert!(corrupt(&e), "head of junk failed untyped: {e:?}");
            }
            Ok(())
        },
    );
}
