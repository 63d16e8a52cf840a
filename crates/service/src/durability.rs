//! WAL record formats for the durable ledger.
//!
//! A durable ledger writes **one** `dpack-wal` log. Every record in it
//! belongs to one *stream* — a shard's, or the cross-shard
//! coordinator's — and names it in a tag ahead of its body, so the one
//! log carries what would otherwise be one log per shard plus a
//! coordinator log, and a commit step is one write + one sync however
//! many streams it touches:
//!
//! ```text
//! ┌───────────┬──────────────────────┬─────────┬──────┐
//! │ stream u8 │ shard u32 LE         │ kind u8 │ body │
//! │ 1 = shard │ (shard streams only) │         │      │
//! │ 2 = coord │                      │         │      │
//! └───────────┴──────────────────────┴─────────┴──────┘
//! ```
//!
//! This module is the formats only — who appends what, when, and what
//! a failed append undoes is `journal.rs`, the one module that writes
//! them. The records ([`LogRecord`]):
//!
//! * Shard streams — [`LogRecord::Block`] (a registration),
//!   [`LogRecord::Apply`] (a single-shard grant, logged *before* the
//!   staged filter mutation becomes visible), and
//!   [`LogRecord::Intent`] (this shard's slice of a cross-shard grant,
//!   logged before the coordinator decision).
//! * The coordinator stream — [`LogRecord::Commit`] /
//!   [`LogRecord::Abort`] keyed by a service-unique *attempt id*, so a
//!   task id reused after a grant (ids become reusable once resolved)
//!   can never alias an earlier attempt's decision.
//! * Either stream — [`LogRecord::Base`], written only by a replica's
//!   resync: the stream restarts from a snapshot at a replication
//!   sequence number, superseding everything the stream logged before.
//!
//! Recovery folds the log shard by shard, each shard's records in log
//! order, applying `Apply` unconditionally and `Intent` iff the
//! coordinator stream contains a `Commit` for its attempt — presumed
//! abort: an intent whose decision never became durable charges nothing
//! anywhere, which is what makes cross-shard grants atomic across
//! crashes. Because a shard's records are appended (and acknowledged)
//! under the same shard lock that orders its in-memory mutations, its
//! stream reproduces the exact mutation order, and float composition
//! being replayed in that order makes the recovered filter state
//! **bit-identical** — the property the recovery suites assert.
//!
//! A compaction snapshot and a resync base hold their blocks'
//! persisted states ([`encode_snapshot`]).
//!
//! Every field is written and read by [`dpack_wal::codec`], the one
//! place the field rules live (little-endian integers, curves as raw
//! `f64::to_bits` so round-trips are exact, `u32`-counted lists).

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{BlockId, TaskId};
use dpack_wal::codec::{self, Codec, CodecError, Reader};
use dpack_wal::WalError;

use crate::replication::ReplStream;

/// One record of the ledger's log; every record belongs to one stream.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A block registered on shard `shard`.
    Block {
        /// The shard whose stream the record is on.
        shard: u32,
        /// The block id.
        id: BlockId,
        /// Its arrival time.
        arrival: f64,
        /// Its total capacity curve (per-order values).
        capacity: Vec<f64>,
    },
    /// A single-shard grant: `demand` charged on `blocks`, all owned by
    /// shard `shard`. Durable before the mutation becomes visible.
    Apply {
        /// The shard whose stream the record is on.
        shard: u32,
        /// The granted task.
        task: TaskId,
        /// The task's demand curve.
        demand: Vec<f64>,
        /// The charged blocks.
        blocks: Vec<BlockId>,
    },
    /// Shard `shard`'s slice of a cross-shard grant; applied on
    /// recovery iff the coordinator committed the attempt.
    Intent {
        /// The shard whose stream the record is on.
        shard: u32,
        /// The service-unique attempt id.
        attempt: u64,
        /// The granted task.
        task: TaskId,
        /// The task's demand curve.
        demand: Vec<f64>,
        /// The charged blocks on this shard only.
        blocks: Vec<BlockId>,
    },
    /// On the coordinator's stream: every involved shard's intent of
    /// `attempt` is durable; the grant is decided.
    Commit {
        /// The attempt this decision is for.
        attempt: u64,
        /// The task (for observability; recovery keys on `attempt`).
        task: TaskId,
    },
    /// On the coordinator's stream: `attempt` was abandoned after its
    /// intents were written (advisory — recovery presumes abort for
    /// undecided attempts).
    Abort {
        /// The attempt this decision is for.
        attempt: u64,
        /// The task.
        task: TaskId,
    },
    /// A replica's resync base: `stream` restarts at replication
    /// sequence `seq` from `snapshot` (a shard snapshot,
    /// [`encode_snapshot`]; empty for the coordinator), and nothing the
    /// stream logged before counts any more.
    Base {
        /// The re-based stream.
        stream: ReplStream,
        /// The primary's sequence number the snapshot covers.
        seq: u64,
        /// The stream's state at `seq`.
        snapshot: Vec<u8>,
    },
}

dpack_wal::codec_struct! {
    /// Persisted per-block state inside a snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BlockState {
        /// The block id.
        pub id: BlockId,
        /// Arrival time.
        pub arrival: f64,
        /// Total capacity values.
        pub total: Vec<f64>,
        /// Cumulative consumption values (exact bit patterns).
        pub consumed: Vec<f64>,
        /// Demands granted so far.
        pub granted: u64,
    }
}

impl BlockState {
    /// Restores the in-memory ledger entry.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] if the persisted curves do not fit `grid`.
    pub fn to_ledger(&self, grid: &AlphaGrid) -> Result<dpack_core::online::BlockLedger, WalError> {
        let total = curve(grid, &self.total)?;
        let consumed = curve(grid, &self.consumed)?;
        dpack_core::online::BlockLedger::restore(total, self.arrival, consumed, self.granted)
            .map_err(|e| WalError::Corrupt(format!("block {}: {e}", self.id)))
    }
}

fn curve(grid: &AlphaGrid, values: &[f64]) -> Result<RdpCurve, WalError> {
    RdpCurve::new(grid, values.to_vec())
        .map_err(|e| WalError::Corrupt(format!("persisted curve does not fit the grid: {e}")))
}

const STREAM_SHARD: u8 = 1;
const STREAM_COORD: u8 = 2;
const KIND_BLOCK: u8 = 1;
const KIND_APPLY: u8 = 2;
const KIND_INTENT: u8 = 3;
const KIND_COMMIT: u8 = 1;
const KIND_ABORT: u8 = 2;
const KIND_BASE: u8 = 9;

/// The stream tag a record opens with: 1 and the shard's `u32` index,
/// or 2 for the coordinator.
impl Codec for ReplStream {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            Self::Shard(shard) => (STREAM_SHARD, shard).put(out),
            Self::Coordinator => STREAM_COORD.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            STREAM_SHARD => Ok(Self::Shard(r.u32()?)),
            STREAM_COORD => Ok(Self::Coordinator),
            tag => Err(CodecError::new(format!("unknown stream tag {tag}"))),
        }
    }
}

impl Codec for LogRecord {
    /// A coordinator base with an empty snapshot: stream, kind, seq and
    /// the snapshot's count.
    const MIN_BYTES: usize = 2 + 8 + 4;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Self::Block {
                shard,
                id,
                arrival,
                capacity,
            } => {
                (ReplStream::Shard(*shard), KIND_BLOCK).put(out);
                (*id, *arrival).put(out);
                capacity.put(out);
            }
            Self::Apply {
                shard,
                task,
                demand,
                blocks,
            } => encode_apply_into(out, *shard, *task, demand, blocks),
            Self::Intent {
                shard,
                attempt,
                task,
                demand,
                blocks,
            } => encode_intent_into(out, *shard, *attempt, *task, demand, blocks),
            Self::Commit { attempt, task } => {
                (ReplStream::Coordinator, KIND_COMMIT).put(out);
                (*attempt, *task).put(out);
            }
            Self::Abort { attempt, task } => {
                (ReplStream::Coordinator, KIND_ABORT).put(out);
                (*attempt, *task).put(out);
            }
            Self::Base {
                stream,
                seq,
                snapshot,
            } => {
                (*stream, KIND_BASE).put(out);
                seq.put(out);
                snapshot.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match (r.get()?, r.u8()?) {
            (stream, KIND_BASE) => Self::Base {
                stream,
                seq: r.get()?,
                snapshot: r.get()?,
            },
            (ReplStream::Shard(shard), KIND_BLOCK) => Self::Block {
                shard,
                id: r.get()?,
                arrival: r.get()?,
                capacity: r.get()?,
            },
            (ReplStream::Shard(shard), KIND_APPLY) => Self::Apply {
                shard,
                task: r.get()?,
                demand: r.get()?,
                blocks: r.get()?,
            },
            (ReplStream::Shard(shard), KIND_INTENT) => Self::Intent {
                shard,
                attempt: r.get()?,
                task: r.get()?,
                demand: r.get()?,
                blocks: r.get()?,
            },
            (ReplStream::Coordinator, KIND_COMMIT) => Self::Commit {
                attempt: r.get()?,
                task: r.get()?,
            },
            (ReplStream::Coordinator, KIND_ABORT) => Self::Abort {
                attempt: r.get()?,
                task: r.get()?,
            },
            (stream, kind) => {
                return Err(CodecError::new(format!(
                    "record kind {kind} does not exist on stream {stream}"
                )))
            }
        })
    }
}

impl LogRecord {
    /// Serializes the record (the grant paths use the borrowed
    /// [`encode_apply_into`] and [`encode_intent_into`] instead, which
    /// skip building the owned record and encode into a reused buffer).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on an unknown stream tag or kind, a kind
    /// its stream never logs, or a malformed body.
    pub fn decode(bytes: &[u8]) -> Result<Self, WalError> {
        Ok(codec::decode(bytes)?)
    }

    /// The stream a record's bytes belong to and, for a
    /// [`LogRecord::Base`], the sequence number it re-bases at —
    /// without decoding the body.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on an unknown stream tag or bytes too short
    /// to hold the head.
    pub fn head(bytes: &[u8]) -> Result<(ReplStream, Option<u64>), WalError> {
        let mut r = Reader::new(bytes);
        let stream = r.get()?;
        let base = match r.u8()? {
            KIND_BASE => Some(r.u64()?),
            _ => None,
        };
        Ok((stream, base))
    }
}

/// Encodes a [`LogRecord::Apply`] on shard `shard`'s stream directly
/// from borrowed parts — the hot commit path stages records without
/// building the owned record (no demand/blocks `Vec` clones, no
/// per-record buffer).
pub fn encode_apply_into(
    buf: &mut Vec<u8>,
    shard: u32,
    task: TaskId,
    demand: &[f64],
    blocks: &[BlockId],
) {
    (ReplStream::Shard(shard), KIND_APPLY).put(buf);
    task.put(buf);
    demand.put(buf);
    blocks.put(buf);
}

/// Encodes a [`LogRecord::Intent`] on shard `shard`'s stream directly
/// from borrowed parts.
pub fn encode_intent_into(
    buf: &mut Vec<u8>,
    shard: u32,
    attempt: u64,
    task: TaskId,
    demand: &[f64],
    blocks: &[BlockId],
) {
    (ReplStream::Shard(shard), KIND_INTENT).put(buf);
    (attempt, task).put(buf);
    demand.put(buf);
    blocks.put(buf);
}

/// Serializes a snapshot: the persisted state of every block given.
pub fn encode_snapshot(blocks: &[BlockState]) -> Vec<u8> {
    codec::encode(blocks)
}

/// Deserializes a snapshot.
///
/// # Errors
///
/// [`WalError::Corrupt`] on a malformed payload.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<BlockState>, WalError> {
    Ok(codec::decode(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record round-trips exactly, and its head names `stream`
    /// (and a base's seq) without a body decode.
    fn assert_round_trips(stream: ReplStream, records: &[LogRecord]) {
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(&LogRecord::decode(&bytes).unwrap(), rec);
            let base = match rec {
                LogRecord::Base { seq, .. } => Some(*seq),
                _ => None,
            };
            assert_eq!(LogRecord::head(&bytes).unwrap(), (stream, base));
        }
    }

    #[test]
    fn shard_records_round_trip_bit_exactly() {
        let records = [
            LogRecord::Block {
                shard: u32::MAX - 1,
                id: 7,
                arrival: 1.25,
                capacity: vec![1.0, 0.1 + 0.2, f64::MIN_POSITIVE],
            },
            LogRecord::Apply {
                shard: u32::MAX - 1,
                task: u64::MAX,
                demand: vec![0.3, -0.0],
                blocks: vec![1, 9, 42],
            },
            LogRecord::Intent {
                shard: u32::MAX - 1,
                attempt: 3,
                task: 8,
                demand: vec![],
                blocks: vec![0],
            },
            LogRecord::Base {
                stream: ReplStream::Shard(u32::MAX - 1),
                seq: 12,
                snapshot: vec![1, 2, 3],
            },
        ];
        assert_round_trips(ReplStream::Shard(u32::MAX - 1), &records);
        // Bit-exactness of awkward floats (0.1+0.2 is not 0.3).
        if let LogRecord::Block { capacity, .. } = LogRecord::decode(&records[0].encode()).unwrap()
        {
            assert_eq!(capacity[1].to_bits(), (0.1f64 + 0.2).to_bits());
        }
    }

    #[test]
    fn coord_records_round_trip() {
        assert_round_trips(
            ReplStream::Coordinator,
            &[
                LogRecord::Commit {
                    attempt: 5,
                    task: 2,
                },
                LogRecord::Abort {
                    attempt: 6,
                    task: 3,
                },
                LogRecord::Base {
                    stream: ReplStream::Coordinator,
                    seq: 4,
                    snapshot: vec![],
                },
            ],
        );
    }

    #[test]
    fn borrowed_encoders_match_the_owned_records_byte_for_byte() {
        // The zero-copy staging path must stay wire-compatible with
        // the record codec recovery decodes with.
        let demand = vec![0.25, 0.1 + 0.2];
        let blocks = vec![3u64, 9];
        let mut buf = Vec::new();
        encode_apply_into(&mut buf, 3, 42, &demand, &blocks);
        let apply = LogRecord::Apply {
            shard: 3,
            task: 42,
            demand: demand.clone(),
            blocks: blocks.clone(),
        };
        assert_eq!(buf, apply.encode());
        buf.clear();
        encode_intent_into(&mut buf, 3, 7, 42, &demand, &blocks);
        let intent = LogRecord::Intent {
            shard: 3,
            attempt: 7,
            task: 42,
            demand,
            blocks,
        };
        assert_eq!(buf, intent.encode());
    }

    #[test]
    fn snapshots_round_trip() {
        let blocks = vec![
            BlockState {
                id: 0,
                arrival: 0.0,
                total: vec![1.0, 2.0],
                consumed: vec![0.25, 0.5],
                granted: 4,
            },
            BlockState {
                id: 3,
                arrival: 2.5,
                total: vec![1.5, 1.5],
                consumed: vec![0.0, 0.0],
                granted: 0,
            },
        ];
        let back = decode_snapshot(&encode_snapshot(&blocks)).unwrap();
        assert_eq!(back, blocks);
        assert_eq!(decode_snapshot(&encode_snapshot(&[])).unwrap(), vec![]);
    }

    #[test]
    fn malformed_bytes_are_corrupt_not_panics() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[99]).is_err(), "unknown stream tag");
        assert!(LogRecord::head(&[99, 0]).is_err());
        assert!(
            LogRecord::decode(&[STREAM_SHARD, 0, 0]).is_err(),
            "torn shard index"
        );
        assert!(LogRecord::decode(&[STREAM_COORD, 1, 2, 3]).is_err());
        // A kind the stream never logs: an Apply on the coordinator.
        assert!(LogRecord::decode(&[STREAM_COORD, KIND_INTENT]).is_err());
        assert!(decode_snapshot(&[1, 0, 0, 0]).is_err());
        // Trailing garbage is rejected, not ignored.
        let mut bytes = LogRecord::Commit {
            attempt: 1,
            task: 1,
        }
        .encode();
        bytes.push(0);
        assert!(LogRecord::decode(&bytes).is_err());
    }

    #[test]
    fn huge_length_prefixes_are_corrupt_not_allocations() {
        // A snapshot count of u32::MAX must error out, not attempt a
        // multi-hundred-GB preallocation.
        assert!(decode_snapshot(&[0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        // Same for a record's inner list lengths.
        let mut bytes = vec![STREAM_SHARD, 0, 0, 0, 0, KIND_APPLY];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // Task id.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // Demand len.
        assert!(LogRecord::decode(&bytes).is_err());
    }
}
