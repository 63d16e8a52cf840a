//! WAL record formats for the durable ledger.
//!
//! Each ledger shard owns one `dpack-wal` log; a coordinator log holds
//! the cross-shard two-phase-commit decisions. This module is the
//! formats only — who appends what, when, and what a failed append
//! undoes is `journal.rs`, the one module that uses them. The records:
//!
//! * Shard log — [`ShardRecord::Block`] (a registration),
//!   [`ShardRecord::Apply`] (a single-shard grant, logged *before* the
//!   staged filter mutation becomes visible), and
//!   [`ShardRecord::Intent`] (this shard's slice of a cross-shard
//!   grant, logged before the coordinator decision).
//! * Coordinator log — [`CoordRecord::Commit`] / [`CoordRecord::Abort`]
//!   keyed by a service-unique *attempt id*, so a task id reused after
//!   a grant (ids become reusable once resolved) can never alias an
//!   earlier attempt's decision.
//!
//! Recovery replays each shard log in append order, applying `Apply`
//! unconditionally and `Intent` iff the coordinator log contains a
//! `Commit` for its attempt — presumed abort: an intent whose decision
//! never became durable charges nothing anywhere, which is what makes
//! cross-shard grants atomic across crashes. Because every record is
//! appended (and acknowledged) under the same shard lock that orders
//! the in-memory mutations, replay reproduces the exact mutation
//! order, and float composition being replayed in that order makes the
//! recovered filter state **bit-identical** — the property the
//! recovery suites assert.
//!
//! All integers and `f64` bit patterns are little-endian; curves are
//! stored as raw `f64::to_bits` so round-trips are exact.

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{BlockId, TaskId};
use dpack_wal::WalError;

/// A record in one shard's log.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRecord {
    /// A block registered on this shard.
    Block {
        /// The block id.
        id: BlockId,
        /// Its arrival time.
        arrival: f64,
        /// Its total capacity curve (per-order values).
        capacity: Vec<f64>,
    },
    /// A single-shard grant: `demand` charged on `blocks`, all owned by
    /// this shard. Durable before the mutation becomes visible.
    Apply {
        /// The granted task.
        task: TaskId,
        /// The task's demand curve.
        demand: Vec<f64>,
        /// The charged blocks (this shard owns all of them).
        blocks: Vec<BlockId>,
    },
    /// This shard's slice of a cross-shard grant; applied on recovery
    /// iff the coordinator committed the attempt.
    Intent {
        /// The service-unique attempt id.
        attempt: u64,
        /// The granted task.
        task: TaskId,
        /// The task's demand curve.
        demand: Vec<f64>,
        /// The charged blocks on this shard only.
        blocks: Vec<BlockId>,
    },
}

/// A record in the coordinator's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordRecord {
    /// Every involved shard's intent is durable; the grant is decided.
    Commit {
        /// The attempt this decision is for.
        attempt: u64,
        /// The task (for observability; recovery keys on `attempt`).
        task: TaskId,
    },
    /// The attempt was abandoned after some intents were written
    /// (advisory — recovery presumes abort for undecided attempts).
    Abort {
        /// The attempt this decision is for.
        attempt: u64,
        /// The task.
        task: TaskId,
    },
}

/// Persisted per-block state inside a shard snapshot.
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

fn corrupt(what: &str) -> WalError {
    WalError::Corrupt(what.to_string())
}

// ---- primitive little-endian codec ----------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("record list exceeds u32 length");
    buf.extend_from_slice(&n.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_len(buf, vs.len());
    for v in vs {
        put_f64(buf, *v);
    }
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_len(buf, vs.len());
    for v in vs {
        put_u64(buf, *v);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.bytes.len() < n {
            return Err(corrupt("record truncated"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a list length and validates it against the bytes actually
    /// remaining (`elem_bytes` per element) — a corrupt length prefix
    /// must surface as [`WalError::Corrupt`], never as a huge
    /// allocation request.
    fn list_len(&mut self, elem_bytes: usize) -> Result<usize, WalError> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().expect("sized")) as usize;
        if n.checked_mul(elem_bytes)
            .is_none_or(|b| b > self.bytes.len())
        {
            return Err(corrupt("list length exceeds the record"));
        }
        Ok(n)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WalError> {
        let n = self.list_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WalError> {
        let n = self.list_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn done(self) -> Result<(), WalError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after record"))
        }
    }
}

// ---- record codecs ---------------------------------------------------

const TAG_BLOCK: u8 = 1;
const TAG_APPLY: u8 = 2;
const TAG_INTENT: u8 = 3;
const TAG_COMMIT: u8 = 1;
const TAG_ABORT: u8 = 2;

impl ShardRecord {
    /// Serializes the record into a fresh buffer (cold paths; the
    /// commit paths stage into a reusable scratch via
    /// [`encode_apply_into`] and [`encode_intent_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Self::Block {
                id,
                arrival,
                capacity,
            } => {
                buf.push(TAG_BLOCK);
                put_u64(&mut buf, *id);
                put_f64(&mut buf, *arrival);
                put_f64s(&mut buf, capacity);
            }
            Self::Apply {
                task,
                demand,
                blocks,
            } => encode_apply_into(&mut buf, *task, demand, blocks),
            Self::Intent {
                attempt,
                task,
                demand,
                blocks,
            } => encode_intent_into(&mut buf, *attempt, *task, demand, blocks),
        }
        buf
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on an unknown tag or malformed body.
    pub fn decode(bytes: &[u8]) -> Result<Self, WalError> {
        let mut r = Reader::new(bytes);
        let record = match r.u8()? {
            TAG_BLOCK => Self::Block {
                id: r.u64()?,
                arrival: r.f64()?,
                capacity: r.f64s()?,
            },
            TAG_APPLY => Self::Apply {
                task: r.u64()?,
                demand: r.f64s()?,
                blocks: r.u64s()?,
            },
            TAG_INTENT => Self::Intent {
                attempt: r.u64()?,
                task: r.u64()?,
                demand: r.f64s()?,
                blocks: r.u64s()?,
            },
            tag => return Err(WalError::Corrupt(format!("unknown shard record tag {tag}"))),
        };
        r.done()?;
        Ok(record)
    }
}

impl CoordRecord {
    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, attempt, task) = match self {
            Self::Commit { attempt, task } => (TAG_COMMIT, *attempt, *task),
            Self::Abort { attempt, task } => (TAG_ABORT, *attempt, *task),
        };
        let mut buf = Vec::with_capacity(17);
        buf.push(tag);
        put_u64(&mut buf, attempt);
        put_u64(&mut buf, task);
        buf
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on an unknown tag or malformed body.
    pub fn decode(bytes: &[u8]) -> Result<Self, WalError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let attempt = r.u64()?;
        let task = r.u64()?;
        r.done()?;
        match tag {
            TAG_COMMIT => Ok(Self::Commit { attempt, task }),
            TAG_ABORT => Ok(Self::Abort { attempt, task }),
            tag => Err(WalError::Corrupt(format!(
                "unknown coordinator record tag {tag}"
            ))),
        }
    }
}

/// Encodes an [`ShardRecord::Apply`] directly from borrowed parts —
/// the hot commit path stages records without building the owned enum
/// (no demand/blocks `Vec` clones, no per-record buffer).
pub fn encode_apply_into(buf: &mut Vec<u8>, task: TaskId, demand: &[f64], blocks: &[BlockId]) {
    buf.push(TAG_APPLY);
    put_u64(buf, task);
    put_f64s(buf, demand);
    put_u64s(buf, blocks);
}

/// Encodes a [`ShardRecord::Intent`] directly from borrowed parts.
pub fn encode_intent_into(
    buf: &mut Vec<u8>,
    attempt: u64,
    task: TaskId,
    demand: &[f64],
    blocks: &[BlockId],
) {
    buf.push(TAG_INTENT);
    put_u64(buf, attempt);
    put_u64(buf, task);
    put_f64s(buf, demand);
    put_u64s(buf, blocks);
}

/// Serializes a shard snapshot (every block's persisted state).
pub fn encode_snapshot(blocks: &[BlockState]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_len(&mut buf, blocks.len());
    for b in blocks {
        put_u64(&mut buf, b.id);
        put_f64(&mut buf, b.arrival);
        put_f64s(&mut buf, &b.total);
        put_f64s(&mut buf, &b.consumed);
        put_u64(&mut buf, b.granted);
    }
    buf
}

/// Deserializes a shard snapshot.
///
/// # Errors
///
/// [`WalError::Corrupt`] on a malformed payload.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<BlockState>, WalError> {
    let mut r = Reader::new(bytes);
    // Each block state is at least id + arrival + two list lengths +
    // granted = 28 bytes; bounding by that keeps a corrupt count from
    // turning into a huge allocation.
    let n = r.list_len(28)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(BlockState {
            id: r.u64()?,
            arrival: r.f64()?,
            total: r.f64s()?,
            consumed: r.f64s()?,
            granted: r.u64()?,
        });
    }
    r.done()?;
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_records_round_trip_bit_exactly() {
        let records = [
            ShardRecord::Block {
                id: 7,
                arrival: 1.25,
                capacity: vec![1.0, 0.1 + 0.2, f64::MIN_POSITIVE],
            },
            ShardRecord::Apply {
                task: u64::MAX,
                demand: vec![0.3, -0.0],
                blocks: vec![1, 9, 42],
            },
            ShardRecord::Intent {
                attempt: 3,
                task: 8,
                demand: vec![],
                blocks: vec![0],
            },
        ];
        for rec in &records {
            let back = ShardRecord::decode(&rec.encode()).unwrap();
            assert_eq!(&back, rec);
        }
        // Bit-exactness of awkward floats (0.1+0.2 is not 0.3).
        if let ShardRecord::Block { capacity, .. } =
            ShardRecord::decode(&records[0].encode()).unwrap()
        {
            assert_eq!(capacity[1].to_bits(), (0.1f64 + 0.2).to_bits());
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_records_byte_for_byte() {
        // The zero-copy staging path must stay wire-compatible with
        // the enum codecs recovery decodes with.
        let demand = vec![0.25, 0.1 + 0.2];
        let blocks = vec![3u64, 9];
        let mut buf = Vec::new();
        encode_apply_into(&mut buf, 42, &demand, &blocks);
        assert_eq!(
            buf,
            ShardRecord::Apply {
                task: 42,
                demand: demand.clone(),
                blocks: blocks.clone(),
            }
            .encode()
        );
        buf.clear();
        encode_intent_into(&mut buf, 7, 42, &demand, &blocks);
        assert_eq!(
            buf,
            ShardRecord::Intent {
                attempt: 7,
                task: 42,
                demand,
                blocks,
            }
            .encode()
        );
    }

    #[test]
    fn coord_records_round_trip() {
        for rec in [
            CoordRecord::Commit {
                attempt: 5,
                task: 2,
            },
            CoordRecord::Abort {
                attempt: 6,
                task: 3,
            },
        ] {
            assert_eq!(CoordRecord::decode(&rec.encode()).unwrap(), rec);
        }
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
        assert!(ShardRecord::decode(&[]).is_err());
        assert!(ShardRecord::decode(&[99]).is_err());
        assert!(CoordRecord::decode(&[1, 2, 3]).is_err());
        assert!(decode_snapshot(&[1, 0, 0, 0]).is_err());
        // Trailing garbage is rejected, not ignored.
        let mut bytes = CoordRecord::Commit {
            attempt: 1,
            task: 1,
        }
        .encode();
        bytes.push(0);
        assert!(CoordRecord::decode(&bytes).is_err());
    }

    #[test]
    fn huge_length_prefixes_are_corrupt_not_allocations() {
        // A snapshot count of u32::MAX must error out, not attempt a
        // multi-hundred-GB preallocation.
        assert!(decode_snapshot(&[0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        // Same for a record's inner list lengths.
        let mut bytes = vec![TAG_APPLY];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // Task id.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // Demand len.
        assert!(ShardRecord::decode(&bytes).is_err());
    }
}
