//! The log itself: framed records over segments, plus snapshots.
//!
//! # On-disk layout
//!
//! A namespace holds segment files `seg-<seq>` and snapshot files
//! `snap-<seq>` (`<seq>` is a 16-hex-digit sequence number, so lexical
//! order is numeric order). Every record — in segments and snapshots
//! alike — is one frame under magic 0xD7 (the frame and its checks live
//! in [`crate::codec`], shared with the wire). A torn tail (a crash mid
//! `append`) leaves a frame whose bytes run out or whose checksum
//! fails; [`Wal::open`] truncates the file at the last valid frame
//! boundary, so recovery always yields a *prefix* of the acknowledged
//! records, never a corrupt or reordered one.
//!
//! # Group commit
//!
//! [`Wal::append_batch`] makes `N` records durable with **one** write
//! and one sync: the records are framed back to back into a reusable
//! scratch buffer, preceded by a batch header — a frame header under
//! 0xD8 with no payload, whose length field is the record count
//! ([`codec::batch_header_into`]) — and the whole thing is handed to
//! the storage as a single append. Each record keeps its own frame, so
//! a crash inside the batch tears at most one record — but a batch is
//! acknowledged as a unit, so recovery treats it as a unit too: a
//! header whose `count` frames are not all intact marks the torn tail,
//! and truncation drops the batch wholesale (only the torn suffix of
//! the log — everything before the header is untouched). The invariant callers rely on is therefore
//! unchanged by batching: **a record is recovered iff its append was
//! acknowledged** — never a prefix of a failed batch, which would
//! surface grants the caller already released.
//!
//! A snapshot file holds one framed record: the caller's compacted
//! state. `snap-<seq>` means "this state covers every segment with
//! sequence `< seq`"; [`Wal::snapshot`] writes the new snapshot first
//! and only then deletes the segments it covers (and older snapshots),
//! so a crash anywhere in between recovers either the old
//! snapshot+segments or the new snapshot — never a gap.

use std::fmt;
use std::io;

use crate::codec::{self, Frame, HEADER};
use crate::storage::WalStorage;

/// First byte of every frame; anything else is corruption.
const MAGIC: u8 = 0xD7;
/// First byte of a batch header: `count` record frames follow and are
/// valid only as a unit.
const MAGIC_BATCH: u8 = 0xD8;
/// Upper bound on a single record, to reject absurd torn lengths fast.
const MAX_RECORD: u32 = 1 << 28;
/// Upper bound on records per batch, for the same reason.
const MAX_BATCH: u32 = 1 << 20;

/// An error from the WAL.
#[derive(Debug)]
pub enum WalError {
    /// A storage operation failed. After a failed append the log is
    /// [broken](WalError::Broken) — the tail may be torn.
    Io(io::Error),
    /// Persistent state that cannot be interpreted (decode errors in
    /// the caller's payloads surface here too).
    Corrupt(String),
    /// The log refused an operation because an earlier append failed:
    /// appending after a torn tail would bury garbage inside the
    /// stream. Reopen (which truncates the tail) to resume.
    Broken,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Corrupt(what) => write!(f, "wal corrupt: {what}"),
            Self::Broken => write!(
                f,
                "wal broken by an earlier failed append; reopen to resume"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// WAL tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 1 << 20,
        }
    }
}

/// What [`Wal::open`] found: the latest snapshot (if any) and every
/// record appended after it, in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The payload of the newest valid snapshot.
    pub snapshot: Option<Vec<u8>>,
    /// Records appended since that snapshot, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn tail was truncated during open.
    pub truncated_tail: bool,
    /// The append operations recovered since that snapshot, oldest
    /// first, as the number of `records` each contributed: 1 for a
    /// singleton record, the count for an all-or-nothing batch (a
    /// one-record [`Wal::append_batch`] writes no batch header, so it
    /// is a unit of 1 like the plain append it degenerates to). A
    /// replication replica that applies exactly one append per shipped
    /// batch resumes its stream sequences from this.
    pub units: Vec<usize>,
}

/// Cumulative write counters of one [`Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Records acknowledged by [`Wal::append`] and
    /// [`Wal::append_batch`].
    pub records: u64,
    /// Framed bytes acknowledged (headers included).
    pub bytes: u64,
    /// Snapshots taken by [`Wal::snapshot`].
    pub snapshots: u64,
    /// Storage writes acknowledged — each is one write + one sync on a
    /// syncing backend, so this is the fsync count group commit
    /// amortizes. Appends, batch flushes, and snapshot writes all
    /// count one each.
    pub syncs: u64,
    /// Batches acknowledged by [`Wal::append_batch`].
    pub batches: u64,
    /// Records acknowledged inside batches (`records` minus the
    /// singleton appends).
    pub batched_records: u64,
    /// Smallest acknowledged batch (0 until the first batch).
    pub batch_min: u64,
    /// Largest acknowledged batch.
    pub batch_max: u64,
}

impl WalCounters {
    /// Folds another log's counters into this one (aggregating across
    /// a multi-log service). Keeps the `batch_min == 0 ⇒ no batches
    /// yet` convention in one place.
    pub fn absorb(&mut self, other: WalCounters) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.snapshots += other.snapshots;
        self.syncs += other.syncs;
        self.batches += other.batches;
        self.batched_records += other.batched_records;
        self.batch_max = self.batch_max.max(other.batch_max);
        if other.batch_min > 0 {
            self.batch_min = if self.batch_min == 0 {
                other.batch_min
            } else {
                self.batch_min.min(other.batch_min)
            };
        }
    }
}

/// What one acknowledged [`Wal::append_batch`] made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Records in the batch.
    pub records: usize,
    /// Framed bytes written (batch header included).
    pub bytes: u64,
}

/// Observability hooks one [`Wal`] reports into (see
/// [`Wal::instrument`]). All handles come from `dpack-obs`; a disabled
/// histogram makes every record a single branch.
#[derive(Debug, Clone)]
pub struct WalTelemetry {
    /// The time seam the append latency spans are measured on.
    pub clock: std::sync::Arc<dyn dpack_obs::Clock>,
    /// Latency of each storage write+sync (`dpack_wal_append_nanos`):
    /// the fsync cost group commit amortizes.
    pub append_nanos: dpack_obs::Histogram,
    /// Acknowledged batch sizes (`dpack_wal_batch_records`).
    pub batch_records: dpack_obs::Histogram,
}

/// An append-only write-ahead log over a [`WalStorage`] namespace.
pub struct Wal {
    storage: Box<dyn WalStorage>,
    opts: WalOptions,
    /// Sequence of the active segment (created lazily on append).
    active_seq: u64,
    active_len: u64,
    broken: bool,
    counters: WalCounters,
    telemetry: Option<WalTelemetry>,
    /// Reusable framing buffer: appends and batch flushes encode into
    /// it instead of allocating per record.
    scratch: Vec<u8>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("active_seq", &self.active_seq)
            .field("active_len", &self.active_len)
            .field("broken", &self.broken)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

fn seg_name(seq: u64) -> String {
    format!("seg-{seq:016x}")
}

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:016x}")
}

fn parse_name(name: &str) -> Option<(bool, u64)> {
    let (is_snap, hex) = if let Some(h) = name.strip_prefix("seg-") {
        (false, h)
    } else if let Some(h) = name.strip_prefix("snap-") {
        (true, h)
    } else {
        return None;
    };
    (hex.len() == 16)
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
        .map(|seq| (is_snap, seq))
}

/// Frames a record payload into `out`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    codec::frame_into(out, MAGIC, MAX_RECORD, payload);
}

/// Frames a payload into a fresh buffer (cold paths and tests; hot
/// paths reuse a scratch buffer via [`frame_into`]).
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    frame_into(&mut out, payload);
    out
}

/// Parses one record frame at `bytes[at..]`; returns the payload and
/// the offset past the frame, or `None` if the frame is torn, corrupt,
/// or not a record frame.
fn parse_record(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    match codec::parse_frame(&bytes[at..], MAGIC, MAX_RECORD) {
        Frame::Whole(payload) => Some((payload, at + HEADER + payload.len())),
        Frame::Short | Frame::Bad(_) => None,
    }
}

/// Parses frames from the start of `bytes`; returns the records, the
/// byte offset of the first invalid frame (== `bytes.len()` when the
/// whole file is valid), and the append units (the record count of
/// each singleton record and each batch, in order). A batch (header + `count` record frames) is
/// valid only as a unit: if any of its frames is torn, the whole batch
/// — from its header on — is the torn tail.
fn parse_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize, Vec<usize>) {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut units = Vec::new();
    while bytes.len() - at >= HEADER {
        match bytes[at] {
            MAGIC => match parse_record(bytes, at) {
                Some((payload, next)) => {
                    records.push(payload.to_vec());
                    at = next;
                    units.push(1);
                }
                None => break,
            },
            MAGIC_BATCH => {
                let Some(count) = codec::parse_batch_header(&bytes[at..], MAGIC_BATCH)
                    .filter(|count| (2..=MAX_BATCH).contains(count))
                else {
                    break;
                };
                // The batch stands or falls as a unit: collect all
                // `count` frames before committing any of them.
                let mut batch = Vec::with_capacity(count as usize);
                let mut cursor = at + HEADER;
                for _ in 0..count {
                    match parse_record(bytes, cursor) {
                        Some((payload, next)) => {
                            batch.push(payload.to_vec());
                            cursor = next;
                        }
                        None => break,
                    }
                }
                if batch.len() < count as usize {
                    break;
                }
                units.push(batch.len());
                records.append(&mut batch);
                at = cursor;
            }
            _ => break,
        }
    }
    (records, at, units)
}

/// Scans a storage namespace: picks the newest valid snapshot, replays
/// the segments after it in order, truncates a torn tail, removes
/// obsolete files, and returns (recovered state, active segment seq,
/// active segment length).
fn scan(storage: &dyn WalStorage, opts: WalOptions) -> Result<(Recovered, u64, u64), WalError> {
    let mut segs: Vec<u64> = Vec::new();
    let mut snaps: Vec<u64> = Vec::new();
    for name in storage.list()? {
        match parse_name(&name) {
            Some((true, seq)) => snaps.push(seq),
            Some((false, seq)) => segs.push(seq),
            None => {} // Foreign file; leave it alone.
        }
    }
    segs.sort_unstable();
    snaps.sort_unstable();

    // Newest snapshot whose single record validates; torn snapshot
    // files (a crash mid-snapshot) are deleted.
    let mut snapshot: Option<(u64, Vec<u8>)> = None;
    for &seq in snaps.iter().rev() {
        if snapshot.is_some() {
            storage.remove(&snap_name(seq))?;
            continue;
        }
        let bytes = storage.read(&snap_name(seq))?;
        let (mut records, valid, _) = parse_frames(&bytes);
        if records.len() == 1 && valid == bytes.len() {
            snapshot = Some((seq, records.remove(0)));
        } else {
            storage.remove(&snap_name(seq))?;
        }
    }
    let base = snapshot.as_ref().map_or(0, |(seq, _)| *seq);

    // Segments the snapshot covers are obsolete (left behind by a
    // crash between snapshot write and deletion).
    let mut truncated_tail = false;
    let mut records = Vec::new();
    let mut units = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    let mut stop = false;
    for &seq in &segs {
        if seq < base {
            storage.remove(&seg_name(seq))?;
            continue;
        }
        if stop {
            // Everything after a torn segment is unreachable log
            // space; drop it so the prefix property holds.
            storage.remove(&seg_name(seq))?;
            truncated_tail = true;
            continue;
        }
        let bytes = storage.read(&seg_name(seq))?;
        let (recs, valid, unit) = parse_frames(&bytes);
        records.extend(recs);
        units.extend(unit);
        live.push(seq);
        if valid < bytes.len() {
            storage.truncate(&seg_name(seq), valid as u64)?;
            truncated_tail = true;
            stop = true;
        }
    }

    // Resume appending at the tail (or rotate past a full one).
    let (active_seq, active_len) = match live.last() {
        Some(&seq) => {
            let len = storage.read(&seg_name(seq))?.len() as u64;
            if len >= opts.segment_bytes {
                (seq + 1, 0)
            } else {
                (seq, len)
            }
        }
        None => (base, 0),
    };

    Ok((
        Recovered {
            snapshot: snapshot.map(|(_, state)| state),
            records,
            truncated_tail,
            units,
        },
        active_seq,
        active_len,
    ))
}

impl Wal {
    /// Opens (or creates) the log in a storage namespace, recovering
    /// its state: picks the newest valid snapshot, replays the segments
    /// after it in order, truncates a torn tail, and removes files the
    /// snapshot has made obsolete (cleanup a crash mid-[`snapshot`]
    /// may have left behind).
    ///
    /// [`snapshot`]: Wal::snapshot
    ///
    /// # Errors
    ///
    /// Storage errors only — torn tails are repaired, not reported.
    pub fn open(
        storage: Box<dyn WalStorage>,
        opts: WalOptions,
    ) -> Result<(Self, Recovered), WalError> {
        let (recovered, active_seq, active_len) = scan(&*storage, opts)?;
        Ok((
            Self {
                storage,
                opts,
                active_seq,
                active_len,
                broken: false,
                counters: WalCounters::default(),
                telemetry: None,
                scratch: Vec::new(),
            },
            recovered,
        ))
    }

    /// Attaches observability hooks: every subsequent storage
    /// write+sync is timed on the telemetry clock into `append_nanos`,
    /// and every acknowledged batch reports its size into
    /// `batch_records`. Un-instrumented logs skip all of it.
    pub fn instrument(&mut self, telemetry: WalTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Re-scans the storage and resumes a [broken](WalError::Broken)
    /// log: truncates the torn tail a failed append left behind and
    /// accepts appends again. The caller's in-memory state is already
    /// consistent with the repaired log — a mutation only ever outlives
    /// an acknowledged append, and repair removes only unacknowledged
    /// bytes. No-op on a healthy log.
    ///
    /// # Errors
    ///
    /// Storage errors (the storage is still failing); the log stays
    /// broken in that case.
    pub fn repair(&mut self) -> Result<(), WalError> {
        if !self.broken {
            return Ok(());
        }
        let (_, active_seq, active_len) = scan(&*self.storage, self.opts)?;
        self.active_seq = active_seq;
        self.active_len = active_len;
        self.broken = false;
        Ok(())
    }

    /// Appends one record durably; on `Ok` the record survives any
    /// crash.
    ///
    /// # Errors
    ///
    /// A failed append may leave a torn tail, so it marks the log
    /// [`WalError::Broken`]: all further appends fail until reopen.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        if self.broken {
            return Err(WalError::Broken);
        }
        self.scratch.clear();
        frame_into(&mut self.scratch, payload);
        let started = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        let wrote = self
            .storage
            .append(&seg_name(self.active_seq), &self.scratch);
        self.observe_write(started);
        if let Err(e) = wrote {
            self.broken = true;
            return Err(WalError::Io(e));
        }
        self.counters.records += 1;
        self.counters.syncs += 1;
        self.finish_write(self.scratch.len() as u64);
        Ok(())
    }

    /// Appends a batch of records durably with **one** storage write
    /// and one sync — the group-commit primitive. On `Ok` every record
    /// in the batch survives any crash; on `Err` *none* does: the
    /// batch is framed so that recovery drops a partially persisted
    /// batch wholesale (see the module docs), which is what lets a
    /// caller that released the batch's work on failure trust that no
    /// prefix of it resurfaces after reboot.
    ///
    /// An empty batch is a no-op; a single-record batch is equivalent
    /// to [`Wal::append`] (no batch header is written).
    ///
    /// # Errors
    ///
    /// Like [`Wal::append`], a failure marks the log
    /// [`WalError::Broken`] until reopened or repaired.
    pub fn append_batch(&mut self, payloads: &[&[u8]]) -> Result<AppendReceipt, WalError> {
        if self.broken {
            return Err(WalError::Broken);
        }
        if payloads.is_empty() {
            return Ok(AppendReceipt {
                records: 0,
                bytes: 0,
            });
        }
        let count = u32::try_from(payloads.len()).expect("batch exceeds u32 records");
        assert!(
            count <= MAX_BATCH,
            "batch exceeds the {MAX_BATCH}-record cap"
        );
        self.scratch.clear();
        if count >= 2 {
            codec::batch_header_into(&mut self.scratch, MAGIC_BATCH, count);
        }
        for payload in payloads {
            frame_into(&mut self.scratch, payload);
        }
        let started = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        let wrote = self
            .storage
            .append(&seg_name(self.active_seq), &self.scratch);
        self.observe_write(started);
        if let Err(e) = wrote {
            self.broken = true;
            return Err(WalError::Io(e));
        }
        let n = payloads.len() as u64;
        if let Some(t) = &self.telemetry {
            t.batch_records.record(n);
        }
        self.counters.records += n;
        self.counters.syncs += 1;
        self.counters.batches += 1;
        self.counters.batched_records += n;
        self.counters.batch_min = if self.counters.batch_min == 0 {
            n
        } else {
            self.counters.batch_min.min(n)
        };
        self.counters.batch_max = self.counters.batch_max.max(n);
        let bytes = self.scratch.len() as u64;
        self.finish_write(bytes);
        Ok(AppendReceipt {
            records: payloads.len(),
            bytes,
        })
    }

    /// Closes the latency span an instrumented write opened. Failed
    /// writes are timed too: a slow failing disk is exactly what the
    /// histogram should show.
    fn observe_write(&self, started: Option<u64>) {
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            t.append_nanos
                .record(t.clock.now_nanos().saturating_sub(started));
        }
    }

    /// Bookkeeping shared by acknowledged writes: byte counters and
    /// segment rotation.
    fn finish_write(&mut self, bytes: u64) {
        self.active_len += bytes;
        self.counters.bytes += bytes;
        if self.active_len >= self.opts.segment_bytes {
            self.active_seq += 1;
            self.active_len = 0;
        }
    }

    /// Compacts the log: writes `state` as a snapshot covering every
    /// record appended so far, then deletes the covered segments and
    /// older snapshots. After a crash anywhere inside this call,
    /// [`Wal::open`] recovers either the pre-snapshot state or the
    /// post-snapshot state — never a mix.
    ///
    /// # Errors
    ///
    /// A failed snapshot *write* breaks the log like a failed append; a
    /// failed cleanup deletion is reported but leaves the log usable
    /// (open repairs the leftovers).
    pub fn snapshot(&mut self, state: &[u8]) -> Result<(), WalError> {
        if self.broken {
            return Err(WalError::Broken);
        }
        let new_base = self.active_seq + 1;
        let started = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        let wrote = self.storage.append(&snap_name(new_base), &frame(state));
        self.observe_write(started);
        if let Err(e) = wrote {
            self.broken = true;
            return Err(WalError::Io(e));
        }
        self.counters.snapshots += 1;
        self.counters.syncs += 1;
        let old_active = self.active_seq;
        self.active_seq = new_base;
        self.active_len = 0;
        // Cleanup: the snapshot is durable, so failures past this point
        // only leave garbage that the next open removes.
        for name in self.storage.list()? {
            match parse_name(&name) {
                Some((false, seq)) if seq <= old_active => self.storage.remove(&name)?,
                Some((true, seq)) if seq < new_base => self.storage.remove(&name)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether an earlier failed append has broken the log.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Cumulative write counters.
    pub fn counters(&self) -> WalCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;

    fn reopen(storage: &SimStorage) -> (Wal, Recovered) {
        Wal::open(
            Box::new(storage.surviving()),
            WalOptions { segment_bytes: 64 },
        )
        .expect("open on surviving storage")
    }

    #[test]
    fn append_and_recover_in_order() {
        let sim = SimStorage::new();
        let (mut wal, rec) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        assert_eq!(
            rec,
            Recovered {
                snapshot: None,
                records: vec![],
                truncated_tail: false,
                units: vec![]
            }
        );
        for i in 0..20u8 {
            wal.append(&[i; 3]).unwrap();
        }
        assert_eq!(wal.counters().records, 20);
        let (_, rec) = reopen(&sim);
        assert_eq!(
            rec.records,
            (0..20u8).map(|i| vec![i; 3]).collect::<Vec<_>>()
        );
        assert!(!rec.truncated_tail);
        assert_eq!(rec.units, vec![1; 20]);
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let sim = SimStorage::new();
        let (mut wal, _) =
            Wal::open(Box::new(sim.clone()), WalOptions { segment_bytes: 40 }).unwrap();
        for i in 0..10u8 {
            wal.append(&[i; 8]).unwrap();
        }
        let segs = sim
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        assert!(segs > 1, "no rotation happened");
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records.len(), 10);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_acknowledged_prefix() {
        // Find the framed size, then crash inside the 4th record.
        let framed = frame(&[7u8; 5]).len() as u64;
        let sim = SimStorage::with_crash_after(3 * framed + framed / 2);
        let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        for i in 0..3u8 {
            wal.append(&[i; 5]).unwrap();
        }
        assert!(matches!(wal.append(&[3u8; 5]), Err(WalError::Io(_))));
        assert!(matches!(wal.append(&[4u8; 5]), Err(WalError::Broken)));
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records, vec![vec![0u8; 5], vec![1u8; 5], vec![2u8; 5]]);
        assert!(rec.truncated_tail);
    }

    #[test]
    fn snapshot_compacts_and_recovers_suffix() {
        let sim = SimStorage::new();
        let (mut wal, _) =
            Wal::open(Box::new(sim.clone()), WalOptions { segment_bytes: 32 }).unwrap();
        for i in 0..6u8 {
            wal.append(&[i; 4]).unwrap();
        }
        wal.snapshot(b"state-after-6").unwrap();
        wal.append(b"tail").unwrap();
        // Compaction actually removed the old segments.
        let files = sim.list().unwrap();
        assert!(
            files.iter().filter(|n| n.starts_with("seg-")).count() <= 1,
            "{files:?}"
        );
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state-after-6"[..]));
        assert_eq!(rec.records, vec![b"tail".to_vec()]);
    }

    #[test]
    fn crash_during_snapshot_recovers_old_or_new_never_a_mix() {
        // Sweep every byte offset across a snapshot call; recovery must
        // see either the full pre-snapshot log or the full snapshot.
        let records: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 6]).collect();
        let setup_bytes: u64 = records.iter().map(|r| frame(r).len() as u64).sum();
        let snap_bytes = frame(b"compacted").len() as u64;
        for extra in 0..=snap_bytes {
            let sim = SimStorage::with_crash_after(setup_bytes + extra);
            let (mut wal, _) = Wal::open(
                Box::new(sim.clone()),
                WalOptions {
                    segment_bytes: 1 << 20,
                },
            )
            .unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            let snap_result = wal.snapshot(b"compacted");
            let (_, rec) = reopen(&sim);
            if extra < snap_bytes {
                assert!(snap_result.is_err());
                assert_eq!(rec.snapshot, None, "torn snapshot must be discarded");
                assert_eq!(rec.records, records, "pre-snapshot log must survive");
            } else {
                // Snapshot durable; the crash hit cleanup (or nothing).
                assert_eq!(rec.snapshot.as_deref(), Some(&b"compacted"[..]));
                assert_eq!(rec.records, Vec::<Vec<u8>>::new());
            }
        }
    }

    #[test]
    fn repair_resumes_a_log_broken_by_a_transient_fault() {
        let sim = SimStorage::new();
        let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        wal.append(b"before").unwrap();
        sim.set_append_errors(true);
        assert!(matches!(wal.append(b"lost"), Err(WalError::Io(_))));
        assert!(wal.is_broken());
        assert!(matches!(wal.append(b"refused"), Err(WalError::Broken)));
        // Storage heals; repair truncates nothing here (the transient
        // fault persisted no bytes) and accepts appends again.
        sim.set_append_errors(false);
        wal.repair().unwrap();
        assert!(!wal.is_broken());
        wal.append(b"after").unwrap();
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records, vec![b"before".to_vec(), b"after".to_vec()]);
        // Repair on a healthy log is a no-op.
        wal.repair().unwrap();
        // Repair while the storage still fails leaves the log broken:
        // scan succeeds (reads work) but the next append fails again.
        sim.set_append_errors(true);
        assert!(wal.append(b"x").is_err());
        sim.set_append_errors(false);
        wal.repair().unwrap();
        wal.append(b"final").unwrap();
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records.len(), 3);
    }

    #[test]
    fn append_batch_recovers_in_order_with_one_sync() {
        let sim = SimStorage::new();
        let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        wal.append(b"solo").unwrap();
        let batch: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 4]).collect();
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let receipt = wal.append_batch(&views).unwrap();
        assert_eq!(receipt.records, 5);
        assert_eq!(receipt.bytes, HEADER as u64 + 5 * (HEADER as u64 + 4));
        let c = wal.counters();
        assert_eq!(c.records, 6);
        assert_eq!(c.syncs, 2, "one sync for the solo, one for the batch");
        assert_eq!((c.batches, c.batched_records), (1, 5));
        assert_eq!((c.batch_min, c.batch_max), (5, 5));
        let (_, rec) = reopen(&sim);
        let mut want = vec![b"solo".to_vec()];
        want.extend(batch);
        assert_eq!(rec.records, want);
        assert_eq!(rec.units, [1, 5], "one solo unit + one batch unit");
    }

    #[test]
    fn empty_and_singleton_batches_degenerate_cleanly() {
        let sim = SimStorage::new();
        let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        assert_eq!(
            wal.append_batch(&[]).unwrap(),
            AppendReceipt {
                records: 0,
                bytes: 0
            }
        );
        assert_eq!(wal.counters().syncs, 0, "empty batch must not sync");
        // A 1-record batch is a plain append: no header on disk.
        wal.append_batch(&[b"only"]).unwrap();
        assert_eq!(sim.bytes_written(), HEADER as u64 + 4);
        assert_eq!(wal.counters().batch_min, 1);
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records, vec![b"only".to_vec()]);
        assert_eq!(rec.units, [1], "a degenerate batch is one append unit");
    }

    #[test]
    fn a_crash_inside_any_record_of_a_batch_drops_the_whole_batch() {
        // Sweep every byte offset across a 3-record batched write: the
        // records before it must survive untouched, the batch must
        // vanish as a unit (all-or-nothing acknowledgement), and
        // nothing later may appear.
        let batch: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 6]).collect();
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let batch_bytes = (HEADER + 3 * (HEADER + 6)) as u64;
        for extra in 0..batch_bytes {
            let sim = SimStorage::new();
            let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
            wal.append(b"before").unwrap();
            sim.arm_crash_after(extra);
            assert!(
                matches!(wal.append_batch(&views), Err(WalError::Io(_))),
                "crash at +{extra} must fail the batch"
            );
            assert!(matches!(wal.append(b"later"), Err(WalError::Broken)));
            let (_, rec) = reopen(&sim);
            assert_eq!(
                rec.records,
                vec![b"before".to_vec()],
                "crash at +{extra} leaked part of the batch"
            );
        }
        // On the boundary (the full batch landed) everything survives.
        let sim = SimStorage::new();
        let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        wal.append(b"before").unwrap();
        sim.arm_crash_after(batch_bytes);
        wal.append_batch(&views).unwrap();
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records.len(), 4);
    }

    #[test]
    fn batches_interleave_with_appends_snapshots_and_rotation() {
        let sim = SimStorage::new();
        let (mut wal, _) =
            Wal::open(Box::new(sim.clone()), WalOptions { segment_bytes: 64 }).unwrap();
        let batch: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        wal.append_batch(&views).unwrap(); // Oversized batch rotates after.
        wal.append(b"single").unwrap();
        wal.append_batch(&views).unwrap();
        let segs = sim
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        assert!(segs > 1, "no rotation happened");
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records.len(), 9);
        wal.snapshot(b"folded").unwrap();
        wal.append_batch(&views).unwrap();
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"folded"[..]));
        assert_eq!(rec.records, batch);
    }

    #[test]
    fn empty_and_garbage_files_are_tolerated() {
        let sim = SimStorage::new();
        sim.append("not-a-wal-file", b"junk").unwrap();
        sim.append("seg-zzzz", b"junk").unwrap(); // Unparseable name.
        let (mut wal, rec) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
        assert!(rec.records.is_empty());
        wal.append(b"first").unwrap();
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records, vec![b"first".to_vec()]);
    }

    #[test]
    fn reopen_resumes_the_active_segment() {
        let sim = SimStorage::new();
        let (mut wal, _) = Wal::open(
            Box::new(sim.clone()),
            WalOptions {
                segment_bytes: 1 << 20,
            },
        )
        .unwrap();
        wal.append(b"one").unwrap();
        drop(wal);
        let (mut wal, rec) = Wal::open(
            Box::new(sim.clone()),
            WalOptions {
                segment_bytes: 1 << 20,
            },
        )
        .unwrap();
        assert_eq!(rec.records.len(), 1);
        wal.append(b"two").unwrap();
        let (_, rec) = reopen(&sim);
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn instrumented_writes_report_exact_spans_and_batch_sizes() {
        use dpack_obs::{Histogram, ManualClock};
        let sim = SimStorage::new();
        let (mut wal, _) = Wal::open(Box::new(sim), WalOptions::default()).unwrap();
        let clock = std::sync::Arc::new(ManualClock::with_tick(10));
        let append_nanos = Histogram::new();
        let batch_records = Histogram::new();
        wal.instrument(WalTelemetry {
            clock,
            append_nanos: append_nanos.clone(),
            batch_records: batch_records.clone(),
        });
        wal.append(b"solo").unwrap();
        wal.append_batch(&[b"a", b"b", b"c"]).unwrap();
        // Each write spans exactly two auto-ticking clock reads.
        let spans = append_nanos.snapshot();
        assert_eq!(spans.count, 2);
        assert_eq!(spans.sum, 20);
        let sizes = batch_records.snapshot();
        assert_eq!(sizes.count, 1);
        assert_eq!(sizes.max, 3);
    }
}
