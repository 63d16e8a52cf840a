//! WAL-shipping replication: the seam a durable primary ships its
//! append stream through, and the replica-side log that applies what
//! was shipped.
//!
//! # Model
//!
//! A replicated primary is an ordinary durable [`ShardedLedger`] with a
//! [`ReplicationSink`] attached. Every flush point — a cycle's
//! shard-local batches, a two-phase batch's per-shard intents, its
//! coordinator decisions, one registration — follows the same order:
//!
//! 1. **append locally**, every log of the step (exactly as an
//!    unreplicated durable ledger would),
//! 2. **ship** what was appended in **one round** — one
//!    [`ReplicationSink::ship_all`] call carrying one [`ShipBatch`] per
//!    log that appended something, each on the stream named after its
//!    log ([`ReplStream::Shard`] or [`ReplStream::Coordinator`]),
//! 3. **acknowledge** a batch (keep its staged filter mutations /
//!    return its grants) only if its own stream's ship succeeded.
//!
//! A sink implementation forwards each round to N replicas and reports
//! a batch shipped only once a configurable quorum has durably appended
//! it — so group commit amortizes the replication round-trip exactly
//! like it amortizes fsync, and a cycle pays the quorum wait once, not
//! once per shard. Because the replica appends
//! verbatim record bytes into logs with the same directory layout the
//! primary uses (`shard-<s>`, `coord`), **promotion is the existing
//! recovery path**: open the replica's storage with
//! [`BudgetService::recover`] and the bit-identical replay proven for
//! single-node crashes rebuilds the primary's state.
//!
//! # The invariant, and what a failed ship means
//!
//! The sink contract gives the availability invariant:
//!
//! > every grant acknowledged to a tenant is durable on **every live
//! > replica** — so promoting any live replica loses no acked grant.
//!
//! ("Live" = never failed a ship; a replica that errors is dead to the
//! sink and must not be promoted.) A ship failure *after* a successful
//! local append releases the work, like a failed local append — but the
//! record is already on the primary's own disk, and possibly on some
//! replicas. Those released-but-durable records make the failed
//! primary's logs a *superset* of acknowledged state: a replicated
//! primary must therefore be **replaced by promoting a replica, never
//! restarted from its own logs**. Replicas may likewise hold a torn
//! suffix of never-acked batches; that is the same at-most-once ack
//! window a single durable node already has (grant durable, ack lost in
//! the crash), and resubmission after failover is rejected as a
//! duplicate by the recovered-grant history (see
//! [`BudgetService::recover`]).
//!
//! Sequencing: the ledger serializes ships per stream (a round carries
//! a shard's batch while that shard's lock is held, the coordinator's
//! under the coordinator lock, and never two batches of one stream),
//! so a sink may assign per-stream sequence numbers at the call site
//! without extra locking. [`ReplicaWal`] enforces
//! them: next-in-sequence appends, duplicates ack idempotently, gaps
//! are refused.
//!
//! Replicas never snapshot or compact — their logs are the full record
//! stream since the (empty) attach point, which is exactly what makes
//! the promoted fold independent of the primary's compaction schedule.
//! Attach replication only to a fresh ledger
//! ([`ShardedLedger::set_replication`] asserts this); bootstrapping a
//! replica from a non-empty primary is future work.
//!
//! [`ShardedLedger`]: crate::ledger::ShardedLedger
//! [`ShardedLedger::set_replication`]:
//! crate::ledger::ShardedLedger::set_replication
//! [`BudgetService::recover`]: crate::service::BudgetService::recover

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dpack_obs::trace::scoped_traces;
use dpack_obs::TraceContext;
use dpack_wal::{Wal, WalError, WalOptions, WalStorage};

use crate::journal::{shard_dir, COORD_DIR};

/// Root sidecar: the term of the primary whose resync installed this
/// replica's state (its *lineage*). 8 little-endian bytes. Absent or
/// zero means unattached — the node has never completed a resync and
/// must be fully resynced before its logs mean anything.
const LINEAGE_FILE: &str = "lineage";

/// Root marker: present while the node's logs must not be trusted — a
/// resync is mid-install, or the node served as a primary (whose own
/// service appends are not in the replica bookkeeping). A reopen that
/// finds it wipes back to unattached, so a torn resync or a deposed
/// primary can never vote (or serve) with a bogus ballot.
const DIRTY_FILE: &str = "dirty";

/// Per-stream sidecar inside the stream's directory: the replication
/// sequence number the installed snapshot covers. The stream's durable
/// seq is this base plus the append units recovered after the
/// snapshot. The WAL's own scan ignores the file (foreign name).
const SEQBASE_FILE: &str = "seqbase";

fn read_u64_file(storage: &dyn WalStorage, name: &str) -> Result<Option<u64>, WalError> {
    match storage.read(name) {
        Ok(bytes) => {
            let arr: [u8; 8] = bytes.as_slice().try_into().map_err(|_| {
                WalError::Corrupt(format!("{name} sidecar is {} bytes, want 8", bytes.len()))
            })?;
            Ok(Some(u64::from_le_bytes(arr)))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(WalError::Io(e)),
    }
}

fn write_u64_file(storage: &dyn WalStorage, name: &str, value: u64) -> Result<(), WalError> {
    storage.remove(name).map_err(WalError::Io)?;
    storage
        .append(name, &value.to_le_bytes())
        .map_err(WalError::Io)
}

fn wipe_dir(storage: &dyn WalStorage) -> Result<(), WalError> {
    for name in storage.list().map_err(WalError::Io)? {
        storage.remove(&name).map_err(WalError::Io)?;
    }
    Ok(())
}

/// Which log a shipped batch belongs to. Streams are independent: each
/// carries its own sequence numbers and maps to its own replica log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplStream {
    /// One shard's write-ahead log.
    Shard(u32),
    /// The cross-shard 2PC coordinator log.
    Coordinator,
}

impl fmt::Display for ReplStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shard(s) => write!(f, "shard-{s}"),
            Self::Coordinator => write!(f, "coord"),
        }
    }
}

/// Why a ship failed. Any failure releases the shipped work on the
/// primary (the batch was never acknowledged to a tenant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplShipError {
    /// Fewer replicas than the configured quorum durably acknowledged
    /// the batch. The primary stops acknowledging grants; hand over to
    /// a promoted replica.
    QuorumLost {
        /// Replicas that acknowledged this batch.
        acked: usize,
        /// The configured quorum.
        quorum: usize,
    },
    /// The sink failed outright (a refused batch, a broken local
    /// replica log in in-process setups).
    Sink(String),
}

impl fmt::Display for ReplShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QuorumLost { acked, quorum } => {
                write!(
                    f,
                    "replication quorum lost: {acked} of {quorum} required acks"
                )
            }
            Self::Sink(what) => write!(f, "replication sink failed: {what}"),
        }
    }
}

impl std::error::Error for ReplShipError {}

/// One log's appended records on their way to the replicas: a part of
/// one [`ReplicationSink::ship_all`] round.
#[derive(Debug, Clone, Copy)]
pub struct ShipBatch<'a> {
    /// The log the records were appended to.
    pub stream: ReplStream,
    /// The exact record bytes, in append order; never empty.
    pub records: &'a [&'a [u8]],
    /// The traced grants the records belong to: a sink records its
    /// ship spans for these, and only these, on this batch's stream.
    pub traces: &'a [TraceContext],
}

/// Where a replicated ledger ships every durable append. Implementors
/// forward to replicas and answer once the quorum policy is met; the
/// in-process implementation used by tests appends straight into a
/// [`ReplicaWal`].
///
/// The ledger calls `ship_all` once per flush point (see the module
/// docs), with one batch per log that appended something, after the
/// local appends succeeded and before anything is acknowledged. Rounds
/// are serialized per stream by the ledger's own locks, and one round
/// never carries two batches of one stream. An `Err` for a batch
/// releases that batch's work, and only that.
pub trait ReplicationSink: Send + Sync + fmt::Debug {
    /// Replicates one appended batch on behalf of the calling thread's
    /// pinned traces ([`scoped_traces`]). `records` is never empty.
    ///
    /// # Errors
    ///
    /// [`ReplShipError`] when the quorum policy cannot be met; the
    /// caller releases the batch.
    fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> Result<(), ReplShipError>;

    /// Replicates one round of batches, at most one per stream, and
    /// answers for each in order: a batch is shipped iff its own stream
    /// reached quorum. The default ships them one after another, each
    /// under its own traces; a sink with a wire underneath overrides it
    /// to send every batch before waiting for any ack.
    fn ship_all(&self, batches: &[ShipBatch<'_>]) -> Vec<Result<(), ReplShipError>> {
        let ship = |batch: &ShipBatch<'_>| {
            let _pinned = scoped_traces(batch.traces.to_vec());
            self.ship(batch.stream, batch.records)
        };
        batches.iter().map(ship).collect()
    }
}

/// Why a replica refused (or failed) to apply a shipped batch.
#[derive(Debug)]
pub enum ReplicaApplyError {
    /// The batch would leave a sequence gap — applying it out of order
    /// would diverge from the primary's append order, so it is refused.
    Gap {
        /// The stream the batch addressed.
        stream: ReplStream,
        /// The only acceptable next sequence number.
        expected: u64,
        /// What the batch carried.
        got: u64,
    },
    /// The replica's own log failed; the batch was not applied.
    Wal(WalError),
}

impl fmt::Display for ReplicaApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Gap {
                stream,
                expected,
                got,
            } => write!(
                f,
                "replication gap on {stream}: expected seq {expected}, got {got}"
            ),
            Self::Wal(e) => write!(f, "replica log failed: {e}"),
        }
    }
}

impl std::error::Error for ReplicaApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wal(e) => Some(e),
            Self::Gap { .. } => None,
        }
    }
}

/// One stream's log on the replica: the WAL plus the highest batch
/// sequence durably applied to it. `seq` counts from the installed
/// snapshot's base (0 when the stream was never resynced), so it is
/// directly comparable with the primary's per-stream counter.
#[derive(Debug)]
struct StreamLog {
    wal: Wal,
    seq: u64,
}

/// The replica side of WAL shipping: per-shard logs plus the
/// coordinator log, laid out exactly like a primary's storage so
/// promotion is [`BudgetService::recover`] on this storage.
///
/// Each applied batch is one [`Wal::append_batch`] — one write + one
/// sync, all-or-nothing — so the primary's group-commit boundaries are
/// preserved on the replica's disk. Sequence numbers start at 1 per
/// stream and survive restarts: a reopened replica counts the append
/// units already in its logs ([`dpack_wal::Recovered::appends`]) and
/// resumes from there, acking duplicates idempotently.
///
/// [`BudgetService::recover`]: crate::service::BudgetService::recover
pub struct ReplicaWal {
    /// Root storage handle, retained for the resync path (sidecars,
    /// stream wipes) past the borrowed `open` argument.
    storage: Box<dyn WalStorage>,
    segment_bytes: u64,
    shards: Vec<Mutex<StreamLog>>,
    coord: Mutex<StreamLog>,
    /// The term of the primary that last resynced this node (0 =
    /// unattached). Mirrors the `lineage` sidecar.
    lineage: AtomicU64,
    /// Set between the first stream install and the resync commit;
    /// while set, the node's vector mixes old and new streams and must
    /// not be used as an election ballot.
    resyncing: AtomicBool,
}

impl fmt::Debug for ReplicaWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaWal")
            .field("shards", &self.shards.len())
            .field("lineage", &self.lineage.load(Ordering::Relaxed))
            .field("resyncing", &self.resyncing.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ReplicaWal {
    /// Opens (or reopens) a replica's logs in `storage` with the same
    /// directory layout a primary with `shards` shards uses.
    ///
    /// If a previous life left the `dirty` marker — a torn resync, or
    /// a stint as a promoted primary — everything is wiped first and
    /// the node reopens unattached (empty logs, lineage 0): its ballot
    /// is zero and the current primary will fully resync it.
    ///
    /// # Errors
    ///
    /// Storage and log-recovery errors from [`Wal::open`].
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn open(
        storage: &dyn WalStorage,
        shards: usize,
        segment_bytes: u64,
    ) -> Result<Self, WalError> {
        assert!(shards >= 1, "need at least one shard stream");
        let root = storage.clone_handle();
        if read_u64_file(root.as_ref(), DIRTY_FILE)?.is_some() {
            Self::wipe_all(root.as_ref(), shards)?;
        }
        let opts = WalOptions { segment_bytes };
        let open_one = |dir: &str| -> Result<StreamLog, WalError> {
            let sub = root.sub(dir).map_err(WalError::Io)?;
            let base = read_u64_file(sub.as_ref(), SEQBASE_FILE)?.unwrap_or(0);
            let (wal, recovered) = Wal::open(sub, opts)?;
            Ok(StreamLog {
                wal,
                seq: base + recovered.appends,
            })
        };
        let shards = (0..shards)
            .map(|s| Ok(Mutex::new(open_one(&shard_dir(s))?)))
            .collect::<Result<Vec<_>, WalError>>()?;
        let coord = Mutex::new(open_one(COORD_DIR)?);
        let lineage = read_u64_file(root.as_ref(), LINEAGE_FILE)?.unwrap_or(0);
        Ok(Self {
            storage: root,
            segment_bytes,
            shards,
            coord,
            lineage: AtomicU64::new(lineage),
            resyncing: AtomicBool::new(false),
        })
    }

    fn stream_dirs(shards: usize) -> Vec<String> {
        (0..shards)
            .map(shard_dir)
            .chain(std::iter::once(COORD_DIR.to_string()))
            .collect()
    }

    fn wipe_all(root: &dyn WalStorage, shards: usize) -> Result<(), WalError> {
        for dir in Self::stream_dirs(shards) {
            wipe_dir(root.sub(&dir).map_err(WalError::Io)?.as_ref())?;
        }
        root.remove(LINEAGE_FILE).map_err(WalError::Io)?;
        root.remove(DIRTY_FILE).map_err(WalError::Io)?;
        Ok(())
    }

    /// Number of shard streams.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The term of the primary whose resync installed this node's
    /// state; 0 = unattached (never resynced).
    pub fn lineage(&self) -> u64 {
        self.lineage.load(Ordering::Acquire)
    }

    /// Whether a resync is mid-install (streams mix old and new bases;
    /// the vector must not be used as a ballot).
    pub fn is_resyncing(&self) -> bool {
        self.resyncing.load(Ordering::Acquire)
    }

    /// Every stream's durable sequence: shards in order, then the
    /// coordinator. This is the node's election ballot and heartbeat
    /// vector.
    pub fn vector(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("replica stream lock poisoned").seq)
            .collect();
        v.push(self.coord.lock().expect("replica stream lock poisoned").seq);
        v
    }

    /// Replaces one stream with a snapshot install: the stream's
    /// directory is wiped, the snapshot payload becomes the log's base
    /// (the compaction law: later records are a suffix on top of it),
    /// and the stream's sequence restarts at `base_seq` — the
    /// primary's counter at capture time. The first install of a
    /// resync round durably sets the `dirty` marker, so a crash
    /// mid-resync reopens unattached instead of half-installed.
    ///
    /// # Errors
    ///
    /// Storage errors; the stream is left wiped-but-unusable and the
    /// marker keeps it from being trusted.
    pub fn install_stream(
        &self,
        stream: ReplStream,
        base_seq: u64,
        snapshot: &[u8],
    ) -> Result<(), WalError> {
        if !self.resyncing.swap(true, Ordering::AcqRel) {
            write_u64_file(self.storage.as_ref(), DIRTY_FILE, 1)?;
        }
        let dir = match stream {
            ReplStream::Shard(s) => {
                if s as usize >= self.shards.len() {
                    return Err(WalError::Corrupt(format!(
                        "resync addressed shard {s} but this replica has {} shards",
                        self.shards.len()
                    )));
                }
                shard_dir(s as usize)
            }
            ReplStream::Coordinator => COORD_DIR.to_string(),
        };
        let slot = match stream {
            ReplStream::Shard(s) => &self.shards[s as usize],
            ReplStream::Coordinator => &self.coord,
        };
        let mut log = slot.lock().expect("replica stream lock poisoned");
        let sub = self.storage.sub(&dir).map_err(WalError::Io)?;
        wipe_dir(sub.as_ref())?;
        let (mut wal, _) = Wal::open(
            sub.clone_handle(),
            WalOptions {
                segment_bytes: self.segment_bytes,
            },
        )?;
        wal.snapshot(snapshot)?;
        write_u64_file(sub.as_ref(), SEQBASE_FILE, base_seq)?;
        *log = StreamLog { wal, seq: base_seq };
        Ok(())
    }

    /// Commits a resync round: durably records the installing
    /// primary's term as this node's lineage and clears the `dirty`
    /// marker. From here the node's logs are a faithful copy of the
    /// primary's append stream at the captured point.
    ///
    /// # Errors
    ///
    /// Storage errors; the marker stays set, so the node remains
    /// untrusted until the next successful resync.
    pub fn commit_resync(&self, lineage: u64) -> Result<(), WalError> {
        write_u64_file(self.storage.as_ref(), LINEAGE_FILE, lineage)?;
        self.storage.remove(DIRTY_FILE).map_err(WalError::Io)?;
        self.lineage.store(lineage, Ordering::Release);
        self.resyncing.store(false, Ordering::Release);
        Ok(())
    }

    /// Wipes the node back to unattached in place: empty logs, zero
    /// vector, lineage 0. Used when the primary dies mid-resync — the
    /// half-installed streams must not vote, and the next primary will
    /// resync from scratch.
    ///
    /// # Errors
    ///
    /// Storage errors; retry or reopen.
    pub fn reset_unattached(&self) -> Result<(), WalError> {
        let opts = WalOptions {
            segment_bytes: self.segment_bytes,
        };
        for (slot, dir) in self
            .shards
            .iter()
            .chain(std::iter::once(&self.coord))
            .zip(Self::stream_dirs(self.shards.len()))
        {
            let mut log = slot.lock().expect("replica stream lock poisoned");
            let sub = self.storage.sub(&dir).map_err(WalError::Io)?;
            wipe_dir(sub.as_ref())?;
            let (wal, _) = Wal::open(sub, opts)?;
            *log = StreamLog { wal, seq: 0 };
        }
        self.storage.remove(LINEAGE_FILE).map_err(WalError::Io)?;
        self.storage.remove(DIRTY_FILE).map_err(WalError::Io)?;
        self.lineage.store(0, Ordering::Release);
        self.resyncing.store(false, Ordering::Release);
        Ok(())
    }

    /// Durably marks this node's logs as untrusted (the `dirty`
    /// marker): any later reopen wipes back to unattached. A node
    /// promoting to primary calls this first, because its service
    /// appends bypass the replica bookkeeping — a deposed primary must
    /// rejoin empty and be resynced, never vote with its own logs.
    ///
    /// # Errors
    ///
    /// Storage errors; do not promote without the marker down.
    pub fn mark_dirty(&self) -> Result<(), WalError> {
        write_u64_file(self.storage.as_ref(), DIRTY_FILE, 1)
    }

    fn log(&self, stream: ReplStream) -> Result<MutexGuard<'_, StreamLog>, ReplicaApplyError> {
        let slot = match stream {
            ReplStream::Coordinator => &self.coord,
            ReplStream::Shard(s) => self.shards.get(s as usize).ok_or_else(|| {
                ReplicaApplyError::Wal(WalError::Corrupt(format!(
                    "replicate addressed shard {s} but this replica has {} shards",
                    self.shards.len()
                )))
            })?,
        };
        Ok(slot.lock().expect("replica stream lock poisoned"))
    }

    /// Durably applies one shipped batch and returns the stream's
    /// highest applied sequence. `seq` must be the next in sequence
    /// (`durable + 1`); a batch at or below the durable sequence was
    /// already applied and acks idempotently without touching the log.
    ///
    /// # Errors
    ///
    /// [`ReplicaApplyError::Gap`] when `seq` skips ahead,
    /// [`ReplicaApplyError::Wal`] when the local append fails (the
    /// batch is not applied; all-or-nothing like any WAL batch).
    pub fn apply(
        &self,
        stream: ReplStream,
        seq: u64,
        records: &[Vec<u8>],
    ) -> Result<u64, ReplicaApplyError> {
        if records.is_empty() {
            // An empty batch would sync nothing, leaving no append unit
            // to recover the sequence from; the primary never ships one.
            return Err(ReplicaApplyError::Wal(WalError::Corrupt(
                "empty replication batch".into(),
            )));
        }
        let mut log = self.log(stream)?;
        if seq <= log.seq {
            return Ok(log.seq); // Duplicate delivery: already durable.
        }
        if seq != log.seq + 1 {
            return Err(ReplicaApplyError::Gap {
                stream,
                expected: log.seq + 1,
                got: seq,
            });
        }
        let views: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        log.wal
            .append_batch(&views)
            .map_err(ReplicaApplyError::Wal)?;
        log.seq = seq;
        Ok(log.seq)
    }

    /// The highest sequence durably applied on a stream (0 before the
    /// first batch).
    pub fn durable_seq(&self, stream: ReplStream) -> u64 {
        self.log(stream).map_or(0, |log| log.seq)
    }

    /// Total records across all streams' logs (applied lifetime count).
    pub fn records(&self) -> u64 {
        let mut total = 0;
        for slot in &self.shards {
            total += slot
                .lock()
                .expect("replica stream lock poisoned")
                .wal
                .counters()
                .records;
        }
        total
            + self
                .coord
                .lock()
                .expect("replica stream lock poisoned")
                .wal
                .counters()
                .records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpack_wal::SimStorage;

    fn records(n: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i; 5]).collect()
    }

    #[test]
    fn applies_in_sequence_acks_duplicates_and_refuses_gaps() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 2, 1 << 16).unwrap();
        assert_eq!(replica.n_shards(), 2);
        let stream = ReplStream::Shard(1);
        assert_eq!(replica.durable_seq(stream), 0);
        assert_eq!(replica.apply(stream, 1, &records(3)).unwrap(), 1);
        assert_eq!(replica.apply(stream, 2, &records(1)).unwrap(), 2);
        // Duplicate: idempotent ack, nothing appended.
        let before = replica.records();
        assert_eq!(replica.apply(stream, 1, &records(3)).unwrap(), 2);
        assert_eq!(replica.records(), before);
        // Gap: refused.
        assert!(matches!(
            replica.apply(stream, 4, &records(1)),
            Err(ReplicaApplyError::Gap {
                expected: 3,
                got: 4,
                ..
            })
        ));
        // Streams are independent.
        assert_eq!(
            replica
                .apply(ReplStream::Coordinator, 1, &records(1))
                .unwrap(),
            1
        );
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 1, &records(2)).unwrap(),
            1
        );
        assert!(matches!(
            replica.apply(ReplStream::Shard(7), 1, &records(1)),
            Err(ReplicaApplyError::Wal(WalError::Corrupt(_)))
        ));
        assert!(matches!(
            replica.apply(stream, 3, &[]),
            Err(ReplicaApplyError::Wal(WalError::Corrupt(_)))
        ));
    }

    #[test]
    fn reopen_resumes_the_sequence_from_the_surviving_log() {
        let sim = SimStorage::new();
        {
            let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
            replica.apply(ReplStream::Shard(0), 1, &records(4)).unwrap();
            replica.apply(ReplStream::Shard(0), 2, &records(1)).unwrap();
            replica
                .apply(ReplStream::Coordinator, 1, &records(1))
                .unwrap();
        }
        let survivor = sim.surviving();
        let replica = ReplicaWal::open(&survivor, 1, 1 << 16).unwrap();
        assert_eq!(replica.durable_seq(ReplStream::Shard(0)), 2);
        assert_eq!(replica.durable_seq(ReplStream::Coordinator), 1);
        // Redelivery of the last batch (primary retrying across the
        // restart) acks without duplicating records.
        let before = replica.records();
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 2, &records(1)).unwrap(),
            2
        );
        assert_eq!(replica.records(), before);
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 3, &records(2)).unwrap(),
            3
        );
    }

    #[test]
    fn resync_install_restarts_the_stream_at_the_captured_base() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 2, 1 << 16).unwrap();
        replica.apply(ReplStream::Shard(0), 1, &records(2)).unwrap();
        assert_eq!(replica.vector(), vec![1, 0, 0]);
        // Install shard 0 at base 7 (the primary's counter), coord at 3.
        replica
            .install_stream(ReplStream::Shard(0), 7, b"snapshot-bytes")
            .unwrap();
        assert!(replica.is_resyncing());
        replica
            .install_stream(ReplStream::Shard(1), 2, b"s1")
            .unwrap();
        replica
            .install_stream(ReplStream::Coordinator, 3, &[])
            .unwrap();
        replica.commit_resync(5).unwrap();
        assert!(!replica.is_resyncing());
        assert_eq!(replica.lineage(), 5);
        assert_eq!(replica.vector(), vec![7, 2, 3]);
        // The suffix rides on top: next-in-sequence from the base.
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 8, &records(1)).unwrap(),
            8
        );
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 7, &records(1)).unwrap(),
            8
        );
        assert!(matches!(
            replica.apply(ReplStream::Shard(0), 10, &records(1)),
            Err(ReplicaApplyError::Gap {
                expected: 9,
                got: 10,
                ..
            })
        ));
        // A clean reopen keeps the base, the suffix, and the lineage.
        drop(replica);
        let survivor = sim.surviving();
        let replica = ReplicaWal::open(&survivor, 2, 1 << 16).unwrap();
        assert_eq!(replica.vector(), vec![8, 2, 3]);
        assert_eq!(replica.lineage(), 5);
    }

    #[test]
    fn a_torn_resync_reopens_unattached() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
        replica.apply(ReplStream::Shard(0), 1, &records(2)).unwrap();
        replica
            .install_stream(ReplStream::Shard(0), 9, b"half")
            .unwrap();
        // No commit: the dirty marker is still down, so the reopened
        // node wipes back to a zero ballot instead of voting with a
        // half-installed vector.
        drop(replica);
        let survivor = sim.surviving();
        let replica = ReplicaWal::open(&survivor, 1, 1 << 16).unwrap();
        assert_eq!(replica.vector(), vec![0, 0]);
        assert_eq!(replica.lineage(), 0);
        assert!(!replica.is_resyncing());
    }

    #[test]
    fn mark_dirty_forces_a_wipe_on_reopen_and_reset_wipes_in_place() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
        replica.apply(ReplStream::Shard(0), 1, &records(2)).unwrap();
        replica.mark_dirty().unwrap();
        drop(replica);
        let replica = ReplicaWal::open(&sim.surviving(), 1, 1 << 16).unwrap();
        assert_eq!(replica.vector(), vec![0, 0]);
        // In-place reset: same thing without a restart.
        replica.apply(ReplStream::Shard(0), 1, &records(1)).unwrap();
        replica
            .install_stream(ReplStream::Coordinator, 4, &[])
            .unwrap();
        replica.reset_unattached().unwrap();
        assert_eq!(replica.vector(), vec![0, 0]);
        assert_eq!(replica.lineage(), 0);
        assert!(!replica.is_resyncing());
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 1, &records(1)).unwrap(),
            1
        );
    }

    #[test]
    fn a_crashed_replica_append_drops_the_whole_batch_and_seq() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
        replica.apply(ReplStream::Shard(0), 1, &records(2)).unwrap();
        sim.set_append_errors(true);
        assert!(matches!(
            replica.apply(ReplStream::Shard(0), 2, &records(3)),
            Err(ReplicaApplyError::Wal(_))
        ));
        // The failed batch never acked, so seq stays put.
        assert_eq!(replica.durable_seq(ReplStream::Shard(0)), 1);
        // After the replica restarts on the surviving bytes, the
        // primary's retry of seq 2 lands cleanly.
        let survivor = sim.surviving();
        let replica = ReplicaWal::open(&survivor, 1, 1 << 16).unwrap();
        assert_eq!(replica.durable_seq(ReplStream::Shard(0)), 1);
        assert_eq!(
            replica.apply(ReplStream::Shard(0), 2, &records(3)).unwrap(),
            2
        );
    }
}
