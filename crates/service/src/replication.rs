//! WAL-shipping replication: the seam a durable primary ships its
//! append stream through, and the replica-side log that applies what
//! was shipped.
//!
//! # Model
//!
//! A replicated primary is an ordinary durable [`ShardedLedger`] with a
//! [`ReplicationSink`] attached. Its one log carries every shard's
//! stream and the coordinator's, each record tagged with its stream
//! ([`crate::durability`]). Every flush point — a cycle's shard-local
//! batches, a two-phase batch's per-shard intents, its coordinator
//! decisions, one registration — follows the same order:
//!
//! 1. **append locally**, the whole step as one group commit (exactly
//!    as an unreplicated durable ledger would),
//! 2. **ship** it in **one round** — one [`ReplicationSink::ship_all`]
//!    call carrying one [`ShipBatch`] per stream the step wrote to
//!    ([`ReplStream::Shard`] or [`ReplStream::Coordinator`]),
//! 3. **acknowledge** a batch (keep its staged filter mutations /
//!    return its grants) only if its own stream's ship succeeded.
//!
//! A sink implementation forwards each round to N replicas and reports
//! a batch shipped only once a configurable quorum has durably appended
//! it — so group commit amortizes the replication round-trip exactly
//! like it amortizes fsync, and a cycle pays the quorum wait once, not
//! once per shard. Because the replica appends the verbatim, already
//! tagged record bytes into one log with the layout the primary uses,
//! **promotion is the existing recovery path**: open the replica's
//! storage with [`BudgetService::recover`] and the bit-identical replay
//! proven for single-node crashes rebuilds the primary's state.
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
//! a shard's batch while that shard's lock is held, every round under
//! the journal's lock, and never two batches of one stream), so a sink
//! may assign per-stream sequence numbers at the call site without
//! extra locking. [`ReplicaWal`] enforces them: next-in-sequence
//! appends, duplicates ack idempotently, gaps are refused.
//!
//! Replicas never snapshot or compact — their log is the full record
//! stream since the (empty) attach point, plus the resync bases
//! installed since, which is exactly what makes the promoted fold
//! independent of the primary's compaction schedule.
//! Attach replication only to a fresh ledger
//! ([`ShardedLedger::set_replication`] asserts this); bootstrapping a
//! replica from a non-empty primary is future work.
//!
//! # The standing
//!
//! Beside its log, a replica keeps one durable *standing* — its highest
//! adopted election term, the lineage of its last resync and the dirty
//! mark — as one record of a small log of its own (`standing/`, outside
//! the replica log's wipes). Every change appends a whole record, so a
//! crash anywhere in a write reads back the old standing or the new one
//! (the log drops a torn tail). A write the storage refused may still
//! resurface after a crash (a failed sync can leave its bytes behind),
//! and each is conservative if it does: a higher term spends a vote
//! nobody got, a dirty mark wipes the node to unattached, and a resync
//! commit is sent only once every stream is installed.
//!
//! [`ShardedLedger`]: crate::ledger::ShardedLedger
//! [`ShardedLedger::set_replication`]:
//! crate::ledger::ShardedLedger::set_replication
//! [`BudgetService::recover`]: crate::service::BudgetService::recover

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use dpack_obs::trace::scoped_traces;
use dpack_obs::TraceContext;
use dpack_wal::{codec, codec_struct, Wal, WalError, WalOptions, WalStorage};

use crate::durability::LogRecord;
use crate::journal::LOG_DIR;

/// The standing log's namespace; no wipe or promotion reads it.
const STANDING_DIR: &str = "standing";

codec_struct! {
    /// One record of the standing log; the last whole one holds.
    #[derive(Debug, Clone, Copy, Default)]
    struct Standing {
        /// The highest election term adopted (adopting spends its vote).
        term: u64,
        /// The term of the primary whose resync installed the log; 0 =
        /// unattached (never resynced, the log means nothing).
        lineage: u64,
        /// The log is untrusted — mid-resync, or it served a primary,
        /// whose appends bypass the replica bookkeeping — so a reopen
        /// wipes it to unattached instead of voting or serving on it.
        dirty: bool,
    }
}

/// The standing log and the last standing it made durable.
struct StandingLog {
    wal: Wal,
    now: Standing,
}

impl StandingLog {
    /// Durably applies `change` to the standing (on `Err` it stays as
    /// it was), repairing a log an earlier failed write broke.
    fn update(&mut self, change: impl FnOnce(&mut Standing)) -> Result<(), WalError> {
        let mut next = self.now;
        change(&mut next);
        self.wal.repair()?;
        self.wal.append(&codec::encode(&next))?;
        self.now = next;
        Ok(())
    }

    /// Wipes the replica log in `root` back to unattached: dirty-marked
    /// first, so a crash mid-wipe reopens dirty and wipes again, then
    /// cleared with lineage 0. The term is kept.
    fn wipe(&mut self, root: &dyn WalStorage) -> Result<(), WalError> {
        if !self.now.dirty {
            self.update(|s| s.dirty = true)?;
        }
        let log = root.sub(LOG_DIR)?;
        for name in log.list().map_err(WalError::Io)? {
            log.remove(&name).map_err(WalError::Io)?;
        }
        self.update(|s| (s.lineage, s.dirty) = (0, false))
    }
}

/// Which stream a shipped batch belongs to. Streams are independent:
/// each carries its own sequence numbers, and its records carry its
/// tag in the one log they share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplStream {
    /// One shard's stream.
    Shard(u32),
    /// The cross-shard 2PC coordinator's stream.
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

/// One stream's appended records on their way to the replicas: a part
/// of one [`ReplicationSink::ship_all`] round.
#[derive(Debug, Clone, Copy)]
pub struct ShipBatch<'a> {
    /// The stream the records are tagged with.
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
/// docs), with one batch per stream the step wrote to, after the local
/// append succeeded and before anything is acknowledged. Rounds
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

/// The replica's log and every stream's highest batch sequence durably
/// applied to it — shard streams first, coordinator last. A sequence
/// counts from the stream's installed base (0 when the stream was never
/// resynced), so it is directly comparable with the primary's
/// per-stream counter.
#[derive(Debug)]
struct ReplicaLog {
    wal: Wal,
    seqs: Vec<u64>,
}

/// The replica side of WAL shipping: one log laid out exactly like a
/// primary's, so promotion is [`BudgetService::recover`] on this
/// storage.
///
/// Each applied batch is one [`Wal::append_batch`] of its records — one
/// write + one sync, all-or-nothing — so the primary's group-commit
/// boundaries are preserved on the replica's disk, and every record of
/// it must carry the batch's stream tag. Sequence numbers start at 1
/// per stream and survive restarts: a reopened replica counts, per
/// stream, the append units in its log after the stream's latest resync
/// base ([`dpack_wal::Recovered::units`]) and resumes from there, acking
/// duplicates idempotently.
///
/// [`BudgetService::recover`]: crate::service::BudgetService::recover
pub struct ReplicaWal {
    /// Root storage handle, retained for the resync path (log wipes)
    /// past the borrowed `open` argument.
    storage: Box<dyn WalStorage>,
    segment_bytes: u64,
    shards: usize,
    log: Mutex<ReplicaLog>,
    /// Taken after `log` when both are held.
    standing: Mutex<StandingLog>,
    /// Set between the first stream install and the resync commit;
    /// while set, the node's vector mixes old and new streams and must
    /// not be used as an election ballot.
    resyncing: AtomicBool,
}

impl fmt::Debug for ReplicaWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaWal")
            .field("shards", &self.shards)
            .field("standing", &self.standing().now)
            .field("resyncing", &self.resyncing.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A stream's slot in a sequence vector of `shards` shard streams and
/// the coordinator's, or why it has none.
fn slot(stream: ReplStream, shards: usize) -> Result<usize, WalError> {
    match stream {
        ReplStream::Shard(s) if (s as usize) < shards => Ok(s as usize),
        ReplStream::Shard(_) => Err(WalError::Corrupt(format!(
            "{stream} addressed, but this replica has {shards} shards"
        ))),
        ReplStream::Coordinator => Ok(shards),
    }
}

impl ReplicaWal {
    /// Opens (or reopens) a replica's log in `storage` with the layout
    /// a primary with `shards` shards uses, and its standing.
    ///
    /// If a previous life left the dirty mark — a torn resync, or a
    /// stint as a promoted primary — the log is wiped first and the
    /// node reopens unattached (empty log, lineage 0) with its term
    /// kept: its ballot is zero and the current primary will fully
    /// resync it.
    ///
    /// # Errors
    ///
    /// Storage and log-recovery errors from [`Wal::open`], and
    /// [`WalError::Corrupt`] for a log whose records cannot be counted
    /// into streams.
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
        let (wal, recovered) = Wal::open(root.sub(STANDING_DIR)?, WalOptions::default())?;
        let last = recovered.records.last();
        let now = last.map_or(Ok(Standing::default()), |r| codec::decode(r))?;
        let mut standing = StandingLog { wal, now };
        if standing.now.dirty {
            standing.wipe(root.as_ref())?;
        }
        let log = Self::open_log(root.as_ref(), shards, segment_bytes)?;
        Ok(Self {
            storage: root,
            segment_bytes,
            shards,
            log: Mutex::new(log),
            standing: Mutex::new(standing),
            resyncing: AtomicBool::new(false),
        })
    }

    /// Opens the log and counts each stream's sequence: a stream's
    /// latest base sets it, every applied batch after it adds one.
    fn open_log(
        root: &dyn WalStorage,
        shards: usize,
        segment_bytes: u64,
    ) -> Result<ReplicaLog, WalError> {
        let (wal, recovered) = Wal::open(root.sub(LOG_DIR)?, WalOptions { segment_bytes })?;
        let mut seqs = vec![0; shards + 1];
        let mut records = recovered.records.iter();
        for &unit in &recovered.units {
            let mut heads = records.by_ref().take(unit).map(|r| LogRecord::head(r));
            let (stream, base) = heads.next().expect("append units are never empty")?;
            for head in heads {
                if base.is_some() || head?.0 != stream {
                    return Err(WalError::Corrupt(format!(
                        "an append unit of {stream} holds another stream's record or a base"
                    )));
                }
            }
            let at = slot(stream, shards)?;
            seqs[at] = base.unwrap_or(seqs[at] + 1);
        }
        Ok(ReplicaLog { wal, seqs })
    }

    fn lock(&self) -> MutexGuard<'_, ReplicaLog> {
        self.log.lock().expect("replica log lock poisoned")
    }

    fn standing(&self) -> MutexGuard<'_, StandingLog> {
        self.standing.lock().expect("standing lock poisoned")
    }

    /// Number of shard streams.
    pub fn n_shards(&self) -> usize {
        self.shards
    }

    /// The term of the primary whose resync installed this node's
    /// state; 0 = unattached (never resynced).
    pub fn lineage(&self) -> u64 {
        self.standing().now.lineage
    }

    /// The highest election term this node has adopted.
    pub fn term(&self) -> u64 {
        self.standing().now.term
    }

    /// Adopts `pick(held)` as the election term if it is newer than the
    /// `held` one, durably first, and returns `held` — in one critical
    /// section, so only one caller can see a new term newer than
    /// `held`, which is what spends a vote once.
    ///
    /// # Errors
    ///
    /// The standing log failed; the term is not adopted.
    pub fn adopt_term(&self, pick: impl FnOnce(u64) -> u64) -> Result<u64, WalError> {
        let mut standing = self.standing();
        let held = standing.now.term;
        let term = pick(held);
        if term > held {
            standing.update(|s| s.term = term)?;
        }
        Ok(held)
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
        self.lock().seqs.clone()
    }

    /// Re-bases one stream with a snapshot install: a
    /// [`LogRecord::Base`] carrying the snapshot payload and `base_seq`
    /// — the primary's counter at capture time — is appended to the
    /// log, so recovery and promotion read the stream from that base on
    /// (the compaction law: later records are a suffix on top of it),
    /// and the stream's sequence restarts at `base_seq`. A log broken
    /// by an earlier failed apply is repaired first. The first install
    /// of a resync round durably sets the dirty mark, so a crash
    /// mid-resync reopens unattached instead of half-installed.
    ///
    /// # Errors
    ///
    /// Storage errors, and [`WalError::Corrupt`] for a shard this
    /// replica does not have; the mark keeps the node from being
    /// trusted.
    pub fn install_stream(
        &self,
        stream: ReplStream,
        base_seq: u64,
        snapshot: &[u8],
    ) -> Result<(), WalError> {
        // Set only once the mark is durable: a failed mark leaves the
        // flag down, so the next install writes it again.
        if !self.resyncing.load(Ordering::Acquire) {
            self.mark_dirty()?;
            self.resyncing.store(true, Ordering::Release);
        }
        let at = slot(stream, self.shards)?;
        let base = LogRecord::Base {
            stream,
            seq: base_seq,
            snapshot: snapshot.to_vec(),
        };
        let mut log = self.lock();
        log.wal.repair()?;
        log.wal.append(&base.encode())?;
        log.seqs[at] = base_seq;
        Ok(())
    }

    /// Commits a resync round: one standing write records the
    /// installing primary's term as this node's lineage and clears the
    /// dirty mark. From here the node's log is a faithful copy of the
    /// primary's append stream at the captured point.
    ///
    /// # Errors
    ///
    /// Storage errors; the mark stays set, so the node remains
    /// untrusted until the next successful resync.
    pub fn commit_resync(&self, lineage: u64) -> Result<(), WalError> {
        self.standing()
            .update(|s| (s.lineage, s.dirty) = (lineage, false))?;
        self.resyncing.store(false, Ordering::Release);
        Ok(())
    }

    /// Wipes the node back to unattached in place: empty log, zero
    /// vector, lineage 0, term kept. Used when the primary dies
    /// mid-resync — the half-installed streams must not vote, and the
    /// next primary will resync from scratch.
    ///
    /// # Errors
    ///
    /// Storage errors; retry or reopen (a reopen finishes the wipe).
    pub fn reset_unattached(&self) -> Result<(), WalError> {
        let mut log = self.lock();
        self.standing().wipe(self.storage.as_ref())?;
        *log = Self::open_log(self.storage.as_ref(), self.shards, self.segment_bytes)?;
        self.resyncing.store(false, Ordering::Release);
        Ok(())
    }

    /// Durably marks this node's log as untrusted (the dirty mark): any
    /// later reopen wipes back to unattached. A node promoting to
    /// primary calls this first, because its service appends bypass the
    /// replica bookkeeping — a deposed primary must rejoin empty and be
    /// resynced, never vote with its own log.
    ///
    /// # Errors
    ///
    /// Storage errors; do not promote without the mark down.
    pub fn mark_dirty(&self) -> Result<(), WalError> {
        self.standing().update(|s| s.dirty = true)
    }

    /// Durably applies one shipped batch and returns the stream's
    /// highest applied sequence. `seq` must be the next in sequence
    /// (`durable + 1`); a batch at or below the durable sequence was
    /// already applied and acks idempotently without touching the log.
    ///
    /// # Errors
    ///
    /// [`ReplicaApplyError::Gap`] when `seq` skips ahead,
    /// [`ReplicaApplyError::Wal`] when the batch is empty, addresses a
    /// shard this replica does not have, holds a record not tagged with
    /// `stream` (or a resync base), or the local append fails (the batch
    /// is not applied; all-or-nothing like any WAL batch).
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
        let at = slot(stream, self.shards).map_err(ReplicaApplyError::Wal)?;
        for record in records {
            // Reopen counts a stream's sequence from its records' tags.
            let head = LogRecord::head(record).map_err(ReplicaApplyError::Wal)?;
            if head != (stream, None) {
                return Err(ReplicaApplyError::Wal(WalError::Corrupt(format!(
                    "a {} record rode a {stream} batch",
                    head.0
                ))));
            }
        }
        let mut log = self.lock();
        if seq <= log.seqs[at] {
            return Ok(log.seqs[at]); // Duplicate delivery: already durable.
        }
        if seq != log.seqs[at] + 1 {
            return Err(ReplicaApplyError::Gap {
                stream,
                expected: log.seqs[at] + 1,
                got: seq,
            });
        }
        let views: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        log.wal
            .append_batch(&views)
            .map_err(ReplicaApplyError::Wal)?;
        log.seqs[at] = seq;
        Ok(seq)
    }

    /// The highest sequence durably applied on a stream (0 before the
    /// first batch).
    pub fn durable_seq(&self, stream: ReplStream) -> u64 {
        slot(stream, self.shards).map_or(0, |at| self.lock().seqs[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpack_wal::SimStorage;

    /// `n` records tagged with `stream`, as a primary would ship them.
    fn records(stream: ReplStream, n: u8) -> Vec<Vec<u8>> {
        let record = |i: u8| match stream {
            ReplStream::Shard(shard) => LogRecord::Apply {
                shard,
                task: u64::from(i),
                demand: vec![],
                blocks: vec![],
            },
            ReplStream::Coordinator => LogRecord::Abort {
                attempt: u64::from(i),
                task: u64::from(i),
            },
        };
        (0..n).map(|i| record(i).encode()).collect()
    }

    #[test]
    fn applies_in_sequence_acks_duplicates_and_refuses_gaps() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 2, 1 << 16).unwrap();
        assert_eq!(replica.n_shards(), 2);
        let stream = ReplStream::Shard(1);
        assert_eq!(replica.durable_seq(stream), 0);
        assert_eq!(replica.apply(stream, 1, &records(stream, 3)).unwrap(), 1);
        assert_eq!(replica.apply(stream, 2, &records(stream, 1)).unwrap(), 2);
        // Duplicate: idempotent ack, nothing appended.
        let before = sim.bytes_written();
        assert_eq!(replica.apply(stream, 1, &records(stream, 3)).unwrap(), 2);
        assert_eq!(sim.bytes_written(), before);
        // Gap: refused.
        assert!(matches!(
            replica.apply(stream, 4, &records(stream, 1)),
            Err(ReplicaApplyError::Gap {
                expected: 3,
                got: 4,
                ..
            })
        ));
        // Streams are independent.
        assert_eq!(
            replica
                .apply(
                    ReplStream::Coordinator,
                    1,
                    &records(ReplStream::Coordinator, 1)
                )
                .unwrap(),
            1
        );
        assert_eq!(
            replica
                .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 2))
                .unwrap(),
            1
        );
        assert!(matches!(
            replica.apply(ReplStream::Shard(7), 1, &records(ReplStream::Shard(7), 1)),
            Err(ReplicaApplyError::Wal(WalError::Corrupt(_)))
        ));
        assert!(matches!(
            replica.apply(stream, 3, &[]),
            Err(ReplicaApplyError::Wal(WalError::Corrupt(_)))
        ));
        // Every record must carry the batch's stream tag, and no batch
        // may carry a resync base.
        let base = LogRecord::Base {
            stream,
            seq: 9,
            snapshot: vec![],
        };
        let other = records(ReplStream::Shard(0), 1);
        for bad in [other, vec![base.encode()], vec![vec![0xEE; 3]]] {
            assert!(matches!(
                replica.apply(stream, 3, &bad),
                Err(ReplicaApplyError::Wal(WalError::Corrupt(_)))
            ));
        }
        assert_eq!(replica.durable_seq(stream), 2);
    }

    #[test]
    fn reopen_resumes_the_sequence_from_the_surviving_log() {
        let sim = SimStorage::new();
        {
            let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
            replica
                .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 4))
                .unwrap();
            replica
                .apply(ReplStream::Shard(0), 2, &records(ReplStream::Shard(0), 1))
                .unwrap();
            replica
                .apply(
                    ReplStream::Coordinator,
                    1,
                    &records(ReplStream::Coordinator, 1),
                )
                .unwrap();
        }
        let survivor = sim.surviving();
        let replica = ReplicaWal::open(&survivor, 1, 1 << 16).unwrap();
        assert_eq!(replica.durable_seq(ReplStream::Shard(0)), 2);
        assert_eq!(replica.durable_seq(ReplStream::Coordinator), 1);
        // Redelivery of the last batch (primary retrying across the
        // restart) acks without duplicating records.
        let before = survivor.bytes_written();
        assert_eq!(
            replica
                .apply(ReplStream::Shard(0), 2, &records(ReplStream::Shard(0), 1))
                .unwrap(),
            2
        );
        assert_eq!(survivor.bytes_written(), before);
        assert_eq!(
            replica
                .apply(ReplStream::Shard(0), 3, &records(ReplStream::Shard(0), 2))
                .unwrap(),
            3
        );
    }

    #[test]
    fn resync_install_restarts_the_stream_at_the_captured_base() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 2, 1 << 16).unwrap();
        replica
            .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 2))
            .unwrap();
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
            replica
                .apply(ReplStream::Shard(0), 8, &records(ReplStream::Shard(0), 1))
                .unwrap(),
            8
        );
        assert_eq!(
            replica
                .apply(ReplStream::Shard(0), 7, &records(ReplStream::Shard(0), 1))
                .unwrap(),
            8
        );
        assert!(matches!(
            replica.apply(ReplStream::Shard(0), 10, &records(ReplStream::Shard(0), 1)),
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
        replica
            .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 2))
            .unwrap();
        replica
            .install_stream(ReplStream::Shard(0), 9, b"half")
            .unwrap();
        // No commit: the dirty mark is still down, so the reopened
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
    fn a_failed_dirty_marker_write_is_retried_by_the_next_install() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
        replica
            .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 2))
            .unwrap();
        // A transient fault fails the first install before the marker
        // is down.
        sim.set_append_errors(true);
        assert!(replica
            .install_stream(ReplStream::Shard(0), 9, b"half")
            .is_err());
        assert!(!replica.is_resyncing(), "no marker, no resync in flight");
        sim.set_append_errors(false);
        // The retry must write the marker itself, or a crash before the
        // commit reopens the half-installed log as trusted.
        replica
            .install_stream(ReplStream::Shard(0), 9, b"half")
            .unwrap();
        assert!(replica.is_resyncing());
        drop(replica);
        let replica = ReplicaWal::open(&sim.surviving(), 1, 1 << 16).unwrap();
        assert_eq!(replica.vector(), vec![0, 0], "a made-up ballot survived");
        assert_eq!(replica.lineage(), 0);
    }

    #[test]
    fn mark_dirty_forces_a_wipe_on_reopen_and_reset_wipes_in_place() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
        replica
            .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 2))
            .unwrap();
        replica.mark_dirty().unwrap();
        drop(replica);
        let replica = ReplicaWal::open(&sim.surviving(), 1, 1 << 16).unwrap();
        assert_eq!(replica.vector(), vec![0, 0]);
        // In-place reset: same thing without a restart.
        replica
            .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 1))
            .unwrap();
        replica
            .install_stream(ReplStream::Coordinator, 4, &[])
            .unwrap();
        replica.reset_unattached().unwrap();
        assert_eq!(replica.vector(), vec![0, 0]);
        assert_eq!(replica.lineage(), 0);
        assert!(!replica.is_resyncing());
        assert_eq!(
            replica
                .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 1))
                .unwrap(),
            1
        );
    }

    #[test]
    fn a_crashed_replica_append_drops_the_whole_batch_and_seq() {
        let sim = SimStorage::new();
        let replica = ReplicaWal::open(&sim, 1, 1 << 16).unwrap();
        replica
            .apply(ReplStream::Shard(0), 1, &records(ReplStream::Shard(0), 2))
            .unwrap();
        sim.set_append_errors(true);
        assert!(matches!(
            replica.apply(ReplStream::Shard(0), 2, &records(ReplStream::Shard(0), 3)),
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
            replica
                .apply(ReplStream::Shard(0), 2, &records(ReplStream::Shard(0), 3))
                .unwrap(),
            2
        );
    }
}
