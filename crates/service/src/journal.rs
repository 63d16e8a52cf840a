//! The journal: how a grant becomes durable.
//!
//! The one module that knows records ([`crate::durability`]), group
//! commit, two-phase-commit decisions and replication shipping. The
//! ledger stages a batch on its filters under the shard locks, then
//! asks [`Journal::commit_local`] or [`Journal::commit_cross`] how much
//! of it became durable, and undoes the rest.
//!
//! * [`ShardLog`] — one shard's log and staging buffer. It lives
//!   *inside* the shard mutex, so append order always equals mutation
//!   order: the property that makes recovery bit-identical.
//! * [`Journal`] — ledger-wide: the coordinator log (locked *after*
//!   the shard locks, by commits and compaction alike, so no cycle
//!   exists), attempt ids, the [`ReplicationSink`], the failure and
//!   compaction counters, the WAL-flush spans.
//!
//! Every append goes through [`Journal::flush`]; recovery
//! ([`Journal::open`]) decodes the logs, applies presumed abort itself
//! and hands the ledger typed [`Replay`] events.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dpack_core::problem::{Block, BlockId, Task, TaskId};
use dpack_obs::trace::{span_id, with_active_traces, SpanKind};
use dpack_obs::{EventKind, FlightRecorder, Obs};
use dpack_wal::{Wal, WalCounters, WalError, WalOptions, WalStorage, WalTelemetry};

use crate::config::DurabilityOptions;
use crate::durability::{self, BlockState, CoordRecord, ShardRecord};
use crate::replication::{ReplStream, ReplicationSink};
use crate::stats::DurabilityStats;

pub(crate) fn shard_dir(shard: usize) -> String {
    format!("shard-{shard}")
}

pub(crate) const COORD_DIR: &str = "coord";

/// The WAL-flush span salt for coordinator-log appends — mirrors the
/// coordinator's wire stream id, so one constant names the stream in
/// spans, replication frames, and lag gauges alike.
const COORD_FLUSH_SALT: u64 = u32::MAX as u64;

/// One replayed fact, in the order the ledger must apply it.
pub(crate) enum Replay {
    /// A block as a shard snapshot holds it, or — with nothing consumed
    /// and nothing granted — as its registration record does.
    Block(BlockState),
    /// A grant to charge again — task, demand, blocks: an `Apply`, or
    /// an `Intent` whose attempt the coordinator committed.
    Grant(TaskId, Vec<f64>, Vec<BlockId>),
}

/// One shard's log plus the staging buffer its batches are encoded
/// into.
#[derive(Debug)]
pub(crate) struct ShardLog {
    shard: usize,
    wal: Wal,
    /// Reusable staging buffer for a cycle's batched records: cleared
    /// per batch, never shrunk, so the steady-state commit path does
    /// no per-record (or even per-cycle) allocation.
    scratch: Vec<u8>,
    /// Record boundaries into `scratch` (kept alongside it for reuse).
    bounds: Vec<usize>,
}

impl ShardLog {
    fn begin(&mut self) {
        self.scratch.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    fn stage(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.scratch);
        self.bounds.push(self.scratch.len());
    }

    fn is_staged(&self) -> bool {
        self.bounds.len() > 1
    }

    pub(crate) fn counters(&self) -> WalCounters {
        self.wal.counters()
    }
}

/// Opens a WAL-flush span: reads the clock only when the thread has
/// trace contexts pinned, so untraced commits (and the deterministic
/// manual-clock suites, which count clock reads) see zero extra reads.
fn flush_started(obs: &Obs) -> Option<u64> {
    let mut started = None;
    with_active_traces(|_| started = Some(obs.now_nanos()));
    started
}

/// Closes the WAL-flush span for every pinned trace. `salt`
/// distinguishes the flushed log (shard index, or the coordinator
/// stream id) and doubles as the span's attribute.
fn record_flush(obs: &Obs, started: Option<u64>, salt: u64) {
    let Some(start) = started else { return };
    let end = obs.now_nanos();
    with_active_traces(|ctxs| {
        for ctx in ctxs {
            obs.spans.record(
                ctx.trace,
                span_id(ctx.trace, SpanKind::WalFlush, salt),
                span_id(ctx.trace, SpanKind::Cycle, 0),
                SpanKind::WalFlush,
                start,
                end,
                salt,
            );
        }
    });
}

/// How [`Journal::flush`] appends its records.
#[derive(Clone, Copy, PartialEq)]
enum Append {
    /// One group commit ([`Wal::append_batch`]): one write, one sync,
    /// all records or none.
    Group,
    /// Record by record, each its own synchronous [`Wal::append`],
    /// stopping at the first failure — registrations and coordinator
    /// decisions.
    Singly,
}

/// The ledger-wide half of the write-ahead machinery.
#[derive(Debug)]
pub(crate) struct Journal {
    /// Cross-shard 2PC decision log.
    coord: Mutex<Wal>,
    /// Next cross-shard attempt id (unique across recoveries).
    next_attempt: AtomicU64,
    /// Where every durable append is shipped before it is acknowledged
    /// (see [`crate::replication`]); `None` on an unreplicated ledger.
    sink: Option<Arc<dyn ReplicationSink>>,
    /// Flushes whose local append failed.
    failed_appends: AtomicU64,
    /// Flushes whose ship failed *after* the local append succeeded
    /// (what that means: [`DurabilityStats::failed_ships`]).
    failed_ships: AtomicU64,
    compactions: AtomicU64,
    failed_compactions: AtomicU64,
    /// Where an instrumented journal reports its flushes: WAL-flush
    /// spans and `BatchFlushed` events.
    obs: Option<Obs>,
}

/// Registers the WAL latency and batch-size families — unconditionally,
/// so scrapes of an in-memory service expose them too — and attaches
/// them, the flush spans and the flight recorder to `journal` and its
/// shard `logs`, if the ledger has them.
pub(crate) fn instrument<'a>(
    obs: &Obs,
    journal: Option<&mut Journal>,
    logs: impl Iterator<Item = &'a mut ShardLog>,
) {
    let telemetry = WalTelemetry {
        clock: Arc::clone(obs.clock()),
        append_nanos: obs.registry.histogram("dpack_wal_append_nanos", ""),
        batch_records: obs.registry.histogram("dpack_wal_batch_records", ""),
    };
    let Some(journal) = journal else { return };
    for log in logs {
        log.wal.instrument(telemetry.clone());
    }
    journal.obs = Some(obs.clone());
    let coord = journal.coord.get_mut();
    coord
        .expect("instrument before sharing")
        .instrument(telemetry);
}

impl Journal {
    /// Opens the coordinator log and `shards` shard logs in `storage`
    /// and folds what they hold into `replay`, shard by shard: the
    /// snapshot, then the records in append order — `Intent`s iff the
    /// coordinator committed their attempt (presumed abort otherwise).
    /// Every step lands in `recorder`, so a post-crash dump
    /// reconstructs exactly what recovery did.
    pub(crate) fn open(
        storage: &dyn WalStorage,
        shards: usize,
        opts: DurabilityOptions,
        recorder: &FlightRecorder,
        mut replay: impl FnMut(usize, Replay) -> Result<(), WalError>,
    ) -> Result<(Self, Vec<ShardLog>), WalError> {
        recorder.record(EventKind::RecoveryStarted, shards as u64, 0);
        let wal_opts = WalOptions {
            segment_bytes: opts.segment_bytes,
        };

        // Coordinator first: shard replay needs the decided set.
        let (coord, recovered) = Wal::open(storage.sub(COORD_DIR)?, wal_opts)?;
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        let mut max_attempt: Option<u64> = None;
        for record in &recovered.records {
            let record = CoordRecord::decode(record)?;
            let (CoordRecord::Commit { attempt, .. } | CoordRecord::Abort { attempt, .. }) = record;
            max_attempt = max_attempt.max(Some(attempt));
            if matches!(record, CoordRecord::Commit { .. }) {
                committed.insert(attempt);
            }
        }
        recorder.record(
            EventKind::RecoveryCoordinator,
            committed.len() as u64,
            max_attempt.unwrap_or(0),
        );

        let mut logs = Vec::with_capacity(shards);
        let mut total_blocks = 0u64;
        for shard in 0..shards {
            let (wal, recovered) = Wal::open(storage.sub(&shard_dir(shard))?, wal_opts)?;
            recorder.record(
                EventKind::RecoveryShard,
                shard as u64,
                recovered.records.len() as u64,
            );
            if let Some(snapshot) = &recovered.snapshot {
                for state in durability::decode_snapshot(snapshot)? {
                    replay(shard, Replay::Block(state))?;
                    total_blocks += 1;
                }
            }
            for record in &recovered.records {
                // The grant a record re-applies, and its event payload:
                // 0 for a shard-local grant, the 2PC attempt + 1
                // otherwise (attempt ids start at 0).
                let (task, demand, blocks, attempt) = match ShardRecord::decode(record)? {
                    ShardRecord::Block {
                        id,
                        arrival,
                        capacity,
                    } => {
                        let fresh = BlockState {
                            id,
                            arrival,
                            consumed: vec![0.0; capacity.len()],
                            total: capacity,
                            granted: 0,
                        };
                        replay(shard, Replay::Block(fresh))?;
                        total_blocks += 1;
                        continue;
                    }
                    ShardRecord::Apply {
                        task,
                        demand,
                        blocks,
                    } => (task, demand, blocks, 0),
                    ShardRecord::Intent {
                        attempt,
                        task,
                        demand,
                        blocks,
                    } => {
                        max_attempt = max_attempt.max(Some(attempt));
                        if !committed.contains(&attempt) {
                            continue; // Presumed abort.
                        }
                        (task, demand, blocks, attempt + 1)
                    }
                };
                replay(shard, Replay::Grant(task, demand, blocks))?;
                recorder.record(EventKind::RecoveryApplied, task, attempt);
            }
            logs.push(ShardLog {
                shard,
                wal,
                scratch: Vec::new(),
                bounds: Vec::new(),
            });
        }
        recorder.record(EventKind::RecoveryFinished, total_blocks, 0);

        let journal = Self {
            coord: Mutex::new(coord),
            next_attempt: AtomicU64::new(max_attempt.map_or(0, |a| a + 1)),
            sink: None,
            failed_appends: AtomicU64::new(0),
            failed_ships: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failed_compactions: AtomicU64::new(0),
            obs: None,
        };
        Ok((journal, logs))
    }

    /// From now on every flush ships through `sink`.
    pub(crate) fn attach_sink(&mut self, sink: Arc<dyn ReplicationSink>) {
        self.sink = Some(sink);
    }

    /// Whether no cross-shard attempt was ever issued (or recovered).
    pub(crate) fn no_attempts(&self) -> bool {
        self.next_attempt.load(Ordering::Relaxed) == 0
    }

    /// The one way records become durable: append them to `wal` (the
    /// caller holds the lock that orders `stream`), count a failed
    /// append, close the WAL-flush span, record an acknowledged shard
    /// group commit in the flight recorder, and ship what was appended
    /// — quorum durability rides the same boundary as the fsync.
    /// `Ok(n)`: the first `n ≥ 1` records are durable here and on the
    /// replicas (always all of them for [`Append::Group`]). `Err`:
    /// nothing may be acknowledged — no record was appended, or the
    /// ship failed and the appended ones are durable locally only.
    fn flush(
        &self,
        wal: &mut Wal,
        stream: ReplStream,
        records: &[&[u8]],
        mode: Append,
    ) -> Result<usize, String> {
        let span = self.obs.as_ref().and_then(flush_started);
        let mut appended = 0;
        let result = match mode {
            Append::Group => wal.append_batch(records).map(|_| appended = records.len()),
            Append::Singly => records
                .iter()
                .try_for_each(|record| wal.append(record).map(|()| appended += 1)),
        };
        if let Err(e) = result {
            self.failed_appends.fetch_add(1, Ordering::Relaxed);
            if appended == 0 {
                return Err(e.to_string());
            }
        }
        if let Some(obs) = &self.obs {
            let salt = match stream {
                ReplStream::Shard(shard) => u64::from(shard),
                ReplStream::Coordinator => COORD_FLUSH_SALT,
            };
            record_flush(obs, span, salt);
            if mode == Append::Group {
                let count = appended as u64;
                obs.recorder.record(EventKind::BatchFlushed, salt, count);
            }
        }
        if let Some(sink) = &self.sink {
            if let Err(e) = sink.ship(stream, &records[..appended]) {
                self.failed_ships.fetch_add(1, Ordering::Relaxed);
                return Err(e.to_string());
            }
        }
        Ok(appended)
    }

    /// Group-commits the records staged in `log`.
    fn flush_staged(&self, log: &mut ShardLog) -> Result<usize, String> {
        let views: Vec<&[u8]> = log
            .bounds
            .windows(2)
            .map(|w| &log.scratch[w[0]..w[1]])
            .collect();
        let stream = ReplStream::Shard(log.shard as u32);
        self.flush(&mut log.wal, stream, &views, Append::Group)
    }

    /// Logs a block registration on its shard, before it becomes
    /// visible. `Err` (why the append or its ship failed): the block
    /// must not be registered.
    pub(crate) fn log_block(&self, log: &mut ShardLog, block: &Block) -> Result<(), String> {
        let record = ShardRecord::Block {
            id: block.id,
            arrival: block.arrival,
            capacity: block.capacity.values().to_vec(),
        }
        .encode();
        let stream = ReplStream::Shard(log.shard as u32);
        self.flush(&mut log.wal, stream, &[&record], Append::Singly)
            .map(drop)
    }

    /// Makes one shard's staged grants durable: one `Apply` record per
    /// task, one group commit, one ship. Returns how many of `granted`
    /// are — all, or none: a failed [`Wal::append_batch`] resurfaces
    /// nothing and a failed ship is never promoted, so the caller
    /// releases the whole batch.
    pub(crate) fn commit_local(&self, log: &mut ShardLog, granted: &[&Task]) -> usize {
        log.begin();
        for task in granted {
            let (demand, blocks) = (task.demand.values(), &task.blocks);
            log.stage(|buf| durability::encode_apply_into(buf, task.id, demand, blocks));
        }
        if !log.is_staged() {
            return 0;
        }
        self.flush_staged(log).unwrap_or(0)
    }

    /// Two-phase-commits staged cross-shard grants. `logs` are the
    /// logs of every shard lock the caller holds, ascending; `home`
    /// maps a block to its shard. Each task's per-shard `Intent`s join
    /// their home shard's batch, one flush per shard; then each attempt
    /// is decided by its own **single synchronous** coordinator
    /// `Commit` append, and the decided prefix ships once. Returns how
    /// many leading tasks of `granted` are decided — the caller must
    /// release the rest, as recovery's presumed abort will.
    pub(crate) fn commit_cross(
        &self,
        logs: &mut [&mut ShardLog],
        granted: &[&Task],
        home: impl Fn(BlockId) -> usize,
    ) -> usize {
        if granted.is_empty() {
            return 0;
        }
        for log in logs.iter_mut() {
            log.begin();
        }
        let mut attempts: Vec<(u64, TaskId)> = Vec::with_capacity(granted.len());
        let mut homed: Vec<BlockId> = Vec::new();
        for task in granted {
            let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
            attempts.push((attempt, task.id));
            for log in logs.iter_mut() {
                homed.clear();
                homed.extend(task.blocks.iter().filter(|b| home(**b) == log.shard));
                if homed.is_empty() {
                    continue;
                }
                let demand = task.demand.values();
                log.stage(|buf| {
                    durability::encode_intent_into(buf, attempt, task.id, demand, &homed)
                });
            }
        }

        for log in logs.iter_mut() {
            if log.is_staged() && self.flush_staged(log).is_err() {
                // Presumed abort: no attempt in this batch got (or
                // will get) a durable decision, so nothing is charged
                // anywhere — on recovery or in memory. The Abort
                // records are advisory (readers of the log can tell
                // the attempts died) and themselves best-effort.
                for (attempt, task) in attempts {
                    self.coordinate(&[&CoordRecord::Abort { attempt, task }.encode()]);
                }
                return 0;
            }
        }

        // Decide. A broken coordinator log stops at the first failed
        // append: that and every later attempt presume abort, earlier
        // commits stand. A decision counts only once it is
        // quorum-durable too: a failed ship decides nothing, and
        // promotion (which never sees these Commits) presumes abort —
        // consistent with the release.
        let decisions: Vec<Vec<u8>> = attempts
            .into_iter()
            .map(|(attempt, task)| CoordRecord::Commit { attempt, task }.encode())
            .collect();
        let views: Vec<&[u8]> = decisions.iter().map(Vec::as_slice).collect();
        self.coordinate(&views)
    }

    /// Appends `records` to the coordinator log one by one and ships
    /// them; returns how many leading ones are decided.
    fn coordinate(&self, records: &[&[u8]]) -> usize {
        let mut coord = self.coord.lock().expect("coordinator lock poisoned");
        self.flush(&mut coord, ReplStream::Coordinator, records, Append::Singly)
            .unwrap_or(0)
    }

    /// The log half of compaction, at the ledger's global quiescent
    /// point (all shard locks held) and after its tier maintenance,
    /// whose outcome `tier` fails — and counts as — the compaction.
    /// Folds each shard's `states` into a snapshot of its log, then
    /// truncates the coordinator. Shards go first — a crash anywhere
    /// inside leaves a recoverable mix of old segments, snapshots, and
    /// a coordinator that is at worst a superset of what the surviving
    /// intents need. A log broken by an earlier failed append is
    /// [repaired](Wal::repair) first.
    ///
    /// # Errors
    ///
    /// The first WAL error; shards already compacted stay compacted.
    pub(crate) fn compact<'a>(
        &self,
        tier: Result<(), WalError>,
        shards: impl Iterator<Item = (&'a mut ShardLog, Vec<BlockState>)>,
    ) -> Result<(), WalError> {
        let result = tier.and_then(|()| {
            for (log, states) in shards {
                log.wal.repair()?;
                log.wal.snapshot(&durability::encode_snapshot(&states))?;
            }
            // Last: every live intent is now baked into a shard
            // snapshot, so the decision log can restart empty.
            let mut coord = self.coord.lock().expect("coordinator lock poisoned");
            coord.repair()?;
            coord.snapshot(&[])
        });
        let outcome = match result {
            Ok(()) => &self.compactions,
            Err(_) => &self.failed_compactions,
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Write-ahead activity: this journal's counters plus the shard
    /// logs' `shard_counters`.
    pub(crate) fn stats(
        &self,
        shard_counters: impl Iterator<Item = WalCounters>,
    ) -> DurabilityStats {
        let mut counters = self
            .coord
            .lock()
            .expect("coordinator lock poisoned")
            .counters();
        for shard in shard_counters {
            counters.absorb(shard);
        }
        DurabilityStats {
            records: counters.records,
            bytes: counters.bytes,
            failed_appends: self.failed_appends.load(Ordering::Relaxed),
            failed_ships: self.failed_ships.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            failed_compactions: self.failed_compactions.load(Ordering::Relaxed),
            sync_calls: counters.syncs,
            batches: counters.batches,
            batched_records: counters.batched_records,
            batch_min: counters.batch_min,
            batch_max: counters.batch_max,
        }
    }
}
