//! The journal: how a grant becomes durable.
//!
//! The one module that knows records ([`crate::durability`]), group
//! commit, two-phase-commit decisions and replication shipping. The
//! ledger stages a step on its filters under the shard locks, then asks
//! [`Journal::commit_local`] or [`Journal::commit_cross`] how much of it
//! became durable, and undoes the rest.
//!
//! A durable ledger has **one** log (under [`LOG_DIR`]) whose records
//! name their stream — a shard's or the coordinator's — so every commit
//! step (a cycle's shard-local batches, a two-phase batch's intents,
//! its decisions, one registration) is one [`Wal::append_batch`] and
//! one sync however many shards it touches, then one
//! [`ReplicationSink::ship_all`] round of per-stream slices
//! ([`Journal::flush`]). A failed append fails the whole step; a refused
//! ship fails only its own stream. The log sits behind one lock, taken
//! *after* the shard locks by commits, registrations and compaction
//! alike, and held from the first staged record to the last ship
//! outcome: per stream, append order = ship order = mutation order,
//! which makes recovery bit-identical. Recovery ([`Journal::open`])
//! demultiplexes the log by stream, folds it shard by shard, applies
//! presumed abort itself and hands the ledger typed [`Replay`] events.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use dpack_core::problem::{Block, BlockId, TaskId};
use dpack_obs::trace::{span_id, SpanKind};
use dpack_obs::{EventKind, FlightRecorder, Obs, TraceContext};
use dpack_wal::{Wal, WalError, WalOptions, WalStorage};

use crate::config::DurabilityOptions;
use crate::durability::{self, BlockState, LogRecord};
use crate::ledger::Traced;
use crate::replication::{ReplShipError, ReplStream, ReplicationSink, ShipBatch};
use crate::stats::DurabilityStats;

/// The namespace the ledger's log lives in.
pub(crate) const LOG_DIR: &str = "wal";

/// The WAL-flush span salt for the coordinator's stream — mirrors the
/// coordinator's wire stream id, so one constant names the stream in
/// spans, replication frames, and lag gauges alike.
const COORD_FLUSH_SALT: u64 = u32::MAX as u64;

/// One replayed fact, in the order the ledger must apply it.
pub(crate) enum Replay {
    /// A block as a snapshot or resync base holds it, or — with nothing
    /// consumed and nothing granted — as its registration record does.
    Block(BlockState),
    /// A grant to charge again — task, demand, blocks: an `Apply`, or
    /// an `Intent` whose attempt the coordinator committed.
    Grant(TaskId, Vec<f64>, Vec<BlockId>),
}

/// The log plus the staging buffer a step's records are encoded into.
#[derive(Debug)]
struct Log {
    wal: Wal,
    /// Reusable staging buffer for a step's records: cleared per step,
    /// never shrunk, so the steady-state commit path does no
    /// per-record (or even per-cycle) allocation.
    scratch: Vec<u8>,
    /// Record boundaries into `scratch` (kept alongside it for reuse).
    bounds: Vec<usize>,
}

impl Log {
    fn begin(&mut self) {
        self.scratch.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    fn stage(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.scratch);
        self.bounds.push(self.scratch.len());
    }

    /// Records staged since [`Log::begin`].
    fn staged(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// One stream's slice of a step: the staged records `records` (indices
/// in staging order) and the traced grants they belong to.
struct Part {
    stream: ReplStream,
    records: Range<usize>,
    traces: Vec<TraceContext>,
}

/// The ledger-wide write-ahead machinery.
#[derive(Debug)]
pub(crate) struct Journal {
    log: Mutex<Log>,
    /// Next cross-shard attempt id (unique across recoveries).
    next_attempt: AtomicU64,
    /// Where every durable append is shipped before it is acknowledged
    /// (see [`crate::replication`]); `None` on an unreplicated ledger.
    sink: OnceLock<Arc<dyn ReplicationSink>>,
    /// Steps whose local append failed.
    failed_appends: AtomicU64,
    /// Stream batches whose ship failed *after* the local append
    /// succeeded (what that means: [`DurabilityStats::failed_ships`]).
    failed_ships: AtomicU64,
    compactions: AtomicU64,
    failed_compactions: AtomicU64,
    /// Where an instrumented journal reports its flushes: WAL-flush
    /// spans and `BatchFlushed` events.
    obs: Option<Obs>,
}

/// Attaches the WAL's latency and batch-size histograms, the flush
/// spans and the flight recorder to `journal`. A ledger without one
/// registers the two histograms all the same, so scrapes of an
/// in-memory service list the same families.
pub(crate) fn instrument(obs: &Obs, journal: Option<&mut Journal>) {
    let Some(journal) = journal else {
        obs.registry.histogram("dpack_wal_append_nanos", "");
        obs.registry.histogram("dpack_wal_batch_records", "");
        return;
    };
    journal.obs = Some(obs.clone());
    let log = journal.log.get_mut().expect("instrument before sharing");
    log.wal.instrument(obs);
}

impl Journal {
    /// Opens the log in `storage` and folds what it holds into
    /// `replay` for a ledger of `shards` shards: the compaction
    /// snapshot, the coordinator stream (the committed attempts), then
    /// shard by shard the shard's records in log order — `Intent`s iff
    /// the coordinator committed their attempt (presumed abort
    /// otherwise). A stream's resync base ([`LogRecord::Base`])
    /// supersedes what the stream logged before it (a replica, the only
    /// writer of bases, never compacts). Every step lands in
    /// `recorder`, so a post-crash dump reconstructs exactly what
    /// recovery did.
    pub(crate) fn open(
        storage: &dyn WalStorage,
        shards: usize,
        opts: DurabilityOptions,
        recorder: &FlightRecorder,
        mut replay: impl FnMut(Replay) -> Result<(), WalError>,
    ) -> Result<Self, WalError> {
        recorder.record(EventKind::RecoveryStarted, shards as u64, 0);
        let wal_opts = WalOptions {
            segment_bytes: opts.segment_bytes,
        };
        let (wal, recovered) = Wal::open(storage.sub(LOG_DIR)?, wal_opts)?;
        // The compaction snapshot predates every record.
        let mut total_blocks = 0u64;
        let snapshot = recovered
            .snapshot
            .as_deref()
            .map(durability::decode_snapshot);
        for state in snapshot.transpose()?.into_iter().flatten() {
            replay(Replay::Block(state))?;
            total_blocks += 1;
        }
        // Demultiplex: per stream (coordinator last), its latest base
        // and the records logged after it, in log order.
        let mut bases: Vec<Option<Vec<u8>>> = vec![None; shards + 1];
        let mut streams: Vec<Vec<&[u8]>> = vec![Vec::new(); shards + 1];
        for record in &recovered.records {
            let (stream, base) = LogRecord::head(record)?;
            let slot = match stream {
                ReplStream::Shard(s) if (s as usize) < shards => s as usize,
                ReplStream::Shard(s) => {
                    return Err(WalError::Corrupt(format!(
                        "record on shard {s}, but the ledger has {shards} shards"
                    )))
                }
                ReplStream::Coordinator => shards,
            };
            if base.is_some() {
                let LogRecord::Base { snapshot, .. } = LogRecord::decode(record)? else {
                    unreachable!("the head named a base");
                };
                bases[slot] = Some(snapshot);
                streams[slot].clear();
            } else {
                streams[slot].push(record);
            }
        }

        // Coordinator first: shard replay needs the decided set.
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        let mut max_attempt: Option<u64> = None;
        for record in &streams[shards] {
            let decision = LogRecord::decode(record)?;
            let (LogRecord::Commit { attempt, .. } | LogRecord::Abort { attempt, .. }) = &decision
            else {
                unreachable!("the head named the coordinator stream");
            };
            max_attempt = max_attempt.max(Some(*attempt));
            if matches!(decision, LogRecord::Commit { .. }) {
                committed.insert(*attempt);
            }
        }
        recorder.record(
            EventKind::RecoveryCoordinator,
            committed.len() as u64,
            max_attempt.unwrap_or(0),
        );

        for (shard, records) in streams[..shards].iter().enumerate() {
            recorder.record(EventKind::RecoveryShard, shard as u64, records.len() as u64);
            let base = bases[shard].as_deref().map(durability::decode_snapshot);
            for state in base.transpose()?.into_iter().flatten() {
                replay(Replay::Block(state))?;
                total_blocks += 1;
            }
            for record in records {
                // The grant a record re-applies, and its event payload:
                // 0 for a shard-local grant, the 2PC attempt + 1
                // otherwise (attempt ids start at 0).
                let (task, demand, blocks, attempt) = match LogRecord::decode(record)? {
                    LogRecord::Block {
                        id,
                        arrival,
                        capacity,
                        ..
                    } => {
                        let fresh = BlockState {
                            id,
                            arrival,
                            consumed: vec![0.0; capacity.len()],
                            total: capacity,
                            granted: 0,
                        };
                        replay(Replay::Block(fresh))?;
                        total_blocks += 1;
                        continue;
                    }
                    LogRecord::Apply {
                        task,
                        demand,
                        blocks,
                        ..
                    } => (task, demand, blocks, 0),
                    LogRecord::Intent {
                        attempt,
                        task,
                        demand,
                        blocks,
                        ..
                    } => {
                        max_attempt = max_attempt.max(Some(attempt));
                        if !committed.contains(&attempt) {
                            continue; // Presumed abort.
                        }
                        (task, demand, blocks, attempt + 1)
                    }
                    _ => unreachable!("the head named a shard stream"),
                };
                replay(Replay::Grant(task, demand, blocks))?;
                recorder.record(EventKind::RecoveryApplied, task, attempt);
            }
        }
        recorder.record(EventKind::RecoveryFinished, total_blocks, 0);

        Ok(Self {
            log: Mutex::new(Log {
                wal,
                scratch: Vec::new(),
                bounds: Vec::new(),
            }),
            next_attempt: AtomicU64::new(max_attempt.map_or(0, |a| a + 1)),
            sink: OnceLock::new(),
            failed_appends: AtomicU64::new(0),
            failed_ships: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failed_compactions: AtomicU64::new(0),
            obs: None,
        })
    }

    /// From now on every flush ships through `sink`; panics if one
    /// already does.
    pub(crate) fn attach_sink(&self, sink: Arc<dyn ReplicationSink>) {
        let attached = self.sink.set(sink).is_ok();
        assert!(attached, "a journal ships through one replication sink");
    }

    /// Whether no cross-shard attempt was ever issued (or recovered).
    pub(crate) fn no_attempts(&self) -> bool {
        self.next_attempt.load(Ordering::Relaxed) == 0
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("journal lock poisoned")
    }

    /// The one way records become durable: the step staged in `log`
    /// since [`Log::begin`] is appended with **one** group commit (a
    /// step of one record is a plain append, which is what a one-record
    /// batch is on disk), then every part that staged a record is
    /// shipped on its stream in **one** [`ReplicationSink::ship_all`]
    /// round. `Err`: the append failed and no record of the step is
    /// durable. `Ok`: per part, whether it reached quorum — a refused
    /// part's records are durable locally only, so nothing of it may be
    /// acknowledged.
    ///
    /// The flush is reported per part: a WAL-flush span for each traced
    /// grant, salted with the stream (the clock is read only when there
    /// are some, so untraced commits — and the deterministic
    /// manual-clock suites, which count clock reads — see zero extra
    /// reads), and a `BatchFlushed` event in the flight recorder.
    fn flush(
        &self,
        log: &mut Log,
        parts: &[Part],
    ) -> Result<Vec<Result<(), ReplShipError>>, WalError> {
        let Log {
            wal,
            scratch,
            bounds,
        } = log;
        let records: Vec<&[u8]> = bounds.windows(2).map(|w| &scratch[w[0]..w[1]]).collect();
        let traced = parts.iter().any(|part| !part.traces.is_empty());
        let started = self.obs.as_ref().filter(|_| traced).map(Obs::now_nanos);
        let appended = match records.as_slice() {
            [] => Ok(()),
            [record] => wal.append(record),
            records => wal.append_batch(records).map(drop),
        };
        if let Err(e) = appended {
            self.failed_appends.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let written = || {
            parts
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.records.is_empty())
        };
        if let Some(obs) = &self.obs {
            let ended = started.map(|_| obs.now_nanos());
            for (_, part) in written() {
                // The stream — shard index, or the coordinator's wire
                // id — salts the span id and doubles as its attribute.
                let salt = match part.stream {
                    ReplStream::Shard(shard) => u64::from(shard),
                    ReplStream::Coordinator => COORD_FLUSH_SALT,
                };
                if let (Some(start), Some(end)) = (started, ended) {
                    for ctx in &part.traces {
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
                }
                let count = part.records.len() as u64;
                obs.recorder.record(EventKind::BatchFlushed, salt, count);
            }
        }
        let mut outcomes = vec![Ok(()); parts.len()];
        let Some(sink) = self.sink.get() else {
            return Ok(outcomes);
        };
        let (shipped, batches): (Vec<usize>, Vec<ShipBatch<'_>>) = written()
            .map(|(i, part)| {
                let (stream, traces) = (part.stream, part.traces.as_slice());
                let records = &records[part.records.clone()];
                (
                    i,
                    ShipBatch {
                        stream,
                        records,
                        traces,
                    },
                )
            })
            .unzip();
        if batches.is_empty() {
            return Ok(outcomes);
        }
        for (i, outcome) in shipped.into_iter().zip(sink.ship_all(&batches)) {
            if outcome.is_err() {
                self.failed_ships.fetch_add(1, Ordering::Relaxed);
            }
            outcomes[i] = outcome;
        }
        Ok(outcomes)
    }

    /// Logs a block registration on its shard's stream, before it
    /// becomes visible (the caller holds the shard's lock). `Err` (why
    /// the append or its ship failed): the block must not be registered.
    pub(crate) fn log_block(&self, shard: usize, block: &Block) -> Result<(), String> {
        let record = LogRecord::Block {
            shard: shard as u32,
            id: block.id,
            arrival: block.arrival,
            capacity: block.capacity.values().to_vec(),
        }
        .encode();
        let mut log = self.lock();
        log.begin();
        log.stage(|buf| buf.extend_from_slice(&record));
        let part = Part {
            stream: ReplStream::Shard(shard as u32),
            records: 0..1,
            traces: Vec::new(),
        };
        let mut shipped = self.flush(&mut log, &[part]).map_err(|e| e.to_string())?;
        shipped.remove(0).map_err(|e| e.to_string())
    }

    /// Makes a step's staged shard-local grants durable. A batch is one
    /// shard (its lock is held) and the grants staged on it, in staging
    /// order: one `Apply` record per task on the shard's stream, all
    /// the batches in one group commit and one ship round, on behalf of
    /// the traced grants. Returns, per batch, whether its grants are
    /// durable — all of them, or none: a failed append resurfaces
    /// nothing of the step, so every batch is released; a refused ship
    /// is never promoted, so that stream's batch, and only that one, is
    /// released. (A batch with no grant has nothing to lose.)
    pub(crate) fn commit_local(&self, batches: &[(usize, Vec<Traced<'_>>)]) -> Vec<bool> {
        let mut log = self.lock();
        log.begin();
        let mut parts = Vec::with_capacity(batches.len());
        for (shard, granted) in batches {
            let (shard, from) = (*shard as u32, log.staged());
            for (task, _) in granted {
                let (demand, blocks) = (task.demand.values(), &task.blocks);
                log.stage(|buf| durability::encode_apply_into(buf, shard, task.id, demand, blocks));
            }
            parts.push(Part {
                stream: ReplStream::Shard(shard),
                records: from..log.staged(),
                traces: granted.iter().filter_map(|(_, trace)| *trace).collect(),
            });
        }
        match self.flush(&mut log, &parts) {
            Ok(shipped) => shipped.iter().map(Result::is_ok).collect(),
            Err(_) => vec![false; batches.len()],
        }
    }

    /// Two-phase-commits staged cross-shard grants (the caller holds
    /// the lock of every shard they touch); `home` maps a block to its
    /// shard. Step one: each task's per-shard `Intent`s on their home
    /// shards' streams, one group commit and one ship round for all of
    /// them, on behalf of the traced tasks with a block there. Step
    /// two: every attempt's coordinator `Commit`, one group commit and
    /// one ship. Returns whether the grants are decided — all of them,
    /// or none: the caller must release them all otherwise, as
    /// recovery's presumed abort will.
    pub(crate) fn commit_cross(
        &self,
        granted: &[Traced<'_>],
        home: impl Fn(BlockId) -> usize,
    ) -> bool {
        if granted.is_empty() {
            return true;
        }
        let shards: BTreeSet<usize> = granted
            .iter()
            .flat_map(|(task, _)| task.blocks.iter().map(|b| home(*b)))
            .collect();
        let first = self
            .next_attempt
            .fetch_add(granted.len() as u64, Ordering::Relaxed);
        let attempts = || (first..).zip(granted);

        let mut log = self.lock();
        log.begin();
        let mut homed: Vec<BlockId> = Vec::new();
        let mut parts = Vec::with_capacity(shards.len());
        for shard in shards {
            // The shard's intents, on behalf of the traced tasks with a
            // block there.
            let (from, mut traces) = (log.staged(), Vec::new());
            for (attempt, (task, trace)) in attempts() {
                homed.clear();
                homed.extend(task.blocks.iter().filter(|b| home(**b) == shard));
                if homed.is_empty() {
                    continue;
                }
                let (demand, shard) = (task.demand.values(), shard as u32);
                log.stage(|buf| {
                    durability::encode_intent_into(buf, shard, attempt, task.id, demand, &homed)
                });
                traces.extend(*trace);
            }
            parts.push(Part {
                stream: ReplStream::Shard(shard as u32),
                records: from..log.staged(),
                traces,
            });
        }
        let decide = |log: &mut Log, decision: fn(u64, TaskId) -> LogRecord| {
            log.begin();
            for (attempt, (task, _)) in attempts() {
                let record = decision(attempt, task.id).encode();
                log.stage(|buf| buf.extend_from_slice(&record));
            }
            let part = Part {
                stream: ReplStream::Coordinator,
                records: 0..granted.len(),
                traces: granted.iter().filter_map(|(_, trace)| *trace).collect(),
            };
            self.flush(log, &[part])
                .is_ok_and(|shipped| shipped.iter().all(Result::is_ok))
        };
        match self.flush(&mut log, &parts) {
            // Nothing of the step is durable, and the log is broken
            // until repaired: there is nothing to decide or annotate.
            Err(_) => false,
            // Presumed abort: some intent is not quorum-durable, so no
            // attempt in this batch gets (or will get) a durable
            // decision and nothing is charged anywhere — on recovery,
            // promotion or in memory. The Abort records are advisory
            // (readers of the log can tell the attempts died) and
            // themselves best-effort.
            Ok(shipped) if shipped.iter().any(Result::is_err) => {
                decide(&mut log, |attempt, task| LogRecord::Abort { attempt, task });
                false
            }
            // Decide. A decision counts only once it is quorum-durable
            // too: a failed append or ship decides nothing, and
            // recovery or promotion (which never sees these Commits)
            // presumes abort — consistent with the release.
            Ok(_) => decide(&mut log, |attempt, task| LogRecord::Commit {
                attempt,
                task,
            }),
        }
    }

    /// The log half of compaction, at the ledger's global quiescent
    /// point (all shard locks held). Folds every block's `states` into
    /// one snapshot of the log: the coordinator stream restarts empty,
    /// because every live intent is now baked into its blocks' states.
    /// A crash inside leaves either the old log or the snapshot
    /// ([`Wal::snapshot`]). A log broken by an earlier failed append is
    /// [repaired](Wal::repair) first.
    ///
    /// # Errors
    ///
    /// The first WAL error.
    pub(crate) fn compact(&self, states: &[BlockState]) -> Result<(), WalError> {
        let result = {
            let mut log = self.lock();
            log.wal
                .repair()
                .and_then(|()| log.wal.snapshot(&durability::encode_snapshot(states)))
        };
        let outcome = match result {
            Ok(()) => &self.compactions,
            Err(_) => &self.failed_compactions,
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Write-ahead activity: the log's counters plus this journal's.
    pub(crate) fn stats(&self) -> DurabilityStats {
        let counters = self.lock().wal.counters();
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
