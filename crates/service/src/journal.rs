//! The journal: how a grant becomes durable.
//!
//! The one module that knows records ([`crate::durability`]), group
//! commit, two-phase-commit decisions and replication shipping. The
//! ledger stages a cycle's batches on its filters under the shard
//! locks, then asks [`Journal::commit_local`] or
//! [`Journal::commit_cross`] how much of them became durable, and
//! undoes the rest.
//!
//! * [`ShardLog`] — one shard's log and staging buffer. It lives
//!   *inside* the shard mutex, so append order always equals mutation
//!   order: the property that makes recovery bit-identical.
//! * [`Journal`] — ledger-wide: the coordinator log (locked *after*
//!   the shard locks, by commits and compaction alike, so no cycle
//!   exists), attempt ids, the [`ReplicationSink`], the failure and
//!   compaction counters, the WAL-flush spans.
//!
//! Every append goes through [`Journal::flush_all`]: the logs of one
//! step — a cycle's shard-local batches, a two-phase batch's per-shard
//! intents, its coordinator decisions, one registration — are all
//! appended, then shipped in **one** [`ReplicationSink::ship_all`]
//! round. Per stream, ship order = append order = mutation order: the
//! caller holds the lock that orders each stream from before its
//! records are staged until the outcome is known. Recovery
//! ([`Journal::open`]) decodes the logs, applies presumed abort itself
//! and hands the ledger typed [`Replay`] events.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dpack_core::problem::{Block, BlockId, TaskId};
use dpack_obs::trace::{span_id, SpanKind};
use dpack_obs::{EventKind, FlightRecorder, Obs, TraceContext};
use dpack_wal::{Wal, WalCounters, WalError, WalOptions, WalStorage, WalTelemetry};

use crate::config::DurabilityOptions;
use crate::durability::{self, BlockState, CoordRecord, ShardRecord};
use crate::ledger::Traced;
use crate::replication::{ReplStream, ReplicationSink, ShipBatch};
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

    /// The staged records as one group commit on this shard's stream,
    /// on behalf of `traces`.
    fn staged<'a>(&'a mut self, traces: &'a [TraceContext]) -> Flush<'a> {
        let Self {
            shard,
            wal,
            scratch,
            bounds,
        } = self;
        Flush {
            wal,
            stream: ReplStream::Shard(*shard as u32),
            records: bounds.windows(2).map(|w| &scratch[w[0]..w[1]]).collect(),
            mode: Append::Group,
            traces,
        }
    }

    pub(crate) fn counters(&self) -> WalCounters {
        self.wal.counters()
    }
}

/// How [`Journal::flush_all`] appends one log's records.
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

/// One log's part of a [`Journal::flush_all`] step: where the records
/// go, how, and which traced grants they belong to.
struct Flush<'a> {
    wal: &'a mut Wal,
    stream: ReplStream,
    records: Vec<&'a [u8]>,
    mode: Append,
    traces: &'a [TraceContext],
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

    /// Appends one log's records on the calling thread (the caller
    /// holds the lock that orders the stream), counts a failed append,
    /// and reports the flush: a WAL-flush span for each of its traced
    /// grants — the clock is read only when there are some, so untraced
    /// commits (and the deterministic manual-clock suites, which count
    /// clock reads) see zero extra reads — and an acknowledged group
    /// commit in the flight recorder. `Ok(n)`: the first `n` records are
    /// in the log (all of them for [`Append::Group`]; 0 only if there
    /// were none, and then nothing is done). `Err`: none is.
    fn append(&self, flush: &mut Flush<'_>) -> Result<usize, String> {
        if flush.records.is_empty() {
            return Ok(0);
        }
        let traced = self.obs.as_ref().filter(|_| !flush.traces.is_empty());
        let started = traced.map(Obs::now_nanos);
        let mut appended = 0;
        let result = match flush.mode {
            Append::Group => flush
                .wal
                .append_batch(&flush.records)
                .map(|_| appended = flush.records.len()),
            Append::Singly => flush
                .records
                .iter()
                .try_for_each(|record| flush.wal.append(record).map(|()| appended += 1)),
        };
        if let Err(e) = result {
            self.failed_appends.fetch_add(1, Ordering::Relaxed);
            if appended == 0 {
                return Err(e.to_string());
            }
        }
        let Some(obs) = &self.obs else {
            return Ok(appended);
        };
        // The flushed log — shard index, or the coordinator stream id —
        // salts the span id and doubles as the span's attribute.
        let salt = match flush.stream {
            ReplStream::Shard(shard) => u64::from(shard),
            ReplStream::Coordinator => COORD_FLUSH_SALT,
        };
        if let Some(start) = started {
            let end = obs.now_nanos();
            for ctx in flush.traces {
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
        if flush.mode == Append::Group {
            let count = appended as u64;
            obs.recorder.record(EventKind::BatchFlushed, salt, count);
        }
        Ok(appended)
    }

    /// The one way records become durable: append every flush of the
    /// step to its log — dealt over `workers` threads, the calling
    /// thread taking the first share, so different logs' syncs
    /// overlap — then ship every stream that appended something in one
    /// [`ReplicationSink::ship_all`] round; quorum durability rides the
    /// same boundary as the fsync, once per step. Per flush, `Ok(n)`:
    /// the first `n` records are durable here and on the replicas
    /// (always all of them for [`Append::Group`]; 0 only if it had
    /// none). `Err`: nothing of that flush may be acknowledged — no
    /// record was appended, or its own stream's ship failed and the
    /// appended ones are durable locally only.
    fn flush_all(&self, flushes: &mut [Flush<'_>], workers: usize) -> Vec<Result<usize, String>> {
        // Contiguous shares, so the outcomes come back in the flushes'
        // order.
        let share = flushes.len().div_ceil(workers.max(1)).max(1);
        let mut results: Vec<Result<usize, String>> = std::thread::scope(|scope| {
            let mut shares = flushes.chunks_mut(share);
            let mine = shares.next().into_iter().flatten();
            let lanes: Vec<_> = shares
                .map(|share| {
                    let append = move || share.iter_mut().map(|f| self.append(f)).collect();
                    scope.spawn(append)
                })
                .collect();
            let mut results: Vec<_> = mine.map(|flush| self.append(flush)).collect();
            for lane in lanes {
                let theirs: Vec<_> = lane.join().expect("append worker panicked");
                results.extend(theirs);
            }
            results
        });
        let Some(sink) = &self.sink else {
            return results;
        };
        let (shipped, batches): (Vec<usize>, Vec<ShipBatch<'_>>) = flushes
            .iter()
            .zip(&results)
            .enumerate()
            .filter_map(|(i, (flush, appended))| {
                let appended = *appended.as_ref().ok().filter(|n| **n > 0)?;
                let batch = ShipBatch {
                    stream: flush.stream,
                    records: &flush.records[..appended],
                    traces: flush.traces,
                };
                Some((i, batch))
            })
            .unzip();
        if batches.is_empty() {
            return results;
        }
        let outcomes = sink.ship_all(&batches);
        debug_assert_eq!(outcomes.len(), batches.len(), "one outcome per batch");
        for (i, outcome) in shipped.into_iter().zip(outcomes) {
            if let Err(e) = outcome {
                self.failed_ships.fetch_add(1, Ordering::Relaxed);
                results[i] = Err(e.to_string());
            }
        }
        results
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
        let flush = Flush {
            wal: &mut log.wal,
            stream: ReplStream::Shard(log.shard as u32),
            records: vec![&record],
            mode: Append::Singly,
            traces: &[],
        };
        self.flush_all(&mut [flush], 1).remove(0).map(drop)
    }

    /// Makes a cycle's staged shard-local grants durable. A batch is one
    /// shard's log (its lock is held) and the grants staged on it, in
    /// staging order: one `Apply` record per task and one group commit,
    /// on behalf of the traced ones, the appends dealt over `workers`
    /// threads; then one ship round for all the batches. Returns, per
    /// batch, whether its grants are durable — all of them, or none: a
    /// failed [`Wal::append_batch`] resurfaces nothing and a failed
    /// ship is never promoted, so the caller releases that whole batch,
    /// and only that one. (A batch with no grant has nothing to lose.)
    pub(crate) fn commit_local(
        &self,
        batches: &mut [(&mut ShardLog, Vec<Traced<'_>>)],
        workers: usize,
    ) -> Vec<bool> {
        let mut traces: Vec<Vec<TraceContext>> = Vec::with_capacity(batches.len());
        for (log, granted) in batches.iter_mut() {
            log.begin();
            for (task, _) in granted.iter() {
                let (demand, blocks) = (task.demand.values(), &task.blocks);
                log.stage(|buf| durability::encode_apply_into(buf, task.id, demand, blocks));
            }
            traces.push(granted.iter().filter_map(|(_, trace)| *trace).collect());
        }
        let mut flushes: Vec<Flush<'_>> = batches
            .iter_mut()
            .zip(&traces)
            .map(|((log, _), traces)| log.staged(traces))
            .collect();
        let flushed = self.flush_all(&mut flushes, workers);
        flushed.iter().map(Result::is_ok).collect()
    }

    /// Two-phase-commits staged cross-shard grants. `logs` are the
    /// logs of every shard lock the caller holds, ascending; `home`
    /// maps a block to its shard. Each task's per-shard `Intent`s join
    /// their home shard's batch — one group commit per shard, one ship
    /// round for all of them, on behalf of the traced tasks with a
    /// block there; then each attempt is decided by its own **single
    /// synchronous** coordinator `Commit` append, and the decided
    /// prefix ships once. Returns how many leading tasks of `granted`
    /// are decided — the caller must release the rest, as recovery's
    /// presumed abort will.
    pub(crate) fn commit_cross(
        &self,
        logs: &mut [&mut ShardLog],
        granted: &[Traced<'_>],
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
        // Per log, the traced tasks with an intent in it; and all of them.
        let mut log_traces: Vec<Vec<TraceContext>> = vec![Vec::new(); logs.len()];
        let traces: Vec<TraceContext> = granted.iter().filter_map(|(_, trace)| *trace).collect();
        for (task, trace) in granted {
            let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
            attempts.push((attempt, task.id));
            for (log, traced) in logs.iter_mut().zip(&mut log_traces) {
                homed.clear();
                homed.extend(task.blocks.iter().filter(|b| home(**b) == log.shard));
                if homed.is_empty() {
                    continue;
                }
                let demand = task.demand.values();
                log.stage(|buf| {
                    durability::encode_intent_into(buf, attempt, task.id, demand, &homed)
                });
                traced.extend(*trace);
            }
        }

        let mut intents: Vec<Flush<'_>> = logs
            .iter_mut()
            .zip(&log_traces)
            .map(|(log, traced)| log.staged(traced))
            .collect();
        if self.flush_all(&mut intents, 1).iter().any(Result::is_err) {
            // Presumed abort: no attempt in this batch got (or will
            // get) a durable decision, so nothing is charged anywhere
            // — on recovery or in memory. The Abort records are
            // advisory (readers of the log can tell the attempts died)
            // and themselves best-effort.
            let aborts: Vec<Vec<u8>> = attempts
                .into_iter()
                .map(|(attempt, task)| CoordRecord::Abort { attempt, task }.encode())
                .collect();
            self.coordinate(&aborts, &traces);
            return 0;
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
        self.coordinate(&decisions, &traces)
    }

    /// Appends `records` to the coordinator log one by one and ships
    /// them once; returns how many leading ones are decided.
    fn coordinate(&self, records: &[Vec<u8>], traces: &[TraceContext]) -> usize {
        let mut coord = self.coord.lock().expect("coordinator lock poisoned");
        let flush = Flush {
            wal: &mut coord,
            stream: ReplStream::Coordinator,
            records: records.iter().map(Vec::as_slice).collect(),
            mode: Append::Singly,
            traces,
        };
        self.flush_all(&mut [flush], 1).remove(0).unwrap_or(0)
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
