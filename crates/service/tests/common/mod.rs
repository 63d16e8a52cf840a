//! Support shared by the crash, promotion and chaos suites: the one
//! reference fold of a durable ledger's log, and the conversions from
//! service types to the history oracle's plain data
//! ([`dpack_check::check_history`], [`dpack_check::diff_states`]).
//!
//! The fold is independent of the service's recovery code: it decodes
//! the records, demultiplexes the one log by stream tag, and adds
//! demands in plain `f64` in log order, so it is the reference that
//! recovery is compared against.

#![allow(dead_code)] // Each suite uses its own subset.

use std::collections::{BTreeMap, BTreeSet};

use dp_accounting::fit_limit;
use dpack_check::{BlockView, Failed, Grant, History};
use dpack_core::problem::{BlockId, Task, TaskId};
use dpack_service::durability::{decode_snapshot, BlockState, LogRecord};
use dpack_service::wal::{SimStorage, Wal, WalError, WalOptions, WalStorage};
use dpack_service::{BudgetService, DurabilityOptions};

/// What the reference fold reads out of a log.
pub struct Fold {
    /// Per-block states after the whole log.
    pub blocks: BTreeMap<BlockId, BlockState>,
    /// Each applied record's task and the blocks it charged, in log
    /// order: an `Apply`, or an `Intent` of a committed attempt.
    pub applied: Vec<(TaskId, Vec<BlockId>)>,
    /// Whether the fold starts from a compaction snapshot.
    pub snapshot: bool,
    /// Every `Intent` record: its attempt, task, blocks, and whether the
    /// coordinator committed the attempt.
    pub intents: Vec<(u64, TaskId, Vec<BlockId>, bool)>,
}

impl Fold {
    /// The history this log tells about the grants in `acked`.
    pub fn history(&self, acked: Vec<Grant>) -> History {
        History {
            applied: self.applied.clone(),
            complete: !self.snapshot,
            ..history(acked, &self.blocks)
        }
    }

    /// The tasks the log applies.
    pub fn applied_tasks(&self) -> BTreeSet<TaskId> {
        self.applied.iter().map(|(task, _)| *task).collect()
    }
}

/// Folds the bytes that survived on `sim` (a `shards`-shard ledger
/// written with `opts`): block registrations, then every `Apply`
/// unconditionally and every `Intent` iff the coordinator committed its
/// attempt, on top of the compaction snapshot if there is one.
///
/// # Errors
///
/// The log does not open or decode, holds a resync base or a record on
/// no shard, charges an unknown block, or holds a snapshot although
/// `opts` never compacts.
pub fn fold_log(sim: &SimStorage, shards: usize, opts: DurabilityOptions) -> Result<Fold, Failed> {
    let fail = |e: WalError| Failed::new(e.to_string());
    let sub = sim.surviving().sub("wal");
    let sub = sub.map_err(|e| Failed::new(format!("sub: {e}")))?;
    let segment_bytes = opts.segment_bytes;
    let (_, log) = Wal::open(sub, WalOptions { segment_bytes }).map_err(fail)?;
    if log.snapshot.is_some() && opts.snapshot_every_cycles.is_none() {
        return Err(Failed::new("a snapshot in a log that never compacts"));
    }
    let mut committed = BTreeSet::new();
    let mut streams: Vec<Vec<LogRecord>> = vec![Vec::new(); shards];
    for record in &log.records {
        match LogRecord::decode(record).map_err(fail)? {
            LogRecord::Commit { attempt, .. } => {
                committed.insert(attempt);
            }
            LogRecord::Abort { .. } => {}
            LogRecord::Base { .. } => return Err(Failed::new("a resync base on a primary")),
            record @ (LogRecord::Block { shard, .. }
            | LogRecord::Apply { shard, .. }
            | LogRecord::Intent { shard, .. }) => streams
                .get_mut(shard as usize)
                .ok_or_else(|| Failed::new(format!("record on shard {shard}")))?
                .push(record),
        }
    }
    let mut fold = Fold {
        blocks: BTreeMap::new(),
        applied: Vec::new(),
        snapshot: log.snapshot.is_some(),
        intents: Vec::new(),
    };
    if let Some(snap) = &log.snapshot {
        let states = decode_snapshot(snap).map_err(fail)?;
        fold.blocks.extend(states.into_iter().map(|s| (s.id, s)));
    }
    for record in streams.into_iter().flatten() {
        let (task, demand, charged) = match record {
            LogRecord::Block {
                id,
                arrival,
                capacity,
                ..
            } => {
                let consumed = vec![0.0; capacity.len()];
                let total = capacity;
                let state = BlockState {
                    id,
                    arrival,
                    total,
                    consumed,
                    granted: 0,
                };
                fold.blocks.insert(id, state);
                continue;
            }
            LogRecord::Apply {
                task,
                demand,
                blocks,
                ..
            } => (task, demand, blocks),
            LogRecord::Intent {
                attempt,
                task,
                demand,
                blocks,
                ..
            } => {
                let commit = committed.contains(&attempt);
                fold.intents.push((attempt, task, blocks.clone(), commit));
                if !commit {
                    continue;
                }
                (task, demand, blocks)
            }
            _ => unreachable!("only shard records were demultiplexed here"),
        };
        for b in &charged {
            let state = fold.blocks.get_mut(b);
            let state = state
                .ok_or_else(|| Failed::new(format!("task {task} charges unknown block {b}")))?;
            for (slot, d) in state.consumed.iter_mut().zip(&demand) {
                *slot += d; // Same op, same order as RdpCurve::compose.
            }
            state.granted += 1;
        }
        fold.applied.push((task, charged));
    }
    Ok(fold)
}

/// A history with no log: the grants in `acked` against `states`,
/// judged by their charge counts. Each block's limit is `fit_limit` of
/// its capacity.
pub fn history(acked: Vec<Grant>, states: &BTreeMap<BlockId, BlockState>) -> History {
    let blocks = views(states);
    let limit = |b: &BlockView| b.total.iter().map(|c| fit_limit(*c)).collect();
    History {
        limits: blocks.iter().map(|b| (b.id, limit(b))).collect(),
        acked,
        blocks,
        ..History::default()
    }
}

/// The oracle's plain view of a ledger's block states.
pub fn views(states: &BTreeMap<BlockId, BlockState>) -> Vec<BlockView> {
    let view = |s: &BlockState| BlockView {
        id: s.id,
        arrival: s.arrival,
        total: s.total.clone(),
        consumed: s.consumed.clone(),
        granted: s.granted,
    };
    states.values().map(view).collect()
}

/// The oracle's plain view of a service's ledger.
pub fn ledger(service: &BudgetService) -> Vec<BlockView> {
    views(&service.ledger().block_states())
}

/// The grant a tenant is told of when `task` is granted.
pub fn grant(task: &Task) -> Grant {
    Grant {
        task: task.id,
        blocks: task.blocks.clone(),
        demand: task.demand.values().to_vec(),
    }
}

/// The grants `service` acked, in grant order, each looked up by its
/// task id.
pub fn acked(service: &BudgetService, mut grant_of: impl FnMut(TaskId) -> Grant) -> Vec<Grant> {
    service
        .stats()
        .granted
        .iter()
        .map(|a| grant_of(a.id))
        .collect()
}
