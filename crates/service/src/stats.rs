//! The service metrics surface.
//!
//! §6.4 of the paper finds that "system-related overheads dominate
//! runtime" once the scheduler runs as a service — so the service
//! measures itself: per-cycle timing split into ingest / snapshot /
//! schedule / commit phases, queue depth, grant throughput, and
//! per-tenant grant rates, all consumable by the bench binaries.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use dpack_core::online::{AllocatedTask, OnlineStats};
use dpack_core::problem::TaskId;

use crate::admission::TenantId;

/// How much per-event history [`ServiceStats`] retains.
///
/// The cumulative counters (submissions, grants, evictions, cycle
/// time) are exact under any retention; only the per-event logs
/// (`granted`, `evicted`, `cycles`) are bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsRetention {
    /// Keep every per-event record. Required for simulator parity —
    /// [`ServiceStats::to_online`] can only reproduce an engine run
    /// allocation-for-allocation from the full log — so the simulator
    /// backend requests it explicitly.
    #[default]
    Unbounded,
    /// Keep only the most recent `n` records of each per-event log:
    /// the always-on deployment shape, where the logs must not grow
    /// with uptime.
    Window(usize),
}

impl StatsRetention {
    fn cap(self) -> usize {
        match self {
            Self::Unbounded => usize::MAX,
            Self::Window(n) => n,
        }
    }
}

/// Timing and volume breakdown of one scheduling cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleStats {
    /// Virtual time of the cycle.
    pub now: f64,
    /// Submissions drained from the admission queue this cycle.
    pub ingested: usize,
    /// Tasks evicted by timeout this cycle.
    pub evicted: usize,
    /// Grants committed in a shard batch: every block on one shard.
    pub local_granted: usize,
    /// Grants committed by the two-phase path: blocks on several shards.
    pub cross_granted: usize,
    /// Tasks the schedulers selected but a filter released (stay
    /// pending). 0 in single-writer operation, unless at `S > 1` a
    /// task fills a block to the last bit of its `f64` sum (see the
    /// [`service`](crate::service) module docs); it is granted next cycle.
    pub released: usize,
    /// Admission-queue depth after the ingest phase.
    pub queue_depth: usize,
    /// Pending tasks after the cycle.
    pub pending_after: usize,
    /// Runtime of the cycle's scheduling pass.
    pub algorithm: Duration,
    /// Wall-clock duration of the whole cycle.
    pub total: Duration,
}

impl CycleStats {
    /// Total grants this cycle.
    pub fn granted(&self) -> usize {
        self.local_granted + self.cross_granted
    }

    /// The service-overhead share of the cycle (wall time not spent
    /// inside schedulers; negative overlap is clamped to zero).
    pub fn overhead(&self) -> Duration {
        self.total.saturating_sub(self.algorithm)
    }
}

/// Write-ahead-log activity of a durable service, read when asked for
/// (`dpack_wal_*` are views of it). All counters are lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records acknowledged by the log, every stream's.
    pub records: u64,
    /// Framed bytes acknowledged.
    pub bytes: u64,
    /// Write-ahead failures that released work instead of charging it
    /// — nonzero means the storage crashed or errored. Counts failure
    /// *events*, not released grants: one failed group commit releases
    /// every batch of its step but counts once.
    pub failed_appends: u64,
    /// Replication ships that failed (quorum lost or a replica refused
    /// a batch) and released work a local append had already accepted.
    /// Nonzero on a replicated primary means it must hand over to a
    /// promoted replica rather than recover from its own logs — see
    /// [`crate::replication`].
    pub failed_ships: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
    /// Compactions that failed with a WAL error.
    pub failed_compactions: u64,
    /// Storage writes acknowledged — the fsync count on a syncing
    /// backend. Group commit's whole point is keeping this near one
    /// per commit step — at most three per cycle — plus one per
    /// registration and compaction, instead of `records`.
    pub sync_calls: u64,
    /// Group-commit batches flushed.
    pub batches: u64,
    /// Records that went through a batch (the rest were singleton
    /// appends: registrations, steps of one record).
    pub batched_records: u64,
    /// Smallest flushed batch (0 until the first batch).
    pub batch_min: u64,
    /// Largest flushed batch.
    pub batch_max: u64,
}

/// Per-tenant counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Submissions attempted (including rejected ones).
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Tasks granted budget.
    pub granted: u64,
    /// Sum of granted task weights.
    pub granted_weight: f64,
}

impl TenantStats {
    /// Granted / admitted, the per-tenant grant rate (`None` before any
    /// admission).
    pub fn grant_rate(&self) -> Option<f64> {
        (self.admitted > 0).then(|| self.granted as f64 / self.admitted as f64)
    }
}

/// A cheap, fixed-size snapshot of the service counters — safe to
/// poll frequently from monitoring loops, unlike cloning the full
/// [`ServiceStats`] record. Exact under any [`StatsRetention`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSummary {
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Submissions rejected (queue bound + quota + validation).
    pub rejected: u64,
    /// Tasks granted budget.
    pub granted: u64,
    /// Sum of granted task weights.
    pub granted_weight: f64,
    /// Tasks evicted by timeout.
    pub evicted: u64,
    /// Scheduling cycles run.
    pub cycles: u64,
    /// Total wall time spent in cycles.
    pub cycle_time: Duration,
    /// Granted tasks per second of cycle wall time (0 before the
    /// first cycle).
    pub throughput: f64,
}

/// Cumulative statistics of a service's lifetime.
///
/// Retention: the `granted`, `evicted` and `cycles` per-event logs are
/// bounded by the configured [`StatsRetention`] — under a `Window(n)`
/// each log keeps only its `n` most recent records (eviction at
/// capacity drops the oldest), so an always-on service's stats stay
/// fixed-size. The scalar counters (`*_total`, submission/rejection
/// counts, `scheduler_runtime`) are cumulative and exact regardless.
/// Simulator-parity consumers ([`ServiceStats::to_online`], the bench
/// and fairness tooling) need the full logs and run with
/// [`StatsRetention::Unbounded`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Submissions rejected by the queue bound.
    pub rejected_full: u64,
    /// Submissions rejected by a tenant quota.
    pub rejected_quota: u64,
    /// Submissions rejected by validation (unknown block, wrong grid).
    pub rejected_invalid: u64,
    /// Granted tasks in allocation order, bounded by the retention
    /// window.
    pub granted: VecDeque<AllocatedTask>,
    /// Lifetime grant count (exact under any retention).
    pub granted_total: u64,
    /// Lifetime granted weight (exact under any retention).
    pub granted_weight_total: f64,
    /// Scheduler-selected tasks a filter released (returned to pending).
    pub released: u64,
    /// Tasks evicted by timeout, bounded by the retention window.
    pub evicted: VecDeque<TaskId>,
    /// Lifetime eviction count (exact under any retention).
    pub evicted_total: u64,
    /// Summed scheduler runtime across cycles.
    pub scheduler_runtime: Duration,
    /// Per-cycle reports, bounded by the retention window.
    pub cycles: VecDeque<CycleStats>,
    /// Lifetime cycle count (exact under any retention).
    pub cycles_total: u64,
    /// Lifetime wall time spent in cycles (exact under any retention).
    pub cycle_time_total: Duration,
    /// Per-tenant counters.
    pub tenants: BTreeMap<TenantId, TenantStats>,
    retention: StatsRetention,
}

fn trim<T>(log: &mut VecDeque<T>, cap: usize) {
    while log.len() > cap {
        log.pop_front();
    }
}

impl ServiceStats {
    /// An empty record with the given retention policy.
    pub fn with_retention(retention: StatsRetention) -> Self {
        Self {
            retention,
            ..Self::default()
        }
    }

    /// The retention policy bounding the per-event logs.
    pub fn retention(&self) -> StatsRetention {
        self.retention
    }

    /// Records a grant: bumps the lifetime counters and appends to the
    /// (retention-bounded) log.
    pub fn record_granted(&mut self, task: AllocatedTask) {
        self.granted_total += 1;
        self.granted_weight_total += task.weight;
        self.granted.push_back(task);
        trim(&mut self.granted, self.retention.cap());
    }

    /// Records a timeout eviction.
    pub fn record_evicted(&mut self, id: TaskId) {
        self.evicted_total += 1;
        self.evicted.push_back(id);
        trim(&mut self.evicted, self.retention.cap());
    }

    /// Records a finished cycle.
    pub fn record_cycle(&mut self, cycle: CycleStats) {
        self.cycles_total += 1;
        self.cycle_time_total += cycle.total;
        self.cycles.push_back(cycle);
        trim(&mut self.cycles, self.retention.cap());
    }

    /// Lifetime granted weight (the paper's global efficiency).
    pub fn total_weight(&self) -> f64 {
        self.granted_weight_total
    }

    /// Granted tasks per second of cycle wall time (`None` before the
    /// first cycle finishes).
    pub fn throughput(&self) -> Option<f64> {
        let secs = self.cycle_time_total.as_secs_f64();
        (secs > 0.0).then(|| self.granted_total as f64 / secs)
    }

    /// The fixed-size counter snapshot (no per-event data); exact
    /// under any retention.
    pub fn summary(&self) -> StatsSummary {
        StatsSummary {
            submitted: self.submitted,
            admitted: self.admitted,
            rejected: self.rejected_full + self.rejected_quota + self.rejected_invalid,
            granted: self.granted_total,
            granted_weight: self.granted_weight_total,
            evicted: self.evicted_total,
            cycles: self.cycles_total,
            cycle_time: self.cycle_time_total,
            throughput: self.throughput().unwrap_or(0.0),
        }
    }

    /// The engine-compatible view of this run, so simulator-level
    /// metrics ([`dpack_core::metrics`], fairness reports, delay CDFs)
    /// apply unchanged to service runs.
    ///
    /// Allocation-for-allocation parity with an engine run requires
    /// [`StatsRetention::Unbounded`]; under a window this view covers
    /// only the retained tail of the logs (`steps` stays exact).
    pub fn to_online(&self) -> OnlineStats {
        OnlineStats {
            allocated: self.granted.iter().cloned().collect(),
            evicted: self.evicted.iter().copied().collect(),
            scheduler_runtime: self.scheduler_runtime,
            steps: self.cycles_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(granted: usize, millis: u64) -> CycleStats {
        CycleStats {
            now: 1.0,
            ingested: granted,
            evicted: 0,
            local_granted: granted,
            cross_granted: 0,
            released: 0,
            queue_depth: 3,
            pending_after: 0,
            algorithm: Duration::from_millis(millis / 2),
            total: Duration::from_millis(millis),
        }
    }

    fn granted(id: u64) -> AllocatedTask {
        AllocatedTask {
            id,
            weight: 2.0,
            arrival: 0.0,
            allocated_at: 1.0,
        }
    }

    #[test]
    fn derived_metrics() {
        let mut s = ServiceStats::default();
        assert_eq!(s.throughput(), None);
        s.record_cycle(cycle(2, 10));
        s.record_cycle(cycle(1, 30));
        for i in 0..3u64 {
            s.record_granted(granted(i));
        }
        assert_eq!(s.total_weight(), 6.0);
        assert_eq!(s.cycle_time_total, Duration::from_millis(40));
        let thr = s.throughput().unwrap();
        assert!((thr - 75.0).abs() < 1e-9, "throughput {thr}");
        let online = s.to_online();
        assert_eq!(online.allocated.len(), 3);
        assert_eq!(online.steps, 2);
    }

    #[test]
    fn tenant_grant_rate() {
        let t = TenantStats {
            submitted: 10,
            admitted: 8,
            granted: 4,
            granted_weight: 4.0,
        };
        assert_eq!(t.grant_rate(), Some(0.5));
        assert_eq!(TenantStats::default().grant_rate(), None);
    }

    #[test]
    fn cycle_overhead_clamps() {
        let c = cycle(1, 10);
        assert_eq!(c.overhead(), Duration::from_millis(5));
        assert_eq!(c.granted(), 1);
    }

    #[test]
    fn retention_window_evicts_oldest_but_counters_stay_exact() {
        let mut s = ServiceStats::with_retention(StatsRetention::Window(4));
        for i in 0..10u64 {
            s.record_granted(granted(i));
            s.record_evicted(100 + i);
            s.record_cycle(cycle(1, 10));
        }
        // Eviction at capacity: only the 4 newest records survive.
        assert_eq!(s.granted.len(), 4);
        assert_eq!(
            s.granted.iter().map(|a| a.id).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            s.evicted.iter().copied().collect::<Vec<_>>(),
            vec![106, 107, 108, 109]
        );
        assert_eq!(s.cycles.len(), 4);
        // The counters still see the full lifetime.
        let sum = s.summary();
        assert_eq!(sum.granted, 10);
        assert_eq!(sum.evicted, 10);
        assert_eq!(sum.cycles, 10);
        assert_eq!(sum.granted_weight, 20.0);
        assert_eq!(sum.cycle_time, Duration::from_millis(100));
        assert_eq!(s.total_weight(), 20.0);
        // Derived lifetime metrics use the counters, not the logs.
        let thr = s.throughput().unwrap();
        assert!((thr - 100.0).abs() < 1e-9, "throughput {thr}");
        // The online view is the retained tail, with exact steps.
        let online = s.to_online();
        assert_eq!(online.allocated.len(), 4);
        assert_eq!(online.steps, 10);
    }

    #[test]
    fn unbounded_retention_keeps_everything() {
        let mut s = ServiceStats::with_retention(StatsRetention::Unbounded);
        for i in 0..1000u64 {
            s.record_granted(granted(i));
        }
        assert_eq!(s.granted.len(), 1000);
        assert_eq!(s.summary().granted, 1000);
        assert_eq!(
            ServiceStats::default().retention(),
            StatsRetention::Unbounded
        );
    }

    #[test]
    fn zero_window_keeps_counters_only() {
        let mut s = ServiceStats::with_retention(StatsRetention::Window(0));
        s.record_granted(granted(1));
        s.record_cycle(cycle(1, 10));
        assert!(s.granted.is_empty());
        assert!(s.cycles.is_empty());
        assert_eq!(s.summary().granted, 1);
        assert_eq!(s.summary().cycles, 1);
    }
}
