//! Service configuration.

use dpack_core::problem::{Allocation, ProblemState};
use dpack_core::schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea, Scheduler};
use orchestrator::{ParallelDPack, ParallelDpf};

use crate::stats::StatsRetention;

/// Which scheduling policy the service runs each cycle.
///
/// DPack and DPF dispatch to the orchestrator's parallel wrappers when
/// more than one worker thread is available — the wrappers are
/// decision-identical to the single-threaded schedulers, so the choice
/// of thread count never changes allocations, only runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerChoice {
    /// DPack (Alg. 1) with the default `η`.
    DPack,
    /// DPF, skip-greedy packing.
    Dpf,
    /// DPF with head-of-line blocking.
    DpfStrict,
    /// First-come-first-serve.
    Fcfs,
    /// The Eq. 4 area heuristic.
    GreedyArea,
}

impl SchedulerChoice {
    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::DPack => "DPack",
            Self::Dpf => "DPF",
            Self::DpfStrict => "DPF(strict)",
            Self::Fcfs => "FCFS",
            Self::GreedyArea => "GreedyArea",
        }
    }

    /// Runs the chosen scheduler over a state snapshot with up to
    /// `threads` metric-computation workers.
    pub fn schedule(&self, state: &ProblemState, threads: usize) -> Allocation {
        match (self, threads) {
            (Self::DPack, 0 | 1) => DPack::default().schedule(state),
            (Self::DPack, t) => ParallelDPack::new(DPack::default(), t).schedule(state),
            (Self::Dpf, 0 | 1) => Dpf.schedule(state),
            (Self::Dpf, t) => ParallelDpf::new(t).schedule(state),
            (Self::DpfStrict, 0 | 1) => DpfStrict.schedule(state),
            (Self::DpfStrict, t) => ParallelDpf::strict(t).schedule(state),
            (Self::Fcfs, _) => Fcfs.schedule(state),
            (Self::GreedyArea, _) => GreedyArea.schedule(state),
        }
    }
}

/// Write-ahead-log tuning for a durable service (see
/// [`crate::BudgetService::recover`]). Separate from [`ServiceConfig`]
/// because durability also needs a storage handle: the config stays
/// `Copy`, the storage is passed alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Fold the logs into snapshots every this many scheduling cycles
    /// (`None` = only when [`crate::BudgetService::compact`] is called
    /// explicitly).
    pub snapshot_every_cycles: Option<u64>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 1 << 20,
            snapshot_every_cycles: Some(64),
        }
    }
}

/// Sizing of the ledger's tiered block storage (enabled via
/// [`crate::BudgetService::with_tier`] or
/// [`crate::ShardedLedger::enable_tier`]). Follows the
/// [`DurabilityOptions`] pattern: the config stays `Copy`, the spill
/// storage handle is passed alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Per-shard hot working-set bound: once a shard holds more than
    /// this many blocks in memory, its least-recently-touched blocks
    /// spill to the cold tier (down to ⅞ of this bound, so spills come
    /// in batches rather than one per registration).
    pub hot_capacity: usize,
    /// Cold-tier segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            hot_capacity: 4096,
            segment_bytes: 1 << 20,
        }
    }
}

/// Parameters of a [`crate::BudgetService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Ledger shard count `S` (blocks are striped `id mod S`).
    pub shards: usize,
    /// Worker threads `W`. A cycle's one scheduling pass fans its
    /// metric computation — DPack's alpha orders, DPF's per-task shares
    /// — out over them. The cycle thread is one of the `W`. Never
    /// changes a decision.
    pub workers: usize,
    /// Scheduling period `T` in virtual time units (used by the
    /// background service loop to advance virtual time).
    pub scheduling_period: f64,
    /// Length of one unlocking step in virtual time (§3.4).
    pub unlock_period: f64,
    /// Number of unlocking steps `N`.
    pub unlock_steps: u32,
    /// Default relative timeout applied to tasks without one.
    pub default_timeout: Option<f64>,
    /// Admission-queue bound (backpressure threshold).
    pub queue_capacity: usize,
    /// Maximum *live* (queued or pending) tasks per tenant
    /// (`usize::MAX` = unlimited). Held until grant or eviction, so a
    /// tenant cannot grow the pending set without bound.
    pub tenant_quota: usize,
    /// Maximum submissions drained per cycle (`usize::MAX` = all).
    pub ingest_batch: usize,
    /// The scheduling policy.
    pub scheduler: SchedulerChoice,
    /// How much per-event stats history to retain. The always-on
    /// default is a bounded window; the simulator backend overrides it
    /// to [`StatsRetention::Unbounded`] for allocation-for-allocation
    /// parity with the engine.
    pub retention: StatsRetention,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            workers: 2,
            scheduling_period: 1.0,
            unlock_period: 1.0,
            unlock_steps: 50,
            default_timeout: None,
            queue_capacity: 65_536,
            tenant_quota: usize::MAX,
            ingest_batch: usize::MAX,
            scheduler: SchedulerChoice::DPack,
            retention: StatsRetention::Window(65_536),
        }
    }
}

impl ServiceConfig {
    /// A single-shard, single-worker configuration: no striping, no
    /// threads. (Every configuration decides what a
    /// [`dpack_core::online::OnlineEngine`] decides; this one also
    /// charges each block in the engine's order, bit for bit.)
    pub fn sequential() -> Self {
        Self {
            shards: 1,
            workers: 1,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpack_core::scenarios;

    #[test]
    fn parallel_dispatch_is_decision_identical() {
        let state = scenarios::fig3_state();
        for choice in [
            SchedulerChoice::DPack,
            SchedulerChoice::Dpf,
            SchedulerChoice::DpfStrict,
            SchedulerChoice::Fcfs,
            SchedulerChoice::GreedyArea,
        ] {
            let seq = choice.schedule(&state, 1);
            for threads in [2, 4] {
                let par = choice.schedule(&state, threads);
                assert_eq!(par.scheduled, seq.scheduled, "{}", choice.name());
            }
        }
    }

    #[test]
    fn defaults_are_sane() {
        let c = ServiceConfig::default();
        assert!(c.shards >= 1 && c.workers >= 1);
        let s = ServiceConfig::sequential();
        assert_eq!((s.shards, s.workers), (1, 1));
        let d = DurabilityOptions::default();
        assert!(d.segment_bytes > 0);
        assert!(d.snapshot_every_cycles.unwrap() > 0);
    }
}
