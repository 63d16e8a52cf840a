//! Service configuration.

use dpack_core::problem::{Allocation, PackingRule, ProblemState};
use dpack_core::schedulers::{dpf_schedule, DPack, Fcfs, GreedyArea, Scheduler};

use crate::stats::StatsRetention;

/// Cells (pending tasks × alpha orders) per thread of a pass. A second
/// thread saves half the sweep (10–26 ns per cell) for a scoped spawn +
/// join (27–53 µs p50, 2-vCPU x86), so it pays from ~2 300–10 600 cells;
/// one thread per 4 096 cells gives the second at 8 192, inside that band.
pub(crate) const CELLS_PER_THREAD: usize = 4096;

/// The threads a pass over `cells` cells runs on, given up to
/// `workers`: `clamp(cells / CELLS_PER_THREAD, 1, workers)`.
pub(crate) fn pass_threads(cells: usize, workers: usize) -> usize {
    (cells / CELLS_PER_THREAD).clamp(1, workers.max(1))
}

/// Which scheduling policy the service runs each cycle.
///
/// DPack and DPF fan their metric computation out over as many threads
/// as a pass's size pays for; the kernels are decision-identical at
/// every thread count, so this never changes allocations, only runtimes.
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

    /// Runs the chosen scheduler over a state snapshot on
    /// `clamp(tasks × orders / 4 096, 1, workers)` threads — the one place
    /// a pass's thread count is chosen, so a small pass stays on the caller.
    pub fn schedule(&self, state: &ProblemState, workers: usize) -> Allocation {
        let threads = pass_threads(state.tasks().len() * state.grid().len(), workers);
        match self {
            Self::DPack => DPack::default().schedule_threaded(state, threads),
            Self::Dpf => dpf_schedule(state, PackingRule::Skip, threads),
            Self::DpfStrict => dpf_schedule(state, PackingRule::Stop, threads),
            Self::Fcfs => Fcfs.schedule(state),
            Self::GreedyArea => GreedyArea.schedule(state),
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
/// [`crate::ShardedLedger::enable_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Per-shard hot working-set bound: once a shard holds more than
    /// this many full blocks, its least-recently-touched blocks spill
    /// to the cold tier of in-memory summaries (down to ⅞ of this
    /// bound, so spills come in batches rather than one per
    /// registration).
    pub hot_capacity: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self { hot_capacity: 4096 }
    }
}

/// Parameters of a [`crate::BudgetService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Ledger shard count `S` (blocks are striped `id mod S`).
    pub shards: usize,
    /// Worker threads, up to `W`: a cycle's one scheduling pass fans its
    /// metric computation (DPack's alpha orders, DPF's per-task shares)
    /// over as many as its size pays for ([`SchedulerChoice::schedule`]),
    /// the cycle thread among them. Never changes a decision.
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
    /// threads. It charges each block in the order a
    /// [`dpack_core::online::OnlineEngine`] does, bit for bit, so it
    /// decides what the engine decides without the last-bit condition of
    /// `S > 1` (see the [`service`](crate::service) module docs).
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
    fn pass_threads_grow_by_one_per_cells_per_thread() {
        for (workers, want) in [
            (1, [1, 1, 1, 1, 1]),
            (2, [1, 1, 1, 1, 2]),
            (4, [1, 1, 1, 1, 2]),
        ] {
            for (cells, want) in [0, 4095, 4096, 8191, 8192].into_iter().zip(want) {
                assert_eq!(
                    pass_threads(cells, workers),
                    want,
                    "{cells} cells, W={workers}"
                );
            }
        }
        assert_eq!(pass_threads(usize::MAX, 4), 4);
        assert_eq!(pass_threads(usize::MAX, 0), 1);
    }

    /// A drawn pending set of `n_tasks` tasks over three blocks on a
    /// four-order grid, so `n_tasks × 4` cells. A block has more than
    /// 300 requesters at every size drawn, so unequal weights take the
    /// greedy oracle rather than the (slow, unoptimized) FPTAS.
    fn drawn_state(seed: u64, n_tasks: usize) -> ProblemState {
        use dp_accounting::{AlphaGrid, RdpCurve};
        use dpack_core::problem::{Block, Task};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = AlphaGrid::new(vec![2.0, 4.0, 8.0, 32.0]).expect("valid");
        let curve = |rng: &mut StdRng, scale: f64| {
            let eps = (0..grid.len())
                .map(|_| scale * rng.random::<f64>())
                .collect();
            RdpCurve::new(&grid, eps).expect("one value per order")
        };
        let blocks = (0..3)
            .map(|j| Block::new(j, curve(&mut rng, n_tasks as f64 / 4.0), 0.0))
            .collect();
        // Equal weights take the sweep kernel, unequal ones the
        // per-block knapsacks.
        let uniform = seed.is_multiple_of(2);
        let tasks = (0..n_tasks as u64)
            .map(|i| {
                let first = rng.random_range(0..3u64);
                let blocks = vec![first, (first + rng.random_range(0..2u64)) % 3];
                let weight = if uniform {
                    1.0
                } else {
                    0.5 + rng.random::<f64>()
                };
                Task::new(i, weight, blocks, curve(&mut rng, 1.0), 0.0)
            })
            .collect();
        ProblemState::new(grid, blocks, tasks).expect("valid")
    }

    #[test]
    fn passes_on_either_side_of_each_thread_boundary_decide_alike() {
        // 4 092 | 4 096 and 8 188 | 8 192 cells, and 16 384 (W = 4 runs
        // four threads there).
        for (seed, n_tasks) in [1023, 1024, 2047, 2048, 4096].into_iter().enumerate() {
            for seed in [seed as u64, seed as u64 + 10] {
                let state = drawn_state(seed, n_tasks);
                for choice in [
                    SchedulerChoice::DPack,
                    SchedulerChoice::Dpf,
                    SchedulerChoice::DpfStrict,
                ] {
                    let one = choice.schedule(&state, 1);
                    assert!(
                        !one.scheduled.is_empty(),
                        "{} packs something",
                        choice.name()
                    );
                    for workers in [2, 4] {
                        let many = choice.schedule(&state, workers);
                        let at = format!("{} W={workers} n={n_tasks}", choice.name());
                        assert_eq!(many.scheduled, one.scheduled, "{at}");
                        assert_eq!(
                            many.total_weight.to_bits(),
                            one.total_weight.to_bits(),
                            "{at}"
                        );
                    }
                }
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
