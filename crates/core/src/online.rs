//! The online scheduling engine (§3.4 of the paper).
//!
//! Blocks and tasks arrive dynamically; every `T` units of virtual time
//! the engine snapshots the system, hands it to a [`Scheduler`], and
//! commits the returned allocation to per-block privacy filters. To keep
//! early expensive tasks from draining fresh blocks, only a
//! `min(⌈(t−t_j)/T⌉, N)/N` fraction of each block's budget is unlocked
//! at step time `t` (the `c_t` formula of §3.4). Unused unlocked budget
//! carries over; unallocated tasks wait, subject to per-task timeouts.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use dp_accounting::{AlphaGrid, RdpCurve, RenyiFilter};

use crate::problem::{Allocation, Block, BlockId, ProblemError, ProblemState, Task, TaskId};
use crate::schedulers::Scheduler;

/// Online engine parameters.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Scheduling period `T`, in virtual time units.
    pub scheduling_period: f64,
    /// Number of unlocking steps `N`: each elapsed [`unlock_period`]
    /// releases another `1/N` of a block's budget.
    ///
    /// [`unlock_period`]: OnlineConfig::unlock_period
    pub unlock_steps: u32,
    /// Length of one unlocking step in virtual time. Unlocking
    /// progresses with *time* (by default one block inter-arrival
    /// period), not with scheduling rounds — this is what makes the
    /// online setting converge to the offline one as `T` grows (Fig. 9
    /// of the paper): with a large `T`, the first batch already sees
    /// most of the budget.
    pub unlock_period: f64,
    /// Default relative timeout applied to tasks without one; `None`
    /// leaves them waiting forever.
    pub default_timeout: Option<f64>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            scheduling_period: 1.0,
            unlock_steps: 50,
            unlock_period: 1.0,
            default_timeout: None,
        }
    }
}

/// A task that was granted budget.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocatedTask {
    /// The task id.
    pub id: TaskId,
    /// Its utility weight.
    pub weight: f64,
    /// Arrival time.
    pub arrival: f64,
    /// The scheduling step time at which it was granted.
    pub allocated_at: f64,
}

impl AllocatedTask {
    /// Scheduling delay in virtual time (excludes scheduler runtime, as
    /// in the paper's metric).
    pub fn delay(&self) -> f64 {
        self.allocated_at - self.arrival
    }
}

/// Cumulative statistics of an online run.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    /// Granted tasks in grant order.
    pub allocated: Vec<AllocatedTask>,
    /// Tasks evicted by timeout.
    pub evicted: Vec<TaskId>,
    /// Total wall-clock time spent inside the scheduler.
    pub scheduler_runtime: Duration,
    /// Number of scheduling steps executed.
    pub steps: u64,
}

impl OnlineStats {
    /// Total allocated weight (the paper's global efficiency).
    pub fn total_weight(&self) -> f64 {
        self.allocated.iter().map(|a| a.weight).sum()
    }

    /// Scheduling delays of all granted tasks.
    pub fn delays(&self) -> Vec<f64> {
        self.allocated.iter().map(|a| a.delay()).collect()
    }
}

/// The unlocked budget fraction of a block that arrived at `arrival`,
/// at time `now`: `min(⌈(now − t_j)/T_u⌉, N)/N` (§3.4).
pub fn unlocked_fraction(arrival: f64, now: f64, unlock_period: f64, unlock_steps: u32) -> f64 {
    let steps = ((now - arrival) / unlock_period).ceil();
    (steps.max(0.0)).min(unlock_steps as f64) / unlock_steps as f64
}

/// The §3.4 available capacity of a block, from its parts wherever they
/// are kept, written into `out`, one value per order: `frac · ε_jα −
/// consumed_jα`, with `frac` from [`unlocked_fraction`]. Orders whose
/// total capacity is non-positive stay non-positive (they are unusable
/// regardless of unlocking). `consumed: None` is a block that has
/// consumed nothing (`+0.0` at every order), which subtracts to the
/// same bits.
pub fn write_available(total: &[f64], consumed: Option<&[f64]>, frac: f64, out: &mut [f64]) {
    for (a, (out, &total)) in out.iter_mut().zip(total).enumerate() {
        let unlocked = if total > 0.0 { frac * total } else { total };
        *out = unlocked - consumed.map_or(0.0, |c| c[a]);
    }
}

/// [`write_available`] as a curve on `grid`.
pub fn available_from_parts(
    grid: &AlphaGrid,
    total: &[f64],
    consumed: Option<&[f64]>,
    frac: f64,
) -> RdpCurve {
    let mut values = vec![0.0; total.len()];
    write_available(total, consumed, frac, &mut values);
    let mut values = values.into_iter();
    RdpCurve::from_fn(grid, |_| values.next().expect("one value per order"))
}

/// A single block's budget ledger entry: total capacity, privacy
/// filter, and arrival time, with the §3.4 gradual-unlocking snapshot
/// and the atomic filter-commit step.
///
/// This is the per-block unit of state shared by every backend that
/// enforces budgets — the [`OnlineEngine`] keeps one per block, and the
/// `dpack-service` sharded ledger stripes them across locks — so
/// unlocking arithmetic and filter semantics cannot drift between the
/// simulator and the service. The total capacity is the filter's: one
/// curve, not a copy beside it.
#[derive(Debug, Clone)]
pub struct BlockLedger {
    filter: RenyiFilter,
    arrival: f64,
}

impl BlockLedger {
    /// Creates a ledger entry holding the block's full capacity behind a
    /// fresh privacy filter.
    pub fn new(block: Block) -> Self {
        Self {
            filter: RenyiFilter::new(block.capacity),
            arrival: block.arrival,
        }
    }

    /// Rebuilds a ledger entry from persisted state (total capacity,
    /// arrival, cumulative consumption, grant count) — the WAL
    /// recovery path, which must reproduce the pre-crash entry
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Rejects a consumption curve on a different grid than the
    /// capacity.
    pub fn restore(
        total: RdpCurve,
        arrival: f64,
        consumed: RdpCurve,
        granted_count: u64,
    ) -> Result<Self, ProblemError> {
        let filter = RenyiFilter::restore(total, consumed, granted_count)
            .map_err(|e| ProblemError(format!("cannot restore block ledger: {e}")))?;
        Ok(Self { filter, arrival })
    }

    /// The block's total capacity curve.
    pub fn total(&self) -> &RdpCurve {
        self.filter.capacity()
    }

    /// The block's arrival time in virtual time units.
    pub fn arrival(&self) -> f64 {
        self.arrival
    }

    /// Cumulative consumption committed so far.
    pub fn consumed(&self) -> &RdpCurve {
        self.filter.consumed()
    }

    /// Number of demands committed so far.
    pub fn granted_count(&self) -> u64 {
        self.filter.granted_count()
    }

    /// The §3.4 available capacity at time `now` (see
    /// [`available_from_parts`]).
    pub fn available(&self, now: f64, unlock_period: f64, unlock_steps: u32) -> RdpCurve {
        let frac = unlocked_fraction(self.arrival, now, unlock_period, unlock_steps);
        let (total, consumed) = (self.total(), Some(self.consumed().values()));
        available_from_parts(total.grid(), total.values(), consumed, frac)
    }

    /// Returns `true` iff the filter would grant `demand` (at least one
    /// order stays within the *total* capacity — the unlocking schedule
    /// is the scheduler's concern, the filter's bound is the block's
    /// global guarantee).
    pub fn check(&self, demand: &RdpCurve) -> bool {
        self.filter.grants(demand)
    }

    /// Charges `demand` against the filter.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving state unchanged) if no order stays
    /// within capacity — a budget-soundness violation when the caller
    /// already validated the demand with [`BlockLedger::check`].
    pub fn commit(&mut self, demand: &RdpCurve) -> Result<(), ProblemError> {
        self.filter
            .try_consume(demand)
            .map_err(|e| ProblemError(format!("filter rejected demand: {e}")))
    }

    /// The Prop. 6 invariant: at least one Rényi order's cumulative
    /// consumption is within the block's total capacity.
    pub fn is_sound(&self) -> bool {
        let (total, consumed) = (self.total().values(), self.consumed().values());
        consumed
            .iter()
            .zip(total)
            .any(|(u, c)| dp_accounting::fits(*u, *c))
    }
}

/// The online engine. Drive it by registering arrivals and calling
/// [`OnlineEngine::run_step`] at scheduling times (typically multiples
/// of `T`); the discrete-event simulator does exactly that.
pub struct OnlineEngine<S: Scheduler> {
    scheduler: S,
    config: OnlineConfig,
    grid: AlphaGrid,
    blocks: BTreeMap<BlockId, BlockLedger>,
    pending: Vec<Task>,
    /// The ids of `pending`, each pending once: a grant commits by id.
    pending_ids: HashSet<TaskId>,
    stats: OnlineStats,
}

impl<S: Scheduler> OnlineEngine<S> {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics on a scheduling or unlock period not finite and `> 0`,
    /// zero unlock steps, and a default timeout not finite and `>= 0`.
    pub fn new(scheduler: S, grid: AlphaGrid, config: OnlineConfig) -> Self {
        assert!(
            config.scheduling_period > 0.0 && config.scheduling_period.is_finite(),
            "scheduling period must be finite and > 0"
        );
        assert!(
            config.unlock_period > 0.0 && config.unlock_period.is_finite(),
            "unlock period must be finite and > 0"
        );
        assert!(config.unlock_steps >= 1, "unlock steps must be >= 1");
        assert!(
            config
                .default_timeout
                .is_none_or(|t| t.is_finite() && t >= 0.0),
            "default timeout must be finite and >= 0"
        );
        Self {
            scheduler,
            config,
            grid,
            blocks: BTreeMap::new(),
            pending: Vec::new(),
            pending_ids: HashSet::new(),
            stats: OnlineStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The scheduler driving this engine.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Currently pending (submitted, not yet granted or evicted) tasks.
    pub fn pending(&self) -> &[Task] {
        &self.pending
    }

    /// Statistics so far.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Total capacities of all registered blocks (for fairness metrics).
    pub fn total_capacities(&self) -> BTreeMap<BlockId, RdpCurve> {
        self.blocks
            .iter()
            .map(|(id, b)| (*id, b.total().clone()))
            .collect()
    }

    /// Registers a newly arrived block.
    ///
    /// # Errors
    ///
    /// Rejects a curve on another grid, a [`Block::defect`] (a
    /// non-finite arrival or capacity), and a duplicate id.
    pub fn add_block(&mut self, block: Block) -> Result<(), ProblemError> {
        if block.capacity.grid() != &self.grid {
            return Err(ProblemError(format!(
                "block {} is on a different grid",
                block.id
            )));
        }
        if let Some(defect) = block.defect() {
            return Err(ProblemError(format!("block {} {defect}", block.id)));
        }
        if self.blocks.contains_key(&block.id) {
            return Err(ProblemError(format!("duplicate block id {}", block.id)));
        }
        self.blocks.insert(block.id, BlockLedger::new(block));
        Ok(())
    }

    /// Registers a newly submitted task.
    ///
    /// # Errors
    ///
    /// Rejects a curve on another grid, a [`Task::defect`] (a block
    /// list empty or not strictly ascending, a weight not finite and
    /// `> 0`, a non-finite arrival, a timeout not finite and `>= 0`, a
    /// demand not finite and `>= 0` at some order), and unknown blocks
    /// (tasks request blocks that have arrived, as in the paper's "most
    /// recent blocks" policy), so no queued task fails a later step;
    /// and an id already pending, as a grant commits by id.
    pub fn submit_task(&mut self, mut task: Task) -> Result<(), ProblemError> {
        if task.demand.grid() != &self.grid {
            return Err(ProblemError(format!(
                "task {} is on a different grid",
                task.id
            )));
        }
        if let Some(defect) = task.defect() {
            return Err(ProblemError(format!("task {} {defect}", task.id)));
        }
        for b in &task.blocks {
            if !self.blocks.contains_key(b) {
                return Err(ProblemError(format!(
                    "task {} requests unknown block {b}",
                    task.id
                )));
            }
        }
        if !self.pending_ids.insert(task.id) {
            return Err(ProblemError(format!("task {} is already pending", task.id)));
        }
        if task.timeout.is_none() {
            task.timeout = self.config.default_timeout;
        }
        self.pending.push(task);
        Ok(())
    }

    /// The §3.4 available capacity of a block at time `now` — see
    /// [`BlockLedger::available`].
    fn available(&self, block: &BlockLedger, now: f64) -> RdpCurve {
        block.available(now, self.config.unlock_period, self.config.unlock_steps)
    }

    /// Runs one scheduling step at virtual time `now`: evicts timed-out
    /// tasks, snapshots unlocked capacities, runs the scheduler, and
    /// commits grants to the per-block filters.
    ///
    /// # Errors
    ///
    /// Returns an error if the scheduler produced an allocation that a
    /// privacy filter rejects. The scheduler's feasibility rule and the
    /// block filters enforce the same budget twice, so a refusal means
    /// the two disagree: a budget-soundness violation, and fatal.
    pub fn run_step(&mut self, now: f64) -> Result<Allocation, ProblemError> {
        self.stats.steps += 1;

        // Evict timed-out tasks first.
        self.pending.retain(|t| {
            let expired = t.timeout.is_some_and(|dt| now - t.arrival > dt);
            if expired {
                self.pending_ids.remove(&t.id);
                self.stats.evicted.push(t.id);
            }
            !expired
        });

        // Snapshot available capacities.
        let available: BTreeMap<BlockId, RdpCurve> = self
            .blocks
            .iter()
            .map(|(id, b)| (*id, self.available(b, now)))
            .collect();
        let state =
            ProblemState::from_available(self.grid.clone(), available, self.pending.clone())?;

        let allocation = self.scheduler.schedule(&state);
        self.stats.scheduler_runtime += allocation.runtime;

        // Commit each grant atomically across its blocks: check all
        // filters, then consume.
        for id in &allocation.scheduled {
            let task = state
                .task(*id)
                .ok_or_else(|| ProblemError(format!("scheduler granted unknown task {id}")))?;
            let all_ok = task
                .blocks
                .iter()
                .all(|b| self.blocks[b].check(&task.demand));
            if !all_ok {
                return Err(ProblemError(format!(
                    "filter rejected task {id}: scheduler exceeded a block budget"
                )));
            }
            for b in &task.blocks {
                self.blocks
                    .get_mut(b)
                    .expect("validated above")
                    .commit(&task.demand)
                    .map_err(|e| ProblemError(format!("task {id}: {e}")))?;
            }
            self.stats.allocated.push(AllocatedTask {
                id: *id,
                weight: task.weight,
                arrival: task.arrival,
                allocated_at: now,
            });
        }

        // Remove granted tasks from the queue.
        for id in &allocation.scheduled {
            self.pending_ids.remove(id);
        }
        self.pending.retain(|t| self.pending_ids.contains(&t.id));

        Ok(allocation)
    }

    /// Consumes the engine, returning its final statistics.
    pub fn into_stats(self) -> OnlineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::{DPack, Fcfs};
    use dp_accounting::block_capacity;

    fn grid() -> AlphaGrid {
        AlphaGrid::new(vec![3.0, 8.0, 64.0]).unwrap()
    }

    fn engine(n: u32) -> OnlineEngine<DPack> {
        OnlineEngine::new(
            DPack::default(),
            grid(),
            OnlineConfig {
                scheduling_period: 1.0,
                unlock_period: 1.0,
                unlock_steps: n,
                default_timeout: None,
            },
        )
    }

    fn simple_block(id: BlockId, arrival: f64) -> Block {
        Block::new(id, RdpCurve::constant(&grid(), 1.0), arrival)
    }

    fn simple_task(id: TaskId, eps: f64, arrival: f64) -> Task {
        Task::new(id, 1.0, vec![0], RdpCurve::constant(&grid(), eps), arrival)
    }

    #[test]
    fn budget_unlocks_gradually() {
        let mut e = engine(4);
        e.add_block(simple_block(0, 0.0)).unwrap();
        // A task needing 0.6 cannot run while only 1/4 = 0.25 is
        // unlocked.
        e.submit_task(simple_task(0, 0.6, 0.0)).unwrap();
        let a1 = e.run_step(1.0).unwrap();
        assert!(a1.scheduled.is_empty());
        let a2 = e.run_step(2.0).unwrap();
        assert!(a2.scheduled.is_empty()); // 0.5 unlocked.
        let a3 = e.run_step(3.0).unwrap();
        assert_eq!(a3.scheduled, vec![0]); // 0.75 unlocked.
        assert_eq!(e.stats().allocated[0].delay(), 3.0);
    }

    #[test]
    fn unused_unlocked_budget_carries_over() {
        let mut e = engine(2);
        e.add_block(simple_block(0, 0.0)).unwrap();
        e.run_step(1.0).unwrap(); // Nothing pending; 0.5 unlocked.
        e.submit_task(simple_task(0, 0.9, 1.5)).unwrap();
        // At t=2 the block is fully unlocked; the earlier unused budget
        // is still there.
        let a = e.run_step(2.0).unwrap();
        assert_eq!(a.scheduled, vec![0]);
    }

    #[test]
    fn filters_bound_total_consumption() {
        let mut e = engine(1);
        e.add_block(simple_block(0, 0.0)).unwrap();
        for i in 0..10 {
            e.submit_task(simple_task(i, 0.3, 0.0)).unwrap();
        }
        e.run_step(1.0).unwrap();
        // Only 3 × 0.3 fit in capacity 1.0.
        assert_eq!(e.stats().allocated.len(), 3);
        assert_eq!(e.pending().len(), 7);
    }

    #[test]
    fn timeouts_evict_waiting_tasks() {
        let mut e = OnlineEngine::new(
            Fcfs,
            grid(),
            OnlineConfig {
                scheduling_period: 1.0,
                unlock_period: 1.0,
                unlock_steps: 1,
                default_timeout: Some(2.0),
            },
        );
        e.add_block(simple_block(0, 0.0)).unwrap();
        // This task can never run (demand > capacity at every order).
        e.submit_task(simple_task(7, 5.0, 0.0)).unwrap();
        e.run_step(1.0).unwrap();
        assert_eq!(e.pending().len(), 1);
        e.run_step(2.0).unwrap();
        assert_eq!(e.pending().len(), 1); // 2.0 - 0.0 is not > 2.0 yet.
        e.run_step(3.0).unwrap();
        assert!(e.pending().is_empty());
        assert_eq!(e.stats().evicted, vec![7]);
    }

    #[test]
    fn per_order_overdraft_is_allowed_but_global_guarantee_holds() {
        // Tasks cheap at different orders can jointly exceed capacity at
        // some orders while each block still has a consistent order.
        let g = grid();
        let mut e = OnlineEngine::new(
            DPack::default(),
            g.clone(),
            OnlineConfig {
                scheduling_period: 1.0,
                unlock_period: 1.0,
                unlock_steps: 1,
                default_timeout: None,
            },
        );
        let cap = block_capacity(&g, 10.0, 1e-7).unwrap();
        e.add_block(Block::new(0, cap.clone(), 0.0)).unwrap();
        for i in 0..100 {
            let d = RdpCurve::from_fn(&g, |a| if a < 10.0 { 0.4 } else { 3.0 });
            e.submit_task(Task::new(i, 1.0, vec![0], d, 0.0)).unwrap();
        }
        e.run_step(1.0).unwrap();
        let allocated = e.stats().allocated.len();
        assert!(allocated > 0);
        // Invariant: at least one order within capacity.
        let caps = e.total_capacities();
        let consumed_ok = (0..g.len()).any(|a| {
            let consumed = allocated as f64 * if g.order(a) < 10.0 { 0.4 } else { 3.0 };
            dp_accounting::fits(consumed, caps[&0].epsilon(a))
        });
        assert!(consumed_ok, "no order within capacity after commit");
    }

    #[test]
    fn block_ledger_restore_round_trips_bit_identically() {
        let g = grid();
        let mut ledger = BlockLedger::new(Block::new(3, RdpCurve::constant(&g, 2.0), 1.5));
        for i in 0..5 {
            ledger
                .commit(&RdpCurve::from_fn(&g, |a| 0.07 / a + i as f64 * 1e-4))
                .unwrap();
        }
        let restored = BlockLedger::restore(
            ledger.total().clone(),
            ledger.arrival(),
            ledger.consumed().clone(),
            ledger.granted_count(),
        )
        .unwrap();
        assert_eq!(restored.granted_count(), ledger.granted_count());
        assert_eq!(restored.arrival(), ledger.arrival());
        for i in 0..g.len() {
            assert_eq!(
                restored.consumed().epsilon(i).to_bits(),
                ledger.consumed().epsilon(i).to_bits()
            );
        }
        assert_eq!(
            restored.available(2.0, 1.0, 4).values(),
            ledger.available(2.0, 1.0, 4).values()
        );
        let other = RdpCurve::zero(&AlphaGrid::single(2.0).unwrap());
        assert!(BlockLedger::restore(ledger.total().clone(), 0.0, other, 0).is_err());
    }

    #[test]
    fn rejects_invalid_submissions() {
        let mut e = engine(1);
        e.add_block(simple_block(0, 0.0)).unwrap();
        assert!(e.add_block(simple_block(0, 0.0)).is_err());
        // What the service's registration refuses, the engine refuses.
        let endless = Block::new(1, RdpCurve::constant(&grid(), f64::INFINITY), 0.0);
        assert!(e.add_block(endless).is_err(), "+inf capacity");
        assert!(
            e.add_block(simple_block(1, f64::NAN)).is_err(),
            "NaN arrival"
        );
        assert_eq!(e.total_capacities().len(), 1);
        let t = Task::new(0, 1.0, vec![9], RdpCurve::zero(&grid()), 0.0);
        assert!(e.submit_task(t).is_err());
        let other = AlphaGrid::single(2.0).unwrap();
        let t = Task::new(0, 1.0, vec![0], RdpCurve::zero(&other), 0.0);
        assert!(e.submit_task(t).is_err());
    }

    #[test]
    fn a_pending_id_is_refused_a_second_time() {
        let mut e = engine(1);
        e.add_block(simple_block(0, 0.0)).unwrap();
        e.submit_task(simple_task(7, 0.1, 0.0)).unwrap();
        assert_eq!(
            e.submit_task(simple_task(7, 0.5, 0.0)),
            Err(ProblemError("task 7 is already pending".into()))
        );
        assert_eq!(e.run_step(1.0).unwrap().scheduled, vec![7]);
        assert_eq!(e.stats().allocated.len(), 1);
        // The block is charged exactly what was granted.
        assert_eq!(e.blocks[&0].consumed().values(), [0.1; 3]);
        // A granted id is free again.
        e.submit_task(simple_task(7, 0.5, 0.0)).unwrap();
        assert_eq!(e.run_step(2.0).unwrap().scheduled, vec![7]);
        assert!(e.pending().is_empty());
    }

    #[test]
    fn a_refused_task_cannot_wedge_the_engine() {
        let mut e = engine(1);
        e.add_block(simple_block(0, 0.0)).unwrap();
        let mut weightless = simple_task(1, 0.1, 0.0);
        weightless.weight = 0.0;
        assert_eq!(
            e.submit_task(weightless),
            Err(ProblemError("task 1 weight must be finite and > 0".into()))
        );
        e.submit_task(simple_task(2, 0.1, 0.0)).unwrap();
        assert_eq!(e.run_step(1.0).unwrap().scheduled, vec![2]);
        assert!(e.pending().is_empty());
    }

    #[test]
    #[should_panic(expected = "default timeout must be finite and >= 0")]
    fn a_non_finite_default_timeout_is_refused() {
        let config = OnlineConfig {
            default_timeout: Some(f64::NAN),
            ..OnlineConfig::default()
        };
        OnlineEngine::new(DPack::default(), grid(), config);
    }

    #[test]
    fn late_blocks_unlock_relative_to_their_arrival() {
        let mut e = engine(2);
        e.add_block(simple_block(0, 0.0)).unwrap();
        e.add_block(simple_block(1, 3.0)).unwrap();
        // At t=3.5 block 0 is fully unlocked, block 1 only 1/2.
        let t0 = Task::new(0, 1.0, vec![1], RdpCurve::constant(&grid(), 0.8), 3.0);
        e.submit_task(t0).unwrap();
        let a = e.run_step(3.5).unwrap();
        assert!(a.scheduled.is_empty());
        let a = e.run_step(4.5).unwrap();
        assert_eq!(a.scheduled, vec![0]);
    }
}
