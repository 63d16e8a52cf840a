//! Problem types shared by all schedulers.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

use dp_accounting::{AlphaGrid, RdpCurve};
use knapsack::order_bits;

use crate::dense::Dense;

/// Task identifier, unique within a workload.
pub type TaskId = u64;

/// Block identifier, unique within a system; blocks typically arrive in
/// id order (one per virtual time unit).
pub type BlockId = u64;

/// An error constructing or manipulating a problem state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemError(pub String);

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "problem error: {}", self.0)
    }
}

impl std::error::Error for ProblemError {}

/// A task requesting privacy budget.
///
/// Following the paper's workloads, a task demands the *same* RDP curve
/// from each block it requests (`d_ijα = d_iα` for requested `j`, zero
/// otherwise); tasks differ in which and how many blocks they touch.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// Utility weight `w_i` (1 for unweighted workloads).
    pub weight: f64,
    /// Requested block ids (deduplicated, ascending).
    pub blocks: Vec<BlockId>,
    /// Per-block RDP demand curve.
    pub demand: RdpCurve,
    /// Arrival time in virtual time units (block inter-arrival periods).
    pub arrival: f64,
    /// Relative timeout after which the task is evicted from the online
    /// queue; `None` means it waits forever.
    pub timeout: Option<f64>,
}

impl Task {
    /// Creates a task with no timeout.
    pub fn new(
        id: TaskId,
        weight: f64,
        mut blocks: Vec<BlockId>,
        demand: RdpCurve,
        arrival: f64,
    ) -> Self {
        blocks.sort_unstable();
        blocks.dedup();
        Self {
            id,
            weight,
            blocks,
            demand,
            arrival,
            timeout: None,
        }
    }

    /// Sets a relative eviction timeout.
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Why this task may not be scheduled, if it may not — the one rule
    /// that states, the online engine and the service's admission all
    /// apply: a non-empty, strictly ascending block list (a repeated
    /// block would be charged twice), a finite weight `> 0`, a finite
    /// arrival and timeout (else `now − arrival > dt` never holds and
    /// the task never leaves the queue), a timeout `>= 0`, and a
    /// chargeable demand ([`Task::demand_defect`]). The grid and the
    /// blocks' existence depend on where the task goes.
    pub fn defect(&self) -> Option<&'static str> {
        Some(if self.blocks.is_empty() {
            "requests no blocks"
        } else if self.blocks.windows(2).any(|w| w[0] >= w[1]) {
            "block list must be strictly ascending (sorted, no duplicates)"
        } else if !(self.weight.is_finite() && self.weight > 0.0) {
            "weight must be finite and > 0"
        } else if !self.arrival.is_finite() {
            "arrival must be finite"
        } else if self.timeout.is_some_and(|t| !(t.is_finite() && t >= 0.0)) {
            "timeout must be finite and >= 0"
        } else {
            return Self::demand_defect(self.demand.values());
        })
    }

    /// Why a demand may not be charged, if it may not: finite and `>= 0`
    /// at every order (`-0.0` included), or it is a refund or a charge
    /// no filter accounts — [`Task::defect`]'s demand half, which
    /// recovery applies to every grant it replays.
    pub fn demand_defect(demand: &[f64]) -> Option<&'static str> {
        let chargeable = demand.iter().all(|d| d.is_finite() && *d >= 0.0);
        (!chargeable).then_some("demand must be finite and >= 0 at every order")
    }

    /// First come, first served: arrival, then id, as one integer pair
    /// (the arrival through [`order_bits`], so the pair orders every
    /// `f64` the way the efficiency sort breaks its ties).
    pub(crate) fn arrival_key(&self) -> (u64, TaskId) {
        (order_bits(self.arrival), self.id)
    }
}

/// Whether `tasks` is in nondecreasing [`Task::arrival_key`] order.
fn in_arrival_order(tasks: &[Task]) -> bool {
    tasks
        .windows(2)
        .all(|w| w[0].arrival_key() <= w[1].arrival_key())
}

/// A data block with an RDP budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Unique id.
    pub id: BlockId,
    /// Total per-order capacity (from
    /// [`dp_accounting::block_capacity`]); entries may be negative at
    /// unusable orders.
    pub capacity: RdpCurve,
    /// Arrival time in virtual time units.
    pub arrival: f64,
}

impl Block {
    /// Creates a block.
    pub fn new(id: BlockId, capacity: RdpCurve, arrival: f64) -> Self {
        Self {
            id,
            capacity,
            arrival,
        }
    }

    /// Why this block may not be registered, if it may not — the one
    /// rule that states, the online engine, the service's ledger and
    /// its recovery all apply (see [`Block::defect_of`]).
    pub fn defect(&self) -> Option<&'static str> {
        Self::defect_of(self.arrival, self.capacity.values())
    }

    /// [`Block::defect`] of a block with this arrival and capacity. A
    /// non-finite arrival pins the §3.4 unlocked fraction at 0 forever,
    /// so the block never serves a grant; a `+inf` capacity is a filter
    /// that never refuses. Negative finite capacities stay legal:
    /// [`dp_accounting::block_capacity`] produces them at low orders.
    pub fn defect_of(arrival: f64, capacity: &[f64]) -> Option<&'static str> {
        if !arrival.is_finite() {
            return Some("arrival must be finite");
        }
        let finite = capacity.iter().all(|c| c.is_finite());
        (!finite).then_some("capacity must be finite at every order")
    }
}

/// The scheduling problem handed to a [`crate::Scheduler`]: the pending
/// tasks and each block's *available* capacity (total for the offline
/// case; the unlocked-minus-consumed capacity `c_t` of §3.4 for the
/// online case).
///
/// A state is either built once ([`ProblemState::new`],
/// [`ProblemState::from_available`]) or kept alive across scheduling
/// rounds, as the budget service's pending set does: arrivals are
/// appended with [`ProblemState::push_task`], granted and evicted tasks
/// compacted out with [`ProblemState::retain_tasks`], and each round's
/// capacities written straight into the scheduler's rows with
/// [`ProblemState::set_capacity`]. Tasks are never reordered, so a
/// long-lived state is indistinguishable — to every scheduler, bit for
/// bit — from one built from scratch over the same tasks.
///
/// The state also knows one fact about its tasks exactly:
/// [`ProblemState::in_arrival_order`], whether they stand in
/// nondecreasing `(arrival, id)` order along the index (arrivals
/// compared as the efficiency sort compares them). Building computes
/// it, a push compares the new task with the last one, a retain keeps
/// it while it holds (a subsequence of a sorted list is sorted) and
/// recomputes it over the kept tasks while it does not. So it is a
/// function of the tasks alone, and a long-lived state prints the same
/// as a rebuilt one.
#[derive(Clone)]
pub struct ProblemState {
    grid: AlphaGrid,
    /// Pending tasks, in push order, which need not be `arrival` order.
    tasks: Vec<Task>,
    /// The index-typed view the scheduler kernels run on, one row per
    /// task and per block; every mutation goes through it first.
    dense: Dense,
    /// Task indices sorted by `(id, index)`, for [`ProblemState::task`];
    /// kept sorted by insertion and compaction, never re-sorted.
    by_id: Vec<u32>,
    /// Whether `tasks` is in nondecreasing [`Task::arrival_key`] order;
    /// see [`ProblemState::in_arrival_order`].
    in_arrival_order: bool,
    /// [`ProblemState::blocks`], a copy of the capacity rows.
    blocks: OnceLock<BTreeMap<BlockId, RdpCurve>>,
}

/// All but `blocks`, so a state prints the same whether it was built or not.
impl fmt::Debug for ProblemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields = (
            &self.grid,
            &self.tasks,
            &self.dense,
            &self.by_id,
            self.in_arrival_order,
        );
        write!(f, "ProblemState {fields:?}")
    }
}

impl ProblemState {
    /// Builds an offline state where each block's full capacity is
    /// available.
    ///
    /// # Errors
    ///
    /// Rejects a block with a [`Block::defect`] (a non-finite arrival
    /// or capacity), duplicate block ids, a curve on another grid, a
    /// task with a [`Task::defect`] (a block list empty or not strictly
    /// ascending, a weight not finite and `> 0`, a non-finite arrival,
    /// a timeout not finite and `>= 0`, a demand not finite and `>= 0`
    /// at some order), and a task requesting an unknown block.
    pub fn new(
        grid: AlphaGrid,
        blocks: Vec<Block>,
        tasks: Vec<Task>,
    ) -> Result<Self, ProblemError> {
        let mut map = BTreeMap::new();
        for b in blocks {
            if let Some(defect) = b.defect() {
                return Err(ProblemError(format!("block {} {defect}", b.id)));
            }
            if map.insert(b.id, b.capacity).is_some() {
                return Err(ProblemError(format!("duplicate block id {}", b.id)));
            }
        }
        Self::from_available(grid, map, tasks)
    }

    /// Builds a state directly from available-capacity curves (used by
    /// the online engine, which computes unlocked capacities itself):
    /// the empty state, its capacities set, each task pushed.
    ///
    /// # Errors
    ///
    /// Rejects a curve on another grid, and every task
    /// [`ProblemState::push_task`] refuses.
    pub fn from_available(
        grid: AlphaGrid,
        available: BTreeMap<BlockId, RdpCurve>,
        tasks: Vec<Task>,
    ) -> Result<Self, ProblemError> {
        if let Some((id, _)) = available.iter().find(|(_, c)| c.grid() != &grid) {
            return Err(ProblemError(format!("block {id} is on a different grid")));
        }
        let mut dense = Dense::empty(grid.len());
        dense.set_capacity(available.keys().copied().collect(), |_, rows| {
            let values = available.values().flat_map(|c| c.values());
            rows.iter_mut().zip(values).for_each(|(row, v)| *row = *v);
            Ok(())
        })?;
        dense.reserve(tasks.len());
        for t in &tasks {
            dense.push_task(&grid, t)?;
        }
        // One sort here instead of one sorted insertion per task.
        let mut by_id: Vec<u32> = (0..tasks.len() as u32).collect();
        by_id.sort_unstable_by_key(|&i| (tasks[i as usize].id, i));
        Ok(Self {
            grid,
            in_arrival_order: in_arrival_order(&tasks),
            tasks,
            dense,
            by_id,
            blocks: OnceLock::new(),
        })
    }

    /// Appends a task behind the pending ones.
    ///
    /// # Errors
    ///
    /// Rejects a curve on another grid, a [`Task::defect`] (a block
    /// list empty or not strictly ascending, a weight not finite and
    /// `> 0`, a non-finite arrival, a timeout not finite and `>= 0`, a
    /// demand not finite and `>= 0` at some order), a block the last
    /// capacities lack, and more tasks than `u32` indices. A refused
    /// task leaves the state as it was.
    pub fn push_task(&mut self, task: Task) -> Result<(), ProblemError> {
        self.dense.push_task(&self.grid, &task)?;
        // Behind every task of the same id: the new index is the largest.
        let at = self
            .by_id
            .partition_point(|&i| self.tasks[i as usize].id <= task.id);
        self.by_id.insert(at, self.tasks.len() as u32);
        self.in_arrival_order &= self
            .tasks
            .last()
            .is_none_or(|last| last.arrival_key() <= task.arrival_key());
        self.tasks.push(task);
        Ok(())
    }

    /// Drops every task whose flag in `keep` (one per task, in
    /// [`ProblemState::tasks`] order) is `false`. The kept tasks close
    /// ranks in place and stay in order; out of `(arrival, id)` order
    /// before, they are checked for it again.
    ///
    /// # Panics
    ///
    /// Panics unless `keep` holds exactly one flag per task.
    pub fn retain_tasks(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.tasks.len(), "one flag per task");
        if keep.iter().all(|kept| *kept) {
            return;
        }
        self.dense.retain_tasks(keep);
        // Where each task lands; the map is monotone, so `by_id` stays
        // sorted.
        let moved: Vec<u32> = keep
            .iter()
            .scan(0u32, |next, &kept| {
                let at = *next;
                *next += u32::from(kept);
                Some(at)
            })
            .collect();
        self.by_id.retain_mut(|i| {
            let old = *i as usize;
            *i = moved[old];
            keep[old]
        });
        let mut flags = keep.iter();
        self.tasks
            .retain(|_| *flags.next().expect("one flag per task"));
        if !self.in_arrival_order {
            self.in_arrival_order = in_arrival_order(&self.tasks);
        }
    }

    /// Replaces the blocks with `ids`, ascending, whose available
    /// capacities `fill` writes into the scheduler's rows: one zeroed
    /// row of `grid().len()` values per id, in order. Pending tasks keep
    /// their rows when the ids are the old ones, or those with new ids
    /// behind them; otherwise the rows' block indices are renumbered.
    ///
    /// # Errors
    ///
    /// Rejects ids out of order, an id set that lacks a block some task
    /// requests, and whatever `fill` refuses; the state is unchanged.
    pub fn set_capacity(
        &mut self,
        ids: Vec<BlockId>,
        fill: impl FnOnce(&[BlockId], &mut [f64]) -> Result<(), ProblemError>,
    ) -> Result<(), ProblemError> {
        self.dense.set_capacity(ids, fill)?;
        self.blocks.take();
        Ok(())
    }

    /// The alpha grid shared by all curves.
    pub fn grid(&self) -> &AlphaGrid {
        &self.grid
    }

    /// Available capacity per block, keyed by block id: a copy of the
    /// capacity rows, built on the first call after each capacity set.
    pub fn blocks(&self) -> &BTreeMap<BlockId, RdpCurve> {
        self.blocks.get_or_init(|| {
            let curve = |row: &[f64]| {
                let mut values = row.iter();
                RdpCurve::from_fn(&self.grid, |_| *values.next().expect("one per order"))
            };
            let ids = self.dense.block_ids().iter().enumerate();
            ids.map(|(j, id)| (*id, curve(self.dense.capacity(j))))
                .collect()
        })
    }

    /// The ids of the blocks some pending task requests, ascending —
    /// read from the rows' per-block requester counts, so no task is
    /// visited.
    pub fn requested_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.dense.requested_blocks()
    }

    /// The pending tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Whether the pending tasks stand in nondecreasing `(arrival, id)`
    /// order along the index, arrivals compared as
    /// [`crate::schedulers::sort_by_efficiency`] compares them. Then
    /// that sort breaks ties by index alone and reads no task.
    pub fn in_arrival_order(&self) -> bool {
        self.in_arrival_order
    }

    /// The position in [`ProblemState::tasks`] of the (first) task with
    /// this id, if pending — a binary search.
    pub fn index_of(&self, id: TaskId) -> Option<usize> {
        let at = self
            .by_id
            .partition_point(|&i| self.tasks[i as usize].id < id);
        let i = *self.by_id.get(at)? as usize;
        (self.tasks[i].id == id).then_some(i)
    }

    /// A task by id, if pending.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.index_of(id).map(|i| &self.tasks[i])
    }

    pub(crate) fn dense(&self) -> &Dense {
        &self.dense
    }
}

/// The result of one scheduling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Scheduled task ids, in allocation order.
    pub scheduled: Vec<TaskId>,
    /// Sum of weights of scheduled tasks (the paper's global efficiency).
    pub total_weight: f64,
    /// Wall-clock time the scheduler spent computing.
    pub runtime: Duration,
    /// For exact solvers: whether optimality was proven within limits;
    /// `None` for heuristics.
    pub proven_optimal: Option<bool>,
}

impl Allocation {
    /// An empty allocation.
    pub fn empty() -> Self {
        Self {
            scheduled: Vec::new(),
            total_weight: 0.0,
            runtime: Duration::ZERO,
            proven_optimal: None,
        }
    }
}

/// Packing discipline for an ordered allocation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingRule {
    /// Skip infeasible tasks and continue down the order — the greedy
    /// loop of Alg. 1 ("if CANRUN then run").
    Skip,
    /// Stop at the first infeasible task — no task may leapfrog a
    /// higher-priority one, the strict reading of dominant-share
    /// fairness (see [`crate::schedulers::DpfStrict`]).
    Stop,
}

/// Packs `ordered` task indices (into `state.tasks()`) under the
/// privacy-knapsack feasibility rule: a task is included iff, after
/// adding its demand, **every** requested block still fits at **some**
/// order (`CANRUN` of Alg. 1).
///
/// Returns scheduled task ids in allocation order. `Fcfs` packs with the
/// same loop, and the benchmark's probe and `sched_kernels` call this;
/// the efficiency schedulers pack through [`crate::schedulers::pack_by_efficiency`].
pub fn pack(state: &ProblemState, ordered: &[usize], rule: PackingRule) -> Vec<TaskId> {
    let taken = state.dense().pack(ordered, rule);
    taken.into_iter().map(|t| state.tasks()[t].id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> AlphaGrid {
        AlphaGrid::new(vec![2.0, 4.0]).unwrap()
    }

    #[test]
    fn state_validation_catches_mistakes() {
        let g = grid();
        let b = Block::new(0, RdpCurve::constant(&g, 1.0), 0.0);
        // Unknown block.
        let t = Task::new(0, 1.0, vec![7], RdpCurve::zero(&g), 0.0);
        assert!(ProblemState::new(g.clone(), vec![b.clone()], vec![t]).is_err());
        // Zero weight.
        let t = Task::new(0, 0.0, vec![0], RdpCurve::zero(&g), 0.0);
        assert!(ProblemState::new(g.clone(), vec![b.clone()], vec![t]).is_err());
        // No blocks.
        let t = Task::new(0, 1.0, vec![], RdpCurve::zero(&g), 0.0);
        assert!(ProblemState::new(g.clone(), vec![b.clone()], vec![t]).is_err());
        // What the service's admission refuses: +inf demand, NaN arrival.
        let t = Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, f64::INFINITY), 0.0);
        assert!(ProblemState::new(g.clone(), vec![b.clone()], vec![t]).is_err());
        let t = Task::new(0, 1.0, vec![0], RdpCurve::zero(&g), f64::NAN);
        assert!(ProblemState::new(g.clone(), vec![b.clone()], vec![t]).is_err());
        // What its registration refuses: +inf capacity, NaN arrival.
        let endless = Block::new(0, RdpCurve::constant(&g, f64::INFINITY), 0.0);
        assert!(ProblemState::new(g.clone(), vec![endless], vec![]).is_err());
        let never = Block::new(0, RdpCurve::constant(&g, 1.0), f64::NAN);
        assert!(ProblemState::new(g.clone(), vec![never], vec![]).is_err());
        // Duplicate block id.
        assert!(ProblemState::new(g.clone(), vec![b.clone(), b.clone()], vec![]).is_err());
        // Grid mismatch.
        let other = AlphaGrid::single(3.0).unwrap();
        let t = Task::new(0, 1.0, vec![0], RdpCurve::zero(&other), 0.0);
        assert!(ProblemState::new(g, vec![b], vec![t]).is_err());
    }

    #[test]
    fn task_blocks_are_deduplicated_and_sorted() {
        let g = grid();
        let t = Task::new(0, 1.0, vec![3, 1, 3, 2], RdpCurve::zero(&g), 0.0);
        assert_eq!(t.blocks, vec![1, 2, 3]);
    }

    #[test]
    fn greedy_pack_enforces_forall_exists_rule() {
        let g = grid();
        let blocks = vec![Block::new(
            0,
            RdpCurve::new(&g, vec![1.0, 1.0]).unwrap(),
            0.0,
        )];
        // Task 0 is cheap at order 0, task 1 cheap at order 1; after both,
        // no single order fits a third of either kind.
        let t0 = Task::new(
            0,
            1.0,
            vec![0],
            RdpCurve::new(&g, vec![0.4, 0.9]).unwrap(),
            0.0,
        );
        let t1 = Task::new(
            1,
            1.0,
            vec![0],
            RdpCurve::new(&g, vec![0.4, 0.9]).unwrap(),
            0.0,
        );
        let t2 = Task::new(
            2,
            1.0,
            vec![0],
            RdpCurve::new(&g, vec![0.4, 0.9]).unwrap(),
            0.0,
        );
        let state = ProblemState::new(g, blocks, vec![t0, t1, t2]).unwrap();
        let ids = pack(&state, &[0, 1, 2], PackingRule::Skip);
        // 0.4+0.4 = 0.8 fits order 0; a third would be 1.2 > 1.0 at order
        // 0 and 2.7 > 1.0 at order 1.
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn greedy_pack_respects_multiple_blocks() {
        let g = grid();
        let blocks = vec![
            Block::new(0, RdpCurve::constant(&g, 1.0), 0.0),
            Block::new(1, RdpCurve::constant(&g, 0.3), 0.0),
        ];
        // Task spans both blocks; block 1 is the bottleneck.
        let t0 = Task::new(0, 1.0, vec![0, 1], RdpCurve::constant(&g, 0.2), 0.0);
        let t1 = Task::new(1, 1.0, vec![0, 1], RdpCurve::constant(&g, 0.2), 0.0);
        let state = ProblemState::new(g, blocks, vec![t0, t1]).unwrap();
        let ids = pack(&state, &[0, 1], PackingRule::Skip);
        assert_eq!(ids, vec![0]); // 0.4 > 0.3 on block 1 for the second.
    }

    #[test]
    fn requested_blocks_follow_the_pending_rows() {
        let g = grid();
        let blocks = (0..6).map(|j| Block::new(j, RdpCurve::constant(&g, 1.0), 0.0));
        let task = |id, blocks| Task::new(id, 1.0, blocks, RdpCurve::zero(&g), 0.0);
        let mut state = ProblemState::new(
            g.clone(),
            blocks.collect(),
            vec![task(0, vec![4, 1]), task(1, vec![1])],
        )
        .unwrap();
        let requested = |s: &ProblemState| s.requested_blocks().collect::<Vec<_>>();
        assert_eq!(requested(&state), vec![1, 4]);
        state.push_task(task(2, vec![5, 0])).unwrap();
        assert_eq!(requested(&state), vec![0, 1, 4, 5]);
        state.retain_tasks(&[false, true, true]);
        assert_eq!(requested(&state), vec![0, 1, 5]);
        // Capacities of exactly the requested blocks keep them.
        state
            .set_capacity(vec![0, 1, 5], |_, rows| {
                rows.fill(1.0);
                Ok(())
            })
            .unwrap();
        assert_eq!(requested(&state), vec![0, 1, 5]);
        state.retain_tasks(&[true, false]);
        assert_eq!(requested(&state), vec![1]);
    }

    #[test]
    fn the_arrival_order_flag_follows_the_tasks() {
        let g = grid();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        let task = |id, arrival| Task::new(id, 1.0, vec![0], RdpCurve::zero(&g), arrival);
        // Ties in arrival go by id; -0.0 and 0.0 are one arrival.
        let in_order = vec![task(4, -0.0), task(5, 0.0), task(1, 1.0), task(1, 1.0)];
        let mut state = ProblemState::new(g.clone(), blocks.clone(), in_order).unwrap();
        assert!(state.in_arrival_order(), "set at build");
        state.push_task(task(2, 1.0)).unwrap();
        assert!(state.in_arrival_order(), "kept by an in-order push");
        state.push_task(task(9, 0.5)).unwrap();
        assert!(!state.in_arrival_order(), "cleared by an earlier arrival");
        state.retain_tasks(&[false, true, true, true, true, true]);
        assert!(!state.in_arrival_order(), "the offender is still pending");
        state.retain_tasks(&[true, true, false, false, true]);
        assert!(!state.in_arrival_order(), "(0, 5), (1, 1), (0.5, 9)");
        state.retain_tasks(&[true, true, false]);
        assert!(state.in_arrival_order(), "the offender dropped");
        state.push_task(task(0, 1.0)).unwrap();
        assert!(!state.in_arrival_order(), "cleared by a smaller id");
        state.retain_tasks(&[true, false, true]);
        assert!(state.in_arrival_order(), "restored again");
        state.retain_tasks(&[true, false]);
        assert!(state.in_arrival_order(), "kept by a retain while it holds");
        // A refused push leaves the flag as it was.
        let mut refused = task(3, -2.0);
        refused.blocks = vec![7];
        let before = format!("{state:?}");
        assert!(state.push_task(refused).is_err());
        assert_eq!(format!("{state:?}"), before);
        assert!(state.in_arrival_order());
        state.push_task(task(7, -1.0)).unwrap();
        // The flag is a function of the tasks: a rebuild agrees.
        let rebuilt = ProblemState::new(g, blocks, state.tasks().to_vec()).unwrap();
        assert_eq!(format!("{state:?}"), format!("{rebuilt:?}"));
        assert!(!rebuilt.in_arrival_order());
    }

    #[test]
    fn allocation_empty_is_zeroed() {
        let a = Allocation::empty();
        assert!(a.scheduled.is_empty());
        assert_eq!(a.total_weight, 0.0);
        assert_eq!(a.proven_optimal, None);
    }
}
