//! Problem types shared by all schedulers.

use std::collections::BTreeMap;
use std::time::Duration;

use dp_accounting::{AlphaGrid, RdpCurve};

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
/// capacities written over the last with
/// [`ProblemState::set_available`]. Tasks are never reordered, so a
/// long-lived state is indistinguishable — to every scheduler, bit for
/// bit — from one built from scratch over the same tasks.
#[derive(Debug, Clone)]
pub struct ProblemState {
    grid: AlphaGrid,
    /// Available capacity per block, as last set.
    blocks: BTreeMap<BlockId, RdpCurve>,
    /// Pending tasks, in push order, which need not be `arrival` order.
    tasks: Vec<Task>,
    /// The index-typed view the scheduler kernels run on, one row per
    /// task; every mutation of `tasks` and `blocks` goes through it
    /// first, so the two never disagree.
    dense: Dense,
    /// Task indices sorted by `(id, index)`, for [`ProblemState::task`];
    /// kept sorted by insertion and compaction, never re-sorted.
    by_id: Vec<u32>,
}

impl ProblemState {
    /// Builds an offline state where each block's full capacity is
    /// available.
    ///
    /// # Errors
    ///
    /// Rejects duplicate block ids, tasks referencing unknown blocks,
    /// grid mismatches, non-positive or non-finite task weights, and
    /// negative or NaN demands.
    pub fn new(
        grid: AlphaGrid,
        blocks: Vec<Block>,
        tasks: Vec<Task>,
    ) -> Result<Self, ProblemError> {
        let mut map = BTreeMap::new();
        for b in blocks {
            if map.insert(b.id, b.capacity).is_some() {
                return Err(ProblemError(format!("duplicate block id {}", b.id)));
            }
        }
        Self::from_available(grid, map, tasks)
    }

    /// Builds a state directly from available-capacity curves (used by
    /// the online engine and the budget service, which compute unlocked
    /// capacities themselves): the empty state, its capacities set,
    /// each task pushed.
    ///
    /// # Errors
    ///
    /// The same validation as [`ProblemState::new`].
    pub fn from_available(
        grid: AlphaGrid,
        available: BTreeMap<BlockId, RdpCurve>,
        tasks: Vec<Task>,
    ) -> Result<Self, ProblemError> {
        let mut dense = Dense::empty(grid.len());
        dense.set_available(&grid, &available)?;
        dense.reserve(tasks.len());
        for t in &tasks {
            dense.push_task(&grid, t)?;
        }
        // One sort here instead of one sorted insertion per task.
        let mut by_id: Vec<u32> = (0..tasks.len() as u32).collect();
        by_id.sort_unstable_by_key(|&i| (tasks[i as usize].id, i));
        Ok(Self {
            grid,
            blocks: available,
            tasks,
            dense,
            by_id,
        })
    }

    /// Appends a task behind the pending ones.
    ///
    /// # Errors
    ///
    /// The per-task validation of [`ProblemState::new`], against the
    /// blocks last set; a refused task leaves the state as it was.
    pub fn push_task(&mut self, task: Task) -> Result<(), ProblemError> {
        self.dense.push_task(&self.grid, &task)?;
        // Behind every task of the same id: the new index is the largest.
        let at = self
            .by_id
            .partition_point(|&i| self.tasks[i as usize].id <= task.id);
        self.by_id.insert(at, self.tasks.len() as u32);
        self.tasks.push(task);
        Ok(())
    }

    /// Drops every task whose flag in `keep` (one per task, in
    /// [`ProblemState::tasks`] order) is `false`. The kept tasks close
    /// ranks in place and stay in order.
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
    }

    /// Replaces every block's available capacity. Pending tasks keep
    /// their rows when the block ids are the old ones, or the old ones
    /// with new ids behind them; any other change of the id set
    /// renumbers the rows' block indices (unrequested blocks may go).
    ///
    /// # Errors
    ///
    /// Rejects curves on a different grid and a block set that lacks a
    /// block some pending task requests; the state is unchanged then.
    pub fn set_available(
        &mut self,
        available: BTreeMap<BlockId, RdpCurve>,
    ) -> Result<(), ProblemError> {
        self.dense.set_available(&self.grid, &available)?;
        self.blocks = available;
        Ok(())
    }

    /// The alpha grid shared by all curves.
    pub fn grid(&self) -> &AlphaGrid {
        &self.grid
    }

    /// Available capacity per block, keyed by block id.
    pub fn blocks(&self) -> &BTreeMap<BlockId, RdpCurve> {
        &self.blocks
    }

    /// The pending tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
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
/// Returns scheduled task ids in allocation order. Shared by every
/// ordering-based scheduler so that efficiency differences come from the
/// ordering (and packing rule) alone.
pub fn pack(state: &ProblemState, ordered: &[usize], rule: PackingRule) -> Vec<TaskId> {
    let taken = state.dense().pack(ordered, rule);
    taken.into_iter().map(|t| state.tasks()[t].id).collect()
}

/// [`pack`] with [`PackingRule::Skip`] — the default greedy discipline.
pub fn greedy_pack(state: &ProblemState, ordered: &[usize]) -> Vec<TaskId> {
    pack(state, ordered, PackingRule::Skip)
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
        let ids = greedy_pack(&state, &[0, 1, 2]);
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
        let ids = greedy_pack(&state, &[0, 1]);
        assert_eq!(ids, vec![0]); // 0.4 > 0.3 on block 1 for the second.
    }

    #[test]
    fn allocation_empty_is_zeroed() {
        let a = Allocation::empty();
        assert!(a.scheduled.is_empty());
        assert_eq!(a.total_weight, 0.0);
        assert_eq!(a.proven_optimal, None);
    }
}
