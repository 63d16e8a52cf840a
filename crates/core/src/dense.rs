//! The dense view of a [`crate::ProblemState`] that the scheduler
//! kernels run on.
//!
//! Kept in step with the state, row by row: block ids become `u32`
//! indices (their rank among the ids of the last capacity set), every
//! task's block list becomes a CSR row, and demands and capacities
//! become flat row-major `f64` matrices, the demands also order-major
//! (one column per order) for the best-alpha sweep, which reads one
//! order of every task at a time. The kernels — `DPack`'s best-alpha
//! sweep and Eq. 6 metric, DPF's dominant shares, the `CANRUN` packing
//! loop — then touch no map and allocate nothing per task.
//!
//! The view changes in three ways only: [`Dense::push_task`] appends
//! one validated row, [`Dense::retain_tasks`] compacts rows out in
//! place, and [`Dense::set_capacity`] renumbers the blocks and has its
//! caller write the capacity rows. Task order is never permuted, so a
//! view that lived through any sequence of the three equals, bit for
//! bit, one built from scratch over the same tasks.

use dp_accounting::{fit_limit, AlphaGrid};

use crate::problem::{BlockId, PackingRule, ProblemError, Task};

/// Index-typed copy of a problem: tasks are `0..n_tasks` in state
/// order, blocks `0..n_blocks` in ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct Dense {
    n_orders: usize,
    /// Block ids, ascending; a block's position is its index.
    block_ids: Vec<BlockId>,
    /// CSR row starts: task `t` requests blocks
    /// `cols[rows[t]..rows[t + 1]]`.
    rows: Vec<u32>,
    cols: Vec<u32>,
    /// `n_tasks × n_orders` demands.
    demand: Vec<f64>,
    /// The same demands order-major: `columns[a][t]` is task `t`'s
    /// demand at order `a`.
    columns: Vec<Vec<f64>>,
    weight: Vec<f64>,
    /// `n_blocks × n_orders` available capacities.
    capacity: Vec<f64>,
    /// How many tasks request each block.
    requesters: Vec<u32>,
    uniform_weight: bool,
}

fn too_large() -> ProblemError {
    ProblemError("instance exceeds u32 indices".into())
}

impl Dense {
    /// The view of no blocks and no tasks.
    pub(crate) fn empty(n_orders: usize) -> Self {
        Self {
            n_orders,
            block_ids: Vec::new(),
            rows: vec![0],
            cols: Vec::new(),
            demand: Vec::new(),
            columns: vec![Vec::new(); n_orders],
            weight: Vec::new(),
            capacity: Vec::new(),
            requesters: Vec::new(),
            uniform_weight: true,
        }
    }

    /// Makes room for `tasks` more rows.
    pub(crate) fn reserve(&mut self, tasks: usize) {
        self.rows.reserve(tasks);
        self.demand.reserve(tasks * self.n_orders);
        for column in &mut self.columns {
            column.reserve_exact(tasks);
        }
        self.weight.reserve(tasks);
    }

    /// Sets the blocks to `ids`, ascending, with the capacity rows `fill`
    /// writes (one zeroed row of `n_orders` values per id). The task rows
    /// keep their block indices when the ids extend the old ones.
    ///
    /// # Errors
    ///
    /// Rejects ids out of order, more blocks than `u32` indices, an id
    /// set without a block some task requests, and whatever `fill`
    /// refuses. The view is unchanged on error.
    pub(crate) fn set_capacity(
        &mut self,
        ids: Vec<BlockId>,
        fill: impl FnOnce(&[BlockId], &mut [f64]) -> Result<(), ProblemError>,
    ) -> Result<(), ProblemError> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ProblemError("block ids must be strictly ascending".into()));
        }
        u32::try_from(ids.len()).map_err(|_| too_large())?;
        // Old index → new index, unless the old ids are a prefix. A block
        // nobody requests may go; no row points at it, so it is not sought.
        let mut moved = None;
        if !ids.starts_with(&self.block_ids) {
            let moved = moved.insert(Vec::with_capacity(self.block_ids.len()));
            for (id, &n) in self.block_ids.iter().zip(&self.requesters) {
                let gone = || ProblemError(format!("block {id} is gone but {n} tasks request it"));
                let j = if n == 0 {
                    u32::MAX as usize
                } else {
                    ids.binary_search(id).map_err(|_| gone())?
                };
                moved.push(j as u32);
            }
        }
        let mut capacity = vec![0.0; ids.len() * self.n_orders];
        fill(&ids, &mut capacity)?;
        if let Some(moved) = moved {
            let mut requesters = vec![0u32; ids.len()];
            for (&j, &n) in moved.iter().zip(&self.requesters) {
                if n > 0 {
                    requesters[j as usize] = n;
                }
            }
            for j in &mut self.cols {
                *j = moved[*j as usize];
            }
            self.requesters = requesters;
        } else {
            self.requesters.resize(ids.len(), 0);
        }
        self.capacity = capacity;
        self.block_ids = ids;
        Ok(())
    }

    /// Validates `t` against the blocks and appends its row — the one
    /// place rows are built.
    ///
    /// # Errors
    ///
    /// Rejects curves off `grid`, a [`Task::defect`], unknown blocks,
    /// and instances too large for `u32` indices. The view is unchanged
    /// on error.
    pub(crate) fn push_task(&mut self, grid: &AlphaGrid, t: &Task) -> Result<(), ProblemError> {
        if t.demand.grid() != grid {
            return Err(ProblemError(format!(
                "task {} is on a different grid",
                t.id
            )));
        }
        if let Some(defect) = t.defect() {
            return Err(ProblemError(format!("task {} {defect}", t.id)));
        }
        let row = self.cols.len();
        u32::try_from(self.n_tasks() + 1).map_err(|_| too_large())?;
        let end = u32::try_from(row + t.blocks.len()).map_err(|_| too_large())?;
        // Only an unknown block can fail from here on, and it takes
        // back what the row had written.
        for b in &t.blocks {
            let Ok(j) = self.block_ids.binary_search(b) else {
                for j in self.cols.drain(row..) {
                    self.requesters[j as usize] -= 1;
                }
                return Err(ProblemError(format!(
                    "task {} requests unknown block {b}",
                    t.id
                )));
            };
            self.requesters[j] += 1;
            self.cols.push(j as u32);
        }
        self.rows.push(end);
        self.demand.extend_from_slice(t.demand.values());
        for (column, &d) in self.columns.iter_mut().zip(t.demand.values()) {
            column.push(d);
        }
        self.uniform_weight &= self.weight.first().is_none_or(|w| *w == t.weight);
        self.weight.push(t.weight);
        Ok(())
    }

    /// Drops every task `t` with `!keep[t]`, moving the rows behind it
    /// up — a run of kept tasks at a time; the kept tasks stay in order.
    pub(crate) fn retain_tasks(&mut self, keep: &[bool]) {
        let k = self.n_orders;
        // Where the next kept task and its block list go.
        let (mut tasks, mut cols) = (0, 0);
        let mut t = 0;
        while t < keep.len() {
            let run = keep[t..].iter().take_while(|kept| **kept).count();
            // Between two dropped tasks there is nothing to move.
            if run > 0 {
                let (from, to) = (self.rows[t] as usize, self.rows[t + run] as usize);
                self.cols.copy_within(from..to, cols);
                self.demand.copy_within(t * k..(t + run) * k, tasks * k);
                for column in &mut self.columns {
                    column.copy_within(t..t + run, tasks);
                }
                self.weight.copy_within(t..t + run, tasks);
                let moved_up = (from - cols) as u32;
                for i in 0..run {
                    self.rows[tasks + i] = self.rows[t + i] - moved_up;
                }
                (tasks, cols, t) = (tasks + run, cols + to - from, t + run);
            }
            // The task that ended the run, if any, goes.
            if t < keep.len() {
                for &j in &self.cols[self.rows[t] as usize..self.rows[t + 1] as usize] {
                    self.requesters[j as usize] -= 1;
                }
                t += 1;
            }
        }
        self.rows[tasks] = cols as u32;
        self.rows.truncate(tasks + 1);
        self.cols.truncate(cols);
        self.demand.truncate(tasks * k);
        for column in &mut self.columns {
            column.truncate(tasks);
        }
        self.weight.truncate(tasks);
        self.uniform_weight = self.weight.windows(2).all(|w| w[0] == w[1]);
    }

    pub(crate) fn n_tasks(&self) -> usize {
        self.weight.len()
    }

    pub(crate) fn n_blocks(&self) -> usize {
        self.requesters.len()
    }

    pub(crate) fn n_orders(&self) -> usize {
        self.n_orders
    }

    /// Every block's id, ascending; a block's index is its position.
    pub(crate) fn block_ids(&self) -> &[BlockId] {
        &self.block_ids
    }

    /// The ids of the blocks at least one task requests, ascending.
    pub(crate) fn requested_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        let counted = self.block_ids.iter().zip(&self.requesters);
        counted.filter(|(_, n)| **n > 0).map(|(id, _)| *id)
    }

    /// The block indices task `t` requests, in its own list order.
    pub(crate) fn blocks_of(&self, t: usize) -> &[u32] {
        &self.cols[self.rows[t] as usize..self.rows[t + 1] as usize]
    }

    /// Task `t`'s per-block demand, one value per order.
    pub(crate) fn demand(&self, t: usize) -> &[f64] {
        &self.demand[t * self.n_orders..(t + 1) * self.n_orders]
    }

    pub(crate) fn weight(&self, t: usize) -> f64 {
        self.weight[t]
    }

    /// Whether every task has the same weight (vacuously for none).
    pub(crate) fn uniform_weight(&self) -> bool {
        self.uniform_weight
    }

    /// Block `j`'s available capacity, one value per order.
    pub(crate) fn capacity(&self, j: usize) -> &[f64] {
        &self.capacity[j * self.n_orders..(j + 1) * self.n_orders]
    }

    /// The transpose of the task rows: block `j` is requested by tasks
    /// `members[starts[j]..starts[j + 1]]`, ascending.
    pub(crate) fn by_block(&self) -> (Vec<usize>, Vec<u32>) {
        let mut starts = Vec::with_capacity(self.n_blocks() + 1);
        let mut at = 0;
        starts.push(0);
        for &n in &self.requesters {
            at += n as usize;
            starts.push(at);
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; self.cols.len()];
        for t in 0..self.n_tasks() {
            for &j in self.blocks_of(t) {
                members[next[j as usize]] = t as u32;
                next[j as usize] += 1;
            }
        }
        (starts, members)
    }

    /// `CANRUN` packing of Alg. 1 over `ordered` task indices: a task
    /// is taken iff, after adding its demand, every requested block
    /// still fits at some order. Returns the taken indices in order.
    pub(crate) fn pack(&self, ordered: &[usize], rule: PackingRule) -> Vec<usize> {
        let k = self.n_orders;
        let limit: Vec<f64> = self.capacity.iter().map(|&c| fit_limit(c)).collect();
        let mut used = vec![0.0f64; self.capacity.len()];
        let mut taken = Vec::new();
        for &t in ordered {
            let demand = self.demand(t);
            let blocks = self.blocks_of(t);
            // Every order is tested, without an early exit: the block's
            // rows are short, and a branch-free fold beats one branch
            // per order.
            let fits_all_blocks = blocks.iter().all(|&j| {
                let used = &used[j as usize * k..][..k];
                let limit = &limit[j as usize * k..][..k];
                used.iter()
                    .zip(demand)
                    .zip(limit)
                    .fold(false, |any, ((u, d), l)| any | (u + d <= *l))
            });
            if fits_all_blocks {
                for &j in blocks {
                    let used = &mut used[j as usize * k..][..k];
                    for (u, d) in used.iter_mut().zip(demand) {
                        *u += d;
                    }
                }
                taken.push(t);
            } else if rule == PackingRule::Stop {
                break;
            }
        }
        taken
    }
}

/// A sweep sorts this share of the tasks as its first run, and at least
/// [`MIN_RUN`] (see [`Sweep::walk`]).
const FIRST_RUN_SHARE: usize = 8;
const MIN_RUN: usize = 256;

/// One block during a sweep.
#[derive(Clone, Copy)]
struct Slot {
    /// [`fit_limit`] of the block's capacity at the order.
    limit: f64,
    used: f64,
    /// Summed weight of the tasks packed so far.
    value: f64,
    open: bool,
}

/// The column-sum certificate of one pass over an equal-weight view. A block
/// is *settled* at the first order where it is usable and its limit holds the
/// order's [`joint_bound`]: the walk's and `CANRUN`'s running sums over its
/// requesters are float sums of subsets of that column and never decrease, so
/// all subsets fit there in any order, and [`Sweep::run`] sums the weight the
/// walk would take, to the bit. No later order can beat that value.
pub(crate) struct Certificate {
    /// Per block, the order it settles at; `n_orders` if none.
    settled_at: Vec<usize>,
    /// Sweeps visit the orders `0..orders`: past them all blocks settled.
    pub(crate) orders: usize,
    /// Every requested block settles: every subset of the tasks fits.
    pub(crate) all_settled: bool,
}

impl Certificate {
    /// The certificate of `dense`, which must have equal weights.
    pub(crate) fn new(dense: &Dense) -> Self {
        let k = dense.n_orders;
        // Past the largest capacity's limit a column settles nothing.
        let cut = fit_limit(dense.capacity.iter().fold(0.0, |m: f64, c| m.max(*c)));
        let bounds: Vec<f64> = dense.columns.iter().map(|c| joint_bound(c, cut)).collect();
        let settles = |(a, c): &(usize, &f64)| **c > 0.0 && bounds[*a] <= fit_limit(**c);
        // One past the last order a block settles at; k + 1 if one never does.
        let (mut settled_at, mut until) = (vec![k; dense.n_blocks()], 0);
        for (j, at) in settled_at.iter_mut().enumerate() {
            if dense.requesters[j] > 0 {
                let first = dense.capacity(j).iter().enumerate().find(settles);
                *at = first.map_or(k, |(a, _)| a);
                until = until.max(*at + 1);
            }
        }
        Self {
            settled_at,
            orders: until.min(k),
            all_settled: until <= k,
        }
    }
}

/// All single-block knapsacks of one order at once, for equal weights —
/// the kernel behind `DPack`'s best alphas — with its buffers.
///
/// With equal weights the best single-block knapsack at one order is the
/// longest prefix of the block's requesters by ascending `(demand, task
/// index)` that fits. Instead of sorting each block's requesters, sort
/// **all** tasks by that key once per order and walk them: each task is
/// added to every requested block that is still open, and a block closes
/// at its first misfit. Restricted to one block the walk visits that
/// block's requesters in exactly the per-block order, so the sums, the
/// prefix and hence the value are the same to the last bit.
#[derive(Default)]
pub(crate) struct Sweep {
    /// `(demand bits, task)`: demands are non-negative and not NaN, so
    /// their bit patterns order as the values do.
    keys: Vec<(u64, u32)>,
    slots: Vec<Slot>,
}

impl Sweep {
    /// Every block's knapsack value at order `a`, by block index;
    /// `f64::NEG_INFINITY` for a block unusable at `a`, requested by
    /// nobody, or settled earlier by `cert` (of `dense`).
    pub(crate) fn run(
        &mut self,
        dense: &Dense,
        cert: &Certificate,
        a: usize,
    ) -> impl Iterator<Item = f64> + '_ {
        self.slots.clear();
        self.slots.extend((0..dense.n_blocks()).map(|j| {
            let (capacity, requesters) = (dense.capacity(j)[a], dense.requesters[j]);
            let usable = capacity > 0.0 && requesters > 0 && a <= cert.settled_at[j];
            let open = usable && a < cert.settled_at[j];
            let value = match (usable, open) {
                (false, _) => f64::NEG_INFINITY,
                (true, true) => 0.0,
                (true, false) => (0..requesters).fold(0.0, |v, _| v + dense.weight[0]),
            };
            Slot {
                limit: fit_limit(capacity),
                used: 0.0,
                value,
                open,
            }
        }));
        let n_open = self.slots.iter().filter(|slot| slot.open).count();
        if n_open > 0 {
            self.walk(dense, a, n_open);
        }
        self.slots.iter().map(|slot| slot.value)
    }

    /// Walks the tasks by ascending `(demand at a, index)` until the
    /// last of the `n_open` open blocks closes.
    fn walk(&mut self, dense: &Dense, a: usize, mut n_open: usize) {
        // `+ 0.0` folds -0.0 into 0.0, which compare equal.
        self.keys.clear();
        self.keys.extend(
            dense.columns[a]
                .iter()
                .enumerate()
                .map(|(t, d)| ((d + 0.0).to_bits(), t as u32)),
        );
        // Under contention the last block closes after a short prefix of
        // the order, so the order is produced run by run — the smallest
        // eighth of the keys, then twice as many of the rest, … — and
        // the tail is never sorted. Keys are distinct, so the runs
        // concatenate to exactly the fully sorted order.
        let mut rest = &mut self.keys[..];
        let mut run = (rest.len() / FIRST_RUN_SHARE).max(MIN_RUN);
        while !rest.is_empty() {
            let len = run.min(rest.len());
            if len < rest.len() {
                rest.select_nth_unstable(len);
            }
            let (head, tail) = rest.split_at_mut(len);
            head.sort_unstable();
            for &(bits, t) in head.iter() {
                let demand = f64::from_bits(bits);
                for &j in dense.blocks_of(t as usize) {
                    let slot = &mut self.slots[j as usize];
                    if !slot.open {
                        continue;
                    }
                    if slot.used + demand <= slot.limit {
                        slot.used += demand;
                        slot.value += dense.weight[0];
                    } else {
                        slot.open = false;
                        n_open -= 1;
                        if n_open == 0 {
                            return;
                        }
                    }
                }
            }
            rest = tail;
            run *= 2;
        }
    }
}

/// An upper bound on every float sum of `column`, or of a subset of it, in
/// any order (`f64::INFINITY` once a partial sum passes `cut`): its sum `T`
/// in eight lanes, widened to `T · (1 + 4·n·ε)`, as sums of `n` terms `≥ 0`
/// lie within `(1 ± ε/2)^(n-1)` of the exact sum (Higham, §4.2).
fn joint_bound(column: &[f64], cut: f64) -> f64 {
    let mut lanes = [0.0f64; 8];
    for part in column.chunks(512) {
        for chunk in part.chunks(8) {
            lanes.iter_mut().zip(chunk).for_each(|(lane, d)| *lane += d);
        }
        if lanes.iter().sum::<f64>() > cut {
            return f64::INFINITY;
        }
    }
    lanes.iter().sum::<f64>() * (1.0 + 4.0 * column.len() as f64 * f64::EPSILON)
}

/// Runs `f(0)` on the calling thread and `f(1)`, …, `f(threads - 1)` on
/// scoped workers, returning the results in that order. Each call may
/// pick its share of the work from its number.
pub(crate) fn fan_out<T: Send>(threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = (1..threads).map(|w| scope.spawn(move || f(w))).collect();
        let mut out = vec![f(0)];
        out.extend(
            workers
                .into_iter()
                .map(|w| w.join().expect("fan-out worker panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, ProblemState};
    use dp_accounting::RdpCurve;
    use knapsack::{greedy::unit_profit_exact, Item};

    #[test]
    fn sweep_values_match_per_block_prefix_knapsacks() {
        // 4 000 equal-weight tasks with tiny demands from 61 shared
        // curves: a block stays open for some 1 700 of its 2 000
        // requesters, so a sweep runs through three sorted runs (500,
        // 1 000 and 2 000 keys) with ties across their boundaries. Every (block, order) value must
        // equal that block's own prefix knapsack to the last bit.
        let mut draw = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            draw ^= draw << 13;
            draw ^= draw >> 7;
            draw ^= draw << 17;
            draw
        };
        let g = AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap();
        let mut curves: Vec<RdpCurve> = (0..60)
            .map(|_| RdpCurve::from_fn(&g, |_| (next() % 2_000) as f64 * 1e-6))
            .collect();
        curves.push(RdpCurve::new(&g, vec![0.0, -0.0, 0.003]).unwrap());
        let blocks: Vec<Block> = (0..6)
            .map(|j| Block::new(j, RdpCurve::constant(&g, 1.5), 0.0))
            .collect();
        let tasks: Vec<Task> = (0..4_000)
            .map(|i| {
                let picked: Vec<u64> = (0..6).filter(|_| next() % 2 == 0).collect();
                let picked = if picked.is_empty() { vec![0] } else { picked };
                let curve = curves[next() as usize % curves.len()].clone();
                Task::new(i, 1.5, picked, curve, 0.0)
            })
            .collect();
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let dense = state.dense();
        let (starts, members) = dense.by_block();
        let certificate = Certificate::new(dense);
        assert_eq!((certificate.orders, certificate.all_settled), (3, false));
        let mut sweeper = Sweep::default();
        for a in 0..dense.n_orders() {
            let swept: Vec<f64> = sweeper.run(dense, &certificate, a).collect();
            for j in 0..dense.n_blocks() {
                let requesters = &members[starts[j]..starts[j + 1]];
                let items: Vec<Item> = requesters
                    .iter()
                    .map(|&t| Item {
                        weight: dense.demand(t as usize)[a],
                        profit: dense.weight(t as usize),
                    })
                    .collect();
                let alone = unit_profit_exact(&items, dense.capacity(j)[a]).unwrap();
                assert!(alone.selected.len() > 1_500, "block {j}, order {a}");
                assert_eq!(swept[j].to_bits(), alone.profit.to_bits());
            }
        }
    }
}
