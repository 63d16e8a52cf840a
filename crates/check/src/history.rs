//! The history oracle: the rules of a correct run of the budget
//! service, stated once over plain data.
//!
//! A crash, promotion or chaos suite records what its run promised and
//! what survived it — every grant a tenant was told of, the state
//! recovered from the log, and which node won each election term — and
//! [`check_history`] judges that record. [`diff_states`] compares two
//! ledgers bit for bit. Neither knows a service type: a suite converts
//! its ledger into [`BlockView`]s and computes each block's limit
//! itself, with `dp_accounting::fit_limit` (the one tolerance).

use std::collections::BTreeMap;
use std::fmt;

use crate::{Failed, PropResult};

/// One block's persisted state as plain numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockView {
    /// The block id.
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// Capacity per Rényi order.
    pub total: Vec<f64>,
    /// Consumption per Rényi order.
    pub consumed: Vec<f64>,
    /// Grants charged to the block.
    pub granted: u64,
}

/// One grant a tenant was told of.
#[derive(Clone, Debug, PartialEq)]
pub struct Grant {
    /// The task id.
    pub task: u64,
    /// The blocks it charges.
    pub blocks: Vec<u64>,
    /// Its demand per Rényi order, charged to each of its blocks.
    pub demand: Vec<f64>,
}

/// What one run promised and what survived it.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Each block's id and the largest consumption per order that keeps
    /// it within its filter: `fit_limit` of its capacity.
    pub limits: BTreeMap<u64, Vec<f64>>,
    /// Every grant a tenant was told of.
    pub acked: Vec<Grant>,
    /// The recovered state, one view per block.
    pub blocks: Vec<BlockView>,
    /// The recovered log's charges in log order: each applied record's
    /// task and the blocks it charged.
    pub applied: Vec<(u64, Vec<u64>)>,
    /// Whether `applied` names every charge in `blocks`. A compaction or
    /// resync snapshot keeps consumption but no task ids, and an
    /// in-memory run keeps no log; then only the per-block charge counts
    /// can show a lost or doubled grant.
    pub complete: bool,
    /// Every `(term, node)` election win, from every node.
    pub elections: Vec<(u64, u64)>,
}

/// The first rule a [`History`] breaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryError {
    /// No order of `block` is within its limit (Prop. 6), in the
    /// recovered consumption or in the demand granted on it.
    Overdrawn { block: u64 },
    /// An acked grant's charge on `block` is not in the recovered state;
    /// `task` is `None` when only the block's charge count shows it.
    MissingGrant { task: Option<u64>, block: u64 },
    /// `block` is charged more often than the acked grants name it;
    /// `task` is `None` when only the block's charge count shows it.
    ChargedTwice { task: Option<u64>, block: u64 },
    /// Two `nodes` won the same `term`, the first winner first.
    TwoLeaders { term: u64, nodes: [u64; 2] },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "history broken: {self:?}")
    }
}

impl std::error::Error for HistoryError {}

impl From<HistoryError> for Failed {
    fn from(e: HistoryError) -> Self {
        Failed::new(e.to_string())
    }
}

/// Judges one run, failing on the first broken rule, in this order:
///
/// 1. at most one leader per term;
/// 2. Prop. 6 on every recovered block: some order is within its limit;
/// 3. each `(task, block)` charge is applied at most as often as acked
///    grants name it (an id may be granted again once resolved), and
///    exactly as often when the applied list is complete;
/// 4. each recovered block carries exactly one charge per acked grant
///    naming it, and no block an acked grant names is lost;
/// 5. Prop. 6 on the acked grants: their demand on each block, summed
///    in ack order, keeps some order within its limit.
///
/// # Errors
///
/// The [`HistoryError`] of the first rule broken.
pub fn check_history(h: &History) -> Result<(), HistoryError> {
    let mut leaders = BTreeMap::new();
    for &(term, node) in &h.elections {
        let first = *leaders.entry(term).or_insert(node);
        if first != node {
            let nodes = [first, node];
            return Err(HistoryError::TwoLeaders { term, nodes });
        }
    }
    let overdrawn = |block: u64, used: &[f64]| {
        let limit = h.limits.get(&block).map_or(&[][..], Vec::as_slice);
        !used.iter().zip(limit).any(|(u, l)| u <= l)
    };
    if let Some(b) = h.blocks.iter().find(|b| overdrawn(b.id, &b.consumed)) {
        return Err(HistoryError::Overdrawn { block: b.id });
    }
    // How often each `(task, block)` charge is acked, and applied; how
    // often each block is named by an acked grant, and its summed demand.
    let mut pairs: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    let mut named: BTreeMap<u64, u64> = BTreeMap::new();
    let mut demand: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for g in &h.acked {
        for &block in &g.blocks {
            pairs.entry((g.task, block)).or_default().0 += 1;
            *named.entry(block).or_default() += 1;
            let sum = demand
                .entry(block)
                .or_insert_with(|| vec![0.0; g.demand.len()]);
            sum.iter_mut().zip(&g.demand).for_each(|(s, d)| *s += d);
        }
    }
    for (task, blocks) in &h.applied {
        for &block in blocks {
            pairs.entry((*task, block)).or_default().1 += 1;
        }
    }
    for (&(task, block), &(acked, applied)) in &pairs {
        let task = Some(task);
        if applied > acked {
            return Err(HistoryError::ChargedTwice { task, block });
        }
        if h.complete && applied < acked {
            return Err(HistoryError::MissingGrant { task, block });
        }
    }
    let charged: BTreeMap<u64, u64> = h.blocks.iter().map(|b| (b.id, b.granted)).collect();
    for &block in named.keys().chain(charged.keys()) {
        let count = |m: &BTreeMap<u64, u64>| m.get(&block).copied().unwrap_or(0);
        if count(&named) > count(&charged) {
            return Err(HistoryError::MissingGrant { task: None, block });
        }
        if count(&named) < count(&charged) {
            return Err(HistoryError::ChargedTwice { task: None, block });
        }
    }
    let over = demand.into_iter().find(|(b, sum)| overdrawn(*b, sum));
    over.map_or(Ok(()), |(block, _)| Err(HistoryError::Overdrawn { block }))
}

/// Compares two ledgers bit for bit: the same block ids, and per block
/// the same arrival, capacity, consumption and grant count, each `f64`
/// by its bit pattern. `what` names the comparison in the failure.
///
/// # Errors
///
/// A [`Failed`] naming the first block that differs.
pub fn diff_states(what: &str, got: &[BlockView], want: &[BlockView]) -> PropResult {
    let ids = |v: &[BlockView]| v.iter().map(|b| b.id).collect::<Vec<_>>();
    let (got_ids, want_ids) = (ids(got), ids(want));
    if got_ids != want_ids {
        let diff = format!("{what}: blocks {got_ids:?} != {want_ids:?}");
        return Err(Failed::new(diff));
    }
    let bits = |b: &BlockView| {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let arrival = b.arrival.to_bits();
        (b.granted, arrival, bits(&b.total), bits(&b.consumed))
    };
    match got.iter().zip(want).find(|(g, w)| bits(g) != bits(w)) {
        Some((g, w)) => Err(Failed::new(format!("{what}: block {g:?} != {w:?}"))),
        None => Ok(()),
    }
}
