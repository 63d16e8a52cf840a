//! Efficiency and fairness metrics (§6.1, §6.3 of the paper).

use std::collections::{BTreeMap, BTreeSet};

use dp_accounting::RdpCurve;

use crate::problem::{BlockId, Task, TaskId};
use crate::schedulers::dominant_share;

/// The fairness analysis of §6.3: how many of the allocated tasks were
/// "fair-share" tasks, i.e. tasks whose dominant share of the total
/// (epsilon-normalized) budget is at most `1/N`.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// The fair share `1/N`.
    pub fair_share: f64,
    /// Number of workload tasks qualifying as fair-share demanders.
    pub qualifying_total: usize,
    /// Number of allocated tasks that qualify.
    pub qualifying_allocated: usize,
    /// Number of allocated tasks overall.
    pub allocated_total: usize,
}

impl FairnessReport {
    /// Fraction of the workload that qualifies as fair-share.
    pub fn qualifying_fraction(&self, workload_size: usize) -> f64 {
        self.qualifying_total as f64 / workload_size.max(1) as f64
    }

    /// Fraction of allocated tasks that are fair-share tasks — the
    /// paper's headline fairness number (90% for DPF vs 60% for DPack on
    /// Alibaba-DP).
    pub fn allocated_fair_fraction(&self) -> f64 {
        self.qualifying_allocated as f64 / self.allocated_total.max(1) as f64
    }
}

/// Computes the [`FairnessReport`] for an allocation, judging fair-share
/// status against the blocks' *total* capacities.
pub fn fairness_report(
    tasks: &[Task],
    allocated: &BTreeSet<TaskId>,
    total_capacities: &BTreeMap<BlockId, RdpCurve>,
    n_fair: u32,
) -> FairnessReport {
    assert!(n_fair >= 1, "fair-share divisor must be >= 1");
    let fair_share = 1.0 / n_fair as f64;
    let mut qualifying_total = 0;
    let mut qualifying_allocated = 0;
    let mut allocated_total = 0;
    for t in tasks {
        let share = dominant_share(t, total_capacities);
        let qualifies = share <= fair_share;
        if qualifies {
            qualifying_total += 1;
        }
        if allocated.contains(&t.id) {
            allocated_total += 1;
            if qualifies {
                qualifying_allocated += 1;
            }
        }
    }
    FairnessReport {
        fair_share,
        qualifying_total,
        qualifying_allocated,
        allocated_total,
    }
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by nearest-rank; `None` for
/// an empty slice.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "quantile p must be in [0, 1]");
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::AlphaGrid;

    #[test]
    fn fairness_report_counts_qualifiers() {
        let g = AlphaGrid::single(2.0).unwrap();
        let mut caps = BTreeMap::new();
        caps.insert(0u64, RdpCurve::constant(&g, 10.0));
        let tasks = vec![
            // Share 0.01 — fair for N = 50.
            Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0),
            // Share 0.05 — not fair.
            Task::new(1, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 0.0),
            // Share 0.02 = 1/50 — exactly fair.
            Task::new(2, 1.0, vec![0], RdpCurve::constant(&g, 0.2), 0.0),
        ];
        let allocated: BTreeSet<TaskId> = [0, 1].into_iter().collect();
        let r = fairness_report(&tasks, &allocated, &caps, 50);
        assert_eq!(r.qualifying_total, 2);
        assert_eq!(r.allocated_total, 2);
        assert_eq!(r.qualifying_allocated, 1);
        assert!((r.allocated_fair_fraction() - 0.5).abs() < 1e-12);
        assert!((r.qualifying_fraction(tasks.len()) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "fair-share divisor")]
    fn zero_fair_divisor_panics() {
        fairness_report(&[], &BTreeSet::new(), &BTreeMap::new(), 0);
    }
}
