//! Parallelized scheduler wrappers.
//!
//! The Go implementation parallelizes DPack's best-alpha knapsacks and
//! DPF's per-task dominant-share computation (§6.4: "the DPack (and
//! DPF) algorithms are parallelized"). These wrappers run the same
//! `dpack-core` kernels with a thread count: DPack's independent
//! per-order passes and DPF's per-task shares fan out over
//! [`std::thread::scope`] workers, while ordering and packing stay
//! sequential and deterministic, so decisions are identical to the
//! single-threaded schedulers.

use std::collections::BTreeMap;

use dpack_core::problem::{Allocation, BlockId, PackingRule, ProblemState};
use dpack_core::schedulers::{dpf_schedule, DPack, Scheduler};

/// Validates and stores a worker-thread count.
fn check_threads(threads: usize) -> usize {
    assert!(threads >= 1, "need at least one worker thread");
    threads
}

/// DPack with the best-alpha computation fanned out over scoped
/// threads.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDPack {
    inner: DPack,
    threads: usize,
}

impl ParallelDPack {
    /// Wraps a [`DPack`] configuration with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(inner: DPack, threads: usize) -> Self {
        Self {
            inner,
            threads: check_threads(threads),
        }
    }

    /// The wrapped configuration.
    pub fn inner(&self) -> &DPack {
        &self.inner
    }

    /// Computes best alphas for all blocks in parallel.
    pub fn parallel_best_alphas(&self, state: &ProblemState) -> BTreeMap<BlockId, Option<usize>> {
        self.inner.best_alphas_threaded(state, self.threads)
    }
}

impl Scheduler for ParallelDPack {
    fn name(&self) -> &'static str {
        "DPack(parallel)"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        self.inner.schedule_threaded(state, self.threads)
    }
}

/// DPF with the per-task dominant-share computation fanned out over
/// scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDpf {
    threads: usize,
    rule: PackingRule,
}

impl ParallelDpf {
    /// Creates the skip-greedy wrapper (decision-identical to
    /// [`dpack_core::schedulers::Dpf`]) with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: check_threads(threads),
            rule: PackingRule::Skip,
        }
    }

    /// The head-of-line-blocking variant (decision-identical to
    /// [`dpack_core::schedulers::DpfStrict`]) — the fairness-preserving
    /// online discipline used in the Q4 experiments.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn strict(threads: usize) -> Self {
        Self {
            threads: check_threads(threads),
            rule: PackingRule::Stop,
        }
    }
}

impl Scheduler for ParallelDpf {
    fn name(&self) -> &'static str {
        "DPF(parallel)"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        dpf_schedule(state, self.rule, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpack_core::schedulers::Dpf;

    #[test]
    fn parallel_dpack_is_decision_identical() {
        for state in [
            dpack_core::scenarios::fig1_state(),
            dpack_core::scenarios::fig3_state(),
        ] {
            let seq = DPack::default().schedule(&state);
            for threads in [1, 2, 4] {
                let par = ParallelDPack::new(DPack::default(), threads).schedule(&state);
                assert_eq!(par.scheduled, seq.scheduled, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_dpf_is_decision_identical() {
        for state in [
            dpack_core::scenarios::fig1_state(),
            dpack_core::scenarios::fig3_state(),
        ] {
            let seq = Dpf.schedule(&state);
            for threads in [1, 3, 8] {
                let par = ParallelDpf::new(threads).schedule(&state);
                assert_eq!(par.scheduled, seq.scheduled, "threads={threads}");
            }
            let strict = dpack_core::schedulers::DpfStrict.schedule(&state);
            let par = ParallelDpf::strict(2).schedule(&state);
            assert_eq!(par.scheduled, strict.scheduled);
        }
    }

    #[test]
    fn parallel_best_alphas_match_sequential() {
        let state = dpack_core::scenarios::fig3_state();
        let d = DPack::default();
        let par = ParallelDPack::new(d, 3).parallel_best_alphas(&state);
        assert_eq!(par, d.best_alphas(&state));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ParallelDpf::new(0);
    }

    #[test]
    fn empty_state_is_handled() {
        let grid = dp_accounting::AlphaGrid::single(2.0).unwrap();
        let state = dpack_core::problem::ProblemState::new(grid, vec![], vec![]).unwrap();
        let a = ParallelDPack::new(DPack::default(), 2).schedule(&state);
        assert!(a.scheduled.is_empty());
        let a = ParallelDpf::new(2).schedule(&state);
        assert!(a.scheduled.is_empty());
    }
}
