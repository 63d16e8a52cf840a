//! DPack with a thread count.
//!
//! The paper's Go implementation parallelizes DPack's best-alpha
//! knapsacks (§6.4: "the DPack (and DPF) algorithms are parallelized").
//! This wrapper gives [`DPack::schedule_threaded`] a fixed thread count
//! behind the [`Scheduler`] trait. Ordering and packing stay
//! sequential, so the decisions are those of the single-threaded
//! scheduler. DPF's threaded kernel is [`dpf_schedule`] itself.
//!
//! [`dpf_schedule`]: crate::schedulers::dpf_schedule

use crate::problem::{Allocation, ProblemState};
use crate::schedulers::{DPack, Scheduler};

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
        assert!(threads >= 1, "need at least one worker thread");
        Self { inner, threads }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PackingRule;
    use crate::schedulers::{dpf_schedule, Dpf, DpfStrict};

    #[test]
    fn parallel_dpack_is_decision_identical() {
        for state in [
            crate::scenarios::fig1_state(),
            crate::scenarios::fig3_state(),
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
            crate::scenarios::fig1_state(),
            crate::scenarios::fig3_state(),
        ] {
            let seq = Dpf.schedule(&state);
            for threads in [1, 3, 8] {
                let par = dpf_schedule(&state, PackingRule::Skip, threads);
                assert_eq!(par.scheduled, seq.scheduled, "threads={threads}");
            }
            let strict = DpfStrict.schedule(&state);
            let par = dpf_schedule(&state, PackingRule::Stop, 2);
            assert_eq!(par.scheduled, strict.scheduled);
        }
    }

    #[test]
    fn parallel_best_alphas_match_sequential() {
        let state = crate::scenarios::fig3_state();
        let d = DPack::default();
        assert_eq!(d.best_alphas_threaded(&state, 3), d.best_alphas(&state));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ParallelDPack::new(DPack::default(), 0);
    }

    #[test]
    fn empty_state_is_handled() {
        let grid = dp_accounting::AlphaGrid::single(2.0).unwrap();
        let state = ProblemState::new(grid, vec![], vec![]).unwrap();
        let a = ParallelDPack::new(DPack::default(), 2).schedule(&state);
        assert!(a.scheduled.is_empty());
        let a = dpf_schedule(&state, PackingRule::Skip, 2);
        assert!(a.scheduled.is_empty());
    }
}
