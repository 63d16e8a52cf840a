//! Injected service latencies.
//!
//! PrivateKube's scheduler talks to the Kubernetes API server for every
//! list, status update, and budget commit; §6.4 finds those overheads
//! dominate scheduler runtime. This model reproduces that cost profile
//! with explicit sleeps so the orchestrator's measured runtimes have the
//! same *shape* (overhead-dominated, scaling with task count) as Fig. 8.

use std::time::{Duration, Instant};

/// Burns wall-clock time to model a blocking service call.
///
/// Uses a sleep for macroscopic waits and a spin for sub-millisecond
/// ones, so injected latencies are reasonably accurate at both scales.
pub(crate) fn busy_wait(d: Duration) {
    if d == Duration::ZERO {
        return;
    }
    if d >= Duration::from_millis(2) {
        std::thread::sleep(d);
    } else {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
}

/// Per-operation latencies charged by the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Charged once per scheduling cycle (watch/list setup, leader
    /// bookkeeping).
    pub per_cycle: Duration,
    /// Charged per pending task ingested in a cycle (reading task CRDs).
    pub per_task_ingest: Duration,
    /// Charged per granted task (status write + budget commit
    /// round-trip).
    pub per_commit: Duration,
    /// Charged per registered block per cycle (budget snapshot reads).
    pub per_block_read: Duration,
}

impl LatencyModel {
    /// No injected latency — algorithmic timing only.
    pub fn zero() -> Self {
        Self {
            per_cycle: Duration::ZERO,
            per_task_ingest: Duration::ZERO,
            per_commit: Duration::ZERO,
            per_block_read: Duration::ZERO,
        }
    }

    /// A profile calibrated so that, at the paper's scale (thousands of
    /// tasks, tens of blocks), injected service time dominates
    /// algorithmic time — the Fig. 8(a) regime.
    pub fn kubernetes_like() -> Self {
        Self {
            per_cycle: Duration::from_millis(30),
            per_task_ingest: Duration::from_micros(900),
            per_commit: Duration::from_micros(1800),
            per_block_read: Duration::from_micros(500),
        }
    }

    /// Total injected latency for a cycle with the given shape (useful
    /// for tests and for reporting overhead vs. algorithm splits).
    pub fn cycle_cost(&self, ingested: usize, committed: usize, blocks: usize) -> Duration {
        self.per_cycle
            + self.per_task_ingest * ingested as u32
            + self.per_commit * committed as u32
            + self.per_block_read * blocks as u32
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::kubernetes_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_costs_nothing() {
        let m = LatencyModel::zero();
        assert_eq!(m.cycle_cost(1000, 100, 50), Duration::ZERO);
    }

    #[test]
    fn cost_scales_with_shape() {
        let m = LatencyModel::kubernetes_like();
        let small = m.cycle_cost(100, 10, 10);
        let big = m.cycle_cost(1000, 100, 10);
        assert!(big > small);
        // Ingest dominates at high task counts.
        assert!(m.cycle_cost(10_000, 0, 0) > m.cycle_cost(0, 0, 100));
    }
}
