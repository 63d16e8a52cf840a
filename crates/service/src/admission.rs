//! The admission vocabulary: what a queued task carries
//! ([`Submission`]) and why a submission was refused
//! ([`AdmissionError`]).
//!
//! The gates themselves live in [`crate::BudgetService::submit`]:
//! validation (block existence, grid match, well-formed
//! demand/weight/blocks) reads the ledger first, then one hold of the
//! service's books lock checks the id is not live, the per-tenant
//! quota — which caps a tenant's *live* tasks, queued or pending, so
//! one noisy tenant cannot monopolize the batch or grow the pending set
//! without bound ("private workloads from many users" is the
//! multi-tenant setting of PrivateKube §3) — and the queue bound, which
//! pushes back on producers with [`AdmissionError::QueueFull`] instead
//! of growing without limit. The scheduling loop drains the queue in
//! FIFO order once per cycle, and everything it drains is well-formed
//! by construction.

use dpack_core::problem::{BlockId, Task, TaskId};
use dpack_obs::TraceContext;

/// Tenant identifier (an account/user of the multi-tenant service).
pub type TenantId = u32;

/// A queued task and what rides with it to the pending set. Its tenant
/// is in the service's live-task table.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The task requesting budget.
    pub task: Task,
    /// Telemetry-clock admission stamp (nanos), carried beside the
    /// task through the pending set so closing the
    /// `dpack_grant_latency_nanos` span at grant time costs no lookup.
    /// Meaningful only while observability is live; 0 otherwise.
    pub admitted_nanos: u64,
    /// Distributed-trace context, if the submitter asked for this
    /// grant to be traced. Rides the same path as `admitted_nanos`:
    /// no side table, no lookup at grant time.
    pub trace: Option<TraceContext>,
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The queue is at capacity — backpressure; retry after a cycle.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The tenant already has its maximum number of live (queued or
    /// pending) tasks.
    QuotaExceeded {
        /// The offending tenant.
        tenant: TenantId,
        /// The per-tenant live-task cap.
        quota: usize,
    },
    /// The task references a block the ledger has never seen.
    UnknownBlock {
        /// The submitted task.
        task: TaskId,
        /// The unknown block.
        block: BlockId,
    },
    /// The task's demand curve is on a different alpha grid than the
    /// ledger.
    GridMismatch {
        /// The submitted task.
        task: TaskId,
    },
    /// The task is malformed: it has a `Task::defect`.
    InvalidTask {
        /// The submitted task.
        task: TaskId,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A task with this id is already queued or pending. Ids are the
    /// commit keys, so a collision (even across tenants) would
    /// double-charge one task and silently drop the other.
    DuplicateTask {
        /// The already-live task id.
        task: TaskId,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            Self::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant} exceeded its live-task quota ({quota})")
            }
            Self::UnknownBlock { task, block } => {
                write!(f, "task {task} requests unknown block {block}")
            }
            Self::GridMismatch { task } => {
                write!(f, "task {task} is on a different alpha grid")
            }
            Self::InvalidTask { task, reason } => {
                write!(f, "task {task} is malformed: {reason}")
            }
            Self::DuplicateTask { task } => {
                write!(f, "task id {task} is already queued or pending")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BudgetService, ServiceConfig};
    use dp_accounting::{AlphaGrid, RdpCurve};
    use dpack_core::problem::Block;

    /// A single-shard service with one roomy block, immediate unlock
    /// and the given queue bound and ingest batch.
    fn service(queue_capacity: usize, ingest_batch: usize) -> BudgetService {
        let g = AlphaGrid::single(2.0).unwrap();
        let service = BudgetService::new(
            g.clone(),
            ServiceConfig {
                unlock_steps: 1,
                queue_capacity,
                ingest_batch,
                ..ServiceConfig::sequential()
            },
        );
        let block = Block::new(0, RdpCurve::constant(&g, 1_000.0), 0.0);
        service.register_block(block).unwrap();
        service
    }

    fn task(id: TaskId) -> Task {
        let g = AlphaGrid::single(2.0).unwrap();
        Task::new(id, 1.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0)
    }

    #[test]
    fn fifo_order_is_preserved() {
        // One task ingested per cycle, each granted the cycle it lands
        // in: the grant order is the queue's drain order.
        let service = service(16, 1);
        for i in 0..5 {
            service.submit(0, task(i)).unwrap();
        }
        for now in 1..=5 {
            assert_eq!(service.run_cycle(f64::from(now)).ingested, 1);
        }
        let ids: Vec<TaskId> = service.stats().granted.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn capacity_bound_applies_backpressure() {
        let service = service(2, 1);
        service.submit(0, task(0)).unwrap();
        service.submit(1, task(1)).unwrap();
        assert_eq!(
            service.submit(2, task(2)),
            Err(AdmissionError::QueueFull { capacity: 2 })
        );
        // Draining frees space again.
        assert_eq!(service.run_cycle(1.0).ingested, 1);
        service.submit(2, task(2)).unwrap();
        assert_eq!(service.queue_depth(), 2);
    }

    #[test]
    fn partial_drain_respects_max() {
        let service = service(16, 4);
        for i in 0..6 {
            service.submit(0, task(i)).unwrap();
        }
        let cycle = service.run_cycle(1.0);
        assert_eq!(cycle.ingested, 4);
        assert_eq!(cycle.queue_depth, 2);
        assert_eq!(service.queue_depth(), 2);
    }

    #[test]
    fn errors_render_messages() {
        let e = AdmissionError::QueueFull { capacity: 3 };
        assert!(e.to_string().contains("capacity 3"));
        let e = AdmissionError::UnknownBlock { task: 1, block: 9 };
        assert!(e.to_string().contains("unknown block 9"));
        let e = AdmissionError::QuotaExceeded {
            tenant: 7,
            quota: 2,
        };
        assert!(e.to_string().contains("live-task quota"));
        let e = AdmissionError::DuplicateTask { task: 4 };
        assert!(e.to_string().contains("already queued or pending"));
    }
}
