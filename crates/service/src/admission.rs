//! The admission pipeline: a bounded multi-tenant submission queue.
//!
//! Producers (RPC handlers, load generators, the simulator backend)
//! push [`Submission`]s; the scheduling loop drains them in FIFO order
//! once per cycle. The queue is bounded — a full queue pushes back on
//! producers with [`AdmissionError::QueueFull`] instead of growing
//! without limit.
//!
//! The other two admission gates live in
//! [`crate::BudgetService::submit`], *before* a task is queued, so
//! everything the scheduling loop drains is well-formed by
//! construction: validation (block existence, grid match, well-formed
//! demand/weight/blocks, unique id) and the per-tenant quota, which
//! caps a tenant's *live* tasks — queued or pending — so one noisy
//! tenant cannot monopolize the batch or grow the pending set without
//! bound ("private workloads from many users" is the multi-tenant
//! setting of PrivateKube §3).

use std::collections::VecDeque;
use std::sync::Mutex;

use dpack_core::problem::{BlockId, Task, TaskId};
use dpack_obs::TraceContext;

/// Tenant identifier (an account/user of the multi-tenant service).
pub type TenantId = u32;

/// A task submission tagged with its tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The submitting tenant.
    pub tenant: TenantId,
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
    /// The task is malformed (no blocks, non-positive or non-finite
    /// weight, negative demand).
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

/// The bounded FIFO admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<VecDeque<Submission>>,
    capacity: usize,
}

impl AdmissionQueue {
    /// Creates a queue bounded at `capacity` total submissions
    /// (`usize::MAX` for unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be >= 1");
        Self {
            inner: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Submission>> {
        self.inner.lock().expect("admission queue lock poisoned")
    }

    /// Enqueues a submission, enforcing the capacity bound.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`]; the queue is unchanged on error.
    pub fn push(&self, submission: Submission) -> Result<(), AdmissionError> {
        let mut queue = self.lock();
        if queue.len() >= self.capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        queue.push_back(submission);
        Ok(())
    }

    /// Drains up to `max` submissions in FIFO order.
    pub fn drain(&self, max: usize) -> Vec<Submission> {
        let mut queue = self.lock();
        if max >= queue.len() {
            // Everything goes: swap the deque out and convert it after
            // the lock every submitter pushes under is released.
            let all = std::mem::take(&mut *queue);
            drop(queue);
            return all.into();
        }
        queue.drain(..max).collect()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{AlphaGrid, RdpCurve};

    fn sub(tenant: TenantId, id: TaskId) -> Submission {
        let g = AlphaGrid::single(2.0).unwrap();
        Submission {
            tenant,
            task: Task::new(id, 1.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0),
            admitted_nanos: 0,
            trace: None,
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let q = AdmissionQueue::new(16);
        for i in 0..5 {
            q.push(sub(0, i)).unwrap();
        }
        let ids: Vec<TaskId> = q.drain(usize::MAX).iter().map(|s| s.task.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_bound_applies_backpressure() {
        let q = AdmissionQueue::new(2);
        q.push(sub(0, 0)).unwrap();
        q.push(sub(1, 1)).unwrap();
        assert_eq!(
            q.push(sub(2, 2)),
            Err(AdmissionError::QueueFull { capacity: 2 })
        );
        // Draining frees space again.
        assert_eq!(q.drain(1).len(), 1);
        q.push(sub(2, 2)).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn partial_drain_respects_max() {
        let q = AdmissionQueue::new(16);
        for i in 0..6 {
            q.push(sub(0, i)).unwrap();
        }
        assert_eq!(q.drain(4).len(), 4);
        assert_eq!(q.len(), 2);
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
