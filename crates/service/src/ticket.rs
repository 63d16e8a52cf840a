//! Completion handles for asynchronous submissions.
//!
//! [`crate::BudgetService::submit`] answers with an *enqueue* ack: the
//! task passed admission and will be considered by future cycles, but
//! the grant/reject decision has not been made. A remote tenant wants
//! the **final decision** — that is what
//! [`crate::BudgetService::submit_async`] provides: it returns a
//! [`SubmissionTicket`] that resolves to a [`Decision`] at the moment
//! the scheduling cycle commits the grant (or evicts the task), so an
//! RPC frontend can park the request and answer with the outcome
//! instead of a mere ack.
//!
//! A ticket's decision is written once with `Release` (the
//! `allocated_at` bits, then a tag word), so a reactor sweep polls
//! [`SubmissionTicket::try_decision`] with one `Acquire` load and no
//! lock. The mutex + condvar only park: [`SubmissionTicket::wait`]
//! counts itself in and out under the mutex, and a resolve notifies
//! (a syscall) only when that count is non-zero. **No wake-up is
//! lost:** a waiter re-reads the tag under the mutex before each park,
//! which releases the mutex atomically, and the resolver stores the tag
//! before it locks. If the resolver locks first, its unlock publishes
//! the tag to the waiter's read; if not, it locks only once the waiter
//! is parked, so it sees the count and wakes the waiter.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dpack_core::problem::TaskId;

/// The final outcome of an admitted submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// A scheduling cycle committed the grant.
    Granted {
        /// Virtual time of the committing cycle.
        allocated_at: f64,
    },
    /// The task timed out and was evicted from the pending set without
    /// ever being granted.
    Evicted,
}

const PENDING: u8 = 0;
const GRANTED: u8 = 1;
const EVICTED: u8 = 2;

/// The shared cell a ticket and the scheduling loop both hold. The
/// service keeps its side in its live-task table until the task
/// resolves, so a dropped ticket (a disconnected tenant) costs one
/// table entry for the task's live lifetime and nothing after.
#[derive(Debug, Default)]
pub(crate) struct TicketCell {
    tag: AtomicU8,
    /// Published by the `Release` store of `tag`.
    allocated_at: AtomicU64,
    /// Threads parked or about to park on `cond`.
    waiters: Mutex<usize>,
    cond: Condvar,
}

impl TicketCell {
    pub(crate) fn resolve(&self, decision: Decision) {
        debug_assert!(self.decision().is_none(), "a ticket resolves exactly once");
        let tag = match decision {
            Decision::Granted { allocated_at } => {
                self.allocated_at.store(allocated_at.to_bits(), Relaxed);
                GRANTED
            }
            Decision::Evicted => EVICTED,
        };
        self.tag.store(tag, Release);
        if *self.lock() > 0 {
            self.cond.notify_all();
        }
    }

    fn decision(&self) -> Option<Decision> {
        match self.tag.load(Acquire) {
            PENDING => None,
            GRANTED => Some(Decision::Granted {
                allocated_at: f64::from_bits(self.allocated_at.load(Relaxed)),
            }),
            _ => Some(Decision::Evicted),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.waiters.lock().expect("ticket lock poisoned")
    }

    /// Parks until decided; `None` if `timeout` passes first.
    fn park(&self, timeout: Duration) -> Option<Decision> {
        let mut waiters = self.lock();
        *waiters += 1;
        let pending = |_: &mut usize| self.decision().is_none();
        (waiters, _) = self
            .cond
            .wait_timeout_while(waiters, timeout, pending)
            .expect("ticket lock poisoned");
        *waiters -= 1;
        self.decision()
    }
}

/// A completion handle for one asynchronously submitted task: resolves
/// exactly once, when a scheduling cycle decides the task's fate.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same
/// resolution.
#[derive(Debug, Clone)]
pub struct SubmissionTicket {
    task: TaskId,
    pub(crate) inner: Arc<TicketCell>,
}

impl SubmissionTicket {
    pub(crate) fn new(task: TaskId, inner: Arc<TicketCell>) -> Self {
        Self { task, inner }
    }

    /// The submitted task's id.
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// The decision, if a cycle has made one — never blocks and takes
    /// no lock, so a reactor can poll many tickets per sweep.
    pub fn try_decision(&self) -> Option<Decision> {
        self.inner.decision()
    }

    /// Whether the ticket has resolved.
    pub fn is_resolved(&self) -> bool {
        self.try_decision().is_some()
    }

    /// Parks until the decision is made. The caller must ensure cycles
    /// are running (a background [`crate::ServiceHandle`] or another
    /// thread driving [`crate::BudgetService::run_cycle`]); a pending
    /// task with no timeout may otherwise never resolve.
    pub fn wait(&self) -> Decision {
        self.inner.park(Duration::MAX).expect("no deadline to pass")
    }

    /// [`SubmissionTicket::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Decision> {
        self.inner.park(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn tickets_resolve_across_threads() {
        let cell = Arc::new(TicketCell::default());
        let ticket = SubmissionTicket::new(7, Arc::clone(&cell));
        assert_eq!(ticket.task_id(), 7);
        assert!(!ticket.is_resolved());
        assert_eq!(ticket.try_decision(), None);
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        let waiter = ticket.clone();
        std::thread::scope(|s| {
            let h = s.spawn(move || waiter.wait());
            std::thread::sleep(Duration::from_millis(10));
            cell.resolve(Decision::Granted { allocated_at: 3.0 });
            assert_eq!(
                h.join().expect("waiter"),
                Decision::Granted { allocated_at: 3.0 }
            );
        });
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)),
            Some(Decision::Granted { allocated_at: 3.0 })
        );
        assert_eq!(ticket.wait(), Decision::Granted { allocated_at: 3.0 });
    }

    /// A decision as bits: `Decision`'s `PartialEq` calls `-0.0` and
    /// `0.0` equal and a NaN unequal to itself.
    fn bits(decision: Decision) -> Option<u64> {
        match decision {
            Decision::Granted { allocated_at } => Some(allocated_at.to_bits()),
            Decision::Evicted => None,
        }
    }

    #[test]
    fn a_timed_out_waiter_counts_itself_out() {
        let cell = Arc::new(TicketCell::default());
        let ticket = SubmissionTicket::new(1, Arc::clone(&cell));
        assert_eq!(ticket.wait_timeout(Duration::from_millis(2)), None);
        assert_eq!(*cell.lock(), 0);
        cell.resolve(Decision::Granted { allocated_at: -0.0 });
        assert_eq!(
            ticket.try_decision().map(bits),
            Some(Some((-0.0f64).to_bits()))
        );
        assert_eq!(*cell.lock(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a ticket resolves exactly once")]
    fn a_second_resolve_fires_the_debug_assert() {
        let cell = TicketCell::default();
        cell.resolve(Decision::Evicted);
        cell.resolve(Decision::Evicted);
    }

    /// Cells each with parked waiters, short-timeout waiters and pollers
    /// on several threads, racing one resolver that decides them in a
    /// drawn order. Every reader sees exactly its cell's decision, to
    /// the bit, and every cell ends with no waiter counted in.
    /// `scripts/ci.sh` runs this in release, 20 times over.
    #[test]
    fn race_waiters_timeouts_and_pollers_against_one_resolver() {
        const CELLS: usize = 48;
        let decision = |i: usize| match i % 4 {
            0 => Decision::Evicted,
            1 => Decision::Granted { allocated_at: -0.0 },
            2 => Decision::Granted {
                allocated_at: f64::from_bits(0x7ff8_0000_dead_beef),
            },
            _ => Decision::Granted {
                allocated_at: i as f64 * 0.1 + 1e-300,
            },
        };
        let cells: Vec<Arc<TicketCell>> = (0..CELLS).map(|_| Arc::default()).collect();
        let tickets: Vec<SubmissionTicket> = (0..CELLS)
            .map(|i| SubmissionTicket::new(i as TaskId, Arc::clone(&cells[i])))
            .collect();
        let mut order: Vec<usize> = (0..CELLS).collect();
        let mut rng = StdRng::seed_from_u64(0x71c4e7);
        for i in (1..CELLS).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let check = |i: usize, got: Decision| {
            assert_eq!(bits(got), bits(decision(i)), "cell {i}");
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for (i, t) in tickets.iter().enumerate() {
                        check(i, t.wait());
                    }
                });
                s.spawn(|| {
                    for (i, t) in tickets.iter().enumerate().rev() {
                        let got = loop {
                            if let Some(got) = t.wait_timeout(Duration::from_micros(30)) {
                                break got;
                            }
                        };
                        check(i, got);
                    }
                });
                s.spawn(|| {
                    let mut left: Vec<usize> = (0..CELLS).collect();
                    while !left.is_empty() {
                        left.retain(|&i| match tickets[i].try_decision() {
                            Some(got) => {
                                check(i, got);
                                false
                            }
                            None => true,
                        });
                        std::thread::yield_now();
                    }
                });
            }
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(1));
                for &i in &order {
                    cells[i].resolve(decision(i));
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
        });
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(*cell.lock(), 0, "cell {i} keeps a waiter counted in");
            check(i, tickets[i].wait());
        }
    }
}
