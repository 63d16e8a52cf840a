//! The closed loops that load a service: `WINDOW` tasks in flight, each
//! of 256 tenants waiting for its final decision before sending the
//! next task. No loop is paced by a timer: in process the load thread
//! calls `run_cycle` itself; over a socket the service's own cycle
//! thread spins at 50 µs.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpack_core::problem::Task;
use dpack_net::{NetClient, Outcome};
use dpack_service::{BudgetService, CycleStats, Decision, SubmissionTicket, TenantId};

use crate::harness::{mean, nanos, percentile, Bench, Slice, WINDOW};
use crate::trace::{open, Tracer};

/// Interval of `ServiceHandle::spawn` in the socket workloads: short
/// enough that the cycle thread, not its sleep, bounds the loop.
pub const CYCLE_INTERVAL: Duration = Duration::from_micros(50);

/// Decisions per slice: a timed phase is cut into slices of this much
/// work — 10 to 35 ms at the rates the workloads run at, short enough
/// that some repetition of each slice falls inside a quiet spell of
/// the box.
pub const SLICE: usize = 2_048;

/// Cycles without a single decision after which in-flight tasks count
/// as lost.
const STALL_CYCLES: u32 = 64;

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub wall_s: f64,
    pub submitted: u64,
    pub granted: u64,
    /// Block charges the granted tasks made (a task charges each block
    /// it requests once).
    pub charges: u64,
    pub evicted: u64,
    /// Admission/transport errors plus decisions that never arrived.
    pub failed: u64,
    pub latency_ms: Vec<f64>,
    pub slices: Vec<Slice>,
    /// Where the open slice starts: index into `latency_ms`, and time.
    slice_from: usize,
    slice_started: Option<Instant>,
    pub cycles: Vec<CycleStats>,
    pub cycle_ns: Vec<f64>,
    /// Seconds spent inside `run_cycle` during the phase.
    pub cycle_busy_s: f64,
}

impl LoopStats {
    pub fn decisions(&self) -> u64 {
        self.granted + self.evicted
    }

    /// Counts the decision of one `n_blocks`-block task submitted at
    /// `sent`.
    pub fn decided(&mut self, granted: bool, sent: Instant, n_blocks: usize) {
        if granted {
            self.granted += 1;
            self.charges += n_blocks as u64;
        } else {
            self.evicted += 1;
        }
        self.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    }

    /// Closes the open slice if it holds `at_least` decisions (and at
    /// least one).
    pub fn cut_slice(&mut self, at_least: usize) {
        let n = self.latency_ms.len() - self.slice_from;
        let Some(started) = self.slice_started else {
            return;
        };
        if n >= at_least.max(1) {
            let now = Instant::now();
            self.slices.push(Slice {
                decisions: n as u64,
                seconds: now.duration_since(started).as_secs_f64(),
                p50_ms: percentile(&self.latency_ms[self.slice_from..], 0.5),
            });
            self.slice_from = self.latency_ms.len();
            self.slice_started = Some(now);
        }
    }

    /// Starts the phase's clock and its first slice.
    pub fn start(&mut self) -> Instant {
        let now = Instant::now();
        self.slice_started = Some(now);
        now
    }

    /// Stops the phase's clock and closes the last slice.
    pub fn finish(&mut self, started: Instant) {
        self.cut_slice(1);
        self.wall_s = started.elapsed().as_secs_f64();
        self.cycle_busy_s = self.cycle_ns.iter().sum::<f64>() / 1e9;
    }

    /// Posts the round's slices, end-to-end samples and operation
    /// counts.
    pub fn report(&self, bench: &mut Bench) {
        bench.slices(&self.slices);
        bench.sample("client.decision_p99_ms", percentile(&self.latency_ms, 0.99));
        bench.sample("allocated_tasks", self.granted as f64);
        bench.sample(
            "service.grant_ratio",
            self.granted as f64 / self.submitted.max(1) as f64,
        );
        bench.count(self.submitted, self.failed);
        bench.check(self.decisions() + self.failed == self.submitted, || {
            format!(
                "{} decisions + {} failures for {} submissions",
                self.decisions(),
                self.failed,
                self.submitted
            )
        });
    }

    /// Posts the service-layer samples derived from the cycles this
    /// phase ran.
    pub fn report_cycles(&self, bench: &mut Bench) {
        if self.cycles.is_empty() {
            return;
        }
        let cycle_ms: Vec<f64> = self.cycle_ns.iter().map(|ns| ns / 1e6).collect();
        bench.sample("service.cycle_ms_p50", percentile(&cycle_ms, 0.5));
        bench.sample("service.cycle_ms_p99", percentile(&cycle_ms, 0.99));
        bench.sample("service.cycle_busy_share", self.cycle_busy_s / self.wall_s);
        let busy: Vec<&CycleStats> = self.cycles.iter().filter(|c| c.ingested > 0).collect();
        bench.sample(
            "service.tasks_per_cycle_mean",
            busy.iter().map(|c| c.ingested as f64).sum::<f64>() / busy.len().max(1) as f64,
        );
        let pending: Vec<f64> = self.cycles.iter().map(|c| c.pending_after as f64).collect();
        bench.sample("service.pending_mean", mean(&pending));
    }
}

fn tenant_of(task: &Task) -> TenantId {
    (task.id % WINDOW as u64) as TenantId
}

/// A ticket in flight: when its task was submitted and how many blocks
/// the task asks for.
pub type InFlight = (SubmissionTicket, Instant, usize);

impl LoopStats {
    /// Submits one task and puts its ticket in `window`.
    pub fn submit(
        &mut self,
        service: &BudgetService,
        task: Task,
        window: &mut Vec<InFlight>,
        tracer: Option<&Arc<Tracer>>,
    ) {
        let (id, tenant, n_blocks) = (task.id, tenant_of(&task), task.blocks.len());
        let sent = Instant::now();
        let span = open(tracer, "service.submit", id);
        let ticket = service.submit_async(tenant, task);
        drop(span);
        self.submitted += 1;
        match ticket {
            Ok(ticket) => window.push((ticket, sent, n_blocks)),
            Err(_) => self.failed += 1,
        }
    }

    /// Runs one scheduling cycle at virtual time `now`.
    pub fn run_cycle(&mut self, service: &BudgetService, now: f64, tracer: Option<&Arc<Tracer>>) {
        let cycle = self.cycles.len() as u64 + 1;
        let span = open(tracer, "service.run_cycle", cycle);
        let started = Instant::now();
        let report = service.run_cycle(now);
        self.cycle_ns.push(nanos(started.elapsed()));
        if let (Some(tracer), Some(span)) = (tracer, &span) {
            // The scheduler's share of the cycle, as the service
            // reports it (summed over its worker threads).
            tracer.reported_child(
                "core.scheduler",
                cycle,
                span,
                report.algorithm.as_nanos() as u64,
            );
        }
        drop(span);
        self.cycles.push(report);
    }

    /// Counts every ticket of `window` that the last cycle resolved and
    /// takes it out.
    pub fn collect(&mut self, window: &mut Vec<InFlight>, tracer: Option<&Arc<Tracer>>) {
        let span = open(tracer, "service.ticket_wait", self.cycles.len() as u64);
        window.retain(|(ticket, sent, n_blocks)| match ticket.try_decision() {
            Some(decision) => {
                self.decided(
                    matches!(decision, Decision::Granted { .. }),
                    *sent,
                    *n_blocks,
                );
                false
            }
            None => true,
        });
        drop(span);
    }
}

/// Drives `tasks` through an in-process service: fill the window with
/// `submit_async`, run one cycle, collect the resolved tickets, repeat.
/// Tasks a cycle leaves pending stay in the window.
pub fn in_process(
    service: &BudgetService,
    tasks: Vec<Task>,
    tracer: Option<&Arc<Tracer>>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut window: Vec<InFlight> = Vec::with_capacity(WINDOW);
    let mut tasks = tasks.into_iter();
    let mut stalled = 0u32;
    let started = stats.start();
    loop {
        while window.len() < WINDOW {
            let Some(task) = tasks.next() else { break };
            stats.submit(service, task, &mut window, tracer);
        }
        if window.is_empty() {
            break;
        }
        stats.run_cycle(service, stats.cycles.len() as f64 + 1.0, tracer);
        let before = window.len();
        stats.collect(&mut window, tracer);
        stats.cut_slice(SLICE);
        stalled = if window.len() < before {
            0
        } else {
            stalled + 1
        };
        if stalled >= STALL_CYCLES {
            stats.failed += window.len() as u64;
            break;
        }
    }
    stats.finish(started);
    stats
}

/// Drives `tasks` through one pipelining client: `submit_nowait` until
/// the window is full, then redeem the oldest handle before each new
/// send. The service's own cycle thread decides.
pub fn over_socket(
    client: &mut NetClient,
    tasks: &[Task],
    tracer: Option<&Arc<Tracer>>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut window = VecDeque::with_capacity(WINDOW);
    let started = stats.start();
    let redeem = |client: &mut NetClient, stats: &mut LoopStats, (handle, sent, id, n_blocks)| {
        let span = open(tracer, "net.wait_decision", id);
        let outcome = client.wait_decision(handle);
        drop(span);
        match outcome {
            Ok(Outcome::Granted { .. }) => stats.decided(true, sent, n_blocks),
            Ok(Outcome::Evicted) => stats.decided(false, sent, n_blocks),
            Ok(Outcome::Rejected { .. }) | Err(_) => stats.failed += 1,
        }
        stats.cut_slice(SLICE);
    };
    for task in tasks {
        if window.len() >= WINDOW {
            let oldest = window.pop_front().expect("window is full");
            redeem(client, &mut stats, oldest);
        }
        let sent = Instant::now();
        let span = open(tracer, "net.submit_nowait", task.id);
        let handle = client.submit_nowait(tenant_of(task), task);
        drop(span);
        stats.submitted += 1;
        match handle {
            Ok(handle) => window.push_back((handle, sent, task.id, task.blocks.len())),
            Err(_) => stats.failed += 1,
        }
    }
    for entry in window {
        redeem(client, &mut stats, entry);
    }
    stats.finish(started);
    stats
}

/// Posts the median durations of the spans the load thread opened
/// around its own calls into an in-process service.
pub fn report_load_spans(bench: &mut Bench, tracer: &Tracer) {
    for (metric, span, per_ns) in [
        ("service.submit_ns", "service.submit", 1.0),
        ("service.ticket_wait_ns", "service.ticket_wait", 1.0),
        ("service.register_block_us", "service.register_block", 1e-3),
    ] {
        let durations = tracer.durations(span);
        if !durations.is_empty() {
            bench.once(metric, percentile(&durations, 0.5) * per_ns);
        }
    }
}

/// Output checks every service workload shares: no block overdrawn
/// (Prop. 6) and the ledger's charge count equal to what the granted
/// decisions the clients received add up to.
pub fn check_ledger(bench: &mut Bench, service: &BudgetService, stats: &LoopStats) {
    let unsound = service.ledger().unsound_blocks();
    bench.check(unsound.is_empty(), || {
        format!("blocks overdrawn (Prop. 6 violated): {unsound:?}")
    });
    let in_ledger = service.ledger().granted_count();
    bench.check(in_ledger == stats.charges, || {
        format!(
            "ledger holds {in_ledger} charges, granted decisions add up to {}",
            stats.charges
        )
    });
}
