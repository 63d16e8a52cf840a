//! Isolated per-layer probes: each times calls into one crate's public
//! functions on inputs taken from the workload that runs it, under a
//! span of its own. They run once per traced run, after the rounds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dp_accounting::{CurveInterner, RdpCurve, RenyiFilter};
use dpack_core::problem::{pack, Block, PackingRule, ProblemState, Task};
use dpack_core::schedulers::{sort_by_efficiency, DPack, Dpf, Optimal, Scheduler};
use dpack_net::wire::{frame_into, FrameDecoder};
use dpack_net::{
    Outcome, Request, RequestFrame, Response, ResponseFrame, ServiceCore, Step, WireTask,
};
use dpack_service::{BudgetService, CommitOutcome, ServiceConfig, ShardedLedger};
use knapsack::privacy::SolveLimits;
use orchestrator::ParallelDPack;

use crate::harness::{median, Bench};
use crate::trace::{open, Tracer};

/// Times `reps` calls of `f` under span `name`; the median in ns.
fn time_ns<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        let span = open(tracer, name, rep as u64);
        let start = Instant::now();
        let out = black_box(f());
        samples.push(start.elapsed().as_nanos() as f64);
        drop(span);
        last = Some(out);
    }
    (median(&samples), last.expect("at least one rep"))
}

/// The scheduler kernel, stage by stage, on one problem state. Returns
/// how many tasks DPack and DPF allocate on it.
pub fn core(bench: &mut Bench, state: &ProblemState) -> (usize, usize) {
    let tracer = bench.probe_tracer().cloned();
    let tracer = tracer.as_ref();
    let n_tasks = state.tasks().len() as f64;
    let n_blocks = state.blocks().len() as f64;
    let dpack = DPack::default();

    // The input clones are the caller's cost, not the build's: they
    // stay outside the span and the clock.
    let mut build_ns = Vec::new();
    for rep in 0..3 {
        let (grid, blocks, tasks) = (
            state.grid().clone(),
            state.blocks().clone(),
            state.tasks().to_vec(),
        );
        let span = open(tracer, "core.problem_build", rep);
        let start = Instant::now();
        black_box(ProblemState::from_available(grid, blocks, tasks).expect("same inputs"));
        build_ns.push(start.elapsed().as_nanos() as f64);
        drop(span);
    }
    bench.once(
        "core.problem_build_ns_per_task",
        median(&build_ns) / n_tasks,
    );

    let (ns, best) = time_ns(tracer, "core.best_alphas", 3, || dpack.best_alphas(state));
    bench.once("core.best_alphas_ns_per_block", ns / n_blocks);
    let (ns, eff) = time_ns(tracer, "core.efficiencies", 5, || {
        dpack.efficiencies(state, &best)
    });
    bench.once("core.efficiencies_ns_per_task", ns / n_tasks);
    let order = sort_by_efficiency(state, &eff);
    let (ns, _) = time_ns(tracer, "core.pack", 3, || {
        pack(state, &order, PackingRule::Skip)
    });
    bench.once("core.pack_ns_per_task", ns / n_tasks);

    let (dpack_ns, by_dpack) = time_ns(tracer, "core.dpack_schedule", 3, || dpack.schedule(state));
    bench.once("core.dpack_schedule_ns_per_task", dpack_ns / n_tasks);
    let (ns, by_dpf) = time_ns(tracer, "core.dpf_schedule", 3, || Dpf.schedule(state));
    bench.once("core.dpf_schedule_ns_per_task", ns / n_tasks);

    let parallel = ParallelDPack::new(dpack, 2);
    let (ns, by_parallel) = time_ns(tracer, "orchestrator.parallel_dpack", 3, || {
        parallel.schedule(state)
    });
    bench.once("orchestrator.parallel_dpack_speedup", dpack_ns / ns);
    bench.check(by_parallel.scheduled == by_dpack.scheduled, || {
        "ParallelDPack and DPack allocate different tasks".into()
    });
    (by_dpack.scheduled.len(), by_dpf.scheduled.len())
}

/// `Optimal` against DPack on a sub-instance small enough to search.
/// The node budget (not a clock) bounds the search, so the count
/// repeats exactly.
pub fn optimal(bench: &mut Bench, sub: &ProblemState) {
    let tracer = bench.probe_tracer().cloned();
    let solver = Optimal {
        limits: SolveLimits {
            node_budget: 200_000,
            time_limit: None,
        },
    };
    let (ns, best) = time_ns(tracer.as_ref(), "knapsack.optimal_solve", 1, || {
        solver.schedule(sub)
    });
    bench.once("knapsack.optimal_solve_ms", ns / 1e6);
    let by_dpack = DPack::default().schedule(sub).scheduled.len();
    bench.check(best.scheduled.len() >= by_dpack, || {
        "Optimal allocated fewer tasks than its DPack warm start".into()
    });
    bench.once(
        "paper.allocated_vs_optimal",
        by_dpack as f64 / best.scheduled.len().max(1) as f64,
    );
}

/// The privacy filter's check-and-charge and the curve interner, on
/// the workload's own demand curves.
pub fn accounting(bench: &mut Bench, capacity: &RdpCurve, tasks: &[Task]) {
    let tracer = bench.probe_tracer().cloned();
    let tasks = &tasks[..tasks.len().min(20_000)];
    // Scaled down so that every demand fits and the loop measures the
    // grant path, not refusals.
    let demands: Vec<RdpCurve> = tasks.iter().map(|t| t.demand.scale(1e-9)).collect();
    let (ns, granted) = time_ns(tracer.as_ref(), "dp-accounting.filter_commit", 3, || {
        let mut filter = RenyiFilter::new(capacity.clone());
        let mut granted = 0usize;
        for d in &demands {
            let fits = filter.check(d).is_ok_and(|decision| decision.granted);
            if fits && filter.try_consume(d).is_ok() {
                granted += 1;
            }
        }
        granted
    });
    bench.check(granted == demands.len(), || {
        format!("filter probe granted {granted} of {}", demands.len())
    });
    bench.once(
        "dp-accounting.filter_commit_ns",
        ns / demands.len().max(1) as f64,
    );
    let (ns, _) = time_ns(tracer.as_ref(), "dp-accounting.curve_intern", 3, || {
        let interner = CurveInterner::new();
        for t in tasks {
            black_box(interner.intern_curve(&t.demand));
        }
        interner.len()
    });
    bench.once(
        "dp-accounting.curve_intern_ns",
        ns / tasks.len().max(1) as f64,
    );
}

/// The striped ledger's batch commits on an in-memory ledger (no WAL):
/// single-shard tasks through `commit_shard_batch`, multi-shard tasks
/// through the two-phase `commit_cross_batch`.
pub fn ledger_commit(bench: &mut Bench, config: &ServiceConfig, blocks: &[Block], tasks: &[Task]) {
    let Some(first) = blocks.first() else { return };
    let tracer = bench.probe_tracer().cloned();
    let tasks = &tasks[..tasks.len().min(20_000)];
    let ledger = ShardedLedger::new(
        first.capacity.grid().clone(),
        config.shards,
        config.unlock_period,
        1,
    );
    for b in blocks {
        // Every task must commit, so the probe measures charging, not
        // refusals: give each block room for the whole workload.
        let roomy = b.capacity.scale(tasks.len() as f64);
        ledger
            .register_block(Block::new(b.id, roomy, 0.0))
            .expect("unique blocks");
    }
    let mut local: Vec<Vec<&Task>> = vec![Vec::new(); config.shards];
    let mut cross: Vec<&Task> = Vec::new();
    for t in tasks {
        let shard = ledger.shard_of(t.blocks[0]);
        if t.blocks.iter().all(|b| ledger.shard_of(*b) == shard) {
            local[shard].push(t);
        } else {
            cross.push(t);
        }
    }
    bench.once(
        "service.cross_task_share",
        cross.len() as f64 / tasks.len().max(1) as f64,
    );
    let n_local: usize = local.iter().map(Vec::len).sum();
    if n_local > 0 {
        let span = open(tracer.as_ref(), "service.commit_shard_batch", 0);
        let start = Instant::now();
        let committed: usize = local
            .iter()
            .enumerate()
            .flat_map(|(shard, batch)| ledger.commit_shard_batch(shard, batch))
            .filter(|o| *o == CommitOutcome::Committed)
            .count();
        let ns = start.elapsed().as_nanos() as f64;
        drop(span);
        bench.check(committed == n_local, || {
            format!("commit_shard_batch committed {committed} of {n_local}")
        });
        bench.once("service.commit_batch_ns_per_task", ns / n_local as f64);
    }
    if !cross.is_empty() {
        let span = open(tracer.as_ref(), "service.commit_cross_batch", 0);
        let start = Instant::now();
        let committed = cross
            .chunks(crate::harness::WINDOW)
            .flat_map(|batch| ledger.commit_cross_batch(batch))
            .filter(|o| *o == CommitOutcome::Committed)
            .count();
        let ns = start.elapsed().as_nanos() as f64;
        drop(span);
        bench.check(committed == cross.len(), || {
            format!(
                "commit_cross_batch committed {committed} of {}",
                cross.len()
            )
        });
        bench.once("service.commit_cross_ns_per_task", ns / cross.len() as f64);
    }
    bench.check(ledger.unsound_blocks().is_empty(), || {
        "ledger probe overdrew a block".into()
    });
}

/// One shard snapshot of a live service, per call, recomputed (the
/// cached path would return a clone after the first call).
pub fn snapshot(bench: &mut Bench, service: &BudgetService, now: f64) {
    let tracer = bench.probe_tracer().cloned();
    let shards = service.ledger().n_shards();
    let (ns, _) = time_ns(tracer.as_ref(), "service.snapshot_shard", 5, || {
        (0..shards)
            .map(|s| service.ledger().snapshot_shard_uncached(s, now).len())
            .sum::<usize>()
    });
    bench.once("service.snapshot_shard_us", ns / shards as f64 / 1e3);
}

/// The wire codec and the server core, with no socket: request and
/// response frames for the workload's own tasks, the frame envelope,
/// and `ServiceCore::handle` against an in-process service.
pub fn wire(bench: &mut Bench, service: Arc<BudgetService>, tasks: &[Task]) {
    let tracer = bench.probe_tracer().cloned();
    let tracer = tracer.as_ref();
    let tasks = &tasks[..tasks.len().min(20_000)];
    let n = tasks.len().max(1) as f64;
    let requests: Vec<RequestFrame> = tasks
        .iter()
        .map(|t| RequestFrame {
            id: t.id + 1,
            body: Request::Submit {
                tenant: (t.id % crate::harness::WINDOW as u64) as u32,
                task: WireTask::from_task(t),
                trace: None,
            },
        })
        .collect();
    let (ns, payloads) = time_ns(tracer, "net.encode_request", 3, || {
        requests
            .iter()
            .map(RequestFrame::encode)
            .collect::<Vec<_>>()
    });
    bench.once("net.encode_request_ns", ns / n);
    let (ns, decoded) = time_ns(tracer, "net.decode_request", 3, || {
        payloads
            .iter()
            .filter(|p| RequestFrame::decode(p).is_ok())
            .count()
    });
    bench.check(decoded == payloads.len(), || {
        "a request frame did not decode".into()
    });
    bench.once("net.decode_request_ns", ns / n);

    let responses: Vec<ResponseFrame> = tasks
        .iter()
        .map(|t| ResponseFrame {
            id: t.id + 1,
            body: Response::Decision {
                task: t.id,
                outcome: Outcome::Granted { allocated_at: 1.0 },
            },
        })
        .collect();
    let (ns, replies) = time_ns(tracer, "net.encode_response", 3, || {
        responses
            .iter()
            .map(ResponseFrame::encode)
            .collect::<Vec<_>>()
    });
    bench.once("net.encode_response_ns", ns / n);
    let (ns, decoded) = time_ns(tracer, "net.decode_response", 3, || {
        replies
            .iter()
            .filter(|p| ResponseFrame::decode(p).is_ok())
            .count()
    });
    bench.check(decoded == replies.len(), || {
        "a response frame did not decode".into()
    });
    bench.once("net.decode_response_ns", ns / n);

    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let (ns, frames) = time_ns(tracer, "net.frame_roundtrip", 3, || {
        let mut wire = Vec::with_capacity(payload_bytes + 16 * payloads.len());
        for p in &payloads {
            frame_into(&mut wire, p);
        }
        let mut decoder = FrameDecoder::new();
        let mut frames = 0usize;
        for chunk in wire.chunks(8192) {
            decoder.extend(chunk);
            while let Ok(Some(frame)) = decoder.next_frame() {
                black_box(frame);
                frames += 1;
            }
        }
        frames
    });
    bench.check(frames == payloads.len(), || {
        format!(
            "frame decoder returned {frames} of {} frames",
            payloads.len()
        )
    });
    bench.once(
        "net.frame_mb_per_s",
        payload_bytes as f64 / 1e6 / (ns / 1e9),
    );

    // ServiceCore::handle = decode + admission; the decisions are
    // collected after a cycle so that no reply is left pending.
    let core = ServiceCore::new(Arc::clone(&service));
    let mut handle_ns = Vec::new();
    let mut answered = 0usize;
    for (cycle, batch) in payloads.chunks(crate::harness::WINDOW).enumerate() {
        let span = open(tracer, "net.core_handle", cycle as u64);
        let start = Instant::now();
        let steps: Vec<Step> = batch.iter().filter_map(|p| core.handle(p).ok()).collect();
        handle_ns.push(start.elapsed().as_nanos() as f64 / batch.len() as f64);
        drop(span);
        service.run_cycle(cycle as f64 + 1.0);
        for step in steps {
            let reply = match step {
                Step::Reply(bytes) => bytes,
                Step::Pending(pending) => pending.wait(),
            };
            let granted = matches!(
                ResponseFrame::decode(&reply),
                Ok(ResponseFrame {
                    body: Response::Decision {
                        outcome: Outcome::Granted { .. },
                        ..
                    },
                    ..
                })
            );
            answered += usize::from(granted);
        }
    }
    bench.check(answered == payloads.len(), || {
        format!(
            "ServiceCore granted {answered} of {} probe tasks",
            payloads.len()
        )
    });
    bench.once("net.core_handle_ns", median(&handle_ns));
}
