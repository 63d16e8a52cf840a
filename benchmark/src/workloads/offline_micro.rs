//! `offline_micro` — paper §6.2 microbenchmark: repeated DPack passes
//! over one offline instance. The scheduler kernel does all the work.

use std::collections::BTreeMap;
use std::hint::black_box;

use dpack_core::problem::{ProblemState, TaskId};
use dpack_core::schedulers::{DPack, Scheduler};

use crate::harness::{timed, Bench, Slice};
use crate::trace::open;
use crate::{inputs, probes};

/// DPack passes per round.
const PASSES: usize = 5;

pub fn run(bench: &mut Bench) {
    let mut last_state = None;
    while bench.next_round().is_some() {
        let tracer = bench.tracer().cloned();
        let tracer = tracer.as_ref();
        let _round = open(tracer, "bench.round", 0);

        let span = open(tracer, "workloads.generate", 0);
        let (setup_s, state) = timed(|| inputs::micro(bench.seed, bench.smoke));
        drop(span);
        bench.sample("setup_s", setup_s);
        bench.sample("workloads.generate_s", setup_s);

        let n_tasks = state.tasks().len();
        let mut scheduled: Option<Vec<TaskId>> = None;
        let mut passes = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            let span = open(tracer, "core.dpack_schedule", pass as u64);
            let (s, allocation) = timed(|| DPack::default().schedule(black_box(&state)));
            drop(span);
            // Every task of the instance gets its decision when the
            // pass returns, so a pass is one slice: its time is both
            // the throughput and the latency.
            passes.push(Slice {
                decisions: n_tasks as u64,
                seconds: s,
                p50_ms: s * 1e3,
            });
            bench.sample("client.decision_p99_ms", s * 1e3);
            if let Some(first) = &scheduled {
                bench.check(*first == allocation.scheduled, || {
                    "two DPack passes over one instance allocated different tasks".into()
                });
            }
            scheduled = Some(allocation.scheduled);
        }
        let scheduled = scheduled.unwrap_or_default();
        bench.slices(&passes);
        bench.sample("allocated_tasks", scheduled.len() as f64);
        bench.count((n_tasks * PASSES) as u64, 0);
        let overdrawn = overdrawn_blocks(&state, &scheduled);
        bench.check(overdrawn.is_empty(), || {
            format!("DPack overdrew blocks {overdrawn:?} (Prop. 6 violated)")
        });
        last_state = Some(state);
    }
    bench.check_exact("allocated_tasks");

    if let (true, Some(state)) = (bench.is_traced(), last_state) {
        let (by_dpack, by_dpf) = probes::core(bench, &state);
        bench.once(
            "paper.allocated_vs_dpf",
            by_dpack as f64 / by_dpf.max(1) as f64,
        );
        probes::optimal(bench, &inputs::micro_sub(bench.seed));
        let capacity = state.blocks().values().next().cloned();
        if let Some(capacity) = capacity {
            probes::accounting(bench, &capacity, state.tasks());
        }
    }
}

/// Blocks on which the scheduled tasks' summed demand exceeds capacity
/// at every order — an independent fold of the allocation, the offline
/// form of the ledger's `unsound_blocks`.
fn overdrawn_blocks(state: &ProblemState, scheduled: &[TaskId]) -> Vec<u64> {
    let by_id: BTreeMap<TaskId, usize> = state
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id, i))
        .collect();
    let n_orders = state.grid().len();
    let mut used: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for id in scheduled {
        let task = &state.tasks()[by_id[id]];
        for b in &task.blocks {
            let sum = used.entry(*b).or_insert_with(|| vec![0.0; n_orders]);
            for (a, s) in sum.iter_mut().enumerate() {
                *s += task.demand.epsilon(a);
            }
        }
    }
    used.into_iter()
        .filter(|(b, sum)| {
            let cap = &state.blocks()[b];
            !(0..n_orders).any(|a| dp_accounting::fits(sum[a], cap.epsilon(a)))
        })
        .map(|(b, _)| b)
        .collect()
}
