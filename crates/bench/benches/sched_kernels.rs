//! Micro-benches for the scheduling kernels: one full `schedule()`
//! pass per scheduler at two load levels (the Fig. 5 regime, without
//! the Optimal solver), then the DPack pass stage by stage — best
//! alphas, efficiencies, order and pack, which sum to `schedule` — on the two
//! instance shapes of the repo's benchmark (`offline_micro`, and one
//! cycle's pending set of `online_alibaba`), so the stage split can be
//! read without the traced benchmark run; and, on the second shape, what
//! it costs to bring the state from one cycle to the next — rebuilt
//! from the pending tasks, or kept and edited. Runs on the vendored
//! `dpack_bench::micro` harness (`--smoke` for the CI rot guard).

use dpack_bench::micro::{Micro, MicroConfig};
use dpack_core::problem::{pack, Block, PackingRule, ProblemState, Task};
use dpack_core::schedulers::{sort_by_efficiency, DPack, Dpf, Fcfs, GreedyArea, Scheduler};
use orchestrator::ParallelDPack;
use workloads::alibaba::{self, AlibabaDpConfig};
use workloads::curves::CurveLibrary;
use workloads::microbenchmark::{generate, MicrobenchmarkConfig};

/// The `offline_micro` instance: 20 000 tasks over 100 blocks.
fn micro_shaped(lib: &CurveLibrary, smoke: bool) -> ProblemState {
    let (n_tasks, n_blocks) = if smoke { (400, 20) } else { (20_000, 100) };
    let cfg = MicrobenchmarkConfig {
        n_tasks,
        n_blocks,
        mu_blocks: 10.0,
        sigma_blocks: 3.0,
        sigma_alpha: 4.0,
        eps_min: 0.01,
        ..Default::default()
    };
    generate(lib, &cfg, 7)
}

/// What one `online_alibaba` cycle sees: ~3 000 pending Alibaba-DP
/// tasks over 45 blocks with a fifth of their budget unlocked. Also
/// returns as many tasks again, over the same blocks, to arrive later.
fn alibaba_shaped(smoke: bool) -> (ProblemState, Vec<Task>) {
    let (n_tasks, n_blocks) = if smoke { (300, 20) } else { (3_000, 45) };
    let config = AlibabaDpConfig {
        n_blocks,
        n_tasks,
        ..Default::default()
    };
    let w = alibaba::generate(&config, 7);
    let blocks = w
        .blocks
        .into_iter()
        .map(|b| Block::new(b.id, b.capacity.scale(0.2), b.arrival))
        .collect();
    let state =
        ProblemState::new(w.grid, blocks, w.tasks).expect("generated instance is well-formed");
    (state, alibaba::generate(&config, 8).tasks)
}

/// One in ten tasks leaves and as many arrive, step after step: the
/// next cycle's state rebuilt from the pending tasks (cloned, as a
/// cycle that keeps them elsewhere must) against the same state kept
/// and edited in place. Both read a fresh copy of the capacities and
/// clone their arrivals.
fn carry_over(m: &mut Micro, shape: &str, state: &ProblemState, arrivals: &[Task]) {
    let churn = state.tasks().len() / 10;
    let keeps = |step: usize, n: usize| (0..n).map(move |i| i % 10 != step % 10);
    let arriving = |step: usize| {
        let from = step * churn % (arrivals.len() - churn + 1);
        arrivals[from..from + churn].iter().cloned()
    };

    let (mut pending, mut step) = (state.tasks().to_vec(), 0);
    m.bench(&format!("{shape}/carry-over/from_available"), || {
        let mut keep = keeps(step, pending.len());
        pending.retain(|_| keep.next().expect("one flag per task"));
        pending.extend(arriving(step));
        step += 1;
        let (grid, available) = (state.grid().clone(), state.blocks().clone());
        ProblemState::from_available(grid, available, pending.clone()).expect("same blocks")
    });

    let (mut kept, mut step) = (state.clone(), 0);
    m.bench(
        &format!("{shape}/carry-over/retain+push+set_available"),
        || {
            let keep: Vec<bool> = keeps(step, kept.tasks().len()).collect();
            kept.retain_tasks(&keep);
            for task in arriving(step) {
                kept.push_task(task).expect("same blocks");
            }
            step += 1;
            kept.set_available(state.blocks().clone())
                .expect("same blocks");
            kept.tasks().len()
        },
    );
}

/// One row per stage of `DPack::schedule` on `state`.
fn stages(m: &mut Micro, shape: &str, state: &ProblemState) {
    let dpack = DPack::default();
    let best = dpack.best_alphas(state);
    let eff = dpack.efficiencies(state, &best);
    let order = sort_by_efficiency(state, &eff);
    m.bench(&format!("{shape}/best_alphas"), || dpack.best_alphas(state));
    m.bench(&format!("{shape}/efficiencies"), || {
        dpack.efficiencies(state, &best)
    });
    m.bench(&format!("{shape}/order"), || {
        sort_by_efficiency(state, &eff)
    });
    m.bench(&format!("{shape}/pack"), || {
        pack(state, &order, PackingRule::Skip)
    });
    m.bench(&format!("{shape}/schedule"), || dpack.schedule(state));
    let parallel = ParallelDPack::new(dpack, 2);
    m.bench(&format!("{shape}/ParallelDPack(2)"), || {
        parallel.schedule(state)
    });
}

fn main() {
    let lib = CurveLibrary::standard();
    let mut m = Micro::new("sched_kernels — full schedule() passes, then DPack stages");
    for &n in &[1000usize, 5000] {
        let cfg = MicrobenchmarkConfig {
            n_tasks: n,
            n_blocks: 7,
            mu_blocks: 1.0,
            sigma_blocks: 10.0,
            sigma_alpha: 4.0,
            eps_min: 0.01,
            ..Default::default()
        };
        let state = generate(&lib, &cfg, 42);
        m.bench(&format!("schedule/DPack/{n}"), || {
            DPack::default().schedule(&state)
        });
        m.bench(&format!("schedule/DPF/{n}"), || Dpf.schedule(&state));
        m.bench(&format!("schedule/GreedyArea/{n}"), || {
            GreedyArea.schedule(&state)
        });
        m.bench(&format!("schedule/FCFS/{n}"), || Fcfs.schedule(&state));
    }
    let smoke = MicroConfig::from_args().smoke;
    stages(&mut m, "micro 20000x100", &micro_shaped(&lib, smoke));
    let (alibaba, arrivals) = alibaba_shaped(smoke);
    stages(&mut m, "alibaba 3000x45", &alibaba);
    carry_over(&mut m, "alibaba 3000x45", &alibaba, &arrivals);
    m.finish();
}
