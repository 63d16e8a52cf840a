//! Micro-benches for the scheduling kernels: one full `schedule()`
//! pass per scheduler at two load levels (the Fig. 5 regime, without
//! the Optimal solver), then the DPack pass stage by stage — best
//! alphas, efficiencies, order and pack, which sum to `schedule` — on three
//! instance shapes of the repo's benchmark (`offline_micro`, one
//! cycle's pending set of `online_alibaba`, and one cycle of
//! `tiered_zipf`, whose tasks all fit), so the stage split can be
//! read without the traced benchmark run; the order stage again on the
//! same tasks shuffled, whose ties the sort must re-sort by arrival and
//! id (both shapes arrive in that order); on the second shape, what it
//! costs to bring the state from one cycle to the next — rebuilt from
//! the pending tasks, or kept and edited; and what the service's ledger
//! costs per block to write one cycle's capacity rows; and one
//! flight-recorder event on the service's lapped ring, which every
//! admission, grant and eviction records. Runs on the vendored
//! `dpack_bench::micro` harness (`--smoke` for the CI rot guard).

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_bench::micro::{Micro, MicroConfig};
use dpack_core::problem::{pack, Block, BlockId, PackingRule, ProblemState, Task};
use dpack_core::schedulers::{
    sort_by_efficiency, DPack, Dpf, Fcfs, GreedyArea, ParallelDPack, Scheduler,
};
use dpack_service::obs::{EventKind, Obs};
use dpack_service::ShardedLedger;
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

/// What one `tiered_zipf` cycle sees: 256 equal-weight tasks of one or
/// two blocks picked from 50 000, one pick in five uniform and the rest
/// log-uniform (close to that workload's `Zipf(n, 1.0)` head), over the
/// ~290 blocks they request at capacity 1.0. Every task asks for the
/// same constant demand, 0.9 over ~8 000 (the busiest block's touches
/// in a full run), so the whole set fits at every order.
fn zipf_shaped(smoke: bool) -> ProblemState {
    let (n_tasks, n_blocks) = if smoke {
        (32, 1_000u64)
    } else {
        (256, 50_000u64)
    };
    let grid = AlphaGrid::standard();
    let mut draw = 0x2545_f491_4f6c_dd1du64;
    let mut uniform = move || {
        draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (draw >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pick = move || {
        let rank = if uniform() < 0.2 {
            uniform() * n_blocks as f64
        } else {
            (n_blocks as f64).powf(uniform()) - 1.0
        };
        (rank as u64).min(n_blocks - 1)
    };
    let demand = RdpCurve::constant(&grid, 0.9 / 8_000.0);
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|id| {
            let mut blocks = vec![pick()];
            if id % 2 == 0 {
                blocks.push(pick());
            }
            Task::new(id, 1.0, blocks, demand.clone(), 0.0)
        })
        .collect();
    let mut ids: Vec<BlockId> = tasks.iter().flat_map(|t| t.blocks.clone()).collect();
    ids.sort_unstable();
    ids.dedup();
    let capacity = RdpCurve::constant(&grid, 1.0);
    let blocks = ids
        .into_iter()
        .map(|id| Block::new(id, capacity.clone(), 0.0))
        .collect();
    ProblemState::new(grid, blocks, tasks).expect("generated instance is well-formed")
}

/// One in ten tasks leaves and as many arrive, step after step: the
/// next cycle's state rebuilt from the pending tasks (cloned, as a
/// cycle that keeps them elsewhere must) against the same state kept
/// and edited in place. The rebuild reads a fresh copy of the capacity
/// map, the kept state has the same values written into its rows; both
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

    let ids: Vec<BlockId> = state.blocks().keys().copied().collect();
    let values: Vec<f64> = state
        .blocks()
        .values()
        .flat_map(|c| c.values())
        .copied()
        .collect();
    let (mut kept, mut step) = (state.clone(), 0);
    m.bench(
        &format!("{shape}/carry-over/retain+push+set_capacity"),
        || {
            let keep: Vec<bool> = keeps(step, kept.tasks().len()).collect();
            kept.retain_tasks(&keep);
            for task in arriving(step) {
                kept.push_task(task).expect("same blocks");
            }
            step += 1;
            let fill = |_: &[BlockId], rows: &mut [f64]| {
                rows.copy_from_slice(&values);
                Ok(())
            };
            kept.set_capacity(ids.clone(), fill).expect("same blocks");
            kept.tasks().len()
        },
    );
}

/// One cycle's capacity rows written by the service's ledger: about
/// 300 requested blocks, ascending, of 50 000 on 4 shards, every third
/// one charged once. Returns the nanoseconds per block.
fn ledger_fill(m: &mut Micro, smoke: bool) -> f64 {
    let (n_blocks, n_requested) = if smoke { (1_000, 30) } else { (50_000, 300) };
    let grid = AlphaGrid::standard();
    let ledger = ShardedLedger::new(grid.clone(), 4, 1.0, 4);
    for j in 0..n_blocks {
        let block = Block::new(j, RdpCurve::constant(&grid, 10.0), j as f64 * 1e-3);
        ledger.register_block(block).expect("fresh id");
        let charge = Task::new(j, 1.0, vec![j], RdpCurve::constant(&grid, 0.1), 0.0);
        if j % 3 == 0 {
            ledger.commit_task(&charge);
        }
    }
    let mut draw = 0x9e37_79b9_7f4a_7c15u64;
    let mut ids: Vec<BlockId> = (0..n_requested)
        .map(|_| {
            draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (draw >> 33) % n_blocks
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let mut rows = vec![0.0; ids.len() * grid.len()];
    m.bench(
        &format!("ledger/fill_available/{} of {n_blocks}", ids.len()),
        || {
            ledger
                .fill_available(2.5, &ids, &mut rows)
                .expect("registered");
            rows[0]
        },
    );
    let report = m.reports().last().expect("just measured");
    report.mean.as_nanos() as f64 / ids.len() as f64
}

/// `state`'s tasks pushed in a fixed shuffled order, so its
/// efficiency sort re-sorts its ties by arrival and id.
fn shuffled(state: &ProblemState) -> ProblemState {
    let mut tasks = state.tasks().to_vec();
    let mut draw = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..tasks.len()).rev() {
        draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        tasks.swap(i, (draw >> 33) as usize % (i + 1));
    }
    let (grid, available) = (state.grid().clone(), state.blocks().clone());
    ProblemState::from_available(grid, available, tasks).expect("same blocks")
}

/// One row per stage of `DPack::schedule` on `state`, and the order
/// stage again on its tasks shuffled.
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
    let shuffled = shuffled(state);
    assert!(!shuffled.in_arrival_order(), "a shuffle out of order");
    let shuffled_eff = dpack.efficiencies(&shuffled, &dpack.best_alphas(&shuffled));
    m.bench(&format!("{shape}/order/shuffled"), || {
        sort_by_efficiency(&shuffled, &shuffled_eff)
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

/// One event into a live context's recorder (4 096 slots) after it
/// has lapped, so every record evicts the oldest.
fn recorder(m: &mut Micro) {
    let obs = Obs::wall();
    let capacity = obs.recorder().capacity() as u64;
    for i in 0..2 * capacity {
        obs.recorder().record(EventKind::TaskGranted, i, 0);
    }
    let mut i = 2 * capacity;
    m.bench(&format!("recorder/record (lapped {capacity})"), || {
        i += 1;
        obs.recorder().record(EventKind::TaskGranted, i, 0)
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
    let zipf = zipf_shaped(smoke);
    let shape = format!("zipf {}x{}", zipf.tasks().len(), zipf.blocks().len());
    stages(&mut m, &shape, &zipf);
    carry_over(&mut m, "alibaba 3000x45", &alibaba, &arrivals);
    let per_block = ledger_fill(&mut m, smoke);
    recorder(&mut m);
    m.finish();
    println!("ledger/fill_available: {per_block:.1} ns per block");
}
