//! The block registry: a durable service must recover bit-identically,
//! including across an injected crash; the capacity rows a cycle has
//! the ledger fill for the blocks its tasks request must equal the
//! whole view on those blocks at every step of a drawn commit schedule;
//! and registering blocks must not grow the curve interner past their
//! distinct capacities. That the requested-blocks rows decide as the
//! whole ledger does is `equivalence_sweep.rs`'s.

mod common;

use common::ledger;
use dp_accounting::{AlphaGrid, CurveInterner, RdpCurve};
use dpack_check::{bools, check_cases, diff_states, floats, ints, prop_assert, prop_assert_eq};
use dpack_check::{vecs, weighted};
use dpack_core::problem::{Block, BlockId, ProblemError, ProblemState, Task};
use dpack_service::{
    BudgetService, CommitOutcome, DurabilityOptions, SchedulerChoice, ServiceConfig, ShardedLedger,
};
use dpack_wal::SimStorage;
use workloads::curves::CurveLibrary;
use workloads::microbenchmark::{generate, MicrobenchmarkConfig};

fn workload() -> ProblemState {
    let lib = CurveLibrary::standard();
    generate(
        &lib,
        &MicrobenchmarkConfig {
            n_tasks: 2_000,
            n_blocks: 64,
            mu_blocks: 2.0,
            sigma_blocks: 1.5,
            sigma_alpha: 2.0,
            eps_min: 0.02,
            ..Default::default()
        },
        7,
    )
}

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: 4,
        workers: 2,
        unlock_steps: 1,
        scheduler: SchedulerChoice::DPack,
        ..ServiceConfig::default()
    }
}

fn feed(service: &BudgetService, state: &ProblemState) {
    for (id, cap) in state.blocks() {
        service
            .register_block(Block::new(*id, cap.clone(), 0.0))
            .unwrap();
    }
    for t in state.tasks() {
        service.submit((t.id % 8) as u32, t.clone()).unwrap();
    }
}

#[test]
fn durable_service_recovers_bit_identically() {
    let state = workload();
    let grid: AlphaGrid = state.grid().clone();
    let sim = SimStorage::new();
    let opts = DurabilityOptions::default();

    let service = BudgetService::recover(grid.clone(), config(), &sim, opts).unwrap();
    feed(&service, &state);
    for step in 1..=2 {
        service.run_cycle(step as f64);
    }
    let granted = service.ledger().granted_count();
    assert!(granted > 0);

    // Reboot from what survived: recovery reads only the WAL, so the
    // two agree bit for bit.
    let rebooted = BudgetService::recover(grid, config(), &sim.surviving(), opts).unwrap();
    diff_states("reboot", &ledger(&rebooted), &ledger(&service)).expect("bit-identical reboot");
    assert_eq!(rebooted.ledger().granted_count(), granted);
    assert!(rebooted.ledger().unsound_blocks().is_empty());

    // A crash part-way through the same run: whatever write it lands
    // on, recovery holds exactly the durably-decided grants and stays
    // sound.
    let total = sim.bytes_written();
    for frac in [3u64, 5, 7] {
        let crashy = SimStorage::with_crash_after(total * frac / 8);
        let svc = match BudgetService::recover(state.grid().clone(), config(), &crashy, opts) {
            Ok(svc) => svc,
            Err(_) => continue, // Crash landed before the service opened.
        };
        for (id, cap) in state.blocks() {
            if svc
                .register_block(Block::new(*id, cap.clone(), 0.0))
                .is_err()
            {
                break; // Registration hit the crash; fewer blocks, same property.
            }
        }
        for t in state.tasks().iter().take(500) {
            let _ = svc.submit((t.id % 8) as u32, t.clone());
        }
        svc.run_cycle(1.0);
        let recovered =
            BudgetService::recover(state.grid().clone(), config(), &crashy.surviving(), opts)
                .unwrap();
        assert!(
            recovered.ledger().unsound_blocks().is_empty(),
            "crash {frac}/8"
        );
        assert!(
            recovered.ledger().granted_count() <= svc.ledger().granted_count(),
            "crash {frac}/8 resurrected grants"
        );
    }
}

/// Through a drawn schedule of per-task, shard-batch and cross-batch
/// commits — granted and refused, single- and cross-shard, in-memory
/// and durable — a ledger fills, after every step, the capacity rows of
/// the asked ids (in any order, repeats included) with its whole view's
/// curves for them, `f64` bit for bit; refuses an id it does not hold,
/// by name; and stays sound.
#[test]
fn requested_blocks_view_matches_the_whole_view() {
    let step = (
        vecs(ints(0u64..64), 1..4),
        floats(0.01..0.4),
        weighted(vec![(4, false), (1, true)]),
        bools(),
    );
    check_cases(
        "requested_blocks_view_matches_the_whole_view",
        64,
        (
            ints(1usize..4),
            ints(4u64..24),
            ints(1u32..6),
            bools(),
            vecs(step, 1..40),
        ),
        |(shards, n_blocks, unlock_steps, durable, schedule)| {
            let grid = AlphaGrid::new(vec![2.0, 8.0]).unwrap();
            let sim = SimStorage::new();
            let ledger = if *durable {
                let opts = DurabilityOptions::default();
                ShardedLedger::open_durable(
                    grid.clone(),
                    *shards,
                    1.0,
                    *unlock_steps,
                    &sim,
                    opts,
                    &dpack_service::obs::Obs::off(),
                )
                .unwrap()
            } else {
                ShardedLedger::new(grid.clone(), *shards, 1.0, *unlock_steps)
            };
            for j in 0..*n_blocks {
                let capacity = RdpCurve::constant(&grid, 1.0);
                ledger
                    .register_block(Block::new(j, capacity, 0.3 * j as f64))
                    .unwrap();
            }

            for (i, (picks, eps, refuse, batch)) in schedule.iter().enumerate() {
                let blocks: Vec<BlockId> = picks.iter().map(|b| b % n_blocks).collect();
                let eps = if *refuse { 1.5 } else { *eps };
                let task = Task::new(i as u64, 1.0, blocks, RdpCurve::constant(&grid, eps), 0.0);
                let home = ledger.shard_of(task.blocks[0]);
                let local = task.blocks.iter().all(|b| ledger.shard_of(*b) == home);
                let outcome = match (*batch, local) {
                    (false, _) => ledger.commit_task(&task),
                    (true, true) => ledger.commit_shard_batch(home, &[&task])[0],
                    (true, false) => ledger.commit_cross_batch(&[&task])[0],
                };
                if *refuse {
                    prop_assert_eq!(outcome, CommitOutcome::Released);
                }

                let now = 0.7 * (i + 1) as f64;
                let mut ids: Vec<BlockId> = picks.iter().map(|b| (b * 7 + 3) % n_blocks).collect();
                ids.extend(&task.blocks);
                let whole = ledger.snapshot_all(now);
                let want: Vec<u64> = ids
                    .iter()
                    .flat_map(|id| whole[id].values())
                    .map(|v| v.to_bits())
                    .collect();
                let mut rows = vec![f64::NAN; want.len()];
                prop_assert_eq!(ledger.fill_available(now, &ids, &mut rows), Ok(()));
                let got: Vec<u64> = rows.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "step {} ids {:?}", i, ids);
                let unknown = n_blocks + 400;
                ids.push(unknown);
                let mut rows = vec![0.0; ids.len() * grid.len()];
                let refused = ProblemError(format!("block {unknown} is not registered"));
                prop_assert_eq!(ledger.fill_available(now, &ids, &mut rows), Err(refused));
                prop_assert!(ledger.unsound_blocks().is_empty(), "step {}", i);
            }
            Ok(())
        },
    );
}

/// An entry keeps its block's consumption itself; only the capacity
/// curve, which blocks share, goes to the process-wide interner — which
/// never frees. Registering 2 000 blocks on `K` distinct capacities,
/// each charged with a demand never seen before, grows it by at most
/// `K`. The capacities the other tests here register are interned
/// first, so their registrations cannot grow it meanwhile.
#[test]
fn registering_blocks_grows_the_interner_by_at_most_their_capacities() {
    const K: u64 = 3;
    let interner = CurveInterner::global();
    let grid = AlphaGrid::new(vec![2.0, 8.0]).unwrap();
    interner.intern_curve(&RdpCurve::constant(&grid, 1.0));
    for capacity in workload().blocks().values() {
        interner.intern_curve(capacity);
    }
    let ledger = ShardedLedger::new(grid.clone(), 4, 1.0, 1);
    let before = interner.len();
    for j in 0..2_000u64 {
        let capacity = RdpCurve::constant(&grid, 1e4 + (j % K) as f64);
        ledger.register_block(Block::new(j, capacity, 0.0)).unwrap();
        let demand = RdpCurve::constant(&grid, 1e-3 * (j + 1) as f64);
        let task = Task::new(j, 1.0, vec![j], demand, 0.0);
        assert_eq!(ledger.commit_task(&task), CommitOutcome::Committed);
    }
    let grown = interner.len() - before;
    assert!(
        grown <= K as usize,
        "2 000 blocks on {K} capacities interned {grown} curves"
    );
}
