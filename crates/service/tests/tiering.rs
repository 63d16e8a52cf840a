//! A tiered service end to end: its cycles read the demand-driven
//! snapshot, which must make exactly the decisions the untiered
//! service's whole-ledger view makes (it covers every block a cycle's
//! tasks reference), and a durable tiered service must recover
//! bit-identically — including across an injected crash. Below the
//! service, every view a tiered ledger serves must equal an untiered
//! twin's at every step of a drawn commit schedule.

mod common;

use common::{ledger, views};
use dp_accounting::{AlphaGrid, CurveInterner, RdpCurve};
use dpack_check::{bools, check_cases, diff_states, floats, ints, prop_assert_eq};
use dpack_check::{vecs, weighted};
use dpack_core::problem::{Block, BlockId, ProblemState, Task};
use dpack_service::{
    BudgetService, CommitOutcome, DurabilityOptions, SchedulerChoice, ServiceConfig, ShardedLedger,
    TierConfig,
};
use dpack_wal::SimStorage;
use std::collections::BTreeMap;
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

fn tier() -> TierConfig {
    TierConfig { hot_capacity: 4 }
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
fn tiered_service_is_decision_identical_to_untiered() {
    let state = workload();
    let grid: AlphaGrid = state.grid().clone();

    let plain = BudgetService::new(grid.clone(), config());
    feed(&plain, &state);

    let sim = SimStorage::new();
    let tiered = BudgetService::with_tier(grid, config(), &sim, tier()).unwrap();
    feed(&tiered, &state);
    assert!(tiered.ledger().tier_enabled());

    for step in 1..=3 {
        let now = step as f64;
        plain.run_cycle(now);
        tiered.run_cycle(now);
    }

    // Allocation-for-allocation identity.
    let a = plain.stats().to_online();
    let b = tiered.stats().to_online();
    assert!(!a.allocated.is_empty());
    assert_eq!(a.allocated, b.allocated, "tiering changed decisions");

    // Filter-state identity, bit for bit.
    diff_states("tiered vs plain", &ledger(&tiered), &ledger(&plain)).expect("bit-identical");
    assert!(tiered.ledger().unsound_blocks().is_empty());
}

#[test]
fn durable_tiered_service_recovers_bit_identically() {
    let state = workload();
    let grid: AlphaGrid = state.grid().clone();
    let sim = SimStorage::new();
    let opts = DurabilityOptions::default();

    let service =
        BudgetService::recover_with_tier(grid.clone(), config(), &sim, opts, tier()).unwrap();
    feed(&service, &state);
    for step in 1..=2 {
        service.run_cycle(step as f64);
    }
    let granted = service.ledger().granted_count();
    assert!(granted > 0);

    // Reboot from what survived — once tiered again, once plain
    // durable: recovery reads only the WAL, so all three agree bit
    // for bit.
    let rebooted =
        BudgetService::recover_with_tier(grid.clone(), config(), &sim.surviving(), opts, tier())
            .unwrap();
    let plain = BudgetService::recover(grid, config(), &sim.surviving(), opts).unwrap();
    for (name, other) in [("tiered", &rebooted), ("plain", &plain)] {
        diff_states(name, &ledger(other), &ledger(&service)).expect("bit-identical reboot");
        assert_eq!(other.ledger().granted_count(), granted, "{name}");
        assert!(other.ledger().unsound_blocks().is_empty(), "{name}");
    }

    // A crash part-way through the same run: whatever write it lands
    // on, recovery holds exactly the durably-decided grants and stays
    // sound.
    let total = sim.bytes_written();
    for frac in [3u64, 5, 7] {
        let crashy = SimStorage::with_crash_after(total * frac / 8);
        let svc = match BudgetService::recover_with_tier(
            state.grid().clone(),
            config(),
            &crashy,
            opts,
            tier(),
        ) {
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

/// A snapshot view as bit patterns, so `==` means bit-identical.
fn view_bits(view: BTreeMap<BlockId, RdpCurve>) -> BTreeMap<BlockId, Vec<u64>> {
    let bits = |c: RdpCurve| c.values().iter().map(|v| v.to_bits()).collect();
    view.into_iter().map(|(id, c)| (id, bits(c))).collect()
}

/// Through a drawn schedule of per-task, shard-batch and cross-batch
/// commits — granted and refused, single- and cross-shard, in-memory
/// and durable — a tiered ledger decides like its untiered twin and,
/// after every step, serves the same whole-shard view, the same
/// demand-driven view (the whole view restricted to the asked ids,
/// unknown ones skipped), block states, grant count and soundness,
/// `f64` bit for bit.
#[test]
fn tiered_views_match_an_untiered_twin() {
    let step = (
        vecs(ints(0u64..64), 1..4),
        floats(0.01..0.4),
        weighted(vec![(4, false), (1, true)]),
        bools(),
    );
    check_cases(
        "tiered_views_match_an_untiered_twin",
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
            let open = |storage: &SimStorage| {
                let ledger = if *durable {
                    let opts = DurabilityOptions::default();
                    ShardedLedger::open_durable(
                        grid.clone(),
                        *shards,
                        1.0,
                        *unlock_steps,
                        storage,
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
                ledger
            };
            let plain = open(&SimStorage::new());
            let mut tiered = open(&sim);
            tiered.enable_tier(tier());

            for (i, (picks, eps, refuse, batch)) in schedule.iter().enumerate() {
                let blocks: Vec<BlockId> = picks.iter().map(|b| b % n_blocks).collect();
                let eps = if *refuse { 1.5 } else { *eps };
                let task = Task::new(i as u64, 1.0, blocks, RdpCurve::constant(&grid, eps), 0.0);
                let home = plain.shard_of(task.blocks[0]);
                let local = task.blocks.iter().all(|b| plain.shard_of(*b) == home);
                let commit = |l: &ShardedLedger| match (*batch, local) {
                    (false, _) => l.commit_task(&task),
                    (true, true) => l.commit_shard_batch(home, &[&task])[0],
                    (true, false) => l.commit_cross_batch(&[&task])[0],
                };
                let outcome = commit(&plain);
                prop_assert_eq!(commit(&tiered), outcome, "step {}", i);
                if *refuse {
                    prop_assert_eq!(outcome, CommitOutcome::Released);
                }

                let now = 0.7 * (i + 1) as f64;
                for s in 0..*shards {
                    let want = view_bits(plain.snapshot_shard_uncached(s, now));
                    let got = view_bits(tiered.snapshot_shard_uncached(s, now));
                    prop_assert_eq!(got, want, "step {} shard {}", i, s);
                }
                let mut ids: Vec<BlockId> = picks.iter().map(|b| (b * 7 + 3) % n_blocks).collect();
                ids.extend(&task.blocks);
                ids.push(n_blocks + 400); // Unknown: skipped.
                let mut want = view_bits(plain.snapshot_all(now));
                want.retain(|id, _| ids.contains(id));
                let got = view_bits(tiered.snapshot_blocks_all(now, &ids));
                prop_assert_eq!(got, want, "step {} ids {:?}", i, ids);

                let states = |l: &ShardedLedger| views(&l.block_states());
                diff_states(&format!("step {i}"), &states(&tiered), &states(&plain))?;
                prop_assert_eq!(tiered.granted_count(), plain.granted_count());
                prop_assert_eq!(tiered.unsound_blocks(), plain.unsound_blocks());
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
