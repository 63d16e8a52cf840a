//! Tiered block storage end-to-end: a service whose ledger spills
//! cold blocks to segment files must make exactly the decisions the
//! all-in-memory service makes (a block's bits never change by moving
//! tier, and the demand-driven snapshots cover every block a cycle's
//! tasks reference), and a durable tiered service must recover
//! bit-identically — including across an injected crash, with the
//! spill tier sharing the WAL's storage. Below the service, every view
//! a tiered ledger serves must equal an untiered twin's at every step
//! of a drawn commit schedule.

use dp_accounting::{AlphaGrid, CurveInterner, RdpCurve};
use dpack_check::{bools, check_cases, floats, ints, prop_assert, prop_assert_eq, vecs, weighted};
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
    TierConfig {
        hot_capacity: 4, // 64 blocks / 4 shards = 16 per shard: most spill.
        segment_bytes: 4096,
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

    // Filter-state identity, bit for bit, wherever each block resides.
    let (sa, sb) = (
        plain.ledger().block_states(),
        tiered.ledger().block_states(),
    );
    assert_eq!(sa.keys().collect::<Vec<_>>(), sb.keys().collect::<Vec<_>>());
    for (id, x) in &sa {
        let y = &sb[id];
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(x.granted, y.granted, "block {id}");
        assert_eq!(bits(&x.consumed), bits(&y.consumed), "block {id}");
    }

    // The run genuinely exercised the tier: blocks spilled and commits
    // faulted them back in, while the hot set stayed at its bound.
    let activity = tiered.ledger().tier_activity().unwrap();
    assert!(activity.spilled > 0, "{activity:?}");
    assert!(activity.faults > 0, "{activity:?}");
    assert!(activity.hot_blocks <= 4 * 4, "{activity:?}");
    assert_eq!(activity.hot_blocks + activity.cold_blocks, 64);
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
    // durable: the spill files are ephemeral and recovery reads only
    // the WAL, so all three agree bit for bit.
    let rebooted =
        BudgetService::recover_with_tier(grid.clone(), config(), &sim.surviving(), opts, tier())
            .unwrap();
    let plain = BudgetService::recover(grid, config(), &sim.surviving(), opts).unwrap();
    for (name, other) in [("tiered", &rebooted), ("plain", &plain)] {
        let (sa, sb) = (
            service.ledger().block_states(),
            other.ledger().block_states(),
        );
        assert_eq!(sa.len(), sb.len(), "{name}");
        for (id, x) in &sa {
            let y = &sb[id];
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(x.granted, y.granted, "{name} block {id}");
            assert_eq!(bits(&x.consumed), bits(&y.consumed), "{name} block {id}");
        }
        assert_eq!(other.ledger().granted_count(), granted, "{name}");
        assert!(other.ledger().unsound_blocks().is_empty(), "{name}");
    }

    // A crash part-way through the same run: whatever write it lands
    // on (WAL or spill), recovery holds exactly the durably-decided
    // grants and stays sound.
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

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A snapshot view as bit patterns, so `==` means bit-identical.
fn view_bits(view: BTreeMap<BlockId, RdpCurve>) -> BTreeMap<BlockId, Vec<u64>> {
    let curves = view.into_iter();
    curves.map(|(id, c)| (id, bits(c.values()))).collect()
}

/// Where a block lives never shows: through a drawn schedule of
/// per-task, shard-batch and cross-batch commits — granted and refused,
/// single- and cross-shard, in-memory and durable — a tiered ledger
/// decides like its untiered twin and, after every step, serves the
/// same whole-shard view, the same demand-driven view (the whole view
/// restricted to the asked ids, unknown ones skipped), block states,
/// grant count and soundness, `f64` bit for bit; and its hot set is
/// back within the bound whenever a commit returns.
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
            ints(1usize..6),
            ints(1u32..6),
            bools(),
            vecs(step, 1..40),
        ),
        |(shards, n_blocks, hot_capacity, unlock_steps, durable, schedule)| {
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
            let tier = TierConfig {
                hot_capacity: *hot_capacity,
                segment_bytes: 512,
            };
            tiered.enable_tier(&sim, tier).unwrap();
            let hot_bound = (*hot_capacity * *shards) as u64;

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
                let activity = tiered.tier_activity().unwrap();
                prop_assert!(activity.hot_blocks <= hot_bound, "step {i}: {activity:?}");

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

                let state_bits = |l: &ShardedLedger| -> Vec<_> {
                    let states = l.block_states().into_values();
                    states
                        .map(|s| {
                            let curves = (bits(&s.total), bits(&s.consumed));
                            (s.id, s.arrival.to_bits(), s.granted, curves)
                        })
                        .collect()
                };
                prop_assert_eq!(state_bits(&tiered), state_bits(&plain), "step {}", i);
                prop_assert_eq!(tiered.granted_count(), plain.granted_count());
                prop_assert_eq!(tiered.unsound_blocks(), plain.unsound_blocks());
            }
            Ok(())
        },
    );
}

/// A cold summary keeps its block's consumption itself; only the
/// capacity curve, which blocks share, goes to the process-wide
/// interner — which never frees, so interning per-spill state would
/// grow it with every spill. Other tests intern their own capacity
/// curves concurrently, hence the loose bound.
#[test]
fn spill_churn_does_not_grow_the_process_wide_interner() {
    let grid = AlphaGrid::new(vec![2.0, 8.0]).unwrap();
    let mut ledger = ShardedLedger::new(grid.clone(), 1, 1.0, 1);
    for j in 0..2u64 {
        ledger
            .register_block(Block::new(j, RdpCurve::constant(&grid, 1e4), 0.0))
            .unwrap();
    }
    let tier = TierConfig {
        hot_capacity: 1,
        segment_bytes: 4096,
    };
    ledger.enable_tier(&SimStorage::new(), tier).unwrap();
    let before = CurveInterner::global().len();
    // Alternating blocks: every commit faults one in and spills the
    // other, each time with a consumption vector never seen before.
    for i in 0..2_000u64 {
        let demand = RdpCurve::constant(&grid, 1e-3 * (i + 1) as f64);
        let task = Task::new(i, 1.0, vec![i % 2], demand, 0.0);
        assert_eq!(ledger.commit_task(&task), CommitOutcome::Committed);
    }
    assert!(ledger.tier_activity().unwrap().spilled >= 1_999);
    let grown = CurveInterner::global().len() - before;
    assert!(grown <= 16, "2 000 spills interned {grown} new curves");
}
