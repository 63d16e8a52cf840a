//! Property-based tests on the cross-crate invariants, on
//! `dpack-check` (ported from the former proptest suite; runs in
//! tier-1).

use dpack::accounting::{block_capacity, fits, AlphaGrid, RdpCurve, RenyiFilter};
use dpack::core::online::{OnlineConfig, OnlineEngine};
use dpack::core::problem::{Block, ProblemState, Task};
use dpack::core::schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea, Optimal, Scheduler};
use dpack::solvers::item::density_order;
use dpack::solvers::multidim::{self, MultiItem};
use dpack::solvers::privacy::{
    alpha_enumeration, solve, PrivacyInstance, PrivacyItem, SolveLimits,
};
use dpack::solvers::{descending_order, exact, fptas, greedy, order_bits, Item};
use dpack_check::{
    check_cases, floats, ints, prop_assert, prop_assert_eq, vecs, weighted, Failed, Strategy,
};
use dpack_wal::{SimStorage, Wal, WalOptions};

const CASES: u32 = 64;

/// A small strategy for non-negative demands.
fn demand_vec(orders: usize) -> impl Strategy<Value = Vec<f64>> {
    vecs(floats(0.0..1.5), orders..orders + 1)
}

fn small_grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 4.0, 8.0]).expect("valid grid")
}

/// Composition is commutative and associative order-by-order.
#[test]
fn curve_composition_laws() {
    check_cases(
        "curve_composition_laws",
        CASES,
        (demand_vec(3), demand_vec(3), demand_vec(3)),
        |(a, b, c)| {
            let g = small_grid();
            let (ca, cb, cc) = (
                RdpCurve::new(&g, a.clone()).unwrap(),
                RdpCurve::new(&g, b.clone()).unwrap(),
                RdpCurve::new(&g, c.clone()).unwrap(),
            );
            let ab = ca.compose(&cb).unwrap();
            let ba = cb.compose(&ca).unwrap();
            prop_assert_eq!(ab.values(), ba.values());
            let left = ab.compose(&cc).unwrap();
            let right = ca.compose(&cb.compose(&cc).unwrap()).unwrap();
            for i in 0..3 {
                prop_assert!((left.epsilon(i) - right.epsilon(i)).abs() < 1e-12);
            }
            Ok(())
        },
    );
}

/// A filter never lets cumulative consumption exceed capacity at
/// every order simultaneously, no matter the demand sequence.
#[test]
fn filter_invariant_under_random_sequences() {
    check_cases(
        "filter_invariant_under_random_sequences",
        CASES,
        vecs(demand_vec(3), 1..40),
        |demands| {
            let g = small_grid();
            let cap = RdpCurve::constant(&g, 2.0);
            let mut filter = RenyiFilter::new(cap.clone());
            for d in demands {
                let _ = filter.try_consume(&RdpCurve::new(&g, d.clone()).unwrap());
                let consumed = filter.consumed();
                let ok = (0..g.len()).any(|i| fits(consumed.epsilon(i), cap.epsilon(i)));
                prop_assert!(ok, "filter invariant broken: {:?}", consumed.values());
            }
            Ok(())
        },
    );
}

/// FPTAS value is sandwiched between (1−η)·OPT and OPT.
#[test]
fn fptas_sandwich() {
    check_cases(
        "fptas_sandwich",
        CASES,
        (
            vecs(floats(0.01..3.0), 1..10),
            vecs(floats(0.01..5.0), 1..10),
            floats(0.5..6.0),
            floats(0.05..0.9),
        ),
        |(weights, profits, cap, eta)| {
            let (cap, eta) = (*cap, *eta);
            let n = weights.len().min(profits.len());
            let items: Vec<Item> = (0..n)
                .map(|i| Item::new(weights[i], profits[i]).unwrap())
                .collect();
            let opt = exact::branch_and_bound(&items, cap, u64::MAX)
                .solution
                .profit;
            let approx = fptas::fptas_value(&items, cap, eta);
            prop_assert!(approx <= opt + 1e-9);
            prop_assert!(approx >= (1.0 - eta) * opt - 1e-9);
            // And greedy+best-item keeps its 1/2 bound.
            let g = greedy::greedy_with_best_item(&items, cap).profit;
            prop_assert!(g >= 0.5 * opt - 1e-9);
            Ok(())
        },
    );
}

/// The privacy-knapsack branch-and-bound matches the α-enumeration
/// reference on tiny instances, and its solution is feasible.
#[test]
fn privacy_solver_matches_reference() {
    check_cases(
        "privacy_solver_matches_reference",
        CASES,
        (
            vecs(floats(0.1..3.0), 2..7),
            vecs(floats(0.0..1.2), (2 * 2 * 7)..(2 * 2 * 7 + 1)),
        ),
        |(profits, demand_seed)| {
            let n = profits.len();
            let (m, orders) = (2usize, 2usize);
            let items: Vec<dpack::solvers::privacy::PrivacyItem> = (0..n)
                .map(|i| dpack::solvers::privacy::PrivacyItem {
                    demand: (0..m)
                        .map(|j| {
                            (0..orders)
                                .map(|a| {
                                    demand_seed
                                        [(i * m * orders + j * orders + a) % demand_seed.len()]
                                })
                                .collect()
                        })
                        .collect(),
                    profit: profits[i],
                })
                .collect();
            let inst = dpack::solvers::privacy::PrivacyInstance {
                capacity: vec![vec![1.0, 1.3]; m],
                items,
            };
            let bb = solve(
                &inst,
                SolveLimits {
                    node_budget: u64::MAX,
                    time_limit: None,
                },
            );
            let reference = alpha_enumeration(&inst);
            prop_assert!(
                (bb.solution.profit - reference.profit).abs() < 1e-9,
                "bb {} vs reference {}",
                bb.solution.profit,
                reference.profit
            );
            // Feasibility of the returned selection.
            let mut used = vec![vec![0.0; orders]; m];
            for &i in &bb.solution.selected {
                for (j, used_j) in used.iter_mut().enumerate() {
                    for (a, used_ja) in used_j.iter_mut().enumerate() {
                        *used_ja += inst.items[i].demand[j][a];
                    }
                }
            }
            prop_assert!(inst.usage_feasible(&used));
            Ok(())
        },
    );
}

/// Every scheduler's allocation is feasible and duplicate-free on
/// random problem states, and Optimal dominates them all.
#[test]
fn schedulers_feasible_and_dominated_by_optimal() {
    check_cases(
        "schedulers_feasible_and_dominated_by_optimal",
        CASES,
        (
            vecs(demand_vec(3), 3..10),
            vecs(floats(0.1..3.0), 10..11),
            vecs(floats(0.4..2.0), 2..3),
            vecs(ints(0u8..3), 10..11),
        ),
        |(demands, weights, caps, block_mask)| {
            let g = small_grid();
            let blocks: Vec<Block> = caps
                .iter()
                .enumerate()
                .map(|(j, c)| Block::new(j as u64, RdpCurve::constant(&g, *c), 0.0))
                .collect();
            let n_blocks = blocks.len() as u64;
            let tasks: Vec<Task> = demands
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let which = match block_mask[i % block_mask.len()] {
                        0 => vec![0],
                        1 => vec![1 % n_blocks],
                        _ => (0..n_blocks).collect(),
                    };
                    Task::new(
                        i as u64,
                        weights[i % weights.len()],
                        which,
                        RdpCurve::new(&g, d.clone()).unwrap(),
                        i as f64,
                    )
                })
                .collect();
            let state = ProblemState::new(g.clone(), blocks, tasks).unwrap();
            let opt = Optimal::unbounded().schedule(&state);
            for s in [
                &DPack::default() as &dyn Scheduler,
                &Dpf,
                &GreedyArea,
                &Fcfs,
            ] {
                let a = s.schedule(&state);
                // Feasibility.
                let mut used: std::collections::BTreeMap<u64, RdpCurve> = Default::default();
                for id in &a.scheduled {
                    let t = state.task(*id).unwrap();
                    for b in &t.blocks {
                        let e = used.entry(*b).or_insert_with(|| RdpCurve::zero(&g));
                        *e = e.compose(&t.demand).unwrap();
                    }
                }
                for (b, u) in &used {
                    let cap = &state.blocks()[b];
                    prop_assert!(
                        (0..g.len()).any(|i| fits(u.epsilon(i), cap.epsilon(i))),
                        "{}: block {b} infeasible",
                        s.name()
                    );
                }
                // Dominated by Optimal.
                prop_assert!(
                    opt.total_weight >= a.total_weight - 1e-9,
                    "{} beat Optimal: {} > {}",
                    s.name(),
                    a.total_weight,
                    opt.total_weight
                );
            }
            Ok(())
        },
    );
}

/// The WAL compaction law: for any record stream and any choice of
/// snapshot points, recovering (snapshot + suffix replay) from the
/// compacted log yields exactly the same logical history as replaying
/// the full, never-compacted log — compaction forgets nothing and
/// invents nothing. This is the contract `BudgetService::recover`
/// leans on when it rebuilds the ledger from snapshot + replay.
#[test]
fn wal_snapshot_plus_suffix_replay_equals_full_log_replay() {
    fn encode_list(records: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&(r.len() as u32).to_le_bytes());
            buf.extend_from_slice(r);
        }
        buf
    }
    fn decode_list(mut bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let len = u32::from_le_bytes(bytes[..4].try_into().expect("length prefix")) as usize;
            out.push(bytes[4..4 + len].to_vec());
            bytes = &bytes[4 + len..];
        }
        out
    }
    check_cases(
        "wal_snapshot_plus_suffix_replay_equals_full_log_replay",
        CASES,
        (
            // (snapshot-here?, payload) op stream; tiny segments so
            // rotation happens under the snapshots too.
            vecs(
                (
                    ints(0u32..5),
                    vecs(ints(0u64..256), 0..12)
                        .prop_map(|v| v.iter().map(|x| *x as u8).collect::<Vec<u8>>()),
                ),
                1..40,
            ),
            ints(5u64..64),
        ),
        |(ops, seg)| {
            // Clones share the backing store (there is no crash here,
            // so live handle and "rebooted" handle see the same bytes).
            let open = |storage: &SimStorage| {
                Wal::open(
                    Box::new(storage.clone()),
                    WalOptions {
                        segment_bytes: *seg,
                    },
                )
                .map_err(|e| Failed::new(format!("open: {e}")))
            };
            let plain_store = SimStorage::new();
            let compacted_store = SimStorage::new();
            let (mut plain, _) = open(&plain_store)?;
            let (mut compacted, _) = open(&compacted_store)?;
            let mut history: Vec<Vec<u8>> = Vec::new();
            for (snap_pick, payload) in ops {
                plain
                    .append(payload)
                    .map_err(|e| Failed::new(e.to_string()))?;
                compacted
                    .append(payload)
                    .map_err(|e| Failed::new(e.to_string()))?;
                history.push(payload.clone());
                if *snap_pick == 0 {
                    // Compact only one of the two logs.
                    compacted
                        .snapshot(&encode_list(&history))
                        .map_err(|e| Failed::new(e.to_string()))?;
                }
            }
            // Full-log replay (never compacted)...
            let (_, full) = open(&plain_store)?;
            prop_assert!(full.snapshot.is_none());
            prop_assert_eq!(&full.records, &history, "full-log replay diverged");
            // ...equals snapshot + suffix replay of the compacted log.
            let (_, suffix) = open(&compacted_store)?;
            let mut replayed = decode_list(suffix.snapshot.as_deref().unwrap_or_default());
            replayed.extend(suffix.records);
            prop_assert_eq!(replayed, history, "snapshot + suffix replay diverged");
            Ok(())
        },
    );
}

/// Block-capacity initialization round-trips through Eq. 2: filling
/// any usable order exactly and converting back recovers ε_G.
#[test]
fn capacity_round_trip() {
    check_cases(
        "capacity_round_trip",
        CASES,
        (floats(0.5..20.0), floats(-9.0..-2.0)),
        |&(eps_g, log_delta)| {
            let delta = 10f64.powf(log_delta);
            let grid = AlphaGrid::standard();
            let cap = block_capacity(&grid, eps_g, delta).unwrap();
            for (i, a) in grid.iter() {
                let c = cap.epsilon(i);
                if c > 0.0 {
                    let back = c + (1.0 / delta).ln() / (a - 1.0);
                    prop_assert!((back - eps_g).abs() < 1e-9);
                }
            }
            Ok(())
        },
    );
}

/// NaN, ±∞, negatives, `-0.0`, subnormals of both signs, and a plain
/// value — the numbers admission has to sort into legal and not.
fn poison() -> impl Strategy<Value = f64> {
    weighted(vec![
        (1, f64::NAN),
        (1, f64::INFINITY),
        (1, f64::NEG_INFINITY),
        (1, -1.0),
        (1, -0.0),
        (1, f64::from_bits(1)),
        (1, -f64::from_bits(1)),
        (2, 0.25),
    ])
}

/// What may stand in each poisoned field: a task's demand at an order
/// (0), weight (1), arrival (2) and timeout (3), a block's capacity at
/// an order (4) and arrival (5).
fn legal(field: u8, value: f64) -> bool {
    match field {
        0 | 3 => value.is_finite() && value >= 0.0,
        1 => value.is_finite() && value > 0.0,
        _ => value.is_finite(),
    }
}

/// Hostile numbers never panic and never get in. A state, a push and
/// the online engine take a task or block exactly when every poisoned
/// field holds a legal value, and then every scheduler runs; a refused
/// task never keeps the engine from granting a good one beside it. The
/// knapsack constructors and `PrivacyInstance::validate` refuse the
/// same numbers (`validate` and `multidim::solve` a non-finite capacity
/// too, as a block does), and the solvers' float sorts order any key,
/// NaN included.
#[test]
fn hostile_numbers_are_refused_typed_and_never_panic() {
    let poisons = vecs((ints(0u8..6), poison(), ints(0usize..3)), 1..4);
    check_cases(
        "hostile_numbers_are_refused_typed_and_never_panic",
        CASES,
        (poisons, vecs(poison(), 1..8)),
        |(poisons, values)| {
            let g = small_grid();
            let clean_block = |id| Block::new(id, RdpCurve::constant(&g, 1.0), 0.0);
            let good = Task::new(1, 1.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0);
            let mut task =
                Task::new(2, 1.0, vec![0, 1], RdpCurve::constant(&g, 0.1), 0.0).with_timeout(5.0);
            let mut block = clean_block(1);
            let (mut demand, mut capacity) = (vec![0.1; g.len()], vec![1.0; g.len()]);
            for &(field, value, order) in poisons {
                match field {
                    0 => demand[order] = value,
                    1 => task.weight = value,
                    2 => task.arrival = value,
                    3 => task.timeout = Some(value),
                    4 => capacity[order] = value,
                    _ => block.arrival = value,
                }
            }
            let (mut demand, mut capacity) = (demand.into_iter(), capacity.into_iter());
            task.demand = RdpCurve::from_fn(&g, |_| demand.next().unwrap());
            block.capacity = RdpCurve::from_fn(&g, |_| capacity.next().unwrap());
            // The value each field ends up with: a later poison of the
            // same field (and order) overwrites an earlier one.
            let last: std::collections::BTreeMap<_, _> = poisons
                .iter()
                .map(|&(field, value, order)| {
                    let order = if matches!(field, 0 | 4) { order } else { 0 };
                    ((field, order), value)
                })
                .collect();
            let legal_in = |fields: &[u8]| {
                last.iter()
                    .filter(|((field, _), _)| fields.contains(field))
                    .all(|(&(field, _), &value)| legal(field, value))
            };
            let (task_ok, block_ok) = (legal_in(&[0, 1, 2, 3]), legal_in(&[4, 5]));

            let schedulers: [&dyn Scheduler; 6] = [
                &DPack::default(),
                &Dpf,
                &DpfStrict,
                &GreedyArea,
                &Fcfs,
                &Optimal::unbounded(),
            ];
            let blocks = vec![clean_block(0), block.clone()];
            let built = ProblemState::new(g.clone(), blocks, vec![good.clone(), task.clone()]);
            prop_assert_eq!(built.is_ok(), task_ok && block_ok, "{:?}", built.err());
            let blocks = vec![clean_block(0), clean_block(1)];
            let mut state = ProblemState::new(g.clone(), blocks, vec![good.clone()]).unwrap();
            let pushed = state.push_task(task.clone());
            prop_assert_eq!(pushed.is_ok(), task_ok, "{:?}", pushed.err());
            prop_assert_eq!(state.tasks().len(), 1 + usize::from(task_ok));
            for state in built.iter().chain([&state]) {
                for scheduler in schedulers {
                    scheduler.schedule(state);
                }
            }

            let config = OnlineConfig {
                unlock_steps: 1,
                ..OnlineConfig::default()
            };
            let mut engine = OnlineEngine::new(DPack::default(), g.clone(), config);
            engine.add_block(clean_block(0)).unwrap();
            prop_assert_eq!(engine.add_block(block).is_ok(), block_ok);
            engine.submit_task(good).unwrap();
            let submitted = engine.submit_task(task);
            prop_assert_eq!(submitted.is_ok(), task_ok && block_ok);
            let step = engine.run_step(1.0);
            prop_assert!(
                step.as_ref().is_ok_and(|a| a.scheduled.contains(&1)),
                "{step:?}"
            );

            for &v in values {
                let fine = legal(0, v);
                prop_assert_eq!(Item::new(v, 1.0).is_ok(), fine);
                prop_assert_eq!(Item::new(1.0, v).is_ok(), fine);
                prop_assert_eq!(MultiItem::new(vec![1.0, v], 1.0).is_ok(), fine);
                prop_assert_eq!(MultiItem::new(vec![1.0], v).is_ok(), fine);
            }
            let inst = |demand: f64, profit: f64| PrivacyInstance {
                capacity: vec![values.clone()],
                items: vec![PrivacyItem {
                    demand: vec![vec![demand; values.len()]],
                    profit,
                }],
            };
            let capacity_ok = values.iter().all(|&v| legal(4, v));
            for &v in values {
                let fine = capacity_ok && legal(0, v);
                prop_assert_eq!(inst(v, 1.0).validate().is_ok(), fine);
                prop_assert_eq!(inst(0.5, v).validate().is_ok(), fine);
            }
            // `solve` takes only what `validate` takes; `multidim`'s
            // solver refuses exactly the non-finite capacities.
            if capacity_ok {
                solve(&inst(0.5, 1.0), SolveLimits::default());
            }
            let items = vec![MultiItem::new(vec![0.5; values.len()], 1.0).unwrap(); 3];
            let solved = multidim::solve(&items, values, 10_000);
            prop_assert_eq!(solved.is_err(), !capacity_ok, "{solved:?}");

            // `Item` literals bypass `Item::new`: the sorts take any key.
            let items: Vec<Item> = values
                .iter()
                .flat_map(|&v| {
                    [
                        Item {
                            weight: v,
                            profit: 1.0,
                        },
                        Item {
                            weight: 1.0,
                            profit: v,
                        },
                    ]
                })
                .collect();
            let order = density_order(&items);
            let mut seen = order.clone();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
            let key = |i: usize| order_bits(items[i].density());
            prop_assert!(order
                .windows(2)
                .all(|w| (!key(w[0]), w[0]) < (!key(w[1]), w[1])));
            prop_assert_eq!(descending_order(items.len(), |i| items[i].density()), order);
            greedy::greedy_with_best_item(&items, 1.0);
            greedy::unit_profit_exact(&items, 1.0);
            Ok(())
        },
    );
}
