//! The dense scheduler kernels against a literal transcription of
//! Alg. 1 and `CANRUN`.
//!
//! The schedulers run on an index-typed view of the problem with one
//! global demand sweep per order; the reference below does what the
//! paper's pseudo-code says, block by block over id-keyed maps. Both
//! must allocate the same tasks in the same order with the same
//! `total_weight` to the last bit, on instances built to hit the
//! corners: equal and unequal weights, duplicate demand curves (ties at
//! every order), `0.0`, `-0.0` and `f64::MAX` demands (a state refuses
//! `+inf`, so the largest finite demand stands in), depleted orders,
//! blocks nobody requests, sparse block ids, single-order grids
//! (Prop. 4) and the stop-at-first-misfit rule. Half the instances
//! hold their tasks in `(arrival, id)` order, so the efficiency sort's
//! in-order path (ties by index, no task read) and its fallback (ties
//! re-sorted by arrival and id) both meet the reference.
//!
//! A state may also outlive a scheduling round — tasks pushed, tasks
//! compacted out, capacities written over — as the budget service's
//! pending set does. The last property drives one through a drawn
//! sequence of those edits and holds it, after every edit, against the
//! state built from scratch over the same tasks: every field to the
//! bit, every scheduler's output, and nothing changed by a refused
//! edit. Some edits push a straggler (an arrival earlier than every
//! pending task) and later drop it again, so the state's arrival-order
//! flag is cleared and restored along the way.
//!
//! Half the instances scale their demands down until most sets fit
//! jointly, so DPack's column-sum certificate — every subset of a
//! block's requesters fits, so the sweep need not walk and `CANRUN`
//! takes every task — meets the reference as often as the walk does;
//! a hand-built case sits one ulp past the certificate's reach.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

use dp_accounting::{fit_limit, fits, AlphaGrid, RdpCurve};
use dpack_check::{
    bools, check_cases, floats, ints, prop_assert, prop_assert_eq, vecs, weighted, Failed,
    PropResult, Strategy,
};
use dpack_core::problem::{
    pack, Block, BlockId, PackingRule, ProblemError, ProblemState, Task, TaskId,
};
use dpack_core::schedulers::{
    pack_by_efficiency, sort_by_efficiency, DPack, Dpf, DpfStrict, Fcfs, GreedyArea, Scheduler,
};
use knapsack::{dp::integer_profit_exact, fptas::fptas_value, greedy::unit_profit_exact, Item};

const CASES: u32 = 192;

type Caps = BTreeMap<BlockId, RdpCurve>;
/// Scheduled ids in order, and their summed weight.
type Outcome = (Vec<TaskId>, f64);

// ---- The reference: Alg. 1 and CANRUN as written, under 50 lines. ----

/// `COMPUTE_BEST_ALPHA` for one block: the first usable order whose
/// single-block knapsack over the block's requesters is worth most,
/// by DPack's default oracle (prefix / integer DP / FPTAS for n ≤ 300).
fn ref_best_alpha(caps: &Caps, tasks: &[Task], block: BlockId) -> Option<usize> {
    let requesters: Vec<&Task> = tasks.iter().filter(|t| t.blocks.contains(&block)).collect();
    let (mut best, mut best_value) = (None, f64::NEG_INFINITY);
    for a in 0..caps[&block].grid().len() {
        let c = caps[&block].epsilon(a);
        if c <= 0.0 || requesters.is_empty() {
            continue;
        }
        let item = |t: &&Task| Item {
            weight: t.demand.epsilon(a),
            profit: t.weight,
        };
        let items: Vec<Item> = requesters.iter().map(item).collect();
        let value = unit_profit_exact(&items, c)
            .or_else(|| integer_profit_exact(&items, c, 2_000_000))
            .map_or_else(|| fptas_value(&items, c, 1.0 / 3.0), |s| s.profit);
        if value > best_value {
            (best, best_value) = (Some(a), value);
        }
    }
    best
}

/// Eq. 6: weight over the summed demand shares at each block's best alpha.
fn ref_dpack_efficiency(caps: &Caps, t: &Task, best: &BTreeMap<BlockId, Option<usize>>) -> f64 {
    let share = |b: &BlockId| best[b].map(|a| t.demand.epsilon(a) / caps[b].epsilon(a));
    let shares: Option<Vec<f64>> = t.blocks.iter().map(share).collect();
    ref_metric(t.weight, shares.map(|s| s.into_iter().sum()))
}

/// Per block, what the tasks run so far have used at each order.
type Used = BTreeMap<BlockId, Vec<f64>>;

/// `CANRUN`: every block `t` requests still fits at some order.
fn ref_can_run(caps: &Caps, used: &Used, t: &Task) -> bool {
    let d = t.demand.values();
    t.blocks.iter().all(|b| {
        let u = |a| used.get(b).map_or(0.0, |u| u[a]);
        (0..d.len()).any(|a| fits(u(a) + d[a], caps[b].epsilon(a)))
    })
}

/// Adds `t`'s demand to every block it requests.
fn ref_charge(used: &mut Used, t: &Task) {
    let d = t.demand.values();
    for b in &t.blocks {
        let u = used.entry(*b).or_insert_with(|| vec![0.0; d.len()]);
        (0..d.len()).for_each(|a| u[a] += d[a]);
    }
}

/// The greedy loop of Alg. 1: "if CANRUN then run", in `order`.
fn ref_canrun(caps: &Caps, tasks: &[Task], order: &[usize], rule: PackingRule) -> Outcome {
    let mut used = Used::new();
    let mut run: Vec<&Task> = Vec::new();
    for t in order.iter().map(|&i| &tasks[i]) {
        if ref_can_run(caps, &used, t) {
            ref_charge(&mut used, t);
            run.push(t);
        } else if rule == PackingRule::Stop {
            break;
        }
    }
    let weight = run.iter().map(|t| t.weight).sum();
    (run.iter().map(|t| t.id).collect(), weight)
}

// ---- The baselines' metrics and the shared ordering, as written. ------

/// Descending metric, then arrival, then id.
fn ref_order(tasks: &[Task], metric: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&x, &y| {
        metric[y]
            .partial_cmp(&metric[x])
            .unwrap()
            .then(tasks[x].arrival.partial_cmp(&tasks[y].arrival).unwrap())
            .then(tasks[x].id.cmp(&tasks[y].id))
    });
    order
}

/// `d/c` over a task's requested blocks and their usable orders, or
/// `None` if some requested block has no usable order.
fn ref_shares(caps: &Caps, t: &Task) -> Option<Vec<f64>> {
    let mut shares = Vec::new();
    for b in &t.blocks {
        let usable: Vec<f64> = (0..t.demand.values().len())
            .filter(|&a| caps[b].epsilon(a) > 0.0)
            .map(|a| t.demand.epsilon(a) / caps[b].epsilon(a))
            .collect();
        if usable.is_empty() {
            return None;
        }
        shares.extend(usable);
    }
    Some(shares)
}

/// `weight / denom` with the schedulers' conventions at the ends.
fn ref_metric(weight: f64, denom: Option<f64>) -> f64 {
    let Some(denom) = denom else {
        return 0.0; // A requested block with no usable order.
    };
    if denom == f64::INFINITY {
        0.0
    } else if denom == 0.0 {
        f64::INFINITY
    } else {
        weight / denom
    }
}

// ---- Instances. -------------------------------------------------------

/// Non-contiguous ids up to the end of the id space.
const SPARSE_IDS: [BlockId; 6] = [2, 3, 17, 1_000, 1 << 40, u64::MAX];
/// Unequal weights: integers (the exact DP oracle) and one fraction
/// (the FPTAS).
const WEIGHTS: [f64; 4] = [1.0, 2.0, 3.0, 0.75];

/// (orders, sparse ids, equal weights, capacities, demand palette,
/// tasks as (palette entry, weight pick, block mask, arrival), tasks in
/// `(arrival, id)` order, demand scale).
type Spec = (
    usize,
    bool,
    bool,
    Vec<Vec<f64>>,
    Vec<Vec<f64>>,
    Vec<(usize, usize, u8, u8)>,
    bool,
    f64,
);

fn build(spec: &Spec) -> (AlphaGrid, Caps, Vec<Task>) {
    let (n_orders, sparse, equal_weights, caps, palette, task_specs, in_order, scale) = spec;
    let grid = AlphaGrid::new([2.0, 4.0, 8.0, 16.0][..*n_orders].to_vec()).unwrap();
    let ids: Vec<BlockId> = (0..caps.len())
        .map(|j| if *sparse { SPARSE_IDS[j] } else { j as BlockId })
        .collect();
    let curve = |values: &Vec<f64>| RdpCurve::new(&grid, values[..*n_orders].to_vec()).unwrap();
    let caps: Caps = ids.iter().copied().zip(caps.iter().map(curve)).collect();
    let mut tasks: Vec<Task> = task_specs
        .iter()
        .enumerate()
        .map(|(i, &(entry, weight, mask, arrival))| {
            let mut blocks: Vec<BlockId> = (0..ids.len())
                .filter(|j| mask >> j & 1 == 1)
                .map(|j| ids[j])
                .collect();
            if blocks.is_empty() {
                blocks.push(ids[mask as usize % ids.len()]);
            }
            let weight = if *equal_weights { 1.5 } else { WEIGHTS[weight] };
            // Ids are distinct but not in task order.
            let id = (i as TaskId * 7 + 3) % 31;
            let scaled: Vec<f64> = palette[entry % palette.len()]
                .iter()
                .map(|d| d * scale)
                .collect();
            let demand = curve(&scaled);
            Task::new(id, weight, blocks, demand, arrival as f64)
        })
        .collect();
    if *in_order {
        tasks.sort_by(|x, y| x.arrival.total_cmp(&y.arrival).then(x.id.cmp(&y.id)));
    }
    (grid, caps, tasks)
}

/// Whether `tasks` is in nondecreasing `(arrival, id)` order, as written.
fn ref_in_arrival_order(tasks: &[Task]) -> bool {
    tasks
        .windows(2)
        .all(|w| (w[0].arrival, w[0].id) <= (w[1].arrival, w[1].id))
}

fn spec() -> impl Strategy<Value = Spec> {
    let capacity = weighted(vec![(1, -1.0), (1, 0.0), (1, 0.4), (2, 1.0), (2, 2.5)]);
    // Few distinct demand curves, so whole curves repeat across tasks.
    let demand = floats(0.0..1.2).prop_map(|x| match (x * 100.0) as u32 % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => 0.25,
        _ => x,
    });
    (
        ints(1usize..5),
        bools(),
        bools(),
        vecs(vecs(capacity, 4..5), 1..7),
        vecs(vecs(demand, 4..5), 1..5),
        vecs(
            (
                ints(0usize..4),
                ints(0usize..4),
                ints(0u8..64),
                ints(0u8..3),
            ),
            0..31,
        ),
        bools(),
        // 31 tasks of at most 1.2 · 2⁻⁷ sum below the smallest positive
        // capacity; only `f64::MAX` stays out of reach.
        weighted(vec![(1, 1.0), (1, 2f64.powi(-7))]),
    )
}

/// Whether every requested block has an order where all of `tasks`'
/// demands there, summed and widened by `1 + 4·n·ε`, stay within its
/// limit — DPack's certificate that `CANRUN` takes every task. Summed
/// in index order, where the kernel sums in lanes, so a case at the
/// margin may count on the other side; no result depends on it.
fn ref_fits_jointly(caps: &Caps, tasks: &[Task]) -> bool {
    let widen = 1.0 + 4.0 * tasks.len() as f64 * f64::EPSILON;
    let bound = |a: usize| tasks.iter().map(|t| t.demand.epsilon(a)).sum::<f64>() * widen;
    let fits = |b: &BlockId| {
        let c = &caps[b];
        (0..c.grid().len()).any(|a| c.epsilon(a) > 0.0 && bound(a) <= fit_limit(c.epsilon(a)))
    };
    tasks.iter().flat_map(|t| &t.blocks).all(fits)
}

// ---- Properties. ------------------------------------------------------

fn same(what: &str, got: &dpack_core::Allocation, want: &Outcome) -> PropResult {
    prop_assert_eq!(&got.scheduled, &want.0, "{what}: scheduled ids and order");
    prop_assert_eq!(
        got.total_weight.to_bits(),
        want.1.to_bits(),
        "{what}: total_weight"
    );
    Ok(())
}

/// The efficiency orders of DPack, DPF and greedy area, as the reference
/// builds them.
type Orders = [Vec<usize>; 3];

/// Every scheduler on the dense view against the reference; returns the
/// efficiency orders it held them to.
fn matches_reference(grid: AlphaGrid, caps: Caps, tasks: Vec<Task>) -> Result<Orders, Failed> {
    let state = ProblemState::from_available(grid, caps.clone(), tasks.clone()).unwrap();
    prop_assert_eq!(state.in_arrival_order(), ref_in_arrival_order(&tasks));
    let skip = PackingRule::Skip;

    // DPack: best alphas, Eq. 6, order, CANRUN.
    let best: BTreeMap<BlockId, Option<usize>> = caps
        .keys()
        .map(|b| (*b, ref_best_alpha(&caps, &tasks, *b)))
        .collect();
    let dpack = DPack::default();
    prop_assert_eq!(&dpack.best_alphas(&state), &best);
    prop_assert_eq!(&dpack.best_alphas_threaded(&state, 3), &best);
    let eff: Vec<f64> = tasks
        .iter()
        .map(|t| ref_dpack_efficiency(&caps, t, &best))
        .collect();
    prop_assert_eq!(
        dpack
            .efficiencies(&state, &best)
            .iter()
            .map(|e| e.to_bits())
            .collect::<Vec<_>>(),
        eff.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
    );
    let dpack_order = ref_order(&tasks, &eff);
    let order = &dpack_order;
    prop_assert_eq!(&sort_by_efficiency(&state, &eff), order);
    let want = ref_canrun(&caps, &tasks, order, skip);
    same("DPack", &dpack.schedule(&state), &want)?;
    same(
        "DPack on 3 threads",
        &dpack.schedule_threaded(&state, 3),
        &want,
    )?;
    prop_assert_eq!(&pack(&state, order, skip), &want.0);
    let stop = ref_canrun(&caps, &tasks, order, PackingRule::Stop).0;
    prop_assert_eq!(&pack(&state, order, PackingRule::Stop), &stop);
    let ids = |taken: Vec<usize>| taken.into_iter().map(|t| tasks[t].id).collect::<Vec<_>>();
    prop_assert_eq!(&ids(pack_by_efficiency(&state, &eff, skip)), &want.0);
    let rule = PackingRule::Stop;
    prop_assert_eq!(&ids(pack_by_efficiency(&state, &eff, rule)), &stop);

    // DPF, skip and strict: weight over the largest share.
    let eff: Vec<f64> = tasks
        .iter()
        .map(|t| {
            let dominant = ref_shares(&caps, t).map(|s| s.into_iter().fold(0.0, f64::max));
            ref_metric(t.weight, dominant)
        })
        .collect();
    let dpf_order = ref_order(&tasks, &eff);
    let order = &dpf_order;
    same(
        "DPF",
        &Dpf.schedule(&state),
        &ref_canrun(&caps, &tasks, order, skip),
    )?;
    let strict = ref_canrun(&caps, &tasks, order, PackingRule::Stop);
    same("DPF(strict)", &DpfStrict.schedule(&state), &strict)?;

    // Greedy area: weight over the summed shares.
    let eff: Vec<f64> = tasks
        .iter()
        .map(|t| ref_metric(t.weight, ref_shares(&caps, t).map(|s| s.into_iter().sum())))
        .collect();
    let area_order = ref_order(&tasks, &eff);
    same(
        "GreedyArea",
        &GreedyArea.schedule(&state),
        &ref_canrun(&caps, &tasks, &area_order, skip),
    )?;

    // FCFS: arrival, then id.
    let order = ref_order(&tasks, &vec![0.0; tasks.len()]);
    same(
        "FCFS",
        &Fcfs.schedule(&state),
        &ref_canrun(&caps, &tasks, &order, skip),
    )?;

    Ok([dpack_order, dpf_order, area_order])
}

#[test]
fn dense_schedulers_match_the_literal_algorithm() {
    // Cases of two tasks or more, per path of the efficiency sort, and
    // per path of DPack's packing: walked and packed, or certified.
    let paths = [AtomicU32::new(0), AtomicU32::new(0)];
    let packing = [AtomicU32::new(0), AtomicU32::new(0)];
    check_cases(
        "dense_schedulers_match_the_literal_algorithm",
        CASES,
        spec(),
        |spec| {
            let (grid, caps, tasks) = build(spec);
            let state =
                ProblemState::from_available(grid.clone(), caps.clone(), tasks.clone()).unwrap();
            // Tasks are found by id wherever they sit.
            for (i, t) in tasks.iter().enumerate() {
                prop_assert_eq!(state.index_of(t.id), Some(i));
            }
            prop_assert_eq!(state.task(31), None);
            if tasks.len() > 1 {
                paths[usize::from(state.in_arrival_order())].fetch_add(1, Ordering::Relaxed);
                let certified = spec.2 && ref_fits_jointly(&caps, &tasks);
                packing[usize::from(certified)].fetch_add(1, Ordering::Relaxed);
            }
            matches_reference(grid, caps, tasks).map(drop)
        },
    );
    // A replayed seed or a cut case count may draw one path only.
    for (what, counts) in [
        ("fallback / in-order", paths),
        ("walked / certified", packing),
    ] {
        let [one, other] = counts.map(AtomicU32::into_inner);
        assert!(
            one + other < 64 || one.min(other) > 0,
            "{one} / {other} {what} cases"
        );
    }
}

/// The certificate's margin at work: demands `L`, `u/2`, `u/2` on one
/// block whose limit is `L`, `u = ulp(L)` with `L`'s last bit even. In
/// index order they sum to exactly `L` (each half-ulp add ties to even),
/// but the walk and `CANRUN` add the halves first and reach `L + u`, so
/// the `L` task misfits. The widened sum must not certify the block.
#[test]
fn a_sum_one_ulp_past_the_limit_is_not_certified() {
    let grid = AlphaGrid::single(2.0).unwrap();
    let capacity = [1.0, 1.5, 2.0, 0.8, 3.0]
        .into_iter()
        .find(|c| fit_limit(*c).to_bits() & 1 == 0)
        .expect("a limit with an even last bit");
    let limit = fit_limit(capacity);
    let half_ulp = (limit.next_up() - limit) / 2.0;
    assert_eq!(limit + half_ulp + half_ulp, limit, "index order");
    assert_eq!(half_ulp + half_ulp + limit, limit.next_up(), "walk order");
    let tasks: Vec<Task> = [limit, half_ulp, half_ulp]
        .into_iter()
        .enumerate()
        .map(|(i, d)| Task::new(i as TaskId, 1.0, vec![0], RdpCurve::constant(&grid, d), 0.0))
        .collect();
    let caps: Caps = [(0, RdpCurve::constant(&grid, capacity))].into();
    let state = ProblemState::from_available(grid.clone(), caps.clone(), tasks.clone()).unwrap();
    assert_eq!(DPack::default().schedule(&state).scheduled, vec![1, 2]);
    matches_reference(grid, caps, tasks).unwrap();
}

// ---- Contended passes: the order packed run by run. -------------------

/// Contended instances are large, so they run fewer cases.
const CONTENDED_CASES: u32 = 64;

/// The first run of an efficiency order, as the kernel sizes it: an
/// eighth of the tasks, and at least 256.
fn first_run(n: usize) -> usize {
    (n / 8).max(256).min(n)
}

/// What the kernel meets where it first sifts the unsorted rest of a
/// `Skip` pass over `order`, worked out by the reference for the end of
/// the first run (if that run took a task and met a misfit): how many
/// tasks of the rest request a *full* block (the least demand of any task
/// misfits it at every order) and how many others misfit. Then how many
/// tasks the pass takes past the first run.
fn ref_first_sifting(caps: &Caps, tasks: &[Task], order: &[usize]) -> [usize; 3] {
    let (head, rest) = order.split_at(first_run(order.len()));
    let mut used = Used::new();
    let (mut took, mut misfit) = (false, false);
    for t in head.iter().map(|&i| &tasks[i]) {
        if ref_can_run(caps, &used, t) {
            ref_charge(&mut used, t);
            took = true;
        } else {
            misfit = true;
        }
    }
    let (mut full_block, mut misfits) = (0, 0);
    if took && misfit {
        let orders = caps.values().next().map_or(0, |c| c.grid().len());
        let demands = |a: usize| tasks.iter().map(move |t| t.demand.epsilon(a));
        let least: Vec<f64> = (0..orders)
            .map(|a| demands(a).fold(f64::INFINITY, f64::min))
            .collect();
        let full = |b: &BlockId| {
            let u = |a: usize| used.get(b).map_or(0.0, |u| u[a]);
            (0..orders).all(|a| !fits(u(a) + least[a], caps[b].epsilon(a)))
        };
        for t in rest.iter().map(|&i| &tasks[i]) {
            if t.blocks.iter().any(full) {
                full_block += 1;
            } else if !ref_can_run(caps, &used, t) {
                misfits += 1;
            }
        }
    }
    let mut later = 0;
    for t in rest.iter().map(|&i| &tasks[i]) {
        if ref_can_run(caps, &used, t) {
            ref_charge(&mut used, t);
            later += 1;
        }
    }
    [full_block, misfits, later]
}

/// (orders, capacities, demand palette, exponent palette, tasks as
/// (demand entry, exponent entry, two block picks, arrival), tasks in
/// `(arrival, id)` order).
type Contended = (
    usize,
    Vec<Vec<f64>>,
    Vec<Vec<f64>>,
    Vec<i32>,
    Vec<(usize, usize, u8, u8, u8)>,
    bool,
);

fn contended() -> impl Strategy<Value = Contended> {
    let capacity = weighted(vec![(1, -1.0), (1, 0.4), (3, 1.0), (2, 2.5)]);
    let task = (
        ints(0usize..8),
        ints(0usize..4),
        ints(0u8..6),
        ints(0u8..8),
        ints(0u8..3),
    );
    (
        ints(1usize..5),
        vecs(vecs(capacity, 4..5), 2..7),
        vecs(vecs(floats(0.05..1.0), 4..5), 1..9),
        vecs(ints(0i32..4), 1..4),
        vecs(task, 600..1_500),
        bools(),
    )
}

/// Equal-weight tasks over a few blocks, the low ones hot: a task asks
/// for the lower of its two picks, and for the second too unless it
/// falls past the last block. Its demand is a palette curve scaled by
/// `10^-e`, `e` drawn from the instance's exponent palette, so an
/// instance ranges from packing a few tasks per block to packing
/// hundreds.
fn build_contended(spec: &Contended) -> (AlphaGrid, Caps, Vec<Task>) {
    let (n_orders, caps, palette, exponents, task_specs, in_order) = spec;
    let grid = AlphaGrid::new([2.0, 4.0, 8.0, 16.0][..*n_orders].to_vec()).unwrap();
    let curve = |values: &[f64]| RdpCurve::new(&grid, values[..*n_orders].to_vec()).unwrap();
    let caps: Caps = (0..).zip(caps.iter().map(|c| curve(c))).collect();
    let n_blocks = caps.len() as u8;
    let mut tasks: Vec<Task> = task_specs
        .iter()
        .enumerate()
        .map(|(i, &(entry, exponent, pick, other, arrival))| {
            let mut blocks = vec![BlockId::from(pick.min(other) % n_blocks)];
            if other < n_blocks {
                blocks.push(BlockId::from(other));
            }
            let scale = 0.1f64.powi(exponents[exponent % exponents.len()]);
            let demand: Vec<f64> = palette[entry % palette.len()]
                .iter()
                .map(|d| d * scale)
                .collect();
            // Distinct ids, not in task order.
            let id = (i as TaskId * 7 + 3) % 1_511;
            Task::new(id, 1.0, blocks, curve(&demand), f64::from(arrival))
        })
        .collect();
    if *in_order {
        tasks.sort_by(|x, y| x.arrival.total_cmp(&y.arrival).then(x.id.cmp(&y.id)));
    }
    (grid, caps, tasks)
}

/// Large contended instances, in and out of arrival order, against the
/// reference — the kernel sorts and packs their efficiency orders a run
/// at a time and sifts what can no longer fit out of the unsorted rest.
/// A batch of cases must reach each path of that: a run boundary, a task
/// dropped for requesting a full block, one dropped by the exact test,
/// a task taken past the first run, and a strict DPF pass that stops
/// past it.
#[test]
fn contended_passes_match_the_literal_algorithm() {
    let seen: [AtomicU32; 6] = Default::default();
    check_cases(
        "contended_passes_match_the_literal_algorithm",
        CONTENDED_CASES,
        contended(),
        |spec| {
            let (grid, caps, tasks) = build_contended(spec);
            let n = tasks.len();
            let orders = matches_reference(grid, caps.clone(), tasks.clone())?;
            seen[0].fetch_add(1, Ordering::Relaxed);
            seen[1].fetch_add(u32::from(n > first_run(n)), Ordering::Relaxed);
            for order in &orders {
                let sifted = ref_first_sifting(&caps, &tasks, order);
                for (count, found) in seen[2..5].iter().zip(sifted) {
                    count.fetch_add(u32::from(found > 0), Ordering::Relaxed);
                }
            }
            let stopped_at = ref_canrun(&caps, &tasks, &orders[1], PackingRule::Stop)
                .0
                .len();
            let past_first_run = (first_run(n)..n).contains(&stopped_at);
            seen[5].fetch_add(u32::from(past_first_run), Ordering::Relaxed);
            Ok(())
        },
    );
    let [cases, seen @ ..] = seen.map(AtomicU32::into_inner);
    let paths = [
        "run boundaries",
        "full-block drops",
        "exact drops",
        "takes past the first run",
        "strict stops past the first run",
    ];
    // A replayed seed or a cut case count may miss a path.
    for (what, count) in paths.iter().zip(seen) {
        assert!(cases < 64 || count > 0, "no {what} in {cases} cases");
    }
}

/// With one order DPack's metric is the area metric (Prop. 4), so on
/// single-order grids the two schedulers allocate identically.
#[test]
fn single_order_dpack_is_greedy_area() {
    check_cases("single_order_dpack_is_greedy_area", CASES, spec(), |spec| {
        let mut spec = spec.clone();
        spec.0 = 1;
        let (grid, caps, tasks) = build(&spec);
        let state = ProblemState::from_available(grid, caps, tasks).unwrap();
        let (dpack, area) = (
            DPack::default().schedule(&state),
            GreedyArea.schedule(&state),
        );
        prop_assert_eq!(&dpack.scheduled, &area.scheduled);
        prop_assert_eq!(dpack.total_weight.to_bits(), area.total_weight.to_bits());
        Ok(())
    });
}

#[test]
fn hand_built_block_lists_and_nan_demands() {
    let grid = AlphaGrid::single(2.0).unwrap();
    let blocks = |ids: &[BlockId]| -> Vec<Block> {
        ids.iter()
            .map(|id| Block::new(*id, RdpCurve::constant(&grid, 1.0), 0.0))
            .collect()
    };
    let state = |blocks, task: &Task| ProblemState::new(grid.clone(), blocks, vec![task.clone()]);
    let mut task = Task::new(0, 1.0, vec![5], RdpCurve::constant(&grid, 0.6), 0.0);
    // The fields are public: a block list may bypass `Task::new`'s sort,
    // and is refused (a repeated block would be charged twice).
    task.blocks = vec![9, 5];
    assert!(state(blocks(&[5, 9]), &task).is_err(), "unsorted list");
    task.blocks = vec![5, 5];
    assert!(state(blocks(&[5, 9]), &task).is_err(), "repeated block");
    task.blocks = vec![5, 9];
    let allocation = DPack::default().schedule(&state(blocks(&[5, 9]), &task).unwrap());
    assert_eq!(allocation.scheduled, vec![0]);
    assert!(state(blocks(&[5]), &task).is_err(), "unknown block 9");
    task.demand = RdpCurve::from_fn(&grid, |_| f64::NAN);
    assert!(state(blocks(&[5, 9]), &task).is_err(), "NaN demand");
}

// ---- A long-lived state against a rebuild. ----------------------------

/// Ids, order and `total_weight` bits of every scheduler on `state`.
fn all_schedules(state: &ProblemState) -> Vec<(Vec<TaskId>, u64)> {
    let schedulers: [&dyn Scheduler; 5] = [&DPack::default(), &Dpf, &DpfStrict, &GreedyArea, &Fcfs];
    schedulers
        .iter()
        .map(|s| s.schedule(state))
        .map(|a| (a.scheduled, a.total_weight.to_bits()))
        .collect()
}

/// `state` is what `from_available` builds over `tasks` and `caps`:
/// the same fields — the dense view included; `Debug` prints an `f64`
/// so that it reads back to the same bits, sign of zero and all, and no
/// NaN gets in — the same block map, built from its rows, and the same
/// schedules.
fn same_as_rebuilt(state: &ProblemState, caps: &Caps, tasks: &[Task]) -> PropResult {
    let rebuilt =
        ProblemState::from_available(state.grid().clone(), caps.clone(), tasks.to_vec()).unwrap();
    prop_assert_eq!(format!("{state:?}"), format!("{rebuilt:?}"));
    prop_assert_eq!(state.in_arrival_order(), ref_in_arrival_order(tasks));
    prop_assert_eq!(format!("{:?}", state.blocks()), format!("{caps:?}"));
    for t in tasks {
        prop_assert_eq!(state.index_of(t.id), rebuilt.index_of(t.id));
    }
    prop_assert_eq!(all_schedules(state), all_schedules(&rebuilt));
    Ok(())
}

/// A task no state may take, `kind` picking what is wrong with it; its
/// block list starts with `known`, so a row is under way when the fault
/// is met.
fn unacceptable(grid: &AlphaGrid, known: BlockId, kind: u8) -> Task {
    let fine = RdpCurve::constant(grid, 0.25);
    let curve = |x: f64| RdpCurve::from_fn(grid, |_| x);
    let off_grid = RdpCurve::constant(&AlphaGrid::single(64.0).unwrap(), 0.25);
    let mut task = match kind % 8 {
        0 => Task::new(99, 1.0, vec![known], curve(f64::NAN), 0.0),
        1 => Task::new(99, 1.0, vec![known], curve(-0.25), 0.0),
        2 => Task::new(99, 1.0, vec![known], off_grid, 0.0),
        3 => Task::new(99, 0.0, vec![known], fine, 0.0),
        4 => Task::new(99, f64::NAN, vec![known], fine, 0.0),
        5 => Task::new(99, f64::INFINITY, vec![known], fine, 0.0),
        6 => Task::new(99, 1.0, vec![], fine, 0.0),
        _ => Task::new(99, 1.0, vec![known], fine, 0.0),
    };
    if kind % 8 == 7 {
        task.blocks.push(12_345); // Registered nowhere.
    }
    task
}

/// Sets `state`'s capacities to `caps` through its capacity rows, as
/// the service's ledger fills them.
fn set_caps(state: &mut ProblemState, caps: &Caps) -> Result<(), ProblemError> {
    let orders = state.grid().len();
    state.set_capacity(caps.keys().copied().collect(), |_, rows| {
        for (curve, row) in caps.values().zip(rows.chunks_exact_mut(orders)) {
            row.copy_from_slice(curve.values());
        }
        Ok(())
    })
}

/// A state driven through a drawn sequence of `push_task`,
/// `retain_tasks` and `set_capacity` equals, after every step, the
/// state built from scratch over the tasks and capacities it should
/// hold by then; and a step the state refuses changes nothing, its
/// block map included — a capacity fill that fails after writing every
/// row too.
#[test]
fn a_long_lived_state_equals_a_rebuilt_one() {
    let steps = vecs((ints(0u8..10), ints(0u8..64)), 0..28);
    check_cases(
        "a_long_lived_state_equals_a_rebuilt_one",
        CASES,
        (spec(), steps),
        |(spec, steps)| {
            let (grid, universe, pool) = build(spec);
            let ids: Vec<BlockId> = universe.keys().copied().collect();
            // Every other block to begin with, so later ones come in at
            // the end and in the middle.
            let mut caps: Caps = universe.clone().into_iter().step_by(2).collect();
            let mut tasks: Vec<Task> = Vec::new();
            let mut pool = pool.into_iter();
            // Stragglers take ids above the pool's and ever earlier
            // arrivals.
            let mut stragglers = 0u64;
            let mut state = ProblemState::from_available(grid.clone(), caps.clone(), vec![])
                .expect("no tasks to refuse");
            for &(step, arg) in steps {
                let before = format!("{state:?}");
                match step {
                    // An arrival, asking for what it can of its blocks.
                    0..=2 => {
                        let (Some(mut task), Some(first)) = (pool.next(), caps.keys().next())
                        else {
                            continue;
                        };
                        task.blocks.retain(|b| caps.contains_key(b));
                        if task.blocks.is_empty() {
                            task.blocks.push(*first);
                        }
                        prop_assert_eq!(state.push_task(task.clone()), Ok(()));
                        tasks.push(task);
                    }
                    // A refused arrival.
                    3 => {
                        let known = *caps.keys().next().unwrap_or(&0);
                        let refused = state.push_task(unacceptable(&grid, known, arg));
                        prop_assert!(refused.is_err(), "kind {} was taken", arg % 8);
                        prop_assert_eq!(format!("{state:?}"), before);
                    }
                    // Departures: a drawn pattern, the first, the last, all.
                    4 | 5 => {
                        let n = tasks.len();
                        let keep: Vec<bool> = (0..n)
                            .map(|i| match (step, arg % 3) {
                                (4, _) => arg >> (i % 6) & 1 == 1,
                                (_, 0) => i != 0,
                                (_, 1) => i != n - 1,
                                _ => false,
                            })
                            .collect();
                        state.retain_tasks(&keep);
                        let mut flags = keep.iter();
                        tasks.retain(|_| *flags.next().unwrap());
                    }
                    // A straggler, out of order behind any pending task.
                    8 => {
                        let Some(first) = caps.keys().next() else {
                            continue;
                        };
                        stragglers += 1;
                        let demand = RdpCurve::constant(&grid, f64::from(arg) / 64.0);
                        let arrival = -(stragglers as f64);
                        let task = Task::new(31 + stragglers, 1.5, vec![*first], demand, arrival);
                        prop_assert_eq!(state.push_task(task.clone()), Ok(()));
                        prop_assert!(tasks.is_empty() || !state.in_arrival_order());
                        tasks.push(task);
                    }
                    // Every straggler leaves.
                    9 => {
                        let keep: Vec<bool> = tasks.iter().map(|t| t.id < 32).collect();
                        state.retain_tasks(&keep);
                        tasks.retain(|t| t.id < 32);
                        // What is left of an in-order pool is in order.
                        prop_assert!(!spec.6 || state.in_arrival_order());
                    }
                    // New capacities, with one block more or one less.
                    _ => {
                        let toggled = ids[arg as usize % ids.len()];
                        let mut next: Caps = caps
                            .keys()
                            .map(|b| (*b, universe[&ids[(arg / 8) as usize % ids.len()]].clone()))
                            .collect();
                        if next.remove(&toggled).is_none() {
                            next.insert(toggled, universe[&toggled].clone());
                        }
                        let requested = tasks.iter().any(|t| t.blocks.contains(&toggled));
                        let view = format!("{:?}", state.blocks());
                        let refused = if caps.contains_key(&toggled) && requested {
                            Some(set_caps(&mut state, &next))
                        } else if step == 7 && arg % 2 == 0 {
                            // The ledger meets an id it does not hold
                            // after writing every other row.
                            let ids = next.keys().copied().collect();
                            Some(state.set_capacity(ids, |_, rows| {
                                rows.fill(0.5);
                                Err(ProblemError("block 12345 is not registered".into()))
                            }))
                        } else {
                            prop_assert_eq!(set_caps(&mut state, &next), Ok(()));
                            caps = next;
                            None
                        };
                        if let Some(refused) = refused {
                            prop_assert!(refused.is_err());
                            prop_assert_eq!(format!("{state:?}"), before);
                            prop_assert_eq!(format!("{:?}", state.blocks()), view);
                        }
                    }
                }
                same_as_rebuilt(&state, &caps, &tasks)?;
            }
            Ok(())
        },
    );
}
