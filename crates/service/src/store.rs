//! One shard's block storage: the hot map and, on a tiered ledger, the
//! cold tier behind it.
//!
//! A [`BlockStore`] holds every [`BlockLedger`] of one ledger shard.
//! Untiered, that is one in-memory map. Tiered
//! ([`BlockStore::enable_tier`]), at most `hot_capacity` blocks stay in
//! the map; the least recently touched are swapped for a [`ColdBlock`]
//! summary — arrival, grant count, interned capacity and the
//! consumption bits verbatim. The summary *is* the cold tier: it holds
//! every bit of the block, so it answers every read (existence, grant
//! counts, persisted state, available curves, soundness) and rebuilds
//! the full entry **bit-identically**, with no copy anywhere else.
//! Commits run on hot, full-vector state only:
//! [`BlockStore::ensure_hot`] faults a task's cold blocks back in, and
//! [`BlockStore::spill`] restores the bound afterwards.
//!
//! Where a block lives never changes a bit of what it is, so the
//! ledger (striping, locking, WAL, replication) reads and commits
//! through this one type and never learns which tier served it. The
//! tier writes nothing: the WAL stays the only durability source.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use dp_accounting::{AlphaGrid, CurveId, CurveInterner};
use dpack_core::online::BlockLedger;
use dpack_core::problem::{BlockId, TaskId};
use dpack_obs::{Counter, Gauge, Obs};

use crate::config::TierConfig;
use crate::durability::BlockState;

/// Point-in-time tier occupancy and cumulative traffic (see
/// [`crate::ShardedLedger::tier_activity`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierActivity {
    /// Blocks currently in the hot (in-memory) working set.
    pub hot_blocks: u64,
    /// Blocks currently spilled cold.
    pub cold_blocks: u64,
    /// Commit-path accesses served from the hot set.
    pub hits: u64,
    /// Commit-path accesses that faulted a cold block in.
    pub faults: u64,
    /// Blocks ever spilled (a block re-spilled counts again).
    pub spilled: u64,
    /// Always 0: a spill or fault does no I/O and cannot fail. Kept
    /// because the benchmark crate checks it.
    pub spill_failures: u64,
    /// Always 0: nothing is spilled to disk. Kept because the
    /// benchmark crate reports it.
    pub spill_bytes: u64,
}

/// Tier occupancy and traffic summed over every shard's store, plus
/// the `dpack_tier_*` families mirroring them (no-op handles until
/// [`TierMeter::instrument`], so [`TierMeter::activity`] works
/// un-instrumented). One per ledger, shared by its stores: the
/// occupancy gauges are last-write-wins, so they need the ledger-wide
/// totals, not one shard's.
#[derive(Debug, Default)]
pub(crate) struct TierMeter {
    hits: AtomicU64,
    faults: AtomicU64,
    spilled: AtomicU64,
    hot_blocks: AtomicU64,
    cold_blocks: AtomicU64,
    obs_hits: Counter,
    obs_faults: Counter,
    obs_spilled: Counter,
    obs_hot: Gauge,
    obs_cold: Gauge,
}

impl TierMeter {
    /// Registers the tier families — unconditionally, so scrapes always
    /// expose them; they only move on a tiered ledger.
    pub(crate) fn instrument(&mut self, obs: &Obs) {
        self.obs_hits = obs.registry.counter("dpack_tier_hits_total", "");
        self.obs_faults = obs.registry.counter("dpack_tier_faults_total", "");
        self.obs_spilled = obs.registry.counter("dpack_tier_spilled_total", "");
        self.obs_hot = obs.registry.gauge("dpack_tier_hot_blocks", "");
        self.obs_cold = obs.registry.gauge("dpack_tier_cold_blocks", "");
        self.sync_gauges();
    }

    /// The counters as a [`TierActivity`].
    pub(crate) fn activity(&self) -> TierActivity {
        TierActivity {
            hot_blocks: self.hot_blocks.load(Ordering::Relaxed),
            cold_blocks: self.cold_blocks.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            ..TierActivity::default()
        }
    }

    fn sync_gauges(&self) {
        self.obs_hot
            .set_u64(self.hot_blocks.load(Ordering::Relaxed));
        self.obs_cold
            .set_u64(self.cold_blocks.load(Ordering::Relaxed));
    }
}

/// A spilled block, whole. The capacity curve is interned — a million
/// blocks share a handful of capacity policies, so `total` is a 4-byte
/// [`CurveId`] — while the consumption bits, which differ per block,
/// are kept verbatim, and not at all for a block whose consumption is
/// still exactly zero. The summary never changes while cold: commits
/// fault the block in first, so all consumption arithmetic happens in
/// hot, full-vector form.
#[derive(Debug)]
struct ColdBlock {
    arrival: f64,
    granted: u64,
    total: CurveId,
    /// `None` = all `+0.0`.
    consumed: Option<Box<[f64]>>,
}

impl ColdBlock {
    fn summarize(b: &BlockLedger) -> Self {
        let consumed = b.consumed().values();
        Self {
            arrival: b.arrival(),
            granted: b.granted_count(),
            total: CurveInterner::global().intern(b.total().values()),
            consumed: consumed
                .iter()
                .any(|v| v.to_bits() != 0)
                .then(|| consumed.into()),
        }
    }

    /// The persisted-form state, exact bits.
    fn state(&self, id: BlockId) -> BlockState {
        let total = CurveInterner::global().resolve(self.total).to_vec();
        let consumed = match &self.consumed {
            Some(bits) => bits.to_vec(),
            None => vec![0.0; total.len()],
        };
        BlockState {
            id,
            arrival: self.arrival,
            total,
            consumed,
            granted: self.granted,
        }
    }

    /// Rebuilt as a [`BlockLedger`] — the *same* restore path recovery
    /// uses, which is what makes every derived quantity (available
    /// curves, soundness) bit-identical to the pre-spill hot state.
    fn ledger(&self, id: BlockId, grid: &AlphaGrid) -> BlockLedger {
        self.state(id)
            .to_ledger(grid)
            .expect("spilled state was a valid ledger")
    }
}

/// What a tiered store keeps beside its two maps, inside the shard
/// mutex like everything else the commit paths mutate.
#[derive(Debug)]
struct TierState {
    /// Spill once the hot map exceeds this…
    hot_capacity: usize,
    /// …down to this (< `hot_capacity`, so spills batch).
    low_water: usize,
    /// Recency clock: bumped on every touch.
    epoch: u64,
    /// Hot block → last-touch epoch (keys mirror the hot map).
    touch: BTreeMap<BlockId, u64>,
}

impl TierState {
    /// Bumps a hot block's recency epoch.
    fn touch(&mut self, id: BlockId) {
        self.epoch += 1;
        self.touch.insert(id, self.epoch);
    }
}

/// One shard's blocks, whichever tier each lives in. `tier: None` =
/// everything stays hot and `cold` stays empty, the pre-tiering
/// behavior — which is why the untiered suites run unmodified.
#[derive(Debug, Default)]
pub(crate) struct BlockStore {
    hot: BTreeMap<BlockId, BlockLedger>,
    /// Spilled block → its summary. A hash map: at million-block scale
    /// the fault/spill paths hit this once per cold access, and no
    /// caller depends on its order (collectors sort where it shows).
    cold: HashMap<BlockId, ColdBlock>,
    tier: Option<TierState>,
}

impl BlockStore {
    /// Puts a cold tier behind this store: a hot set bounded by
    /// [`TierConfig::hot_capacity`] from here on. A store that already
    /// holds more (recovery materializes everything hot) spills down to
    /// the bound right away.
    pub(crate) fn enable_tier(&mut self, config: TierConfig, meter: &TierMeter) {
        let hot_capacity = config.hot_capacity.max(1);
        self.tier = Some(TierState {
            hot_capacity,
            low_water: hot_capacity - hot_capacity / 8,
            epoch: 0,
            touch: self.hot.keys().map(|id| (*id, 0)).collect(),
        });
        meter
            .hot_blocks
            .fetch_add(self.hot.len() as u64, Ordering::Relaxed);
        self.spill(meter);
    }

    /// Whether a block is registered (in either tier).
    pub(crate) fn contains(&self, id: BlockId) -> bool {
        self.hot.contains_key(&id) || self.cold.contains_key(&id)
    }

    /// Registered blocks, hot and cold.
    pub(crate) fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// A block the commit paths can check and charge: hot ones only
    /// (see [`BlockStore::ensure_hot`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hot: `task` references an unregistered
    /// block (admission validates block existence, and blocks are
    /// never removed).
    pub(crate) fn hot(&self, task: TaskId, id: BlockId) -> &BlockLedger {
        self.hot
            .get(&id)
            .unwrap_or_else(|| panic!("task {task} references unregistered block {id}"))
    }

    /// [`BlockStore::hot`], mutably.
    pub(crate) fn hot_mut(&mut self, id: BlockId) -> Option<&mut BlockLedger> {
        self.hot.get_mut(&id)
    }

    /// Inserts a new block (hot, most recently touched) or replaces a
    /// hot block's entry in place.
    pub(crate) fn put(&mut self, id: BlockId, entry: BlockLedger, meter: &TierMeter) {
        if self.hot.insert(id, entry).is_some() {
            return;
        }
        if let Some(tier) = &mut self.tier {
            tier.touch(id);
            meter.hot_blocks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Makes block `id` hot for `task`'s commit and marks it touched: a
    /// cold block is rebuilt from its summary ([`ColdBlock::ledger`]).
    /// Untiered, every block is hot already.
    ///
    /// # Panics
    ///
    /// Panics if the block is in neither tier, like [`BlockStore::hot`].
    pub(crate) fn ensure_hot(
        &mut self,
        task: TaskId,
        id: BlockId,
        grid: &AlphaGrid,
        meter: &TierMeter,
    ) {
        let Some(tier) = &mut self.tier else {
            return;
        };
        if self.hot.contains_key(&id) {
            meter.hits.fetch_add(1, Ordering::Relaxed);
            meter.obs_hits.inc();
        } else {
            let Some(cold) = self.cold.remove(&id) else {
                panic!("task {task} references unregistered block {id}");
            };
            self.hot.insert(id, cold.ledger(id, grid));
            meter.faults.fetch_add(1, Ordering::Relaxed);
            meter.hot_blocks.fetch_add(1, Ordering::Relaxed);
            meter.cold_blocks.fetch_sub(1, Ordering::Relaxed);
            meter.obs_faults.inc();
            meter.sync_gauges();
        }
        tier.touch(id);
    }

    /// Spills least-recently-touched hot blocks down to the low-water
    /// mark once the hot map exceeds its bound, swapping each for its
    /// summary.
    pub(crate) fn spill(&mut self, meter: &TierMeter) {
        let Self { hot, cold, tier } = self;
        let Some(tier) = tier else {
            return;
        };
        if hot.len() <= tier.hot_capacity {
            return;
        }
        let excess = hot.len() - tier.low_water.min(tier.hot_capacity);
        let mut order: Vec<(u64, BlockId)> = tier.touch.iter().map(|(id, e)| (*e, *id)).collect();
        // `excess < order.len()`: the low-water mark is at least 1.
        order.select_nth_unstable(excess);
        for (_, id) in &order[..excess] {
            let b = hot.remove(id).expect("victims come from the hot map");
            tier.touch.remove(id);
            cold.insert(*id, ColdBlock::summarize(&b));
        }
        let n = excess as u64;
        meter.spilled.fetch_add(n, Ordering::Relaxed);
        meter.hot_blocks.fetch_sub(n, Ordering::Relaxed);
        meter.cold_blocks.fetch_add(n, Ordering::Relaxed);
        meter.obs_spilled.add(n);
        meter.sync_gauges();
    }

    /// Applies `read` to one block wherever it lives; `None` if it is
    /// not registered here. A cold block is rebuilt from its summary
    /// for the call — same bits as the hot entry had.
    pub(crate) fn with_block<R>(
        &self,
        id: BlockId,
        grid: &AlphaGrid,
        read: impl FnOnce(&BlockLedger) -> R,
    ) -> Option<R> {
        match self.hot.get(&id) {
            Some(b) => Some(read(b)),
            None => Some(read(&self.cold.get(&id)?.ledger(id, grid))),
        }
    }

    /// [`BlockStore::with_block`] over every block, hot ones first (id
    /// order), then cold ones (no order).
    pub(crate) fn for_each(&self, grid: &AlphaGrid, mut read: impl FnMut(BlockId, &BlockLedger)) {
        for (id, b) in &self.hot {
            read(*id, b);
        }
        for (id, cold) in &self.cold {
            read(*id, &cold.ledger(*id, grid));
        }
    }

    /// Every block's persisted-form state, ascending by id — what
    /// compaction and resync snapshot, exact to the bit. Cold blocks
    /// come from their summaries: no fault-in, no ledger rebuilt.
    pub(crate) fn states(&self) -> Vec<BlockState> {
        let mut states: Vec<BlockState> =
            self.hot.iter().map(|(id, b)| block_state(*id, b)).collect();
        states.extend(self.cold.iter().map(|(id, c)| c.state(*id)));
        states.sort_by_key(|s| s.id);
        states
    }

    /// Demands granted across the store's blocks.
    pub(crate) fn granted(&self) -> u64 {
        let hot: u64 = self.hot.values().map(BlockLedger::granted_count).sum();
        let cold: u64 = self.cold.values().map(|c| c.granted).sum();
        hot + cold
    }
}

fn block_state(id: BlockId, b: &BlockLedger) -> BlockState {
    BlockState {
        id,
        arrival: b.arrival(),
        total: b.total().values().to_vec(),
        consumed: b.consumed().values().to_vec(),
        granted: b.granted_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{fit_limit, RdpCurve, BUDGET_RTOL};
    use dpack_check::{bools, check_cases, ints, prop_assert, prop_assert_eq, vecs, weighted};

    /// The capacity curves drawn blocks share: the tier interns them,
    /// and the process-wide interner never frees.
    const TOTALS: [[f64; 3]; 3] = [[1.0; 3], [0.5, 2.0, 10.0], [-0.25, 1e-3, 3.0]];

    /// One consumption entry against capacity `cap`, by pick: the bit
    /// patterns a summary must carry verbatim.
    fn consumed_entry(pick: u8, cap: f64) -> f64 {
        let edge = fit_limit(cap);
        match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(1),
            3 => -f64::from_bits(0x000f_ffff_ffff_ffff),
            4 => edge,           // Still fits `cap`…
            5 => edge.next_up(), // …and no longer does.
            _ => 0.37 * cap,
        }
    }

    fn demand_entry(pick: u8) -> f64 {
        [0.0, f64::from_bits(1), BUDGET_RTOL, 0.2, 0.6, 1.5][usize::from(pick)]
    }

    /// Every field of every state as bits, so `==` is bit identity.
    fn state_bits(states: &[BlockState]) -> Vec<Vec<u64>> {
        let state = |s: &BlockState| {
            let head = [s.id, s.arrival.to_bits(), s.granted];
            let curves = s.total.iter().chain(&s.consumed).map(|v| v.to_bits());
            head.into_iter().chain(curves).collect()
        };
        states.iter().map(state).collect()
    }

    /// Fault-in rebuilds a cold block from its summary alone. Drawn
    /// block states — consumption with `-0.0`, all `+0.0`, subnormals
    /// and values on either side of the filter's tolerance edge, any
    /// grant count — registered, spilled, faulted back and charged in a
    /// tiered store read and decide exactly like in an untiered twin:
    /// states, available curves and check outcomes, bit for bit.
    #[test]
    fn faulted_blocks_match_an_untiered_twin() {
        let block = (
            ints(0usize..TOTALS.len()),
            bools(),
            vecs(ints(0u8..7), 3..4),
            weighted(vec![(2, 0u64), (1, 1), (1, 7), (1, 1 << 40)]),
            weighted(vec![(1, 0.0), (1, -0.0), (1, 0.75), (1, 2.5)]),
        );
        let op = (ints(0u64..12), vecs(ints(0u8..6), 3..4), ints(0u32..8));
        check_cases(
            "faulted_blocks_match_an_untiered_twin",
            64,
            (
                weighted(vec![(1, 1usize), (1, 2), (1, 7)]),
                bools(),
                ints(1u32..5),
                vecs(block, 1..12),
                vecs(op, 1..40),
            ),
            |(hot_capacity, late, unlock_steps, blocks, ops)| {
                let grid = AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap();
                let config = TierConfig {
                    hot_capacity: *hot_capacity,
                };
                let (meter, plain_meter) = (TierMeter::default(), TierMeter::default());
                let (mut tiered, mut plain) = (BlockStore::default(), BlockStore::default());
                if !*late {
                    tiered.enable_tier(config, &meter);
                }
                let drawn: Vec<BlockState> = blocks
                    .iter()
                    .enumerate()
                    .map(|(id, (total, fresh, picks, granted, arrival))| {
                        let total = TOTALS[*total].to_vec();
                        let consumed = match fresh {
                            true => vec![0.0; total.len()],
                            false => picks
                                .iter()
                                .zip(&total)
                                .map(|(pick, cap)| consumed_entry(*pick, *cap))
                                .collect(),
                        };
                        BlockState {
                            id: id as BlockId,
                            arrival: *arrival,
                            total,
                            consumed,
                            granted: *granted,
                        }
                    })
                    .collect();
                for state in &drawn {
                    let entry = || state.to_ledger(&grid).unwrap();
                    tiered.put(state.id, entry(), &meter);
                    tiered.spill(&meter);
                    plain.put(state.id, entry(), &plain_meter);
                }
                if *late {
                    tiered.enable_tier(config, &meter);
                }
                prop_assert_eq!(state_bits(&tiered.states()), state_bits(&drawn));

                let n = drawn.len() as BlockId;
                for (i, (pick, demand, now)) in ops.iter().enumerate() {
                    let (task, id) = (i as TaskId, pick % n);
                    let values = demand.iter().map(|p| demand_entry(*p)).collect();
                    let demand = RdpCurve::new(&grid, values).unwrap();
                    let decide = |store: &mut BlockStore, meter: &TierMeter| {
                        store.ensure_hot(task, id, &grid, meter);
                        let granted = store.hot(task, id).check(&demand);
                        if granted {
                            store.hot_mut(id).unwrap().commit(&demand).unwrap();
                        }
                        store.spill(meter);
                        granted
                    };
                    let granted = decide(&mut plain, &plain_meter);
                    prop_assert_eq!(decide(&mut tiered, &meter), granted, "op {}", i);
                    prop_assert!(tiered.hot.len() <= *hot_capacity, "op {i}");

                    let now = 0.5 * f64::from(*now);
                    let view = |store: &BlockStore| {
                        (0..n)
                            .map(|b| {
                                store.with_block(b, &grid, |l| {
                                    let available = l.available(now, 1.0, *unlock_steps);
                                    let bits = available.values().iter().map(|v| v.to_bits());
                                    (bits.collect::<Vec<_>>(), l.check(&demand), l.is_sound())
                                })
                            })
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(view(&tiered), view(&plain), "op {}", i);
                    let states = state_bits(&tiered.states());
                    prop_assert_eq!(states, state_bits(&plain.states()), "op {}", i);
                    prop_assert_eq!(tiered.granted(), plain.granted());
                }
                let a = meter.activity();
                prop_assert_eq!(a.hot_blocks + a.cold_blocks, n);
                prop_assert_eq!(a.hits + a.faults, ops.len() as u64);
                Ok(())
            },
        );
    }
}
