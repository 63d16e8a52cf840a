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
//! counts, persisted state, available curves, soundness) by itself, and
//! a snapshot read of a cold block is one resolve and one curve, with
//! no ledger rebuilt. Commits run on hot, full-vector state only:
//! [`BlockStore::ensure_hot`] faults a task's cold blocks back in, and
//! [`BlockStore::spill`] restores the bound afterwards. Both move the
//! consumption between the entry and its summary instead of copying
//! it, so a block changes tier **bit-identically**. A hot entry carries
//! its last-touch epoch and, once it has been cold, its interned
//! capacity id, so a re-spill neither looks up a recency map nor
//! interns again.
//!
//! Where a block lives never changes a bit of what it is, so the
//! ledger (striping, locking, WAL, replication) reads and commits
//! through this one type and never learns which tier served it. The
//! tier writes nothing: the WAL stays the only durability source.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use dp_accounting::{AlphaGrid, CurveId, CurveInterner, RdpCurve};
use dpack_core::online::{self, BlockLedger};
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

/// A hot block: its full entry, plus what the tier keeps beside it.
#[derive(Debug)]
struct HotBlock {
    ledger: BlockLedger,
    /// Last-touch epoch (0 until a tier touches it).
    epoch: u64,
    /// `ledger`'s capacity as interned when the block was last cold;
    /// `None` for an entry that [`BlockStore::put`] placed, whose
    /// capacity the next spill interns.
    total: Option<CurveId>,
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
    /// A spilled entry's summary; its consumption moves in, uncopied.
    /// The one place the tier interns: only an entry that has not been
    /// cold before lacks a capacity id.
    fn summarize(hot: HotBlock) -> Self {
        let (total, arrival, consumed, granted) = hot.ledger.into_parts();
        let total = hot
            .total
            .unwrap_or_else(|| CurveInterner::global().intern(total.values()));
        let consumed = consumed.into_values();
        Self {
            arrival,
            granted,
            total,
            consumed: consumed
                .iter()
                .any(|v| v.to_bits() != 0)
                .then(|| consumed.into_boxed_slice()),
        }
    }

    /// The full entry again, the summary's consumption moved into it
    /// — the parts [`BlockLedger::restore`] takes, exactly the bits the
    /// spilled entry held — carrying the capacity id for the next
    /// spill.
    fn fault_in(self, grid: &AlphaGrid) -> HotBlock {
        let total = CurveInterner::global().resolve(self.total);
        let consumed = match self.consumed {
            Some(bits) => bits.into_vec(),
            None => vec![0.0; total.len()],
        };
        let curve =
            |values| RdpCurve::new(grid, values).expect("a summary holds a ledger's curves");
        let ledger = BlockLedger::restore(
            curve(total.to_vec()),
            self.arrival,
            curve(consumed),
            self.granted,
        )
        .expect("a summary holds a ledger's curves");
        HotBlock {
            ledger,
            epoch: 0,
            total: Some(self.total),
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

    /// The §3.4 available capacity at `now` from the summary alone —
    /// one resolve, one curve — through the function a hot entry's
    /// [`BlockLedger::available`] uses, so the bits are the same.
    fn available(&self, grid: &AlphaGrid, now: f64, period: f64, steps: u32) -> RdpCurve {
        let total = CurveInterner::global().resolve(self.total);
        let frac = online::unlocked_fraction(self.arrival, now, period, steps);
        online::available_from_parts(grid, &total, self.consumed.as_deref(), frac)
    }

    /// [`BlockLedger::is_sound`] on the summary.
    fn is_sound(&self) -> bool {
        let total = CurveInterner::global().resolve(self.total);
        let consumed = |a: usize| self.consumed.as_ref().map_or(0.0, |c| c[a]);
        (0..total.len()).any(|a| dp_accounting::fits(consumed(a), total[a]))
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
    /// The spill's `(epoch, id)` pairs, kept for its next call.
    order: Vec<(u64, BlockId)>,
}

impl TierState {
    /// Bumps a hot block's recency epoch.
    fn touch(&mut self, hot: &mut HotBlock) {
        self.epoch += 1;
        hot.epoch = self.epoch;
    }
}

/// One shard's blocks, whichever tier each lives in. `tier: None` =
/// everything stays hot and `cold` stays empty, the pre-tiering
/// behavior — which is why the untiered suites run unmodified.
#[derive(Debug, Default)]
pub(crate) struct BlockStore {
    hot: BTreeMap<BlockId, HotBlock>,
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
            order: Vec::new(),
        });
        for hot in self.hot.values_mut() {
            hot.epoch = 0;
        }
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
        let hot = self.hot.get(&id);
        &hot.unwrap_or_else(|| panic!("task {task} references unregistered block {id}"))
            .ledger
    }

    /// [`BlockStore::hot`], mutably. The capacity must not change: a
    /// carried capacity id stays the entry's.
    pub(crate) fn hot_mut(&mut self, id: BlockId) -> Option<&mut BlockLedger> {
        self.hot.get_mut(&id).map(|hot| &mut hot.ledger)
    }

    /// Inserts a new block (hot, most recently touched) or replaces a
    /// hot block's entry in place, keeping its recency and dropping its
    /// capacity id (the new entry's capacity may differ).
    pub(crate) fn put(&mut self, id: BlockId, ledger: BlockLedger, meter: &TierMeter) {
        let hot = match self.hot.entry(id) {
            Entry::Occupied(entry) => {
                let hot = entry.into_mut();
                (hot.ledger, hot.total) = (ledger, None);
                return;
            }
            Entry::Vacant(slot) => slot.insert(HotBlock {
                ledger,
                epoch: 0,
                total: None,
            }),
        };
        if let Some(tier) = &mut self.tier {
            tier.touch(hot);
            meter.hot_blocks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Makes block `id` hot for `task`'s commit and marks it touched: a
    /// cold block is restored from its summary ([`ColdBlock::fault_in`]).
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
        let Self { hot, cold, tier } = self;
        let Some(tier) = tier else {
            return;
        };
        let hot = match hot.entry(id) {
            Entry::Occupied(entry) => {
                meter.hits.fetch_add(1, Ordering::Relaxed);
                meter.obs_hits.inc();
                entry.into_mut()
            }
            Entry::Vacant(slot) => {
                let Some(summary) = cold.remove(&id) else {
                    panic!("task {task} references unregistered block {id}");
                };
                meter.faults.fetch_add(1, Ordering::Relaxed);
                meter.hot_blocks.fetch_add(1, Ordering::Relaxed);
                meter.cold_blocks.fetch_sub(1, Ordering::Relaxed);
                meter.obs_faults.inc();
                meter.sync_gauges();
                slot.insert(summary.fault_in(grid))
            }
        };
        tier.touch(hot);
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
        let order = &mut tier.order;
        order.clear();
        order.extend(hot.iter().map(|(id, h)| (h.epoch, *id)));
        // `excess < order.len()`: the low-water mark is at least 1.
        order.select_nth_unstable(excess);
        for (_, id) in &order[..excess] {
            let victim = hot.remove(id).expect("victims come from the hot map");
            cold.insert(*id, ColdBlock::summarize(victim));
        }
        let n = excess as u64;
        meter.spilled.fetch_add(n, Ordering::Relaxed);
        meter.hot_blocks.fetch_sub(n, Ordering::Relaxed);
        meter.cold_blocks.fetch_add(n, Ordering::Relaxed);
        meter.obs_spilled.add(n);
        meter.sync_gauges();
    }

    /// Every registered block's id, hot ones first (id order), then
    /// cold ones (no order).
    pub(crate) fn ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.hot.keys().chain(self.cold.keys()).copied()
    }

    /// One block's §3.4 available capacity at `now` under the unlock
    /// schedule `(period, steps)`, wherever it lives; `None` if it is
    /// not registered here. A cold block is read from its summary:
    /// nothing faults in, no ledger is rebuilt.
    pub(crate) fn available(
        &self,
        id: BlockId,
        grid: &AlphaGrid,
        now: f64,
        period: f64,
        steps: u32,
    ) -> Option<RdpCurve> {
        match self.hot.get(&id) {
            Some(hot) => Some(hot.ledger.available(now, period, steps)),
            None => Some(self.cold.get(&id)?.available(grid, now, period, steps)),
        }
    }

    /// Blocks that break the Prop. 6 invariant ([`BlockLedger::is_sound`]),
    /// hot ones first (id order), then cold ones (no order).
    pub(crate) fn unsound(&self) -> impl Iterator<Item = BlockId> + '_ {
        let hot = self.hot.iter().filter(|(_, hot)| !hot.ledger.is_sound());
        let cold = self.cold.iter().filter(|(_, summary)| !summary.is_sound());
        hot.map(|(id, _)| *id).chain(cold.map(|(id, _)| *id))
    }

    /// Every block's persisted-form state, ascending by id — what
    /// compaction and resync snapshot, exact to the bit. Cold blocks
    /// come from their summaries: no fault-in, no ledger rebuilt.
    pub(crate) fn states(&self) -> Vec<BlockState> {
        let hot = self.hot.iter();
        let mut states: Vec<BlockState> = hot.map(|(id, h)| block_state(*id, &h.ledger)).collect();
        states.extend(self.cold.iter().map(|(id, c)| c.state(*id)));
        states.sort_by_key(|s| s.id);
        states
    }

    /// Demands granted across the store's blocks.
    pub(crate) fn granted(&self) -> u64 {
        let hot: u64 = self.hot.values().map(|h| h.ledger.granted_count()).sum();
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

    /// Fault-in restores a cold block from its summary alone. Drawn
    /// block states — consumption with `-0.0`, all `+0.0`, subnormals
    /// and values on either side of the filter's tolerance edge, any
    /// grant count — registered, spilled, faulted back, charged and
    /// replaced (a `put` over a hot entry, with another capacity) in a
    /// tiered store read and decide exactly like in an untiered twin:
    /// states, the available curves the cycle reads
    /// ([`BlockStore::available`], cold blocks from their summaries),
    /// check outcomes and soundness, bit for bit; and every capacity id
    /// a hot entry carries resolves to its capacity's bits.
    #[test]
    fn faulted_blocks_match_an_untiered_twin() {
        let block = (
            ints(0usize..TOTALS.len()),
            bools(),
            vecs(ints(0u8..7), 3..4),
            weighted(vec![(2, 0u64), (1, 1), (1, 7), (1, 1 << 40)]),
            weighted(vec![(1, 0.0), (1, -0.0), (1, 0.75), (1, 2.5)]),
        );
        // A charge, or (3 in 8) a `put` replacing the block's entry
        // with a fresh one on capacity `TOTALS[k]`.
        let replace = weighted(vec![
            (5, None),
            (1, Some(0usize)),
            (1, Some(1)),
            (1, Some(2)),
        ]);
        let op = (
            ints(0u64..12),
            vecs(ints(0u8..6), 3..4),
            ints(0u32..8),
            replace,
        );
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
                for (i, (pick, demand, now, replace)) in ops.iter().enumerate() {
                    let (task, id) = (i as TaskId, pick % n);
                    let values = demand.iter().map(|p| demand_entry(*p)).collect();
                    let demand = RdpCurve::new(&grid, values).unwrap();
                    let decide = |store: &mut BlockStore, meter: &TierMeter| {
                        store.ensure_hot(task, id, &grid, meter);
                        let granted = store.hot(task, id).check(&demand);
                        match replace {
                            Some(k) => {
                                let total = RdpCurve::new(&grid, TOTALS[*k].to_vec()).unwrap();
                                let fresh = dpack_core::problem::Block::new(id, total, 0.5);
                                store.put(id, BlockLedger::new(fresh), meter);
                            }
                            None if granted => {
                                store.hot_mut(id).unwrap().commit(&demand).unwrap();
                            }
                            None => {}
                        }
                        store.spill(meter);
                        granted
                    };
                    let granted = decide(&mut plain, &plain_meter);
                    prop_assert_eq!(decide(&mut tiered, &meter), granted, "op {}", i);
                    prop_assert!(tiered.hot.len() <= *hot_capacity, "op {i}");
                    for (b, hot) in &tiered.hot {
                        if let Some(total) = hot.total {
                            let carried = CurveInterner::global().resolve(total);
                            let bits =
                                |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            let held = bits(hot.ledger.total().values());
                            prop_assert_eq!(bits(&carried), held, "op {} block {}", i, b);
                        }
                    }

                    let now = 0.5 * f64::from(*now);
                    let view = |store: &BlockStore| {
                        (0..n)
                            .map(|b| {
                                let available = store.available(b, &grid, now, 1.0, *unlock_steps);
                                available.map(|c| c.values().iter().map(|v| v.to_bits()).collect())
                            })
                            .collect::<Vec<Option<Vec<u64>>>>()
                    };
                    prop_assert_eq!(view(&tiered), view(&plain), "op {}", i);
                    let unsound = |store: &BlockStore| {
                        let mut ids: Vec<BlockId> = store.unsound().collect();
                        ids.sort_unstable();
                        ids
                    };
                    prop_assert_eq!(unsound(&tiered), unsound(&plain), "op {}", i);
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
