//! One shard's block storage: every block in one compact entry.
//!
//! A [`BlockStore`] maps each block of one ledger shard to a
//! [`BlockEntry`] — arrival, grant count, the interned capacity id, and
//! the consumption bits, which stay `None` until the block's first
//! charge. The entry *is* the block: it is checked, charged,
//! snapshotted, persisted and restored in place, with the filter
//! arithmetic of `dp_accounting::RenyiFilter` to the bit — a demand is
//! granted iff some order has `fits(u + d, c)`, and a charge is
//! `u += d` from `+0.0` — and the §3.4 available capacity through
//! [`online::write_available`], so a store answers exactly like
//! core's `BlockLedger`, the `OnlineEngine`'s reference model.
//!
//! A million blocks share a handful of capacity policies, so an entry
//! keeps its capacity as a 4-byte [`CurveId`] from the process-wide
//! interner, and the store resolves each distinct id once, under the
//! shard lock, into its own table: checks, charges and snapshots read
//! that table and never take the interner's lock.

use std::collections::HashMap;
use std::sync::Arc;

use dp_accounting::{fits, AlphaGrid, CurveId, CurveInterner, RdpCurve};
use dpack_core::online;
use dpack_core::problem::{Block, BlockId};

use crate::durability::BlockState;

/// One block, whole: 40 bytes plus, once charged, its consumption.
#[derive(Debug, Clone)]
pub(crate) struct BlockEntry {
    arrival: f64,
    granted: u64,
    /// `None` = never charged: `+0.0` at every order.
    consumed: Option<Box<[f64]>>,
    total: CurveId,
}

impl BlockEntry {
    /// Consumption at order `a`.
    fn used(&self, a: usize) -> f64 {
        self.consumed.as_ref().map_or(0.0, |c| c[a])
    }

    /// Whether some order stays within capacity `total` after charging
    /// `demand`.
    fn has_room(&self, total: &[f64], demand: &[f64]) -> bool {
        let mut orders = demand.iter().zip(total).enumerate();
        orders.any(|(a, (d, c))| fits(self.used(a) + d, *c))
    }
}

/// One shard's blocks, and the capacities they resolve to.
#[derive(Debug, Default)]
pub(crate) struct BlockStore {
    /// A hash map: at million-block scale every check and charge probes
    /// it, and no caller depends on its order (collectors sort where it
    /// shows).
    blocks: HashMap<BlockId, BlockEntry>,
    /// The resolved capacity of every [`CurveId`] an entry here
    /// carries.
    capacities: Capacities,
}

/// Resolved capacities: slot `id.get() - 1` holds capacity `id`.
#[derive(Debug, Default)]
struct Capacities(Vec<Option<Arc<[f64]>>>);

impl Capacities {
    /// Capacity `id`.
    fn get(&self, id: CurveId) -> &[f64] {
        let slot = &self.0[id.get() as usize - 1];
        slot.as_deref()
            .expect("put resolves every capacity it interns")
    }
}

impl BlockStore {
    /// Registers a newly arrived block, never charged.
    pub(crate) fn register(&mut self, block: &Block) {
        self.put(block.id, block.arrival, block.capacity.values(), None, 0);
    }

    /// Restores a block from its persisted state, exact bits; a
    /// consumption of `+0.0` at every order is kept as none at all.
    pub(crate) fn restore(&mut self, state: BlockState) {
        let consumed = state.consumed.iter().any(|v| v.to_bits() != 0);
        let consumed = consumed.then(|| state.consumed.into_boxed_slice());
        let (id, arrival, granted) = (state.id, state.arrival, state.granted);
        self.put(id, arrival, &state.total, consumed, granted);
    }

    /// The one entry constructor, and the one place the store interns:
    /// a capacity is resolved into the store's table the first time an
    /// entry here carries it. Replaces any entry `id` had.
    fn put(
        &mut self,
        id: BlockId,
        arrival: f64,
        total: &[f64],
        consumed: Option<Box<[f64]>>,
        granted: u64,
    ) {
        let interner = CurveInterner::global();
        let total = interner.intern(total);
        let (slots, slot) = (&mut self.capacities.0, total.get() as usize - 1);
        if slots.len() <= slot {
            slots.resize(slot + 1, None);
        }
        slots[slot].get_or_insert_with(|| interner.resolve(total));
        let entry = BlockEntry {
            arrival,
            granted,
            consumed,
            total,
        };
        self.blocks.insert(id, entry);
    }

    /// Whether a block is registered here.
    pub(crate) fn contains(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Registered blocks.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether block `id`'s filter grants `demand` (values on the
    /// block's grid): some order stays within capacity after the charge.
    /// `None` if the block is not registered here.
    pub(crate) fn grants(&self, id: BlockId, demand: &[f64]) -> Option<bool> {
        let entry = self.blocks.get(&id)?;
        Some(entry.has_room(self.capacities.get(entry.total), demand))
    }

    /// Charges `demand` on block `id` if its filter grants it, and
    /// counts the grant; `false` (nothing changed) if it does not.
    ///
    /// # Panics
    ///
    /// Panics if the block is not registered here.
    pub(crate) fn charge(&mut self, id: BlockId, demand: &[f64]) -> bool {
        let entry = self.blocks.get_mut(&id);
        let entry = entry.expect("charged blocks are registered");
        if !entry.has_room(self.capacities.get(entry.total), demand) {
            return false;
        }
        let consumed = entry
            .consumed
            .get_or_insert_with(|| vec![0.0; demand.len()].into_boxed_slice());
        for (u, d) in consumed.iter_mut().zip(demand) {
            *u += d;
        }
        entry.granted += 1;
        true
    }

    /// Block `id`'s entry as it is now — a pre-image a failed durable
    /// step puts back with [`BlockStore::reinstate`].
    pub(crate) fn entry(&self, id: BlockId) -> Option<&BlockEntry> {
        self.blocks.get(&id)
    }

    /// Puts back an entry [`BlockStore::entry`] took from this store.
    pub(crate) fn reinstate(&mut self, id: BlockId, entry: BlockEntry) {
        self.blocks.insert(id, entry);
    }

    /// Writes block `id`'s §3.4 available capacity at `now` under the
    /// unlock schedule `(period, steps)` into `row`, one value per order;
    /// `None` if it is not registered here.
    pub(crate) fn write_available(
        &self,
        id: BlockId,
        now: f64,
        period: f64,
        steps: u32,
        row: &mut [f64],
    ) -> Option<()> {
        let entry = self.blocks.get(&id)?;
        let frac = online::unlocked_fraction(entry.arrival, now, period, steps);
        let total = self.capacities.get(entry.total);
        online::write_available(total, entry.consumed.as_deref(), frac, row);
        Some(())
    }

    /// The §3.4 available capacity of every block here, in no order —
    /// [`BlockStore::write_available`]'s values as curves.
    pub(crate) fn available_all<'a>(
        &'a self,
        grid: &'a AlphaGrid,
        now: f64,
        period: f64,
        steps: u32,
    ) -> impl Iterator<Item = (BlockId, RdpCurve)> + 'a {
        self.blocks.iter().map(move |(id, e)| {
            let frac = online::unlocked_fraction(e.arrival, now, period, steps);
            let total = self.capacities.get(e.total);
            let available = online::available_from_parts(grid, total, e.consumed.as_deref(), frac);
            (*id, available)
        })
    }

    /// Blocks that break the Prop. 6 invariant — no order's consumption
    /// within its capacity — in no order.
    pub(crate) fn unsound(&self) -> impl Iterator<Item = BlockId> + '_ {
        let sound = |e: &BlockEntry| {
            let total = self.capacities.get(e.total);
            (0..total.len()).any(|a| fits(e.used(a), total[a]))
        };
        let blocks = self.blocks.iter();
        blocks.filter(move |(_, e)| !sound(e)).map(|(id, _)| *id)
    }

    /// Every block's persisted-form state, ascending by id — what
    /// compaction and resync snapshot, exact to the bit.
    pub(crate) fn states(&self) -> Vec<BlockState> {
        let state = |(id, e): (&BlockId, &BlockEntry)| {
            let total = self.capacities.get(e.total).to_vec();
            let consumed = match &e.consumed {
                Some(bits) => bits.to_vec(),
                None => vec![0.0; total.len()],
            };
            BlockState {
                id: *id,
                arrival: e.arrival,
                total,
                consumed,
                granted: e.granted,
            }
        };
        let mut states: Vec<BlockState> = self.blocks.iter().map(state).collect();
        states.sort_by_key(|s| s.id);
        states
    }

    /// Demands granted across the store's blocks.
    pub(crate) fn granted(&self) -> u64 {
        self.blocks.values().map(|e| e.granted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{fit_limit, BUDGET_RTOL};
    use dpack_check::{check_cases, ints, prop_assert_eq, vecs, weighted};
    use dpack_core::online::BlockLedger;
    use std::collections::BTreeMap;

    /// The capacity curves drawn blocks share: the store interns them,
    /// and the process-wide interner never frees.
    const TOTALS: [[f64; 3]; 3] = [[1.0; 3], [0.5, 2.0, 10.0], [-0.25, 1e-3, 3.0]];

    /// One consumption entry against capacity `cap`, by pick: the bit
    /// patterns an entry must carry verbatim.
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

    /// One demand entry, by pick: `-0.0` is chargeable (admission
    /// accepts it), and `+0.0 + -0.0` is `+0.0`.
    fn demand_entry(pick: u8) -> f64 {
        [0.0, -0.0, f64::from_bits(1), BUDGET_RTOL, 0.2, 0.6, 1.5][usize::from(pick)]
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

    fn bits(curve: &RdpCurve) -> Vec<u64> {
        curve.values().iter().map(|v| v.to_bits()).collect()
    }

    /// How a drawn block enters the store.
    #[derive(Debug, Clone, Copy)]
    enum Origin {
        /// [`BlockStore::register`]: never charged.
        Registered,
        /// [`BlockStore::restore`] of a state consuming `+0.0`
        /// everywhere.
        Zero,
        /// [`BlockStore::restore`] of drawn consumption bits.
        Drawn,
    }

    /// The one block form decides and reads exactly like core's
    /// `BlockLedger`, the reference model. Drawn block states —
    /// consumption with `-0.0`, all `+0.0`, subnormals, `fit_limit(c)`
    /// and `fit_limit(c).next_up()`, any grant count — registered or
    /// restored, then charged with drawn demands (`-0.0` entries
    /// included) or re-registered over their id on another capacity,
    /// agree with a `BlockLedger` twin after every step: check outcome,
    /// charge outcome, the available capacity at several `now` (as a
    /// written row and as a curve), soundness and the persisted states,
    /// bit for bit.
    #[test]
    fn entries_match_the_block_ledger_bit_for_bit() {
        let origin = weighted(vec![
            (1, Origin::Registered),
            (1, Origin::Zero),
            (2, Origin::Drawn),
        ]);
        let block = (
            ints(0usize..TOTALS.len()),
            origin,
            vecs(ints(0u8..7), 3..4),
            weighted(vec![(2, 0u64), (1, 1), (1, 7), (1, 1 << 40)]),
            weighted(vec![(1, 0.0), (1, -0.0), (1, 0.75), (1, 2.5)]),
        );
        // A charge, or (3 in 8) a re-registration over the block's id
        // on capacity `TOTALS[k]`.
        let replace = weighted(vec![
            (5, None),
            (1, Some(0usize)),
            (1, Some(1)),
            (1, Some(2)),
        ]);
        let op = (ints(0u64..12), vecs(ints(0u8..7), 3..4), replace);
        check_cases(
            "entries_match_the_block_ledger_bit_for_bit",
            64,
            (ints(1u32..5), vecs(block, 1..12), vecs(op, 1..40)),
            |(unlock_steps, blocks, ops)| {
                let grid = AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap();
                let curve = |values: &[f64]| RdpCurve::new(&grid, values.to_vec()).unwrap();
                let mut store = BlockStore::default();
                let mut model: BTreeMap<BlockId, BlockLedger> = BTreeMap::new();
                for (id, (total, origin, picks, granted, arrival)) in blocks.iter().enumerate() {
                    let (id, total) = (id as BlockId, &TOTALS[*total]);
                    let consumed: Vec<f64> = match origin {
                        Origin::Registered => {
                            let block = Block::new(id, curve(total), *arrival);
                            store.register(&block);
                            model.insert(id, BlockLedger::new(block));
                            continue;
                        }
                        Origin::Zero => vec![0.0; total.len()],
                        Origin::Drawn => {
                            let entries = picks.iter().zip(total);
                            entries.map(|(p, cap)| consumed_entry(*p, *cap)).collect()
                        }
                    };
                    let state = BlockState {
                        id,
                        arrival: *arrival,
                        total: total.to_vec(),
                        consumed: consumed.clone(),
                        granted: *granted,
                    };
                    store.restore(state);
                    let restored =
                        BlockLedger::restore(curve(total), *arrival, curve(&consumed), *granted);
                    model.insert(id, restored.unwrap());
                }
                let model_states = |model: &BTreeMap<BlockId, BlockLedger>| {
                    let state = |(id, b): (&BlockId, &BlockLedger)| BlockState {
                        id: *id,
                        arrival: b.arrival(),
                        total: b.total().values().to_vec(),
                        consumed: b.consumed().values().to_vec(),
                        granted: b.granted_count(),
                    };
                    model.iter().map(state).collect::<Vec<_>>()
                };
                prop_assert_eq!(
                    state_bits(&store.states()),
                    state_bits(&model_states(&model))
                );

                let n = model.len() as BlockId;
                for (i, (pick, demand, replace)) in ops.iter().enumerate() {
                    let id = pick % n;
                    let values: Vec<f64> = demand.iter().map(|p| demand_entry(*p)).collect();
                    let demand = curve(&values);
                    let b = model.get_mut(&id).unwrap();
                    prop_assert_eq!(
                        store.grants(id, &values),
                        Some(b.check(&demand)),
                        "op {}",
                        i
                    );
                    match replace {
                        Some(k) => {
                            let block = Block::new(id, curve(&TOTALS[*k]), 0.5);
                            store.register(&block);
                            *b = BlockLedger::new(block);
                        }
                        None => {
                            let charged = b.commit(&demand).is_ok();
                            prop_assert_eq!(store.charge(id, &values), charged, "op {}", i);
                        }
                    }

                    for now in [0.0, 0.5 * i as f64, 1.75, 40.0] {
                        let all: BTreeMap<_, _> = store
                            .available_all(&grid, now, 1.0, *unlock_steps)
                            .collect();
                        let mut row = vec![f64::NAN; grid.len()];
                        for (id, b) in &model {
                            let want = bits(&b.available(now, 1.0, *unlock_steps));
                            prop_assert_eq!(bits(&all[id]), want.clone(), "op {}", i);
                            let written =
                                store.write_available(*id, now, 1.0, *unlock_steps, &mut row);
                            let row_bits: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                            prop_assert_eq!((written, row_bits), (Some(()), want), "op {}", i);
                        }
                        let unknown = store.write_available(n, now, 1.0, 1, &mut row);
                        prop_assert_eq!(unknown, None);
                    }
                    let mut unsound: Vec<BlockId> = store.unsound().collect();
                    unsound.sort_unstable();
                    let sound = model.iter().filter(|(_, b)| !b.is_sound());
                    let want: Vec<BlockId> = sound.map(|(id, _)| *id).collect();
                    prop_assert_eq!(unsound, want, "op {}", i);
                    let states = state_bits(&store.states());
                    prop_assert_eq!(states, state_bits(&model_states(&model)), "op {}", i);
                }
                Ok(())
            },
        );
    }

    /// The memory the tier existed for: an entry is no larger than the
    /// cold summary it replaced (40 bytes), and a block holds no
    /// consumption vector until its first charge — registered or
    /// restored at `+0.0` everywhere.
    #[test]
    fn a_never_charged_block_holds_no_consumption() {
        assert!(std::mem::size_of::<BlockEntry>() <= 40);
        let grid = AlphaGrid::new(vec![2.0, 8.0]).unwrap();
        let mut store = BlockStore::default();
        store.register(&Block::new(0, RdpCurve::constant(&grid, 1.0), 0.0));
        let state = |id, consumed| BlockState {
            id,
            arrival: 0.0,
            total: vec![1.0; 2],
            consumed,
            granted: 0,
        };
        store.restore(state(1, vec![0.0; 2]));
        store.restore(state(2, vec![-0.0, 0.0]));
        let held = |store: &BlockStore, id| store.entry(id).unwrap().consumed.is_some();
        assert!(!held(&store, 0) && !held(&store, 1));
        assert!(held(&store, 2), "-0.0 is a consumption bit pattern");
        assert!(store.charge(0, &[0.25, 0.5]));
        assert!(held(&store, 0));
    }
}
