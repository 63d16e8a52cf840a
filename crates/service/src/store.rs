//! One shard's block storage: the hot map and, on a tiered ledger, the
//! cold tier behind it.
//!
//! A [`BlockStore`] holds every [`BlockLedger`] of one ledger shard.
//! Untiered, that is one in-memory map. Tiered
//! ([`BlockStore::enable_tier`]), at most `hot_capacity` blocks stay in
//! the map; the least recently touched spill to a checksummed
//! [`SegmentStore`] and leave a [`ColdBlock`] summary behind — enough
//! to answer every read (existence, grant counts, persisted state,
//! available curves, soundness) **bit-identically** without touching
//! the spill file. Commits run on hot, full-vector state only:
//! [`BlockStore::ensure_hot`] faults a task's cold blocks back in, and
//! [`BlockStore::spill`] restores the bound afterwards.
//!
//! Where a block lives never changes a bit of what it is, so the
//! ledger (striping, locking, WAL, replication) reads and commits
//! through this one type and never learns which tier served it. The
//! spill space is ephemeral: the WAL stays the only durability source.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use dp_accounting::{AlphaGrid, CurveId, CurveInterner};
use dpack_core::online::BlockLedger;
use dpack_core::problem::{BlockId, TaskId};
use dpack_obs::{Counter, Gauge, Obs};
use dpack_wal::tier::{EntryRef, SegmentOptions, SegmentStore};
use dpack_wal::{WalError, WalStorage};

use crate::config::TierConfig;
use crate::durability::{self, BlockState};

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
    /// Failed spill writes or failed fault-in reads (the affected
    /// blocks stayed hot / their grants were released, respectively).
    pub spill_failures: u64,
    /// Live spill segment files across shards.
    pub segments: u64,
    /// Live (non-released) spill bytes across shards.
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
    spill_failures: AtomicU64,
    hot_blocks: AtomicU64,
    cold_blocks: AtomicU64,
    obs_hits: Counter,
    obs_faults: Counter,
    obs_spilled: Counter,
    obs_spill_failures: Counter,
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
        self.obs_spill_failures = obs.registry.counter("dpack_tier_spill_failures_total", "");
        self.obs_hot = obs.registry.gauge("dpack_tier_hot_blocks", "");
        self.obs_cold = obs.registry.gauge("dpack_tier_cold_blocks", "");
        self.sync_gauges();
    }

    /// The counters as a [`TierActivity`] (spill footprint left zero:
    /// the ledger folds it over its stores).
    pub(crate) fn activity(&self) -> TierActivity {
        TierActivity {
            hot_blocks: self.hot_blocks.load(Ordering::Relaxed),
            cold_blocks: self.cold_blocks.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            spill_failures: self.spill_failures.load(Ordering::Relaxed),
            ..TierActivity::default()
        }
    }

    fn sync_gauges(&self) {
        self.obs_hot
            .set_u64(self.hot_blocks.load(Ordering::Relaxed));
        self.obs_cold
            .set_u64(self.cold_blocks.load(Ordering::Relaxed));
    }

    fn spill_failed(&self) {
        self.spill_failures.fetch_add(1, Ordering::Relaxed);
        self.obs_spill_failures.inc();
    }
}

/// The in-memory summary of a spilled block. The capacity curve is
/// interned — a million blocks share a handful of capacity policies,
/// so `total` is a 4-byte [`CurveId`] — while the consumption bits,
/// which differ per block, are kept verbatim, and not at all for a
/// block whose consumption is still exactly zero. The summary never
/// changes while cold: commits fault the block in first, so all
/// consumption arithmetic happens in hot, full-vector form.
#[derive(Debug)]
struct ColdBlock {
    /// Where the full [`BlockState`] lives in the shard's segment
    /// store (the fault-in source).
    entry: EntryRef,
    arrival: f64,
    granted: u64,
    total: CurveId,
    /// `None` = all `+0.0`.
    consumed: Option<Box<[f64]>>,
}

impl ColdBlock {
    fn summarize(entry: EntryRef, b: &BlockLedger) -> Self {
        let consumed = b.consumed().values();
        Self {
            entry,
            arrival: b.arrival(),
            granted: b.granted_count(),
            total: CurveInterner::global().intern(b.total().values()),
            consumed: consumed
                .iter()
                .any(|v| v.to_bits() != 0)
                .then(|| consumed.into()),
        }
    }

    /// The persisted-form state, exact bits, no disk read.
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
    store: SegmentStore,
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

/// Blocks per segment-store write during a spill: bounds the encode
/// buffer while keeping fs spills down to a few syncs per event.
const SPILL_BATCH: usize = 512;

/// One shard's blocks, whichever tier each lives in. `tier: None` =
/// everything stays hot and `cold` stays empty, the pre-tiering
/// behavior — which is why the untiered suites run unmodified.
#[derive(Debug, Default)]
pub(crate) struct BlockStore {
    hot: BTreeMap<BlockId, BlockLedger>,
    /// Spilled block → in-memory summary. A hash map: at million-block
    /// scale the fault/spill paths hit this once per cold access, and
    /// no caller depends on its order (collectors sort where it shows).
    cold: HashMap<BlockId, ColdBlock>,
    tier: Option<TierState>,
}

impl BlockStore {
    /// Puts a cold tier behind this store: a checksummed segment store
    /// over `storage` (wiped on open — spill space is ephemeral), and a
    /// hot set bounded by [`TierConfig::hot_capacity`] from here on. A
    /// store that already holds more (recovery materializes everything
    /// hot) spills down to the bound right away.
    pub(crate) fn enable_tier(
        &mut self,
        storage: Box<dyn WalStorage>,
        config: TierConfig,
        meter: &TierMeter,
    ) -> Result<(), WalError> {
        let store = SegmentStore::open_with(
            storage,
            SegmentOptions {
                segment_bytes: config.segment_bytes,
            },
        )?;
        let hot_capacity = config.hot_capacity.max(1);
        self.tier = Some(TierState {
            store,
            hot_capacity,
            low_water: hot_capacity - hot_capacity / 8,
            epoch: 0,
            touch: self.hot.keys().map(|id| (*id, 0)).collect(),
        });
        meter
            .hot_blocks
            .fetch_add(self.hot.len() as u64, Ordering::Relaxed);
        self.spill(meter);
        Ok(())
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

    /// Faults every cold block among `blocks` back into the hot map
    /// and marks the hot ones touched. Returns `false` — the caller
    /// releases `task` — if a spill read fails verification; the
    /// summary stays cold and intact, so a later compaction rewrite or
    /// retry can still serve it.
    ///
    /// # Panics
    ///
    /// Panics if a block is in neither tier, like [`BlockStore::hot`].
    pub(crate) fn ensure_hot(
        &mut self,
        task: TaskId,
        blocks: impl IntoIterator<Item = BlockId>,
        grid: &AlphaGrid,
        meter: &TierMeter,
    ) -> bool {
        let Some(tier) = &mut self.tier else {
            return true;
        };
        for b in blocks {
            if self.hot.contains_key(&b) {
                meter.hits.fetch_add(1, Ordering::Relaxed);
                meter.obs_hits.inc();
                tier.touch(b);
                continue;
            }
            let Some(cold) = self.cold.get(&b) else {
                panic!("task {task} references unregistered block {b}");
            };
            let faulted = tier
                .store
                .read(&cold.entry)
                .map_err(WalError::Io)
                .and_then(|payload| {
                    durability::decode_snapshot(&payload)?
                        .into_iter()
                        .find(|s| s.id == b)
                        .ok_or_else(|| {
                            WalError::Corrupt(format!("spill entry for block {b} holds another id"))
                        })
                })
                .and_then(|state| state.to_ledger(grid));
            let Ok(entry) = faulted else {
                meter.spill_failed();
                return false;
            };
            let cold = self.cold.remove(&b).expect("present above");
            let _ = tier.store.release(&cold.entry);
            self.hot.insert(b, entry);
            tier.touch(b);
            meter.faults.fetch_add(1, Ordering::Relaxed);
            meter.hot_blocks.fetch_add(1, Ordering::Relaxed);
            meter.cold_blocks.fetch_sub(1, Ordering::Relaxed);
            meter.obs_faults.inc();
        }
        meter.sync_gauges();
        true
    }

    /// Spills least-recently-touched hot blocks down to the low-water
    /// mark once the hot map exceeds its bound. Writes go in
    /// [`SPILL_BATCH`]-sized batched appends (one sync each on the fs
    /// backend); a failed write keeps the victims hot — the tier is an
    /// optimization, never a correctness dependency.
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
        order.sort_unstable();
        order.truncate(excess);
        for chunk in order.chunks(SPILL_BATCH) {
            let payloads: Vec<Vec<u8>> = chunk
                .iter()
                .map(|(_, id)| durability::encode_snapshot(&[block_state(*id, &hot[id])]))
                .collect();
            let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let Ok(refs) = tier.store.append_batch(&views) else {
                meter.spill_failed();
                break;
            };
            for ((_, id), entry) in chunk.iter().zip(refs) {
                let b = hot.remove(id).expect("victims come from the hot map");
                tier.touch.remove(id);
                cold.insert(*id, ColdBlock::summarize(entry, &b));
            }
            let n = chunk.len() as u64;
            meter.spilled.fetch_add(n, Ordering::Relaxed);
            meter.hot_blocks.fetch_sub(n, Ordering::Relaxed);
            meter.cold_blocks.fetch_add(n, Ordering::Relaxed);
            meter.obs_spilled.add(n);
        }
        meter.sync_gauges();
    }

    /// Rewrites the cold entries when released (dead) bytes dominate
    /// the spill files — from the in-memory summaries, so the rewrite
    /// costs no reads and reproduces the exact original payloads.
    pub(crate) fn compact_spill(&mut self) -> Result<(), WalError> {
        let Some(tier) = &mut self.tier else {
            return Ok(());
        };
        if self.cold.is_empty() || tier.store.dead_bytes() * 2 <= tier.store.bytes() {
            return Ok(());
        }
        let mut ids: Vec<BlockId> = self.cold.keys().copied().collect();
        ids.sort_unstable(); // Deterministic rewrite order.

        // Seal the active segment first: every segment being drained is
        // then non-active, so releasing its last live entry deletes it.
        tier.store.rotate();
        for chunk in ids.chunks(SPILL_BATCH) {
            let payloads: Vec<Vec<u8>> = chunk
                .iter()
                .map(|id| durability::encode_snapshot(&[self.cold[id].state(*id)]))
                .collect();
            let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let refs = tier.store.append_batch(&views)?;
            for (id, entry) in chunk.iter().zip(refs) {
                let cold = self.cold.get_mut(id).expect("listed above");
                let old = std::mem::replace(&mut cold.entry, entry);
                tier.store.release(&old)?;
            }
        }
        Ok(())
    }

    /// `(live spill segment files, live spill bytes)`; zeros untiered.
    pub(crate) fn spill_footprint(&self) -> (u64, u64) {
        self.tier.as_ref().map_or((0, 0), |t| {
            (
                t.store.segment_count() as u64,
                t.store.bytes() - t.store.dead_bytes(),
            )
        })
    }

    /// Applies `read` to one block wherever it lives; `None` if it is
    /// not registered here. A cold block is rebuilt from its summary
    /// for the call — no disk I/O, same bits as the hot entry had.
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
