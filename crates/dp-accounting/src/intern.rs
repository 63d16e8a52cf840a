//! Process-wide curve interning.
//!
//! At "one block per user-day" scale the ledger holds millions of
//! blocks, but almost all of them share a handful of distinct curves:
//! capacity curves come from a few `(ε_G, δ_G)` policies and demand
//! curves from a few mechanism configurations. Interning stores each
//! distinct `ε(α)` vector once and hands out a 4-byte [`CurveId`]
//! ([`NonZeroU32`], so `Option<CurveId>` is still 4 bytes), which is
//! what lets a cold block's in-memory summary cost ~tens of bytes
//! instead of several hundred.
//!
//! Interning is **bit-exact**: curves are keyed on the IEEE-754 bit
//! patterns of their values (`-0.0` and `0.0` intern separately), and
//! [`CurveInterner::resolve`] returns exactly the interned bits — the
//! property the ledger's bit-identical recovery contract needs.
//!
//! The table never frees, so intern only what is *shared*: capacity
//! and demand policies, not per-block state such as consumption.

use std::collections::HashMap;
use std::num::NonZeroU32;
use std::sync::{Arc, Mutex, OnceLock};

use crate::curve::RdpCurve;

/// A compact handle to an interned curve. `NonZeroU32` keeps
/// `Option<CurveId>` pointer-free and 4 bytes wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CurveId(NonZeroU32);

impl CurveId {
    /// The id's slot index in its interner's value table.
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }

    /// The raw id (1-based; useful for wire formats and debugging).
    pub fn get(self) -> u32 {
        self.0.get()
    }
}

#[derive(Debug, Default)]
struct InternState {
    /// Bit-pattern key → id. Keys are the exact `to_bits()` images of
    /// the values, so lookup is exact equality, never an ε-comparison.
    map: HashMap<Box<[u64]>, CurveId>,
    /// Slot `id - 1` → the interned values (shared, immutable).
    values: Vec<Arc<[f64]>>,
}

/// A process-wide (or scoped) deduplicating store of curve value
/// vectors. Cloning the handle shares the table.
#[derive(Debug, Clone, Default)]
pub struct CurveInterner {
    state: Arc<Mutex<InternState>>,
}

impl CurveInterner {
    /// A fresh, empty interner (tests; production code normally uses
    /// [`CurveInterner::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide interner every ledger shard shares — identical
    /// curves from different shards resolve to the same id.
    pub fn global() -> &'static CurveInterner {
        static GLOBAL: OnceLock<CurveInterner> = OnceLock::new();
        GLOBAL.get_or_init(CurveInterner::new)
    }

    /// Interns a value vector, returning the existing id when the same
    /// bit pattern was interned before.
    ///
    /// # Panics
    ///
    /// Panics if the interner ever holds `u32::MAX` distinct curves —
    /// a process holding four billion *distinct* curves has already
    /// exhausted memory many times over.
    pub fn intern(&self, values: &[f64]) -> CurveId {
        let key: Box<[u64]> = values.iter().map(|v| v.to_bits()).collect();
        let mut state = self.state.lock().expect("curve interner poisoned");
        if let Some(id) = state.map.get(&key) {
            return *id;
        }
        let raw = u32::try_from(state.values.len() + 1).expect("curve interner id space exhausted");
        let id = CurveId(NonZeroU32::new(raw).expect("ids start at 1"));
        state.values.push(Arc::from(values));
        state.map.insert(key, id);
        id
    }

    /// Interns a curve's values (the grid is the caller's context — the
    /// ledger has exactly one).
    pub fn intern_curve(&self, curve: &RdpCurve) -> CurveId {
        self.intern(curve.values())
    }

    /// The interned values behind an id — exactly the bits that went
    /// in.
    ///
    /// # Panics
    ///
    /// Panics on an id from a *different* interner whose slot does not
    /// exist here; ids from this interner always resolve.
    pub fn resolve(&self, id: CurveId) -> Arc<[f64]> {
        let state = self.state.lock().expect("curve interner poisoned");
        Arc::clone(
            state
                .values
                .get(id.index())
                .expect("curve id from a different interner"),
        )
    }

    /// Number of distinct curves interned so far.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("curve interner poisoned")
            .values
            .len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_on_bit_patterns() {
        let i = CurveInterner::new();
        let a = i.intern(&[0.1, 0.2]);
        let b = i.intern(&[0.1, 0.2]);
        let c = i.intern(&[0.1, 0.3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        // -0.0 and 0.0 have different bit patterns: interned apart.
        assert_ne!(i.intern(&[0.0]), i.intern(&[-0.0]));
        assert_eq!(i.resolve(a).as_ref(), &[0.1, 0.2]);
    }

    #[test]
    fn resolve_returns_exact_bits() {
        let i = CurveInterner::new();
        let values = [0.1f64 + 0.2, f64::MIN_POSITIVE, -7.25e-300];
        let id = i.intern(&values);
        let back = i.resolve(id);
        for (a, b) in values.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn global_interner_is_shared() {
        let id = CurveInterner::global().intern(&[42.125, 0.5]);
        assert_eq!(CurveInterner::global().resolve(id).as_ref(), &[42.125, 0.5]);
    }

    #[test]
    #[should_panic(expected = "different interner")]
    fn foreign_ids_panic_on_resolve() {
        let a = CurveInterner::new();
        let b = CurveInterner::new();
        let id = a.intern(&[1.0]);
        let _ = b.resolve(id);
    }
}
