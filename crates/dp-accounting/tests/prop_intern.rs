//! Property-based tests for curve interning (ISSUE 7): the compact
//! representation the tiered ledger relies on must be a *bit-exact*
//! stand-in for the full vector, not merely close.

use std::sync::Arc;
use std::thread;

use dp_accounting::CurveInterner;
use dpack_check::{check_cases, floats, ints, prop_assert_eq, vecs};

const CASES: u32 = 128;

/// Interning is a bit-exact roundtrip: resolve returns exactly the
/// bits that went in, and re-interning the resolved values yields the
/// same id (idempotence).
#[test]
fn intern_resolve_roundtrips_bit_exactly() {
    check_cases(
        "intern_resolve_roundtrips_bit_exactly",
        CASES,
        vecs(floats(-1e6..1e6), 1..40),
        |values| {
            let interner = CurveInterner::new();
            let id = interner.intern(values);
            let back = interner.resolve(id);
            prop_assert_eq!(back.len(), values.len());
            for (a, b) in values.iter().zip(back.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(interner.intern(&back), id);
            prop_assert_eq!(interner.len(), 1);
            Ok(())
        },
    );
}

/// Concurrent interning from shard-worker-like threads dedups: every
/// thread interning the same pool of curves sees the same ids, and
/// the table ends up with exactly one entry per distinct bit pattern.
#[test]
fn concurrent_interning_dedups() {
    check_cases(
        "concurrent_interning_dedups",
        32,
        (ints(2u32..6), vecs(vecs(floats(0.0..10.0), 3..4), 1..8)),
        |(threads, pool)| {
            let interner = CurveInterner::new();
            let pool = Arc::new(pool.clone());
            let mut per_thread: Vec<Vec<_>> = Vec::new();
            thread::scope(|s| {
                let handles: Vec<_> = (0..*threads)
                    .map(|_| {
                        let interner = interner.clone();
                        let pool = Arc::clone(&pool);
                        s.spawn(move || pool.iter().map(|v| interner.intern(v)).collect::<Vec<_>>())
                    })
                    .collect();
                for h in handles {
                    per_thread.push(h.join().expect("interning thread"));
                }
            });
            for ids in &per_thread[1..] {
                prop_assert_eq!(ids, &per_thread[0]);
            }
            let distinct: std::collections::BTreeSet<Vec<u64>> = pool
                .iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect();
            prop_assert_eq!(interner.len(), distinct.len());
            Ok(())
        },
    );
}
