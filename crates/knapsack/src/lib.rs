//! Knapsack solvers for privacy-budget scheduling.
//!
//! The DPack paper (§3) reduces efficiency-oriented DP scheduling to
//! knapsack problems:
//!
//! * the classic **0/1 knapsack** (one block, one Rényi order) —
//!   [`greedy`], [`exact`], [`fptas`];
//! * the **multidimensional knapsack** (traditional DP over several
//!   blocks, Eq. 3) — [`multidim`];
//! * the **privacy knapsack** (RDP: within budget on *at least one* order
//!   per block, Eq. 5) — [`privacy`], which replaces the paper's Gurobi
//!   "Optimal" baseline with a from-scratch branch-and-bound solver.
//!
//! All solvers take real-valued (non-negative, finite) weights and
//! profits and are deterministic: ties are broken by item index.
//!
//! # Examples
//!
//! ```
//! use knapsack::{Item, greedy::greedy_with_best_item, exact::branch_and_bound};
//!
//! let items = vec![
//!     Item::new(2.0, 3.0).unwrap(),
//!     Item::new(3.0, 4.0).unwrap(),
//!     Item::new(4.0, 5.0).unwrap(),
//! ];
//! let approx = greedy_with_best_item(&items, 5.0);
//! let exact = branch_and_bound(&items, 5.0, u64::MAX).solution;
//! assert!(approx.profit >= 0.5 * exact.profit);
//! assert_eq!(exact.profit, 7.0); // Items 0 and 1.
//! ```

pub mod dp;
pub mod exact;
pub mod fptas;
pub mod greedy;
pub mod item;
pub mod multidim;
pub mod privacy;

pub use item::{Item, Solution};

/// Relative tolerance for capacity feasibility checks, mirroring
/// `dp_accounting::BUDGET_RTOL` so schedulers and solvers agree on what
/// "fits" means.
pub const CAP_RTOL: f64 = 1e-9;

/// Returns `true` if `used <= capacity` up to [`CAP_RTOL`].
#[inline]
pub fn fits(used: f64, capacity: f64) -> bool {
    used <= capacity + CAP_RTOL * capacity.abs().max(1.0)
}

/// A `u64` that orders as `x` does among non-NaN floats, with -0.0 and
/// 0.0 equal as they compare (NaNs land beyond the infinities, by
/// sign) — the one total order every float sort in the workspace uses.
#[inline]
pub fn order_bits(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The indices `0..n` by descending `key`, ties by ascending index,
/// each key computed once and compared through [`order_bits`].
pub fn descending_order(n: usize, key: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..n).map(|i| (!order_bits(key(i)), i)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}
