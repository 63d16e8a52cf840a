//! Privacy filters: adaptive composition under a preset bound.
//!
//! Each data block carries a filter initialized with the block's RDP
//! capacity (from [`crate::convert::block_capacity`]). A task is granted
//! on a block iff, after charging its demand, the cumulative consumption
//! stays within capacity **at at least one Rényi order** — the filter
//! condition of Lécuyer '21 / Feldman–Zrnic '21 used in §3.4 (Prop. 6).
//! A task computing on several blocks runs iff *all* its blocks' filters
//! grant it, which the scheduler enforces atomically.

use crate::curve::RdpCurve;
use crate::error::AccountingError;

/// Whether a filter would grant a demand, and at which orders.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterDecision {
    /// `true` iff at least one order remains within capacity.
    pub granted: bool,
    /// Per-order feasibility after the (hypothetical) charge.
    pub order_ok: Vec<bool>,
}

/// An RDP privacy filter for a single data block.
///
/// # Examples
///
/// ```
/// use dp_accounting::{AlphaGrid, RdpCurve, RenyiFilter, block_capacity};
///
/// let grid = AlphaGrid::standard();
/// let cap = block_capacity(&grid, 10.0, 1e-7).unwrap();
/// let mut filter = RenyiFilter::new(cap);
/// let demand = RdpCurve::constant(&grid, 0.5);
/// assert!(filter.try_consume(&demand).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct RenyiFilter {
    capacity: RdpCurve,
    consumed: RdpCurve,
    granted_count: u64,
}

impl RenyiFilter {
    /// Creates a filter with the given per-order capacity.
    pub fn new(capacity: RdpCurve) -> Self {
        let consumed = RdpCurve::zero(capacity.grid());
        Self {
            capacity,
            consumed,
            granted_count: 0,
        }
    }

    /// Rebuilds a filter from persisted state — the recovery path of
    /// the `dpack-wal` durable ledger, which must reproduce filter
    /// state bit-identically from a snapshot.
    ///
    /// # Errors
    ///
    /// [`AccountingError::GridMismatch`] if capacity and consumption
    /// are on different grids.
    pub fn restore(
        capacity: RdpCurve,
        consumed: RdpCurve,
        granted_count: u64,
    ) -> Result<Self, AccountingError> {
        if consumed.grid() != capacity.grid() {
            return Err(AccountingError::GridMismatch);
        }
        Ok(Self {
            capacity,
            consumed,
            granted_count,
        })
    }

    /// The preset capacity curve.
    pub fn capacity(&self) -> &RdpCurve {
        &self.capacity
    }

    /// The cumulative consumption so far.
    pub fn consumed(&self) -> &RdpCurve {
        &self.consumed
    }

    /// Number of demands granted so far.
    pub fn granted_count(&self) -> u64 {
        self.granted_count
    }

    /// Whether the filter would grant `demand`: `check(demand)`'s
    /// `granted`, and `false` on a grid mismatch, without building the
    /// decision.
    pub fn grants(&self, demand: &RdpCurve) -> bool {
        demand.grid() == self.capacity.grid() && self.room_for(demand)
    }

    /// Some order stays within capacity after charging `demand` — the
    /// per-order `u + d` [`RdpCurve::compose`] computes. Grids are the
    /// caller's to match.
    fn room_for(&self, demand: &RdpCurve) -> bool {
        let after = self.consumed.values().iter().zip(demand.values());
        after
            .zip(self.capacity.values())
            .any(|((u, d), c)| crate::fits(u + d, *c))
    }

    /// Evaluates a demand without committing it.
    pub fn check(&self, demand: &RdpCurve) -> Result<FilterDecision, AccountingError> {
        if demand.grid() != self.capacity.grid() {
            return Err(AccountingError::GridMismatch);
        }
        let after = self.consumed.compose(demand)?;
        let order_ok: Vec<bool> = after
            .values()
            .iter()
            .zip(self.capacity.values())
            .map(|(&u, &c)| crate::fits(u, c))
            .collect();
        Ok(FilterDecision {
            granted: order_ok.iter().any(|&b| b),
            order_ok,
        })
    }

    /// Charges a demand if the filter condition holds, adding it into
    /// the consumption in place ([`RdpCurve::compose_in_place`]).
    ///
    /// # Errors
    ///
    /// [`AccountingError::GridMismatch`] if the demand is on another
    /// grid, [`AccountingError::BudgetExhausted`] if no order stays
    /// within capacity; the filter state is unchanged in both cases.
    pub fn try_consume(&mut self, demand: &RdpCurve) -> Result<(), AccountingError> {
        if demand.grid() != self.capacity.grid() {
            return Err(AccountingError::GridMismatch);
        }
        if !self.room_for(demand) {
            return Err(AccountingError::BudgetExhausted);
        }
        self.consumed.compose_in_place(demand)?;
        self.granted_count += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::AlphaGrid;
    use crate::convert::block_capacity;

    fn grid() -> AlphaGrid {
        AlphaGrid::standard()
    }

    #[test]
    fn grants_while_any_order_has_room() {
        let g = grid();
        let cap = RdpCurve::new(&g, vec![1.0; g.len()]).unwrap();
        let mut f = RenyiFilter::new(cap);
        // A demand over budget at all but one order is still granted.
        let mut eps = vec![5.0; g.len()];
        eps[3] = 0.4;
        let d = RdpCurve::new(&g, eps).unwrap();
        assert!(f.try_consume(&d).is_ok());
        assert!(f.try_consume(&d).is_ok()); // 0.8 at order 3 still fits.
        assert_eq!(f.try_consume(&d), Err(AccountingError::BudgetExhausted));
        assert_eq!(f.granted_count(), 2);
    }

    #[test]
    fn rejection_leaves_state_unchanged() {
        let g = grid();
        let cap = RdpCurve::constant(&g, 1.0);
        let mut f = RenyiFilter::new(cap);
        let big = RdpCurve::constant(&g, 2.0);
        let before = f.consumed().clone();
        assert!(f.try_consume(&big).is_err());
        assert_eq!(f.consumed(), &before);
        assert_eq!(f.granted_count(), 0);
    }

    #[test]
    fn check_reports_per_order_feasibility() {
        let g = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        let cap = RdpCurve::new(&g, vec![1.0, 0.1]).unwrap();
        let f = RenyiFilter::new(cap);
        let d = RdpCurve::new(&g, vec![0.5, 0.5]).unwrap();
        let dec = f.check(&d).unwrap();
        assert!(dec.granted);
        assert_eq!(dec.order_ok, vec![true, false]);
    }

    #[test]
    fn grid_mismatch_is_an_error() {
        let f = RenyiFilter::new(RdpCurve::zero(&grid()));
        let d = RdpCurve::zero(&AlphaGrid::single(2.0).unwrap());
        assert_eq!(f.check(&d), Err(AccountingError::GridMismatch));
    }

    #[test]
    fn global_guarantee_holds_after_adaptive_consumption() {
        // Prop. 6: after any sequence of granted demands, there exists an
        // order α within capacity; translating the consumption at that
        // order yields ε_DP ≤ ε_G.
        let g = grid();
        let (eg, dg) = (10.0, 1e-7);
        let cap = block_capacity(&g, eg, dg).unwrap();
        let mut f = RenyiFilter::new(cap.clone());
        // Adversarially shaped demands: heavy at low orders, light high.
        let d1 = RdpCurve::from_fn(&g, |a| 4.0 / a);
        let d2 = RdpCurve::from_fn(&g, |a| 0.05 * a);
        let mut granted = 0;
        for i in 0..200 {
            let d = if i % 2 == 0 { &d1 } else { &d2 };
            if f.try_consume(d).is_ok() {
                granted += 1;
            }
        }
        assert!(granted > 0);
        // Find an order within capacity and translate.
        let ok_order = g
            .iter()
            .find(|&(i, _)| crate::fits(f.consumed().epsilon(i), cap.epsilon(i)))
            .expect("filter invariant violated: no order within capacity");
        let (i, a) = ok_order;
        let eps_dp = f.consumed().epsilon(i) + (1.0f64 / dg).ln() / (a - 1.0);
        assert!(
            eps_dp <= eg + 1e-6,
            "global guarantee violated: {eps_dp} > {eg}"
        );
    }

    #[test]
    fn restore_round_trips_filter_state_bit_identically() {
        let g = grid();
        let cap = block_capacity(&g, 10.0, 1e-7).unwrap();
        let mut f = RenyiFilter::new(cap);
        for i in 0..7 {
            let d = RdpCurve::from_fn(&g, |a| 0.03 * a + i as f64 * 1e-3);
            f.try_consume(&d).unwrap();
        }
        let restored = RenyiFilter::restore(
            f.capacity().clone(),
            f.consumed().clone(),
            f.granted_count(),
        )
        .unwrap();
        assert_eq!(restored.granted_count(), f.granted_count());
        for i in 0..g.len() {
            assert_eq!(
                restored.consumed().epsilon(i).to_bits(),
                f.consumed().epsilon(i).to_bits()
            );
        }
        // And it keeps accounting from where it left off.
        let d = RdpCurve::constant(&g, 0.01);
        let mut a = f.clone();
        let mut b = restored;
        assert_eq!(a.try_consume(&d).is_ok(), b.try_consume(&d).is_ok());
        assert_eq!(a.consumed(), b.consumed());
        // Mismatched grids are rejected.
        let other = RdpCurve::zero(&AlphaGrid::single(2.0).unwrap());
        assert!(RenyiFilter::restore(f.capacity().clone(), other, 0).is_err());
    }
}
