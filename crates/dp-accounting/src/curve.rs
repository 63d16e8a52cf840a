//! RDP curves: `ε(α)` vectors on an [`AlphaGrid`].

use crate::alpha::AlphaGrid;
use crate::error::AccountingError;

/// An RDP curve: one `ε` bound per Rényi order of a grid.
///
/// Curves compose additively order-by-order (§2.2 of the paper), which is
/// the key property that makes RDP accounting practical. Values may be
/// zero (a mechanism that does not touch the data, or a block a task does
/// not request) and, for *capacity* curves, negative values denote orders
/// that are unusable for the configured `(ε_G, δ_G)` (see
/// [`crate::convert::block_capacity`]).
///
/// # Examples
///
/// ```
/// use dp_accounting::{AlphaGrid, RdpCurve};
///
/// let grid = AlphaGrid::standard();
/// let a = RdpCurve::constant(&grid, 0.5);
/// let b = RdpCurve::constant(&grid, 0.25);
/// let c = a.compose(&b).unwrap();
/// assert_eq!(c.epsilon(0), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RdpCurve {
    grid: AlphaGrid,
    eps: Vec<f64>,
}

impl RdpCurve {
    /// Creates a curve from per-order values.
    ///
    /// Returns an error if the number of values does not match the grid or
    /// any value is NaN.
    pub fn new(grid: &AlphaGrid, eps: Vec<f64>) -> Result<Self, AccountingError> {
        if eps.len() != grid.len() {
            return Err(AccountingError::InvalidParameter(format!(
                "curve has {} values but grid has {} orders",
                eps.len(),
                grid.len()
            )));
        }
        if eps.iter().any(|e| e.is_nan()) {
            return Err(AccountingError::InvalidParameter(
                "curve values must not be NaN".into(),
            ));
        }
        Ok(Self {
            grid: grid.clone(),
            eps,
        })
    }

    /// The all-zero curve (identity for composition).
    pub fn zero(grid: &AlphaGrid) -> Self {
        Self {
            grid: grid.clone(),
            eps: vec![0.0; grid.len()],
        }
    }

    /// A curve with the same `ε` at every order.
    pub fn constant(grid: &AlphaGrid, eps: f64) -> Self {
        Self {
            grid: grid.clone(),
            eps: vec![eps; grid.len()],
        }
    }

    /// Builds a curve by evaluating `f(α)` at every grid order.
    pub fn from_fn(grid: &AlphaGrid, mut f: impl FnMut(f64) -> f64) -> Self {
        let eps = grid.orders().iter().map(|&a| f(a)).collect();
        Self {
            grid: grid.clone(),
            eps,
        }
    }

    /// The grid this curve is defined on.
    pub fn grid(&self) -> &AlphaGrid {
        &self.grid
    }

    /// The `ε` value at grid index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn epsilon(&self, idx: usize) -> f64 {
        self.eps[idx]
    }

    /// All per-order values, in grid order.
    pub fn values(&self) -> &[f64] {
        &self.eps
    }

    /// The per-order values, moved out of the curve.
    pub fn into_values(self) -> Vec<f64> {
        self.eps
    }

    /// Additive composition with another curve on the same grid.
    pub fn compose(&self, other: &RdpCurve) -> Result<RdpCurve, AccountingError> {
        if self.grid != other.grid {
            return Err(AccountingError::GridMismatch);
        }
        let eps = self
            .eps
            .iter()
            .zip(&other.eps)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Self {
            grid: self.grid.clone(),
            eps,
        })
    }

    /// [`RdpCurve::compose`] into `self`, without a new vector: the
    /// same per-order `a + b`, so the same bits.
    pub fn compose_in_place(&mut self, other: &RdpCurve) -> Result<(), AccountingError> {
        if self.grid != other.grid {
            return Err(AccountingError::GridMismatch);
        }
        for (a, b) in self.eps.iter_mut().zip(&other.eps) {
            *a += b;
        }
        Ok(())
    }

    /// `k`-fold self-composition (e.g. `k` DP-SGD steps).
    pub fn compose_k(&self, k: u32) -> RdpCurve {
        self.scale(k as f64)
    }

    /// Scales every order by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scale(&self, factor: f64) -> RdpCurve {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and >= 0 (got {factor})"
        );
        Self {
            grid: self.grid.clone(),
            eps: self.eps.iter().map(|e| e * factor).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> AlphaGrid {
        AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap()
    }

    #[test]
    fn new_validates_length_and_nan() {
        let g = grid();
        assert!(RdpCurve::new(&g, vec![1.0, 2.0]).is_err());
        assert!(RdpCurve::new(&g, vec![1.0, f64::NAN, 2.0]).is_err());
        assert!(RdpCurve::new(&g, vec![1.0, 2.0, 3.0]).is_ok());
    }

    #[test]
    fn zero_is_composition_identity() {
        let g = grid();
        let c = RdpCurve::new(&g, vec![0.1, 0.2, 0.3]).unwrap();
        let z = RdpCurve::zero(&g);
        assert_eq!(c.compose(&z).unwrap(), c);
    }

    #[test]
    fn compose_adds_per_order() {
        let g = grid();
        let a = RdpCurve::new(&g, vec![0.1, 0.2, 0.3]).unwrap();
        let b = RdpCurve::new(&g, vec![1.0, 1.0, 1.0]).unwrap();
        let c = a.compose(&b).unwrap();
        assert_eq!(c.values(), &[1.1, 1.2, 1.3]);
    }

    #[test]
    fn compose_rejects_grid_mismatch() {
        let a = RdpCurve::zero(&grid());
        let b = RdpCurve::zero(&AlphaGrid::single(2.0).unwrap());
        assert_eq!(a.compose(&b), Err(AccountingError::GridMismatch));
    }

    #[test]
    fn compose_k_equals_repeated_compose() {
        let g = grid();
        let a = RdpCurve::new(&g, vec![0.1, 0.2, 0.3]).unwrap();
        let three = a.compose(&a).unwrap().compose(&a).unwrap();
        let scaled = a.compose_k(3);
        for i in 0..g.len() {
            assert!((three.epsilon(i) - scaled.epsilon(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_capacity_fit_is_accepted() {
        // A demand exactly equal to capacity must fit despite FP rounding.
        let g = grid();
        let cap = RdpCurve::new(&g, vec![0.3, 0.3, 0.3]).unwrap();
        let d = RdpCurve::new(&g, vec![0.1 + 0.2, 1.0, 1.0]).unwrap();
        assert!(crate::fits(d.epsilon(0), cap.epsilon(0)));
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_rejects_negative() {
        RdpCurve::zero(&grid()).scale(-1.0);
    }

    #[test]
    fn from_fn_evaluates_orders() {
        let g = grid();
        let c = RdpCurve::from_fn(&g, |a| a * 2.0);
        assert_eq!(c.values(), &[4.0, 8.0, 16.0]);
    }
}
