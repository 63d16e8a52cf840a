//! Item and solution types shared by all solvers.

use std::fmt;

/// An error constructing a knapsack item.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidItem(pub String);

impl fmt::Display for InvalidItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid knapsack item: {}", self.0)
    }
}

impl std::error::Error for InvalidItem {}

/// A single-dimension knapsack item: a non-negative demand (`weight`) and
/// a non-negative utility (`profit`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Resource demand (for DPack: normalized ε demand at one order).
    pub weight: f64,
    /// Utility if packed (the task weight `w_i` of the paper).
    pub profit: f64,
}

impl Item {
    /// Creates an item; both fields must be finite and non-negative.
    pub fn new(weight: f64, profit: f64) -> Result<Self, InvalidItem> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(InvalidItem(format!(
                "weight must be finite and >= 0 (got {weight})"
            )));
        }
        if !profit.is_finite() || profit < 0.0 {
            return Err(InvalidItem(format!(
                "profit must be finite and >= 0 (got {profit})"
            )));
        }
        Ok(Self { weight, profit })
    }

    /// Profit density `profit / weight`; zero-weight items have infinite
    /// density (they are always worth packing).
    pub fn density(&self) -> f64 {
        if self.weight == 0.0 {
            f64::INFINITY
        } else {
            self.profit / self.weight
        }
    }
}

/// A solution: the selected item indices (ascending) and total profit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Solution {
    /// Indices into the input item slice, ascending.
    pub selected: Vec<usize>,
    /// Sum of profits of the selected items.
    pub profit: f64,
}

impl Solution {
    /// The empty solution.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a solution from indices, computing the profit.
    pub fn from_indices(items: &[Item], mut selected: Vec<usize>) -> Self {
        selected.sort_unstable();
        selected.dedup();
        let profit = selected.iter().map(|&i| items[i].profit).sum();
        Self { selected, profit }
    }

    /// Total weight of the selection.
    pub fn total_weight(&self, items: &[Item]) -> f64 {
        self.selected.iter().map(|&i| items[i].weight).sum()
    }

    /// Returns `true` if the selection fits in `capacity`.
    pub fn is_feasible(&self, items: &[Item], capacity: f64) -> bool {
        crate::fits(self.total_weight(items), capacity)
    }
}

/// Indices of `items` sorted by descending density, ties by ascending
/// index — the canonical greedy order used across the crate.
pub fn density_order(items: &[Item]) -> Vec<usize> {
    crate::descending_order(items.len(), |i| items[i].density())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_validation() {
        assert!(Item::new(1.0, 1.0).is_ok());
        assert!(Item::new(0.0, 0.0).is_ok());
        assert!(Item::new(-1.0, 1.0).is_err());
        assert!(Item::new(1.0, -1.0).is_err());
        assert!(Item::new(f64::NAN, 1.0).is_err());
        assert!(Item::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn density_handles_zero_weight() {
        assert_eq!(Item::new(0.0, 5.0).unwrap().density(), f64::INFINITY);
        assert_eq!(Item::new(2.0, 5.0).unwrap().density(), 2.5);
    }

    #[test]
    fn density_order_is_deterministic() {
        let items = vec![
            Item::new(1.0, 1.0).unwrap(), // density 1.
            Item::new(2.0, 2.0).unwrap(), // density 1 (tie, later index).
            Item::new(1.0, 3.0).unwrap(), // density 3.
        ];
        assert_eq!(density_order(&items), vec![2, 0, 1]);
    }

    #[test]
    fn solution_from_indices_dedups_and_sums() {
        let items = vec![Item::new(1.0, 2.0).unwrap(), Item::new(1.0, 3.0).unwrap()];
        let s = Solution::from_indices(&items, vec![1, 0, 1]);
        assert_eq!(s.selected, vec![0, 1]);
        assert_eq!(s.profit, 5.0);
        assert_eq!(s.total_weight(&items), 2.0);
        assert!(s.is_feasible(&items, 2.0));
        assert!(!s.is_feasible(&items, 1.5));
    }
}
