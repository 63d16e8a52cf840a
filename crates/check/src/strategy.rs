//! Strategies: composable value generators over a [`Source`].

use std::fmt::Debug;
use std::ops::Range;

use rand::{RangeSample, RngExt};

use crate::source::Source;

/// A strategy failed to produce a value (a [`Strategy::prop_filter`]
/// predicate could not be satisfied). The runner discards the case
/// during generation and skips the candidate during shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// The label of the filter that gave up, if any.
    pub filter: Option<&'static str>,
}

/// A composable generator of test inputs.
///
/// Implementations must be *monotone in the draw stream* where
/// possible: smaller draws should produce "smaller" values, because the
/// shrinker minimizes the recorded draws, not the values themselves.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Builds one value from the draw stream.
    ///
    /// # Errors
    ///
    /// [`Rejected`] when a filter predicate cannot be satisfied.
    fn try_build(&self, src: &mut Source) -> Result<Self::Value, Rejected>;

    /// Transforms generated values; shrinking passes through to the
    /// underlying draws, so mapped strategies shrink for free.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `pred`, redrawing up to a fixed
    /// retry budget before rejecting the case. `label` names the
    /// constraint in reports.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        label: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            label,
            pred,
        }
    }

    /// Type-erases the strategy (for heterogeneous [`one_of`] lists).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn try_build(&self, src: &mut Source) -> Result<T, Rejected> {
        self.0.try_build(src)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn try_build(&self, src: &mut Source) -> Result<T, Rejected> {
        self.inner.try_build(src).map(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    label: &'static str,
    pred: F,
}

/// How many fresh draws a filter attempts before rejecting. In replay
/// mode an exhausted buffer keeps producing the same (all-zero) value,
/// so retrying further is pointless; a small budget keeps rejection
/// cheap there too.
const FILTER_RETRIES: usize = 64;

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn try_build(&self, src: &mut Source) -> Result<S::Value, Rejected> {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.try_build(src)?;
            if (self.pred)(&v) {
                return Ok(v);
            }
        }
        Err(Rejected {
            filter: Some(self.label),
        })
    }
}

/// Uniform integers in a half-open range (any type the `rand` shim's
/// [`RangeSample`] covers: `u8..u64`, `i8..i64`, `usize`, `isize`).
/// Shrinks toward `range.start`.
pub fn ints<T: RangeSample + Copy + Debug>(range: Range<T>) -> IntRange<T> {
    IntRange { range }
}

/// See [`ints`].
#[derive(Debug, Clone)]
pub struct IntRange<T> {
    range: Range<T>,
}

impl<T: RangeSample + Copy + Debug> Strategy for IntRange<T> {
    type Value = T;
    fn try_build(&self, src: &mut Source) -> Result<T, Rejected> {
        Ok(src.random_range(self.range.clone()))
    }
}

/// Uniform `f64` in a half-open range. Shrinks toward `range.start`.
///
/// # Panics
///
/// Panics (at build time) if the bounds are not finite or the range is
/// empty.
pub fn floats(range: Range<f64>) -> FloatRange {
    FloatRange { range }
}

/// See [`floats`].
#[derive(Debug, Clone)]
pub struct FloatRange {
    range: Range<f64>,
}

impl Strategy for FloatRange {
    type Value = f64;
    fn try_build(&self, src: &mut Source) -> Result<f64, Rejected> {
        assert!(
            self.range.start.is_finite() && self.range.end.is_finite(),
            "float strategy bounds must be finite"
        );
        assert!(self.range.start < self.range.end, "empty float range");
        let unit: f64 = src.random();
        Ok(self.range.start + unit * (self.range.end - self.range.start))
    }
}

/// Uniform booleans. Shrinks toward `false` (a zero draw is `false`).
pub fn bools() -> Bools {
    Bools
}

/// See [`bools`].
#[derive(Debug, Clone, Copy)]
pub struct Bools;

impl Strategy for Bools {
    type Value = bool;
    fn try_build(&self, src: &mut Source) -> Result<bool, Rejected> {
        Ok(src.random_range(0..2u32) == 1)
    }
}

/// The constant strategy: always `value`, consuming no draws.
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just { value }
}

/// See [`just`].
#[derive(Debug, Clone)]
pub struct Just<T> {
    value: T,
}

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn try_build(&self, _src: &mut Source) -> Result<T, Rejected> {
        Ok(self.value.clone())
    }
}

/// Vectors of `element` values with a length drawn uniformly from
/// `len`. Shrinks toward shorter vectors of smaller elements.
pub fn vecs<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// See [`vecs`].
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn try_build(&self, src: &mut Source) -> Result<Vec<S::Value>, Rejected> {
        let n = if self.len.start + 1 == self.len.end {
            self.len.start // Fixed length: consume no draw for it.
        } else {
            src.random_range(self.len.clone())
        };
        (0..n).map(|_| self.element.try_build(src)).collect()
    }
}

/// Weighted choice among constants: picks `value` with probability
/// `weight / total`. Shrinks toward the *first* choice, so order the
/// simplest outcome first.
///
/// # Panics
///
/// Panics (at build time) if `choices` is empty or all weights are 0.
pub fn weighted<T: Clone + Debug>(choices: Vec<(u32, T)>) -> Weighted<T> {
    Weighted { choices }
}

/// See [`weighted`].
#[derive(Debug, Clone)]
pub struct Weighted<T> {
    choices: Vec<(u32, T)>,
}

impl<T: Clone + Debug> Strategy for Weighted<T> {
    type Value = T;
    fn try_build(&self, src: &mut Source) -> Result<T, Rejected> {
        let total: u64 = self.choices.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "weighted strategy needs a positive total weight");
        let mut roll = src.random_range(0..total);
        for (w, v) in &self.choices {
            let w = u64::from(*w);
            if roll < w {
                return Ok(v.clone());
            }
            roll -= w;
        }
        unreachable!("roll < total is covered by the cumulative scan")
    }
}

/// Uniform choice among strategies of a common value type. Shrinks
/// toward the first alternative.
///
/// # Panics
///
/// Panics (at build time) if `alternatives` is empty.
pub fn one_of<T: Debug>(alternatives: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    OneOf { alternatives }
}

/// See [`one_of`].
pub struct OneOf<T> {
    alternatives: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Strategy for OneOf<T> {
    type Value = T;
    fn try_build(&self, src: &mut Source) -> Result<T, Rejected> {
        assert!(!self.alternatives.is_empty(), "one_of needs alternatives");
        let i = src.random_range(0..self.alternatives.len());
        self.alternatives[i].try_build(src)
    }
}

/// `Option<T>` values: `None` or a generated `Some`. Shrinks toward
/// `None`.
pub fn options<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy { inner }
}

/// See [`options`].
pub struct OptionStrategy<S> {
    inner: S,
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn try_build(&self, src: &mut Source) -> Result<Option<S::Value>, Rejected> {
        if src.random_range(0..2u32) == 0 {
            Ok(None)
        } else {
            self.inner.try_build(src).map(Some)
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn try_build(&self, src: &mut Source) -> Result<Self::Value, Rejected> {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Ok(($($name.try_build(src)?,)+))
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

#[cfg(test)]
mod tests {
    use super::*;

    fn build<S: Strategy>(s: &S, seed: u64) -> S::Value {
        s.try_build(&mut Source::from_seed(seed))
            .expect("no filter")
    }

    #[test]
    fn ranges_respect_bounds() {
        for seed in 0..200 {
            let v = build(&ints(3..17u32), seed);
            assert!((3..17).contains(&v));
            let f = build(&floats(-2.0..3.5), seed);
            assert!((-2.0..3.5).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_bounds_and_fixed_lengths_draw_nothing() {
        for seed in 0..100 {
            let v = build(&vecs(ints(0..5u8), 2..9), seed);
            assert!((2..9).contains(&v.len()));
        }
        // A fixed length must not consume a draw: zero draws still
        // produce the full-length vector (shrink-stability).
        let mut src = Source::replay(vec![]);
        let v = vecs(ints(0..5u8), 3..4).try_build(&mut src).unwrap();
        assert_eq!(v, vec![0, 0, 0]);
    }

    #[test]
    fn map_and_filter_compose() {
        let even_squares = ints(0..100u64)
            .prop_filter("even", |n| n % 2 == 0)
            .prop_map(|n| n * n);
        for seed in 0..100 {
            let v = build(&even_squares, seed);
            let root = (v as f64).sqrt().round() as u64;
            assert_eq!(root * root, v);
            assert_eq!(root % 2, 0);
        }
    }

    #[test]
    fn unsatisfiable_filters_reject_with_their_label() {
        let s = ints(0..10u32).prop_filter("impossible", |_| false);
        assert_eq!(
            s.try_build(&mut Source::from_seed(1)),
            Err(Rejected {
                filter: Some("impossible")
            })
        );
    }

    #[test]
    fn weighted_choices_follow_weights_and_shrink_to_first() {
        let s = weighted(vec![(1, "rare"), (9, "common")]);
        let hits = (0..2000)
            .filter(|seed| build(&s, *seed) == "common")
            .count();
        assert!((hits as f64 / 2000.0 - 0.9).abs() < 0.05, "{hits}");
        // Zero draws select the first (smallest) alternative.
        let mut src = Source::replay(vec![]);
        assert_eq!(s.try_build(&mut src).unwrap(), "rare");
    }

    #[test]
    fn one_of_and_options_and_just() {
        let s = one_of(vec![just(1u8).boxed(), ints(10..20u8).boxed()]);
        let mut seen_small = false;
        let mut seen_big = false;
        for seed in 0..100 {
            match build(&s, seed) {
                1 => seen_small = true,
                v if (10..20).contains(&v) => seen_big = true,
                v => panic!("unexpected {v}"),
            }
        }
        assert!(seen_small && seen_big);
        let o = options(ints(0..5u8));
        let nones = (0..1000).filter(|s| build(&o, *s).is_none()).count();
        assert!((300..700).contains(&nones), "{nones}");
        // All-zero draws give None (the smallest option).
        assert_eq!(o.try_build(&mut Source::replay(vec![])).unwrap(), None);
    }

    #[test]
    fn tuples_build_left_to_right() {
        let v = build(&(just(1u8), ints(0..9u8), bools()), 3);
        assert_eq!(v.0, 1);
        assert!(v.1 < 9);
    }
}
