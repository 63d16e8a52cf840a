//! Log-linear-bucketed histograms.
//!
//! A [`Histogram`] sorts recorded `u64` values into log-linear buckets
//! in the HdrHistogram style: values below 16 get one exact bucket
//! each, and every power-of-two octave above is split into 16 linear
//! sub-buckets, so a reported quantile is within 1/16 (6.25%) of the
//! true value instead of within a full power of two. The finer grain
//! is what keeps p50 and p99 distinct when a whole latency population
//! lands inside one octave — e.g. grant latencies clustered around
//! 27 ms all fall in `[2^24, 2^25)`, where pure power-of-two buckets
//! collapse every quantile onto the same upper bound. Recording is
//! lock-free — one `fetch_add` per counter — and a
//! [`HistogramSnapshot`] is mergeable across histograms, shards, or
//! processes by plain bucket-wise addition, so percentile queries
//! survive aggregation.
//!
//! A disabled histogram (from a disabled registry, or
//! [`Histogram::disabled`]) carries no storage: recording is a no-op
//! branch on an `Option`, which is what makes instrumentation
//! near-free when unused.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear sub-buckets per power-of-two octave (2^[`SUB_BITS`]).
const SUB: usize = 16;
/// log2 of [`SUB`].
const SUB_BITS: usize = 4;

/// Number of buckets: 16 exact slots for values `0..16`, then 16
/// linear sub-buckets for each of the 60 octaves `[2^4, 2^64)` —
/// enough for the full `u64` range at ≤ 6.25% relative error.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// The bucket a value falls into: exact below [`SUB`], otherwise the
/// value's octave split into [`SUB`] linear sub-buckets.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= SUB_BITS
    let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (exp - SUB_BITS) * SUB + sub
}

/// The largest value bucket `i` can hold (its reported upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let exp = SUB_BITS + (i - SUB) / SUB;
    let sub = ((i - SUB) % SUB) as u64;
    let lower = (SUB as u64 + sub) << (exp - SUB_BITS);
    lower + ((1u64 << (exp - SUB_BITS)) - 1)
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free, log-bucketed histogram handle. Cloning shares the
/// underlying counters.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Option<Arc<HistInner>>,
}

impl Histogram {
    /// A live histogram.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(HistInner::default())),
        }
    }

    /// A no-op handle: every record is a single branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether records land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one value. Lock-free; relaxed ordering (the snapshot is
    /// a statistical view, not a synchronization point).
    pub fn record(&self, v: u64) {
        let Some(inner) = &self.inner else { return };
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records an `f64` by saturating cast: NaN and negatives clamp to
    /// 0, values past `u64::MAX` clamp to `u64::MAX` — no input
    /// panics.
    pub fn record_f64(&self, v: f64) {
        // Rust float→int `as` casts saturate (NaN → 0), which is
        // exactly the clamping contract.
        self.record(v as u64);
    }

    /// A point-in-time copy of the counters. Concurrent records may
    /// land between field reads; the snapshot is internally consistent
    /// enough for monitoring (counts never decrease, never tear within
    /// one bucket).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        if let Some(inner) = &self.inner {
            for (slot, bucket) in snap.buckets.iter_mut().zip(&inner.buckets) {
                *slot = bucket.load(Ordering::Relaxed);
            }
            snap.count = inner.count.load(Ordering::Relaxed);
            snap.sum = inner.sum.load(Ordering::Relaxed);
            snap.max = inner.max.load(Ordering::Relaxed);
        }
        snap
    }
}

/// A mergeable, queryable copy of a histogram's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts in the log-linear layout: bucket `i < 16`
    /// holds exactly the value `i`; above that, each power-of-two
    /// octave is split into 16 linear sub-buckets.
    pub buckets: [u64; BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping at `u64::MAX`).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds another snapshot in: bucket-wise addition, max of maxes.
    /// Merging distributes over recording — merging two snapshots
    /// equals snapshotting one histogram that saw both value streams.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        // `record` accumulates the sum with a wrapping `fetch_add`;
        // merge must wrap the same way or merging loses distributivity.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q ∈ [0, 1]`, reported as the upper bound
    /// of the bucket holding that rank, clamped to the observed max
    /// (and 0 when empty). Monotone in `q`, never panics: NaN and
    /// out-of-range quantiles clamp into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the q-quantile among `count` ordered values,
        // 1-based; q = 0 maps to rank 1, q = 1 to rank count.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*n);
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (upper-bounded by bucket; see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(index, count)` pairs — the sparse form
    /// the wire protocol ships. Indices are `u16`: the log-linear
    /// layout has more than 256 buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u16, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (i as u16, *n))
            .collect()
    }

    /// Rebuilds a snapshot from the sparse wire form. Ignores
    /// out-of-range indices (a hostile peer cannot panic this).
    pub fn from_parts(count: u64, sum: u64, max: u64, buckets: &[(u16, u64)]) -> Self {
        let mut snap = Self {
            count,
            sum,
            max,
            ..Self::default()
        };
        for (i, n) in buckets {
            if let Some(slot) = snap.buckets.get_mut(*i as usize) {
                *slot = slot.saturating_add(*n);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log_linear() {
        // Values below 16 are exact.
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // 16..32 is the first split octave — still exact (width 1).
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_upper(16), 16);
        // 1023 lands in octave [512, 1024), sub-bucket width 32.
        assert_eq!(bucket_of(1023), bucket_of(1008));
        assert_ne!(bucket_of(1023), bucket_of(1024));
        assert_eq!(bucket_upper(bucket_of(1023)), 1023);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // Every bucket's upper bound maps back into that bucket, and
        // the value one above it into the next — no gaps, no overlap.
        for i in 0..BUCKETS - 1 {
            let hi = bucket_upper(i);
            assert_eq!(bucket_of(hi), i, "upper({i})");
            assert_eq!(bucket_of(hi + 1), i + 1, "upper({i})+1");
        }
        // Relative error is bounded by one sub-bucket: 1/16.
        for v in [17u64, 1000, 65_537, 27_533_630, u64::MAX / 3] {
            let upper = bucket_upper(bucket_of(v));
            assert!(upper >= v);
            assert!((upper - v) as f64 <= v as f64 / 16.0, "v={v} upper={upper}");
        }
    }

    #[test]
    fn record_and_query() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1000, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 7106);
        assert_eq!(s.max, 5000);
        // p50: rank ceil(0.5·7)=4 → the 100 (sub-bucket [100, 104)).
        assert_eq!(s.p50(), 103);
        assert!(s.p95() >= s.p50());
        assert_eq!(s.quantile(1.0), s.max.min(5119));
        assert!((s.mean() - 7106.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn same_octave_latencies_keep_distinct_quantiles() {
        // A regression once shipped: grant latencies clustered around
        // 27.5 ms all sit inside the octave [2^24, 2^25), where the
        // old power-of-two buckets reported p50 == p99. The linear
        // sub-buckets must keep a spread distinguishable.
        let h = Histogram::new();
        for i in 0..100u64 {
            h.record(20_000_000 + i * 100_000); // 20.0 ms .. 29.9 ms
        }
        let s = h.snapshot();
        assert!(
            s.p50() < s.p99(),
            "p50 {} must stay below p99 {}",
            s.p50(),
            s.p99()
        );
        // And each is within a sub-bucket (6.25%) of the true value.
        let (true_p50, true_p99) = (24_900_000f64, 29_800_000f64);
        assert!((s.p50() as f64 - true_p50) / true_p50 < 0.0625);
        assert!((s.p99() as f64 - true_p99) / true_p99 < 0.0625);
    }

    #[test]
    fn empty_and_disabled_are_inert() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(f64::NAN), 0);
        assert_eq!(s.mean(), 0.0);
        let h = Histogram::disabled();
        h.record(5);
        h.record_f64(f64::MAX);
        assert_eq!(h.snapshot().count, 0);
        assert!(!h.is_enabled());
    }

    #[test]
    fn f64_recording_saturates_instead_of_panicking() {
        let h = Histogram::new();
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            -1.0,
            0.5,
            1.5,
        ] {
            h.record_f64(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.max, u64::MAX); // f64::MAX and +inf clamp there.
        assert_eq!(s.buckets[BUCKETS - 1], 2); // +inf and f64::MAX.
        assert_eq!(s.buckets[0], 5); // NaN, −inf, MIN, −1.0, 0.5 → 0.
        assert_eq!(s.buckets[1], 1); // 1.5 → 1.
    }

    #[test]
    fn merge_equals_combined_recording() {
        let (a, b, c) = (Histogram::new(), Histogram::new(), Histogram::new());
        let xs = [3u64, 9, 81, 100_000];
        let ys = [1u64, 9, 7_777_777];
        for x in xs {
            a.record(x);
            c.record(x);
        }
        for y in ys {
            b.record(y);
            c.record(y);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, c.snapshot());
    }

    #[test]
    fn sparse_roundtrip() {
        let h = Histogram::new();
        for v in [1u64, 100, 100, 65_536] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistogramSnapshot::from_parts(s.count, s.sum, s.max, &s.nonzero_buckets());
        assert_eq!(back, s);
        // Hostile bucket indices are ignored, not panicked on.
        let junk = HistogramSnapshot::from_parts(1, 1, 1, &[(BUCKETS as u16 + 7, 5)]);
        assert_eq!(junk.buckets.iter().sum::<u64>(), 0);
    }
}
