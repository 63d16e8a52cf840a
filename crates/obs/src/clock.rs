//! The clock seam.
//!
//! Every span measurement in the workspace reads time through a
//! [`Clock`] instead of calling [`Instant::now`] directly, so
//! deterministic tests can substitute a [`ManualClock`] and assert
//! phase timings *exactly* — the same move `SimStorage` makes for
//! storage faults, applied to time.
//!
//! Time is a monotone `u64` nanosecond counter from an arbitrary
//! origin (the clock's construction for [`WallClock`], zero for
//! [`ManualClock`]); only differences are meaningful. At nanosecond
//! resolution the counter lasts ~584 years, far past any process
//! lifetime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone nanosecond clock.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The real wall clock: nanoseconds since construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock anchored at the moment of construction.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        // Saturating: a reading past u64::MAX nanos (~584 years of
        // uptime) pins rather than wraps.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic test clock.
///
/// Reads return the current value and then advance it by the
/// configured `tick` — so with `tick = T`, the `k`-th read after
/// construction returns exactly `k·T`, and a span bracketed by two
/// reads with `n` reads between them measures exactly `(n + 1)·T`.
/// With the default `tick = 0` the clock only moves on explicit
/// [`ManualClock::advance`]/[`ManualClock::set`] calls.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
    tick: u64,
}

impl ManualClock {
    /// A clock frozen at zero (advance it explicitly).
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock that self-advances by `tick` nanoseconds per read.
    pub fn with_tick(tick: u64) -> Self {
        Self {
            nanos: AtomicU64::new(0),
            tick,
        }
    }

    /// Moves the clock forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Pins the clock to an absolute reading.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.fetch_add(self.tick, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_ticks_exactly() {
        let c = ManualClock::with_tick(1_000);
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 1_000);
        c.advance(500);
        assert_eq!(c.now_nanos(), 2_500);
        c.set(10);
        assert_eq!(c.now_nanos(), 10);
    }

    #[test]
    fn manual_clock_defaults_to_frozen() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 0);
    }
}
