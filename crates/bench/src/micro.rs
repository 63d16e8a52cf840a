//! A vendored, std-only, criterion-style micro-benchmark harness.
//!
//! The original micro-bench suites were written against `criterion`,
//! which is unavailable offline — so the harness is rebuilt here at
//! the scale this workspace needs: warmup-calibrated fixed-iteration
//! timing with a mean/min/p50/p99 table (rendered by
//! [`crate::table::Table`]). The measurement loop batches iterations
//! so that one sample is long enough for `Instant` to resolve, which
//! is what makes nanosecond-scale functions (filter checks, curve
//! composition) measurable at all.
//!
//! `--smoke` (or `DPACK_BENCH_SMOKE=1`) runs every benchmark for a
//! single iteration — CI uses it so the benches compile *and run*
//! without costing bench-scale time. Unknown flags are ignored, so
//! `cargo bench -- --smoke` works regardless of what else cargo
//! forwards.

use std::time::{Duration, Instant};

use crate::table::Table;

/// Re-export so benches can opaque-guard values without reaching into
/// `std::hint` themselves (mirrors `criterion::black_box`).
pub use std::hint::black_box;

/// Harness tuning. [`MicroConfig::from_args`] is the entry point for
/// bench binaries; the fields are public so tests can pin them.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// One iteration per benchmark, no warmup, no statistics — the CI
    /// rot guard.
    pub smoke: bool,
    /// Timed samples per benchmark (each sample runs a calibrated
    /// iteration batch).
    pub samples: usize,
    /// Calibration target: iterations per sample are chosen so one
    /// sample takes roughly this long.
    pub target_sample: Duration,
    /// Warmup budget before calibration.
    pub warmup: Duration,
}

impl Default for MicroConfig {
    fn default() -> Self {
        Self {
            smoke: false,
            samples: 30,
            target_sample: Duration::from_millis(2),
            warmup: Duration::from_millis(150),
        }
    }
}

impl MicroConfig {
    /// Reads `--smoke` from the process arguments (or the
    /// `DPACK_BENCH_SMOKE` environment variable); everything else is
    /// left to cargo.
    pub fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke")
            || std::env::var_os("DPACK_BENCH_SMOKE").is_some_and(|v| v != "0");
        Self {
            smoke,
            ..Self::default()
        }
    }
}

/// Per-benchmark result, in seconds-per-iteration.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark name.
    pub name: String,
    /// Total iterations measured (excluding warmup).
    pub iters: u64,
    /// Mean time per iteration.
    pub mean: Duration,
    /// Fastest per-sample time per iteration: the least disturbed by
    /// the rest of the machine, so the one to compare across builds.
    pub min: Duration,
    /// Median per-sample time per iteration.
    pub p50: Duration,
    /// 99th-percentile per-sample time per iteration.
    pub p99: Duration,
}

/// A micro-benchmark run: call [`Micro::bench`] per benchmark, then
/// [`Micro::finish`] to print the table.
pub struct Micro {
    title: String,
    config: MicroConfig,
    reports: Vec<BenchReport>,
}

impl Micro {
    /// A harness configured from the process arguments.
    pub fn new(title: &str) -> Self {
        Self::with_config(title, MicroConfig::from_args())
    }

    /// A harness with an explicit configuration (tests).
    pub fn with_config(title: &str, config: MicroConfig) -> Self {
        Self {
            title: title.to_string(),
            config,
            reports: Vec::new(),
        }
    }

    /// Measures `f` and records a report row. The closure's return
    /// value is routed through [`black_box`] so the measured work
    /// cannot be optimized away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let report = if self.config.smoke {
            let t = Instant::now();
            black_box(f());
            let d = t.elapsed();
            BenchReport {
                name: name.to_string(),
                iters: 1,
                mean: d,
                min: d,
                p50: d,
                p99: d,
            }
        } else {
            self.measure(name, &mut f)
        };
        self.reports.push(report);
    }

    fn measure<R>(&self, name: &str, f: &mut impl FnMut() -> R) -> BenchReport {
        // Warmup doubles as calibration: run until the budget is
        // spent, tracking how long one iteration takes.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.config.warmup || warmup_iters == 0 {
            black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        let batch = ((self.config.target_sample.as_secs_f64() / per_iter.max(1e-9)) as u64)
            .clamp(1, 1 << 24);

        let mut per_iter_samples: Vec<f64> = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter_samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        per_iter_samples.sort_by(f64::total_cmp);
        let mean = per_iter_samples.iter().sum::<f64>() / per_iter_samples.len() as f64;
        BenchReport {
            name: name.to_string(),
            iters: batch * self.config.samples as u64,
            mean: per_iter_duration(mean),
            min: per_iter_duration(per_iter_samples[0]),
            p50: per_iter_duration(percentile(&per_iter_samples, 50.0)),
            p99: per_iter_duration(percentile(&per_iter_samples, 99.0)),
        }
    }

    /// The recorded reports so far.
    pub fn reports(&self) -> &[BenchReport] {
        &self.reports
    }

    /// Renders the result table (also printed by [`Micro::finish`]).
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["bench", "iters", "mean", "min", "p50", "p99"]);
        for r in &self.reports {
            t.row(vec![
                r.name.clone(),
                r.iters.to_string(),
                fmt_duration(r.mean),
                fmt_duration(r.min),
                fmt_duration(r.p50),
                fmt_duration(r.p99),
            ]);
        }
        let mode = if self.config.smoke {
            " [smoke: 1 iteration, timings meaningless]"
        } else {
            ""
        };
        format!("{}{}\n{}", self.title, mode, t.render())
    }

    /// Prints the result table.
    pub fn finish(self) {
        println!("{}", self.render());
    }
}

/// A per-iteration time in seconds, rounded up to whole nanoseconds:
/// an iteration faster than 1 ns reads 1 ns, where `from_secs_f64`
/// would truncate it to zero.
fn per_iter_duration(secs: f64) -> Duration {
    Duration::from_nanos((secs * 1e9).ceil() as u64)
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a duration with an adaptive unit (ns / µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_secs_f64() * 1e9;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MicroConfig {
        MicroConfig {
            smoke: false,
            samples: 5,
            target_sample: Duration::from_micros(200),
            warmup: Duration::from_micros(200),
        }
    }

    #[test]
    fn smoke_runs_exactly_one_iteration() {
        let mut calls = 0u64;
        let mut m = Micro::with_config(
            "t",
            MicroConfig {
                smoke: true,
                ..MicroConfig::default()
            },
        );
        m.bench("counted", || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(m.reports()[0].iters, 1);
        assert!(m.render().contains("smoke"));
    }

    #[test]
    fn measured_iterations_match_the_report() {
        let mut calls = 0u64;
        let mut m = Micro::with_config("t", quick());
        m.bench("counted", || calls += 1);
        let r = &m.reports()[0];
        assert!(r.iters > 0);
        // calls = warmup + measured; measured is exactly `iters`.
        assert!(calls >= r.iters, "{calls} < {}", r.iters);
        assert!(r.mean > Duration::ZERO);
        assert!(r.min <= r.p50, "min {:?} > p50 {:?}", r.min, r.p50);
        assert!(r.p99 >= r.p50, "p99 {:?} < p50 {:?}", r.p99, r.p50);
    }

    #[test]
    fn render_lists_every_bench() {
        let mut m = Micro::with_config("title", quick());
        m.bench("a", || 1 + 1);
        m.bench("b", || 2 + 2);
        let out = m.render();
        assert!(out.starts_with("title"));
        assert!(out.contains("\na") || out.contains(" a"), "{out}");
        assert!(out.contains('b'));
        assert_eq!(m.reports().len(), 2);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 99.0), 4.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(250)), "250ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert!(fmt_duration(Duration::from_micros(2)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
