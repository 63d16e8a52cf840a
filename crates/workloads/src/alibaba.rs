//! The Alibaba-DP macrobenchmark (§6.3 of the paper).
//!
//! The paper derives a DP workload from Alibaba's 2022 GPU-cluster trace
//! (Weng et al., NSDI '22) by mapping system metrics to privacy
//! parameters. The raw trace is a multi-gigabyte external artifact that
//! is not redistributable here, so this module first generates a
//! **synthetic trace** calibrated to the published marginals of the real
//! one — a minority of GPU tasks, heavy-tailed (log-normal/power-law)
//! memory and network usage, Zipf-distributed users, diurnal submission
//! times over one month — and then applies the paper's own proxy mapping
//! unchanged:
//!
//! * machine type → DP mechanism family (CPU → {Laplace, Gaussian,
//!   subsampled Laplace}; GPU → {composed subsampled Gaussians, composed
//!   Gaussians});
//! * memory (GB·h) → traditional-DP ε, affinely;
//! * network bytes → number of requested blocks, affinely;
//! * truncation: drop tasks requesting more than 100 blocks or whose
//!   smallest normalized RDP ε falls outside `[0.001, 1]`.
//!
//! Tasks request the most recent blocks and carry weight 1. The trace is
//! synthetic, so absolute counts differ from the paper's; what Fig. 6
//! needs from the workload is heterogeneity in block counts and best
//! alphas, which the mapping reproduces by construction.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dp_accounting::mechanisms::{
    GaussianMechanism, LaplaceMechanism, Mechanism, SubsampledGaussian, SubsampledLaplace,
};
use dp_accounting::{block_capacity, AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, Task};

use crate::curves::rescale_to_eps_min;
use crate::stats::{lognormal, pareto, Zipf};
use crate::OnlineWorkload;

/// Machine type in the synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineType {
    /// CPU-only task: statistics / analytics / lightweight ML.
    Cpu,
    /// GPU task: deep-learning training.
    Gpu,
}

/// One synthetic trace record, in the units of the real trace.
#[derive(Debug, Clone)]
pub struct TraceTask {
    /// Submitting user (Zipf-distributed over 1,300 users, as in the
    /// trace's user population).
    pub user: u32,
    /// Submission time in fractional days over a one-month window.
    pub submit_day: f64,
    /// CPU or GPU machine.
    pub machine: MachineType,
    /// Memory usage in GB·hours (log-normal, heavy-tailed).
    pub mem_gb_hours: f64,
    /// Bytes read over the network (Pareto power law).
    pub net_bytes: f64,
}

/// Fraction of GPU tasks in the synthetic trace (the 2022 trace is a
/// GPU-cluster trace where most submitted tasks are still CPU-side
/// pipeline stages).
pub const GPU_FRACTION: f64 = 0.25;

/// Number of distinct users (from the trace description: ~1,300).
pub const N_USERS: usize = 1300;

/// Days in the sampled window (the paper samples one month).
pub const TRACE_DAYS: f64 = 30.0;

/// Generates `n` synthetic trace records sorted by submission time.
pub fn generate_trace(n: usize, rng: &mut StdRng) -> Vec<TraceTask> {
    let users = Zipf::new(N_USERS, 1.1);
    let mut tasks: Vec<TraceTask> = (0..n)
        .map(|_| {
            // Diurnal submission profile via accept-reject over the day.
            let submit_day = loop {
                let t: f64 = rng.random::<f64>() * TRACE_DAYS;
                let phase = 2.0 * std::f64::consts::PI * t.fract();
                let intensity = (1.0 + 0.4 * phase.sin()) / 1.4;
                if rng.random::<f64>() < intensity {
                    break t;
                }
            };
            let machine = if rng.random::<f64>() < GPU_FRACTION {
                MachineType::Gpu
            } else {
                MachineType::Cpu
            };
            // GPU tasks skew larger in both memory and network usage.
            let (mem_mu, net_xm) = match machine {
                MachineType::Cpu => (1.2, 1.0e8),
                MachineType::Gpu => (2.2, 4.0e8),
            };
            TraceTask {
                user: users.sample(rng) as u32,
                submit_day,
                machine,
                mem_gb_hours: lognormal(rng, mem_mu, 1.4),
                net_bytes: pareto(rng, net_xm, 1.2),
            }
        })
        .collect();
    tasks.sort_by(|a, b| a.submit_day.total_cmp(&b.submit_day));
    tasks
}

/// Parameters of the trace-to-DP mapping.
#[derive(Debug, Clone)]
pub struct AlibabaDpConfig {
    /// Number of blocks the workload spans (one block arrives per
    /// virtual time unit; the trace month is scaled onto `[0, n_blocks)`).
    pub n_blocks: usize,
    /// Number of tasks to draw from the synthetic trace (before
    /// truncation drops a small fraction).
    pub n_tasks: usize,
    /// Slope of the memory → `ε_min` affine map.
    pub eps_slope: f64,
    /// Intercept of the memory → `ε_min` affine map.
    pub eps_intercept: f64,
    /// Bytes per requested block in the network → blocks affine map.
    pub bytes_per_block: f64,
    /// Per-block global budget.
    pub epsilon_g: f64,
    /// Per-block global budget.
    pub delta_g: f64,
}

impl Default for AlibabaDpConfig {
    fn default() -> Self {
        Self {
            n_blocks: 90,
            n_tasks: 60_000,
            eps_slope: 0.002,
            eps_intercept: 0.0005,
            bytes_per_block: 1.2e8,
            epsilon_g: crate::DEFAULT_BLOCK_EPSILON,
            delta_g: crate::DEFAULT_BLOCK_DELTA,
        }
    }
}

/// Normalized-`ε` truncation window of the paper.
pub const EPS_MIN_RANGE: (f64, f64) = (0.001, 1.0);

/// Block-count truncation of the paper.
pub const MAX_BLOCKS_PER_TASK: usize = 100;

/// Builds the Alibaba-DP online workload.
///
/// # Panics
///
/// Panics on zero blocks/tasks.
pub fn generate(config: &AlibabaDpConfig, seed: u64) -> OnlineWorkload {
    assert!(config.n_blocks > 0 && config.n_tasks > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = AlphaGrid::standard();
    let capacity =
        block_capacity(&grid, config.epsilon_g, config.delta_g).expect("valid block budget");
    let blocks: Vec<Block> = (0..config.n_blocks as u64)
        .map(|j| Block::new(j, capacity.clone(), j as f64))
        .collect();

    let trace = generate_trace(config.n_tasks, &mut rng);
    let time_scale = config.n_blocks as f64 / TRACE_DAYS;

    let mut tasks = Vec::with_capacity(trace.len());
    let mut id = 0u64;
    for rec in &trace {
        // Memory → target normalized ε, with the paper's truncation.
        let eps_min = config.eps_slope * rec.mem_gb_hours + config.eps_intercept;
        if !(EPS_MIN_RANGE.0..=EPS_MIN_RANGE.1).contains(&eps_min) {
            continue;
        }
        // Network bytes → requested block count, with truncation.
        let n_req = (rec.net_bytes / config.bytes_per_block).ceil().max(1.0) as usize;
        if n_req > MAX_BLOCKS_PER_TASK {
            continue;
        }

        // Machine type → mechanism family → raw RDP curve shape.
        let raw = sample_mechanism_curve(&grid, rec.machine, &mut rng);
        // The rescale realizes the affine ε proxy while preserving the
        // mechanism's curve shape (and hence its best alpha).
        let demand = rescale_to_eps_min(&raw, &capacity, eps_min);

        // Most recent blocks at arrival.
        let arrival = rec.submit_day * time_scale;
        let newest = (arrival.floor() as u64).min(config.n_blocks as u64 - 1);
        let n_req = n_req.min(newest as usize + 1);
        let requested: Vec<u64> = (newest + 1 - n_req as u64..=newest).collect();

        tasks.push(Task::new(id, 1.0, requested, demand, arrival));
        id += 1;
    }

    let wl = OnlineWorkload {
        grid,
        blocks,
        tasks,
    };
    debug_assert!(wl.validate().is_ok());
    wl
}

/// Draws a mechanism curve for a trace record, per the paper's mapping.
fn sample_mechanism_curve(grid: &AlphaGrid, machine: MachineType, rng: &mut StdRng) -> RdpCurve {
    let logu = |rng: &mut StdRng, lo: f64, hi: f64| -> f64 {
        (lo.ln() + rng.random::<f64>() * (hi.ln() - lo.ln())).exp()
    };
    match machine {
        MachineType::Cpu => match rng.random_range(0..3u32) {
            0 => {
                let b = logu(rng, 0.5, 20.0);
                LaplaceMechanism::new(b).expect("valid scale").curve(grid)
            }
            1 => {
                let sigma = logu(rng, 0.5, 20.0);
                GaussianMechanism::new(sigma)
                    .expect("valid sigma")
                    .curve(grid)
            }
            _ => {
                let b = logu(rng, 0.5, 10.0);
                let q = logu(rng, 0.01, 0.5);
                SubsampledLaplace::new(b, q)
                    .expect("valid params")
                    .curve(grid)
            }
        },
        MachineType::Gpu => {
            if rng.random::<f64>() < 0.5 {
                // Composition of subsampled Gaussians: a DP-SGD run.
                let sigma = logu(rng, 0.5, 4.0);
                let q = logu(rng, 0.005, 0.1);
                let steps = rng.random_range(100..5000u32);
                SubsampledGaussian::new(sigma, q)
                    .expect("valid params")
                    .curve(grid)
                    .compose_k(steps)
            } else {
                // Composition of Gaussians: DP-FTRL-style training.
                let sigma = logu(rng, 1.0, 20.0);
                let steps = rng.random_range(10..500u32);
                GaussianMechanism::new(sigma)
                    .expect("valid sigma")
                    .curve(grid)
                    .compose_k(steps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::best_alpha;

    #[test]
    fn trace_marginals_are_plausible() {
        let mut rng = StdRng::seed_from_u64(5);
        let trace = generate_trace(20_000, &mut rng);
        assert_eq!(trace.len(), 20_000);
        // Sorted by submission.
        assert!(trace.windows(2).all(|w| w[0].submit_day <= w[1].submit_day));
        // GPU fraction near the calibration target.
        let gpu = trace
            .iter()
            .filter(|t| t.machine == MachineType::Gpu)
            .count() as f64
            / trace.len() as f64;
        assert!((gpu - GPU_FRACTION).abs() < 0.02, "gpu fraction {gpu}");
        // Memory is heavy-tailed: mean well above median.
        let mut mems: Vec<f64> = trace.iter().map(|t| t.mem_gb_hours).collect();
        mems.sort_by(|a, b| a.total_cmp(b));
        let median = mems[mems.len() / 2];
        let mean = mems.iter().sum::<f64>() / mems.len() as f64;
        assert!(mean > 1.5 * median, "mean {mean} median {median}");
        // A busy user exists (Zipf head).
        let mut per_user = std::collections::HashMap::new();
        for t in &trace {
            *per_user.entry(t.user).or_insert(0usize) += 1;
        }
        let max_user = per_user.values().copied().max().unwrap();
        assert!(max_user > trace.len() / 200);
    }

    #[test]
    fn workload_respects_truncation_rules() {
        let cfg = AlibabaDpConfig {
            n_blocks: 30,
            n_tasks: 5_000,
            ..Default::default()
        };
        let wl = generate(&cfg, 9);
        wl.validate().unwrap();
        assert!(!wl.tasks.is_empty());
        let capacity = &wl.blocks[0].capacity;
        for t in &wl.tasks {
            assert!(t.blocks.len() <= MAX_BLOCKS_PER_TASK);
            let (_, eps_min) = best_alpha(&t.demand, capacity).unwrap();
            assert!(
                (EPS_MIN_RANGE.0 - 1e-9..=EPS_MIN_RANGE.1 + 1e-9).contains(&eps_min),
                "eps_min {eps_min}"
            );
        }
    }

    #[test]
    fn tasks_request_most_recent_blocks() {
        let cfg = AlibabaDpConfig {
            n_blocks: 20,
            n_tasks: 2_000,
            ..Default::default()
        };
        let wl = generate(&cfg, 10);
        for t in &wl.tasks {
            let newest = *t.blocks.last().unwrap();
            assert!(newest as f64 <= t.arrival, "block after arrival");
            // Contiguous most-recent range.
            let expect: Vec<u64> = (newest + 1 - t.blocks.len() as u64..=newest).collect();
            assert_eq!(t.blocks, expect);
        }
    }

    #[test]
    fn workload_is_heterogeneous_in_blocks_and_alphas() {
        // The property Fig. 6 relies on.
        let cfg = AlibabaDpConfig {
            n_blocks: 90,
            n_tasks: 8_000,
            ..Default::default()
        };
        let wl = generate(&cfg, 11);
        let capacity = &wl.blocks[0].capacity;
        let block_counts: std::collections::BTreeSet<usize> =
            wl.tasks.iter().map(|t| t.blocks.len()).collect();
        assert!(block_counts.len() >= 5, "block counts: {block_counts:?}");
        let alphas: std::collections::BTreeSet<u64> = wl
            .tasks
            .iter()
            .map(|t| {
                let (idx, _) = best_alpha(&t.demand, capacity).unwrap();
                wl.grid.order(idx) as u64
            })
            .collect();
        assert!(alphas.len() >= 3, "best alphas: {alphas:?}");
    }

    #[test]
    fn determinism_under_seed() {
        let cfg = AlibabaDpConfig {
            n_blocks: 10,
            n_tasks: 500,
            ..Default::default()
        };
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x, y);
        }
    }
}
