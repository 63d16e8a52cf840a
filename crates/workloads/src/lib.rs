//! Workload generators for the DPack evaluation.
//!
//! Three workloads, mirroring §6 of the paper:
//!
//! * [`microbenchmark`] — the §6.2 offline microbenchmark: a library of
//!   620 RDP curves over five mechanism families ([`curves`]), with two
//!   heterogeneity knobs (`σ_blocks`, `σ_α`).
//! * [`alibaba`] — the §6.3 Alibaba-DP macrobenchmark. The real Alibaba
//!   2022 GPU-cluster trace is not redistributable here, so a synthetic
//!   trace calibrated to its published marginals is generated first and
//!   the paper's proxy mapping (machine type → mechanism, memory → ε,
//!   network bytes → #blocks) is applied unchanged.
//! * [`amazon`] — the PrivateKube Amazon Reviews macrobenchmark: 24
//!   neural-network task types plus 18 Laplace statistics tasks, with the
//!   low block/alpha heterogeneity the paper reports, and the weighted
//!   variant of Fig. 7(b).
//!
//! All generators are deterministic given a seed, and produce
//! [`dpack_core::problem::Task`]/[`Block`] values directly usable by the
//! offline schedulers and the online simulator.

pub mod alibaba;
pub mod amazon;
pub mod curves;
pub mod microbenchmark;
pub mod stats;

use dp_accounting::AlphaGrid;
use dpack_core::problem::{Block, Task};

/// A generated online workload: blocks arriving one per virtual time
/// unit and tasks arriving at real-valued times.
#[derive(Debug, Clone)]
pub struct OnlineWorkload {
    /// The alpha grid all curves share.
    pub grid: AlphaGrid,
    /// Blocks, with `blocks[j].arrival == j` by convention.
    pub blocks: Vec<Block>,
    /// Tasks sorted by arrival time.
    pub tasks: Vec<Task>,
}

impl OnlineWorkload {
    /// Sanity-checks orderings and references; used by generator tests.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.tasks.windows(2) {
            if w[0].arrival > w[1].arrival {
                return Err("tasks not sorted by arrival".into());
            }
        }
        let max_block = self.blocks.len() as u64;
        for t in &self.tasks {
            if t.blocks.iter().any(|b| *b >= max_block) {
                return Err(format!("task {} requests nonexistent block", t.id));
            }
            if t.blocks.is_empty() {
                return Err(format!("task {} requests no blocks", t.id));
            }
        }
        Ok(())
    }
}

/// The paper's default per-block budget: `(ε_G, δ_G) = (10, 10⁻⁷)`
/// (§6.2).
pub const DEFAULT_BLOCK_EPSILON: f64 = 10.0;

/// See [`DEFAULT_BLOCK_EPSILON`].
pub const DEFAULT_BLOCK_DELTA: f64 = 1e-7;
