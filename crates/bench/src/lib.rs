//! Shared harness utilities for the experiment binaries.
//!
//! Every figure and table of the paper has a binary under `src/bin/`,
//! named after it (`fig1` … `fig9`, `tab2`); `fairness` is §6.3's
//! efficiency–fairness study, `diag_gap` a diagnostic of the DPack/DPF
//! gap on Alibaba-DP, and `simulate` the config-file runner. The
//! binaries print the paper's rows/series as aligned tables and write
//! CSVs under `results/`. All accept `--seed <u64>` and, where
//! applicable, `--panel <a|b>` and `--full` (paper-scale instead of the
//! quick default sizes).

pub mod cli;
pub mod micro;
pub mod table;

use dpack_service::{SchedulerChoice, ServiceConfig};
use simulator::{simulate_service_durable, SimulationConfig, SimulationResult};
use workloads::alibaba::{generate, AlibabaDpConfig};

/// Runs the §6.4 (Q4) setting of Fig. 8 and Tab. 2: an Alibaba-DP
/// instance of 30 blocks and `n_tasks` tasks, replayed through the
/// budget service's durable ledger on in-memory storage, with a cycle
/// every `scheduling_period`. The first 10 blocks are the offline ones,
/// present from time 0; the rest arrive one per time unit. Budget
/// unlocks over 30 steps, and the run drains for 35 periods after the
/// last arrival.
pub fn run_q4(
    n_tasks: usize,
    seed: u64,
    scheduler: SchedulerChoice,
    scheduling_period: f64,
) -> SimulationResult {
    let mut workload = generate(
        &AlibabaDpConfig {
            n_blocks: 30,
            n_tasks,
            ..Default::default()
        },
        seed,
    );
    for block in workload.blocks.iter_mut().take(10) {
        block.arrival = 0.0;
    }
    simulate_service_durable(
        &workload,
        &ServiceConfig {
            scheduler,
            workers: 4,
            ..ServiceConfig::default()
        },
        &SimulationConfig {
            scheduling_period,
            unlock_steps: 30,
            task_timeout: None,
            drain_steps: 35,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed 42 at Tab. 2's quick size and at Fig. 8(a)'s smallest load:
    /// a change to the service's decisions moves these counts.
    #[test]
    fn q4_allocations_are_pinned() {
        for (n_tasks, period, dpack, dpf) in [(2_500, 5.0, 1_550, 1_385), (1_000, 25.0, 757, 721)] {
            let run = |scheduler| run_q4(n_tasks, 42, scheduler, period).allocated();
            assert_eq!(
                run(SchedulerChoice::DPack),
                dpack,
                "{n_tasks} tasks, T = {period}"
            );
            assert_eq!(
                run(SchedulerChoice::DpfStrict),
                dpf,
                "{n_tasks} tasks, T = {period}"
            );
        }
    }
}
