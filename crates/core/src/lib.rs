//! DPack: efficiency-oriented privacy-budget scheduling.
//!
//! This crate implements the paper's primary contribution: schedulers
//! that allocate the Rényi-DP budget of data blocks to competing tasks.
//!
//! * [`schedulers::DPack`] — Alg. 1: per-block best-alpha computation via
//!   single-block knapsacks, the efficiency metric of Eq. 6, greedy
//!   packing under `∀j ∃α` feasibility.
//! * [`schedulers::Dpf`] — the fairness-oriented dominant-share baseline
//!   (PrivateKube's DPF), viewed as a greedy heuristic for the privacy
//!   knapsack (§3.1–3.2).
//! * [`schedulers::GreedyArea`] — the "area" metric of Eq. 4 without
//!   best-alpha awareness (the ablation between DPF and DPack).
//! * [`schedulers::Fcfs`] — first-come-first-serve.
//! * [`schedulers::Optimal`] — the exact privacy-knapsack solver (the
//!   paper's Gurobi baseline, rebuilt in [`knapsack::privacy`]).
//! * [`online::OnlineEngine`] — the §3.4 batched online engine: schedule
//!   every `T` time units, unlock `1/N` of each block's budget per step,
//!   enforce per-block privacy filters (Prop. 6), evict timed-out tasks.
//!   It is the plain reference model: the budget service
//!   (`dpack-service`), which every online experiment runs on, is
//!   tested to decide what it decides.
//!
//! # Examples
//!
//! ```
//! use dpack_core::problem::{Block, ProblemState, Task};
//! use dpack_core::schedulers::{DPack, Scheduler};
//! use dp_accounting::{AlphaGrid, RdpCurve};
//!
//! let grid = AlphaGrid::single(2.0).unwrap(); // Traditional DP.
//! let blocks = vec![Block::new(0, RdpCurve::constant(&grid, 1.0), 0.0)];
//! let tasks = vec![
//!     Task::new(0, 1.0, vec![0], RdpCurve::constant(&grid, 0.6), 0.0),
//!     Task::new(1, 1.0, vec![0], RdpCurve::constant(&grid, 0.4), 0.0),
//! ];
//! let state = ProblemState::new(grid, blocks, tasks).unwrap();
//! let allocation = DPack::default().schedule(&state);
//! assert_eq!(allocation.scheduled.len(), 2);
//! ```

mod dense;
pub mod metrics;
pub mod online;
mod parallel;
pub mod problem;
pub mod scenarios;
pub mod schedulers;

pub use online::{BlockLedger, OnlineConfig, OnlineEngine, OnlineStats};
pub use problem::{Allocation, Block, BlockId, ProblemState, Task, TaskId};
pub use schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea, Optimal, Scheduler};
