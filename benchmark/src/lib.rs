//! The repo's benchmark. See `README.md` for every workload and metric;
//! `BENCHMARK.json` at the repo root names the command the driver runs.

pub mod catalogue;
pub mod drive;
pub mod harness;
pub mod inputs;
pub mod probes;
pub mod suite;
pub mod trace;
pub mod workloads;
