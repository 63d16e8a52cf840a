//! Configuration-file support for the simulator.
//!
//! The paper's simulator is driven by configuration files that define
//! "block and task arrival frequencies, the scheduling period and the
//! block unlocking rate" (§5). This module parses a minimal
//! `key = value` format (comments with `#`, sections ignored) into a
//! [`SimulationSpec`]: the simulation parameters plus a workload choice,
//! without pulling a serialization dependency.
//!
//! ```text
//! # experiment.conf
//! workload            = alibaba     # alibaba | amazon | microbenchmark
//! seed                = 42
//! n_blocks            = 30
//! n_tasks             = 5000
//! scheduling_period   = 1.0
//! unlock_steps        = 50
//! task_timeout        = 5.0         # omit or set to "none" for no eviction
//! scheduler           = dpack       # dpack | dpf | dpf-strict | fcfs | greedy-area
//! backend             = engine      # engine | service
//! shards              = 4           # service backend: ledger shards
//! workers             = 2           # service backend: worker threads
//! durability          = none        # service backend: none | sim
//!                                   # (sim = write-ahead log on in-memory
//!                                   #  SimStorage; decision-invisible)
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::SimulationConfig;

/// An error parsing a configuration file.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Which workload generator to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The §6.3 Alibaba-DP macrobenchmark.
    Alibaba,
    /// The PrivateKube Amazon Reviews macrobenchmark.
    Amazon,
    /// The §6.2 microbenchmark (offline-style, replayed online).
    Microbenchmark,
}

impl FromStr for WorkloadKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "alibaba" | "alibaba-dp" => Ok(Self::Alibaba),
            "amazon" | "amazon-reviews" => Ok(Self::Amazon),
            "microbenchmark" | "micro" => Ok(Self::Microbenchmark),
            other => Err(ConfigError(format!("unknown workload '{other}'"))),
        }
    }
}

/// Which scheduling policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// DPack (Alg. 1).
    DPack,
    /// DPF, skip-greedy packing.
    Dpf,
    /// DPF with head-of-line blocking.
    DpfStrict,
    /// First-come-first-serve.
    Fcfs,
    /// The Eq. 4 area heuristic.
    GreedyArea,
}

impl FromStr for SchedulerKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "dpack" => Ok(Self::DPack),
            "dpf" => Ok(Self::Dpf),
            "dpf-strict" | "dpf_strict" => Ok(Self::DpfStrict),
            "fcfs" => Ok(Self::Fcfs),
            "greedy-area" | "greedy_area" | "area" => Ok(Self::GreedyArea),
            other => Err(ConfigError(format!("unknown scheduler '{other}'"))),
        }
    }
}

impl SchedulerKind {
    /// The service-crate policy equivalent to this kind.
    pub fn to_service_choice(self) -> dpack_service::SchedulerChoice {
        match self {
            Self::DPack => dpack_service::SchedulerChoice::DPack,
            Self::Dpf => dpack_service::SchedulerChoice::Dpf,
            Self::DpfStrict => dpack_service::SchedulerChoice::DpfStrict,
            Self::Fcfs => dpack_service::SchedulerChoice::Fcfs,
            Self::GreedyArea => dpack_service::SchedulerChoice::GreedyArea,
        }
    }
}

/// Which execution backend replays the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The single-threaded [`dpack_core::online::OnlineEngine`].
    Engine,
    /// The sharded, concurrent `dpack-service` budget service.
    Service,
}

impl FromStr for BackendKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "engine" | "online" => Ok(Self::Engine),
            "service" | "dpack-service" => Ok(Self::Service),
            other => Err(ConfigError(format!("unknown backend '{other}'"))),
        }
    }
}

/// Whether the service backend writes ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityKind {
    /// In-memory ledger (the default).
    #[default]
    None,
    /// WAL through `dpack-wal`'s in-memory `SimStorage` — exercises
    /// the full logging path deterministically, without touching disk.
    Sim,
}

impl FromStr for DurabilityKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "off" => Ok(Self::None),
            "sim" | "wal" => Ok(Self::Sim),
            other => Err(ConfigError(format!("unknown durability '{other}'"))),
        }
    }
}

/// A fully parsed experiment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationSpec {
    /// Workload generator.
    pub workload: WorkloadKind,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Execution backend.
    pub backend: BackendKind,
    /// Ledger shards (service backend only).
    pub shards: usize,
    /// Worker threads (service backend only).
    pub workers: usize,
    /// Write-ahead logging (service backend only).
    pub durability: DurabilityKind,
    /// RNG seed.
    pub seed: u64,
    /// Number of blocks.
    pub n_blocks: usize,
    /// Number of tasks (Alibaba/microbenchmark) or mean tasks per block
    /// (Amazon).
    pub n_tasks: usize,
    /// Simulator parameters.
    pub sim: SimulationConfig,
}

impl Default for SimulationSpec {
    fn default() -> Self {
        Self {
            workload: WorkloadKind::Alibaba,
            scheduler: SchedulerKind::DPack,
            backend: BackendKind::Engine,
            shards: 4,
            workers: 2,
            durability: DurabilityKind::None,
            seed: 42,
            n_blocks: 30,
            n_tasks: 5000,
            sim: SimulationConfig::default(),
        }
    }
}

impl SimulationSpec {
    /// Parses the `key = value` format described in the module docs.
    ///
    /// Unknown keys are rejected (typos should fail loudly); missing
    /// keys keep their defaults.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut map = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() || line.starts_with('[') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected 'key = value', got '{line}'",
                    lineno + 1
                )));
            };
            map.insert(key.trim().to_string(), value.trim().to_string());
        }
        Self::from_map(map)
    }

    fn from_map(map: BTreeMap<String, String>) -> Result<Self, ConfigError> {
        let mut spec = Self::default();
        for (key, value) in map {
            match key.as_str() {
                "workload" => spec.workload = value.parse()?,
                "scheduler" => spec.scheduler = value.parse()?,
                "backend" => spec.backend = value.parse()?,
                "shards" => spec.shards = parse_num(&key, &value)?,
                "workers" => spec.workers = parse_num(&key, &value)?,
                "durability" => spec.durability = value.parse()?,
                "seed" => spec.seed = parse_num(&key, &value)?,
                "n_blocks" => spec.n_blocks = parse_num(&key, &value)?,
                "n_tasks" => spec.n_tasks = parse_num(&key, &value)?,
                "scheduling_period" => spec.sim.scheduling_period = parse_num(&key, &value)?,
                "unlock_steps" => spec.sim.unlock_steps = parse_num(&key, &value)?,
                "drain_steps" => spec.sim.drain_steps = parse_num(&key, &value)?,
                "task_timeout" => {
                    spec.sim.task_timeout = if value.eq_ignore_ascii_case("none") {
                        None
                    } else {
                        Some(parse_num(&key, &value)?)
                    };
                }
                other => return Err(ConfigError(format!("unknown key '{other}'"))),
            }
        }
        if spec.n_blocks == 0 || spec.n_tasks == 0 {
            return Err(ConfigError("n_blocks and n_tasks must be positive".into()));
        }
        if spec.shards == 0 || spec.workers == 0 {
            return Err(ConfigError("shards and workers must be positive".into()));
        }
        if spec.sim.scheduling_period <= 0.0 || spec.sim.scheduling_period.is_nan() {
            return Err(ConfigError("scheduling_period must be positive".into()));
        }
        if matches!(spec.sim.task_timeout, Some(t) if !t.is_finite() || t < 0.0) {
            return Err(ConfigError("task_timeout must be finite and >= 0".into()));
        }
        if spec.durability != DurabilityKind::None && spec.backend != BackendKind::Service {
            return Err(ConfigError(
                "durability requires 'backend = service'".into(),
            ));
        }
        Ok(spec)
    }

    /// Generates the configured workload.
    pub fn build_workload(&self) -> workloads::OnlineWorkload {
        match self.workload {
            WorkloadKind::Alibaba => workloads::alibaba::generate(
                &workloads::alibaba::AlibabaDpConfig {
                    n_blocks: self.n_blocks,
                    n_tasks: self.n_tasks,
                    ..Default::default()
                },
                self.seed,
            ),
            WorkloadKind::Amazon => workloads::amazon::generate(
                &workloads::amazon::AmazonConfig {
                    n_blocks: self.n_blocks,
                    mean_tasks_per_block: self.n_tasks as f64 / self.n_blocks as f64,
                    ..Default::default()
                },
                self.seed,
            ),
            WorkloadKind::Microbenchmark => {
                // Replay the offline microbenchmark online: all blocks at
                // t = 0, tasks spread over the first period.
                let lib = workloads::curves::CurveLibrary::standard();
                let state = workloads::microbenchmark::generate(
                    &lib,
                    &workloads::microbenchmark::MicrobenchmarkConfig {
                        n_tasks: self.n_tasks,
                        n_blocks: self.n_blocks,
                        mu_blocks: (self.n_blocks as f64 / 2.0).max(1.0),
                        sigma_blocks: 2.0,
                        sigma_alpha: 2.0,
                        eps_min: 0.05,
                        ..Default::default()
                    },
                    self.seed,
                );
                let blocks = state
                    .blocks()
                    .iter()
                    .map(|(id, cap)| dpack_core::problem::Block::new(*id, cap.clone(), 0.0))
                    .collect();
                workloads::OnlineWorkload {
                    grid: state.grid().clone(),
                    blocks,
                    tasks: state.tasks().to_vec(),
                }
            }
        }
    }

    /// Runs the configured experiment on the selected backend.
    pub fn run(&self) -> crate::SimulationResult {
        use dpack_core::schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea};
        let wl = self.build_workload();
        match self.backend {
            BackendKind::Engine => match self.scheduler {
                SchedulerKind::DPack => crate::simulate(&wl, DPack::default(), &self.sim),
                SchedulerKind::Dpf => crate::simulate(&wl, Dpf, &self.sim),
                SchedulerKind::DpfStrict => crate::simulate(&wl, DpfStrict, &self.sim),
                SchedulerKind::Fcfs => crate::simulate(&wl, Fcfs, &self.sim),
                SchedulerKind::GreedyArea => crate::simulate(&wl, GreedyArea, &self.sim),
            },
            BackendKind::Service => {
                let service_config = dpack_service::ServiceConfig {
                    shards: self.shards,
                    workers: self.workers,
                    scheduler: self.scheduler.to_service_choice(),
                    ..dpack_service::ServiceConfig::default()
                };
                match self.durability {
                    DurabilityKind::None => {
                        crate::simulate_service(&wl, &service_config, &self.sim)
                    }
                    DurabilityKind::Sim => {
                        crate::simulate_service_durable(&wl, &service_config, &self.sim)
                    }
                }
            }
        }
    }
}

fn parse_num<T: FromStr>(key: &str, value: &str) -> Result<T, ConfigError> {
    value
        .parse()
        .map_err(|_| ConfigError(format!("invalid value '{value}' for key '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
        # experiment
        workload = amazon
        scheduler = dpf-strict
        seed = 7
        n_blocks = 12
        n_tasks = 240             # 20 per block
        scheduling_period = 2.0
        unlock_steps = 10
        drain_steps = 15
        task_timeout = none
    ";

    #[test]
    fn parses_the_documented_format() {
        let spec = SimulationSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.workload, WorkloadKind::Amazon);
        assert_eq!(spec.scheduler, SchedulerKind::DpfStrict);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.n_blocks, 12);
        assert_eq!(spec.n_tasks, 240);
        assert_eq!(spec.sim.scheduling_period, 2.0);
        assert_eq!(spec.sim.unlock_steps, 10);
        assert_eq!(spec.sim.task_timeout, None);
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let spec = SimulationSpec::parse("workload = alibaba").unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.scheduler, SchedulerKind::DPack);
    }

    #[test]
    fn rejects_unknown_keys_and_values() {
        assert!(SimulationSpec::parse("workload = netflix").is_err());
        assert!(SimulationSpec::parse("sched = dpack").is_err());
        assert!(SimulationSpec::parse("seed = abc").is_err());
        assert!(SimulationSpec::parse("just a line").is_err());
        assert!(SimulationSpec::parse("n_blocks = 0").is_err());
        for timeout in ["-1", "inf", "NaN"] {
            assert!(SimulationSpec::parse(&format!("task_timeout = {timeout}")).is_err());
        }
    }

    #[test]
    fn comments_and_sections_are_ignored() {
        let spec = SimulationSpec::parse("[sim]\n# note\nseed = 9 # trailing\n").unwrap();
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn end_to_end_run_from_config() {
        let spec = SimulationSpec::parse(
            "workload = amazon\nn_blocks = 6\nn_tasks = 120\nunlock_steps = 3\ndrain_steps = 8",
        )
        .unwrap();
        let result = spec.run();
        assert!(result.allocated() > 0);
        assert!(result.n_submitted > 0);
    }

    #[test]
    fn microbenchmark_workload_builds() {
        let spec = SimulationSpec::parse(
            "workload = micro\nn_blocks = 5\nn_tasks = 50\nscheduler = greedy-area",
        )
        .unwrap();
        let wl = spec.build_workload();
        assert_eq!(wl.blocks.len(), 5);
        assert_eq!(wl.tasks.len(), 50);
        wl.validate().unwrap();
    }

    #[test]
    fn service_backend_runs_from_config() {
        let spec = SimulationSpec::parse(
            "workload = micro\nbackend = service\nshards = 2\nworkers = 2\n\
             n_blocks = 6\nn_tasks = 60\nunlock_steps = 3\ndrain_steps = 8",
        )
        .unwrap();
        assert_eq!(spec.backend, BackendKind::Service);
        let result = spec.run();
        assert!(result.allocated() > 0);
    }

    #[test]
    fn backend_keys_are_validated() {
        assert!(SimulationSpec::parse("backend = quantum").is_err());
        assert!(SimulationSpec::parse("shards = 0").is_err());
        assert!(SimulationSpec::parse("workers = 0").is_err());
        let spec = SimulationSpec::parse("backend = engine").unwrap();
        assert_eq!(spec.backend, BackendKind::Engine);
    }

    #[test]
    fn durability_toggle_parses_and_is_gated_to_the_service_backend() {
        let spec = SimulationSpec::parse("backend = service\ndurability = sim").unwrap();
        assert_eq!(spec.durability, DurabilityKind::Sim);
        let spec = SimulationSpec::parse("backend = service").unwrap();
        assert_eq!(spec.durability, DurabilityKind::None);
        assert!(SimulationSpec::parse("durability = etcd").is_err());
        // The engine backend has no ledger to log.
        assert!(SimulationSpec::parse("durability = sim").is_err());
        assert!(SimulationSpec::parse("backend = engine\ndurability = wal").is_err());
    }

    #[test]
    fn durable_service_backend_runs_from_config() {
        let spec = SimulationSpec::parse(
            "workload = micro\nbackend = service\ndurability = sim\nshards = 2\nworkers = 2\n\
             n_blocks = 6\nn_tasks = 60\nunlock_steps = 3\ndrain_steps = 8",
        )
        .unwrap();
        let durable = spec.run();
        assert!(durable.allocated() > 0);
        // Durability is decision-invisible at the config level too.
        let plain = SimulationSpec {
            durability: DurabilityKind::None,
            ..spec
        }
        .run();
        assert_eq!(durable.stats.allocated, plain.stats.allocated);
    }

    #[test]
    fn every_scheduler_kind_parses() {
        for (s, k) in [
            ("dpack", SchedulerKind::DPack),
            ("DPF", SchedulerKind::Dpf),
            ("dpf_strict", SchedulerKind::DpfStrict),
            ("fcfs", SchedulerKind::Fcfs),
            ("area", SchedulerKind::GreedyArea),
        ] {
            assert_eq!(s.parse::<SchedulerKind>().unwrap(), k);
        }
    }
}
