//! Cross-crate integration tests: workload generation → scheduling →
//! budget enforcement, spanning `workloads`, `dpack-core`, `simulator`,
//! `dpack-service` and `dp-accounting` together.

use dpack::accounting::{block_capacity, fits, AlphaGrid, RdpCurve};
use dpack::core::problem::{Block, ProblemState, Task};
use dpack::core::scenarios;
use dpack::core::schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea, Optimal, Scheduler};
use dpack::gen::alibaba::{self, AlibabaDpConfig};
use dpack::gen::amazon::{self, AmazonConfig};
use dpack::gen::curves::CurveLibrary;
use dpack::gen::microbenchmark::{self, MicrobenchmarkConfig};
use dpack::sim::{simulate, SimulationConfig};

/// Recomputes an allocation's cumulative usage and asserts the
/// privacy-knapsack feasibility rule `∀ block ∃ order`.
fn assert_allocation_sound(state: &ProblemState, scheduled: &[u64]) {
    let grid = state.grid();
    let mut used: std::collections::BTreeMap<u64, RdpCurve> = Default::default();
    for id in scheduled {
        let task = state.task(*id).expect("scheduled id exists");
        for b in &task.blocks {
            let e = used.entry(*b).or_insert_with(|| RdpCurve::zero(grid));
            *e = e.compose(&task.demand).expect("same grid");
        }
    }
    for (b, u) in &used {
        let cap = &state.blocks()[b];
        let ok = (0..grid.len()).any(|a| fits(u.epsilon(a), cap.epsilon(a)));
        assert!(ok, "block {b} over budget at every order");
    }
}

#[test]
fn every_scheduler_is_budget_sound_on_the_microbenchmark() {
    let lib = CurveLibrary::standard();
    let cfg = MicrobenchmarkConfig {
        n_tasks: 120,
        n_blocks: 8,
        mu_blocks: 4.0,
        sigma_blocks: 2.0,
        sigma_alpha: 3.0,
        eps_min: 0.05,
        ..Default::default()
    };
    let state = microbenchmark::generate(&lib, &cfg, 11);
    for s in [
        &DPack::default() as &dyn Scheduler,
        &Dpf,
        &DpfStrict,
        &GreedyArea,
        &Fcfs,
    ] {
        let a = s.schedule(&state);
        assert!(!a.scheduled.is_empty(), "{} allocated nothing", s.name());
        assert_allocation_sound(&state, &a.scheduled);
        // No duplicates, all ids known.
        let set: std::collections::BTreeSet<_> = a.scheduled.iter().collect();
        assert_eq!(set.len(), a.scheduled.len());
    }
}

#[test]
fn optimal_dominates_every_heuristic() {
    let lib = CurveLibrary::standard();
    let cfg = MicrobenchmarkConfig {
        n_tasks: 40,
        n_blocks: 4,
        mu_blocks: 2.0,
        sigma_blocks: 1.5,
        sigma_alpha: 2.0,
        eps_min: 0.1,
        ..Default::default()
    };
    for seed in [1, 2, 3] {
        let state = microbenchmark::generate(&lib, &cfg, seed);
        let opt = Optimal::default().schedule(&state);
        assert_allocation_sound(&state, &opt.scheduled);
        for s in [
            &DPack::default() as &dyn Scheduler,
            &Dpf,
            &GreedyArea,
            &Fcfs,
        ] {
            let a = s.schedule(&state);
            assert!(
                opt.total_weight >= a.total_weight - 1e-9,
                "seed {seed}: Optimal {} < {} {}",
                opt.total_weight,
                s.name(),
                a.total_weight
            );
        }
    }
}

#[test]
fn online_simulation_respects_global_guarantee_end_to_end() {
    let wl = alibaba::generate(
        &AlibabaDpConfig {
            n_blocks: 12,
            n_tasks: 1500,
            ..Default::default()
        },
        5,
    );
    let result = simulate(
        &wl,
        DPack::default(),
        &SimulationConfig {
            scheduling_period: 1.0,
            unlock_steps: 10,
            task_timeout: Some(6.0),
            drain_steps: 12,
        },
    );
    assert!(result.allocated() > 0);
    // Recompute consumption per block from the allocated tasks and check
    // the (10, 1e-7) guarantee via an independent path: at least one
    // order within the capacity curve, which round-trips to ε_G.
    let grid = &wl.grid;
    let capacity = block_capacity(grid, 10.0, 1e-7).expect("valid");
    let allocated = result.allocated_ids();
    let mut used: std::collections::BTreeMap<u64, RdpCurve> = Default::default();
    for t in wl.tasks.iter().filter(|t| allocated.contains(&t.id)) {
        for b in &t.blocks {
            let e = used.entry(*b).or_insert_with(|| RdpCurve::zero(grid));
            *e = e.compose(&t.demand).expect("same grid");
        }
    }
    for (b, u) in used {
        let ok = (0..grid.len()).any(|a| fits(u.epsilon(a), capacity.epsilon(a)));
        assert!(ok, "block {b} violates the global guarantee");
    }
    // Conservation: allocated + evicted + pending == submitted.
    assert_eq!(
        result.allocated() + result.stats.evicted.len() + result.final_pending,
        result.n_submitted
    );
}

#[test]
fn service_and_simulator_agree_on_allocations() {
    use dpack::service::{SchedulerChoice, ServiceConfig};
    use dpack::sim::simulate_service;

    let wl = amazon::generate(
        &AmazonConfig {
            n_blocks: 8,
            mean_tasks_per_block: 40.0,
            ..Default::default()
        },
        9,
    );
    let config = SimulationConfig {
        scheduling_period: 1.0,
        unlock_steps: 5,
        task_timeout: None,
        drain_steps: 10,
    };
    let sim = simulate(&wl, DPack::default(), &config);
    // The service decides in one pass over every pending task whatever
    // its worker count, so it grants what the engine grants.
    let service = simulate_service(
        &wl,
        &ServiceConfig {
            scheduler: SchedulerChoice::DPack,
            workers: 3,
            ..ServiceConfig::default()
        },
        &config,
    );
    assert_eq!(sim.allocated_ids(), service.allocated_ids());
}

#[test]
fn paper_figures_hold_online_as_well() {
    // Replay Fig. 1/Fig. 3 through the online engine with instant
    // unlocking: the offline results must be preserved.
    for (state, dpack_expected, dpf_expected) in [
        (scenarios::fig1_state(), 3usize, 1usize),
        (scenarios::fig3_state(), 4, 2),
    ] {
        for (expected, run_dpack) in [(dpack_expected, true), (dpf_expected, false)] {
            let mut engine_dpack;
            let mut engine_dpf;
            let engine: &mut dyn FnMut(f64) -> usize = if run_dpack {
                engine_dpack = dpack::core::online::OnlineEngine::new(
                    DPack::default(),
                    state.grid().clone(),
                    dpack::core::online::OnlineConfig {
                        scheduling_period: 1.0,
                        unlock_period: 1.0,
                        unlock_steps: 1,
                        default_timeout: None,
                    },
                );
                for (id, cap) in state.blocks() {
                    engine_dpack
                        .add_block(Block::new(*id, cap.clone(), 0.0))
                        .expect("unique");
                }
                for t in state.tasks() {
                    engine_dpack.submit_task(t.clone()).expect("valid");
                }
                &mut move |t| engine_dpack.run_step(t).expect("sound").scheduled.len()
            } else {
                engine_dpf = dpack::core::online::OnlineEngine::new(
                    Dpf,
                    state.grid().clone(),
                    dpack::core::online::OnlineConfig {
                        scheduling_period: 1.0,
                        unlock_period: 1.0,
                        unlock_steps: 1,
                        default_timeout: None,
                    },
                );
                for (id, cap) in state.blocks() {
                    engine_dpf
                        .add_block(Block::new(*id, cap.clone(), 0.0))
                        .expect("unique");
                }
                for t in state.tasks() {
                    engine_dpf.submit_task(t.clone()).expect("valid");
                }
                &mut move |t| engine_dpf.run_step(t).expect("sound").scheduled.len()
            };
            assert_eq!(engine(1.0), expected);
        }
    }
}

#[test]
fn dpsgd_task_runs_under_scheduled_budget() {
    use dpack::accounting::dpsgd::{train, DpSgdConfig};
    use dpack::accounting::noise::sample_gaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let grid = AlphaGrid::standard();
    let capacity = block_capacity(&grid, 10.0, 1e-7).expect("valid");
    let sgd = DpSgdConfig {
        noise_multiplier: 1.0,
        clip_norm: 1.0,
        sampling_rate: 0.05,
        steps: 200,
        learning_rate: 0.5,
    };
    let demand = sgd.privacy_cost(&grid).expect("valid config");

    // Schedule the training task on one block.
    let blocks = vec![Block::new(0, capacity.clone(), 0.0)];
    let task = Task::new(0, 1.0, vec![0], demand.clone(), 0.0);
    let state = ProblemState::new(grid.clone(), blocks, vec![task]).expect("well-formed");
    let allocation = DPack::default().schedule(&state);
    assert_eq!(allocation.scheduled, vec![0], "training must fit the block");

    // Execute the granted task: the model actually learns.
    let mut rng = StdRng::seed_from_u64(2);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for i in 0..400 {
        let label = i % 2 == 0;
        let c = if label { 1.2 } else { -1.2 };
        xs.push(vec![c + sample_gaussian(&mut rng, 0.5), c]);
        ys.push(label);
    }
    let model = train(&mut rng, &xs, &ys, &sgd).expect("training runs");
    assert!(model.accuracy(&xs, &ys) > 0.8);

    // And its consumed budget matches the scheduled demand exactly.
    let mut filter = dpack::accounting::RenyiFilter::new(capacity);
    filter.try_consume(&demand).expect("fits the fresh block");
}

/// FNV-1a over `words`, so a pin of thousands of values fits a line.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// DPack's whole pass on `state`, as bits: the best alpha of every
/// block, the digest of every efficiency's bits, how many tasks were
/// scheduled and the digest of their ids in order, and the total
/// weight's bits.
fn dpack_pass_bits(state: &ProblemState) -> (Vec<Option<usize>>, u64, usize, u64, u64) {
    let dpack = DPack::default();
    let best = dpack.best_alphas(state);
    let eff = dpack.efficiencies(state, &best);
    let alloc = dpack.schedule(state);
    (
        best.into_values().collect(),
        digest(eff.iter().map(|e| e.to_bits())),
        alloc.scheduled.len(),
        digest(alloc.scheduled.iter().copied()),
        alloc.total_weight.to_bits(),
    )
}

/// DPack's output on two generated instances, pinned bit for bit: a
/// change to the kernel that is meant to be a pure speed-up must leave
/// every value here as it is. The microbenchmark instance has one
/// arrival, so ties in efficiency fall to ids; the Alibaba-DP one, with
/// a fifth of its budget available, has spread arrivals.
#[test]
fn dpack_output_is_pinned_on_generated_instances() {
    let micro = microbenchmark::generate(
        &CurveLibrary::standard(),
        &MicrobenchmarkConfig {
            n_tasks: 2_000,
            n_blocks: 20,
            mu_blocks: 10.0,
            sigma_blocks: 3.0,
            sigma_alpha: 4.0,
            eps_min: 0.01,
            ..Default::default()
        },
        7,
    );
    let wl = alibaba::generate(
        &AlibabaDpConfig {
            n_blocks: 20,
            n_tasks: 600,
            ..Default::default()
        },
        7,
    );
    let blocks = wl
        .blocks
        .into_iter()
        .map(|b| Block::new(b.id, b.capacity.scale(0.2), b.arrival))
        .collect();
    let alibaba = ProblemState::new(wl.grid, blocks, wl.tasks).expect("well-formed");
    let micro_expected = (
        vec![Some(4); 20],
        12_729_741_289_205_607_553,
        244,
        11_731_725_570_568_264_239,
        244.0f64.to_bits(),
    );
    let mut alibaba_alphas = vec![Some(6); 20];
    for j in [9, 12, 13, 14, 15, 16, 17, 18, 19] {
        alibaba_alphas[j] = Some(5);
    }
    let alibaba_expected = (
        alibaba_alphas,
        8_425_483_445_897_786_020,
        298,
        3_951_821_913_770_021_982,
        298.0f64.to_bits(),
    );
    assert_eq!(dpack_pass_bits(&micro), micro_expected);
    assert_eq!(dpack_pass_bits(&alibaba), alibaba_expected);
}

#[test]
fn weighted_scheduling_threads_through_the_stack() {
    let wl = amazon::generate(
        &AmazonConfig {
            n_blocks: 10,
            mean_tasks_per_block: 80.0,
            weighted: true,
            ..Default::default()
        },
        3,
    );
    let cfg = SimulationConfig {
        scheduling_period: 1.0,
        unlock_steps: 5,
        task_timeout: Some(5.0),
        drain_steps: 10,
    };
    let dpack = simulate(&wl, DPack::default(), &cfg);
    assert!(dpack.total_weight() > dpack.allocated() as f64);
}
