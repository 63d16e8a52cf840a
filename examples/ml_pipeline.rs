//! A continuous-training pipeline over a user-data stream.
//!
//! The §2.1 scenario end-to-end: data arrives as daily blocks; a company
//! schedules recurring DP workloads — a daily noisy usage count, a daily
//! histogram, and periodic DP-SGD model retrains — under a global
//! `(ε_G, δ_G)` guarantee per block. When the budget service grants a
//! task, the example *actually executes* the DP computation on synthetic
//! data (real noise, real training), demonstrating that granted budget
//! corresponds to runnable mechanisms.
//!
//! Run with `cargo run --example ml_pipeline`.

use dpack::accounting::dpsgd::{self, DpSgdConfig};
use dpack::accounting::noise::{noisy_count, noisy_histogram, sample_gaussian};
use dpack::prelude::*;
use dpack::service::{Decision, SubmissionTicket};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One day's worth of synthetic user records.
struct DayData {
    /// Two features per user for the churn model.
    features: Vec<Vec<f64>>,
    /// Churn labels.
    labels: Vec<bool>,
    /// Country bucket per user, for the histogram.
    country: Vec<usize>,
}

fn synthesize_day(rng: &mut StdRng, day: u64) -> DayData {
    let n = 400 + (day as usize % 3) * 100;
    let mut features = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut country = Vec::with_capacity(n);
    for i in 0..n {
        let churned = i % 3 == 0;
        let center = if churned { 1.0 } else { -1.0 };
        features.push(vec![
            center + sample_gaussian(rng, 0.6),
            center + sample_gaussian(rng, 0.6),
        ]);
        labels.push(churned);
        country.push(i % 5);
    }
    DayData {
        features,
        labels,
        country,
    }
}

fn main() {
    let grid = AlphaGrid::standard();
    let mut rng = StdRng::seed_from_u64(7);

    // The service enforces (10, 1e-7)-DP per daily block, unlocking
    // budget over 10 scheduling cycles, and runs DPack.
    let capacity = block_capacity(&grid, 10.0, 1e-7).expect("valid budget");
    let service = BudgetService::new(
        grid.clone(),
        ServiceConfig {
            unlock_steps: 10,
            default_timeout: Some(7.0),
            ..ServiceConfig::default()
        },
    );
    // Submitted tasks whose ticket has not resolved yet.
    let mut waiting: Vec<SubmissionTicket> = Vec::new();
    // Runs one cycle and returns the tasks it granted.
    let run_cycle = |waiting: &mut Vec<SubmissionTicket>, now: f64| {
        service.run_cycle(now);
        let mut granted = Vec::new();
        waiting.retain(|ticket| match ticket.try_decision() {
            None => true,
            Some(decision) => {
                if let Decision::Granted { .. } = decision {
                    granted.push(ticket.task_id());
                }
                false
            }
        });
        granted
    };

    // Task templates.
    let count_demand = LaplaceMechanism::new(2.0).expect("valid").curve(&grid);
    let hist_demand = GaussianMechanism::new(4.0).expect("valid").curve(&grid);
    let sgd = DpSgdConfig {
        noise_multiplier: 1.1,
        clip_norm: 1.0,
        sampling_rate: 0.05,
        steps: 400,
        learning_rate: 0.4,
    };
    let sgd_demand = sgd.privacy_cost(&grid).expect("valid config");

    let days = 14u64;
    let mut data: Vec<DayData> = Vec::new();
    let mut next_task = 0u64;
    let mut executed = Vec::new();

    for day in 0..days {
        // A new block of data arrives.
        data.push(synthesize_day(&mut rng, day));
        service
            .register_block(Block::new(day, capacity.clone(), day as f64))
            .expect("unique block");

        // Daily statistics on the fresh block.
        for demand in [&count_demand, &hist_demand] {
            let task = Task::new(next_task, 1.0, vec![day], demand.clone(), day as f64);
            waiting.push(service.submit_async(0, task).expect("valid task"));
            next_task += 1;
        }
        // Every third day, retrain the churn model on the last 3 blocks.
        if day % 3 == 2 {
            let window: Vec<u64> = (day - 2..=day).collect();
            let task = Task::new(next_task, 1.0, window, sgd_demand.clone(), day as f64);
            waiting.push(service.submit_async(0, task).expect("valid task"));
            next_task += 1;
        }

        // One scheduling cycle at the end of the day.
        let granted = run_cycle(&mut waiting, day as f64 + 1.0);
        for id in &granted {
            // Execute the granted task on its data.
            let is_training = *id >= 2 && (*id + 1) % 3 == 0 && *id % 2 == 0;
            executed.push((*id, is_training));
        }
        // Run the mechanisms for real on the newest block.
        if granted.contains(&(next_task - 2)) {
            let est =
                noisy_count(&mut rng, &data[day as usize].features, 0.5).expect("valid epsilon");
            println!(
                "day {day:>2}: noisy user count = {est:.0} (true {})",
                data[day as usize].features.len()
            );
        }
        if granted.contains(&(next_task - 1)) && day % 3 != 2 {
            let hist = noisy_histogram(&mut rng, &data[day as usize].country, 5, 4.0)
                .expect("valid params");
            println!(
                "day {day:>2}: noisy country histogram = {:?}",
                hist.iter().map(|h| h.round()).collect::<Vec<_>>()
            );
        }
        if day % 3 == 2 && granted.contains(&(next_task - 1)) {
            // Train on the 3-day window.
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for d in (day - 2)..=day {
                xs.extend(data[d as usize].features.iter().cloned());
                ys.extend(data[d as usize].labels.iter().copied());
            }
            let model = dpsgd::train(&mut rng, &xs, &ys, &sgd).expect("training runs");
            println!(
                "day {day:>2}: retrained churn model, accuracy = {:.2}",
                model.accuracy(&xs, &ys)
            );
        }
    }

    // Drain remaining cycles so queued tasks get their chance.
    for step in 0..12 {
        run_cycle(&mut waiting, days as f64 + 1.0 + step as f64);
    }

    let stats = service.stats().to_online();
    println!(
        "\npipeline summary: {} tasks granted, {} evicted, mean delay {:.1} days",
        stats.allocated.len(),
        stats.evicted.len(),
        stats.delays().iter().sum::<f64>() / stats.allocated.len().max(1) as f64
    );
    // The global guarantee held throughout: every block's filter kept at
    // least one Rényi order within capacity (enforced by the service).
    assert!(service.ledger().unsound_blocks().is_empty());
    println!("every block kept its (10, 1e-7)-DP guarantee (filters enforced per grant)");
}
