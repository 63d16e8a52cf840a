//! `tiered_zipf` — a block registry 12x larger than the ledger's hot
//! tier, with one-or-two-block tasks whose blocks follow a Zipf law
//! (plus 20 % uniform picks). Block faults, spills and demand-driven
//! snapshots do the work; this is the only workload that runs the tier
//! code, so a ledger refactor that regresses it cannot hide.
//!
//! Sized down from the issue's 200 000 blocks on the default 4 × 4 096
//! hot tier to 50 000 blocks on 4 × 1 024: the same 8 % hot share, with
//! a registration short enough to repeat every round.

use std::sync::Arc;
use std::time::Instant;

use dpack_service::wal::{FsStorage, WalStorage};
use dpack_service::{BudgetService, TierConfig};

use crate::drive::{self, check_ledger};
use crate::harness::{timed, Bench, ScratchDir, WINDOW};
use crate::inputs;
use crate::probes;
use crate::trace::{open, TimedStorage};
use crate::workloads::service_config;

pub fn run(bench: &mut Bench) {
    let n_blocks = bench.size(50_000, 1_000) as u64;
    let tier = TierConfig {
        hot_capacity: bench.size(1_024, 20),
        ..TierConfig::default()
    };
    let n_tasks = bench.size(300, 8) * WINDOW;
    while bench.next_round().is_some() {
        let tracer = bench.tracer().cloned();
        let tracer = tracer.as_ref();
        let _round = open(tracer, "bench.round", 0);

        let setup = Instant::now();
        let span = open(tracer, "workloads.generate", 0);
        let (generate_s, stream) = timed(|| inputs::zipf(bench.seed, n_blocks, n_tasks));
        drop(span);
        bench.sample("workloads.generate_s", generate_s);
        let dir = ScratchDir::new("tier");
        let fs = FsStorage::new(dir.path()).expect("spill directory opens");
        let storage: Box<dyn WalStorage> = match tracer {
            None => Box::new(fs),
            Some(t) => Box::new(TimedStorage::new(Box::new(fs), Arc::clone(t))),
        };
        let service =
            BudgetService::with_tier(stream.grid.clone(), service_config(), &*storage, tier)
                .expect("tiered service opens");
        let span = open(tracer, "service.register_blocks", 0);
        let (register_s, ()) = timed(|| {
            for block in &stream.blocks {
                service
                    .register_block(block.clone())
                    .expect("unique blocks");
            }
        });
        drop(span);
        bench.sample("setup_s", setup.elapsed().as_secs_f64());
        bench.sample(
            "service.register_block_us",
            register_s * 1e6 / n_blocks as f64,
        );

        let before = service.ledger().tier_activity().unwrap_or_default();
        let stats = drive::in_process(&service, stream.tasks, tracer);
        stats.report(bench);
        check_ledger(bench, &service, &stats);
        let after = service.ledger().tier_activity().unwrap_or_default();
        bench.check(after.spill_failures == 0, || {
            format!(
                "{} spill writes or fault-in reads failed",
                after.spill_failures
            )
        });
        if bench.is_traced() {
            stats.report_cycles(bench);
            let faults = (after.faults - before.faults) as f64;
            let touches = faults + (after.hits - before.hits) as f64;
            bench.sample("service.tier_fault_ratio", faults / touches.max(1.0));
            bench.sample("service.tier_spilled", after.spilled as f64);
            bench.sample(
                "service.tier_live_spill_mb",
                after.spill_bytes as f64 / (1024.0 * 1024.0),
            );
        }
    }
    bench.check_exact("allocated_tasks");

    let Some(tracer) = bench.probe_tracer().cloned() else {
        return;
    };
    drive::report_load_spans(bench, &tracer);
    let stream = inputs::zipf(bench.seed, n_blocks, n_tasks);
    probes::accounting(bench, &stream.blocks[0].capacity, &stream.tasks);
    probes::ledger_commit(bench, &service_config(), &stream.blocks, &stream.tasks);
}
