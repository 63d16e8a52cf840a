//! Fig. 8 (Q4): DPack on the budget service under Alibaba-DP.
//!
//! Every run replays through `BudgetService`'s durable ledger on
//! in-memory storage (see `dpack_bench::run_q4`).
//! Panel (a): scheduling-procedure runtime vs submitted tasks in an
//! offline-like setting (T = 25, 10 offline + 20 online blocks). The
//! "total" columns are the run's measured wall time — admission, every
//! cycle's ingest, snapshot, algorithm and commit, and the write-ahead
//! log on in-memory storage, so no fsync — and the "algo" columns the
//! scheduling passes alone. The paper's Kubernetes API overheads are
//! not modelled, so service overheads dominate only as far as this
//! service's own do.
//! Panel (b): the scheduling-delay CDFs of DPack and DPF in an online
//! setting (T = 5), in virtual time.

use std::time::Duration;

use dpack_bench::run_q4;
use dpack_bench::table::{fmt, Table};
use dpack_core::metrics::quantile;
use dpack_service::SchedulerChoice;

fn main() {
    let args = dpack_bench::cli::Args::parse();

    if args.wants_panel('a') {
        println!("Fig. 8(a) — scheduler runtime on the service (T = 25, offline-like)\n");
        let loads: Vec<usize> = if args.full {
            vec![2000, 2500, 3000, 3500, 4200]
        } else {
            vec![1000, 2000, 3000, 4200]
        };
        let mut t = Table::new(vec![
            "tasks",
            "DPack total(ms)",
            "DPack algo(ms)",
            "DPF total(ms)",
            "DPF algo(ms)",
        ]);
        let ms = |d: Duration| fmt(d.as_secs_f64() * 1e3, 1);
        for &n in &loads {
            let dpack = run_q4(n, args.seed, SchedulerChoice::DPack, 25.0);
            let dpf = run_q4(n, args.seed, SchedulerChoice::DpfStrict, 25.0);
            t.row(vec![
                n.to_string(),
                ms(dpack.wall_time),
                ms(dpack.stats.scheduler_runtime),
                ms(dpf.wall_time),
                ms(dpf.stats.scheduler_runtime),
            ]);
        }
        t.print();
        t.write_csv(format!("{}/fig8a.csv", args.out_dir))
            .expect("write csv");
        println!(
            "\nPaper: DPack only modestly slower than DPF because service overheads dominate.\n"
        );
    }

    if args.wants_panel('b') {
        println!("Fig. 8(b) — scheduling-delay CDF (T = 5, online)\n");
        let n = if args.full { 4200 } else { 2000 };
        let dpack_delays = run_q4(n, args.seed, SchedulerChoice::DPack, 5.0)
            .stats
            .delays();
        let dpf_delays = run_q4(n, args.seed, SchedulerChoice::DpfStrict, 5.0)
            .stats
            .delays();
        let mut t = Table::new(vec!["percentile", "DPack delay", "DPF delay"]);
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            t.row(vec![
                fmt(p * 100.0, 0),
                fmt(quantile(&dpack_delays, p).unwrap_or(f64::NAN), 2),
                fmt(quantile(&dpf_delays, p).unwrap_or(f64::NAN), 2),
            ]);
        }
        t.print();
        t.write_csv(format!("{}/fig8b.csv", args.out_dir))
            .expect("write csv");
        println!("\nPaper: delay CDFs nearly identical across the two schedulers.");
    }
}
