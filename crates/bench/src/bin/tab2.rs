//! Tab. 2 (Q4): efficiency on the budget service.
//!
//! Runs the same Alibaba-DP sample through `BudgetService` (online,
//! T = 5; see `dpack_bench::run_q4`) under DPack and DPF. The paper
//! reports 1269 vs 1100 allocated tasks (DPack ≈ +15%); the
//! reproduction target is the ordering and rough margin, not the
//! absolute counts (our trace is synthetic).

use dpack_bench::table::{fmt, Table};
use dpack_service::SchedulerChoice;

fn main() {
    let args = dpack_bench::cli::Args::parse();
    let n = if args.full { 4200 } else { 2500 };
    println!("Tab. 2 — service efficiency, Alibaba-DP ({n} submitted, T = 5)\n");
    let run = |scheduler| dpack_bench::run_q4(n, args.seed, scheduler, 5.0).allocated();
    let dpack = run(SchedulerChoice::DPack);
    let dpf = run(SchedulerChoice::DpfStrict);
    let mut t = Table::new(vec!["scheduler", "allocated"]);
    t.row(vec!["DPack".to_string(), dpack.to_string()]);
    t.row(vec!["DPF".to_string(), dpf.to_string()]);
    t.print();
    println!("\nDPack/DPF = {}", fmt(dpack as f64 / dpf.max(1) as f64, 2));
    t.write_csv(format!("{}/tab2.csv", args.out_dir))
        .expect("write csv");
    println!("Paper: DPack 1269 vs DPF 1100 (1.15x).");
}
