//! Runs the paper's panels by name (see `dpack_bench::paper`).
//!
//! ```console
//! $ cargo run --release --bin paper -- fig4 tab2 [--seed 42] [--full] [--out results]
//! ```
//!
//! A figure's name runs all of its panels (`fig4` is `fig4a fig4b`).
//! Each panel prints its table and writes it to `<out>/<name>.csv`.

use dpack_bench::cli::Args;
use dpack_bench::paper::{select, PANELS};

fn main() {
    let args = Args::parse();
    let unknown = args
        .names
        .iter()
        .any(|name| select(std::slice::from_ref(name)).is_empty());
    if args.names.is_empty() || unknown {
        let names: Vec<_> = PANELS.iter().map(|p| p.name).collect();
        eprintln!("usage: paper <name>... [--seed <u64>] [--full] [--out <dir>]");
        eprintln!("panels: {}", names.join(" "));
        std::process::exit(2);
    }
    for panel in select(&args.names) {
        let report = (panel.run)(&args);
        println!("{}\n", report.title);
        report.table.print();
        if !report.notes.is_empty() {
            println!("\n{}", report.notes.join("\n"));
        }
        println!();
        report
            .table
            .write_csv(format!("{}/{}.csv", args.out_dir, panel.name))
            .expect("write csv");
    }
}
