use std::process::ExitCode;

use dpack_benchmark::harness::{Args, Bench};
use dpack_benchmark::{suite, workloads};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--aa]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        // One workload, in this process: what the driver runs.
        Some(name) => {
            let mut bench = Bench::new(&args);
            if let Err(e) = workloads::run(name, &mut bench) {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
            bench.finish(name)
        }
        // Every workload, each in a fresh child of this binary.
        None => suite::run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
