//! The whole benchmark in one command: every workload, untraced and
//! traced, each in a fresh child of this binary (so neither the peak
//! resident set nor the process-wide curve interner carries over), and
//! the `--aa` mode that runs the untraced set twice and holds the two
//! against the bounds.

use std::collections::BTreeMap;
use std::process::Command;

use crate::catalogue::{END_TO_END, WORKLOADS};
use crate::harness::Args;

/// `metric name -> value` of one child run, and whether it was correct.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process, passes its output through and
/// parses the result line.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let mut result = parse_result(last).ok_or(format!("{workload}: no result line"))?;
    result.correct &= output.status.success();
    Ok(result)
}

/// Parses the line `Bench::finish` prints. The format is this crate's
/// own, so a scan for its fixed keys is enough.
fn parse_result(line: &str) -> Option<ChildResult> {
    let correct = line.starts_with("{\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let value = rest.split_once(',')?.0;
        metrics.insert(
            name.trim_start_matches('"').to_string(),
            value.parse().ok()?,
        );
    }
    Some(ChildResult { correct, metrics })
}

/// One pass over the five workloads; `None` if a child gave no result.
fn run_set(args: &Args, trace: bool) -> Option<(bool, BTreeMap<&'static str, ChildResult>)> {
    let mut all_correct = true;
    let mut set = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        match run_child(args, workload, trace) {
            Ok(result) => {
                all_correct &= result.correct;
                set.insert(*workload, result);
            }
            Err(e) => {
                eprintln!("{e}");
                return None;
            }
        }
    }
    Some((all_correct, set))
}

/// Runs the suite (or, with `--aa`, the A/A comparison). Returns
/// whether every run was correct and every bound held.
pub fn run(args: &Args) -> bool {
    if args.aa {
        return run_aa(args);
    }
    let (Some((plain_ok, plain)), Some((traced_ok, _))) =
        (run_set(args, false), run_set(args, true))
    else {
        return false;
    };
    println!("\n# end-to-end metrics, seed {}", args.seed);
    print!("{:<18}", "metric");
    for (workload, _) in WORKLOADS {
        print!(" {workload:>16}");
    }
    println!();
    for m in END_TO_END {
        print!("{:<18}", m.name);
        for (workload, _) in WORKLOADS {
            print!(" {:>16.4}", plain[workload].metrics[m.name]);
        }
        println!(" {}", m.unit);
    }
    let ok = plain_ok && traced_ok;
    println!(
        "{{\"seed\": {}, \"correct\": {ok}, \"claim\": null}}",
        args.seed
    );
    ok
}

/// Two full untraced sets on one build: every (metric, workload) pair
/// must agree within the metric's bound.
fn run_aa(args: &Args) -> bool {
    let (Some((first_ok, first)), Some((second_ok, second))) =
        (run_set(args, false), run_set(args, false))
    else {
        return false;
    };
    let mut ok = first_ok && second_ok;
    println!("\n# A/A, seed {}: two sets of runs of one build", args.seed);
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "metric", "workload", "first", "second", "worse by", "bound"
    );
    for m in END_TO_END {
        let bound = m.bound.unwrap_or(0.0);
        for (workload, _) in WORKLOADS {
            let (a, b) = (
                first[workload].metrics[m.name],
                second[workload].metrics[m.name],
            );
            let worse = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse.abs() <= bound {
                ""
            } else {
                "  EXCEEDS"
            };
            ok &= worse.abs() <= bound;
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                m.name,
                workload,
                a,
                b,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    println!(
        "{{\"seed\": {}, \"aa_within_bounds\": {ok}, \"claim\": null}}",
        args.seed
    );
    ok
}
