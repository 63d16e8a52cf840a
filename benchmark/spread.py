#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

Runs the command of BENCHMARK.json once per seed on every workload
(untraced) and prints, per metric, the distance between the first and
third quartile of the values as a share of their median, next to the
metric's bound. Run it from the repo root:

    python3 benchmark/spread.py [--seeds 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect run", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shown = "  ".join(f"{n} {values[n][-1]:.4g}" for n in bounds)
            print(f"# {workload} seed {seed}: {time.time() - started:.1f} s  {shown}", flush=True)
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            # setup_s is held to its bound between medians, not by spread.
            verdict = "" if name == "setup_s" or spread <= bound / 3 else (
                "  ABOVE A THIRD OF THE BOUND" if spread <= bound else "  ABOVE THE BOUND")
            ok &= name == "setup_s" or spread <= bound
            print(f"{workload:<16} {name:<18} median {median:>14.4f}  "
                  f"spread {100 * spread:>6.2f} %  bound {100 * bound:>4.0f} %{verdict}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
