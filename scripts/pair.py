#!/usr/bin/env python3
"""Before/after pairs of the benchmark: a parent revision against the
working tree.

Exports the parent revision (`git archive`) and the working tree (its
tracked files and its untracked files that are not ignored) into two
sibling directories whose paths have equal length, since a longer build
path moves `setup_s`. Builds each with BENCHMARK.json's command, in its
own target dir, then runs N pairs per workload with BENCHMARK.json's
command, untraced, flipping which side runs first from pair to pair.
Prints, per end-to-end metric, the medians and interquartile ranges of
both sides, their ratio (change / parent) and how many pairs the change
won, judged by the metric's `better`. Exits non-zero if any run was
incorrect or failed an operation. Run it from the repo root:

    python3 scripts/pair.py <parent-rev> [--pairs 10] [--workload NAME]...
        [--seconds 20] [--seed 7]
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def export(rev, into):
    """The files of `rev`, or of the working tree for `None`, under `into`."""
    os.makedirs(into)
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        stdout=subprocess.PIPE, check=True)
    for path in listed.stdout.decode().split("\0"):
        # A tracked file deleted in the working tree is listed but gone.
        if path and os.path.lexists(path):
            os.makedirs(os.path.join(into, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(into, path), follow_symlinks=False)


def build(command, copy):
    """Builds what `command` runs, in `copy`'s own target dir."""
    cargo = command[:command.index("--")] if "--" in command else list(command)
    cargo[cargo.index("run")] = "build"
    subprocess.run(cargo, cwd=copy, check=True)


def run(command, copy, workload, seed, seconds):
    """One untraced run: its metric values, and whether it was correct."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=copy, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, False
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, bool(result["correct"]) and not result["failed"]


def summary(values):
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    command = spec["command"]
    metrics = spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    parent_rev = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                                stdout=subprocess.PIPE, text=True, check=True).stdout.strip()

    base = tempfile.mkdtemp(prefix="pair-")
    # Equal-length sibling paths, so both builds see paths of one length.
    copies = {"parent": os.path.join(base, "parent"), "change": os.path.join(base, "change")}
    ok = True
    try:
        export(parent_rev, copies["parent"])
        export(None, copies["change"])
        for copy in copies.values():
            build(command, copy)
        print(f"# parent {parent_rev[:12]} vs working tree, {args.pairs} pairs of "
              f"{seconds:g} s per workload, seed {args.seed}", flush=True)
        for workload in workloads:
            pairs = []
            for pair in range(args.pairs):
                got = {}
                sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in sides:
                    got[side], correct = run(command, copies[side], workload, args.seed, seconds)
                    if not correct:
                        print(f"{workload} pair {pair + 1} {side}: incorrect or failed run",
                              file=sys.stderr, flush=True)
                        ok = False
                if got["parent"] is None or got["change"] is None:
                    continue
                pairs.append(got)
                shown = "  ".join(f"{m['name']} {got['parent'][m['name']]:.4g} -> "
                                  f"{got['change'][m['name']]:.4g}" for m in metrics)
                print(f"# {workload} pair {pair + 1}: {shown}", flush=True)
            for m in metrics:
                name = m["name"]
                before = [got["parent"][name] for got in pairs]
                after = [got["change"][name] for got in pairs]
                if not pairs:
                    continue
                (p_med, p_iqr), (c_med, c_iqr) = summary(before), summary(after)
                sign = 1 if m["better"] == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in zip(before, after))
                ratio = c_med / p_med if p_med else float("nan")
                print(f"{workload:<16} {name:<18} parent {p_med:>12.4f} (IQR {p_iqr:.4g})  "
                      f"change {c_med:>12.4f} (IQR {c_iqr:.4g})  ratio {ratio:.3f}  "
                      f"wins {wins}/{len(pairs)}  ({m['better']} is better)", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
