#!/usr/bin/env python3
"""Compare two perfbench binaries over alternating pairs of runs.

Each pair runs the base and the change binary once on the same workload and
seed; the order alternates from pair to pair (base first on even pairs) so
that slow drift of a shared host hits both sides alike. Seeds run from
--seed upward, one per pair.

    python3 scripts/perfbench_pairs.py --base OLD/.bench_build/perfbench/perfbench \\
        --change NEW/.bench_build/perfbench/perfbench \\
        --workload prefill_burst --pairs 7 --seconds 10 [--trace 0|1]

Build each binary with `python3 perfbench/run.py ...` from its own checkout.
For every workload the script prints, per metric of the runs' JSON lines,
the median and interquartile range of each side, the ratio of the medians
(change / base) and the pairs the change won, where "better" is read from
BENCHMARK.json. It exits non-zero if any run fails to start or reports
anything but "correct": true with "failed": 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}


def run_once(binary, workload, seed, seconds, trace):
    """Runs one perfbench process; returns (result dict or None, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except OSError as e:
        return None, f"cannot start {binary}: {e}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON ({e})"
    if result.get("correct") is not True or result.get("failed") != 0:
        return result, (f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    return result, None


def quartiles(values):
    """(median, interquartile range) of a non-empty list."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(workload, runs, better):
    """Prints one workload's table; runs is a list of (base, change) dicts."""
    names = [n for n in runs[0][0]["metrics"] if all(
        n in b["metrics"] and n in c["metrics"] for b, c in runs)]
    print(f"\n{workload}: {len(runs)} pair(s)")
    print(f"  {'metric':<26} {'base median':>14} {'base IQR':>12} {'change median':>14} "
          f"{'change IQR':>12} {'ratio':>7} {'wins':>6}")
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        b_med, b_iqr = quartiles(base)
        c_med, c_iqr = quartiles(change)
        ratio = c_med / b_med if b_med else float("nan")
        direction = better.get(name)
        if direction == "higher":
            wins = sum(c > b for b, c in zip(base, change))
        elif direction == "lower":
            wins = sum(c < b for b, c in zip(base, change))
        else:
            wins = None
        wins_text = f"{wins}/{len(runs)}" if wins is not None else "-"
        print(f"  {name:<26} {b_med:>14.6g} {b_iqr:>12.4g} {c_med:>14.6g} {c_iqr:>12.4g} "
              f"{ratio:>7.3f} {wins_text:>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="perfbench binary of the base commit")
    parser.add_argument("--change", required=True, help="perfbench binary of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name; repeat for several")
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    better = directions()
    failures = 0
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("base", args.base), ("change", args.change)]
            if i % 2 == 1:
                order.reverse()
            pair = {}
            for side, binary in order:
                result, error = run_once(binary, workload, seed, args.seconds, args.trace)
                if error is not None:
                    failures += 1
                    print(f"FAIL {workload} seed {seed} {side}: {error}", file=sys.stderr)
                pair[side] = result if error is None else None
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
            if pair["base"] is not None and pair["change"] is not None:
                runs.append((pair["base"], pair["change"]))
        if runs:
            summarize(workload, runs, better)
    if failures:
        print(f"\n{failures} run(s) failed or were not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
