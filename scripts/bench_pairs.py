"""Alternating A/B runs of the benchmark in two checkouts of this repository.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        --seed S --seconds T

Pair i runs `benchmark/run.py --trace 0` of each checkout at seed S + i,
the parent first on even i and the change first on odd i, so that a drift
of the host over the batch falls on both sides alike. A run that exits
non-zero, or whose last line reports `correct: false` or `failed > 0`,
stops the tool, which prints that run's output.

For each end-to-end metric of this repository's BENCHMARK.json it prints
the parent's median with its quartiles, the change's median, their
relative difference, and in how many pairs the change did better by the
metric's `better`. Where the parent's quartile spread, relative to its
median, exceeds the metric's bound, the line ends in `unresolved`: the
host's noise is then wider than the difference the bound allows. Where the
change won at least 9 in 10 of the pairs and its median is better than the
parent's by more than the parent's quartile spread, the line ends in `gain
resolved`, the rule a claimed gain must meet; where the change's median is
worse than the parent's by more than the bound (relative to the parent's
median), in `worse beyond bound`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's end-to-end metrics; exits on a failed run."""
    proc = subprocess.run(
        [sys.executable, str(Path(checkout) / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed", 1) > 0:
        sys.exit(f"{checkout} at seed {seed} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """One line per metric over paired runs (parent[i] with change[i])."""
    lines = []
    for m in metrics:
        a = [run[m["name"]] for run in parent]
        b = [run[m["name"]] for run in change]
        q1, med, q3 = statistics.quantiles(a, n=4, method="inclusive")
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        new = statistics.median(b)
        gain = sign * (new - med)
        line = (f"{m['name']}: {med:.6g} [{q1:.6g}, {q3:.6g}] -> {new:.6g} "
                f"{m['unit']} ({new / med - 1:+.1%}), "
                f"change better in {wins} of {len(a)}")
        if (q3 - q1) / med > m["bound"]:
            line += ", unresolved"
        if 10 * wins >= 9 * len(a) and gain > q3 - q1:
            line += ", gain resolved"
        if -gain > m["bound"] * abs(med):
            line += ", worse beyond bound"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, for quartiles")
    checkouts, runs = (args.parent, args.change), ([], [])
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_once(checkouts[side], args.workload, args.seed + i,
                                       args.seconds))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(summary(*runs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
