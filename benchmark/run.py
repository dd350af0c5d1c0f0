"""Benchmark of the anc-secrecy library: seeded workloads through the public
entry points (`cli.main` in-process and `verify_against_closed_form`).

    python3 benchmark/run.py --workload {sweep,verify,snoop,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from `src/` next to this
directory and nowhere else. Scratch files go to `.bench_tmp/` in the same
checkout and are removed on exit.

--trace 0 measures the end-to-end metrics: a closed loop, one item at a
time, over the seed's item sequence for S seconds, after a set-up
measurement in fresh interpreters. --trace 1 runs a fixed prefix of the
sequence (its length depends on the workload and S only) three times,
item by item: untraced and under two span tracers. The two traced passes
must repeat every call count and oracle counter exactly; their times give
the per-layer metrics, and the untraced runs give the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. `failed`
counts items that raised or failed a check of correct behaviour; checks of
the defects listed in `workloads.KNOWN_DEFECTS` count in `failed_ratio`
only. `--workload all` runs the three workloads one after another, each in
its own process, and prints every workload's lines.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "verify", "snoop")
SETUP_PROBES = 5
# item_ms_tail is the median of the tails of this many consecutive slices of
# a run, so that a burst of slow items in one stretch of the run moves one
# slice's tail and not the reported value.
TAIL_SLICES = 10
# Items per second of --seconds in each --trace 1 pass, about a third of the
# untraced rate at the time the benchmark was written, so the three passes
# fill roughly the requested time. Fixed, so that counts repeat exactly.
TRACE_ITEMS_PER_S = {"sweep": 10.0, "verify": 13.0, "snoop": 0.6}
END_TO_END_UNITS = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_tail": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _import_library() -> None:
    """Import anc_secrecy from this checkout's src/, or exit with code 2."""
    if not (SRC / "anc_secrecy" / "__init__.py").is_file():
        print(f"error: no anc_secrecy package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import anc_secrecy
    if Path(anc_secrecy.__file__).resolve().parent != SRC / "anc_secrecy":
        print(f"error: anc_secrecy imported from {anc_secrecy.__file__}", file=sys.stderr)
        sys.exit(2)


def _environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        **{k: os.environ.get(k) for k in ("ANC_THREADS", "OMP_NUM_THREADS",
                                          "OPENBLAS_NUM_THREADS")},
    }


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    items beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _sliced_tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, slices, items per slice): the upper median over
    TAIL_SLICES equal runs of consecutive items of each one's `_tail`, or the
    whole run's tail when a slice would hold too few items. Items past the
    last whole slice count in no slice."""
    slices = TAIL_SLICES if len(latencies) >= 20 * TAIL_SLICES else 1
    size = len(latencies) // slices
    tails = sorted(_tail(latencies[i * size:(i + 1) * size]) for i in range(slices))
    value, pct = tails[slices // 2]
    return value, pct, slices, size


class Tally:
    """Per-check failure counts over the items of a run."""

    def __init__(self, workload: str):
        from workloads import KNOWN_DEFECTS, WORKLOADS
        self.names = WORKLOADS[workload].checks
        self.known = KNOWN_DEFECTS
        self.attempted = 0
        self.failed_any = 0
        self.failed_hard = 0
        self.by_check: Counter = Counter()

    def add(self, results: dict[str, bool]) -> None:
        bad = [k for k, ok in results.items() if not ok]
        self.attempted += 1
        self.by_check.update(bad)
        self.failed_any += bool(bad)
        self.failed_hard += any(k not in self.known for k in bad)

    def lines(self) -> list[str]:
        out = [f"check {name}: {self.by_check[name]}/{self.attempted} items failed"
               + (f"  (known defect, {self.known[name]})" if name in self.known else "")
               for name in self.names]
        out.append(f"items failed: {self.failed_any}/{self.attempted} raised or failed "
                   f"a check; {self.failed_hard} outside the known defects")
        return out

    def failed_ratio(self) -> float:
        return self.failed_any / self.attempted if self.attempted else 0.0


def _run_one(workload, item, run, tally) -> float:
    """Run one item and check its output; returns its latency in seconds.
    The check runs after the item's timing."""
    from workloads import check_item
    t0 = time.perf_counter()
    try:
        out = run(item)
    except Exception as exc:  # an item that raises is a counted failure
        out = exc
    latency = time.perf_counter() - t0
    tally.add(check_item(workload, item, out))
    return latency


def _run_items(items, run, workload, tally, seconds) -> list[float]:
    """Closed loop over an item sequence until `seconds` have elapsed;
    returns per-item latencies in seconds."""
    from workloads import discard
    latencies = []
    start = time.perf_counter()
    for item in items:
        latencies.append(_run_one(workload, item, run, tally))
        discard(item)
        if time.perf_counter() - start >= seconds:
            break
    return latencies


def _warm_up(items, run) -> None:
    """One untimed item: lazy imports and caches."""
    from workloads import discard
    item = next(items)
    run(item)
    discard(item)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import + one warm-up item."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _end_to_end(workload, seed, seconds, fresh, run, tally) -> dict:
    setup_s = _setup_seconds(workload, seed)
    _warm_up(fresh(), run)
    latencies = _run_items(fresh(), run, workload, tally, seconds)
    tail, pct, slices, size = _sliced_tail(latencies)
    whole, whole_pct = _tail(latencies)
    print(f"items: {len(latencies)} attempted; item_ms_tail is the upper median "
          f"over {slices} slices of {size} consecutive items of each slice's "
          f"p{pct:.2f} (10 items beyond it); whole-run p{whole_pct:.2f} = "
          f"{1e3 * whole:.6g} ms")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "item_ms_p50": 1e3 * statistics.median(latencies),
        "item_ms_tail": 1e3 * tail,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup_s,
    }


def _per_layer(workload, seconds, fresh, run, tally) -> tuple[dict, dict, list[str]]:
    """Each item of a fixed prefix runs three times in a row: untraced and
    under two tracers, in rotating order, so that drift in machine speed
    hits the untraced and traced times alike."""
    from layers import LayerCounters, layer_metrics
    from spans import Tracer
    from workloads import discard
    count = max(4, round(seconds * TRACE_ITEMS_PER_S[workload]))
    _warm_up(fresh(), run)
    counters = [LayerCounters(), LayerCounters()]
    tracers = [None] + [Tracer(observers=c.observers()) for c in counters]
    latencies: list[list[float]] = [[], [], []]
    for i, item in enumerate(itertools.islice(fresh(), count)):
        for k in ((i + j) % 3 for j in range(3)):
            tracer = tracers[k]
            if tracer is not None:
                tracer.item = i
                tracer.install()
            try:
                latencies[k].append(_run_one(workload, item, run, tally))
            finally:
                if tracer is not None:
                    tracer.uninstall()
        discard(item)
    plain = latencies[0]
    passes = [(t.stats(), c, lat) for t, c, lat in zip(tracers[1:], counters, latencies[1:])]
    misattributed = 0
    for tracer in tracers[1:]:
        spans, threads = tracer.worker_spans()
        print(f"worker-thread spans: {spans} from {threads} threads, "
              f"{len(tracer.misattributed)} not attached to their own item")
        misattributed += len(tracer.misattributed)
    errors = []
    if misattributed:
        errors.append(f"{misattributed} worker-thread spans not attached to their item")
    (stats_a, cnt_a, _), (stats_b, cnt_b, _) = passes
    calls_a = {k: v.calls for k, v in stats_a.items()}
    calls_b = {k: v.calls for k, v in stats_b.items()}
    if calls_a != calls_b:
        errors.append(f"call counts differ between traced passes: {calls_a} vs {calls_b}")
    if cnt_a.exact() != cnt_b.exact():
        errors.append(f"oracle/layered counters differ between traced passes: "
                      f"{cnt_a.exact()} vs {cnt_b.exact()}")
    metrics = layer_metrics(passes, count)
    untraced_ips = count / sum(plain)
    traced_ips = statistics.mean(count / sum(lat) for _, _, lat in passes)
    metrics["trace.overhead_items_per_s"] = untraced_ips - traced_ips
    metrics["trace.overhead_ratio"] = (untraced_ips - traced_ips) / untraced_ips
    metrics["failed_ratio"] = tally.failed_ratio()
    print(f"items: {count} per pass; untraced {untraced_ips:.6g} items/s, "
          f"traced {traced_ips:.6g} items/s")
    return metrics, stats_a, errors


def _run_workload(args) -> int:
    _import_library()
    import workloads
    from layers import PER_LAYER_UNITS, function_table
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(_environment(), sort_keys=True))
    try:
        run = workloads.runner(args.workload, args.seed)

        def fresh():
            """The seed's item sequence from its start."""
            return workloads.item_sequence(args.workload, args.seed, tmp)

        tally = Tally(args.workload)
        errors = []
        if args.trace:
            metrics, stats, errors = _per_layer(args.workload, args.seconds,
                                                fresh, run, tally)
            units = PER_LAYER_UNITS
            for line in function_table(stats):
                print(line)
        else:
            metrics = _end_to_end(args.workload, args.seed, args.seconds,
                                  fresh, run, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    for line in tally.lines():
        print(line)
    shown = {**metrics, "failed_ratio": tally.failed_ratio()}
    for name, value in shown.items():
        print(f"metric {name} = {value:.6g} {units.get(name, 'ratio')}")
    for err in errors:
        print(f"error: {err}")
    result = {
        "correct": tally.failed_hard == 0 and not errors,
        "attempted": tally.attempted,
        "failed": tally.failed_hard,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
