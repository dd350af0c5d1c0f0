"""Set-up probe, run in a fresh interpreter by run.py:

    python3 benchmark/probe.py <workload> <seed>

Prints the seconds from the first statement of this script to the end of
one warm-up item: importing anc_secrecy and the workload code, and running
the workload's first item.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    tmp = HERE.parent / ".bench_tmp" / f"probe-{name}-{os.getpid()}"
    try:
        item = next(workloads.item_sequence(name, seed, tmp))
        checks = workloads.check_item(name, item, workloads.runner(name, seed)(item))
        elapsed = time.perf_counter() - T0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not all(ok for k, ok in checks.items() if k not in workloads.KNOWN_DEFECTS):
        print(f"warm-up item failed its checks: {checks}", file=sys.stderr)
        return 1
    print(f"{elapsed:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
