"""Self-test of the benchmark itself: the generators are deterministic per
seed, real outputs pass every named check, and each named check flags a
planted wrong output.

    python3 benchmark/selftest.py

Prints one line per case and exits 1 if any case fails. Takes a few
seconds: it runs one real item of each kind it needs.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402
from workloads import check_item, item_sequence, runner  # noqa: E402

TMP = HERE.parent / ".bench_tmp" / "selftest"


def _fingerprint(items, n: int = 12) -> list:
    """What the program is given by the first n items: the network and, for
    CLI items, the mode and the config text (paths differ between runs)."""
    out = []
    for it in itertools.islice(items, n):
        cfg = ""
        if "--config" in it.argv:
            cfg = Path(it.argv[it.argv.index("--config") + 1]).read_text(encoding="utf-8")
        out.append((it.ident, it.net, it.argv[:1], it.preset, cfg))
    return out


def _edit_csv(text: str, fn) -> str:
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    fn(rows)
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _set(row_idx: int, col: int, value):
    def fn(rows):
        rows[row_idx][col] = value(rows[row_idx]) if callable(value) else value
    return fn


def _drop_last(rows):
    rows.pop()


def _row_of(mask: str, col: int, delta: float):
    def fn(rows):
        for r in rows:
            if r[0] == mask:
                r[col] = repr(float(r[col]) + delta)
    return fn


def _csv_plant(fn):
    """A mutation of a CLI output that edits its CSV text."""
    return lambda out: (0, _edit_csv(out[1], fn), "")


def _exit_plant(err: str):
    """A mutation of a CLI output into a failed run with this standard error."""
    return lambda out: (2, "", err)


# (workload, preset or item index, check, mutation of the output: the
# (code, text, stderr) of a CLI call, or a verification report)
PLANTS = [
    ("sweep", "fig5a", "probe_solve", _exit_plant(
        "model error: singular probe system (dead gain out of layer M)\n")),
    ("sweep", "fig5a", "exit_code", _exit_plant("model error: planted\n")),
    ("sweep", "fig5a", "row_count", _csv_plant(_drop_last)),
    ("sweep", "fig5a", "finite", _csv_plant(_set(3, 1, "nan"))),
    ("sweep", "fig5a", "finite", _csv_plant(_set(3, 2, "x"))),
    ("sweep", "fig5a", "opt_ge_allmax", _csv_plant(
        _set(5, 1, lambda r: repr(float(r[2]) - 0.1)))),
    ("sweep", "fig5a", "cutset_dominance", _csv_plant(
        _set(5, 3, lambda r: repr(float(r[1]) - 0.1)))),
    ("snoop", "example1", "exit_code", _exit_plant("model error: planted\n")),
    ("snoop", "example1", "row_count", _csv_plant(_drop_last)),
    ("snoop", "example1", "rates_reproduced", _csv_plant(_row_of("011", 1, 1e-3))),
    ("snoop", "example1", "rates_reproduced", _csv_plant(_set(0, 0, "0x1"))),
    ("snoop", "example1", "example1_reference", _csv_plant(_row_of("110", 5, 0.01))),
    ("verify", 0, "passed", lambda out: dataclasses.replace(out, passed=False)),
]


def main() -> int:
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        report(declared == units, f"BENCHMARK.json {key} metrics and units match the code")
    declared = [w["name"] for w in spec["workloads"]]
    report(list(WORKLOAD_NAMES) == list(workloads.WORKLOADS)
           and set(declared) <= set(WORKLOAD_NAMES), "BENCHMARK.json workloads exist in the code")

    try:
        for name in workloads.WORKLOADS:
            a = _fingerprint(item_sequence(name, 3, TMP / f"{name}-a"))
            b = _fingerprint(item_sequence(name, 3, TMP / f"{name}-b"))
            c = _fingerprint(item_sequence(name, 4, TMP / f"{name}-c"))
            report(a == b, f"{name}: same seed gives the same inputs")
            report(a != c, f"{name}: another seed gives other inputs")

        outputs = {}
        for name, which, _, _ in PLANTS:
            if (name, which) in outputs:
                continue
            items = list(itertools.islice(item_sequence(name, 3, TMP / f"{name}-run"), 4))
            run = runner(name, 3)
            item = (items[which] if isinstance(which, int)
                    else next(it for it in items if it.preset == which))
            out = run(item)
            outputs[name, which] = (item, out)
            bad = [k for k, ok in check_item(name, item, out).items() if not ok]
            report(not bad, f"{name}/{which}: real output passes every check {bad or ''}")

        for name, which, check, plant in PLANTS:
            item, out = outputs[name, which]
            res = check_item(name, item, plant(out))
            report(res.get(check) is False, f"{name}/{which}: {check} flags a planted output")
        for name in workloads.WORKLOADS:
            item = next(v[0] for k, v in outputs.items() if k[0] == name)
            res = check_item(name, item, RuntimeError("planted"))
            report(res.get("raised") is False, f"{name}: raised flags an exception")
        checked = {(n, c) for n, _, c, _ in PLANTS} | {(n, "raised") for n in workloads.WORKLOADS}
        for name, wl in workloads.WORKLOADS.items():
            missing = [c for c in wl.checks if (name, c) not in checked]
            report(not missing, f"{name}: every named check has a planted case {missing or ''}")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        if TMP.parent.is_dir() and not any(TMP.parent.iterdir()):
            TMP.parent.rmdir()
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
