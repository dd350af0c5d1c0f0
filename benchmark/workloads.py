"""Seeded workloads of the benchmark: input generators, item runners and
the named output checks that feed `failed_ratio`.

Every workload draws its inputs from `np.random.default_rng([salt, seed])`,
so a benchmark seed never reproduces the draws of the test suite (which
seeds plain integers), and the same seed always yields the same items. The
program sees only the generated configs and networks.

- sweep:  `anc-secrecy sweep --config <generated.json> --output <csv>` on
          lemma-grade networks (uniform width, common h_e, L, N in 1..3,
          every M), 37 log-spaced P_s points from 1 to 1e9; the fig5a and
          fig5b presets come first. Closed forms and CLI overhead.
- verify: `verify_against_closed_form` at SearchConfig(restarts=6);
          items alternate a random symmetric diamond with a lemma-grade
          layered network (acceptance criterion 4's draw). Oracle with few
          starts plus the closed forms.
- snoop:  `anc-secrecy subset --config <generated.json> --output <csv>` on
          asymmetric two-relay diamonds at the default 64 restarts; the fig4
          and example1 presets (three relays) come first. Oracle
          refinement across many starts and the snooped-subset path. Item
          costs fall on a few discrete levels (the oracle's cycle counts)
          plus a heavy tail, and a run holds under a hundred items, so its
          median and tail jump between seeds; BENCHMARK.json leaves it out
          and it runs by name or under `--workload all`.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import anc_secrecy
from anc_secrecy import (LayeredNetwork, ScalingVector, SearchConfig, beta_max_vector,
                         bundled_presets, cli)
# Bound here, before any tracer patches the package namespaces, so output
# checks never show up in the traced per-layer counts.
from anc_secrecy.network import rates as _rates

SWEEP_POINTS = 37
VERIFY_RESTARTS = 6

# Checks that fail on a defect already recorded in ROADMAP.md: they count in
# failed_ratio, but they do not mark the run incorrect.
KNOWN_DEFECTS = {
    "cutset_dominance": "ROADMAP item 2: cutset_bound goes negative for "
                        "|h_e| > |h_t| and is reported for M < L",
    "probe_solve": "ROADMAP item 3: extract_coefficients' probe solve fails "
                   "its cond() gate on valid networks at high P_s (exit 2)",
}
# What cli.main prints to standard error when the probe solve fails.
PROBE_SOLVE_ERROR = "model error: singular probe system"


@dataclass
class Item:
    """One unit of work. `argv` drives `cli.main`; `net` is the network the
    program is given (used by the checks and by `verify`)."""

    ident: str
    net: LayeredNetwork
    argv: list[str] = field(default_factory=list)
    config: Path | None = None
    output: Path | None = None
    preset: str | None = None


@dataclass(frozen=True)
class Workload:
    salt: int
    checks: tuple[str, ...]
    build: Callable[[np.random.Generator, Path], Iterator[Item]]
    runner: Callable[[int], Callable[[Item], Any]]
    check: Callable[[Item, Any], dict[str, bool]]


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _lemma_params(rng: np.random.Generator, L: int, N: int, M: int) -> dict:
    """Acceptance criterion 4's layered draw for one snooped layer M."""
    return dict(L=L, N=N, h_s=_u(rng, 0.05, 1.3),
                h=[_u(rng, 0.05, 1.3) for _ in range(L - 1)],
                h_t=_u(rng, 0.05, 1.3), h_e=_u(rng, 0.02, 1.0), M=M,
                P_s=_u(rng, 0.1, 30.0), P=_u(rng, 0.1, 30.0),
                sigma2=_u(rng, 0.3, 2.0))


def _lemma_draws(rng: np.random.Generator):
    """Endless lemma-grade networks: each (L, N) draw yields every M."""
    while True:
        L = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        for M in range(1, L + 1):
            yield _lemma_params(rng, L, N, M)


def _network(p: dict) -> LayeredNetwork:
    return LayeredNetwork(L=p["L"], nodes_per_layer=(p["N"],) * p["L"],
                          h_s=p["h_s"], h=tuple(p["h"]), h_t=p["h_t"],
                          h_e=tuple(p["h_e"]) if isinstance(p["h_e"], list) else p["h_e"],
                          M=p["M"], P_s=p["P_s"], P=p["P"], sigma2=p["sigma2"])


def _cli_item(mode: str, ident: str, tmp: Path, net: LayeredNetwork,
              params: dict | None = None, extra: dict | None = None,
              preset: str | None = None) -> Item:
    out = tmp / f"{ident}.csv"
    cfg_path = None
    if preset is not None:
        source = ["--preset", preset]
    else:
        cfg_path = tmp / f"{ident}.json"
        cfg_path.write_text(json.dumps({"network": params, "mode": mode, **(extra or {})}),
                            encoding="utf-8")
        source = ["--config", str(cfg_path)]
    return Item(ident=ident, net=net, argv=[mode, *source, "--output", str(out)],
                config=cfg_path, output=out, preset=preset)


def _run_cli(item: Item) -> tuple[int, str, str]:
    """(exit code, CSV text, standard error) of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        # attribute lookup at call time, so a tracer's wrapper of cli.main is used
        code = cli.main(item.argv)
    text = item.output.read_text(encoding="utf-8") if code == 0 else ""
    return code, text, err.getvalue()


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _num(cell: str) -> float | None:
    """A CSV cell as a number: None when empty, NaN when not a number."""
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
_SWEEP_SPEC = {"variable": "P_s", "from": 1.0, "to": 1e9,
               "points": SWEEP_POINTS, "scale": "log"}
_SWEEP_HEADER = ["P_s", "r_s_opt", "r_s_allmax", "c_cut", "gap"]


def _build_sweep(rng: np.random.Generator, tmp: Path) -> Iterator[Item]:
    presets = bundled_presets()
    for name in ("fig5a", "fig5b"):
        yield _cli_item("sweep", name, tmp, presets[name].network, preset=name)
    for i, p in enumerate(_lemma_draws(rng)):
        yield _cli_item("sweep", f"sweep{i}", tmp, _network(p),
                        params=p, extra={"sweep": _SWEEP_SPEC})


def _check_sweep(item: Item, out) -> dict[str, bool]:
    code, text, err = out
    if code == 2 and err.startswith(PROBE_SOLVE_ERROR):
        # the known defect ended the run: there is no CSV to check
        return {"probe_solve": False}
    res = {"probe_solve": True, "exit_code": code == 0}
    header, rows = _parse_csv(text)
    res["row_count"] = header == _SWEEP_HEADER and len(rows) == SWEEP_POINTS
    cells = [[_num(x) for x in r] for r in rows if len(r) == len(_SWEEP_HEADER)]
    res["finite"] = bool(cells) and all(
        v is None or math.isfinite(v) for r in cells for v in r)
    res["opt_ge_allmax"] = bool(cells) and all(
        r[1] is None or r[2] is None or r[1] >= r[2] - 1e-9 for r in cells)
    res["cutset_dominance"] = bool(cells) and all(
        r[3] is None or r[1] is None or r[3] >= max(r[1], 0.0) - 1e-9 for r in cells)
    return res


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
def _build_verify(rng: np.random.Generator, tmp: Path) -> Iterator[Item]:
    draws = _lemma_draws(rng)
    i = 0
    while True:
        yield Item(ident=f"diamond{i}", net=LayeredNetwork.diamond(
            N=int(rng.integers(1, 4)), h_s=_u(rng, 0.05, 1.3),
            h_t=_u(rng, 0.05, 1.3), h_e=_u(rng, 0.02, 1.0),
            P_s=_u(rng, 0.1, 30.0), P=_u(rng, 0.1, 30.0),
            sigma2=_u(rng, 0.3, 2.0)))
        yield Item(ident=f"layered{i}", net=_network(next(draws)))
        i += 1


def _verify_runner(seed: int) -> Callable[[Item], Any]:
    cfg = SearchConfig(restarts=VERIFY_RESTARTS, seed=seed)

    def run(item: Item):
        # attribute lookup at call time, so a tracer's wrapper is used
        return anc_secrecy.verify_against_closed_form(item.net, cfg=cfg)
    return run


def _check_verify(item: Item, out) -> dict[str, bool]:
    return {"passed": bool(out.passed)}


# ---------------------------------------------------------------------------
# snoop
# ---------------------------------------------------------------------------
def _build_snoop(rng: np.random.Generator, tmp: Path) -> Iterator[Item]:
    presets = bundled_presets()
    for name in ("fig4", "example1"):
        yield _cli_item("subset", name, tmp, presets[name].network, preset=name)
    i = 0
    while True:
        p = dict(L=1, N=2, h_s=_u(rng, 0.05, 1.3), h=[], h_t=_u(rng, 0.05, 1.3),
                 h_e=[_u(rng, 0.02, 1.0), _u(rng, 0.02, 1.0)], M=1,
                 P_s=_u(rng, 0.1, 30.0), P=_u(rng, 0.1, 30.0),
                 sigma2=_u(rng, 0.3, 2.0))
        yield _cli_item("subset", f"snoop{i}", tmp, _network(p), params=p)
        i += 1


def _close(a: float, b: float, tol: float = 1e-7) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _example1_ok(net: LayeredNetwork, table: dict[str, list[float]]) -> bool:
    """Acceptance criterion 1's reference values for the example1 preset."""
    if "111" not in table or "110" not in table:
        return False
    bmax = beta_max_vector(net).beta[0][0]
    (re1, _, *b1), (re2, _, *b2) = table["111"], table["110"]
    return (abs(bmax - 1.3363) <= 1e-3
            and abs(b1[0] - 1.3363) <= 1e-3 and abs(b1[1]) <= 1e-3 and abs(b1[2]) <= 1e-3
            and abs(re1 - 0.081749) <= 1e-4
            and abs(b2[0] - 1.3363) <= 1e-3 and abs(b2[1]) <= 1e-3
            and abs(b2[2] - 0.7298) <= 1e-3
            and abs(re2 - 0.095368) <= 1e-4 and re2 > re1)


def _check_snoop(item: Item, out) -> dict[str, bool]:
    code, text, _ = out
    net = item.net
    width = net.nodes_per_layer[net.M - 1]
    n_beta = sum(net.nodes_per_layer)
    symmetric = net.common_h_e is not None and net.uniform_P is not None
    res = {"exit_code": code == 0}
    header, rows = _parse_csv(text)
    expected = width if symmetric else 2 ** width - 1
    res["row_count"] = (len(rows) == expected and len(header) == 3 + n_beta
                        and header[:3] == ["subset_bitmask", "r_e", "r_s"])
    table = {}
    ok = bool(rows)
    for row in rows:
        if len(row) != 3 + n_beta:
            ok = False
            continue
        vals = [_num(x) for x in row[1:]]
        if None in vals or len(row[0]) != width or set(row[0]) - {"0", "1"}:
            ok = False
            continue
        table[row[0]] = vals
        snooped = [i for i, bit in enumerate(reversed(row[0])) if bit == "1"]
        flat, layers = vals[2:], []
        for n in net.nodes_per_layer:
            layers.append(tuple(flat[:n]))
            flat = flat[n:]
        rep = _rates(net, ScalingVector(beta=tuple(layers)), snooped=snooped)
        ok = ok and _close(rep.r_e, vals[0]) and _close(rep.r_s, vals[1])
    res["rates_reproduced"] = ok
    if item.preset == "example1":
        res["example1_reference"] = _example1_ok(net, table)
    return res


WORKLOADS = {
    "sweep": Workload(
        salt=0x5EE9,
        checks=("raised", "probe_solve", "exit_code", "row_count", "finite",
                "opt_ge_allmax", "cutset_dominance"),
        build=_build_sweep, runner=lambda seed: _run_cli, check=_check_sweep),
    "verify": Workload(
        salt=0x7E21,
        checks=("raised", "passed"),
        build=_build_verify, runner=_verify_runner, check=_check_verify),
    "snoop": Workload(
        salt=0x5A00,
        checks=("raised", "exit_code", "row_count", "rates_reproduced",
                "example1_reference"),
        build=_build_snoop, runner=lambda seed: _run_cli, check=_check_snoop),
}


def item_sequence(name: str, seed: int, tmp: Path) -> Iterator[Item]:
    """The workload's endless item sequence for `seed`, with its files in
    `tmp`. It never repeats an item and holds only the item being run, so
    memory does not grow with the number of items."""
    wl = WORKLOADS[name]
    tmp.mkdir(parents=True, exist_ok=True)
    return wl.build(np.random.default_rng([wl.salt, seed]), tmp)


def runner(name: str, seed: int) -> Callable[[Item], Any]:
    """The function that runs one item of the workload."""
    return WORKLOADS[name].runner(seed)


def discard(item: Item) -> None:
    """Remove the files an item wrote."""
    for path in (item.config, item.output):
        if path is not None:
            path.unlink(missing_ok=True)


def check_item(name: str, item: Item, out) -> dict[str, bool]:
    """Named check results for one item's output; an exception fails `raised`."""
    if isinstance(out, BaseException):
        return {"raised": False}
    return {"raised": True, **WORKLOADS[name].check(item, out)}
