"""Command-line front end: structured JSON configs, bundled presets, and
CSV output for single-shot solves, snooping-subset analyses, source-power
sweeps, and high-SNR gap reports.

Exit codes: 0 success, 1 config parse/validation error (a size above its
limit too), 2 model validation error, inputs that overflow the float range
or a run that exhausts memory, 3 high-SNR regime violation.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .diamond import best_snoop_subset
from .highsnr import cutset_bound, high_snr_report
from .layered import closed_form_applies, optimal_rates, optimal_scaling
from .network import LayeredNetwork, RegimeViolationError, _number
from .oracle import SearchConfig, maximize_secrecy


class ConfigError(ValueError):
    """Bad or missing configuration key; the message names the offender."""


MODES = ("solve", "subset", "sweep", "highsnr")

# the config's network block holds LayeredNetwork's fields, or N for a
# uniform width in place of nodes_per_layer; h defaults to no gains
_NETWORK_FIELDS = tuple(f.name for f in fields(LayeredNetwork))
_NETWORK_KEYS = {*_NETWORK_FIELDS, "N"}
_NETWORK_REQUIRED = tuple(k for k in _NETWORK_FIELDS if k not in ("nodes_per_layer", "h"))
_SWEEP_KEYS = {"variable", "from", "to", "points", "scale"}
_TOP_KEYS = {"network", "mode", "sweep", "delta", "output", "seed"}
# sweep points at most, and points times the network's nodes at most, as a
# sweep holds one column of its points per node. Measured on 2 vCPUs: a
# one-relay diamond's sweep takes 9.4-10.2 s at a 911 MB peak over 1,000,000
# points and 5.2 s (470 MB) over 500,000; over 500,000 points, a 20-relay
# diamond takes 4.7 s (688 MB) and 5 layers of 4 nodes 5.4 s (687 MB); over
# 100 points, 100,000 one-node layers take 5.8 s (634 MB)
_MAX_SWEEP_POINTS = 500_000
_MAX_SWEEP_CELLS = 10_000_000


@dataclass(frozen=True)
class SweepSpec:
    """A sweep of the source power; variable names it, the only one swept."""

    start: float
    stop: float
    points: int
    scale: str
    variable: ClassVar[str] = "P_s"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep.scale: must be 'linear' or 'log', got {self.scale!r}")
        if self.points < 2:
            raise ConfigError("sweep.points: must be >= 2")
        if self.points > _MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep.points: must be <= {_MAX_SWEEP_POINTS:,}, "
                              f"got {self.points}")
        if not (self.stop > self.start > 0 or (self.scale == "linear" and self.stop > self.start >= 0)):
            raise ConfigError("sweep.from/to: range must be positive and increasing")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    network: LayeredNetwork
    mode: str
    sweep: SweepSpec | None = None
    delta: float | None = None
    output: str | None = None
    seed: int = 0

    def __post_init__(self):
        # the sweep and delta a mode needs are checked where that mode runs,
        # since a subcommand runs its own mode in place of the file's
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output: must be a path string, got {self.output!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _section(data, _TOP_KEYS, ("network", "mode"))
        net = _network_from_dict(data["network"])
        sweep = None
        if data.get("sweep") is not None:
            sweep = _sweep_from_dict(data["sweep"])
        delta = data.get("delta")
        return cls(network=net, mode=str(data["mode"]), sweep=sweep,
                   delta=None if delta is None else _config_number("delta", delta),
                   output=data.get("output"),
                   seed=_config_number("seed", data.get("seed", 0), integer=True))


def _section(data, keys, required, name: str | None = None) -> None:
    """Check a config section, the top level where name is None: an object
    with no key outside keys and every key of required. The first unknown
    key in sorted order and the first missing one in required's order are
    named, a missing one by its dotted path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: must be an object" if name
                          else "config: top level must be an object")
    unknown = set(data) - keys
    if unknown:
        raise ConfigError(f"{name or 'config'}: unknown key {sorted(unknown)[0]!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{name + '.' if name else ''}{key}: missing")


def _config_number(key: str, value, integer: bool = False):
    """The model's number parser, with its errors as config errors."""
    try:
        return _number(key, value, integer=integer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _network_from_dict(data: dict) -> LayeredNetwork:
    _section(data, _NETWORK_KEYS, _NETWORK_REQUIRED, "network")
    values = {"h": [], **data}
    if ("N" in data) == ("nodes_per_layer" in data):
        raise ConfigError("network: give N or nodes_per_layer, not both" if "N" in data
                          else "network.nodes_per_layer: missing (or give N)")
    if "N" in data:
        L = _config_number("network.L", data["L"], integer=True)
        # h's L - 1 gains bound L before N is repeated L times
        if L > 1 and (not isinstance(values["h"], list) or L > len(values["h"]) + 1):
            raise ConfigError("network: h must have L-1 inter-layer gains")
        n = _config_number("network.N", values.pop("N"), integer=True)
        values["nodes_per_layer"] = (n,) * L
    try:
        return LayeredNetwork(**values)
    except ValueError as exc:
        # the model's number errors start with "<field>:"; they name the dotted key
        field = str(exc).partition(":")[0]
        raise ConfigError(f"network.{exc}" if field in _NETWORK_FIELDS
                          else f"network: {exc}") from exc


def _sweep_from_dict(data: dict) -> SweepSpec:
    _section(data, _SWEEP_KEYS, ("from", "to", "points"), "sweep")
    variable = data.get("variable", SweepSpec.variable)
    if variable != SweepSpec.variable:
        raise ConfigError(f"sweep.variable: only 'P_s' is supported, got {variable!r}")
    return SweepSpec(start=_config_number("sweep.from", data["from"]),
                     stop=_config_number("sweep.to", data["to"]),
                     points=_config_number("sweep.points", data["points"], integer=True),
                     scale=data.get("scale", "log"))


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def bundled_presets() -> dict[str, ExperimentConfig]:
    """Named experiment configs with the reference parameter sets.

    example1: 3-relay diamond with per-node eavesdropper gains, subset mode.
    fig4:     3-relay symmetric diamond, subset mode.
    fig5a/b:  2x2 layered networks with the last layer snooped; sweep mode
              over source power, delta = 0.005. The point-mode source power
              sits at the high-SNR end of the sweep.
    """
    example1 = ExperimentConfig(
        network=LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=(0.2, 0.6, 0.4),
                                       P_s=5.0, P=5.0, sigma2=1.0),
        mode="subset")
    fig4 = ExperimentConfig(
        network=LayeredNetwork.diamond(N=3, h_s=0.278, h_t=0.379, h_e=0.073,
                                       P_s=10.0, P=10.0, sigma2=1.0),
        mode="subset")
    fig5a = ExperimentConfig(
        network=LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.689, h=(0.603,),
                               h_t=0.203, h_e=0.031, M=2, P_s=5e8, P=500.0, sigma2=1.0),
        mode="sweep",
        sweep=SweepSpec(start=1.0, stop=1e9, points=37, scale="log"),
        delta=0.005)
    fig5b = ExperimentConfig(
        network=LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.260, h=(0.925,),
                               h_t=0.113, h_e=0.012, M=2, P_s=5e8, P=500.0, sigma2=1.0),
        mode="sweep",
        sweep=SweepSpec(start=1.0, stop=1e9, points=37, scale="log"),
        delta=0.005)
    return {"example1": example1, "fig4": fig4, "fig5a": fig5a, "fig5b": fig5b}


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------
def _fmt(x) -> str:
    if not math.isfinite(x):
        raise OverflowError(f"a result is {x}")
    return f"{x:.9g}"


def _beta_columns(net: LayeredNetwork) -> list[str]:
    return [f"beta_{l + 1}_{n + 1}" for l in range(net.L)
            for n in range(net.nodes_per_layer[l])]


def run_solve(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    net = cfg.network
    sol = (optimal_scaling(net) if closed_form_applies(net)
           else maximize_secrecy(net, cfg=SearchConfig(seed=cfg.seed)))
    header = _beta_columns(net) + ["snr_t", "snr_e", "r_t", "r_e", "r_s"]
    return header, [[_fmt(x) for x in (*sol.beta.flat(), *astuple(sol.rate))]]


def _bitmask(subset, width: int) -> str:
    mask = sum(1 << i for i in subset)
    return format(mask, f"0{width}b")


def run_subset(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    net = cfg.network
    analysis = best_snoop_subset(net, cfg=SearchConfig(seed=cfg.seed))
    width = net.nodes_per_layer[net.M - 1]
    header = ["subset_bitmask", "r_e", "r_s"] + _beta_columns(net)
    rows = []
    for res in sorted(analysis.results, key=lambda r: sum(1 << i for i in r.subset)):
        rows.append([_bitmask(res.subset, width), _fmt(res.rate.r_e),
                     _fmt(res.rate.r_s)] + [_fmt(b) for b in res.beta.flat()])
    return header, rows


def run_sweep(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    if cfg.sweep is None:
        raise ConfigError("sweep: required for sweep mode")
    net = cfg.network
    cells = cfg.sweep.points * sum(net.nodes_per_layer)
    if cells > _MAX_SWEEP_CELLS:
        raise ConfigError(f"sweep.points: times the network's nodes must be "
                          f"<= {_MAX_SWEEP_CELLS:,}, got {cells}")
    values = cfg.sweep.values()
    header = ["P_s", "r_s_opt", "r_s_allmax", "c_cut", "gap"]
    # the cutset bound holds only for an eavesdropper on the last layer, and
    # P_s does not enter it: it is computed, and refused if infinite, once
    # before the points. A network outside the closed form is left to
    # optimal_rates, whose error names the condition it lacks.
    cut = net.M == net.L and closed_form_applies(net)
    c_cut = cutset_bound(net) if cut else None
    c_cell = _fmt(c_cut) if cut else ""
    opt, allmax = optimal_rates(net, values)
    return header, [[_fmt(p_s), _fmt(r_opt), _fmt(r_allmax), c_cell,
                     _fmt(c_cut - r_allmax) if cut else ""]
                    for p_s, r_opt, r_allmax in zip(values.tolist(), opt.r_s, allmax.r_s)]


def run_highsnr(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    if cfg.delta is None:
        raise ConfigError("delta: required for highsnr mode")
    report = high_snr_report(cfg.network, cfg.delta)
    header = ["delta", "c_cut", "r_s_delta", "actual_gap", "gap_bound"]
    return header, [[_fmt(x) for x in astuple(report)]]


_RUNNERS = {"solve": run_solve, "subset": run_subset,
            "sweep": run_sweep, "highsnr": run_highsnr}


def run(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """Execute a config and return (header, rows); writes cfg.output if set."""
    # an overflow raises instead of printing inf or nan cells
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        header, rows = _RUNNERS[cfg.mode](cfg)
    if cfg.output:
        Path(cfg.output).write_text(_render_csv(header, rows), encoding="utf-8", newline="")
    return header, rows


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anc-secrecy",
        description="Secure analog-network-coding rates in layered relay networks")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--preset", help="bundled preset name")
        p.add_argument("--output", help="CSV output path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")
    return parser


# built once: parsing holds no state between calls
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if bool(args.config) == bool(args.preset):
            raise ConfigError("exactly one of --config or --preset is required")
        if args.preset:
            presets = bundled_presets()
            if args.preset not in presets:
                raise ConfigError(f"unknown preset {args.preset!r} "
                                  f"(available: {', '.join(sorted(presets))})")
            cfg = presets[args.preset]
        else:
            cfg = load_config(args.config)
        flags = {"output": args.output, "seed": args.seed}
        cfg = replace(cfg, mode=args.mode,
                      **{key: value for key, value in flags.items() if value is not None})
        header, rows = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RegimeViolationError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"model error: the inputs overflow the float range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size under the limits can still exhaust a small machine
        print("model error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2

    if not cfg.output:
        sys.stdout.write(_render_csv(header, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
