"""Command-line front end: structured JSON configs, bundled presets, and
CSV output for single-shot solves, snooping-subset analyses, source-power
sweeps, and high-SNR gap reports.

Exit codes: 0 success, 1 config parse/validation error, 2 model validation
error, 3 high-SNR regime violation.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diamond import best_snoop_subset
from .highsnr import cutset_bound, high_snr_report
from .layered import closed_form_applies, optimal_scaling
from .network import LayeredNetwork, RegimeViolationError, beta_max_vector, rates
from .oracle import SearchConfig, maximize_secrecy


class ConfigError(ValueError):
    """Bad or missing configuration key; the message names the offender."""


MODES = ("solve", "subset", "sweep", "highsnr")

_NETWORK_KEYS = {"L", "N", "nodes_per_layer", "h_s", "h", "h_t", "h_e", "M",
                 "P_s", "P", "sigma2"}
_SWEEP_KEYS = {"variable", "from", "to", "points", "scale"}
_TOP_KEYS = {"network", "mode", "sweep", "delta", "output", "seed"}


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    scale: str

    def __post_init__(self):
        if self.variable != "P_s":
            raise ConfigError(f"sweep.variable: only 'P_s' is supported, got {self.variable!r}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep.scale: must be 'linear' or 'log', got {self.scale!r}")
        if self.points < 2:
            raise ConfigError("sweep.points: must be >= 2")
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
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.mode == "sweep" and self.sweep is None:
            raise ConfigError("sweep: required for sweep mode")
        if self.mode == "highsnr" and self.delta is None:
            raise ConfigError("delta: required for highsnr mode")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output: must be a path string, got {self.output!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be an object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        if "network" not in data:
            raise ConfigError("network: missing")
        if "mode" not in data:
            raise ConfigError("mode: missing")
        net = _network_from_dict(data["network"])
        sweep = None
        if data.get("sweep") is not None:
            sweep = _sweep_from_dict(data["sweep"])
        delta = data.get("delta")
        return cls(network=net, mode=str(data["mode"]), sweep=sweep,
                   delta=None if delta is None else _number("delta", delta),
                   output=data.get("output"),
                   seed=_number("seed", data.get("seed", 0), integer=True))

    def to_dict(self) -> dict:
        net = self.network
        out = {
            "network": {
                "L": net.L,
                "nodes_per_layer": list(net.nodes_per_layer),
                "h_s": net.h_s,
                "h": list(net.h),
                "h_t": net.h_t,
                "h_e": list(net.h_e),
                "M": net.M,
                "P_s": net.P_s,
                "P": [list(r) for r in net.P],
                "sigma2": net.sigma2,
            },
            "mode": self.mode,
            "seed": self.seed,
        }
        if self.sweep is not None:
            out["sweep"] = {"variable": self.sweep.variable, "from": self.sweep.start,
                            "to": self.sweep.stop, "points": self.sweep.points,
                            "scale": self.sweep.scale}
        if self.delta is not None:
            out["delta"] = self.delta
        if self.output is not None:
            out["output"] = self.output
        return out


def _network_from_dict(data: dict) -> LayeredNetwork:
    if not isinstance(data, dict):
        raise ConfigError("network: must be an object")
    unknown = set(data) - _NETWORK_KEYS
    if unknown:
        raise ConfigError(f"network: unknown key {sorted(unknown)[0]!r}")
    for key in ("L", "h_s", "h_t", "h_e", "M", "P_s", "P", "sigma2"):
        if key not in data:
            raise ConfigError(f"network.{key}: missing")
    L = _number("network.L", data["L"], integer=True)
    if "nodes_per_layer" in data:
        nodes = _number("network.nodes_per_layer", data["nodes_per_layer"], depth=1,
                        integer=True)
    elif "N" in data:
        nodes = (_number("network.N", data["N"], integer=True),) * L
    else:
        raise ConfigError("network.nodes_per_layer: missing (or give N)")
    values = dict(
        L=L, nodes_per_layer=nodes, M=_number("network.M", data["M"], integer=True),
        h=_number("network.h", data.get("h", []), depth=1),
        h_e=_number("network.h_e", data["h_e"], depth=isinstance(data["h_e"], (list, tuple))),
        P=_number("network.P", data["P"], depth=2 * isinstance(data["P"], (list, tuple))),
        **{key: _number(f"network.{key}", data[key]) for key in ("h_s", "h_t", "P_s", "sigma2")})
    try:
        return LayeredNetwork(**values)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _number(key: str, value, depth: int = 0, integer: bool = False):
    """A number, or lists of numbers nested `depth` deep, as floats, or as
    ints when `integer` (integral values such as 2.0 only). Errors name the
    dotted config key."""
    if depth:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: must be a list, got {value!r}")
        return tuple(_number(key, v, depth - 1, integer) for v in value)
    if isinstance(value, bool):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: must be a number, got {value!r}") from exc
    if not integer:
        return out
    if not out.is_integer():
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    # a JSON integer stays exact, also beyond float precision
    return int(value) if isinstance(value, int) else int(out)


def _sweep_from_dict(data: dict) -> SweepSpec:
    if not isinstance(data, dict):
        raise ConfigError("sweep: must be an object")
    unknown = set(data) - _SWEEP_KEYS
    if unknown:
        raise ConfigError(f"sweep: unknown key {sorted(unknown)[0]!r}")
    for key in ("from", "to", "points"):
        if key not in data:
            raise ConfigError(f"sweep.{key}: missing")
    return SweepSpec(variable=data.get("variable", "P_s"),
                     start=_number("sweep.from", data["from"]),
                     stop=_number("sweep.to", data["to"]),
                     points=_number("sweep.points", data["points"], integer=True),
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
        sweep=SweepSpec(variable="P_s", start=1.0, stop=1e9, points=37, scale="log"),
        delta=0.005)
    fig5b = ExperimentConfig(
        network=LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.260, h=(0.925,),
                               h_t=0.113, h_e=0.012, M=2, P_s=5e8, P=500.0, sigma2=1.0),
        mode="sweep",
        sweep=SweepSpec(variable="P_s", start=1.0, stop=1e9, points=37, scale="log"),
        delta=0.005)
    return {"example1": example1, "fig4": fig4, "fig5a": fig5a, "fig5b": fig5b}


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------
def _fmt(x) -> str:
    return f"{float(x):.9g}"


def _beta_columns(net: LayeredNetwork) -> list[str]:
    return [f"beta_{l + 1}_{n + 1}" for l in range(net.L)
            for n in range(net.nodes_per_layer[l])]


def run_solve(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    net = cfg.network
    if closed_form_applies(net):
        sol = optimal_scaling(net)
        beta, report = sol.beta, sol.rate
    else:
        res = maximize_secrecy(net, cfg=SearchConfig(seed=cfg.seed))
        beta, report = res.beta, res.rate
    header = _beta_columns(net) + ["snr_t", "snr_e", "r_t", "r_e", "r_s"]
    row = [_fmt(b) for b in beta.flat()] + [
        _fmt(report.snr_t), _fmt(report.snr_e),
        _fmt(report.r_t), _fmt(report.r_e), _fmt(report.r_s)]
    return header, [row]


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


def _sweep_point(net: LayeredNetwork, p_s: float) -> list[str]:
    net_p = replace(net, P_s=p_s)
    r_opt = optimal_scaling(net_p).rate.r_s
    r_allmax = rates(net_p, beta_max_vector(net_p)).r_s
    if net.M < net.L:
        # the cutset bound holds only for an eavesdropper on the last layer
        return [_fmt(p_s), _fmt(r_opt), _fmt(r_allmax), "", ""]
    c_cut = cutset_bound(net_p)
    return [_fmt(p_s), _fmt(r_opt), _fmt(r_allmax), _fmt(c_cut),
            _fmt(c_cut - r_allmax)]


def run_sweep(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    net = cfg.network
    values = cfg.sweep.values()
    header = ["P_s", "r_s_opt", "r_s_allmax", "c_cut", "gap"]
    return header, [_sweep_point(net, float(v)) for v in values]


def run_highsnr(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    report = high_snr_report(cfg.network, cfg.delta)
    header = ["delta", "c_cut", "r_s_delta", "actual_gap", "gap_bound"]
    row = [_fmt(report.delta), _fmt(report.c_cut), _fmt(report.r_s_delta),
           _fmt(report.actual_gap), _fmt(report.gap_bound)]
    return header, [row]


_RUNNERS = {"solve": run_solve, "subset": run_subset,
            "sweep": run_sweep, "highsnr": run_highsnr}


def run(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """Execute a config and return (header, rows); writes cfg.output if set."""
    header, rows = _RUNNERS[cfg.mode](cfg)
    if cfg.output:
        _write_csv(cfg.output, header, rows)
    return header, rows


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    Path(path).write_text(_render_csv(header, rows), encoding="utf-8", newline="")


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

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
        cfg = replace(cfg, mode=args.mode)
        if args.output is not None:
            cfg = replace(cfg, output=args.output)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
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

    if not cfg.output:
        sys.stdout.write(_render_csv(header, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
