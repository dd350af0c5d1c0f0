"""Per-layer metrics of the traced run, built from span statistics and from
counters read off the results the library returns.

Which end-to-end metric each should move, and on which workload:
- oracle.*: items_per_s / item_ms_p50 on snoop (most) and verify; sweep
  never calls the oracle.
- layered.*, network.*, highsnr.*: sweep most, verify slightly; snoop
  runs only the oracle's private objective.
- diamond.*: verify (diamond_opt) and snoop (the subset loop).
- cli.self_ms_per_item: item_ms_p50 on sweep (JSON, thread pool, CSV).
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

from anc_secrecy import SearchConfig

from spans import LAYERS

FALLBACK_NOTE = "layer-M optimum from search fallback"
US_PER_CALL = (("layered", "optimal_scaling"), ("layered", "extract_coefficients"),
               ("network", "propagate"), ("network", "rates"), ("network", "cascade"),
               ("highsnr", "cutset_bound"), ("diamond", "diamond_opt"))

PER_LAYER_UNITS = {
    **{f"{layer}.{what}": unit for layer in LAYERS
       for what, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{layer}.{fn}.us_per_call": "us" for layer, fn in US_PER_CALL},
    "oracle.evals_per_call": "count",
    "oracle.eval_us": "us",
    "oracle.starts_at_best_ratio": "ratio",
    "oracle.multimodal_ratio": "ratio",
    "layered.fallback_ratio": "ratio",
    "cli.self_ms_per_item": "ms",
    "trace.overhead_items_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


@dataclass
class LayerCounters:
    """Counters taken from the oracle's diagnostics and the layered
    solutions; deterministic for a fixed item list."""

    oracle_calls: int = 0
    evals: int = 0
    starts: int = 0
    starts_at_best: int = 0
    multimodal: int = 0
    solutions: int = 0
    fallbacks: int = 0

    def exact(self) -> tuple[int, ...]:
        return (self.oracle_calls, self.evals, self.starts, self.starts_at_best,
                self.multimodal, self.solutions, self.fallbacks)

    def _oracle(self, args, kwargs, result) -> None:
        cfg = kwargs.get("cfg") or (args[2] if len(args) > 2 else None) or SearchConfig()
        diag = result.diagnostics
        best = max(diag.start_objectives)
        self.oracle_calls += 1
        self.evals += diag.n_evals
        self.starts += diag.n_starts
        self.starts_at_best += sum(best - v <= cfg.refine_tol for v in diag.start_objectives)
        self.multimodal += bool(diag.multimodal)

    def _layered(self, args, kwargs, result) -> None:
        self.solutions += 1
        self.fallbacks += FALLBACK_NOTE in result.diagnostics

    def observers(self) -> dict:
        return {("oracle", "maximize_secrecy"): self._oracle,
                ("layered", "optimal_scaling"): self._layered}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(passes, items_per_pass: int) -> dict[str, float]:
    """Metrics from traced passes [(stats, counters, latencies), ...]: counts
    from the first pass (the passes repeat them exactly), times averaged."""
    first_stats, counters, _ = passes[0]

    def mean_over_passes(fn) -> float:
        return statistics.mean(fn(stats) for stats, _, _ in passes)

    def layer_self(layer):
        return lambda stats: sum(v.self_s for k, v in stats.items() if k[0] == layer)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(v.calls for k, v in first_stats.items() if k[0] == layer)
        out[f"{layer}.self_s"] = mean_over_passes(layer_self(layer))
    for key in US_PER_CALL:
        out[f"{key[0]}.{key[1]}.us_per_call"] = mean_over_passes(
            lambda stats: 1e6 * _ratio(stats[key].total_s, stats[key].calls)
            if key in stats else 0.0)
    out["oracle.evals_per_call"] = _ratio(counters.evals, counters.oracle_calls)
    out["oracle.eval_us"] = 1e6 * _ratio(out["oracle.self_s"], counters.evals)
    out["oracle.starts_at_best_ratio"] = _ratio(counters.starts_at_best, counters.starts)
    out["oracle.multimodal_ratio"] = _ratio(counters.multimodal, counters.oracle_calls)
    out["layered.fallback_ratio"] = _ratio(counters.fallbacks, counters.solutions)
    out["cli.self_ms_per_item"] = 1e3 * out["cli.self_s"] / items_per_pass
    return out


def function_table(stats) -> list[str]:
    """One line per traced function of one pass."""
    return [f"span {layer}.{fn}: {st.calls} calls, "
            f"{1e6 * _ratio(st.total_s, st.calls):.6g} us/call inclusive, "
            f"{st.self_s:.6g} s self"
            for (layer, fn), st in sorted(stats.items())]
