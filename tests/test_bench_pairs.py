"""scripts/bench_pairs.py: the summary of paired benchmark runs."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "item_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]


def _runs(**columns):
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def test_medians_quartiles_and_wins_by_the_better_direction():
    parent = _runs(items_per_s=[100, 110, 90, 105, 95], item_ms_p50=[2.0, 1.0, 1.5, 1.9, 1.1])
    change = _runs(items_per_s=[101, 109, 95, 105, 96], item_ms_p50=[1.0, 2.0, 1.4, 1.8, 1.2])
    lines = bench_pairs.summary(parent, change, METRICS)
    # items/s: quartiles 95 and 105 are 10% of the median 100, within the bound;
    # the change is higher in pairs 0, 2 and 4, and a tie is no win
    assert lines[0] == ("items_per_s: 100 [95, 105] -> 101 1/s (+1.0%), "
                        "change better in 3 of 5")
    # ms: lower is better, in pairs 0, 2 and 3; the spread 0.8 is 53% of
    # the median 1.5, above the bound
    assert lines[1] == ("item_ms_p50: 1.5 [1.1, 1.9] -> 1.4 ms (-6.7%), "
                        "change better in 3 of 5, unresolved")
