"""scripts/bench_pairs.py: the summary of paired benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

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


RSS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def test_gain_resolved_needs_nine_in_ten_wins_and_a_gap_past_the_quartiles():
    parent = _runs(peak_rss_mb=[44.6, 44.7, 44.8, 44.9, 45.0, 45.1, 45.2, 44.6, 44.7, 44.8])
    # the change is lower in 9 of 10 pairs; medians 44.8 -> 41.2, the
    # parent's quartiles [44.7, 44.975] 0.275 apart
    change = _runs(peak_rss_mb=[41.2] * 9 + [45.0])
    assert bench_pairs.summary(parent, change, RSS) == [
        "peak_rss_mb: 44.8 [44.7, 44.975] -> 41.2 MB (-8.0%), change better in 9 of 10, "
        "gain resolved"]
    # 8 of 10 wins is not enough, however wide the gap
    change = _runs(peak_rss_mb=[41.2] * 8 + [45.0, 45.0])
    assert not bench_pairs.summary(parent, change, RSS)[0].endswith("gain resolved")
    # 10 of 10 wins by less than the parent's quartile spread is not enough
    change = _runs(peak_rss_mb=[x - 0.1 for x in [44.6, 44.7, 44.8, 44.9, 45.0, 45.1, 45.2,
                                                  44.6, 44.7, 44.8]])
    line = bench_pairs.summary(parent, change, RSS)[0]
    assert "change better in 10 of 10" in line and not line.endswith("gain resolved")


@pytest.mark.parametrize("metric, parent, change, worse", [
    # items/s, higher is better: worse beyond bound below 75, 0.25 under the median 100
    (0, [99, 100, 101, 100, 100], 74.9, True),
    (0, [99, 100, 101, 100, 100], 75.1, False),
    (0, [99, 100, 101, 100, 100], 130.0, False),
    # ms, lower is better: worse beyond bound above 2.5, 0.25 over the median 2
    (1, [2.0] * 5, 2.51, True),
    (1, [2.0] * 5, 2.49, False),
    (1, [2.0] * 5, 1.0, False)])
def test_worse_beyond_bound_by_the_better_direction(metric, parent, change, worse):
    name = METRICS[metric]["name"]
    line = bench_pairs.summary(_runs(**{name: parent}), _runs(**{name: [change] * 5}),
                               METRICS[metric:metric + 1])[0]
    assert line.endswith(", worse beyond bound") == worse
