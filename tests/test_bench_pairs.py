"""``tools/bench_pairs.py``'s ``summary()`` on synthetic runs: when a gain may
be claimed.  It may when the change wins at least nine tenths of the pairs,
ties counting for neither side, and its median is better than the parent's
by more than the parent's quartile distance."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"))
LOWER = {"name": "op_ms_p50", "unit": "ms", "better": "lower"}
HIGHER = {"name": "rows_per_s", "unit": "rows/s", "better": "higher"}


def _runs(metric: dict, values: list[float]) -> list[dict]:
    return [{"metrics": {metric["name"]: {"value": v, "unit": metric["unit"]}}} for v in values]


def _summary(metric: dict, parent: list[float], change: list[float]) -> dict:
    return TOOL["summary"](_runs(metric, parent), _runs(metric, change), [metric])[metric["name"]]


def test_a_clear_win_meets_the_claim():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    out = _summary(LOWER, parent, [v - 0.8 for v in parent])
    assert out["change_better_pairs"] == 10 and out["parent_quartile_distance"] < 0.8
    assert out["claim_met"] is True


def test_ties_win_for_neither_side():
    # the median moves far, but eight pairs are ties: 2 wins of 10
    parent = [10.0] * 8 + [12.0, 12.0]
    change = [10.0] * 8 + [5.0, 5.0]
    out = _summary(LOWER, parent, change)
    assert out["change_better_pairs"] == 2 and out["claim_met"] is False


def test_nine_wins_within_the_parents_spread_do_not_meet_the_claim():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [v - 0.5 for v in parent[:9]] + [20.0]
    out = _summary(LOWER, parent, change)
    assert out["change_better_pairs"] == 9 and out["claim_met"] is False


def test_a_higher_is_better_metric_wins_upward():
    parent = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1000.0, 1002.0, 998.0, 1001.0, 999.0]
    up = _summary(HIGHER, parent, [v * 1.1 for v in parent])
    down = _summary(HIGHER, parent, [v * 0.9 for v in parent])
    assert (up["change_better_pairs"], up["claim_met"]) == (10, True)
    assert (down["change_better_pairs"], down["claim_met"]) == (0, False)
