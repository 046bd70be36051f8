"""The summary arithmetic of scripts/bench_pairs.py; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_of_the_parent_runs():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_won_count_the_better_side_only():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [11.0, 12.0, 10.0, 15.0]  # one tie, one loss, two wins when higher is better
    up = bench_pairs.summarize(parent, change, "higher")
    down = bench_pairs.summarize(parent, change, "lower")
    assert (up["won"], down["won"], up["pairs"]) == (2, 1, 4)
    assert up["parent_median"] == 11.5 and up["parent_iqr"] == (10.75, 12.25)
    assert up["change_median"] == 11.5 and up["move"] == 0.0


def test_move_is_relative_to_the_parent_median():
    s = bench_pairs.summarize([4.0, 4.0, 4.0], [5.0, 5.0, 5.0], "higher")
    assert s["move"] == 0.25 and s["won"] == 3
    assert bench_pairs.summarize([0.0], [1.0], "lower")["move"] is None
    assert bench_pairs.format_row("trials_per_s", "1/s", s) == \
        "trials_per_s (1/s): 4 [4, 4] -> 5 (+25.0%), 3 of 3 pairs won"


@pytest.mark.parametrize("parent,change,better", [
    ([1.0], [1.0, 2.0], "higher"),
    ([], [], "higher"),
    ([1.0], [2.0], "faster"),
])
def test_bad_summaries_rejected(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, better)
