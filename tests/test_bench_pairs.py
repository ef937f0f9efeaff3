"""tools/bench_pairs.py: pair order and the summary of paired runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from test_imports import imported_modules

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(name, values):
    return [{"correct": True, "metrics": {name: {"value": v, "unit": "s"}}} for v in values]


def test_sides_alternate_which_goes_first(bench_pairs):
    assert [bench_pairs.order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


@pytest.mark.parametrize("better, wins", [("lower", 2), ("higher", 1)])
def test_summary_counts_wins_by_direction_and_no_ties(bench_pairs, better, wins):
    # Pair 1 is a tie; the change is lower in pairs 0 and 3, higher in 2.
    metric = {"name": "wall_s", "unit": "s", "better": better}
    runs = {"parent": runs_of("wall_s", [1.0, 2.0, 3.0, 4.0]),
            "change": runs_of("wall_s", [0.5, 2.0, 3.5, 3.5])}
    [row] = bench_pairs.summarize([metric], runs)
    assert (row["parent"], row["change"]) == (2.5, 2.75)
    assert row["rel"] == pytest.approx(0.1)
    assert row["parent_iqr"] == pytest.approx(2.5)  # quartiles 1.25 and 3.75
    assert (row["wins"], row["pairs"]) == (wins, 4)


def test_one_pair_has_no_spread_and_zero_has_no_ratio(bench_pairs):
    metric = {"name": "gain_resid", "unit": "1", "better": "lower"}
    runs = {"parent": runs_of("gain_resid", [0.0]), "change": runs_of("gain_resid", [0.0])}
    [row] = bench_pairs.summarize([metric], runs)
    assert (row["rel"], row["parent_iqr"], row["wins"]) == (None, 0.0, 0)


def test_uses_the_standard_library_only():
    assert set(imported_modules(TOOL)) <= set(sys.stdlib_module_names) | {"__future__"}
