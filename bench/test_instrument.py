"""Tests of the benchmark's span arithmetic, failure counting and wrappers.

    python3 -m pytest bench -q
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from instrument import (
    Recorder,
    concat_spans,
    dare_iterations,
    failure_counts,
    nesting_errors,
    root_seconds,
    self_times,
    span_totals,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def span(name, parent, start, end, failed=False, iters=0):
    return [name, parent, start, end, failed, iters]


# cli.main [0, 10] holds an evaluate [1, 4] and an estimate [5, 9]; the
# estimate holds a spectral radius [6, 7] that failed.
TREE = [
    span("cli.main", -1, 0.0, 10.0),
    span("ctrlmaps.evaluate", 0, 1.0, 4.0),
    span("mc.estimate_instability", 0, 5.0, 9.0),
    span("linalg.spectral_radius", 2, 6.0, 7.0, failed=True),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(TREE) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_partition_the_root_span():
    assert sum(self_times(TREE)) == root_seconds(TREE) == 10.0


def test_layer_totals_sum_their_functions():
    totals = span_totals(TREE + [span("ctrlmaps.dare_solve", 1, 2.0, 3.5, iters=7)])
    assert totals["ctrlmaps"] == {"calls": 2, "s": 3.0, "failed": 0}
    assert totals["ctrlmaps.evaluate"] == {"calls": 1, "s": 1.5, "failed": 0}
    assert totals["linalg"] == {"calls": 1, "s": 1.0, "failed": 1}
    assert totals["cli"]["s"] == 3.0


def test_nesting_errors_flag_a_child_outside_its_parent():
    assert nesting_errors(TREE) == 0
    assert nesting_errors(TREE + [span("lti.collect", 1, 3.5, 4.5)]) == 1
    assert nesting_errors([span("lti.collect", -1, 2.0, 1.0)]) == 1


def test_concat_rebases_parent_ids():
    merged = concat_spans([TREE, TREE])
    assert [s[1] for s in merged] == [-1, 0, 0, 2, -1, 4, 4, 6]
    assert nesting_errors(merged) == 0
    assert sum(self_times(merged)) == root_seconds(merged) == 20.0


def test_dare_iterations_read_from_dare_spans():
    spans = [span("ctrlmaps.dare_solve", -1, 0, 1, iters=152),
             span("linalg.pseudoinverse", -1, 1, 2, iters=0),
             span("ctrlmaps.dare_solve", -1, 2, 3, iters=9)]
    assert dare_iterations(spans) == [152, 9]


def test_failure_counts_add_every_kind_of_operation():
    counts = Counter(trials=100, skipped=3, fd_cols=10, fd_failed=1, rows=4,
                     nan_rows=1, commands=2, failed_commands=0)
    assert failure_counts(counts) == (116, 5)
    assert failure_counts(Counter(commands=1)) == (1, 0)


@pytest.fixture()
def ddrobust_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    # Earlier wrappers must not leak into later tests.
    for name in [m for m in sys.modules if m.startswith("ddrobust")]:
        monkeypatch.delitem(sys.modules, name)


def test_recorder_wraps_the_names_callers_resolve(ddrobust_path):
    from ddrobust import cli, collect, ctrlmaps, identify, mc, vehicle_model

    original = ctrlmaps.dare_solve
    rec = Recorder()
    rec.install_observers()
    data = collect(vehicle_model(), 1, 40, seed=0)
    bundle = cli.fd_jacobian(ctrlmaps.CeLqrMap(), data, [0, 5])
    assert rec.counts["fd_cols"] == 2 and rec.counts["fd_failed"] == 0
    assert cli.fd_jacobian is mc.fd_jacobian

    rec.start_tracing()
    ctrlmaps.CeLqrMap().evaluate(data)
    rec.stop_tracing()
    names = [s[0] for s in rec.spans]
    assert names[0] == "ctrlmaps.evaluate"
    assert {"ctrlmaps.identify", "ctrlmaps.dare_solve", "linalg.pseudoinverse"} <= set(names)
    assert nesting_errors(rec.spans) == 0
    assert ctrlmaps.dare_solve is original

    # The counted solves are the solver's iterations: it converges within
    # that many steps and not within one fewer.
    [iters] = dare_iterations(rec.spans)
    model = identify(data)
    q, r = np.eye(4), np.eye(2)
    ctrlmaps.dare_solve(model.a, model.b, q, r, max_iter=iters)
    with pytest.raises(ctrlmaps.DareError):
        ctrlmaps.dare_solve(model.a, model.b, q, r, max_iter=iters - 1)
    assert bundle.size == 2
