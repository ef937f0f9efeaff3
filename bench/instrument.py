"""Observers and spans around the calls into each ddrobust layer.

Everything here acts from outside the package: it replaces functions at the
names their callers resolve (``cli`` and ``mc`` import ``fd_jacobian``,
``estimate_instability``, ``spectral_radius`` and others by name), and puts
the originals back afterwards. Two kinds of wrapper exist:

* observers, always on, read the outcome counts the failure fraction needs
  (Monte Carlo trials and skips, FD columns and failed columns) from the
  values ``estimate_instability`` and ``fd_jacobian`` return;
* spans, on only while tracing, record name, start, end, parent and failure
  for every public function of every layer module and for the controller
  maps' ``evaluate`` methods. While a ``dare_solve`` span is open, calls of
  ``numpy.linalg.solve`` are counted: the fixed-point solver makes one per
  iteration.

The analysis half (self times, per-layer totals) works on plain span lists,
so it can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("lti", "linalg", "ctrlmaps", "sensitivity", "bounds", "mc", "cli")
DARE = "ctrlmaps.dare_solve"

# Span record fields.
NAME, PARENT, START, END, FAILED, ITERS = range(6)


def _layer_modules():
    import importlib

    return {layer: importlib.import_module(f"ddrobust.{layer}") for layer in LAYERS}


def _namespaces():
    import ddrobust

    return [ddrobust, *_layer_modules().values()]


def _bindings(func):
    """Every (namespace, name) at which ``func`` is bound in the package."""
    return [(ns, name) for ns in _namespaces()
            for name, obj in vars(ns).items() if obj is func]


class Recorder:
    """Outcome counts of one worker process, plus its spans while tracing."""

    def __init__(self):
        self.counts = Counter()
        self.mc_unstable: list[int] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._dare: list | None = None
        self._patched: list[tuple] = []

    # -- observers --------------------------------------------------------

    def install_observers(self) -> None:
        from ddrobust import mc, sensitivity

        def on_report(report):
            self.counts["trials"] += report.trials
            self.counts["skipped"] += report.skipped
            self.mc_unstable.append(report.unstable_count)

        def on_bundle(bundle):
            self.counts["fd_cols"] += bundle.size
            self.counts["fd_failed"] += len(bundle.failures)

        for func, hook in ((mc.estimate_instability, on_report),
                           (sensitivity.fd_jacobian, on_bundle)):
            wrapper = _observer(func, hook)
            for ns, name in _bindings(func):
                setattr(ns, name, wrapper)

    # -- spans ------------------------------------------------------------

    def start_tracing(self) -> None:
        """Wrap every public layer function and ``evaluate`` method in a span."""
        import numpy as np

        layers = _layer_modules()
        for layer, module in layers.items():
            for name, obj in list(vars(module).items()):
                base = inspect.unwrap(obj)
                if (not name.startswith("_") and inspect.isfunction(base)
                        and base.__module__ == module.__name__):
                    wrapper = self._span_wrapper(f"{layer}.{name}", obj)
                    for ns, attr in _bindings(obj):
                        self._patch(ns, attr, wrapper)
        for cls in layers["ctrlmaps"].ControllerMap.__subclasses__():
            for name in ("evaluate", "evaluate_flagged"):
                if name in vars(cls):
                    method = vars(cls)[name]
                    self._patch(cls, name, self._span_wrapper(f"ctrlmaps.{name}", method))

        solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            if self._dare is not None:
                self._dare[ITERS] += 1
            return solve(*args, **kwargs)

        self._patch(np.linalg, "solve", counting_solve)

    def stop_tracing(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_wrapper(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_dare = name == DARE

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, False, 0]
            stack.append(len(spans))
            spans.append(record)
            if is_dare:
                self._dare = record
            record[START] = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
                if is_dare:
                    self._dare = None

        return wrapper


def _observer(func, hook):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        hook(result)
        return result

    return wrapper


# -- analysis ------------------------------------------------------------


def concat_spans(span_lists) -> list[list]:
    """One span list from several processes' lists, parent ids re-based."""
    merged: list[list] = []
    for spans in span_lists:
        base = len(merged)
        merged += [[*s[:PARENT], s[PARENT] + base if s[PARENT] >= 0 else -1, *s[START:]]
                   for s in spans]
    return merged


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


def nesting_errors(spans) -> int:
    """Spans that do not lie inside their parent's interval."""
    bad = 0
    for s in spans:
        if s[END] < s[START]:
            bad += 1
        elif s[PARENT] >= 0:
            p = spans[s[PARENT]]
            bad += not (p[START] <= s[START] and s[END] <= p[END])
    return bad


def span_totals(spans) -> dict[str, dict]:
    """Calls, self seconds and failures per span name and per layer.

    Layer totals sum the functions of that layer; because every span's self
    time excludes its children, the layer self times add up to the duration
    of the root spans.
    """
    totals: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        for key in (s[NAME], s[NAME].split(".", 1)[0]):
            t = totals.setdefault(key, {"calls": 0, "s": 0.0, "failed": 0})
            t["calls"] += 1
            t["s"] += self_s
            t["failed"] += bool(s[FAILED])
    return totals


def root_seconds(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def dare_iterations(spans) -> list[int]:
    return [s[ITERS] for s in spans if s[NAME] == DARE]


def failure_counts(counts) -> tuple[int, int]:
    """(attempted, failed) operations of a workload.

    Attempted: Monte Carlo trials, FD columns, fig1 rows and CLI commands.
    Failed: skipped trials, failed FD columns, NaN fig1 rows and commands
    that did not exit 0.
    """
    attempted = (counts["trials"] + counts["fd_cols"] + counts["rows"]
                 + counts["commands"])
    failed = (counts["skipped"] + counts["fd_failed"] + counts["nan_rows"]
              + counts["failed_commands"])
    return attempted, failed
