"""Spans around the entry points of each nnrates module, kept in memory.

`install(tracer)` replaces module and class attributes with timing
wrappers in the running process only; the program's source is untouched.
A wrapper is installed on every name through which the program looks the
function up, because `from .x import f` binds a second name: `harness`
calls its own `mix64`, `fit_arrays` and `predict_batch`, and `cli` its own
`boundary_measure` and harness runners.

A span's parent is the innermost open span of its thread.  A span opened
on a worker thread with no open span of its own (the harness thread pool)
takes the innermost open span of the installing thread as its parent.
Self time is a span's duration minus the part of it that the union of its
children's intervals covers, so overlapping children on two worker threads
are not subtracted twice and self time is never negative.

Spans are not stored one by one: each closing span adds its self time,
its call and its work count (`items`) to per-name totals, and `snapshot()`
copies the totals so that a caller can take differences around any region.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

# (args, kwargs, result) -> work items the call handled, such as points drawn
ItemsFn = Optional[Callable[[tuple, dict, object], int]]


class _Frame:
    __slots__ = ("start", "children")

    def __init__(self, start: float):
        self.start = start
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Per-name totals of calls, self seconds and work items."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack: list[_Frame] = self._stack()
        self._undo: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, items: ItemsFn = None) -> Callable:
        """A wrapper of fn that records one span named `name` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home and stack is not home else None
            frame = _Frame(self._clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                own = (end - frame.start) - _covered(frame.children, frame.start, end)
                if parent is not None:
                    parent.children.append((frame.start, end))
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += own
            if items is not None:
                count = items(args, kwargs, result)
                with self._lock:
                    self.items[name] += count
            return result

        return traced

    def patch(self, owner, attr: str, name: str, items: ItemsFn = None) -> None:
        """Replace owner.attr with a traced wrapper; `restore` undoes it."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, items))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "items": dict(self.items),
            }


def _arg(position: int, keyword: str):
    def pick(args, kwargs, _result):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position]

    return pick


def _size_of(position: int, keyword: str):
    pick = _arg(position, keyword)
    return lambda args, kwargs, result: len(pick(args, kwargs, result))


def _defining_classes(classes, attr: str):
    return [cls for cls in classes if attr in cls.__dict__]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every nnrates module."""
    import nnrates
    from nnrates import _rng, boundary, bounds, classifier, cli, distributions, harness, metric

    def everywhere(layer_module, attr: str, name: str, holders, items: ItemsFn = None) -> None:
        # one wrapper per binding; all of them count under one name
        for holder in (layer_module, *holders):
            if attr in vars(holder):
                tracer.patch(holder, attr, name, items)

    # _rng: generator is bound in distributions, mix64 in harness
    everywhere(_rng, "mix64", "rng.mix64", (harness,))
    everywhere(_rng, "generator", "rng.generator", (distributions,))

    # metric: the per-point checks and distance rows the classifier and scans use
    metric_classes = (metric.MetricSpace, metric.FiniteMetric, metric.IntervalMetric)
    for attr in ("check_point", "distances_to"):
        for cls in _defining_classes(metric_classes, attr):
            tracer.patch(cls, attr, "metric")
    everywhere(metric, "load_finite_metric", "metric", (distributions, nnrates))

    # distributions: methods, patched on each class that defines them
    dist_classes = (
        distributions.FiniteAtomic,
        distributions._Interval1D,
        distributions.PiecewiseUniform1D,
        distributions.PowerMargin1D,
    )
    counted = {
        "sample_arrays": _arg(2, "n"),
        "cdf_pair_array": None,
        "prob_radius_value": None,
        "eta_closed": None,
        "eta_values": None,
    }
    for attr, items in counted.items():
        for cls in _defining_classes(dist_classes, attr):
            tracer.patch(cls, attr, f"distributions.{attr}", items)

    # classifier
    everywhere(classifier, "fit_arrays", "classifier.fit_arrays", (harness, nnrates))
    everywhere(
        classifier, "predict_batch", "classifier.predict_batch", (harness, nnrates),
        _size_of(1, "queries"),
    )

    # boundary: internal calls go through the module globals, so patch there too
    for attr in ("region_classify", "boundary_measure", "high_error_measure"):
        everywhere(boundary, attr, f"boundary.{attr}", (cli, harness, nnrates))

    # bounds: every public function, one layer total
    for attr in bounds.__all__:
        if callable(vars(bounds)[attr]) and not isinstance(vars(bounds)[attr], type):
            everywhere(bounds, attr, "bounds", (harness, nnrates))

    # harness: the public runners; `trials` counts the trials each one runs
    trial_counts = {
        "run_upper_bound_trials": lambda a, kw, r: len(r.mistake_probs),
        "run_lower_bound_trials": lambda a, kw, r: r.trials_used,
        "estimate_expected_excess": lambda a, kw, r: len(r.per_trial),
        "mc_expected_mistake": _arg(3, "trials"),
        "exact_expected_mistake": None,
        "rate_sweep": None,
        "consistency_sweep": None,
    }
    for attr, items in trial_counts.items():
        everywhere(harness, attr, f"harness.{attr}", (cli, nnrates), items)

    # cli: the user's entry point
    everywhere(cli, "main", "cli.main", ())


def layer_metrics(delta: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values from the difference of two snapshots."""
    calls, self_s, items = delta["calls"], delta["self_s"], delta["items"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def layer(prefix):
        names = [n for n in set(calls) | set(self_s) if n == prefix or n.startswith(prefix + ".")]
        return sum(c(n) for n in names), sum((s(n) for n in names), 0.0)

    out: dict[str, float] = {}
    for name in ("rng.generator", "rng.mix64"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.s"] = s(name)
    out["distributions.sample_arrays.calls"] = c("distributions.sample_arrays")
    out["distributions.sample_arrays.points"] = items.get("distributions.sample_arrays", 0)
    out["distributions.sample_arrays.s"] = s("distributions.sample_arrays")
    for name in (
        "distributions.cdf_pair_array",
        "distributions.prob_radius_value",
        "distributions.eta_closed",
        "boundary.region_classify",
        "boundary.boundary_measure",
        "boundary.high_error_measure",
    ):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.s"] = s(name)
    out["classifier.predict_batch.calls"] = c("classifier.predict_batch")
    out["classifier.predict_batch.queries"] = items.get("classifier.predict_batch", 0)
    out["classifier.predict_batch.s"] = s("classifier.predict_batch")
    out["distributions.eta_values.s"] = s("distributions.eta_values")
    out["classifier.fit_arrays.calls"] = c("classifier.fit_arrays")
    out["harness.trials"] = sum(v for n, v in items.items() if n.startswith("harness."))
    out["harness.self_s"] = layer("harness")[1]
    out["harness.exact_expected_mistake.calls"] = c("harness.exact_expected_mistake")
    out["harness.exact_expected_mistake.s"] = s("harness.exact_expected_mistake")
    out["bounds.calls"], out["bounds.s"] = layer("bounds")
    out["metric.calls"], out["metric.s"] = layer("metric")
    out["cli.self_s"] = s("cli.main")
    return out


def difference(after: dict, before: dict) -> dict[str, dict[str, float]]:
    return {
        key: {name: value - before[key].get(name, 0) for name, value in after[key].items()}
        for key in after
    }
