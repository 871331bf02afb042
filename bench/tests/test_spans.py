"""Spans nest: self times are non-negative and add up to no more than wall time."""

import json
import time
from pathlib import Path

import pytest

import nnrates
import spans
import workloads
from nnrates import cli, harness

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class Clock:
    """A clock that advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = Clock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    tracer.wrap("middle", middle)()
    snap = tracer.snapshot()
    assert snap["calls"] == {"leaf": 2, "middle": 1}
    assert snap["self_s"] == {"leaf": 4.0, "middle": 4.0}
    assert sum(snap["self_s"].values()) == clock.now


def test_overlapping_children_are_subtracted_once():
    # two worker threads running side by side under one parent
    assert spans._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert spans._covered([(0.0, 2.0), (1.0, 3.0)], 0.5, 2.5) == 2.0
    assert spans._covered([], 0.0, 1.0) == 0.0


def test_a_failing_call_still_closes_its_span():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.snapshot()["calls"] == {"boom": 1}
    assert tracer._stack() == []


def _traced_round(tmp_path, monkeypatch, workers: str):
    monkeypatch.setenv("NNRATES_WORKERS", workers)
    originals = (cli.main, harness.mix64, nnrates.PowerMargin1D.sample_arrays)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        wl = workloads.Workload("geometry_sweep", 3, tmp_path)
        wl.ops = [op for op in wl.ops if "_p0.05_" in op.name or op.name == "consistency"]
        start = time.perf_counter()
        outcomes = [workloads.run_op(op) for op in wl.ops]
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    assert (cli.main, harness.mix64, nnrates.PowerMargin1D.sample_arrays) == originals
    assert all(o.error is None for o in outcomes)
    counted = sum(op.trials(o.report) for op, o in zip(wl.ops, outcomes) if op.trials)
    return tracer.snapshot(), wall, len(wl.ops), counted


def test_traced_spans_nest_on_one_thread(tmp_path, monkeypatch):
    snap, wall, ops, counted = _traced_round(tmp_path, monkeypatch, "1")
    self_s = snap["self_s"]
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) <= wall
    assert snap["calls"]["cli.main"] == ops
    # every trial draws its training set and its query points through a traced sampler
    assert snap["calls"]["distributions.sample_arrays"] == 2 * 3 * 100
    assert snap["calls"]["rng.mix64"] == 2 * snap["calls"]["distributions.sample_arrays"]
    assert snap["items"]["harness.estimate_expected_excess"] == 300 == counted


def test_traced_spans_nest_on_the_worker_pool(tmp_path, monkeypatch):
    snap, wall, _, _ = _traced_round(tmp_path, monkeypatch, "2")
    self_s = snap["self_s"]
    assert all(v >= 0.0 for v in self_s.values())
    # the harness waits on the pool: its self time is wall time no worker span covers
    assert self_s["harness.consistency_sweep"] + self_s["harness.estimate_expected_excess"] <= wall
    assert sum(self_s.values()) <= 2 * wall


def test_layer_metrics_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = {m["name"] for m in spec["per_layer"]}
    empty = {"calls": {}, "self_s": {}, "items": {}}
    assert set(spans.layer_metrics(empty)) | {"traced.wall_s", "host.kernel_s"} == names
