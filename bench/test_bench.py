"""Tests of the benchmark's own arithmetic and a tiny run of every workload.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import (Tracer, nearest_rank, self_times,  # noqa: E402
                   subtree_accounting, summarize, tail_percentile,
                   union_length)
from workloads import WORKLOADS, iteration_blocks  # noqa: E402


def span(name, t0, t1, parent):
    return (name, t0, t1, parent, "run")


def test_self_time_of_nested_spans():
    spans = [span("root", 0.0, 10.0, -1), span("child", 1.0, 4.0, 0),
             span("grandchild", 2.0, 3.0, 1), span("child", 5.0, 6.0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert subtree_accounting(spans, self_times(spans), 0) == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0, -1), span("a", 1.0, 5.0, 0),
             span("b", 3.0, 7.0, 0), span("c", 4.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("root", 0.0, 10.0, -1), span("late", 8.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(8.0)
    assert union_length([(8.0, 12.0), (-3.0, 1.0)], 0.0, 10.0) == 3.0


def test_tracer_records_parents_and_accounts_for_the_root():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def inner():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: wrapped_inner() + wrapped_leaf())
    outer()
    spans = tracer.spans()
    assert [(s[0], s[3]) for s in spans] == [
        ("outer", -1), ("inner", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0)]
    selfs = self_times(spans)
    assert all(v >= 0.0 for v in selfs)
    assert subtree_accounting(spans, selfs, 0) == pytest.approx(1.0,
                                                                rel=1e-12)


def test_tracer_closes_spans_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    (name, t0, t1, parent, _), = tracer.spans()
    assert t1 >= t0 and parent == -1
    tracer.wrap("after", lambda: None)()
    assert tracer.spans()[1][3] == -1


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_and_summary():
    values = list(range(1, 101))
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 50.0) == 50
    assert summarize(values[::-1]) == {"n": 100, "median": 50.5, "p90": 90}
    assert summarize([3.0]) == {"n": 1, "median": 3.0}


def test_iteration_blocks():
    history = [(0, 0.0), (10, 5.0), (20, 10.0), (30, 30.0), (40, 31.0),
               (45, 35.0)]
    assert iteration_blocks(history, block_ms=10.0) == pytest.approx(
        [0.5e-3, 2.0e-3])
    assert iteration_blocks(history, block_ms=25.0) == pytest.approx(
        [1.0e-3])
    assert iteration_blocks([], block_ms=10.0) == []


def declared(key):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {(m["name"], m["unit"]) for m in json.load(fh)[key]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    lines, result = run.run(workload, seed=3, seconds=0.0, trace=trace,
                            size="tiny", out_dir=str(tmp_path))
    key = "per_layer" if trace else "end_to_end"
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    assert got == declared(key)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    text = "\n".join(lines)
    for name, unit in declared(key):
        assert f"{name} " in text and f" {unit}" in text
    if not trace:
        for name in ("solve_s", "iters_to_tol", "iters_per_s", "ops_failed"):
            assert name in text
