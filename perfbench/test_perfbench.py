"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

import bench_ops
import run
from bench_trace import Target, Tracer, self_times


def test_self_time_subtracts_covered_child_time():
    # 0: root [0, 100]
    #   1: [10, 40]  with grandchild 2: [15, 25]
    #   3: [30, 60]  overlaps 1, so [30, 40] is covered once
    #   4: [90, 120] sticks out of the root and is clipped to [90, 100]
    # 5: a second root [200, 210] without children
    start = [0, 10, 15, 30, 90, 200]
    end = [100, 40, 25, 60, 120, 210]
    parent = [-1, 0, 1, 0, 0, -1]
    assert self_times(start, end, parent) == [100 - 50 - 10, 30 - 10, 10, 30, 30, 10]


def test_tracer_records_nesting_and_restores_originals():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    originals = {name: vars(Box)[name] for name in ("outer", "inner")}
    tracer = Tracer()
    with tracer:
        tracer.install([Target(Box, "outer", "outer"), Target(Box, "inner", "inner")])
        assert Box().outer() == 2
    assert all(vars(Box)[n] is f for n, f in originals.items())
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


@pytest.mark.parametrize("workload", bench_ops.WORKLOADS)
def test_op_generation_follows_the_seed(workload):
    def ops(seed):
        return [op.params for op in itertools.islice(bench_ops.op_stream(workload, seed), 60)]

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)
    golden = json.loads((Path(bench_ops.__file__).parent / "golden.json").read_text())
    domain = set(bench_ops.op_domain(workload))
    for op in itertools.islice(bench_ops.op_stream(workload, 7), 200):
        assert op.params in domain
        assert op.key in golden


def test_traced_and_counted_runs_repeat_and_leave_no_wrapper(tmp_path, monkeypatch):
    monkeypatch.setitem(run.TRACE_OPS, "traceroute", 3)
    targets = run.trace_targets(bench_ops)
    originals = [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets]

    results = []
    for _ in range(2):
        runner = run.Runner(bench_ops, "traceroute", tmp_path)
        metrics, same = run.traced_run(runner, 5, tmp_path / "spans.tsv")
        assert same and runner.failed == 0
        results.append(metrics)

    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{attr} still wrapped"
    exact = [
        k for k in results[0]
        if k.endswith((".calls", "_per_record", ".probes", "empty_ratio", "hashed_ratio"))
    ]
    assert "builtins.c_calls_per_record" in exact and "sim.trace_bytes_per_record" in exact
    assert {k: results[0][k] for k in exact} == {k: results[1][k] for k in exact}
    assert results[0]["fib.fnv1a64.calls"] > 0  # ECMP hashing at A
