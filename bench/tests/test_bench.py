"""Tests of the benchmark itself: seeded inputs, failure accounting,
self-time arithmetic and the per-op deadline."""
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import sqatoms  # noqa: E402
import sqatoms.cli  # noqa: E402,F401

import harness  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, Op, Workload, oracle_execute  # noqa: E402


def _head(workload, seed, count=40, known=False):
    stream = WORKLOADS[workload].ops(seed, known)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    assert _head(workload, 7) == _head(workload, 7)
    assert _head(workload, 7) != _head(workload, 8)
    assert _head(workload, 7, known=True) == _head(workload, 7, known=True)


def test_op_mix_does_not_depend_on_the_seed():
    for workload in WORKLOADS:
        kinds = {seed: [op.kind for op in _head(workload, seed, 60)] for seed in (1, 2)}
        assert kinds[1] == kinds[2], workload


def _corrupting(workload, corrupt):
    base = WORKLOADS[workload]
    return Workload(base.name, base.warmup, base.ops,
                    lambda sq, op: corrupt(base.execute(sq, op)), base.check)


def test_correct_results_pass_their_oracles():
    for workload in ("maps", "oracle"):
        op = _head(workload, 3, 1)[0]
        record = harness.run_op(WORKLOADS[workload], sqatoms, op)
        assert record.error is None, record.error
        assert 0.0 <= record.err_over_tol <= 1.0


def test_corrupted_oracle_result_counts_as_failure():
    def nudge(out):
        return {**out, "c_closed": out["c_closed"] + 1e-6}

    op = _head("oracle", 3, 1)[0]
    record = harness.run_op(_corrupting("oracle", nudge), sqatoms, op)
    assert record.error is not None and record.error.startswith("oracle:")


def test_corrupted_csv_counts_as_failure():
    def swap_cell(out):
        lines = out.splitlines()
        row = lines[-1].split(",")
        row[1] = repr(float(row[1]) + 1e-6)
        lines[-1] = ",".join(row)
        return "\n".join(lines)

    def drop_row(out):
        return "\n".join(out.splitlines()[:-1])

    op = _head("maps", 3, 1)[0]
    op = Op(op.index, op.kind, op.argv, {**op.params, "_cells": [(499, 0)]})
    for corrupt in (swap_cell, drop_row):
        record = harness.run_op(_corrupting("maps", corrupt), sqatoms, op)
        assert record.error is not None and record.error.startswith("oracle:"), corrupt


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (with a grandchild [2, 3]) and b [5, 9];
    # a second root [20, 30] holds overlapping children and one that
    # runs past its end
    parent = [-1, 0, 1, 0, -1, 4, 4, 4]
    start = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 23.0, 28.0]
    end = [10.0, 4.0, 3.0, 9.0, 30.0, 24.0, 26.0, 32.0]
    got = self_times(parent, start, end)
    want = [3.0, 2.0, 1.0, 4.0, 3.0, 3.0, 3.0, 4.0]
    assert got == pytest.approx(want)


def test_tracer_records_calls_and_restores_the_package(tmp_path):
    original = sqatoms.build_generator
    tracer = Tracer()
    tracer.install()
    try:
        assert sqatoms.build_generator is not original
        op = _head("oracle", 5, 2)[1]  # a Dicke point
        root = tracer.begin_op(op.index)
        oracle_execute(sqatoms, op)
        tracer.end_op(root)
        oracle_execute(sqatoms, op)  # outside an op: not recorded
    finally:
        tracer.uninstall()
    assert sqatoms.build_generator is original
    summary = summarize(tracer)
    assert summary["ops"] == 1
    assert summary["calls"]["liouvillian.build_generator"] == 1
    assert summary["calls"]["entanglement.thresholds"] == 1
    assert summary["calls"]["model.DensityMatrix"] >= 1
    assert "evolve.trajectory" not in summary["calls"]
    total = sum(summary["self_s"].values())
    assert total == pytest.approx(summary["op_s"], rel=1e-9)
    assert summary["layer_s"]["liouvillian"] > 0.0
    tracer.write_jsonl(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == len(tracer.start)
    assert spans[0]["name"] == "op" and spans[0]["parent"] == -1
    assert all(s["op"] == op.index and s["end"] >= s["start"] for s in spans)


class _Sleepy:
    name = "sleepy"

    @staticmethod
    def execute(sq, op):
        try:
            time.sleep(op.params["sleep"])
        except Exception:  # as the CLI does: must not swallow the deadline
            pass
        return op.params["sleep"]

    @staticmethod
    def check(sq, op, out):
        return 0.0, "none"


def test_deadline_overrun_is_counted_and_the_run_continues():
    ops = [Op(i, "sleep", params={"sleep": s}) for i, s in enumerate((0.01, 5.0, 0.01))]
    t0 = time.perf_counter()
    result = harness.run_loop(_Sleepy, None, ops, math.inf, limit=0.2)
    assert time.perf_counter() - t0 < 2.0
    assert [r.deadline for r in result.ops] == [False, True, False]
    assert [r.error is None for r in result.ops] == [True, False, True]
    assert len(result.latencies_ms) == 2
    assert result.busy_s >= 0.2
