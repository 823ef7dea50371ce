"""Benchmark runner for sqatoms.

Usage, from the root of a checkout:

    python3 bench/run.py --workload maps|oracle|relax --seed N --seconds S --trace 0|1
                         [--known-failures] [--out RECORD.json] [--spans SPANS.jsonl]

One process, one thread (BLAS pinned to one thread), importing the package
from ``src/``.  Set-up (a fresh import of ``sqatoms`` and ``sqatoms.cli``
plus one warm-up op) is timed before the ops and again after each fifth of
them, and the median of the six reported.  Ops run for ``S`` seconds of op
time; every output is checked against its oracle outside the timed region.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the first half of the time runs with spans recorded around
the package's public functions, the same ops are then replayed without
spans, and the result carries the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# one BLAS thread; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6


def import_package():
    """Import sqatoms and sqatoms.cli from src/, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "sqatoms" or m.startswith("sqatoms.")]:
        del sys.modules[name]
    sq = importlib.import_module("sqatoms")
    importlib.import_module("sqatoms.cli")
    return sq


def measure_setup(workload, harness):
    """Time one set-up: a fresh import plus the warm-up op."""
    t0 = time.perf_counter()
    sq = import_package()
    record = harness.run_op(workload, sq, workload.warmup())
    return sq, time.perf_counter() - t0, record


def per_layer_metrics(summary: dict, overhead: float, worst: float, overruns: int) -> dict:
    from spans import COUNTERS, DENSITY_SPAN, LAYERS, TRACED

    ops = max(summary["ops"], 1)
    metrics = {}
    for name in [t[0] for t in TRACED] + [DENSITY_SPAN]:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0) / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (summary["self_s"].get(name, 0.0) * 1e3 / ops, "ms/op")
    units = {"liouvillian.rhs.calls": "calls/op", "evolve.accepted_steps": "steps/op",
             "evolve.t_integrated": "1/gamma0/op"}
    for key in COUNTERS:
        metrics[key] = (summary["counters"].get(key, 0.0) / ops, units[key])
    op_s = summary["op_s"] or 1.0
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = (100.0 * summary["layer_s"][layer] / op_s, "%")
    metrics["evolve.deadline_overruns"] = (overruns, "count")
    metrics["check.worst_err_over_tol"] = (worst, "ratio")
    metrics["trace.overhead"] = (100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("maps", "oracle", "relax"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true",
                        help="start the op stream with the draws known to fail (ROADMAP 2.1, 2.3)")
    parser.add_argument("--out", help="write the full run record (JSON) here")
    parser.add_argument("--spans", help="traced runs: write every span (JSON lines) here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "sqatoms" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sqatoms'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy  # noqa: F401  (imported before set-up is timed)
    import scipy.linalg  # noqa: F401

    import harness
    from spans import Tracer, summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    sq, setup_first, warm_first = measure_setup(workload, harness)
    if not Path(sq.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sqatoms from {sq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups, warm = [setup_first], [warm_first]

    stream = workload.ops(args.seed, args.known_failures)
    tracer = None
    if args.trace:
        seen = []

        def tapped():
            for op in stream:
                seen.append(op)
                yield op

        tracer = Tracer()
        tracer.install()
        loop = harness.run_loop(workload, sq, tapped(), args.seconds / 2.0, tracer)
        tracer.uninstall()
        replay = harness.run_loop(workload, sq, seen[:len(loop.ops)], float("inf"))
        overhead = loop.busy_s / replay.busy_s - 1.0 if replay.busy_s > 0 else 0.0
        records = loop.ops + replay.ops
    else:
        # the host's throughput drifts over seconds, so set-up is timed
        # again after each fifth of the op time and the median reported;
        # the ops keep using the first import
        loop = harness.LoopResult()
        for k in range(1, SETUP_REPEATS):
            harness.run_loop(workload, sq, stream, args.seconds * k / (SETUP_REPEATS - 1),
                             result=loop)
            _, seconds, record = measure_setup(workload, harness)
            setups.append(seconds)
            warm.append(record)
        records = loop.ops
    setup_s = statistics.median(setups)

    failed = [r for r in records if r.error is not None]
    warm_failed = [r for r in warm if r.error is not None]
    worst = max([r.err_over_tol for r in records + warm if r.error is None] or [0.0])
    # end-to-end figures always come from untraced ops
    timed = replay if tracer is not None else loop
    lat = timed.latencies_ms
    ok_ops = len(lat)
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok_ops / timed.busy_s if timed.busy_s > 0 else 0.0, "1/s"),
        "op_p50_ms": (harness.quantile(lat, 0.5), "ms"),
        "op_p90_ms": (harness.quantile(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer is not None:
        summary = summarize(tracer)
        metrics = per_layer_metrics(summary, overhead, worst,
                                    sum(r.deadline for r in records))
        if args.spans:
            tracer.write_jsonl(args.spans)
    else:
        metrics = e2e

    attempted = len(records)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  known-failures {args.known_failures}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':<24} {len(failed) / max(attempted, 1):14.6g} "
          f"({len(failed)} of {attempted} ops)")
    print(f"  {'op samples':<24} {ok_ops:14d} successful ops timed")
    print(f"  {'check.worst_err_over_tol':<24} {worst:14.6g}")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<50} {value:14.6g} {unit}")
        print("  layer isolation: " + isolation_note(args.workload, summary))
    for r in warm_failed:
        print(f"  warm-up op failed: {r.error}")
    by_index = {}
    for r in failed:
        by_index.setdefault(r.index, r)
    ops_by_index = {}
    if failed:
        for op in workload.ops(args.seed, args.known_failures):
            if op.index in by_index:
                ops_by_index[op.index] = op
            if len(ops_by_index) == len(by_index) or op.index > max(by_index):
                break
        print("  failing draws (seed index: error | op):")
        for index, r in sorted(by_index.items()):
            print(f"    #{index}: {r.error} | {ops_by_index[index].describe()}")

    correct = not failed and not warm_failed
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "known_failures": args.known_failures,
            "provenance": harness.provenance(ROOT, args.seed),
            "setup_samples_s": setups,
            "op_samples": ok_ops,
            "worst_err_over_tol": worst,
            "failed_ratio": len(failed) / max(attempted, 1),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "op_latencies_ms": [[r.index, r.kind, r.seconds * 1e3] for r in timed.ops],
            "failing_draws": [
                {"index": i, "error": r.error, "op": ops_by_index[i].describe()}
                for i, r in sorted(by_index.items())],
            "result": result,
        }
        if tracer is not None:
            record["per_layer"] = result["metrics"]
            record["isolation"] = isolation_note(args.workload, summary)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def isolation_note(workload: str, summary: dict) -> str:
    """The predicted layer isolation, with what the trace shows."""
    calls = summary["calls"]
    layer_calls = {layer: sum(n for name, n in calls.items() if name.startswith(layer + "."))
                   for layer in ("cli", "liouvillian", "evolve")}
    shares = summary["layer_s"]
    top = max(shares, key=shares.get)
    if workload == "maps":
        ok = layer_calls["liouvillian"] == 0 and layer_calls["evolve"] == 0
        expect = "no liouvillian or evolve calls"
    elif workload == "oracle":
        ok = layer_calls["evolve"] == 0 and layer_calls["cli"] == 0
        expect = "no evolve or cli calls"
    else:
        ok = top == "evolve"
        expect = "evolve takes the largest share"
    return (f"{'as predicted' if ok else 'NOT as predicted'} ({expect}); "
            f"largest self-time share: {top}; calls: {layer_calls}")


if __name__ == "__main__":
    sys.exit(main())
