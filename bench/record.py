"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of a checkout:

    python3 bench/record.py --seeds 10 --first-seed 1 [--workloads maps,relax]
                            [--trace 0|1] [--known-failures] [--out SUMMARY.json]

Runs ``bench/run.py`` once per workload and seed, one process at a time,
with ``run_seconds`` from BENCHMARK.json.  For every metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound.  The
summary keeps every run's full record, provenance included.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else float("nan"),
            "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int, known: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-record-") as tmp:
        out = Path(tmp) / "record.json"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
        if known:
            cmd.append("--known-failures")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        record = json.loads(out.read_text())
        del record["op_latencies_ms"]  # kept out of summaries for size
        return record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true")
    parser.add_argument("--out", help="write the summary (JSON) here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "known_failures": args.known_failures, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            record = run_once(workload, seed, spec["run_seconds"], args.trace, args.known_failures)
            runs.append(record)
            res = record["result"]
            line = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                             for k, v in record["end_to_end"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} {line}  "
                  f"failed_ratio={record['failed_ratio']:.6g} "
                  f"({res['failed']} of {res['attempted']} ops)", flush=True)
            for draw in record["failing_draws"]:
                print(f"    failing draw #{draw['index']}: {draw['error']} | {draw['op']}")
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = spread(values) if len(values) > 1 else {"values": values}
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            if name in bounds:
                metrics[name]["bound"] = bounds[name]
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
        for name, m in metrics.items():
            if "iqr_over_median" in m:
                print(f"  {workload:<7} {name:<44} median {m['median']:12.6g} {m['unit']:<12}"
                      f" iqr/median {m['iqr_over_median']:8.4f}"
                      + (f"  bound {m['bound']}" if m.get("bound") is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
