"""Timed op loop, per-op deadline, failure accounting and run provenance.

An op is one unit of user work (one CLI invocation or one library-level
parameter point).  It fails when it raises, exits nonzero, overruns the
per-op deadline, or its output falls outside the oracle tolerance.  Only
the op itself is timed; each output is checked right after its op, with
the clock stopped.
"""
from __future__ import annotations

import math
import os
import platform
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# seconds one op may take before it counts as a failure
DEADLINE_S = 10.0


class DeadlineExceeded(BaseException):
    """Raised in the main thread when an op overruns its deadline.

    Derived from BaseException so that no ``except Exception`` in the
    package can swallow it.
    """


class OpExit(Exception):
    """A CLI op returned a nonzero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code = code


class CheckFailure(Exception):
    """An op's output has the wrong shape or content for its oracle."""


def _raise_deadline(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    index: int
    kind: str
    seconds: float
    error: str | None = None       # None: the op succeeded
    deadline: bool = False
    err_over_tol: float = 0.0      # worst oracle error / tolerance


@dataclass
class LoopResult:
    ops: list[OpRecord] = field(default_factory=list)
    busy_s: float = 0.0            # wall time spent inside ops

    @property
    def latencies_ms(self) -> list[float]:
        return [r.seconds * 1e3 for r in self.ops if r.error is None]


def run_op(workload, sq, op, tracer=None, limit: float = DEADLINE_S) -> OpRecord:
    """Execute one op under the deadline, then check its output untimed."""
    root = tracer.begin_op(op.index) if tracer is not None else None
    out = None
    error = None
    overran = False
    t0 = time.perf_counter()
    try:
        with deadline(limit):
            out = workload.execute(sq, op)
    except DeadlineExceeded:
        overran = True
        error = f"deadline: exceeded {limit:g} s"
    except Exception as exc:  # any raise is a failed op, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(root)
    record = OpRecord(op.index, op.kind, elapsed, error, overran)
    if error is None:
        try:
            ratio, label = workload.check(sq, op, out)
        except CheckFailure as exc:
            record.error = f"oracle: {exc}"
        else:
            record.err_over_tol = ratio
            if not ratio <= 1.0:
                record.error = f"oracle: {label} error is {ratio:.3g} x its tolerance"
    return record


def run_loop(workload, sq, ops, seconds: float, tracer=None, limit: float = DEADLINE_S,
             result: LoopResult | None = None) -> LoopResult:
    """Run ops from the iterator ``ops`` until ``result`` holds ``seconds``
    of op time (or the ops run out); returns ``result``."""
    result = result if result is not None else LoopResult()
    ops = iter(ops)
    while result.busy_s < seconds:
        op = next(ops, None)
        if op is None:
            break
        record = run_op(workload, sq, op, tracer, limit)
        result.ops.append(record)
        result.busy_s += record.seconds
    return result


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_revision(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' when the
    tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(root),
        "seed": seed,
    }
