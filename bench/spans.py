"""In-memory span recording around the package's public functions.

Spans are recorded from outside the package: a traced function is replaced,
at every ``sqatoms`` module attribute that refers to it, by a wrapper that
opens a span on entry and closes it on exit.  Nothing is recorded while no
op is active, so oracle checks that call the same functions stay untraced.

Spans live in flat arrays (name id, parent index, op id, start, end) until
the run ends; :func:`self_times` then derives each span's self time.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute) of every traced function; the span name is
# ``<module>.<function>`` and its first component names the layer
TRACED = [
    ("cli.main", "sqatoms.cli", "main"),
    ("cli.write_table", "sqatoms.cli", "write_table"),
    ("model.validate", "sqatoms.model", "validate"),
    ("asymptotic.unique_asymptotic_coefficients", "sqatoms.asymptotic", "unique_asymptotic_coefficients"),
    ("asymptotic.dicke_asymptotic_coefficients", "sqatoms.asymptotic", "dicke_asymptotic_coefficients"),
    ("asymptotic.unique_asymptotic", "sqatoms.asymptotic", "unique_asymptotic"),
    ("asymptotic.dicke_asymptotic", "sqatoms.asymptotic", "dicke_asymptotic"),
    ("asymptotic.decompose", "sqatoms.asymptotic", "decompose"),
    ("entanglement.concurrence", "sqatoms.entanglement", "concurrence"),
    ("entanglement.concurrence_unique", "sqatoms.entanglement", "concurrence_unique"),
    ("entanglement.asymptotic_concurrence", "sqatoms.entanglement", "asymptotic_concurrence"),
    ("entanglement.thresholds", "sqatoms.entanglement", "thresholds"),
    ("liouvillian.build_generator", "sqatoms.liouvillian", "build_generator"),
    ("liouvillian.stationary_space", "sqatoms.liouvillian", "stationary_space"),
    ("evolve.trajectory", "sqatoms.evolve", "trajectory"),
    ("evolve.evolve_to_stationary", "sqatoms.evolve", "evolve_to_stationary"),
    ("evolve.default_t_max", "sqatoms.evolve", "default_t_max"),
]
# DensityMatrix is a class (isinstance checks need it intact), so its
# construction is traced through the validating __post_init__ hook
DENSITY_SPAN = "model.DensityMatrix"
LAYERS = ("cli", "model", "liouvillian", "evolve", "asymptotic", "entanglement")
ROOT = "op"

COUNTERS = (
    "liouvillian.rhs.calls",
    "evolve.accepted_steps",
    "evolve.t_integrated",
)


class Tracer:
    """Span store plus counters; ``op_id`` is -1 outside an op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        # an exception raised between open and the matching close (a
        # deadline) can leave inner spans open; close them at the same time
        while self.stack and self.stack[-1] >= idx:
            inner = self.stack.pop()
            if inner != idx:
                self.end[inner] = self.end[idx]

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.stack.clear()
        return self.open(self.name_id(ROOT))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op_id = -1
        # a deadline that fired inside open() can leave the arrays at
        # unequal lengths; drop the half-recorded span
        n = min(len(self.name), len(self.parent), len(self.op), len(self.end), len(self.start))
        for column in (self.name, self.parent, self.op, self.end, self.start):
            del column[n:]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.op_id >= 0:
            self.counters[key] += amount

    def install(self) -> None:
        """Wrap every traced function at each sqatoms attribute naming it."""
        hooks = {
            "evolve.evolve_to_stationary": self._on_stationary,
            "evolve.trajectory": self._on_trajectory,
        }
        for name, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            self._patch_everywhere(original, self.wrap(name, original, hooks.get(name)))

        make_rhs = sys.modules["sqatoms.liouvillian"].make_collective_rhs

        @functools.wraps(make_rhs)
        def counting_make_rhs(*args, **kwargs):
            rhs = make_rhs(*args, **kwargs)

            def counted(rho):
                self.count("liouvillian.rhs.calls")
                return rhs(rho)

            return counted

        self._patch_everywhere(make_rhs, counting_make_rhs)

        dm = sys.modules["sqatoms.model"].DensityMatrix
        post_init = dm.__post_init__
        dm.__post_init__ = self.wrap(DENSITY_SPAN, post_init)
        self._restore.append((dm, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "sqatoms" and not modname.startswith("sqatoms."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _on_stationary(self, args, result) -> None:
        self.count("evolve.accepted_steps", result.steps)
        self.count("evolve.t_integrated", result.time)

    def _on_trajectory(self, args, result) -> None:
        times = args[3]
        if len(times):
            self.count("evolve.t_integrated", float(times[-1]))

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "parent": self.parent[i],
                    "op": self.op[i],
                    "start": self.start[i],
                    "end": self.end[i],
                }) + "\n")


def self_times(parent, start, end) -> array:
    """Each span's duration minus the part of it its children cover.

    Spans must be listed in order of their start (as recorded), with
    ``parent`` holding the index of the enclosing span or -1.  Children
    are clipped to their parent, and overlapping children count once.
    """
    n = len(start)
    covered = array("d", [0.0]) * n
    reach = array("d", [float("-inf")]) * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p], start[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def summarize(tracer: Tracer) -> dict:
    """Per-function calls and self time, and each layer's share of op time.

    Returns totals; ``ops`` is the number of traced ops they cover.
    """
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    op_ids = set()
    op_total = 0.0
    for i, s in enumerate(selfs):
        name = tracer.names[tracer.name[i]]
        calls[name] += 1
        self_s[name] += s
        if name == ROOT:
            op_ids.add(tracer.op[i])
            op_total += tracer.end[i] - tracer.start[i]
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        layer = name.split(".", 1)[0]
        if layer in layer_s:
            layer_s[layer] += s
    return {
        "ops": len(op_ids),
        "op_s": op_total,
        "calls": dict(calls),
        "self_s": dict(self_s),
        "layer_s": layer_s,
        "counters": dict(tracer.counters),
    }
