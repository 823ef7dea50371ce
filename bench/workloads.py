"""The workloads: seeded op streams, op execution and oracles.

``maps`` and ``relax`` are the benchmark's workloads; ``oracle`` runs on
request.  Every oracle op costs about the same (generator assembly), so
its latency percentiles follow the host's throughput swings more than the
code.

Each workload provides

* ``warmup()``: a fixed op, the same for every seed, run during set-up;
* ``ops(seed, known_failures)``: an endless, deterministic op stream;
* ``execute(sq, op)``: the timed part, calling only ``sqatoms.cli.main``
  or names in ``sqatoms.__all__``;
* ``check(sq, op, out)``: the untimed oracle, returning the worst
  error-over-tolerance ratio and its label, or raising CheckFailure.

Draws that drive an op's cost (regime, bound share, block width,
gamma_hat, duration) follow a fixed pattern or a low-discrepancy sequence,
so every seed gives the same mix of op sizes and only the values differ.

``known_failures`` puts the draws known to fail (ROADMAP 2.1 and 2.3
among them) at the head of the stream, so a run shows them;
the default streams stay clear of them.
"""
from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from harness import CheckFailure, OpExit


@dataclass(frozen=True)
class Op:
    index: int                   # position in the seeded stream
    kind: str
    argv: tuple = ()             # CLI ops
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.argv:
            return "sqatoms " + " ".join(self.argv)
        return f"{self.kind} " + " ".join(f"{k}={v!r}" for k, v in self.params.items()
                                          if not k.startswith("_"))


class Workload(NamedTuple):
    name: str
    warmup: Callable[[], Op]
    ops: Callable[..., Any]
    execute: Callable
    check: Callable


def run_cli(sq, argv) -> str:
    """Standard output of one CLI invocation; a nonzero exit raises OpExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sq.cli.main(list(argv))
    if code != 0:
        raise OpExit(code, err.getvalue())
    return out.getvalue()


def execute_cli(sq, op: Op):
    if op.kind == "warmup-snapshots":
        return [run_cli(sq, argv) for argv in SNAPSHOT_ARGV.values()]
    return run_cli(sq, op.argv)


def _num(x: float) -> str:
    return repr(float(x))


def _parse_table(text: str):
    lines = text.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise CheckFailure("no CSV header")
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    except ValueError as exc:
        raise CheckFailure(f"unparsable CSV row: {exc}") from None
    return meta, body[0], rows


def _expect_shape(rows, shape):
    if rows.shape != shape:
        raise CheckFailure(f"table shape {rows.shape}, expected {shape}")
    if not np.all(np.isfinite(rows)):
        raise CheckFailure("non-finite value in table")


def _worst(pairs):
    """pairs of (label, error, tolerance) -> (worst ratio, its label)."""
    ratio, label = 0.0, "none"
    for name, err, tol in pairs:
        r = err / tol
        if not r <= ratio:
            ratio, label = r, name
    return ratio, label


# ---------------------------------------------------------------------------
# maps: the paper's scans through the CLI
# ---------------------------------------------------------------------------

MAP_POINTS = 500        # N samples per block, and detunings per map
# detunings per fig1/fig3 op: each width fills a quarter of every map.  With
# a fig2 scan after every four block ops the five op sizes each make a
# fifth of the ops, so p50 falls among the 10-wide blocks and p90 among the
# 20-wide ones instead of between two sizes, where throughput swings of the
# host would move it.
MAP_WIDTHS = (5, 10, 15, 20)
CELLS_CHECKED = 8
SNAPSHOT_ARGV = {
    "fig1": ("fig1", "--points", "61"),
    "fig2": ("fig2", "--points", "51"),
    "fig3": ("fig3", "--points", "61"),
}
SNAPSHOT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


def maps_warmup() -> Op:
    return Op(-1, "warmup-snapshots")


def _map_blocks(rng, deltas) -> dict:
    """Cut the detuning grid into blocks, 500 / 50 of each width, in a
    seeded order along delta; returns the blocks of each width."""
    widths = rng.permutation(np.repeat(MAP_WIDTHS, MAP_POINTS // sum(MAP_WIDTHS)))
    edges = np.concatenate([[0], np.cumsum(widths)])
    blocks = {w: [] for w in MAP_WIDTHS}
    for w, lo in zip(widths, edges):
        blocks[int(w)].append(deltas[lo:lo + w])
    return blocks


def maps_ops(seed: int, known_failures: bool = False):
    """Tilings of a 500x500 N x delta map per regime (fig1 at gamma_hat =
    0.85, fig3 in the Dicke limit at F = 0), in blocks of 5 to 20
    detunings x 500 N, with a fig2 F-scan after every four blocks.

    Every round of ten ops holds each width once per regime, in seeded
    order.  The closed-form scans have no known failing draw.
    """
    rng = np.random.default_rng([seed, 1])
    index = count()
    while True:
        n_max = rng.uniform(2.0, 6.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        d_lo = rng.uniform(-2.0, 0.0)
        deltas = np.linspace(d_lo, d_lo + rng.uniform(1.5, 4.0), MAP_POINTS)
        blocks = {cmd: _map_blocks(rng, deltas) for cmd in ("fig1", "fig3")}
        for r in range(MAP_POINTS // sum(MAP_WIDTHS)):
            for j, w in enumerate(rng.permutation(MAP_WIDTHS)):
                for cmd in ("fig1", "fig3"):
                    block = blocks[cmd][int(w)][r]
                    argv = (cmd, "--points", str(MAP_POINTS), "--n-max", _num(n_max),
                            "--Mphase", _num(phase), "--deltas=" + ",".join(_num(d) for d in block))
                    cells = list(zip(rng.integers(0, MAP_POINTS, CELLS_CHECKED).tolist(),
                                     rng.integers(0, len(block), CELLS_CHECKED).tolist()))
                    yield Op(next(index), cmd, argv, {
                        "n_max": float(n_max), "phase": float(phase),
                        "deltas": [float(d) for d in block], "_cells": cells})
                if j % 2 == 1:  # a fig2 scan after every four block ops
                    n = rng.uniform(0.1, 3.0)
                    delta = rng.uniform(-2.0, 2.0)
                    argv = ("fig2", "--N", _num(n), "--delta", _num(delta), "--Mphase", _num(phase))
                    rows = rng.integers(0, 501, CELLS_CHECKED).tolist()
                    yield Op(next(index), "fig2", argv, {
                        "n": float(n), "delta": float(delta), "phase": float(phase), "_rows": rows})


def _check_snapshots(outs) -> tuple[float, str]:
    pairs = []
    for (name, _), out in zip(SNAPSHOT_ARGV.items(), outs):
        meta, header, rows = _parse_table(out)
        ref = (SNAPSHOT_DIR / f"{name}_snapshot.csv").read_text()
        meta_ref, header_ref, rows_ref = _parse_table(ref)

        def unversioned(lines):
            return [re.sub(r"v\d+\.\d+\.\d+", "vX", ln) for ln in lines]

        if unversioned(meta) != unversioned(meta_ref) or header != header_ref:
            raise CheckFailure(f"{name} snapshot metadata differs")
        _expect_shape(rows, rows_ref.shape)
        pairs.append((f"{name} snapshot data", float(np.max(np.abs(rows - rows_ref))), 1e-10))
    return _worst(pairs)


def maps_check(sq, op: Op, out) -> tuple[float, str]:
    if op.kind == "warmup-snapshots":
        return _check_snapshots(out)
    _, header, rows = _parse_table(out)
    p = op.params
    if op.kind == "fig2":
        _expect_shape(rows, (501, 2))
        bath = sq.BathParams.minimum_uncertainty(p["n"], p["phase"])
        atoms = sq.AtomParams(gamma_hat=1.0, delta=p["delta"])
        pairs = [("fig2 F grid", float(np.max(np.abs(rows[:, 0] - np.linspace(0.0, 1.0, 501)))), 1e-12)]
        for i in p["_rows"]:
            f = float(np.linspace(0.0, 1.0, 501)[i])
            want = sq.concurrence(sq.dicke_asymptotic(bath, atoms, f))
            pairs.append(("fig2 cell", abs(rows[i, 1] - want), 1e-9))
        return _worst(pairs)

    deltas = p["deltas"]
    _expect_shape(rows, (MAP_POINTS, 1 + len(deltas)))
    if header != ",".join(["N"] + [f"C_delta={d:.12g}" for d in deltas]):
        raise CheckFailure(f"unexpected header {header[:80]!r}")
    grid = np.linspace(0.0, p["n_max"], MAP_POINTS)
    pairs = [("N grid", float(np.max(np.abs(rows[:, 0] - grid))), 1e-11 * p["n_max"])]
    for i, j in p["_cells"]:
        bath = sq.BathParams.minimum_uncertainty(float(grid[i]), p["phase"])
        if op.kind == "fig1":
            rho = sq.unique_asymptotic(bath, sq.AtomParams(gamma_hat=0.85, delta=deltas[j]))
        else:
            rho = sq.dicke_asymptotic(bath, sq.AtomParams(gamma_hat=1.0, delta=deltas[j]), 0.0)
        pairs.append((f"{op.kind} cell", abs(rows[i, 1 + j] - sq.concurrence(rho)), 1e-9))
    return _worst(pairs)


# ---------------------------------------------------------------------------
# oracle: closed form vs generator kernel, as a library user runs it
# ---------------------------------------------------------------------------

EXTREME_N = (0.0, 1e-8, 1e3, 1e6)


def oracle_warmup() -> Op:
    return Op(-1, "dicke", params={"n": 1.0, "m_frac": 1.0, "phase": 0.4,
                                   "gamma_hat": 1.0, "delta": 0.7, "omega": 0.0, "f_frac": 0.3})


def oracle_ops(seed: int, known_failures: bool = False):
    """Parameter points drawn as in tests/conftest.py.

    Odd indices are Dicke points (criterion 2: delta in +-[0.05, 2], no
    dipole coupling), even ones separated points (gamma_hat in [0, 0.95]).
    Two in eight lie exactly on the |M| bound; two in sixteen take N from
    {0, 1e-8, 1e3, 1e6}, strictly inside the bound when N > 0 (on the
    bound those are known to fail and sit in the known-failure head).
    """
    rng = np.random.default_rng([seed, 2])
    index = count()
    if known_failures:
        # on the |M| bound at large N: ROADMAP 2.1 (closed-form cancellation)
        for n in (1e3, 1e6):
            for dicke in (False, True):
                yield Op(next(index), "dicke" if dicke else "separated", params={
                    "n": n, "m_frac": 1.0, "phase": 0.7, "gamma_hat": 1.0 if dicke else 0.85,
                    "delta": 0.6, "omega": 0.0, "f_frac": 0.4})
        # on the |M| bound at N = 1e-8 near resonance: decompose loses the
        # reconstruction bound (3e-10 against 1e-10)
        yield Op(next(index), "dicke", params={
            "n": 1e-8, "m_frac": 1.0, "phase": 1.413418561248462, "gamma_hat": 1.0,
            "delta": 0.07448184919805187, "omega": 0.0, "f_frac": 0.3046219344449239})
    for i in index:
        dicke = i % 2 == 1
        phase = rng.uniform(0.0, 2.0 * math.pi)
        if i % 16 in (14, 15):
            n = EXTREME_N[(i // 16) % len(EXTREME_N)]
            m_frac = 1.0 if n == 0.0 else rng.uniform(0.0, 0.9)
        else:
            n = rng.uniform(0.05, 3.0)
            m_frac = 1.0 if i % 8 in (0, 1) else rng.uniform(0.0, 1.0)
        if dicke:
            atoms = {"gamma_hat": 1.0, "delta": rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0]),
                     "omega": 0.0, "f_frac": rng.uniform(0.0, 1.0)}
        else:
            atoms = {"gamma_hat": rng.uniform(0.0, 0.95), "delta": rng.uniform(-2.0, 2.0),
                     "omega": rng.uniform(-1.0, 1.0)}
        yield Op(i, "dicke" if dicke else "separated",
                 params={"n": float(n), "m_frac": float(m_frac), "phase": float(phase),
                         **{k: float(v) for k, v in atoms.items()}})


def _oracle_params(sq, p):
    if p["m_frac"] == 1.0:
        bath = sq.BathParams.minimum_uncertainty(p["n"], p["phase"])
    else:
        bath = sq.BathParams(p["n"], p["m_frac"] * math.sqrt(p["n"] * (p["n"] + 1.0)), p["phase"])
    atoms = sq.AtomParams(gamma_hat=p["gamma_hat"], delta=p["delta"], omega_dd=p["omega"])
    return bath, atoms


def oracle_execute(sq, op: Op) -> dict:
    bath, atoms = _oracle_params(sq, op.params)
    gen = sq.build_generator(bath, atoms)
    space = sq.stationary_space(gen)
    out = {"gen": gen, "space": space}
    if op.kind == "separated":
        rho = sq.unique_asymptotic(bath, atoms)
        out["c_closed"] = sq.concurrence_unique(bath, atoms)
    else:
        thr = sq.thresholds(bath, atoms)
        f = thr.f_cr + op.params["f_frac"] * (1.0 - thr.f_cr)
        rho = sq.dicke_asymptotic(bath, atoms, f)
        out["c_closed"] = sq.asymptotic_concurrence(bath, atoms, f)
        mix = sq.decompose(bath, atoms, f)
        out.update(fidelity=f, mix=mix, reconstruction=mix.reconstruction())
    out["rho"] = rho
    out["c_svd"] = sq.concurrence(rho)
    return out


def oracle_check(sq, op: Op, out) -> tuple[float, str]:
    gen, space, rho = out["gen"], out["space"], out["rho"]
    scale = float(np.max(np.abs(gen.matrix)))
    resid = float(np.max(np.abs(gen.apply(rho)))) / scale
    want_dim = 1 if op.kind == "separated" else 2
    if space.dimension != want_dim or len(space.states) != want_dim:
        raise CheckFailure(f"kernel dimension {space.dimension} with {len(space.states)} "
                           f"states, expected {want_dim}")
    if op.kind == "separated":
        kernel_state = space.states[0].matrix
    else:
        f = out["fidelity"]
        kernel_state = (1.0 - f) * space.states[0].matrix + f * space.states[1].matrix
    pairs = [
        ("stationarity residual / |L|", resid, 1e-10),
        ("kernel vs closed form", float(np.max(np.abs(kernel_state - rho.matrix))), 1e-9),
        ("concurrence svd vs closed form", abs(out["c_svd"] - out["c_closed"]), 1e-9),
    ]
    if op.kind == "dicke":
        pairs.append(("mixture reconstruction",
                      float(np.max(np.abs(out["reconstruction"].matrix - rho.matrix))), 1e-10))
    return _worst(pairs)


# ---------------------------------------------------------------------------
# relax: dynamics through the CLI
# ---------------------------------------------------------------------------

EVOLVE_SAMPLES = 201    # the CLI default
# evolve durations run log-uniformly over [20, 120): the cost of an evolve
# op doubles over that range, so the evolve ops spread over a band
# wider than the host's throughput swings instead of one narrow level at
# which p50 would jump between the host's fast and slow phases
EVOLVE_T = (20.0, 120.0)
ROWS_CHECKED = 6
DICKE_EVERY = 5         # every fifth op pair is in the Dicke limit
# Minimum-uncertainty baths close to resonance relax through a nearly dark
# mode whose rate falls like delta^2; below |delta| = 0.5 a steady op can
# outrun the deadline, so the default stream draws |delta| from [0.5, 2].
DELTA_MIN = 0.5
# ROADMAP 2.3: N = 1, minimum uncertainty, delta = 0.3, from the ground state
NEAR_DICKE = (1.0 - 1e-6, 1.0 - 1e-11)
# additive-recurrence steps of the R4 low-discrepancy sequence (gamma_hat,
# N, |delta|, evolve duration): 1/g^k with g the real root of x^5 = x + 1
_G = 1.1673039782614187
R4 = (1.0 / _G, 1.0 / _G**2, 1.0 / _G**3, 1.0 / _G**4)


def _product_spec(angles) -> str:
    return "product:" + ",".join(_num(a) for a in angles)


def _relax_op(index, kind, angles, n, m_frac, gamma_hat, delta, omega, rows=(),
              t=20.0):
    bath = ["--N", _num(n)]
    bath += ["--min-uncertainty"] if m_frac == 1.0 else [
        "--Mabs", _num(m_frac * math.sqrt(n * (n + 1.0)))]
    argv = [kind, "--init", _product_spec(angles), *bath, "--gamma-hat", _num(gamma_hat),
            "--delta", _num(delta), "--omega-dd", _num(omega)]
    if kind == "steady":
        argv += ["--dynamics", "--verify"]
    else:
        argv += ["--t", _num(t)]
    return Op(index, kind, tuple(argv), {
        "angles": [float(a) for a in angles], "n": float(n), "m_frac": float(m_frac),
        "gamma_hat": float(gamma_hat), "delta": float(delta), "omega": float(omega),
        "t": float(t), "_rows": list(rows)})


def relax_warmup() -> Op:
    return _relax_op(-1, "evolve", (1.0, 0.5, 2.0, 1.0), 1.0, 1.0, 0.5, 0.7, 0.2,
                     rows=(0, 100, 200))


def relax_ops(seed: int, known_failures: bool = False):
    """Alternating ``evolve`` (201 samples, the CLI default) and ``steady
    --dynamics --verify`` ops from seeded product states.

    gamma_hat in [0, 0.99], N in [0.05, 3], |delta| in [0.5, 2] and the
    evolve duration follow an R4 sequence with seeded offsets, one per op
    kind; every fifth pair sits at gamma_hat = 1 and every third op of a
    kind on the |M| bound.
    """
    rng = np.random.default_rng([seed, 3])
    index = count()
    if known_failures:
        for gh in NEAR_DICKE:
            yield _relax_op(next(index), "steady", (0.0, 0.0, 0.0, 0.0), 1.0, 1.0, gh, 0.3, 0.0)
        # near-resonant Dicke point on the |M| bound: slowest rate 3.3e-3
        yield _relax_op(next(index), "steady", (1.0, 0.5, 2.0, 1.0), 2.18, 1.0, 1.0, 0.1355, 0.0)
    offsets = rng.uniform(0.0, 1.0, (2, 4))
    for k in count():
        for s, kind in enumerate(("evolve", "steady")):
            u_gh, u_n, u_d, u_t = ((offsets[s] + k * np.array(R4)) % 1.0).tolist()
            gh = 1.0 if k % DICKE_EVERY == DICKE_EVERY - 1 else 0.99 * u_gh
            n = 0.05 + 2.95 * u_n
            delta = (DELTA_MIN + (2.0 - DELTA_MIN) * u_d) * rng.choice([-1.0, 1.0])
            angles = rng.uniform(0.0, math.pi, 4) * np.array([1.0, 2.0, 1.0, 2.0])
            m_frac = 1.0 if k % 3 == s else rng.uniform(0.0, 0.95)
            omega = rng.uniform(-1.0, 1.0)
            rows = [EVOLVE_SAMPLES - 1, *rng.integers(0, EVOLVE_SAMPLES, ROWS_CHECKED - 1).tolist()]
            t = EVOLVE_T[0] * (EVOLVE_T[1] / EVOLVE_T[0]) ** u_t
            yield _relax_op(next(index), kind, angles, n, m_frac, gh, delta, omega, rows, t)


def _relax_params(sq, p):
    if p["m_frac"] == 1.0:
        bath = sq.BathParams.minimum_uncertainty(p["n"])
    else:
        bath = sq.BathParams(p["n"], p["m_frac"] * math.sqrt(p["n"] * (p["n"] + 1.0)))
    atoms = sq.AtomParams(gamma_hat=p["gamma_hat"], delta=p["delta"], omega_dd=p["omega"])
    return bath, atoms


def _product_state(angles) -> np.ndarray:
    ta, pa, tb, pb = angles
    qa = np.array([math.sin(ta / 2.0) * complex(math.cos(pa), math.sin(pa)), math.cos(ta / 2.0)])
    qb = np.array([math.sin(tb / 2.0) * complex(math.cos(pb), math.sin(pb)), math.cos(tb / 2.0)])
    v = np.kron(qa, qb)
    return np.outer(v, v.conj())


_ROW = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")


def relax_check(sq, op: Op, out) -> tuple[float, str]:
    p = op.params
    bath, atoms = _relax_params(sq, p)
    rho0 = _product_state(p["angles"])
    u = np.asarray(sq.COLLECTIVE_BASIS_MAP)
    if op.kind == "evolve":
        _, _, rows = _parse_table(out)
        _expect_shape(rows, (EVOLVE_SAMPLES, 9))
        times = np.linspace(0.0, p["t"], EVOLVE_SAMPLES)
        pairs = [("time grid", float(np.max(np.abs(rows[:, 0] - times))), 1e-11 * p["t"])]
        for i in p["_rows"]:
            state = sq.propagate_expm(rho0, bath, atoms, float(times[i]))
            coll = u @ state.matrix @ u.conj().T
            want = [coll[0, 0].real, coll[1, 1].real, coll[2, 2].real, coll[3, 3].real,
                    coll[0, 3].real, coll[0, 3].imag, sq.concurrence(state), coll[2, 2].real]
            pairs.append(("evolve row vs propagate_expm",
                          float(np.max(np.abs(rows[i, 1:] - want))), 1e-9))
        return _worst(pairs)

    entries = [complex(float(a), float(b)) for a, b in _ROW.findall(out)]
    if len(entries) != 16:
        raise CheckFailure(f"found {len(entries)} density-matrix entries, expected 16")
    got = np.array(entries).reshape(4, 4)
    if "# nullspace dimension" not in out:
        raise CheckFailure("--verify did not report the nullspace dimension")
    if p["gamma_hat"] < 1.0:
        target = sq.unique_asymptotic(bath, atoms)
    else:
        f0 = float((u @ rho0 @ u.conj().T)[2, 2].real)
        target = sq.dicke_asymptotic(bath, atoms, f0)
    return _worst([("steady state vs closed form", float(np.max(np.abs(got - target.matrix))), 1e-7)])


WORKLOADS = {
    "maps": Workload("maps", maps_warmup, maps_ops, execute_cli, maps_check),
    "oracle": Workload("oracle", oracle_warmup, oracle_ops, oracle_execute, oracle_check),
    "relax": Workload("relax", relax_warmup, relax_ops, execute_cli, relax_check),
}
