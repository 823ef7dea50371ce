"""Command-line interface.

Subcommands: ``evolve`` (trajectory CSV), ``steady`` (asymptotic state),
``fig1``/``fig2``/``fig3`` (parameter scans of the asymptotic concurrence),
``decompose`` (Gibbs-mixture report) and ``thresholds``.

Shared flags select the reservoir and atom parameters; values resolve with
precedence flags > config file (``key=value`` lines) > defaults.  Scan
output is deterministic CSV with ``#``-prefixed metadata lines; ``--format
svg`` emits a single-curve line plot of the first data column instead.

Exit codes: 0 success, 1 validation error, 2 domain/regime error,
3 non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__
from .model import (
    CANONICAL,
    COLLECTIVE,
    KET_A,
    KET_E,
    KET_G,
    KET_S,
    AtomParams,
    BathParams,
    DensityMatrix,
    FidelityRangeError,
    NotNormalizedError,
    ParameterError,
    RegimeError,
    as_matrix,
    fidelity_antisymmetric,
    validate,
)
from .asymptotic import (
    BelowCriticalError,
    critical_fidelity,
    decompose,
    dicke_asymptotic,
    unique_asymptotic,
)
from .entanglement import (
    NotXFormError,
    asymptotic_concurrence,
    concurrence,
    concurrence_unique,
    thresholds,
)
from .evolve import IntegratorConfig, evolve_to_stationary, trajectory
from .liouvillian import build_generator, stationary_space


@dataclass(frozen=True)
class ScanSpec:
    """A one-dimensional parameter sweep: variable name, closed range and
    sample count."""

    variable: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.variable not in ("N", "F", "delta"):
            raise ParameterError(f"unknown scan variable {self.variable!r}")
        if not self.lo < self.hi:
            raise ParameterError(f"scan range must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ParameterError(f"scan needs at least 2 samples, got {self.count}")

    def grid(self) -> np.ndarray:
        # + 0.0 turns a -0.0 bound (``--n-min -0``) into 0.0, which the
        # CSV would otherwise print as "-0"
        return np.linspace(self.lo, self.hi, self.count) + 0.0


# ---------------------------------------------------------------------------
# parameter resolution: flags > config file > per-command defaults > globals
# ---------------------------------------------------------------------------

_GLOBAL_DEFAULTS = {
    "n_mean": 0.0,
    "m_abs": 0.0,
    "m_phase": 0.0,
    "min_uncertainty": False,
    "gamma0": 1.0,
    "gamma_hat": 1.0,
    "omega_dd": 0.0,
    "delta": 0.0,
    "out": None,
    "format": "csv",
}

_COMMAND_DEFAULTS = {
    "fig1": {"gamma_hat": 0.85, "min_uncertainty": True},
    "fig2": {"n_mean": 1.0, "delta": 0.8, "min_uncertainty": True},
    "fig3": {"min_uncertainty": True},
}

# config keys (flag spelling) -> (dest, converter)
_CONFIG_KEYS = {
    "N": ("n_mean", float),
    "Mabs": ("m_abs", float),
    "Mphase": ("m_phase", float),
    "min-uncertainty": ("min_uncertainty", None),  # bool, parsed below
    "gamma0": ("gamma0", float),
    "gamma-hat": ("gamma_hat", float),
    "omega-dd": ("omega_dd", float),
    "delta": ("delta", float),
    "out": ("out", str),
    "format": ("format", str),
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"cannot interpret {text!r} as a boolean")


def load_config(path: str) -> dict:
    """Read ``key = value`` lines; ``#`` starts a comment."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            dest, conv = _CONFIG_KEYS[key]
            try:
                values[dest] = _parse_bool(text) if conv is None else conv(text)
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    merged = dict(_GLOBAL_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS.get(command, {}))
    config = load_config(args.config) if getattr(args, "config", None) else {}
    explicit_m = args.m_abs is not None or "m_abs" in config
    merged.update(config)
    for dest in _GLOBAL_DEFAULTS:
        val = getattr(args, dest, None)
        if val is not None:
            merged[dest] = val
    # an explicit |M| switches a default-on minimum-uncertainty choice off;
    # an explicit --min-uncertainty always wins
    if args.min_uncertainty is None and "min_uncertainty" not in config and explicit_m:
        merged["min_uncertainty"] = False
    return merged


def _bath(vals: dict, n_mean) -> BathParams:
    """The resolved reservoir at ``n_mean`` (a number or an N grid)."""
    if vals["min_uncertainty"]:
        return BathParams.minimum_uncertainty(n_mean, vals["m_phase"])
    return BathParams(n_mean, vals["m_abs"], vals["m_phase"])


def _build_params(vals: dict) -> tuple[BathParams, AtomParams]:
    bath = _bath(vals, vals["n_mean"])
    atoms = AtomParams(
        gamma_hat=vals["gamma_hat"],
        gamma0=vals["gamma0"],
        omega_dd=vals["omega_dd"],
        delta=vals["delta"],
    )
    validate(bath, atoms)
    return bath, atoms


def _param_echo(bath: BathParams, atoms: AtomParams) -> str:
    fields = [
        ("N", bath.n_mean),
        ("Mabs", bath.m_abs),
        ("Mphase", bath.m_phase),
        ("gamma0", atoms.gamma0),
        ("gamma_hat", atoms.gamma_hat),
        ("omega_dd", atoms.omega_dd),
        ("delta", atoms.delta),
    ]
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def write_table(path, command: str, meta_lines: list[str], header: list[str], rows) -> None:
    """CSV with ``#`` metadata lines; ``rows`` is a 2-D array or a list of
    equal-length numeric rows.  Each value prints as :func:`_fmt` prints a
    float (``%.12g``; integers print the same way)."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header)).tolist()
    row_fmt = ",".join(["%.12g"] * len(header))
    lines = [f"# sqatoms {command} v{__version__}", *(f"# {line}" for line in meta_lines),
             ",".join(header), *(row_fmt % tuple(row) for row in table)]
    stream, owned = _open_out(path)
    try:
        stream.write("\n".join(lines) + "\n")
    finally:
        if owned:
            stream.close()


def svg_line_plot(x, y, xlabel: str, ylabel: str, title: str,
                  width: int = 640, height: int = 480) -> str:
    """Minimal single-curve SVG line plot (convenience output only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lm, rm, tm, bm = 60, 20, 30, 45
    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = float(y.min()), float(y.max())
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(v):
        return lm + (v - xmin) / (xmax - xmin) * (width - lm - rm)

    def sy(v):
        return height - bm - (v - ymin) / (ymax - ymin) * (height - tm - bm)

    points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{lm}" y1="{height - bm}" x2="{width - rm}" y2="{height - bm}" stroke="black"/>',
        f'<line x1="{lm}" y1="{tm}" x2="{lm}" y2="{height - bm}" stroke="black"/>',
        f'<text x="{(lm + width - rm) / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{(tm + height - bm) / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {(tm + height - bm) / 2:.0f})">{ylabel}</text>',
        f'<text x="{lm}" y="{height - bm + 16}" text-anchor="middle" font-size="10">{xmin:.4g}</text>',
        f'<text x="{width - rm}" y="{height - bm + 16}" text-anchor="middle" font-size="10">{xmax:.4g}</text>',
        f'<text x="{lm - 6}" y="{height - bm}" text-anchor="end" font-size="10">{ymin:.4g}</text>',
        f'<text x="{lm - 6}" y="{tm + 4}" text-anchor="end" font-size="10">{ymax:.4g}</text>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _emit(args, command: str, meta: list[str], header: list[str], table: np.ndarray,
          xlabel: str, ylabel: str) -> None:
    if args.resolved["format"] == "svg":
        text = svg_line_plot(table[:, 0], table[:, 1], xlabel, ylabel, f"sqatoms {command}")
        stream, owned = _open_out(args.resolved["out"])
        try:
            stream.write(text)
        finally:
            if owned:
                stream.close()
    else:
        write_table(args.resolved["out"], command, meta, header, table)


# ---------------------------------------------------------------------------
# initial-state specs
# ---------------------------------------------------------------------------

_NAMED_STATES = {"e": KET_E, "s": KET_S, "a": KET_A, "g": KET_G}


def parse_initial_state(spec: str) -> DensityMatrix:
    """Parse an initial-state spec.

    Accepted forms: the named states ``e``, ``s``, ``a``, ``g``; a product
    state ``product:thetaA,phiA,thetaB,phiB`` of Bloch angles (theta = 0 is
    the ground state); ``file:PATH`` with a ``.npy`` array or a JSON nested
    list holding a length-4 pure state or a 4x4 density matrix (complex
    entries as ``[re, im]`` pairs in JSON).
    """
    spec = spec.strip()
    if spec in _NAMED_STATES:
        return DensityMatrix.from_pure(_NAMED_STATES[spec], CANONICAL)
    if spec.startswith("product:"):
        parts = spec[len("product:"):].split(",")
        if len(parts) != 4:
            raise ParameterError(
                f"product state needs 4 angles thetaA,phiA,thetaB,phiB, got {len(parts)}"
            )
        ta, pa, tb, pb = (float(p) for p in parts)
        qa = np.array([math.sin(ta / 2.0) * complex(math.cos(pa), math.sin(pa)),
                       math.cos(ta / 2.0)])
        qb = np.array([math.sin(tb / 2.0) * complex(math.cos(pb), math.sin(pb)),
                       math.cos(tb / 2.0)])
        return DensityMatrix.from_pure(np.kron(qa, qb), CANONICAL)
    if spec.startswith("file:"):
        return _load_state_file(spec[len("file:"):])
    raise ParameterError(
        f"unknown initial state {spec!r}; expected e|s|a|g|product:...|file:PATH"
    )


def _load_state_file(path: str) -> DensityMatrix:
    if path.endswith(".npy"):
        data = np.load(path)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)

        def to_complex(cell):
            if isinstance(cell, (list, tuple)):
                return complex(cell[0], cell[1])
            return complex(cell)

        if len(raw) == 4 and isinstance(raw[0], (list, tuple)) and len(raw[0]) == 4:
            data = np.array([[to_complex(c) for c in row] for row in raw])
        else:
            data = np.array([to_complex(c) for c in raw])
    data = np.asarray(data, dtype=complex)
    if data.shape == (4,):
        return DensityMatrix.from_pure(data, CANONICAL)
    if data.shape == (4, 4):
        return DensityMatrix(data, CANONICAL)
    raise ParameterError(f"state file {path} must hold a length-4 vector or 4x4 matrix")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

_EVOLVE_HEADER = [
    "t", "rho_ee", "rho_ss", "rho_aa", "rho_gg",
    "re_rho_eg", "im_rho_eg", "concurrence", "fidelity",
]


def _trajectory_table(states, times) -> np.ndarray:
    table = np.empty((len(times), len(_EVOLVE_HEADER)))
    table[:, 0] = times
    for row, state in zip(table, states):
        coll = as_matrix(state, COLLECTIVE)
        row[1:5] = coll.diagonal().real
        row[5:7] = coll[0, 3].real, coll[0, 3].imag
        row[7] = concurrence(state)
        row[8] = coll[2, 2].real  # fidelity_antisymmetric(state), from the view at hand
    return table


def cmd_evolve(args) -> int:
    bath, atoms = _build_params(args.resolved)
    rho0 = parse_initial_state(args.init)
    if args.t <= 0.0:
        raise ParameterError(f"duration must be positive, got {args.t}")
    if args.samples < 2:
        raise ParameterError(f"need at least 2 samples, got {args.samples}")
    times = np.linspace(0.0, args.t, args.samples)
    states = trajectory(rho0, bath, atoms, times)
    meta = [
        _param_echo(bath, atoms),
        f"init={args.init} t={_fmt(args.t)} samples={args.samples}",
    ]
    _emit(args, "evolve", meta, _EVOLVE_HEADER, _trajectory_table(states, times),
          "t [1/gamma0]", "rho_ee")
    return 0


def cmd_steady(args) -> int:
    bath, atoms = _build_params(args.resolved)
    via = "closed form"
    if args.dynamics:
        rho0 = parse_initial_state(args.init)
        cfg = IntegratorConfig(t_max=args.t_max) if args.t_max else IntegratorConfig()
        result = evolve_to_stationary(rho0, bath, atoms, cfg)
        if not result.converged:
            print(
                f"did not reach stationarity within t = {_fmt(result.time)} "
                f"(residual {result.residual:.3e})",
                file=sys.stderr,
            )
            return 3
        rho = result.state
        via = f"dynamics from {args.init} (t = {_fmt(result.time)})"
    elif atoms.gamma_hat < 1.0:
        rho = unique_asymptotic(bath, atoms)
    else:
        if args.fidelity is None:
            raise ParameterError("the Dicke regime needs --fidelity to pick a stationary state")
        rho = dicke_asymptotic(bath, atoms, args.fidelity)

    lines = [f"# sqatoms steady v{__version__}", f"# {_param_echo(bath, atoms)}", f"# via {via}"]
    if args.verify:
        res = stationary_space(build_generator(bath, atoms))
        lines.append(f"# nullspace dimension {res.dimension}"
                     + (" (ill conditioned)" if res.ill_conditioned else ""))
    print("\n".join(lines))
    print("canonical density matrix (rows |11>,|10>,|01>,|00>):")
    for row in rho.matrix:
        print("  " + "  ".join(f"{v.real:+.9f}{v.imag:+.9f}j" for v in row))
    print(f"concurrence = {_fmt(concurrence(rho))}")
    print(f"fidelity    = {_fmt(fidelity_antisymmetric(rho))}")
    if args.resolved["out"]:
        rows = [
            (i, j, rho.matrix[i, j].real, rho.matrix[i, j].imag)
            for i in range(4)
            for j in range(4)
        ]
        write_table(args.resolved["out"], "steady",
                    [_param_echo(bath, atoms), f"concurrence={_fmt(concurrence(rho))}"],
                    ["i", "j", "re", "im"], rows)
    return 0


def _parse_deltas(text: str) -> list[float]:
    try:
        vals = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"bad delta list {text!r}: {exc}") from exc
    if not vals:
        raise ParameterError("delta list is empty")
    return vals


def _n_delta_scan(args, command: str, lead: str, concurrence_of) -> int:
    """Concurrence over the N grid (rows) x the ``--deltas`` list (columns)
    as one array call of ``concurrence_of(bath, atoms)``."""
    vals = args.resolved
    deltas = _parse_deltas(args.deltas)
    spec = ScanSpec("N", args.n_min, args.n_max, args.points)
    grid = spec.grid()
    if command == "fig1" and vals["gamma_hat"] >= 1.0:
        raise RegimeError("this scan needs separated atoms (gamma_hat < 1)")
    if command == "fig3" and vals["gamma_hat"] != 1.0:
        raise RegimeError("this scan needs the Dicke regime (gamma_hat = 1)")
    atoms = AtomParams(gamma_hat=vals["gamma_hat"], gamma0=vals["gamma0"],
                       omega_dd=vals["omega_dd"], delta=np.array(deltas)[None, :])
    table = np.empty((spec.count, 1 + len(deltas)))
    table[:, 0] = grid
    table[:, 1:] = concurrence_of(_bath(vals, grid[:, None]), atoms)
    meta = [
        f"{lead} min_uncertainty={vals['min_uncertainty']} Mabs={_fmt(vals['m_abs'])} "
        f"Mphase={_fmt(vals['m_phase'])} omega_dd={_fmt(vals['omega_dd'])}",
        f"deltas={args.deltas} n_range=[{_fmt(args.n_min)},{_fmt(args.n_max)}] points={spec.count}",
    ]
    header = ["N"] + [f"C_delta={_fmt(d)}" for d in deltas]
    _emit(args, command, meta, header, table, "N", "concurrence")
    return 0


def cmd_fig1(args) -> int:
    return _n_delta_scan(args, "fig1", f"gamma_hat={_fmt(args.resolved['gamma_hat'])}",
                         concurrence_unique)


def cmd_fig2(args) -> int:
    vals = args.resolved
    spec = ScanSpec("F", args.f_min, args.f_max, args.points)
    bath, atoms = _build_params(vals)
    thr = thresholds(bath, atoms)
    grid = spec.grid()
    table = np.column_stack([grid, asymptotic_concurrence(bath, atoms, grid)])
    meta = [
        _param_echo(bath, atoms),
        f"F_cr={_fmt(thr.f_cr)} F1={_fmt(thr.f1)} F2={_fmt(thr.f2)}",
        f"f_range=[{_fmt(args.f_min)},{_fmt(args.f_max)}] points={spec.count}",
    ]
    _emit(args, "fig2", meta, ["F", "C"], table, "F", "concurrence")
    return 0


def cmd_fig3(args) -> int:
    return _n_delta_scan(args, "fig3", "F=0",
                         lambda bath, atoms: asymptotic_concurrence(bath, atoms, 0.0))


def cmd_decompose(args) -> int:
    bath, atoms = _build_params(args.resolved)
    mix = decompose(bath, atoms, args.fidelity)
    target = dicke_asymptotic(bath, atoms, args.fidelity)
    residual = float(np.max(np.abs(mix.reconstruction().matrix - target.matrix)))
    gibbs_diag = mix.gibbs.matrix.diagonal().real

    print(f"# sqatoms decompose v{__version__}")
    print(f"# {_param_echo(bath, atoms)} F={_fmt(args.fidelity)}")
    print(f"weights: p = {_fmt(mix.p)}  q = {_fmt(mix.q)}  gibbs = {_fmt(mix.gibbs_weight)}")
    print(f"Gibbs exponents: beta*omega = {_fmt(mix.beta_omega)}  "
          f"beta*omega1 = {_fmt(mix.beta_omega1)}"
          + ("  (degenerate)" if mix.degenerate_gibbs else ""))
    print("rho_beta diagonal (|11>,|10>,|01>,|00>): "
          + "  ".join(_fmt(v) for v in gibbs_diag))
    print(f"psi amplitudes: |11> {mix.psi[0]:.9f}  |00> {mix.psi[3]:.9f}")
    print(f"reconstruction residual (max abs entry) = {residual:.3e}")
    if args.resolved["out"]:
        header = ["p", "q", "gibbs_weight", "beta_omega", "beta_omega1",
                  "psi_ee_re", "psi_ee_im", "psi_gg",
                  "gibbs_ee", "gibbs_10", "gibbs_01", "gibbs_gg", "residual"]
        row = (mix.p, mix.q, mix.gibbs_weight, mix.beta_omega, mix.beta_omega1,
               mix.psi[0].real, mix.psi[0].imag, mix.psi[3].real,
               *gibbs_diag, residual)
        write_table(args.resolved["out"], "decompose",
                    [_param_echo(bath, atoms), f"F={_fmt(args.fidelity)}"],
                    header, [row])
    return 0


def cmd_thresholds(args) -> int:
    bath, atoms = _build_params(args.resolved)
    thr = thresholds(bath, atoms)
    f_cr = critical_fidelity(bath, atoms)
    print(f"# sqatoms thresholds v{__version__}")
    print(f"# {_param_echo(bath, atoms)}")
    print(f"F_cr = {_fmt(f_cr)}")
    print(f"F1   = {_fmt(thr.f1)}")
    print(f"F2   = {_fmt(thr.f2)}")
    if args.resolved["out"]:
        write_table(args.resolved["out"], "thresholds", [_param_echo(bath, atoms)],
                    ["F_cr", "F1", "F2"], [(f_cr, thr.f1, thr.f2)])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _NegativeNumber:
    """Stand-in for argparse's negative-number pattern: a string with a
    leading minus whose comma-separated parts float() all reads, exponent
    notation included (``--deltas`` takes a list)."""

    @staticmethod
    def match(text: str) -> bool:
        if not text.startswith("-"):
            return False
        try:
            for part in text.split(","):
                float(part)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes ``-1.5e-05`` as a value, not an option.

    argparse recognizes negative numbers by the pattern ``-1`` / ``-1.5``
    only, so ``--delta -1.5e-05`` failed with "expected one argument".
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber()


def _shared_flags() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    grp = shared.add_argument_group("reservoir and atom parameters")
    grp.add_argument("--N", dest="n_mean", type=float, help="mean photon number N")
    grp.add_argument("--Mabs", dest="m_abs", type=float, help="|M|, squeezing correlation magnitude")
    grp.add_argument("--Mphase", dest="m_phase", type=float, help="squeezing phase (radians)")
    grp.add_argument("--min-uncertainty", dest="min_uncertainty", action="store_const",
                     const=True, help="force |M| = sqrt(N(N+1))")
    grp.add_argument("--gamma0", dest="gamma0", type=float, help="single-atom emission rate")
    grp.add_argument("--gamma-hat", dest="gamma_hat", type=float,
                     help="collective damping ratio gamma/gamma0 in [0, 1]")
    grp.add_argument("--omega-dd", dest="omega_dd", type=float, help="dipole-dipole coupling")
    grp.add_argument("--delta", dest="delta", type=float, help="normalized detuning delta0/gamma0")
    out = shared.add_argument_group("output")
    out.add_argument("--out", dest="out", help="output path ('-' for stdout)")
    out.add_argument("--format", dest="format", choices=("csv", "svg"), help="output format")
    out.add_argument("--config", dest="config", help="key=value config file (flags win)")
    return shared


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``sqatoms`` parser, built once per process (about 2 ms) and
    shared by every :func:`main` call; parsing leaves it unchanged."""
    shared = _shared_flags()
    parser = _Parser(
        prog="sqatoms",
        description="Two two-level atoms in a broadband squeezed reservoir: "
                    "dynamics, asymptotic states and entanglement.",
    )
    parser.add_argument("--version", action="version", version=f"sqatoms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[shared], help="integrate the master equation")
    p.add_argument("--init", default="g", help="initial state: e|s|a|g|product:...|file:PATH")
    p.add_argument("--t", type=float, default=20.0, help="duration in units of 1/gamma0")
    p.add_argument("--samples", type=int, default=201, help="number of output rows")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("steady", parents=[shared], help="asymptotic state")
    p.add_argument("--fidelity", type=float, help="antisymmetric fidelity (Dicke regime)")
    p.add_argument("--dynamics", action="store_true",
                   help="relax to stationarity by integration instead of the closed form")
    p.add_argument("--init", default="g", help="initial state for --dynamics")
    p.add_argument("--t-max", type=float, help="horizon for --dynamics")
    p.add_argument("--verify", action="store_true", help="report the generator nullspace")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("fig1", parents=[shared],
                       help="concurrence of the unique stationary state vs N")
    p.add_argument("--deltas", default="0,0.5,1", help="comma-separated detunings")
    p.add_argument("--n-min", type=float, default=0.0)
    p.add_argument("--n-max", type=float, default=3.0)
    p.add_argument("--points", type=int, default=301)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", parents=[shared],
                       help="asymptotic concurrence vs fidelity (Dicke regime)")
    p.add_argument("--f-min", type=float, default=0.0)
    p.add_argument("--f-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=501)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", parents=[shared],
                       help="zero-fidelity asymptotic concurrence vs N (Dicke regime)")
    p.add_argument("--deltas", default="0,0.8,2", help="comma-separated detunings")
    p.add_argument("--n-min", type=float, default=0.0)
    p.add_argument("--n-max", type=float, default=3.0)
    p.add_argument("--points", type=int, default=301)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("decompose", parents=[shared],
                       help="Gibbs + |a><a| + pure mixture of the Dicke state")
    p.add_argument("--fidelity", type=float, required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("thresholds", parents=[shared], help="F_cr, F1 and F2")
    p.set_defaults(func=cmd_thresholds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the validation code
        return 0 if not exc.code else 1
    try:
        args.resolved = _resolve(args, args.command)
        return args.func(args)
    except (RegimeError, FidelityRangeError, BelowCriticalError, NotXFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, NotNormalizedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
