"""End-to-end orchestration: bootstrap the mean-value point at x0 by
root-finding against a reference integral, integrate its ODE away from
x0 in both directions, and assemble the corrected-integral error curve.

Each phase stamps any error it raises with :func:`~trapcorr.errors.phase`
("init", "ode", "curve") so the front end can report where a run died in
one line.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter

from . import rk
from .errors import (ConfigError, IoError, NoRootError,
                     SingularDenominatorError, phase)
from .expr import ExprAST, eval_jet, parse, shift_by_cubic
from .quadrature import reference_integral, trapezium
from .rk import FEHLBERG7, RKTableau
from .xi_ode import error_term, suggest_shift, unshift_error, xi_rhs

__all__ = [
    "ProblemSpec", "CurveRow", "ErrorCurve",
    "solve_xi0", "solve_xi_at", "in_interval_xi", "run",
    "emit_csv", "emit_xi_csv",
]

CSV_COLUMNS = ("x", "xi", "trapezium", "error_term", "corrected",
               "reference", "residual")
CSV_HEADER = ",".join(CSV_COLUMNS)

#: subintervals scanned for a sign change of the bootstrap residual
SCAN_INTERVALS = 256

#: bisection stops once the bracket is narrower than this
BISECT_WIDTH = 1e-14


@dataclass(frozen=True)
class ProblemSpec:
    """Everything one corrected-quadrature run needs, with the integrand
    actually differentiated, g = f + shift*(x-a)^3/6, and g(a) = f(a)
    built once.  ``x0=None`` seeds the bootstrap at the midpoint of [a, b]."""

    f_text: str
    f_ast: ExprAST
    a: float
    b: float
    x0: float | None
    h: float
    shift: float = 0.0
    ref_tol: float = 1e-13
    root_tol: float = 1e-12
    tableau: RKTableau = FEHLBERG7
    g: ExprAST = field(init=False, repr=False, compare=False)
    g_at_a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x0 is None:
            object.__setattr__(self, "x0", 0.5 * (self.a + self.b))
        for name in ("a", "b", "x0", "h", "shift", "ref_tol", "root_tol"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if not self.a < self.b:
            raise ConfigError(f"need a < b, got a={self.a!r}, b={self.b!r}")
        if not (self.a < self.x0 < self.b):
            raise ConfigError(
                f"x0 must lie strictly inside ({self.a!r}, {self.b!r}), got {self.x0!r}")
        if self.h <= 0.0:
            raise ConfigError(f"step size must be positive, got {self.h!r}")
        if self.h > (self.b - self.a) / 10.0:
            raise ConfigError(
                f"step size {self.h!r} exceeds (b - a)/10 = {(self.b - self.a) / 10.0!r}")
        if self.ref_tol <= 0.0:
            raise ConfigError(f"reference tolerance must be positive, got {self.ref_tol!r}")
        if self.root_tol <= 0.0:
            raise ConfigError(f"root tolerance must be positive, got {self.root_tol!r}")
        object.__setattr__(self, "g", shift_by_cubic(self.f_ast, self.shift, self.a))
        object.__setattr__(self, "g_at_a", eval_jet(self.g, self.a).d0)

    @classmethod
    def from_text(cls, f_text: str, a: float, b: float, x0: float | None = None,
                  h: float = 0.01, **kwargs) -> "ProblemSpec":
        return cls(f_text=f_text, f_ast=parse(f_text), a=a, b=b, x0=x0, h=h, **kwargs)


@dataclass(frozen=True)
class CurveRow:
    x: float
    xi: float | None
    trapezium: float
    error_term: float
    corrected: float
    reference: float | None = None
    residual: float | None = None


@dataclass(frozen=True)
class ErrorCurve:
    rows: tuple[CurveRow, ...]
    spec: ProblemSpec
    wall_time: float


# ------------------------------------------------------------ bootstrap

def _scan(fn, lo: float, w: float) -> tuple[list[float], list[float]]:
    """``fn`` on ``SCAN_INTERVALS + 1`` uniform points of [lo, lo + w]."""
    points = [lo + w * i / SCAN_INTERVALS for i in range(SCAN_INTERVALS + 1)]
    return points, [fn(p) for p in points]


def _brackets(values: list[float]) -> list[int]:
    """Scan cells holding a root, in scan order: cell i has an exact zero
    at its left point or a sign change across it; the last point counts
    as cell ``SCAN_INTERVALS`` when it is an exact zero."""
    n = len(values) - 1
    cells = [i for i in range(n)
             if values[i] == 0.0 or values[i] * values[i + 1] < 0.0]
    if values[n] == 0.0:
        cells.append(n)
    return cells


def _root(fn, points: list[float], values: list[float], i: int) -> float:
    """Root of ``fn`` in scan cell ``i``, bisected down to ``BISECT_WIDTH``."""
    if values[i] == 0.0:
        return points[i]
    lo, hi = points[i], points[i + 1]
    r_lo = values[i]
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket narrower than float spacing
            break
        r_mid = fn(mid)
        if r_mid == 0.0:
            return mid
        if r_lo * r_mid < 0.0:
            hi = mid
        else:
            lo, r_lo = mid, r_mid
    return 0.5 * (lo + hi)


def solve_xi_at(spec: ProblemSpec, x: float, i_ref: float,
                root_tol: float) -> float:
    """Mean-value point at upper limit ``x`` given the reference integral
    of the (shifted) integrand over [a, x].

    Scans ``SCAN_INTERVALS`` uniform subintervals of (a, x) for a sign
    change of R(xi) = trapezium - (x-a)^3/12 g''(xi) - i_ref and bisects
    the first bracketing one down to ``BISECT_WIDTH``.  When |R| never
    exceeds ``root_tol`` the residual carries no information about xi
    (constant g'' already matching) and the midpoint is returned by
    convention.
    """
    a = spec.a
    w = x - a
    if w <= 0.0:
        raise ConfigError(f"upper limit {x!r} must exceed a={a!r}")
    base = trapezium(spec.g, a, x) - i_ref
    scale = w ** 3 / 12.0

    def res(xi: float) -> float:
        return base - scale * eval_jet(spec.g, xi).d2

    points, values = _scan(res, a, w)
    if max(abs(v) for v in values) <= root_tol:
        return a + 0.5 * w
    cells = _brackets(values)
    if not cells:
        min_abs = min(abs(v) for v in values)
        at = points[min(range(len(values)), key=lambda i: abs(values[i]))]
        raise NoRootError("no sign change of the bootstrap residual in (a, x0)",
                          min_abs_residual=min_abs, at=at)
    xi0 = _root(res, points, values, cells[0])
    achieved = abs(res(xi0))
    if achieved > root_tol:
        raise NoRootError(
            f"bisection converged but the residual {achieved!r} still exceeds "
            f"the root tolerance {root_tol!r}", min_abs_residual=achieved, at=xi0)
    return xi0


def in_interval_xi(spec: ProblemSpec, x: float, xi: float,
                   near: float) -> float:
    """A point t in (a, x) with g''(t) = g''(xi), for a mean-value point
    ``xi`` that has left (a, x) on another branch of g''(xi(x)) = c(x).

    Scans and bisects as :func:`solve_xi_at` does, taking the root cell
    nearest ``near`` (the previous node's xi).  Returns ``xi`` unchanged
    when g'' does not take the value g''(xi) inside (a, x).
    """
    a = spec.a
    target = eval_jet(spec.g, xi).d2

    def res(t: float) -> float:
        return eval_jet(spec.g, t).d2 - target

    points, values = _scan(res, a, x - a)
    # an exact zero at a or at x is no point of the open interval
    cells = [i for i in _brackets(values)
             if values[i] != 0.0 or 0 < i < SCAN_INTERVALS]
    if not cells:
        return xi
    best = min(cells,
               key=lambda i: abs(0.5 * (points[i] + points[i + 1]) - near))
    t = _root(res, points, values, best)
    return t if a < t < x else xi


def _keep_in_interval(spec: ProblemSpec, xi0: float):
    """Node hook for one sweep from ``xi0``: a node whose xi has left
    (a, x) continues from its in-interval preimage, if there is one."""
    prev = xi0

    def hook(x: float, xi: float) -> float:
        nonlocal prev
        if not (spec.a < xi < x):
            xi = in_interval_xi(spec, x, xi, prev)
        prev = xi
        return xi

    return hook


def solve_xi0(spec: ProblemSpec) -> float:
    """Bootstrap xi(x0) for ``spec`` against a fresh reference integral."""
    with phase("init"):
        i_ref = reference_integral(spec.g, spec.a, spec.x0, spec.ref_tol)
        return solve_xi_at(spec, spec.x0, i_ref.value, spec.root_tol)


# ------------------------------------------------------------------ run

def run(spec: ProblemSpec, reference: bool = False,
        residual: bool = False) -> ErrorCurve:
    """Produce the corrected-integral error curve for ``spec``.

    The grid is {a} followed by the reverse-sweep nodes up from a + h
    and the forward-sweep nodes from x0 to b.  The row at exactly x = a
    needs no mean-value point: every term carries a (x-a)^3 factor, so
    trapezium, error term and corrected value are all identically zero.

    The ODE fixes only g''(xi(x)), so a sweep can drift onto a branch
    that leaves (a, x).  A node whose xi has left (a, x) is replaced by
    its preimage in (a, x) under g'' (:func:`in_interval_xi`) and the
    sweep continues from there; with no such preimage the ODE value is
    kept, and the residual column shows the lost identity.

    ``reference`` attaches a reference-integral column (built additively
    from per-panel reference integrals, error budget split by panel
    width); ``residual`` adds corrected - reference and implies
    ``reference``.
    """
    t_start = time.perf_counter()
    reference = reference or residual
    xi0 = solve_xi0(spec)

    def rhs(x: float, xi: float) -> float:
        return xi_rhs(spec, x, xi)

    rev_target = spec.a + spec.h
    with phase("ode"):
        try:
            forward = rk.integrate(rhs, spec.x0, xi0, spec.b, spec.h,
                                   spec.tableau, _keep_in_interval(spec, xi0))
            if rev_target < spec.x0:
                reverse = rk.integrate(rhs, spec.x0, xi0, rev_target, spec.h,
                                       spec.tableau, _keep_in_interval(spec, xi0))
                nodes = list(reversed(reverse.nodes))[:-1] + list(forward.nodes)
            else:
                nodes = list(forward.nodes)
        except SingularDenominatorError as exc:
            exc.suggested_shift = suggest_shift(spec.f_ast, spec.a, spec.b)
            raise

    with phase("curve"):
        rows = [CurveRow(x=spec.a, xi=None, trapezium=0.0, error_term=0.0,
                         corrected=0.0,
                         reference=0.0 if reference else None,
                         residual=0.0 if residual else None)]
        for x, xi in nodes:
            trap = trapezium(spec.f_ast, spec.a, x)
            err = unshift_error(error_term(spec, x, xi), spec.shift, spec.a, x)
            rows.append(CurveRow(x=x, xi=xi, trapezium=trap, error_term=err,
                                 corrected=trap + err))
        if reference:
            rows = _attach_reference(spec, rows, residual)

    return ErrorCurve(rows=tuple(rows), spec=spec,
                      wall_time=time.perf_counter() - t_start)


def _attach_reference(spec: ProblemSpec, rows: list[CurveRow],
                      residual: bool) -> list[CurveRow]:
    # additive panel-by-panel references: sum of panel tolerances equals
    # ref_tol, so the accumulated estimate honours the requested budget
    span = rows[-1].x - spec.a
    out = [rows[0]]
    acc = 0.0
    prev = rows[0].x
    for row in rows[1:]:
        piece_tol = spec.ref_tol * (row.x - prev) / span
        acc += reference_integral(spec.f_ast, prev, row.x, piece_tol).value
        prev = row.x
        out.append(replace(row, reference=acc,
                           residual=(row.corrected - acc) if residual else None))
    return out


# ------------------------------------------------------------------ CSV

def _field(v: float | None) -> str:
    return "" if v is None else format(v, ".17g")


def _write_text(text: str, destination) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {destination!r}: {exc}") from exc


def _write_csv(curve: ErrorCurve, destination, columns: tuple[str, ...]) -> None:
    if not curve.rows:
        raise ConfigError("cannot emit an empty curve")
    row_fields = attrgetter(*columns)
    lines = [",".join(columns)]
    lines += [",".join(map(_field, row_fields(r))) for r in curve.rows]
    _write_text("\n".join(lines) + "\n", destination)


def emit_csv(curve: ErrorCurve, destination) -> None:
    """Write the error curve as CSV (LF endings, 17 significant digits,
    empty fields for absent values).  Byte-identical for equal curves.

    ``destination`` is a path or an open text file.
    """
    _write_csv(curve, destination, CSV_COLUMNS)


def emit_xi_csv(curve: ErrorCurve, destination) -> None:
    """Write only the (x, xi) columns of the curve."""
    _write_csv(curve, destination, ("x", "xi"))
