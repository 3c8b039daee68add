"""End-to-end orchestration: bootstrap the mean-value point at x0 by
root-finding against a reference integral, integrate its ODE away from
x0 in both directions, and assemble the corrected-integral error curve.

Each phase stamps any error it raises with :func:`~trapcorr.errors.phase`
("init", "ode", "curve") so the front end can report where a run died in
one line.
"""

from __future__ import annotations

import math
import sys
import time
from functools import lru_cache
from operator import attrgetter, is_
from typing import NamedTuple

from . import rk
from ._value import Value
from .errors import (ConfigError, DomainError, IoError, NoRootError,
                     SingularDenominatorError, phase)
from .expr import ExprAST, eval_jet, eval_values, parse, shift_by_cubic
from .quadrature import reference_column, reference_integral, trapezium
from .rk import FEHLBERG7, RKTableau
from .xi_ode import bind_step, error_term, suggest_shift, unshift_error
from .xi_ode import xi_rhs  # noqa: F401  perfbench traces it

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


class ProblemSpec(Value):
    """Everything one corrected-quadrature run needs, with g = f + shift*(x-a)^3/6
    (the integrand actually differentiated) and g(a) = f(a) built once.
    ``x0=None`` seeds the bootstrap at the midpoint of [a, b]."""

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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.x0 is None:
            object.__setattr__(self, "x0", 0.5 * self.a + 0.5 * self.b)  # a + b may overflow
        for name in ("a", "b", "x0", "h", "shift", "ref_tol", "root_tol"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if not self.a < self.b:
            raise ConfigError(f"need a < b, got a={self.a!r}, b={self.b!r}")
        power = 4 if self.shift else 3  # the un-shift's (x - a)^4, or the error term's cube
        # a stage's x - a passes b - a by rounding alone: a few ulps of a or b, and the root's
        ulps = 1e-15 * max(abs(self.a), abs(self.b))
        reach = (self.b - self.a + ulps) * (1.0 + 1e-12)
        if not reach < sys.float_info.max ** (1.0 / power):
            raise ConfigError(f"b - a = {self.b - self.a!r}: (x - a)^{power} nears overflow")
        if not (self.a < self.x0 < self.b):
            raise ConfigError(
                f"x0 must lie strictly inside ({self.a!r}, {self.b!r}), got {self.x0!r}")
        if self.h <= 0.0:
            raise ConfigError(f"step size must be positive, got {self.h!r}")
        # the sweep's nodes x0 + k*h round to doubles, which lie up to ulp(max(|a|, |b|))
        # apart on [a, b]: an h no larger can round two nodes to one double, a zero step
        if self.h <= (spacing := math.ulp(max(abs(self.a), abs(self.b)))):
            raise ConfigError(
                f"step size {self.h!r} is too small to step x on [a, b]: need h > {spacing!r}")
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


class CurveRow(NamedTuple):
    x: float
    xi: float | None
    trapezium: float
    error_term: float
    corrected: float
    reference: float | None = None
    residual: float | None = None


class ErrorCurve(NamedTuple):
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
    convention.  The scan stops once it has a bracket and some |R| > root_tol.
    """
    a = spec.a
    w = x - a
    if w <= 0.0:
        raise ConfigError(f"upper limit {x!r} must exceed a={a!r}")
    base = trapezium(spec.g, a, x) - i_ref
    scale = w ** 3 / 12.0

    def res(xi: float) -> float:
        return base - scale * eval_jet(spec.g, xi).d2

    points, values, bracketed, informative = [], [], False, False
    for i in range(SCAN_INTERVALS + 1):  # _scan's points, up to a cell that _brackets finds
        points.append(a + w * i / SCAN_INTERVALS)
        values.append(res(points[i]))
        informative = informative or abs(values[i]) > root_tol
        bracketed = bracketed or values[i] == 0.0 or i > 0 and values[i - 1] * values[i] < 0.0
        if bracketed and informative:
            break
    if not informative:
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
        floor = scale * abs(eval_jet(spec.g, xi0).d3) * math.ulp(xi0)  # R's step per ulp of xi
        why = (f", above the root tolerance {root_tol!r}, sits at xi's float-resolution floor "
               f"{floor!r}; a root tolerance above that floor can be met" if achieved <= floor
               else f" still exceeds the root tolerance {root_tol!r}")
        raise NoRootError(f"bisection converged but the residual {achieved!r}{why}",
                          min_abs_residual=achieved, at=xi0)
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
            if not math.isfinite(xi):  # else in_interval_xi's jet at xi would call it x
                raise DomainError(f"non-finite xi={xi!r}", x)
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
    step, records = bind_step(spec)

    def sweep(x_end):  # its (x, xi, g''(xi)) nodes: the last has no step, so no g''(xi)
        start = len(records)
        nodes = rk.integrate(step, spec.x0, xi0, x_end, spec.h, _keep_in_interval(spec, xi0))
        return [(x, xi, d2) for (x, xi), d2 in zip(nodes, records[start:] + [None])]
    with phase("ode"):
        try:
            nodes = sweep(spec.b)
            if spec.a + spec.h < spec.x0:
                nodes = sweep(spec.a + spec.h)[:0:-1] + nodes
        except SingularDenominatorError as exc:
            exc.suggested_shift = suggest_shift(spec.f_ast, spec.a, spec.b)
            raise

    with phase("curve"):
        rows = [CurveRow(x=spec.a, xi=None, trapezium=0.0, error_term=0.0, corrected=0.0,
                         reference=0.0 if reference else None, residual=0.0 if residual else None)]
        a, shift, values, xs = spec.a, spec.shift, [], [spec.a] + [x for x, _, _ in nodes]
        fx = eval_values(spec.f_ast, xs)
        for (x, xi, d2), f_x in zip(nodes, fx[1:]):  # x > a: no node sits at a
            err = unshift_error(error_term(spec, x, xi, d2), shift, a, x)  # d2 None: a sweep's end
            trap = 0.5 * (x - a) * (fx[0] + f_x)  # trapezium(f, a, x), bit for bit
            values.append((x, xi, trap, err, trap + err))
        column = (reference_column(spec.f_ast, xs, fx, spec.ref_tol) if reference
                  else [None] * len(values))
        rows += [tuple.__new__(CurveRow, (*v, ref, (v[4] - ref) if residual else None))
                 for v, ref in zip(values, column)]  # skips the NamedTuple's Python-level __new__

    return ErrorCurve(rows=tuple(rows), spec=spec,
                      wall_time=time.perf_counter() - t_start)


# ------------------------------------------------------------------ CSV

@lru_cache(maxsize=256)
def _template(absent: tuple[bool, ...]) -> str:
    """A row's format: "%.17g" per field, "%.0s" (None prints as "") per absent one."""
    return ",".join(["%.0s" if gone else "%.17g" for gone in absent])


def _write_text(text: str, destination) -> None:
    try:
        if hasattr(destination, "write"):
            destination.write(text)
            destination.flush()  # a buffered stream fails here, not at some later flush
        else:
            with open(destination, "w", encoding="utf-8", newline="") as fh:  # ASCII text, no import
                fh.write(text)
    except OSError as exc:
        name = getattr(destination, "name", destination)  # a stream by its name, a path as given
        raise IoError(f"cannot write {name!r}: {exc}") from exc


def _write_csv(curve: ErrorCurve, destination, columns: tuple[str, ...]) -> None:
    if not curve.rows:
        raise ConfigError("cannot emit an empty curve")
    nones = (None,) * len(columns)
    full = _template((False,) * len(columns))
    lines = [",".join(columns)]
    lines += [full % values if None not in values
              else _template(tuple(map(is_, values, nones))) % values
              for values in (curve.rows if columns == CurveRow._fields  # a row is its fields
                             else map(attrgetter(*columns), curve.rows))]
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
