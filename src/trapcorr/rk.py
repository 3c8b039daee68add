"""Explicit fixed-step Runge-Kutta integration of a scalar first-order ODE.

The kernel is tableau-driven: any explicit method given by a strictly
lower-triangular stage matrix can be plugged in, either programmatically
or from a plain-text file.  The shipped default is Fehlberg's 11-stage
seventh-order formula (the propagating half of his 7(8) pair).

Stepping in decreasing x needs no special casing: a negative step size
falls straight out of y_{i+1} = y_i + h F(x_i, y_i, h) with h < 0, so
reverse trajectories reuse the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, IoError

__all__ = [
    "RKTableau", "Trajectory", "FEHLBERG7",
    "rk_step", "integrate", "load_tableau", "format_tableau",
    "order_condition_residuals", "empirical_order",
]

Rhs = Callable[[float, float], float]

#: largest row-sum and weight-sum defect :meth:`RKTableau.validate` accepts
VALIDATE_TOL = 1e-10

#: :func:`empirical_order`'s step sizes and rounding floor (ulps of e)
ORDER_STEPS = (0.1, 0.05, 0.025)
FLOOR_ULPS = 4.0

#: pairs (condition, exact value) for every rooted tree through order 4
_ORDER_CONDITIONS = (
    ("sum b_i", 1, 1.0),
    ("sum b_i c_i", 2, 0.5),
    ("sum b_i c_i^2", 3, 1.0 / 3.0),
    ("sum b_i a_ij c_j", 3, 1.0 / 6.0),
    ("sum b_i c_i^3", 4, 0.25),
    ("sum b_i c_i a_ij c_j", 4, 0.125),
    ("sum b_i a_ij c_j^2", 4, 1.0 / 12.0),
    ("sum b_i a_ij a_jk c_k", 4, 1.0 / 24.0),
)


@dataclass(frozen=True)
class RKTableau:
    """Coefficients of an explicit Runge-Kutta method of declared order.

    ``a`` holds only the strict lower triangle: row i lists the i
    coefficients multiplying earlier stages.
    """

    name: str
    order: int
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    c: tuple[float, ...]

    def __post_init__(self):
        s = len(self.b)
        if len(self.c) != s or len(self.a) != s:
            raise ConfigError(f"tableau '{self.name}': inconsistent stage counts")
        for i, row in enumerate(self.a):
            if len(row) != i:
                raise ConfigError(
                    f"tableau '{self.name}': A row {i + 1} has {len(row)} "
                    f"entries, expected {i}")
        if self.order < 1:
            raise ConfigError(f"tableau '{self.name}': order must be >= 1")

    @property
    def stages(self) -> int:
        return len(self.b)

    def row_sum_defect(self) -> float:
        """max_i |c_i - sum_j A_ij| (zero for a consistent tableau)."""
        return max(abs(self.c[i] - math.fsum(self.a[i])) for i in range(self.stages))

    def validate(self) -> None:
        # a NaN defect compares false against any bound, so check entries first
        for what, values in (("A", [v for row in self.a for v in row]),
                             ("b", self.b), ("c", self.c)):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"tableau '{self.name}': non-finite entry in {what}")
        defect = self.row_sum_defect()
        if defect > VALIDATE_TOL:
            raise ConfigError(f"tableau '{self.name}': row-sum defect {defect:.3e} "
                              f"exceeds {VALIDATE_TOL:.1e}")
        weight = abs(math.fsum(self.b) - 1.0)
        if weight > VALIDATE_TOL:
            raise ConfigError(f"tableau '{self.name}': weights sum to 1 within "
                              f"{weight:.3e} > {VALIDATE_TOL:.1e}")


def order_condition_residuals(t: RKTableau) -> list[tuple[str, int, float]]:
    """Residuals of the algebraic order conditions up to min(order, 4).

    Returns (condition, order, |achieved - exact|) triples.
    """
    s = t.stages
    a, b, c = t.a, t.b, t.c
    values = (
        math.fsum(b),
        math.fsum(b[i] * c[i] for i in range(s)),
        math.fsum(b[i] * c[i] ** 2 for i in range(s)),
        math.fsum(b[i] * a[i][j] * c[j] for i in range(s) for j in range(i)),
        math.fsum(b[i] * c[i] ** 3 for i in range(s)),
        math.fsum(b[i] * c[i] * a[i][j] * c[j] for i in range(s) for j in range(i)),
        math.fsum(b[i] * a[i][j] * c[j] ** 2 for i in range(s) for j in range(i)),
        math.fsum(b[i] * a[i][j] * a[j][k] * c[k]
                  for i in range(s) for j in range(i) for k in range(j)),
    )
    out = []
    for (label, order, exact), got in zip(_ORDER_CONDITIONS, values):
        if order <= min(t.order, 4):
            out.append((label, order, abs(got - exact)))
    return out


def _fehlberg7() -> RKTableau:
    a = (
        (),
        (2 / 27,),
        (1 / 36, 1 / 12),
        (1 / 24, 0.0, 1 / 8),
        (5 / 12, 0.0, -25 / 16, 25 / 16),
        (1 / 20, 0.0, 0.0, 1 / 4, 1 / 5),
        (-25 / 108, 0.0, 0.0, 125 / 108, -65 / 27, 125 / 54),
        (31 / 300, 0.0, 0.0, 0.0, 61 / 225, -2 / 9, 13 / 900),
        (2.0, 0.0, 0.0, -53 / 6, 704 / 45, -107 / 9, 67 / 90, 3.0),
        (-91 / 108, 0.0, 0.0, 23 / 108, -976 / 135, 311 / 54, -19 / 60,
         17 / 6, -1 / 12),
        (2383 / 4100, 0.0, 0.0, -341 / 164, 4496 / 1025, -301 / 82,
         2133 / 4100, 45 / 82, 45 / 164, 18 / 41),
    )
    b = (41 / 840, 0.0, 0.0, 0.0, 0.0, 34 / 105, 9 / 35, 9 / 35,
         9 / 280, 9 / 280, 41 / 840)
    c = (0.0, 2 / 27, 1 / 9, 1 / 6, 5 / 12, 1 / 2, 5 / 6, 1 / 6, 2 / 3,
         1 / 3, 1.0)
    return RKTableau(name="fehlberg7", order=7, a=a, b=b, c=c)


FEHLBERG7 = _fehlberg7()


@dataclass(frozen=True)
class Trajectory:
    """Ordered (x, y) nodes of one integration sweep."""

    nodes: tuple[tuple[float, float], ...]

    @property
    def y_end(self) -> float:
        return self.nodes[-1][1]


def rk_step(rhs: Rhs, x: float, y: float, h: float,
            tableau: RKTableau = FEHLBERG7) -> float:
    """Advance one explicit RK step of signed size ``h`` from (x, y)."""
    if h == 0.0:
        raise ConfigError("step size must be nonzero")
    a, b, c = tableau.a, tableau.b, tableau.c
    k: list[float] = []
    for i in range(tableau.stages):
        yi = y
        row = a[i]
        for j in range(i):
            if row[j] != 0.0:
                yi += h * row[j] * k[j]
        k.append(rhs(x + c[i] * h, yi))
    acc = 0.0
    for i in range(tableau.stages):
        if b[i] != 0.0:
            acc += b[i] * k[i]
    return y + h * acc


def integrate(rhs: Rhs, x0: float, y0: float, x_end: float, h_mag: float,
              tableau: RKTableau = FEHLBERG7,
              on_node: Rhs | None = None) -> Trajectory:
    """Fixed steps of magnitude ``h_mag`` from (x0, y0) toward ``x_end``.

    The step is signed by the direction of travel; the final step is
    clamped to land exactly on ``x_end``.  All nodes including both
    endpoints are returned; ``x_end == x0`` yields the single seed node.

    ``on_node(x, y)``, when given, is called on every new node; its
    return value replaces y there and the sweep continues from it.
    """
    if h_mag <= 0.0:
        raise ConfigError(f"step magnitude must be positive, got {h_mag!r}")
    if x_end == x0:
        return Trajectory(nodes=((x0, y0),))
    sign = 1.0 if x_end > x0 else -1.0
    h = sign * h_mag
    nodes = [(x0, y0)]
    x, y = x0, y0
    k = 0
    while True:
        k += 1
        x_next = x0 + k * h  # recomputed, not accumulated
        last = sign * (x_next - x_end) >= -1e-9 * h_mag
        if last:
            x_next = x_end
        y = rk_step(rhs, x, y, x_next - x, tableau)
        if on_node is not None:
            y = on_node(x_next, y)
        nodes.append((x_next, y))
        if last:
            break
        x = x_next
    return Trajectory(nodes=tuple(nodes))


# ------------------------------------------------------------- file format
#
# line 1: "s p"; then s lines with the lower-triangle A rows (row i holds
# i-1 numbers, so the first is blank); then the b line; then the c line.

def format_tableau(t: RKTableau) -> str:
    lines = [f"{t.stages} {t.order}"]
    for row in t.a:
        lines.append(" ".join(repr(v) for v in row))
    lines.append(" ".join(repr(v) for v in t.b))
    lines.append(" ".join(repr(v) for v in t.c))
    return "\n".join(lines) + "\n"


def load_tableau(path: str, name: str | None = None) -> RKTableau:
    """Read a tableau file and validate its shape and consistency."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read tableau file {path!r}: {exc}") from exc
    if not lines:
        raise ConfigError(f"tableau file {path!r} is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ConfigError(f"tableau file {path!r}: first line must be 's p'")
    try:
        s, p = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ConfigError(f"tableau file {path!r}: bad header {lines[0]!r}") from exc
    if len(lines) < 1 + s + 2:
        raise ConfigError(
            f"tableau file {path!r}: expected {1 + s + 2} lines, got {len(lines)}")

    def floats(line: str, want: int, what: str) -> tuple[float, ...]:
        parts = line.split()
        if len(parts) != want:
            raise ConfigError(
                f"tableau file {path!r}: {what} has {len(parts)} entries, "
                f"expected {want}")
        try:
            return tuple(float(v) for v in parts)
        except ValueError as exc:
            raise ConfigError(f"tableau file {path!r}: bad number in {what}") from exc

    a = tuple(floats(lines[1 + i], i, f"A row {i + 1}") for i in range(s))
    b = floats(lines[1 + s], s, "b line")
    c = floats(lines[2 + s], s, "c line")
    t = RKTableau(name=name or path, order=p, a=a, b=b, c=c)
    t.validate()
    return t


# ------------------------------------------------------- order experiment

def empirical_order(tableau: RKTableau = FEHLBERG7) -> list[tuple[float, float, float]]:
    """Measure convergence on y' = y over [0, 1] against exp(1).

    Returns (h, error, slope) rows, h in ``ORDER_STEPS``, where slope is
    log2(err(h)/err(h/2)) for consecutive step pairs; a slope is NaN when
    the finer error sits at the rounding floor (within ``FLOOR_ULPS`` ulps
    of the exact endpoint value) and no longer reflects truncation.
    """
    errs = []
    for h in ORDER_STEPS:
        traj = integrate(lambda x, y: y, 0.0, 1.0, 1.0, h, tableau)
        errs.append(abs(traj.y_end - math.e))
    floor = FLOOR_ULPS * math.ulp(math.e)
    rows = []
    for i, h in enumerate(ORDER_STEPS):
        slope = float("nan")
        if i + 1 < len(ORDER_STEPS) and errs[i + 1] > floor and errs[i + 1] > 0.0:
            slope = math.log2(errs[i] / errs[i + 1])
        rows.append((h, errs[i], slope))
    return rows
