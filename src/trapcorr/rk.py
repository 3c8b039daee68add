"""Explicit fixed-step Runge-Kutta integration of a scalar first-order ODE.

The kernel is tableau-driven: any explicit method given by a strictly
lower-triangular stage matrix can be plugged in, either programmatically
or from a plain-text file.  The shipped default is Fehlberg's 11-stage
seventh-order formula (the propagating half of his 7(8) pair).

Stepping in decreasing x needs no special casing: a negative step size
falls straight out of y_{i+1} = y_i + h F(x_i, y_i, h) with h < 0, so
reverse trajectories reuse the same kernel, and a sweep's last step is
clamped to land exactly on its end.  A step is a plain loop over the
tableau's nonzero entries.  The xi-ODE's sweep step (:mod:`trapcorr.xi_ode`)
is written out with that loop's operations, and so its roundings.

A declared order p, at most the stage count and ``MAX_ORDER``, is checked by
Butcher's condition b . Phi(t) = 1/gamma(t) for each rooted tree t of order up
to p, the trees built on first use (Hairer, Norsett & Wanner I, II.2).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from operator import mul
from typing import Callable

from ._value import Value
from .errors import ConfigError, IoError

__all__ = [
    "RKTableau", "FEHLBERG7",
    "rk_step", "integrate", "load_tableau", "format_tableau",
    "order_condition_residuals", "empirical_order",
]

Rhs = Callable[[float, float], float]
Step = Callable[[float, float, float], float]

#: largest row-sum defect and order-condition residual :meth:`RKTableau.validate` accepts
VALIDATE_TOL = 1e-10

#: highest declarable order: 1,205 trees through order 10, some 20 million through 20
MAX_ORDER = 10

#: :func:`empirical_order`'s rounding floor (ulps of e)
FLOOR_ULPS = 4.0

#: most characters a tableau file may hold (Fehlberg-7's holds 1,060)
MAX_TABLEAU_CHARS = 2 ** 20


class RKTableau(Value):
    """Coefficients of an explicit Runge-Kutta method of declared order.

    ``a`` holds only the strict lower triangle: row i lists the i
    coefficients multiplying earlier stages.
    """

    name: str
    order: int
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    c: tuple[float, ...]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = len(self.b)
        if len(self.c) != s or len(self.a) != s:
            raise ConfigError(f"tableau '{self.name}': inconsistent stage counts")
        for i, row in enumerate(self.a):
            if len(row) != i:
                raise ConfigError(
                    f"tableau '{self.name}': A row {i + 1} has {len(row)} "
                    f"entries, expected {i}")
        if not 1 <= self.order <= min(s, MAX_ORDER):  # p > s: the tall tree has b A^(p-1) 1 = 0
            raise ConfigError(f"tableau '{self.name}': order {self.order} outside "
                              f"[1, min(stage count {s}, {MAX_ORDER})]")

    @property
    def stages(self) -> int:
        return len(self.b)

    @cached_property
    def nonzero(self) -> tuple[tuple, tuple]:
        """(j, A_ij) per nonzero A entry by row, and (i, b_i) per nonzero b_i."""
        return (tuple(tuple((j, v) for j, v in enumerate(row) if v != 0.0) for row in self.a),
                tuple((i, v) for i, v in enumerate(self.b) if v != 0.0))

    def step(self, rhs: Rhs, x: float, y: float, h: float) -> float:
        """One step of this method over ``rhs`` from (x, y) by h.  Stage i sets k_i =
        rhs(x + c_i h, y + h a_ij k_j + ...), and the step returns y + h (0.0 + b_i k_i + ...),
        each sum left to right over the nonzero entries."""
        rows, weights = self.nonzero
        k = []
        for row, ci in zip(rows, self.c):
            yi = y
            for j, a in row:
                yi += h * a * k[j]
            k.append(rhs(x + ci * h, yi))
        acc = 0.0
        for i, b in weights:
            acc += b * k[i]
        return y + h * acc

    def row_sum_defect(self) -> float:
        """max_i |c_i - sum_j A_ij| (zero for a consistent tableau)."""
        return max(abs(self.c[i] - math.fsum(self.a[i])) for i in range(self.stages))

    def validate(self) -> None:
        # a NaN defect compares false against any bound, so check entries first
        for what, values in (("A", [v for row in self.a for v in row]),
                             ("b", self.b), ("c", self.c)):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"tableau '{self.name}': non-finite entry in {what}")
        for i, ci in enumerate(self.c, 1):  # a node outside [0, 1] puts a stage outside its step
            if not 0.0 <= ci <= 1.0:
                raise ConfigError(f"tableau '{self.name}': node c_{i} = {ci!r} outside [0, 1]")
        defect = self.row_sum_defect()
        if defect > VALIDATE_TOL:
            raise ConfigError(f"tableau '{self.name}': row-sum defect {defect:.3e} "
                              f"exceeds {VALIDATE_TOL:.1e}")
        for order, _, worst in order_condition_residuals(self):
            if worst > VALIDATE_TOL:
                raise ConfigError(f"tableau '{self.name}': order-{order} residual "
                                  f"{worst:.3e} exceeds {VALIDATE_TOL:.1e}")


@lru_cache(maxsize=None)
def _trees(n: int) -> tuple:
    """The rooted trees of order ``n``, each the sorted tuple of its root's subtrees:
    a tree of order k with one more subtree, of order n - k, at its root."""
    return ((),) if n == 1 else tuple(sorted({tuple(sorted(t + (u,))) for k in range(1, n)
                                              for t in _trees(k) for u in _trees(n - k)}))


@lru_cache(maxsize=16)  # one computation per tableau, for validate() and its printout
def order_condition_residuals(t: RKTableau) -> tuple[tuple[int, int, float], ...]:
    """(order, tree count, worst |b . Phi(u) - 1/gamma(u)|) over the trees u of
    each order 1..``t.order``: zero rows for a method of the declared order."""
    rows = (*t.a, t.b)  # b as a last stage's row: its (A Phi(u)) is b . Phi(u)

    @lru_cache(maxsize=None)
    def weights(u):  # -> (A Phi(u) per stage, then b . Phi(u); |u|; gamma(u))
        phi, order, gamma = [1.0] * t.stages, 1, 1  # Phi_i(u): A Phi(v) over subtrees v
        for v in u:
            a_phi, v_order, v_gamma = weights(v)
            phi = list(map(mul, phi, a_phi))
            order, gamma = order + v_order, gamma * v_gamma
        return [math.fsum(map(mul, row, phi)) for row in rows], order, gamma * order

    return tuple((n, len(_trees(n)), max(abs(a_phi[-1] - 1.0 / gamma)
                                         for a_phi, _, gamma in map(weights, _trees(n))))
                 for n in range(1, t.order + 1))


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


def rk_step(step: Step, x: float, y: float, h: float) -> float:
    """Advance ``step(x, y, h)`` by a signed, nonzero ``h`` from (x, y).  A tableau's
    own method over ``rhs`` is ``partial(tableau.step, rhs)``."""
    if h == 0.0:
        raise ConfigError("step size must be nonzero")
    return step(x, y, h)


def integrate(step: Step, x0: float, y0: float, x_end: float, h_mag: float,
              on_node: Rhs | None = None) -> tuple[tuple[float, float], ...]:
    """The (x, y) nodes of fixed steps of magnitude ``h_mag`` by ``step``
    (see :func:`rk_step`) from (x0, y0) toward ``x_end``.

    The step is signed by the direction of travel; the final step is
    clamped to land exactly on ``x_end``.  All nodes including both
    endpoints are returned; ``x_end == x0`` yields the single seed node.

    ``on_node(x, y)``, when given, is called on every new node; its
    return value replaces y there and the sweep continues from it.
    """
    if not (0.0 < h_mag < math.inf and math.isfinite(x0) and math.isfinite(x_end)):
        raise ConfigError(f"need finite ends and 0 < h_mag < inf, got {x0!r}, {x_end!r}, {h_mag!r}")
    if x_end == x0:
        return ((x0, y0),)
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
        y = rk_step(step, x, y, x_next - x)
        if on_node is not None:
            y = on_node(x_next, y)
        nodes.append((x_next, y))
        if last:
            break
        x = x_next
    return tuple(nodes)


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


def load_tableau(path: str) -> RKTableau:
    """Read a tableau file, named by its path, and validate its shape and consistency."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read(MAX_TABLEAU_CHARS + 1)
    except OSError as exc:
        raise IoError(f"cannot read tableau file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"tableau file {path!r}: non-ASCII byte "
                          f"{exc.object[exc.start]:#04x}") from exc
    if len(text) > MAX_TABLEAU_CHARS:
        raise ConfigError(f"tableau file {path!r}: longer than {MAX_TABLEAU_CHARS} characters")
    if not (lines := text.splitlines()):
        raise ConfigError(f"tableau file {path!r} is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ConfigError(f"tableau file {path!r}: first line must be 's p'")
    try:
        s, p = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ConfigError(f"tableau file {path!r}: bad header {lines[0]!r}") from exc
    if s < 0:
        raise ConfigError(f"tableau file {path!r}: negative stage count {s}")
    if len(lines) != 1 + s + 2:
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
    t = RKTableau(name=path, order=p, a=a, b=b, c=c)
    t.validate()
    return t


# ------------------------------------------------------- order experiment

def empirical_order(tableau: RKTableau = FEHLBERG7) -> list[tuple[float, float, float]]:
    """Measure convergence on y' = y over [0, 1] against exp(1).

    Returns (h, error, slope) rows, where slope is log2(err(h)/err(h/2))
    for consecutive step pairs; a slope is NaN when the finer error sits at
    the rounding floor (within ``FLOOR_ULPS`` ulps of the exact endpoint
    value) and no longer reflects truncation.  For declared order p, up to
    five steps halve from the coarsest 0.2 * 2^k with h^p <= 1e-3 while
    h^p >= 1e-10: past the pre-asymptotic range, short of the floor.
    """
    p = tableau.order
    coarsest = 0.2 * 2.0 ** math.floor(math.log2(1e-3 ** (1.0 / p) / 0.2))
    steps = [h for h in (coarsest / 2 ** k for k in range(5)) if h ** p >= 1e-10]
    step = partial(tableau.step, lambda x, y: y)
    errs = [abs(integrate(step, 0.0, 1.0, 1.0, h)[-1][1] - math.e) for h in steps]
    floor = FLOOR_ULPS * math.ulp(math.e)
    return [(h, err, math.log2(err / finer) if finer > floor else math.nan)
            for h, err, finer in zip(steps, errs, errs[1:] + [0.0])]
