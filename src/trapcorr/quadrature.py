"""Trapezium quadrature with a variable upper limit, plus a high-accuracy
reference integral used to bootstrap and audit the corrected pipeline.

The reference oracle is Richardson extrapolation over composite-trapezium
rows at doubling panel counts (a Romberg table), terminating when two
successive diagonal entries agree within the requested tolerance.  It
gives up sooner than its budget once the table overflows or has stalled
(Davis & Rabinowitz, *Methods of Numerical Integration*): when the
error estimate sits at its round-off floor, so the tolerance is out of
reach in double precision, or when the largest sample keeps growing as
the panels shrink, as at a pole inside the interval.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import accumulate, compress
from math import inf, ulp
from operator import add, itemgetter, not_
from typing import NamedTuple

from .errors import ConfigError, ToleranceError, TrapcorrError
from .expr import ExprAST, eval_value, eval_values

__all__ = ["ReferenceResult", "trapezium", "composite_trapezium", "reference_integral"]

DEFAULT_MAX_EVALS = 2 ** 22

#: levels in a row that fail to halve the error estimate before the table
#: counts as stalled; an under-resolved oscillation can stall for a dozen,
#: so a stall ends the loop only with one of the two signs below
PLATEAU_LEVELS = 3
#: a stalled error estimate below this fraction of max(1, |integral|)
#: sits at the round-off floor
ROUNDOFF = 64 * sys.float_info.epsilon
#: panels before a growing largest sample counts as a pole: a bump about
#: 1/5000 of the interval wide is resolved by then, a narrower one may not be
DIVERGENCE_PANELS = 2 ** 14
#: a column panel's tolerance is at least this many ulp of its trapezium value
FLOOR_ULPS = 16


class ReferenceResult(NamedTuple):
    """Reference integral with its internal error estimate.

    ``panels`` counts integrand evaluations spent on the estimate.
    """

    value: float
    est_error: float
    panels: int


def trapezium(f: ExprAST, a: float, x: float) -> float:
    """One-panel trapezium value (x-a)/2 * (f(a) + f(x))."""
    return 0.5 * (x - a) * (eval_value(f, a) + eval_value(f, x))


def composite_trapezium(f: ExprAST, a: float, b: float, n: int) -> float:
    """Composite trapezium sum on ``n`` uniform panels over [a, b]."""
    if n < 1:
        raise ConfigError(f"panel count must be >= 1, got {n}")
    if b < a:
        raise ConfigError(f"reversed limits: a={a!r} > b={b!r}")
    if b == a:
        return 0.0
    h = (b - a) / n
    total = 0.5 * (eval_value(f, a) + eval_value(f, b))
    for i in range(1, n):
        total += eval_value(f, a + i * h)
    return h * total


def reference_integral(f: ExprAST, a: float, x: float, tol: float) -> ReferenceResult:
    """Integral of ``f`` over [a, x] to absolute tolerance ``tol``.

    Deterministic for fixed inputs.  Raises :class:`ToleranceError` when
    ``tol`` is not reached within ``DEFAULT_MAX_EVALS`` evaluations, or
    sooner, when the table overflows, stalls at its round-off floor or the
    integral looks divergent; and :class:`ConfigError` for a tolerance that
    is not positive (NaN included) or reversed limits.
    """
    if not tol > 0.0:  # NaN too
        raise ConfigError(f"tolerance must be positive, got {tol!r}")
    if x < a:
        raise ConfigError(f"reversed limits: a={a!r} > x={x!r}")
    if x == a:
        return ReferenceResult(0.0, 0.0, 0)
    return ReferenceResult(*romberg(f, [a, x], [eval_value(f, a), eval_value(f, x)], [tol])[0])


def reference_column(f: ExprAST, nodes: list[float], values: list[float], tol: float) -> list:
    """Integrals of ``f`` from ``nodes[0]`` to each later node, given ``values[i]`` =
    f(nodes[i]): running sums of one Romberg integral per panel between adjacent nodes,
    each to its width's share of ``tol`` or, if more, ``FLOOR_ULPS`` ulp of its trapezium
    value, its table's round-off.  The column is within the sum of those."""
    span = nodes[-1] - nodes[0]
    traps = [0.5 * (x - p) * (fa + fb)
             for p, x, fa, fb in zip(nodes, nodes[1:], values, values[1:])]
    tols = [u if (u := FLOOR_ULPS * ulp(t)) > (s := tol * (x - p) / span) else s
            for p, x, t in zip(nodes, nodes[1:], traps)]  # max(s, u)
    results = romberg(f, nodes, values, tols, traps)  # which starts its tables from traps
    return [*accumulate(map(itemgetter(0), results), initial=0.0)][1:]


def romberg(f: ExprAST, nodes: list[float], values: list[float], tols: list[float],
            traps: list[float] | None = None) -> list[tuple[float, float, int]]:
    """The (value, est_error, panels) of :class:`ReferenceResult` for each panel
    [nodes[i], nodes[i+1]] to tolerance ``tols[i]`` (``nodes`` strictly ascending, ``values[i]``
    = f(nodes[i]), ``traps[i]`` its trapezium value if the caller has it), as if integrated
    one after another, errors included.  Most tables end in
    the head, the first ``PLATEAU_LEVELS`` levels, where only agreement can stop them (after
    level k at most k - 1 levels have failed to halve the estimate).  There, while the open
    panels outnumber a level's midpoints per panel, a level's midpoints are one list and each
    table column one list over the panels.  The rest start over in the scalar loop, one by one."""
    plateau, budget, results = PLATEAU_LEVELS, DEFAULT_MAX_EVALS, [None] * len(tols)
    # the open panels, ascending: their indices, starts, widths, tolerances and last rows
    at, a, h, tol = [*range(len(tols))], nodes[:-1], [x - p for p, x in zip(nodes, nodes[1:])], tols
    traps = traps or [0.5 * w * (fa + fx) for w, fa, fx in zip(h, values, values[1:])]
    row = [traps]  # read, never written: the scalar loop below starts from it too
    k, n, evals = 0, 1, 2
    while k < plateau and n < len(at) and evals + n <= budget:  # next level adds n each
        k, n, evals = k + 1, 2 * n, evals + n
        h, odd = [0.5 * w for w in h], range(1, n, 2)
        try:  # midpoint j of every panel, then midpoint j + 2
            vals = eval_values(f, [p + j * w for j in odd for p, w in zip(a, h)])
        except TrapcorrError:  # the open panels go on one at a time, and the first to fail raises
            break
        sums = vals[:len(at)]  # summed from 0.0 below, as the scalar loop sums
        for s in range(len(at), len(vals), len(at)):
            sums = [*map(add, sums, vals[s:s + len(at)])]
        prev, row = row, [[0.5 * t + w * (0.0 + s) for t, w, s in zip(row[0], h, sums)]]
        for j in range(1, k + 1):  # Richardson's divisors, 4^j - 1
            d = 4.0 ** j - 1.0
            row.append([r + (r - q) / d for r, q in zip(row[j - 1], prev[j - 1])])
        # a first diagonal agreement can be accidental
        done = [abs(r - q) <= t for r, q, t in zip(row[k], prev[k - 1], tol)] if k > 1 else []
        if any(done):
            for i, r, q in compress(zip(at, row[k], prev[k - 1]), done):
                results[i] = (r, abs(r - q), evals)
            keep = [*map(not_, done)]
            at, a, h, tol = ([*compress(c, keep)] for c in (at, a, h, tol))
            row = [[*compress(c, keep)] for c in row]
    for i in at:  # one after another, from level 1: the scalar loop
        p, w, fa, fx = nodes[i], nodes[i + 1] - nodes[i], values[i], values[i + 1]
        prev, peaks, k, n, evals = [traps[i]], [max(abs(fa), abs(fx))], 0, 1, 2
        best, best_est, stall_from, stalled = prev[0], inf, inf, 0
        while evals + n <= budget:  # next level adds n midpoints
            k, n, evals, w = k + 1, 2 * n, evals + n, 0.5 * w
            mids = eval_values(f, [p + j * w for j in range(1, n, 2)])
            peaks.append(max(peaks[-1], *map(abs, mids)))  # the largest |f| through level k
            row = [0.5 * prev[0] + w * reduce(add, mids, 0.0)]
            for j in range(1, k + 1):
                row.append(row[j - 1] + (row[j - 1] - prev[j - 1]) / (4.0 ** j - 1.0))
            est, prev = abs(row[k] - prev[k - 1]), row
            if not est < inf:  # NaN too: past the largest double, no test below ends the table
                raise ToleranceError(f"the Romberg table overflowed at level {k}", best, best_est)
            if k < 2:  # a first diagonal agreement can be accidental
                continue
            if est <= tols[i]:
                results[i] = (row[k], est, evals)
                break
            if est < best_est:
                best, best_est = row[k], est
            # progress: the estimate at least halved
            stall_from, stalled = (est, 0) if est <= 0.5 * stall_from else (stall_from, stalled + 1)
            if stalled < plateau:
                continue
            if best_est <= ROUNDOFF * max(1.0, abs(best)):
                why = (f"tolerance {tols[i]!r} not reached: the error estimate stalled at its "
                       f"round-off floor, {best_est:.3g}")
            # a bounded integrand's largest sample levels off once the panels resolve it;
            # next to a pole it grows as they close in
            elif n >= DIVERGENCE_PANELS and peaks[k] >= 2.0 * peaks[k - plateau]:
                why = (f"integral looks divergent: the largest |f| sampled grew to "
                       f"{peaks[k]:.3g} while the error estimate stalled at {best_est:.3g}")
            else:
                continue
            raise ToleranceError(why, best_estimate=best, achieved=best_est)
        else:
            raise ToleranceError(f"tolerance {tols[i]!r} not reached within {budget} evaluations",
                                 best_estimate=best, achieved=best_est)
    return results
