"""Trapezium quadrature with a variable upper limit, plus a high-accuracy
reference integral used to bootstrap and audit the corrected pipeline.

The reference oracle is Richardson extrapolation over composite-trapezium
rows at doubling panel counts (a Romberg table), terminating when two
successive diagonal entries agree within the requested tolerance.  It
gives up sooner than its evaluation budget once the table has stalled
(Davis & Rabinowitz, *Methods of Numerical Integration*): when the
error estimate sits at its round-off floor, so the tolerance is out of
reach in double precision, or when the largest sample keeps growing as
the panels shrink, as at a pole inside the interval.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from itertools import accumulate, compress, count
from math import inf, ulp
from operator import not_
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
    sooner, when the table stalls at its round-off floor or the integral
    looks divergent; and :class:`ConfigError` for a non-positive tolerance or
    reversed limits.
    """
    if tol <= 0.0:
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
    tols = [max(tol * (x - p) / span, FLOOR_ULPS * ulp(0.5 * (x - p) * (fp + fx)))
            for p, x, fp, fx in zip(nodes, nodes[1:], values, values[1:])]
    return list(accumulate((r[0] for r in romberg(f, nodes, values, tols)), initial=0.0))[1:]


def romberg(f: ExprAST, nodes: list[float], values: list[float],
            tols: list[float]) -> list[tuple[float, float, int]]:
    """The (value, est_error, panels) of :class:`ReferenceResult` for each panel
    [nodes[i], nodes[i+1]] to tolerance ``tols[i]`` (``nodes`` strictly ascending, ``values[i]``
    = f(nodes[i])), as if integrated one after another, errors included.  The tables advance
    together, level by level, each column and stop state one list over the open panels.  Most
    end in the head, the first ``PLATEAU_LEVELS`` levels, where no stop rule can fire (after
    level k at most k - 1 levels have failed to halve the estimate): its levels join the stop
    state after it, and the midpoints of each of its levels are one flat list."""
    # the open panels, ascending, their starts and their widths
    at, a, h = list(range(len(tols))), nodes[:-1], [x - p for p, x in zip(nodes, nodes[1:])]
    row = [[0.5 * w * (fa + fx) for w, fa, fx in zip(h, values, values[1:])]]
    # the stop state: (estimate, value) at the least estimate, (estimate, levels since) at the
    # last halving, and the largest |f| sampled through the last PLATEAU_LEVELS + 1 levels
    best, stall, peaks = [*zip([inf] * len(h), row[0])], [(inf, 0)] * len(h), []
    diags, seen = [], [[values[:-1], values[1:]]]  # of the levels not yet in the stop state
    results, failure, k, n, evals = [None] * len(tols), None, 0, 1, 2
    while at and evals + n <= DEFAULT_MAX_EVALS:  # next refinement adds n midpoints
        k, n, evals = k + 1, 2 * n, evals + n
        h = [0.5 * w for w in h]
        m, odd, sums = n // 2, range(1, n, 2), None
        if k <= PLATEAU_LEVELS and m < len(at):  # in the head, with more panels than midpoints
            with suppress(TrapcorrError):  # a value fails: the loop below finds its panel
                vals = eval_values(f, [left + j * w for left, w in zip(a, h) for j in odd])
                cols, sums = [vals[i::m] for i in range(m)], [0.0] * len(at)  # midpoint i of each
                for col in cols:
                    sums = [s + v for s, v in zip(sums, col)]
        if sums is None:  # fold each panel's values as they come, and keep its largest |f|
            sums, cols = [], [[]]
            try:
                for left, w in zip(a, h):
                    s = top = 0.0
                    for j in odd:
                        v = eval_value(f, left + j * w)
                        s += v
                        if abs(v) > top:  # max(top, abs(v)) without the call
                            top = abs(v)
                    sums.append(s)
                    cols[0].append(top)
            except TrapcorrError as exc:
                failure = exc  # the panels after this one no longer matter
        prev, row = row, [[0.5 * t + w * s for t, w, s in zip(row[0], h, sums)]]
        for j, d in ((j, 4.0 ** j - 1.0) for j in range(1, k + 1)):  # Richardson's divisors
            row.append([r + (r - q) / d for r, q in zip(row[j - 1], prev[j - 1])])
        diags.append(row[k])
        seen.append(cols)
        # a first diagonal agreement can be accidental
        keep = [k < 2 or not abs(r - q) <= tols[i] for i, r, q in zip(at, row[k], prev[k - 1])]
        for i, r, q in compress(zip(at, row[k], prev[k - 1]), map(not_, keep)):
            results[i] = (r, abs(r - q), evals)
        if k > PLATEAU_LEVELS or evals + n > DEFAULT_MAX_EVALS:  # or at the last level
            for q, r in zip(diags, diags[1:]):
                est = [abs(x - y) for x, y in zip(r, q)]
                best = [(e, x) if e < b[0] else b for x, e, b in zip(r, est, best)]
                stall = [(e, 0) if e <= 0.5 * s else (s, c + 1) for e, (s, c) in zip(est, stall)]
            for level in seen:
                top = [max(map(abs, v)) for v in zip(*peaks[-1:], *level)]
                peaks = peaks[-PLATEAU_LEVELS:] + [top]
            diags, seen = diags[-1:], []
            stalled = [ok and s[1] >= PLATEAU_LEVELS for ok, s in zip(keep, stall)]
            for p in compress(count(), stalled):
                (best_est, value), peak = best[p], peaks[-1][p]
                if best_est <= ROUNDOFF * max(1.0, abs(value)):
                    why = (f"tolerance {tols[at[p]]!r} not reached: the error estimate stalled "
                           f"at its round-off floor, {best_est:.3g}")
                elif n >= DIVERGENCE_PANELS and peak >= 2.0 * peaks[0][p]:
                    why = (f"integral looks divergent: the largest |f| sampled grew to "
                           f"{peak:.3g} while the error estimate stalled at {best_est:.3g}")
                else:
                    continue
                failure = ToleranceError(why, best_estimate=value, achieved=best_est)
                del keep[p:]  # the panels after this one no longer matter
                break
        if not any(keep):
            at = []
        elif len(keep) < len(at) or not all(keep):
            at, a, h, best, stall = ([*compress(c, keep)] for c in (at, a, h, best, stall))
            row, diags, peaks = ([[*compress(c, keep)] for c in t] for t in (row, diags, peaks))
            seen = [[[*compress(c, keep)] for c in level] for level in seen]
    if at:  # out of budget: the first open panel fails first
        failure = ToleranceError(f"tolerance {tols[at[0]]!r} not reached within "
                                 f"{DEFAULT_MAX_EVALS} evaluations", best[0][1], best[0][0])
    if failure:
        raise failure
    return results
