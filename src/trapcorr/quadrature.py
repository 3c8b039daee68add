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
from typing import NamedTuple

from .errors import ConfigError, ToleranceError
from .expr import ExprAST, eval_value

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

#: Richardson divisors 4^j - 1 by column j; level k costs 2^(k-1)
#: evaluations, so no table reaches column 64
_DIVISORS = tuple(4.0 ** j - 1.0 for j in range(64))


class ReferenceResult(NamedTuple):
    """Reference integral with its internal error estimate.

    ``panels`` counts integrand evaluations spent on the estimate.
    """

    value: float
    est_error: float
    panels: int


def trapezium(f: ExprAST, a: float, x: float, f_a: float | None = None) -> float:
    """One-panel trapezium value (x-a)/2 * (f(a) + f(x)); ``f_a``, if given, is f(a)."""
    return 0.5 * (x - a) * ((eval_value(f, a) if f_a is None else f_a) + eval_value(f, x))


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

    h = x - a
    fa, fx = eval_value(f, a), eval_value(f, x)
    prev_row = [0.5 * h * (fa + fx)]
    evals = 2
    n = 1
    best = prev_row[0]
    best_est = stall_from = float("inf")
    peaks = [max(abs(fa), abs(fx))]  # largest |f| sampled, per level
    stalled = 0
    k = 0
    while evals + n <= DEFAULT_MAX_EVALS:  # next refinement adds n midpoints
        k += 1
        n *= 2
        h *= 0.5
        mid_sum = 0.0
        peak = peaks[-1]
        for i in range(1, n // 2 + 1):
            v = eval_value(f, a + (2 * i - 1) * h)
            mid_sum += v
            if abs(v) > peak:  # max(peak, abs(v)) without the call
                peak = abs(v)
        peaks.append(peak)
        evals += n // 2
        row = [0.5 * prev_row[0] + h * mid_sum]
        for j in range(1, k + 1):
            row.append(row[j - 1] + (row[j - 1] - prev_row[j - 1]) / _DIVISORS[j])
        # first diagonal agreement can be accidental; require two levels
        if k >= 2:
            est = abs(row[k] - prev_row[k - 1])
            if est <= tol:
                return ReferenceResult(row[k], est, evals)
            if est < best_est:
                best, best_est = row[k], est
            if est <= 0.5 * stall_from:  # progress: the estimate at least halved
                stall_from, stalled = est, 0
            else:
                stalled += 1
            if stalled >= PLATEAU_LEVELS:
                if best_est <= ROUNDOFF * max(1.0, abs(best)):
                    raise ToleranceError(
                        f"tolerance {tol!r} not reached: the error estimate stalled at "
                        f"its round-off floor, {best_est:.3g}",
                        best_estimate=best, achieved=best_est)
                # a bounded integrand's largest sample levels off once the
                # panels resolve it; next to a pole it grows as they close in
                if n >= DIVERGENCE_PANELS and peak >= 2.0 * peaks[k - PLATEAU_LEVELS]:
                    raise ToleranceError(
                        f"integral looks divergent: the largest |f| sampled grew to "
                        f"{peak:.3g} while the error estimate stalled at {best_est:.3g}",
                        best_estimate=best, achieved=best_est)
        prev_row = row
    raise ToleranceError(
        f"tolerance {tol!r} not reached within {DEFAULT_MAX_EVALS} evaluations",
        best_estimate=best, achieved=best_est)
