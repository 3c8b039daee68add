"""Property-check helpers shared between module tests and the acceptance
suite.  Each returns a (worst, detail) pair so callers can assert with a
useful message."""

import math
import random

from trapcorr import ConfigError, ReferenceResult, ToleranceError, quadrature
from trapcorr import eval_jet, eval_value, parse, reference_integral

# safe evaluation domains per grammar function
FD_DOMAINS = {
    "sin(x)": (-10.0, 10.0),
    "cos(x)": (-10.0, 10.0),
    "tan(x)": (-1.0, 1.0),
    "exp(x)": (-3.0, 3.0),
    "ln(x)": (0.5, 10.0),
    "log10(x)": (0.5, 10.0),
    "sqrt(x)": (0.5, 10.0),
}

# steps tuned per derivative order for the 4th-order stencils below
FD_STEPS = {1: 1e-3, 2: 2e-3, 3: 5e-3}


def fd_derivative(f, k: int, x: float) -> float:
    """4th-order central difference estimate of the k-th derivative."""
    h = FD_STEPS[k]
    if k == 1:
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
    if k == 2:
        return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
                - f(x - 2 * h)) / (12 * h * h)
    return (-f(x + 3 * h) + 8 * f(x + 2 * h) - 13 * f(x + h) + 13 * f(x - h)
            - 8 * f(x - 2 * h) + f(x - 3 * h)) / (8 * h ** 3)


def worst_jet_fd_deviation(text: str, lo: float, hi: float, n: int = 1000,
                           seed: int = 20240817):
    """Largest |jet_k - fd_k| / scale over n random points, where scale
    is the jet's own magnitude floored at 1."""
    ast = parse(text)
    rng = random.Random(seed)
    pad = 3 * FD_STEPS[3]
    worst = 0.0
    where = None

    def f(t):
        return eval_value(ast, t)

    for _ in range(n):
        x = rng.uniform(lo + pad, hi - pad)
        jet = eval_jet(ast, x)
        scale = max(1.0, abs(jet.d0), abs(jet.d1), abs(jet.d2), abs(jet.d3))
        for k, got in ((1, jet.d1), (2, jet.d2), (3, jet.d3)):
            dev = abs(fd_derivative(f, k, x) - got) / scale
            if dev > worst:
                worst, where = dev, (x, k)
    return worst, where


def worst_additivity_defect(text: str, lo: float, hi: float, tol: float = 1e-12,
                            trials: int = 25, seed: int = 7):
    """Largest |I(a,c) + I(c,b) - I(a,b)| over random a < c < b."""
    ast = parse(text)
    rng = random.Random(seed)
    worst = 0.0
    where = None
    for _ in range(trials):
        a, c, b = sorted(rng.uniform(lo, hi) for _ in range(3))
        if b - a < 1e-3:
            continue
        whole = reference_integral(ast, a, b, tol).value
        split = (reference_integral(ast, a, c, tol).value
                 + reference_integral(ast, c, b, tol).value)
        defect = abs(split - whole)
        if defect > worst:
            worst, where = defect, (a, c, b)
    return worst, where


def composite_loglog_slope(errors_by_n) -> float:
    """Least-squares slope of log(error) against log(n)."""
    pts = [(math.log(n), math.log(e)) for n, e in errors_by_n if e > 0.0]
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    num = sum((px - mx) * (py - my) for px, py in pts)
    den = sum((px - mx) ** 2 for px, py in pts)
    return num / den


def scalar_reference_integral(f, a: float, x: float, tol: float) -> ReferenceResult:
    """One panel's Romberg table advanced by a scalar loop: the reference
    that ``quadrature.romberg`` must match bit for bit, value, estimate,
    evaluation count and error alike.  Reads the stop-rule constants from
    ``quadrature`` when called, so a test's patch of them applies to both."""
    q = quadrature
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
    while evals + n <= q.DEFAULT_MAX_EVALS:  # next refinement adds n midpoints
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
            row.append(row[j - 1] + (row[j - 1] - prev_row[j - 1]) / (4.0 ** j - 1.0))
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
            if stalled >= q.PLATEAU_LEVELS:
                if best_est <= q.ROUNDOFF * max(1.0, abs(best)):
                    raise ToleranceError(
                        f"tolerance {tol!r} not reached: the error estimate stalled at "
                        f"its round-off floor, {best_est:.3g}",
                        best_estimate=best, achieved=best_est)
                # a bounded integrand's largest sample levels off once the
                # panels resolve it; next to a pole it grows as they close in
                if n >= q.DIVERGENCE_PANELS and peak >= 2.0 * peaks[k - q.PLATEAU_LEVELS]:
                    raise ToleranceError(
                        f"integral looks divergent: the largest |f| sampled grew to "
                        f"{peak:.3g} while the error estimate stalled at {best_est:.3g}",
                        best_estimate=best, achieved=best_est)
        prev_row = row
    raise ToleranceError(
        f"tolerance {tol!r} not reached within {q.DEFAULT_MAX_EVALS} evaluations",
        best_estimate=best, achieved=best_est)
