"""Independent oracle for F(x) = integral_a^x f, and the row checker.

The oracle shares no code with trapcorr: the sin and square families use
their closed forms, the exotic family a fixed 8-point Gauss-Legendre rule
per panel between consecutive output abscissae, all in mpmath at 30
significant digits.  Panels are at most 0.05 wide, so the rule's error
is far below double precision.
"""

from __future__ import annotations

import math

from mpmath import mp

mp.dps = 30
_NODES, _WEIGHTS = (list(v) for v in mp.gauss_quadrature(8, "legendre"))

#: widest panel the Gauss-Legendre rule is trusted with
MAX_PANEL = 0.05


def _exotic(c, m):
    c, m = mp.mpf(c), mp.mpf(m)
    return lambda x: x * x * (mp.sin(x) * mp.log(c + x) - m * x)


def _gauss(f, lo, hi):
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    return half * mp.fsum(w * f(mid + half * t) for t, w in zip(_NODES, _WEIGHTS))


def integrals(problem: dict, xs: list[float]) -> list:
    """F(x) for each x of the ascending list ``xs`` (all >= a), as mpf."""
    a = mp.mpf(problem["a"])
    family = problem["family"]
    if family == "sin":
        k, p = mp.mpf(problem["k"]), mp.mpf(problem["p"])
        fa = mp.cos(k * a + p)
        return [(fa - mp.cos(k * mp.mpf(x) + p)) / k for x in xs]
    if family == "square":
        return [(mp.mpf(x) ** 3 - a ** 3) / 3 for x in xs]
    if family == "exotic":
        f = _exotic(problem["c"], problem["m"])
        out, acc, prev = [], mp.mpf(0), a
        for x in xs:
            x = mp.mpf(x)
            pieces = max(1, math.ceil(float(x - prev) / MAX_PANEL))
            step = (x - prev) / pieces
            for i in range(pieces):
                acc += _gauss(f, prev + i * step, prev + (i + 1) * step)
            out.append(acc)
            prev = x
        return out
    raise ValueError(f"no oracle for family {family!r}")


def check(problem: dict, xs: list[float], corrected: list[float],
          bound: float) -> tuple[float, str | None]:
    """Worst relative error |corrected - F| / max(1, |F|) over the rows,
    and a reason the output is wrong, or None.

    The rows must start at a, end at b, and rise by at most h at a time.
    """
    if not xs or len(xs) != len(corrected):
        return math.inf, "empty or ragged output"
    if xs[0] != problem["a"] or xs[-1] != problem["b"]:
        return math.inf, f"rows span [{xs[0]!r}, {xs[-1]!r}], not [a, b]"
    h = problem["h"]
    for lo, hi in zip(xs, xs[1:]):
        if not 0.0 < hi - lo <= h * (1.0 + 1e-6):
            return math.inf, f"bad step from x={lo!r} to x={hi!r}"
    worst, at = 0.0, None
    for x, got, exact in zip(xs, corrected, integrals(problem, xs)):
        if not math.isfinite(got):
            return math.inf, f"non-finite corrected value at x={x!r}"
        err = float(abs(mp.mpf(got) - exact) / max(1, abs(exact)))
        if err > worst:
            worst, at = err, x
    if worst > bound:
        return worst, f"error {worst:.3g} at x={at!r} exceeds the check bound {bound:g}"
    return worst, None
