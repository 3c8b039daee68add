"""Right-hand side of the mean-value-point ODE and the cubic-shift
transform that keeps its denominator away from zero.

Differentiating the identity

    integral_a^x f  =  (x-a)/2 * (f(a) + f(x))  -  (x-a)^3/12 * f''(xi(x))

with respect to x and solving for xi'(x) gives

    xi' = [-6 f(x) + 6 f(a) + 6 (x-a) f'(x) - 3 (x-a)^2 f''(xi)]
          / [(x-a)^3 f'''(xi)].

The -6 coefficient on f(x) is fixed by that derivation and is gated by a
residual test on the identity itself (see the pipeline test suite); the
coefficient is exposed as a field so tests can demonstrate that a wrong
value destroys the residual.

When f''' comes close to zero the denominator degenerates.  Working with
g = f + D*x^3/6 instead moves the third derivative to f''' + D, and the
difference between the two error curves is a closed-form cubic quantity,
so the shift is exactly reversible.  Every function here takes the problem
as a :class:`~trapcorr.pipeline.ProblemSpec`, which builds g and g(a) once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import DomainError, SingularDenominatorError
from .expr import ExprAST, eval_jet

if TYPE_CHECKING:
    from .pipeline import ProblemSpec

__all__ = [
    "xi_rhs", "error_term", "shifted_problem",
    "cubic_correction", "unshift_error", "suggest_shift",
]

#: |denominator| guard threshold scale: singular below eps * (1 + |x-a|^3)
DEFAULT_DEN_GUARD = 1e-8

#: numerator coefficient on f(x); any other value breaks the identity
F_COEFFICIENT = -6.0


def xi_rhs(p: ProblemSpec, x: float, xi: float) -> float:
    """Slope of the mean-value point xi at (x, xi).

    Requires x != a (the defining identity is 0 = 0 there) and a
    denominator above the guard threshold; raises
    :class:`SingularDenominatorError` otherwise.
    """
    if x == p.a:
        raise ValueError("xi_rhs is undefined at x == a")
    t = x - p.a
    at_x = eval_jet(p.g, x)
    at_xi = eval_jet(p.g, xi)
    den = t ** 3 * at_xi.d3
    if abs(den) < DEFAULT_DEN_GUARD * (1.0 + abs(t) ** 3):
        raise SingularDenominatorError(x, xi, den)
    num = (p.f_coefficient * at_x.d0 + 6.0 * p.g_at_a
           + 6.0 * t * at_x.d1 - 3.0 * t * t * at_xi.d2)
    return num / den


def error_term(p: ProblemSpec, x: float, xi: float) -> float:
    """Trapezium error term -(x-a)^3/12 * g''(xi).

    Adding this to the one-panel trapezium value reproduces the integral
    of g exactly when xi is the true mean-value point.
    """
    if x == p.a:
        return 0.0
    return -((x - p.a) ** 3) / 12.0 * eval_jet(p.g, xi).d2


def shifted_problem(p: ProblemSpec, shift: float) -> ProblemSpec:
    """Same problem with the cubic shift constant replaced by ``shift``."""
    return p if shift == p.shift else replace(p, shift=shift)


def cubic_correction(d: float, a: float, x: float) -> float:
    """Exact error term of the trapezium rule on the shift cubic d*t^3/6:

        integral_a^x d t^3/6 dt - (x-a)/2 * (d a^3/6 + d x^3/6)
        = d (x^4 - a^4)/24 - d (x-a)(a^3 + x^3)/12
    """
    if d == 0.0:
        return 0.0
    return d * (x ** 4 - a ** 4) / 24.0 - d * (x - a) * (a ** 3 + x ** 3) / 12.0


def unshift_error(shifted_error: float, d: float, a: float, x: float) -> float:
    """Error term of f given the error term of g = f + d*x^3/6 at the
    same limits."""
    if d == 0.0:
        return shifted_error
    return shifted_error - cubic_correction(d, a, x)


#: :func:`suggest_shift`'s candidates, sample count and clearance
_SHIFT_CANDIDATES = (1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)
SHIFT_SAMPLES = 1001
SHIFT_CLEARANCE = 0.5


def suggest_shift(f: ExprAST, lo: float, hi: float) -> float | None:
    """Smallest-magnitude shift from {+-1, +-2, +-5, +-10} keeping
    |f''' + D| above ``SHIFT_CLEARANCE`` on ``SHIFT_SAMPLES`` uniform
    points of [lo, hi].

    Returns None when no candidate clears the bar (or the integrand is
    not evaluable over the range).
    """
    third = []
    for i in range(SHIFT_SAMPLES):
        t = lo + (hi - lo) * i / (SHIFT_SAMPLES - 1)
        try:
            third.append(eval_jet(f, t).d3)
        except DomainError:
            return None
    for d in _SHIFT_CANDIDATES:
        if min(abs(v + d) for v in third) > SHIFT_CLEARANCE:
            return d
    return None
