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
so the shift is exactly reversible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, SingularDenominatorError
from .expr import ExprAST, eval_jet, shift_by_cubic

__all__ = [
    "XiProblem", "xi_rhs", "error_term", "shifted_problem",
    "cubic_correction", "unshift_error", "suggest_shift",
]

#: |denominator| guard threshold scale: singular below eps * (1 + |x-a|^3)
DEFAULT_DEN_GUARD = 1e-8

#: numerator coefficient on f(x); any other value breaks the identity
F_COEFFICIENT = -6.0


@dataclass(frozen=True)
class XiProblem:
    """Integrand, lower limit, and ODE configuration.

    With a nonzero ``shift`` every derivative and error term below refers
    to the shifted integrand g = f + shift*x^3/6; callers recover f's
    error curve through :func:`unshift_error`.
    """

    integrand: ExprAST
    a: float
    shift: float = 0.0
    den_guard: float = DEFAULT_DEN_GUARD
    f_coefficient: float = F_COEFFICIENT

    def __post_init__(self):
        if not 0.0 < self.den_guard < math.inf:
            raise DomainError(
                f"denominator guard must be positive and finite, got {self.den_guard!r}")
        g = shift_by_cubic(self.integrand, self.shift)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_ga", eval_jet(g, self.a).d0)

    @property
    def g(self) -> ExprAST:
        """The integrand actually differentiated (shifted when shift != 0)."""
        return self._g

    @property
    def g_at_a(self) -> float:
        return self._ga


def xi_rhs(p: XiProblem, x: float, xi: float) -> float:
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
    if abs(den) < p.den_guard * (1.0 + abs(t) ** 3):
        raise SingularDenominatorError(x, xi, den)
    num = (p.f_coefficient * at_x.d0 + 6.0 * p.g_at_a
           + 6.0 * t * at_x.d1 - 3.0 * t * t * at_xi.d2)
    return num / den


def error_term(p: XiProblem, x: float, xi: float) -> float:
    """Trapezium error term -(x-a)^3/12 * g''(xi).

    Adding this to the one-panel trapezium value reproduces the integral
    of g exactly when xi is the true mean-value point.
    """
    if x == p.a:
        return 0.0
    return -((x - p.a) ** 3) / 12.0 * eval_jet(p.g, xi).d2


def shifted_problem(p: XiProblem, shift: float) -> XiProblem:
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


_SHIFT_CANDIDATES = (1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)


def suggest_shift(f: ExprAST, lo: float, hi: float, samples: int = 1001,
                  clearance: float = 0.5) -> float | None:
    """Smallest-magnitude shift from {+-1, +-2, +-5, +-10} keeping
    |f''' + D| above ``clearance`` on a dense sample of [lo, hi].

    Returns None when no candidate clears the bar (or the integrand is
    not evaluable over the range).
    """
    third = []
    for i in range(samples):
        t = lo + (hi - lo) * i / (samples - 1)
        try:
            third.append(eval_jet(f, t).d3)
        except DomainError:
            return None
    for d in _SHIFT_CANDIDATES:
        if min(abs(v + d) for v in third) > clearance:
            return d
    return None
