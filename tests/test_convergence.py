"""How the corrected value converges as h shrinks, and the floor it settles on.

The README's error model: along an exact solution of the xi-ODE, corrected(x) minus the
integral over [a, x] stays constant, so every node carries the bootstrap's error, at most
ref_tol + root_tol (the reference integral's tolerance plus the bound on the root's residual,
both in the integral's units).  Each step adds its truncation error and its rounding of xi: at
most one ulp of xi, times the identity's sensitivity (x - a)^3 / 12 |g'''(xi)|.
"""

import math

import pytest

from trapcorr import ProblemSpec, run

from conftest import sin_spec


def _worst_error(spec: ProblemSpec, antiderivative) -> tuple[float, int]:
    """The worst |corrected - exact| over a run's rows, and the steps its two sweeps took."""
    rows = run(spec).rows  # {a}, then the nodes from a + h to b, x0 once
    exact = [antiderivative(r.x) - antiderivative(spec.a) for r in rows]
    return max(abs(r.corrected - e) for r, e in zip(rows, exact)), len(rows) - 2


def _sin(x):
    return -math.cos(x)


def _exp_cos(x):
    return 0.9 * math.exp(x / 3.0) * (math.cos(x) / 3.0 + math.sin(x))


def _kink(x):
    return math.copysign(abs(x) ** 3.5, x) / 3.5


@pytest.mark.parametrize("text, a, b, x0, hs, antiderivative", [
    # 5.84e-9, 1.35e-10, 3.34e-12, 7.95e-14: orders 5.43, 5.34 and 5.39, the worst node the
    # reverse sweep's last, a + h, down to h = 0.08.  From the midpoint the first halving
    # reads 7.0 (Fehlberg-7's order), then 5.48 and 5.17
    pytest.param("sin(x)", 1.0, 10.0, 5.0, (0.32, 0.16, 0.08, 0.04), _sin, id="sin"),
    # 211, 3.67, 1.71, 6.9e-4: g''' changes sign between stages and no step fails
    pytest.param("exp(x/3)*cos(x)", 1.0, 10.0, None, (0.08, 0.04, 0.02, 0.01), _exp_cos,
                 id="exp-cos", marks=pytest.mark.xfail(
                     strict=True, reason="ROADMAP items 2 and 3: a sign change of g''' "
                                         "between stages passes unflagged")),
    # 9.57e-6, 3.42e-6, 4.99e-9, 6.17e-9: the kink of |x|^2.5 at 0 has no stable ratio
    pytest.param("(x*x)^1.25", -1.0, 1.0, 0.3, (0.16, 0.08, 0.04, 0.02), _kink,
                 id="kink", marks=pytest.mark.xfail(
                     strict=True, reason="ROADMAP item 5: the kink at 0 costs the sweep its "
                                         "order, and no halving check sees it")),
])
def test_each_halving_of_h_gains_order_five(text, a, b, x0, hs, antiderivative):
    errors = [_worst_error(ProblemSpec.from_text(text, a, b, x0=x0, h=h), antiderivative)[0]
              for h in hs]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= 5.0, (errors, orders)


@pytest.mark.parametrize("h", [0.02, 0.01])  # 4.62e-14 and 1.05e-13 measured
def test_below_the_truncation_error_the_floor_is_the_models(h):
    # sin on [1, 10]: |g'''| <= 1 and xi < b = 10, so one step's rounding moves the identity by
    # at most ulp(b) (b - a)^3 / 12; the curve's own sum, trapezium + error term, rounds by
    # less than that, and the truncation error is below it from h = 0.04 on (the test above)
    spec = sin_spec(h=h)
    worst, steps = _worst_error(spec, _sin)
    per_step = math.ulp(spec.b) * (spec.b - spec.a) ** 3 / 12.0
    assert worst <= spec.ref_tol + spec.root_tol + steps * per_step, (worst, steps)
