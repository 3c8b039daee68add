import math
from dataclasses import replace

import pytest

from trapcorr import (DomainError, ProblemSpec, SingularDenominatorError,
                      error_term, eval_jet, eval_value, parse,
                      reference_integral, solve_xi_at, suggest_shift,
                      unshift_error, xi_ode, xi_rhs)

SIN = parse("sin(x)")
XI0_SIN = 3.049296665128674  # bootstrap value at x0 = 5 over [1, .]


def sin_problem(**kw):
    return ProblemSpec.from_text("sin(x)", 1.0, 10.0, **kw)


def reconstruct_xi(problem, x, ref_tol=1e-15, root_tol=1e-12):
    """Mean-value point at x straight from the defining identity."""
    i_ref = reference_integral(problem.g, problem.a, x, ref_tol).value
    return solve_xi_at(problem, x, i_ref, root_tol)


# ----------------------------------------------------------------- rhs

def test_rhs_matches_implicit_function_slope():
    p = sin_problem()
    delta = 1e-4
    xi_lo = reconstruct_xi(p, 5.0 - delta)
    xi_mid = reconstruct_xi(p, 5.0)
    xi_hi = reconstruct_xi(p, 5.0 + delta)
    fd_slope = (xi_hi - xi_lo) / (2.0 * delta)
    got = xi_rhs(p, 5.0, xi_mid)
    assert got == pytest.approx(fd_slope, abs=1e-6)
    assert got == pytest.approx(0.34575575345579146, abs=1e-9)


def test_rhs_singular_denominator():
    p = sin_problem()
    with pytest.raises(SingularDenominatorError) as exc:
        xi_rhs(p, 5.0, math.pi / 2.0)  # third derivative -cos vanishes
    err = exc.value
    assert err.x == 5.0
    assert abs(err.denominator) < 1e-12


def test_rhs_rejects_lower_limit():
    with pytest.raises(ValueError):
        xi_rhs(sin_problem(), 1.0, 2.0)


def test_rhs_alternate_numerator_coefficient_changes_value(monkeypatch):
    good = xi_rhs(sin_problem(), 5.0, XI0_SIN)
    monkeypatch.setattr(xi_ode, "F_COEFFICIENT", -18.0)
    bad = xi_rhs(sin_problem(), 5.0, XI0_SIN)
    assert abs(good - bad) > 0.1


# ---------------------------------------------------------- error term

def test_error_term_zero_at_lower_limit():
    assert error_term(sin_problem(), 1.0, 2.345) == 0.0


def test_error_term_closes_defining_identity_at_x0():
    p = sin_problem()
    trap = 2.0 * (math.sin(1.0) + math.sin(5.0))
    integral = 0.256640120404911
    assert trap + error_term(p, 5.0, XI0_SIN) == pytest.approx(integral, abs=1e-12)


def test_error_term_exact_for_quadratic():
    p = ProblemSpec.from_text("3*x^2-x+2", 0.5, 4.0)  # f'' = 6
    for x, xi in ((1.0, 0.7), (2.5, 1.1), (4.0, 3.9)):
        want = -((x - 0.5) ** 3) * 6.0 / 12.0
        assert error_term(p, x, xi) == pytest.approx(want, rel=1e-14)


# --------------------------------------------------------------- shift

def test_shifted_problem_identity():
    p = sin_problem()
    assert p.g is p.f_ast


def test_shifted_problem_sin_third_derivative_bounded():
    p = sin_problem(shift=2.0)
    for x in [1.0 + 0.09 * k for k in range(101)]:
        d3 = eval_jet(p.g, x).d3
        assert 1.0 <= d3 <= 3.0  # -cos x + 2


def test_shifted_problem_makes_flat_integrand_wellposed():
    p = ProblemSpec.from_text("x^2", 0.0, 4.0)
    assert eval_jet(p.g, 1.7).d3 == 0.0
    shifted = replace(p, shift=1.0)
    assert eval_jet(shifted.g, 1.7).d3 == 1.0
    # rhs now evaluable where the unshifted problem is singular
    xi_rhs(shifted, 2.0, 1.0)
    with pytest.raises(SingularDenominatorError):
        xi_rhs(p, 2.0, 1.0)


def test_shifted_problem_rebuilds_g_at_a():
    p = replace(ProblemSpec.from_text("sin(x)", 1.0, 10.0), shift=2.0)
    assert p.g_at_a == eval_value(p.g, p.a)
    assert p.g_at_a == math.sin(1.0)  # the cubic vanishes at a


def test_problem_without_a_jet_at_a_fails_at_construction():
    # sqrt has a value at 1e-200 but no finite derivatives there
    with pytest.raises(DomainError):
        ProblemSpec.from_text("sqrt(x)", 1e-200, 1.0)


def test_cubic_correction_values():
    # the error term of d*(x-a)^3/6 is -d*(x-a)^4/24
    assert unshift_error(0.0, 2.0, 3.0, 3.0) == 0.0
    assert unshift_error(0.0, 2.0, 1.0, 5.0) == 2.0 * 4.0 ** 4 / 24.0
    assert unshift_error(0.0, -3.0, 1.0, 3.0) == -2.0
    # x - a = 1 exactly far from the origin: no terms of size a^4 cancel
    got = unshift_error(0.0, 2.0, 1e4, 1e4 + 1.0)
    assert got == pytest.approx(2.0 / 24.0, rel=1e-15)


def test_unshift_identity_and_inverse():
    assert unshift_error(1.25, 0.0, 1.0, 5.0) == 1.25
    assert math.copysign(1.0, unshift_error(-0.0, 0.0, 1.0, 5.0)) == -1.0
    shifted = -7.5 - 2.0 * 4.0 ** 4 / 24.0
    assert unshift_error(shifted, 2.0, 1.0, 5.0) == pytest.approx(-7.5, rel=1e-14)


def test_unshift_recovers_quadratic_error_exactly():
    # f = x^2 has f''' = 0: run the shifted identity by hand at one x
    a, x, d = 0.0, 3.0, 1.0
    p = ProblemSpec.from_text("x^2", a, 4.0, shift=d)
    xi = reconstruct_xi(p, x, ref_tol=1e-14, root_tol=1e-10)
    err_f = unshift_error(error_term(p, x, xi), d, a, x)
    # trapezium error of x^2 over [0, 3] is exactly -(x-a)^3/12 * 2
    assert err_f == pytest.approx(-4.5, abs=1e-12)


# ----------------------------------------------------- shift suggestion

def test_suggest_shift_for_flat_cubic():
    assert suggest_shift(parse("x^2"), 0.0, 4.0) == 1.0


def test_suggest_shift_for_sin():
    # candidates 1 and -1 collide with the range of cos; 2 clears it
    assert suggest_shift(SIN, 1.0, 10.0) == 2.0


def test_suggest_shift_none_when_nothing_clears():
    # f''' = -12 cos(x) sweeps slowly through every candidate's negation,
    # so the sampled minimum stays under the clearance bar for all of them
    assert suggest_shift(parse("12*sin(x)"), 1.0, 10.0) is None


# ------------------------------------------------- containment & near-a

def test_reconstructed_xi_contained_for_sin():
    p = sin_problem()
    for x in (1.05, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0):
        xi = reconstruct_xi(p, x, ref_tol=1e-13)
        assert p.a < xi < x


def test_exotic_trajectory_contained(exotic_curve):
    a = exotic_curve.spec.a
    for row in exotic_curve.rows[1:]:
        assert a < row.xi < row.x


def test_near_a_ratio_approaches_half():
    p = sin_problem()
    for t in (1e-2, 1e-3, 1e-4):
        x = p.a + t
        w = x - p.a
        ref = reference_integral(p.g, p.a, x, max(1e-16, 1e-4 * w ** 3)).value
        xi = solve_xi_at(p, x, ref, root_tol=1e-19)
        ratio = (xi - p.a) / w
        assert ratio == pytest.approx(0.5, abs=1e-2), f"t={t}: ratio={ratio}"


def test_exotic_xi0_value(exotic_curve):
    # frozen from an independent symbolic-derivative implementation
    x0 = exotic_curve.spec.x0
    xi0 = next(row.xi for row in exotic_curve.rows if row.x == x0)
    assert xi0 == pytest.approx(2.9774482096912926, abs=1e-10)
