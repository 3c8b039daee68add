import ast
import builtins
import math
import re
import sys
from functools import partial
from pathlib import Path

import pytest

from trapcorr import (FEHLBERG7, ConfigError, DomainError, ProblemSpec, RKTableau,
                      SingularDenominatorError, error_term, eval_jet, eval_value, parse,
                      reference_integral, rk_step, solve_xi_at, suggest_shift,
                      run, unshift_error, xi_ode, xi_rhs)
from trapcorr import expr, pipeline

from conftest import HEUN3, RK4, exotic_spec
from test_error_parity import RUNS

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
    with pytest.raises(ConfigError):
        xi_rhs(sin_problem(), 1.0, 2.0)


def test_rhs_alternate_numerator_coefficient_changes_value(monkeypatch):
    p = sin_problem()
    good = xi_rhs(p, 5.0, XI0_SIN)
    monkeypatch.setattr(xi_ode, "F_COEFFICIENT", -18.0)
    bad = xi_rhs(sin_problem(), 5.0, XI0_SIN)
    assert abs(good - bad) > 0.1
    assert xi_rhs(p, 5.0, XI0_SIN) == bad  # the stage a spec keeps sees the patch too
    monkeypatch.undo()
    assert xi_rhs(p, 5.0, XI0_SIN) == good


def test_rhs_binds_once_per_spec(monkeypatch):
    factory, calls = xi_ode._factory, []

    def counted(*args):
        calls.append(args)
        return factory(*args)
    monkeypatch.setattr(xi_ode, "_factory", counted)
    p = sin_problem()
    slopes = {xi_rhs(p, 5.0, XI0_SIN) for _ in range(1000)}
    assert len(calls) == 1 and len(slopes) == 1


def test_rhs_reads_only_g_and_its_slope_at_x():
    # |x|^2.5: g'' and g''' are undefined at 0, g and g' are 0 there
    p = ProblemSpec.from_text("(x*x)^1.25", -1.0, 1.0)
    with pytest.raises(DomainError):
        eval_jet(p.g, 0.0)
    at_xi = eval_jet(p.g, -0.5)
    want = (6.0 * p.g_at_a - 3.0 * at_xi.d2) / at_xi.d3
    assert math.isfinite(want) and xi_rhs(p, 0.0, -0.5) == want


def test_an_error_of_the_jet_at_xi_carries_the_stage_x_and_xi_as_fields():
    # the message names both; an error at x itself carries no xi
    with pytest.raises(DomainError) as exc:
        xi_rhs(ProblemSpec.from_text("sqrt(x)", 1.0, 4.0), 2.0, -1.0)
    assert (exc.value.x, exc.value.xi) == (2.0, -1.0)
    (f, a, b, x0, h, ref_tol, root_tol), _, args, x = RUNS["xi-outer-overflow"]
    with pytest.raises(DomainError) as exc:
        run(ProblemSpec.from_text(f, a, b, x0=x0, h=h, ref_tol=ref_tol, root_tol=root_tol))
    assert (exc.value.args, exc.value.x, exc.value.xi) == (args, x, 6.569072034370699)
    with pytest.raises(DomainError) as exc:
        xi_rhs(ProblemSpec.from_text("exp(x)", 1.0, 800.0), 710.0, 2.0)
    assert (exc.value.x, exc.value.xi) == (710.0, None)


def test_expr_knows_nothing_of_the_ode():
    # the ODE's stage, step and guard live in xi_ode, which reads expr's emitted jet block
    source = Path(expr.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if re.search(r"\b(rk|xi_ode)$", name)}
    for name in ("SingularDenominatorError", "_STAGE", "_XI"):
        assert name not in source
    # and each block expr emits tests its own slots: xi_ode spells no finiteness test
    assert "non-finite" not in Path(xi_ode.__file__).read_text(encoding="utf-8")
    assert not [key for key in expr._emit(("sin", "x")) if key.startswith("fin")]


def test_a_fresh_shape_is_emitted_once_and_compiled_once_per_tableau(monkeypatch):
    # one walk of the shape serves the evaluators and the stage; the stage and step compile
    # once per (shape, tableau), and xi_rhs reuses them.  No other test uses this shape
    compiled, real_compile = [], builtins.compile

    def counting_compile(source, filename, *args, **kwargs):
        if filename.endswith(" emitted>"):
            compiled.append(filename)
        return real_compile(source, filename, *args, **kwargs)
    monkeypatch.setattr(builtins, "compile", counting_compile)
    emits = expr._emit.cache_info().misses
    spec = ProblemSpec.from_text("sqrt(x)+exp(x/3)*1.25", 1.0, 4.0, x0=2.5, h=0.05)
    run(spec)
    xi_rhs(spec, 3.0, 2.0)
    assert compiled == ["<trapcorr.expr emitted>", "<trapcorr.xi_ode emitted>"]
    run(ProblemSpec.from_text("sqrt(x)+exp(x/3)*1.25", 1.0, 4.0, x0=2.5, h=0.05, tableau=RK4))
    assert compiled[2:] == ["<trapcorr.xi_ode emitted>"]
    assert expr._emit.cache_info().misses == emits + 1


#: Fehlberg-7 with a first node of 1e-12: valid (row-sum defect 1e-12), and its stage 0
#: still evaluates the jet at the y its step starts from, as A's first row is empty
FEHLBERG7_C1 = RKTableau(name="fehlberg7-c1e-12", order=7, a=FEHLBERG7.a, b=FEHLBERG7.b,
                         c=(1e-12, *FEHLBERG7.c[1:]))
FEHLBERG7_C1.validate()
#: its one nonzero weight, 1.0, is a factor that the emitted step leaves out
MIDPOINT = RKTableau(name="midpoint", order=2, a=((), (0.5,)), b=(0.0, 1.0), c=(0.0, 0.5))
#: the trapezoidal rule with its node c = 0 taken twice: stage 1 reuses stage 0's x-side
#: terms, and stage 0 takes the carry of the step before's node c = 1
RECURRING_C0 = RKTableau(name="recurring-c0", order=2, a=((), (0.0,), (0.5, 0.5)),
                         b=(0.5, 0.0, 0.5), c=(0.0, 0.0, 1.0))
RECURRING_C0.validate()
#: the tableaux that the emitted step is checked on against the tableau's own step
_TABLEAUX = (FEHLBERG7, RK4, HEUN3, FEHLBERG7_C1, MIDPOINT, RECURRING_C0)


def _sweep_steps(spec):
    """Every (x, y, h, next y) step of ``run(spec)``'s sweeps, and the g''(xi)
    the steps recorded; each step records once, when it is taken."""
    steps, recorded = [], []

    def recording(p):
        step, records = xi_ode.bind_step(p)
        recorded.append(records)
        code = step.__code__  # its stages are inline: it calls no stage
        assert "stage" not in code.co_freevars + code.co_names + code.co_varnames

        def recorded_step(x, y, h):
            ran = []  # nor, in the run's first step, any other Python function
            sys.setprofile(None if steps else
                           lambda frame, event, arg: event == "call" and ran.append(frame.f_code))
            try:
                steps.append((x, y, h, step(x, y, h)))
            finally:
                sys.setprofile(None)
            assert ran == [code] or len(steps) > 1
            assert len(records) == len(steps)
            return steps[-1][3]
        return recorded_step, records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "bind_step", recording)
        run(spec)
    return steps, recorded[0]


@pytest.mark.parametrize("tableau", _TABLEAUX, ids=lambda t: t.name.split("/")[-1])
@pytest.mark.parametrize("make", [
    pytest.param(lambda t: sin_problem(x0=5.0, h=0.01, tableau=t), id="sin"),
    pytest.param(lambda t: sin_problem(x0=5.0, h=0.01, shift=2.0, tableau=t), id="shifted-sin"),
    pytest.param(lambda t: exotic_spec(tableau=t), id="exotic"),
])
def test_fused_step_equals_rk_step_over_xi_rhs(make, tableau):
    spec = make(tableau)
    steps, d2 = _sweep_steps(spec)
    assert len(steps) == 899
    rhs = partial(xi_rhs, spec)
    for x, y, h, fused in steps:
        assert fused.hex() == rk_step(partial(tableau.step, rhs), x, y, h).hex(), (x, y, h)
    # stage 0 of each step evaluates the jet at the node it starts from
    assert len(d2) == len(steps)
    for (x, y, *_), d2_y in zip(steps, d2):
        assert d2_y.hex() == eval_jet(spec.g, y).d2.hex(), (x, y)


def _failure(call):
    """The exception ``call()`` raises, as its type, text, abscissa, xi and cause's type."""
    with pytest.raises(Exception) as exc:
        call()
    err = exc.value
    return (type(err), str(err), getattr(err, "x", None), getattr(err, "xi", None),
            type(err.__cause__))


#: name: (f, a, b, the step's y, its x given its first node c0), and the failure's type;
#: stage 0's abscissa is the step's x but for c0's own rounding, and its xi is y
_STAGE_FAILURES = {
    "x-side": (("exp(x)", 1.0, 800.0, 2.0, lambda c0: 710.0), DomainError),
    "at-xi": (("sqrt(x)", 1.0, 4.0, -1.0, lambda c0: 2.0), DomainError),
    "non-finite-jet": (("exp(x^2)", 1.0, 27.0, 26.6, lambda c0: 26.4), DomainError),
    "singular": (("sin(x)", 1.0, 10.0, math.pi / 2.0, lambda c0: 5.0), SingularDenominatorError),
    "at-a": (("sin(x)", 0.0, 10.0, 2.0, lambda c0: -(c0 * 0.01)), ConfigError),  # x + c0 h == a
}


@pytest.mark.parametrize("tableau", _TABLEAUX, ids=lambda t: t.name.split("/")[-1])
@pytest.mark.parametrize("name", sorted(_STAGE_FAILURES))
def test_inlined_step_fails_as_the_tableau_step_over_xi_rhs(name, tableau):
    (f, a, b, y, start), kind = _STAGE_FAILURES[name]
    spec = ProblemSpec.from_text(f, a, b, tableau=tableau)
    x, h = start(tableau.c[0]), 0.01
    step, _ = xi_ode.bind_step(spec)
    got = _failure(lambda: step(x, y, h))
    assert got == _failure(lambda: partial(tableau.step, partial(xi_rhs, spec))(x, y, h))
    assert got[0] is kind, got


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
    shifted = ProblemSpec.from_text("x^2", 0.0, 4.0, shift=1.0)
    assert eval_jet(shifted.g, 1.7).d3 == 1.0
    # rhs now evaluable where the unshifted problem is singular
    xi_rhs(shifted, 2.0, 1.0)
    with pytest.raises(SingularDenominatorError):
        xi_rhs(p, 2.0, 1.0)


def test_shifted_problem_rebuilds_g_at_a():
    p = ProblemSpec.from_text("sin(x)", 1.0, 10.0, shift=2.0)
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
    # nor where the integrand cannot be evaluated over the range: sqrt's jet below 0
    assert suggest_shift(parse("sqrt(x)"), -1.0, 1.0) is None


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
