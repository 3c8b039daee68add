import math
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trapcorr import (ConfigError, ProblemSpec, ToleranceError, TrapcorrError,
                      composite_trapezium, parse, quadrature, reference_integral, run, trapezium)
from trapcorr.expr import eval_value, eval_values

from helpers import (composite_loglog_slope, decimal_integral, scalar_reference_integral,
                     worst_additivity_defect)
from test_convergence import _exp_cos, _kink

SIN = parse("sin(x)")


# ----------------------------------------------------------- trapezium

def test_trapezium_sin_closed_form():
    got = trapezium(SIN, 1.0, 5.0)
    want = 2.0 * (math.sin(1.0) + math.sin(5.0))
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(-0.234906579710484, abs=1e-15)


def test_trapezium_zero_width():
    assert trapezium(SIN, 2.0, 2.0) == 0.0


def test_trapezium_exact_for_constant():
    const = parse("3.25")
    assert trapezium(const, -1.0, 7.0) == pytest.approx(3.25 * 8.0, rel=1e-15)


def test_trapezium_exact_for_linear():
    lin = parse("2*x+1")
    got = trapezium(lin, 0.0, 3.0)
    assert got == pytest.approx(12.0, rel=1e-15)


# ------------------------------------------------- composite trapezium

def test_composite_single_panel_matches_trapezium():
    assert composite_trapezium(SIN, 1.0, 5.0, 1) == trapezium(SIN, 1.0, 5.0)


def test_composite_exact_for_linear():
    lin = parse("x")
    assert composite_trapezium(lin, 0.0, 1.0, 1) == 0.5
    assert composite_trapezium(lin, 0.5, 0.5, 4) == 0.0  # an empty interval


def test_composite_error_quarters_per_doubling():
    exact = math.cos(1.0) - math.cos(5.0)
    prev = None
    for n in (64, 128, 256, 512):
        err = abs(composite_trapezium(SIN, 1.0, 5.0, n) - exact)
        if prev is not None:
            assert prev / err == pytest.approx(4.0, rel=0.05)
        prev = err


def test_composite_empirical_order_two():
    exact = math.cos(1.0) - math.cos(5.0)
    errors = [(n, abs(composite_trapezium(SIN, 1.0, 5.0, n) - exact))
              for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
    slope = composite_loglog_slope(errors)
    assert slope == pytest.approx(-2.0, abs=0.1)


def test_composite_rejects_bad_args():
    with pytest.raises(ConfigError):
        composite_trapezium(SIN, 0.0, 1.0, 0)
    with pytest.raises(ConfigError):
        composite_trapezium(SIN, 1.0, 0.0, 4)


# ---------------------------------------------------- reference oracle

def test_reference_sin_1_to_5():
    res = reference_integral(SIN, 1.0, 5.0, 1e-13)
    assert abs(res.value - 0.256640120404911) <= 1e-13
    assert res.est_error <= 1e-13
    assert res.panels > 0


def test_reference_sin_1_to_10_analytic():
    res = reference_integral(SIN, 1.0, 10.0, 1e-13)
    assert res.value == pytest.approx(math.cos(1.0) - math.cos(10.0), abs=1e-13)


def test_reference_empty_interval():
    res = reference_integral(SIN, 3.0, 3.0, 1e-13)
    assert res.value == 0.0
    assert res.est_error == 0.0
    assert res.panels == 0


def test_reference_rejects_bad_args():
    with pytest.raises(ConfigError):
        reference_integral(SIN, 1.0, 5.0, 0.0)
    with pytest.raises(ConfigError):
        reference_integral(SIN, 5.0, 1.0, 1e-10)


def test_reference_rejects_a_nan_tolerance():
    # NaN fails every comparison, so it must not pass as a positive tolerance and
    # reach the table, whose stop rules would then blame the round-off floor
    with pytest.raises(ConfigError, match=r"^tolerance must be positive, got nan$"):
        reference_integral(SIN, 0.0, 1.0, math.nan)


_BUMP = parse("exp(-100*(x-2.3)^2)")  # its integral over [0, 10] is sqrt(pi)/10


@pytest.mark.parametrize("rule, args, message", [
    # any estimate meets an infinite tolerance: level 2's is 0.0651, not sqrt(pi)/10 = 0.1772
    (reference_integral, (0.0, 10.0, math.inf), "tolerance must be finite, got inf"),
    (reference_integral, (0.0, math.inf, 1e-3), "limits must be finite, got a=0.0, x=inf"),
    # NaN passes the reversed-limits test, and the table would sample f at x = nan
    (reference_integral, (math.nan, 1.0, 1e-3), "limits must be finite, got a=nan, x=1.0"),
    (composite_trapezium, (0.0, math.inf, 4), "limits must be finite, got a=0.0, b=inf"),
    (composite_trapezium, (-math.inf, 0.0, 4), "limits must be finite, got a=-inf, b=0.0"),
    (composite_trapezium, (0.0, math.nan, 4), "limits must be finite, got a=0.0, b=nan"),
], ids=["ref-tol-inf", "ref-x-inf", "ref-a-nan", "trap-b-inf", "trap-a-inf", "trap-b-nan"])
def test_non_finite_tolerance_or_limit_is_a_config_error(rule, args, message):
    with pytest.raises(ConfigError) as exc:
        rule(_BUMP, *args)
    assert str(exc.value) == message


def test_reference_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_MAX_EVALS", 2 ** 12)
    with pytest.raises(ToleranceError) as exc:
        reference_integral(SIN, 1.0, 10.0, 1e-30)
    assert exc.value.achieved > 1e-30 and "within 4096 evaluations" in str(exc.value)


def _counted_evaluations(monkeypatch):
    points = []

    def counted(f, x):
        points.append(x)
        return eval_value(f, x)

    monkeypatch.setattr(quadrature, "eval_value", counted)
    return points


@pytest.mark.parametrize("text,a,x,tol,reason", [
    ("sin(x)", 1.0, 5.0, 1e-30, "round-off floor"),  # tolerance below round-off
    ("1/x", -1.0, 1.3, 1e-13, "integral looks divergent"),  # a pole inside
    ("1/x", -1.0, 2.0, 1e-13, "integral looks divergent"),
    ("x^-2", -1.0, 1.3, 1e-13, "integral looks divergent"),
])
def test_reference_stops_when_the_table_stalls(monkeypatch, text, a, x, tol, reason):
    points = _counted_evaluations(monkeypatch)
    with pytest.raises(ToleranceError) as exc:
        reference_integral(parse(text), a, x, tol)
    assert reason in str(exc.value)
    assert exc.value.achieved > tol
    assert len(points) <= 2 ** 16  # of a 2^22 budget


@pytest.mark.parametrize("text,level", [
    ("1e308*sin(x)", 2), ("1e307*sin(x)", 6), ("1e306*sin(x)", 9)])
def test_reference_stops_when_the_table_overflows(monkeypatch, text, level):
    # an inf or NaN estimate neither agrees, halves nor stalls at a finite floor
    points = []

    def counted(f, xs):
        points.extend(xs)
        return eval_values(f, xs)

    monkeypatch.setattr(quadrature, "eval_values", counted)
    with pytest.raises(ToleranceError, match=f"^the Romberg table overflowed at level {level}$"):
        reference_integral(parse(text), 1.0, 2.5, 1e-13)
    assert len(points) < 2 ** 12


# each stalls for 3 to 6 levels, while the oscillation or the peak is
# still under-resolved, and then converges: a stall alone must not stop it
@pytest.mark.parametrize("text,a,x,exact", [
    ("sin(3*x)", 1.0, 10.0, (math.cos(3.0) - math.cos(30.0)) / 3.0),
    ("sin(20*x)", 1.0, 30.0, (math.cos(20.0) - math.cos(600.0)) / 20.0),
    ("1/(1+10000*x^2)", -1.0, 1.3, (math.atan(130.0) + math.atan(100.0)) / 100.0),
])
def test_reference_converges_through_a_stall(text, a, x, exact):
    res = reference_integral(parse(text), a, x, 1e-13)
    assert res.value == pytest.approx(exact, abs=1e-13)


# every closed form of an integral that the suite judges by, where it judges by it: the
# integrand, the points that split its interval (the oracle's rule converges fast on
# a smooth piece, so a peak or a kink must lie at a piece's end), and the closed form
@pytest.mark.parametrize("text,points,closed", [
    pytest.param("sin(x)", (1.0, 5.0), math.cos(1.0) - math.cos(5.0), id="sin-1-5"),
    pytest.param("sin(x)", (1.0, 10.0), math.cos(1.0) - math.cos(10.0), id="sin-1-10"),
    pytest.param("sin(3*x)", (1.0, 10.0), (math.cos(3.0) - math.cos(30.0)) / 3.0, id="sin3x"),
    pytest.param("sin(20*x)", (1.0, 30.0), (math.cos(20.0) - math.cos(600.0)) / 20.0,
                 id="sin20x"),
    pytest.param("1/(1+10000*x^2)", (-1.0, 0.0, 1.3),
                 (math.atan(130.0) + math.atan(100.0)) / 100.0, id="lorentzian"),
    pytest.param("x^2", (0.0, 4.0), 4.0 ** 3 / 3.0, id="square"),
    pytest.param("2^x", (0.5, 9.5), (2.0 ** 9.5 - 2.0 ** 0.5) / math.log(2.0), id="pow2"),
    pytest.param("exp(x/3)*cos(x)", (1.0, 10.0), _exp_cos(10.0) - _exp_cos(1.0), id="exp-cos"),
    pytest.param("(x*x)^1.25", (-1.0, 0.0, 1.0), _kink(1.0) - _kink(-1.0), id="kink"),
    pytest.param("3.25", (-1.0, 7.0), 26.0, id="constant"),
    pytest.param("2*x+1", (0.0, 3.0), 12.0, id="linear"),
])
def test_decimal_oracle_meets_each_closed_form_to_the_last_double(text, points, closed):
    # the closed form as doubles evaluate it is itself rounded: one unit in its last place
    node = parse(text)
    got = float(sum(decimal_integral(node, lo, hi) for lo, hi in zip(points, points[1:])))
    assert abs(got - closed) <= math.ulp(closed), (got, closed)


def test_decimal_oracle_reads_its_recorded_values():
    # the values the oracle's prototype read: cos 1 - cos 10 (the difference of the doubles
    # math.cos gives is an ulp above it), and the exotic integral, which no closed form states
    assert float(decimal_integral(SIN, 1.0, 10.0)) == 1.379373834944592
    exotic = parse("x^2*(sin(x)*ln(2+x)-100*x)")
    assert float(decimal_integral(exotic, 1.0, 10.0)) == -249807.09247827437


def test_decimal_oracle_refuses_a_peak_inside_its_interval():
    # levels that do not agree raise: the Lorentzian's peak at 0 needs a split there
    with pytest.raises(ArithmeticError, match="did not agree"):
        decimal_integral(parse("1/(1+10000*x^2)"), -1.0, 1.3)


def test_reference_deterministic():
    a = reference_integral(SIN, 1.0, 7.3, 1e-13)
    b = reference_integral(SIN, 1.0, 7.3, 1e-13)
    assert a == b


@pytest.mark.parametrize("text,lo,hi", [
    ("sin(x)", 0.0, 10.0),
    ("exp(x/3)*cos(x)", 0.0, 6.0),
    ("x^2*(sin(x)*ln(2+x)-100*x)/1000", 1.0, 10.0),
])
def test_reference_additivity(text, lo, hi):
    tol = 1e-12
    worst, where = worst_additivity_defect(text, lo, hi, tol=tol)
    assert worst <= 2.0 * tol, f"additivity defect {worst:.3e} at {where}"


# ------------------------------------------- batched Romberg vs the scalar loop

# the integrands of the tests above, and one undefined on (-0.1, 0.1), whose
# panels across that gap fail on a midpoint at some level
FAMILIES = ["sin(x)", "sin(3*x)", "sin(20*x)", "1/(1+10000*x^2)", "1/x", "x^-2",
            "exp(x/3)*cos(x)", "x^2*(sin(x)*ln(2+x)-100*x)/1000", "sqrt(x*x-0.01)"]


#: the module's (PLATEAU_LEVELS, DIVERGENCE_PANELS)
STOP_RULES = (quadrature.PLATEAU_LEVELS, quadrature.DIVERGENCE_PANELS)


def _bits(results):
    return [(value.hex(), est.hex(), panels) for value, est, panels in results]


def _outcome(call):
    """(results as bits, None) or (None, the error's type, message and fields)."""
    try:
        return _bits(call()), None
    except TrapcorrError as exc:
        fields = (getattr(exc, "best_estimate", 0.0).hex(), getattr(exc, "achieved", 0.0).hex())
        return None, (type(exc), str(exc), fields)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(text=st.sampled_from(FAMILIES),
       nodes=st.lists(st.floats(-1.0, 10.0), min_size=2, max_size=6, unique=True).map(sorted),
       tols=st.lists(st.sampled_from([1e-30, 1e-15, 1e-13, 1e-10, 1e-6, 1e-3]),
                     min_size=5, max_size=5),
       budget=st.sampled_from([2 ** 17, 2 ** 6, 2 ** 10, 3, 9]),
       # (PLATEAU_LEVELS, DIVERGENCE_PANELS): the module's, and shorter ones
       # whose stop rules fire in and right after the head
       constants=st.sampled_from([STOP_RULES, (2, 2 ** 4), (1, 2 ** 2)]))
# each stop rule, each in the second of two panels, so that the first panel's
# result must survive it: the round-off stall, the divergence, the budget
@example(text="sin(x)", nodes=[-2.0, -1.0, -0.5], tols=[1e-13, 1e-30] * 2 + [1e-13], budget=2 ** 17,
         constants=STOP_RULES)
@example(text="1/x", nodes=[-2.0, -1.0, 1.3], tols=[1e-13] * 5, budget=2 ** 17,
         constants=STOP_RULES)
@example(text="sin(20*x)", nodes=[1.0, 1.5, 10.0], tols=[1e-13] * 5, budget=2 ** 10,
         constants=STOP_RULES)
# the second or third panel has a midpoint where f is undefined, and the first
# panel fails: the first panel's error is the one raised, where that midpoint
# lies past the head's levels (three panels), and where it lies in the head's
# first level, whose failure ends the head (four panels)
@example(text="sqrt(x*x-0.01)", nodes=[-3.0, -1.0, 0.5, 2.0], tols=[1e-30] + [1e-13] * 4,
         budget=2 ** 17, constants=STOP_RULES)
@example(text="sqrt(x*x-0.01)", nodes=[-3.0, -1.0, -0.5, 0.4, 2.0], tols=[1e-30] + [1e-13] * 4,
         budget=2 ** 17, constants=STOP_RULES)
# with short stop rules, a divergence in a panel that the head left open: the
# scalar loop starts that panel over from level 1, so the largest |f| it reads
# the divergence against holds the head's midpoints too
@example(text="1/x", nodes=[-2.0, -0.4, 2.4], tols=[1e-13] * 5, budget=2 ** 10, constants=(2, 2 ** 4))
def test_batched_romberg_matches_the_scalar_loop(text, nodes, tols, budget, constants):
    """Panel by panel, bit for bit: value, estimate and evaluation count,
    and on failure the first failing panel's error, with the panels integrated
    one after another by the scalar reference loop."""
    f = parse(text)
    try:
        values = [eval_value(f, x) for x in nodes]
    except TrapcorrError:
        assume(False)
    tols = tols[:len(nodes) - 1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "DEFAULT_MAX_EVALS", budget)
        patch.setattr(quadrature, "PLATEAU_LEVELS", constants[0])
        patch.setattr(quadrature, "DIVERGENCE_PANELS", constants[1])
        want = _outcome(lambda: [scalar_reference_integral(f, a, x, tol)
                                 for a, x, tol in zip(nodes, nodes[1:], tols)])
        got = _outcome(lambda: quadrature.romberg(f, nodes, values, tols))
    assert got == want


# the grids of the golden sin-residual and exotic-residual runs, and of a sin
# with a clearing shift whose tolerances scale with |D| b^4 / 24, as the README
# directs for large integrands: 900 panels each
@pytest.mark.parametrize("curve", [
    "sin_curve", "exotic_curve",
    lambda: run(ProblemSpec.from_text("sin(1.3*x+0.7)", a=0.5, b=9.5, x0=4.0, h=0.01, shift=5.0,
                                      ref_tol=1e-14 * 5.0 * 9.5 ** 4 / 24.0,
                                      root_tol=1e-13 * 5.0 * 9.5 ** 4 / 24.0)),
], ids=["sin", "exotic", "sin-shifted"])
def test_reference_column_matches_the_scalar_loop_at_scale(request, monkeypatch, curve):
    """Each panel of a run's grid, to the tolerance the column gives it, bit for
    bit as the scalar loop integrates it alone; and the column is their running sum."""
    curve = request.getfixturevalue(curve) if isinstance(curve, str) else curve()
    f, tol = curve.spec.f_ast, curve.spec.ref_tol
    nodes = [row.x for row in curve.rows]
    values = [eval_value(f, x) for x in nodes]
    romberg, calls = quadrature.romberg, []
    monkeypatch.setattr(quadrature, "romberg", lambda *args: calls.append(args) or romberg(*args))
    column = quadrature.reference_column(f, nodes, values, tol)
    (_, _, _, tols, _), = calls  # and the trapezium row the column shares
    assert len(tols) == 900
    want = [scalar_reference_integral(f, a, x, t) for a, x, t in zip(nodes, nodes[1:], tols)]
    # every panel ends in the head, so none evaluates the head's midpoints twice
    assert max(r.panels for r in want) <= 2 ** quadrature.PLATEAU_LEVELS + 1
    assert _bits(romberg(f, nodes, values, tols)) == _bits(want)
    running = list(accumulate((r.value for r in want), initial=0.0))[1:]
    assert [v.hex() for v in column] == [v.hex() for v in running]
    if curve.rows[1].reference is not None:  # the run's own column, from f read a list at a time
        assert [row.reference.hex() for row in curve.rows[1:]] == [v.hex() for v in running]


def test_panels_past_the_head_match_the_scalar_loop():
    """Panels that outlive the head start over alone, evaluating its midpoints
    again: widths alternating 0.3 and 0.01 under a fast oscillation end at levels
    3 to 8, each bit for bit as the scalar loop integrates it alone."""
    f = parse("sin(20*x)*exp(x/4)")
    nodes = [1.0 + 0.155 * i - 0.145 * (i % 2) for i in range(61)]
    values = [eval_value(f, x) for x in nodes]
    tols = [1e-13] * 60
    want = [scalar_reference_integral(f, a, x, t) for a, x, t in zip(nodes, nodes[1:], tols)]
    assert {r.panels for r in want} == {9, 17, 129, 257}
    assert _bits(quadrature.romberg(f, nodes, values, tols)) == _bits(want)
