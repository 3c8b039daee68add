import dis
import json
import math
import pickle
import random
import re
import struct
import sys
from contextlib import suppress
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapcorr import (FEHLBERG7, ConfigError, DomainError, ExpressionError, Jet3, ProblemSpec,
                      RKTableau, SyntaxError_, UnknownIdentifierError, eval_jet, eval_value, parse,
                      xi_ode, xi_rhs)
from trapcorr import expr
from trapcorr.expr import MAX_DEPTH, BinOp, Call, Num, Var, eval_values, shift_by_cubic

from conftest import HEUN3, RK4
from helpers import FD_DOMAINS, reference_defined, reference_xi_step, worst_jet_fd_deviation
from test_golden_steps import A as STEP_A, H as STEP_H, SHIFT as STEP_SHIFT, X as STEP_X
from test_golden_steps import Y as STEP_Y, outcome as step_outcome

GOLDEN_JETS = Path(__file__).parent / "data" / "golden_jets.jsonl"


# ------------------------------------------------------------- parsing

def test_parse_single_call():
    assert parse("sin(x)") == Call("sin", Var())


def test_parse_exotic_integrand():
    got = parse("x^2*(sin(x)*ln(2+x)-100*x)")
    want = BinOp(
        "*",
        BinOp("^", Var(), Num(2.0)),
        BinOp(
            "-",
            BinOp("*", Call("sin", Var()), Call("ln", BinOp("+", Num(2.0), Var()))),
            BinOp("*", Num(100.0), Var()),
        ),
    )
    assert got == want


def test_parse_is_deterministic():
    text = "exp(sin(x))/sqrt(2+x) - pi*e + 0.5e1"
    assert parse(text) == parse(text)


def test_trees_of_one_shape_share_compiled_code():
    two, three = parse("sin(2*x)"), parse("sin(3*x)")
    assert len(two._evaluators) == len(three._evaluators) == 2  # jet, values
    for of_two, of_three in zip(two._evaluators, three._evaluators):
        assert of_two.__code__ is of_three.__code__
    # and one xi-ODE per (shape, tableau), compiled once, bound to each tree's literals:
    # the sweep's step and its stage, which xi_rhs runs too, with no compile of its own;
    # no other test steps by this tableau, so its first bind here is the one compile
    midpoint = RKTableau(name="midpoint", order=2, a=((), (0.5,)), b=(0.0, 1.0), c=(0.0, 0.5))
    info, before = xi_ode._factory.cache_info, xi_ode._factory.cache_info()
    literals_two, literals_three = [], []
    bind_two = xi_ode._factory(expr._shape(two, literals_two), midpoint)
    bind_three = xi_ode._factory(expr._shape(three, literals_three), midpoint)
    assert bind_two is bind_three
    assert (literals_two[-1], literals_three[-1]) == (2.0, 3.0)
    spec = ProblemSpec.from_text("sin(2*x)", 1.0, 10.0, tableau=midpoint)
    step, _ = xi_ode.bind_step(spec)
    ran = []
    sys.setprofile(lambda frame, event, arg: event == "call" and ran.append(frame.f_code))
    try:
        xi_rhs(spec, 5.0, 3.0)
    finally:
        sys.setprofile(None)
    # the stage xi_rhs runs is the step's sibling in the one compiled bind
    (stage,) = [code for code in ran if code.co_name == "stage"]
    assert {stage, step.__code__} <= set(bind_two.__code__.co_consts)
    assert (info().misses - before.misses, info().hits - before.hits) == (1, 3)
    assert eval_jet(two, 0.5) == Jet3(math.sin(1.0), 2.0 * math.cos(1.0),
                                      -4.0 * math.sin(1.0), -8.0 * math.cos(1.0))
    assert eval_jet(three, 0.5).d0 == math.sin(1.5)


def _emitted(shape):
    """Every source emitted for one tree shape: its evaluators and a sweep step."""
    return [expr._source(shape), xi_ode._source(shape, FEHLBERG7)]


def test_compiled_code_cache_is_bounded():
    assert isinstance(expr._factory.cache_info().maxsize, int)
    assert isinstance(expr._emit.cache_info().maxsize, int)
    assert isinstance(xi_ode._factory.cache_info().maxsize, int)


def test_literals_are_bound_values_not_source_text():
    literals = []
    shape = expr._shape(parse("x*123456.5"), literals)
    assert literals == [123456.5]
    for source in _emitted(shape):
        assert "123456.5" not in source


def test_evaluated_tree_pickles_and_compares_as_before():
    ast = parse("x^2*(sin(x)*ln(2+x)-100*x)")
    jet = eval_jet(ast, 3.0)
    copy = pickle.loads(pickle.dumps(ast))
    assert copy == ast and hash(copy) == hash(ast)
    assert eval_jet(copy, 3.0) == jet


def test_syntax_error_offset():
    with pytest.raises(SyntaxError_) as exc:
        parse("2+*x")
    assert exc.value.position == 2


#: text -> (error, message, offset), as parse reports them: the CLI prints the message
_DIAGNOSTICS = {
    "2+*x": (SyntaxError_, "unexpected '*'", 2),
    "sin x": (SyntaxError_, "expected '('", 4),
    "(1+2": (SyntaxError_, "expected ')'", 4),
    "(1+2 $": (SyntaxError_, "unexpected character '$'", 5),  # every token is read first
    "sin(π)+": (SyntaxError_, "non-ASCII character 'π'", 4),
    "x^x": (SyntaxError_, "exponent must be constant when the base depends on x", 1),
    "1e400": (SyntaxError_, "number 1e400 is out of range", 0),
    "foo(x)": (UnknownIdentifierError, "unknown identifier 'foo'", 0),
    "1)": (SyntaxError_, "unexpected ')' after expression", 1),
    "": (SyntaxError_, "empty expression", 0),
}
#: (a text nested n levels, the deepest n parse accepts, the offset that refuses n + 1)
_DEPTHS = [
    (lambda n: "(" * n + "x" + ")" * n, 100, 100),
    (lambda n: "sin(" * n + "x" + ")" * n, 100, 400),
    (lambda n: "-" * n + "x", 100, 100),
    (lambda n: "x" + "^2" * n, 99, 199),
    (lambda n: "+".join(["x"] * n), 100, 199),
]


def test_parse_reports_type_message_offset_and_tree():
    for text, (error, message, offset) in _DIAGNOSTICS.items():
        with pytest.raises(ExpressionError) as exc:
            parse(text)
        got = type(exc.value), str(exc.value), exc.value.position
        assert got == (error, f"{message} (offset {offset})", offset), text
    for nest, deepest, offset in _DEPTHS:
        parse(nest(deepest))
        with pytest.raises(SyntaxError_) as exc:
            parse(nest(deepest + 1))
        assert (str(exc.value), exc.value.position) == (
            f"expression nested deeper than {MAX_DEPTH} levels (offset {offset})", offset)
    assert repr(parse("-x^2")) == "BinOp(op='^', left=Neg(arg=Var()), right=Num(value=2.0))"
    assert repr(parse("2^3^2")) == ("BinOp(op='^', left=Num(value=2.0), right=BinOp(op='^', "
                                    "left=Num(value=3.0), right=Num(value=2.0)))")
    assert repr(parse("8/4/2")) == ("BinOp(op='/', left=BinOp(op='/', left=Num(value=8.0), "
                                    "right=Num(value=4.0)), right=Num(value=2.0))")


@pytest.mark.parametrize("text", ["", "   ", "2x", "2 x", "sin x", "sin(x",
                                  "(1+2", "1+", "^2", "1//2", "2e", "sin()",
                                  "1e400", "x*2.5e308"])
def test_malformed_inputs(text):
    with pytest.raises(SyntaxError_):
        parse(text)


def test_nesting_depth_is_bounded():
    parse("(" * 40 + "x" + ")" * 40)
    parse("+".join(["x"] * 40))
    for text in ("(" * 300 + "x" + ")" * 300, "+".join(["x"] * 1200),
                 "-" * 300 + "x", "x" + "^2" * 300):
        with pytest.raises(SyntaxError_) as exc:
            parse(text)
        assert f"deeper than {MAX_DEPTH}" in str(exc.value)
        assert 0 < exc.value.position < len(text)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("1+foo(x)")
    assert exc.value.name == "foo"
    assert exc.value.position == 2


def test_non_ascii_rejected():
    # a non-ASCII digit is no digit, inside a number or after one
    for text, offset in (("sin(π)", 4), ("1٣", 1), ("2e٣", 2), ("x*2٠", 3)):
        with pytest.raises(SyntaxError_) as exc:
            parse(text)
        assert exc.value.position == offset and "non-ASCII character" in str(exc.value), text


def test_nonconstant_exponent_over_x_rejected():
    with pytest.raises(SyntaxError_):
        parse("x^x")
    with pytest.raises(SyntaxError_):
        parse("(1+x)^(2*x)")
    # constant base with x in the exponent stays legal
    parse("2^x")


def test_precedence_and_associativity():
    assert eval_value(parse("2+3*4"), 0.0) == 14.0
    assert eval_value(parse("2*3^2"), 0.0) == 18.0
    assert eval_value(parse("2^3^2"), 0.0) == 512.0  # right-assoc
    assert eval_value(parse("8/4/2"), 0.0) == 1.0    # left-assoc
    # the grammar hangs unary minus below ^: -x^2 is (-x)^2
    assert eval_value(parse("-x^2"), 3.0) == 9.0
    assert eval_value(parse("-(x^2)"), 3.0) == -9.0


def test_number_literals():
    assert eval_value(parse("2e3"), 0.0) == 2000.0
    assert eval_value(parse(".5"), 0.0) == 0.5
    assert eval_value(parse("1.25e-2"), 0.0) == 0.0125
    assert eval_value(parse("pi"), 0.0) == math.pi
    assert eval_value(parse("e"), 0.0) == math.e


# ---------------------------------------------------------------- jets

def test_identity_jet():
    for x in (-2.0, 0.0, 0.7, 41.5):
        assert eval_jet(parse("x"), x) == Jet3(x, 1.0, 0.0, 0.0)


def test_cubic_jet():
    assert eval_jet(parse("x^3"), 2.0) == Jet3(8.0, 12.0, 12.0, 6.0)


def test_sin_jet_full_precision():
    jet = eval_jet(parse("sin(x)"), 1.0)
    assert jet.d0 == math.sin(1.0)
    assert jet.d1 == math.cos(1.0)
    assert jet.d2 == -math.sin(1.0)
    assert jet.d3 == -math.cos(1.0)


# expected derivatives computed symbolically, 25 digits, then rounded
@pytest.mark.parametrize("text,x,want", [
    ("x^2*(sin(x)*ln(2+x)-100*x)", 3.0,
     (-2697.955884979429, -2712.723223751931, -1823.98593289419,
      -606.0409789076685)),
    ("exp(sin(x))/sqrt(2+x)", 1.3,
     (1.4428162765115524, 0.1673431371431544, -1.3045833527966755,
      -0.8845335478758185)),
    ("2^x+log10(x)*tan(x/4)", 2.5,
     (5.9439617741970405, 4.197638163634215, 2.8543610106565116,
      1.9646390231901476)),
])
def test_composite_jets_against_symbolic_values(text, x, want):
    jet = eval_jet(parse(text), x)
    for got, ref in zip((jet.d0, jet.d1, jet.d2, jet.d3), want):
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("text", sorted(FD_DOMAINS))
def test_jet_matches_finite_differences(text):
    lo, hi = FD_DOMAINS[text]
    worst, where = worst_jet_fd_deviation(text, lo, hi, n=1000)
    assert worst <= 1e-6, f"{text}: deviation {worst:.3e} at {where}"


def test_linearity_of_jets():
    u = parse("sin(x)*exp(x/2)")
    v = parse("ln(2+x)")
    alpha, beta = 2.5, -0.75
    combined = parse("2.5*(sin(x)*exp(x/2)) + -0.75*(ln(2+x))")
    for x in (0.1, 1.0, 2.3, 4.0):
        ju, jv = eval_jet(u, x), eval_jet(v, x)
        jc = eval_jet(combined, x)
        assert jc.d0 == alpha * ju.d0 + beta * jv.d0
        assert jc.d1 == alpha * ju.d1 + beta * jv.d1
        assert jc.d2 == alpha * ju.d2 + beta * jv.d2
        assert jc.d3 == alpha * ju.d3 + beta * jv.d3


def test_product_rule_closure():
    u = parse("sin(x)")
    v = parse("ln(2+x)")
    prod = parse("sin(x)*ln(2+x)")
    for x in (0.5, 1.7, 3.9):
        ju, jv, jp = eval_jet(u, x), eval_jet(v, x), eval_jet(prod, x)
        assert jp.d1 == ju.d1 * jv.d0 + ju.d0 * jv.d1


# -------------------------------------------------------- domain errors

@pytest.mark.parametrize("text,x", [
    ("ln(x)", 0.0),
    ("ln(x)", -1.0),
    ("log10(x-1)", 1.0),
    ("sqrt(x)", -4.0),
    ("1/x", 0.0),
    ("x^-1", 0.0),
    ("x^2.5", -1.0),
    ("(-2)^x", 1.5),
    ("exp(x)", 1000.0),
])
def test_domain_errors(text, x):
    with pytest.raises(DomainError):
        eval_jet(parse(text), x)


def test_sqrt_jet_undefined_at_zero_but_value_defined():
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(x)"), 0.0)
    assert eval_value(parse("sqrt(x)"), 0.0) == 0.0


# where only a derivative underflows, overflows or is undefined, the
# value still comes out and the jet is a DomainError (never a bare
# ZeroDivisionError or OverflowError)
@pytest.mark.parametrize("text,x,value", [
    ("sqrt(x)", 1e-200, 1e-100),
    ("log10(x)", 1e-200, -200.0),
    ("ln(x)", 1e-200, math.log(1e-200)),
    ("x^0.5", 1e-130, math.pow(1e-130, 0.5)),
    ("0^x", 2.0, 0.0),
    ("(-2)^x", 3.0, -8.0),
    # where only a product with a zero shows the failure, which the folded code stands
    # in for: an overflowed value's v * 0.0 (as v - v), a function of a constant's
    # g' * 0.0 (kept)
    ("1/(x*x*2.5)", 1e300, 0.0),
    ("2.5/((x*1e150)*1e150)", 1e160, 0.0),
    ("x+sqrt(0)", 2.0, 2.0),
    ("x*ln(1e-320)", 2.0, 2.0 * math.log(1e-320)),
    # a folded u^1 keeps its zero g3 times u1 ** 3, which overflows where (2x)^3 does
    ("(x*x-3)^1", 1e154, 1e308),
    ("(x*x-3)^1", 1e103, 1e206),
])
def test_value_defined_where_only_derivatives_fail(text, x, value):
    with pytest.raises(DomainError):
        eval_jet(parse(text), x)
    assert eval_value(parse(text), x) == value


_LEAVES = st.sampled_from(["x", "x", "pi", "e", "0", "1", "2.5", "1e-3", "1e150"])
_EXPONENTS = st.sampled_from(["2", "3", "0.5", "-1", "0", "(1/3)", "-2.5"])
_BASES = st.sampled_from(["2", "0.5", "0", "(-2)", "e", "1e150"])


def _compound(inner):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(
            ["sin", "cos", "tan", "exp", "ln", "log10", "sqrt"]), inner),
        st.builds("-({})".format, inner),
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, _EXPONENTS),
        st.builds("{}^({})".format, _BASES, inner),
    )


#: the expressions of the recursive-expression properties, and those properties' settings.  A
#: failure in emitted code is raised at a line that depends on the tree's shape, and Hypothesis
#: takes each line for a bug of its own: reporting them all, it shrinks every one, while its
#: cache of 10,000 results holds each failure's frames, so a slip in a template ran minutes and
#: took gigabytes; shrinking one bug, it reports in seconds
_TREES = st.recursive(_LEAVES, _compound, max_leaves=10)
_TREE_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                          report_multiple_bugs=False)

_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, 1e-130, 1.0, 3.0, -2.0, 700.0, 710.0]),
    st.floats(-20.0, 20.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


#: one stage at c = 0: the least step around the stage
_EULER = RKTableau(name="euler", order=1, a=((),), b=(1.0,), c=(0.0,))


def _x_side(ast, x: float) -> tuple[float, float]:
    """g and g' at ``x`` as xi_rhs's stage reads them, from its frame as it reaches its x == a
    check: bound with a = x, the stage stops there (x = nan passes it, and a g finite at nan
    is a constant, whose jet at nan is too)."""
    literals = []
    shape = expr._shape(ast, literals)
    bind = xi_ode._factory(shape, _EULER)
    _, _, stage = bind(*literals, x, 0.0, xi_ode.F_COEFFICIENT, xi_ode.DEFAULT_DEN_GUARD)
    lines = xi_ode._source(shape, _EULER).splitlines()
    check = next(i for i, line in enumerate(lines, 1) if "if x == a:" in line)  # the stage's
    seen = []

    def trace(frame, event, arg):
        if event == "line" and frame.f_lineno == check:
            seen.append(dict(frame.f_locals))  # its free literals too
        return trace if frame.f_code is stage.__code__ else None
    sys.settrace(trace)
    try:
        with suppress(ConfigError):
            stage(x, x)
    finally:
        sys.settrace(None)
    fields = expr._emit(shape)
    return tuple(eval(fields[w], dict(expr._NAMESPACE), seen[0]) for w in ("w0", "w1"))


@settings(_TREE_SETTINGS, max_examples=300)
@given(text=_TREES, x=_POINTS)
def test_value_is_the_jet_value_and_errors_are_domain_errors(text, x):
    # and the stage's x-side read is the jet's (d0, d1) where the jet is defined
    ast = parse(text)
    try:
        jet = eval_jet(ast, x)
    except DomainError as exc:
        jet, jet_error = None, str(exc)
    try:
        slope = _x_side(ast, x)
    except DomainError as exc:
        slope, slope_error = None, str(exc)
    try:
        value = eval_value(ast, x)
    except DomainError:
        assert jet is None, f"{text} at {x!r}: jet {jet} but no value"
        assert slope is None and slope_error == jet_error
        return
    if jet is not None:
        assert value == jet.d0
        assert _same_floats(slope, jet[:2]), f"{text} at {x!r}: slope {slope}, jet {jet}"
    elif slope is not None:
        assert _same_floats(slope[:1], (value,))


@settings(_TREE_SETTINGS, max_examples=100)
@given(text=_TREES, xs=st.lists(_POINTS, max_size=6))
def test_values_is_the_value_at_each_point_and_fails_at_the_first(text, xs):
    ast, want = parse(text), []
    try:
        for x in xs:
            want.append(eval_value(ast, x).hex())
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            eval_values(ast, xs)
        assert (str(got.value), type(got.value.__cause__)) == (str(exc), type(exc.__cause__))
        return
    assert [v.hex() for v in eval_values(ast, xs)] == want


def _unsigned_zeros(values) -> list:
    """``values``' hex, an exact zero's sign apart (-0.0 + 0.0 is 0.0, any other v + 0.0 is v)."""
    return [(v + 0.0).hex() for v in values]


def _defined(evaluate, *args):
    try:
        return evaluate(*args)
    except DomainError:
        return None


#: points besides the drawn ones, where a tree of x has derivatives whose last bits show
#: a term summed or multiplied in another order than the rule's
_GRID = [k / 7.0 - 3.0 for k in range(1, 80, 3)]


@settings(_TREE_SETTINGS, max_examples=150)
@given(text=_TREES,
       xs=st.lists(_POINTS, min_size=1, max_size=6))
@example(text="(x*x+sin(x))/(x*x+1)", xs=[])  # each rule over operands that are not constants
@example(text="3^(sin(x)*x)", xs=[])
@example(text="tan(x*x/3)-cos(sqrt(x)*exp(-x))+ln(x)*log10(x+1)", xs=[])
@example(text="(x*x+1)^2.5*(x-1)^(1/3)/(1+x^-1)", xs=[])
@example(text="(x*x-3)^1", xs=[1e154, 1e103])  # only the cube u1 ** 3 overflows
@example(text="1/(x*x*2.5)", xs=[1e300])  # only v * 0.0 shows that v overflowed
@example(text="x*ln(1e-320)+sqrt(0)", xs=[])  # only g' * 0.0 shows that g' failed
@example(text="ln(x)^0+(x-1)^(1/3)", xs=[0.0, 1.0, -1.0])
def test_emitted_code_matches_the_reference_interpreter(text, xs):
    # the emitter's contract, against the unfolded rules of helpers.reference_jet: every
    # value and every nonzero derivative equal bit for bit, exact zeros up to their sign,
    # and a DomainError exactly where the interpreter raises or is not finite; so one
    # Fehlberg-7 step of the xi-ODE ends as the interpreter's step does
    ast = parse(text)
    for x in xs + _GRID:
        jet, want = _defined(eval_jet, ast, x), reference_defined(ast, x)
        assert (jet is None) == (want is None), (text, x, jet, want)
        if jet is not None:
            assert jet.d0.hex() == want[0].hex(), (text, x, jet, want)
            assert _unsigned_zeros(jet[1:]) == _unsigned_zeros(want[1:]), (text, x, jet, want)
        value, want = _defined(eval_value, ast, x), reference_defined(ast, x, 0)
        assert (value is None) == (want is None), (text, x, value, want)
        assert value is None or value.hex() == want[0].hex(), (text, x, value, want)
    got = step_outcome(text)
    want = reference_xi_step(shift_by_cubic(ast, STEP_SHIFT, STEP_A), STEP_A, STEP_X, STEP_Y,
                             STEP_H, FEHLBERG7)
    if len(want) == 1:
        assert got[:1] == want, (text, got, want)
    else:
        assert [s.replace("-0x0.0p+0", "0x0.0p+0") for s in got] == want, (text, got, want)


def _power_outcomes(text: str, x: float) -> list:
    """The jet, value and x-side read of ``text`` at ``x`` and one Fehlberg-7 step of its
    xi-ODE, each as hex with zero signs apart, or as the DomainError's or failure's text."""
    out, ast = [], parse(text)
    for evaluate in (partial(eval_jet, ast), partial(eval_value, ast), partial(_x_side, ast)):
        try:
            got = evaluate(x)
            out.append(_unsigned_zeros(got if isinstance(got, tuple) else (got,)))
        except DomainError as exc:
            out.append(f"DomainError: {exc}")
    step = step_outcome(text)
    return out + [[s.replace("-0x0.0p+0", "0x0.0p+0") for s in step]]


_LITERAL_EXPONENTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, -1.0, -2.5, 0.5, 1.25])
#: bases whose d1 cubed overflows: at |x| above about 3e102, and everywhere but near zeros of cos
_OVERFLOWING_CUBES = st.sampled_from(["x*x-3", "sin(x)*1e150"])


@settings(_TREE_SETTINGS, max_examples=150)
@given(base=st.one_of(_OVERFLOWING_CUBES, _TREES),
       r=_LITERAL_EXPONENTS, x=st.one_of(_POINTS, st.floats(1e102, 1e154)))
@example(base="x*x-3", r=1.0, x=1e103)
@example(base="x*x-3", r=1.0, x=1e154)
@example(base="x", r=1e150, x=1.0)  # r (r - 1) (r - 2) is inf
@example(base="x", r=-1e150, x=1.0)
def test_folded_literal_exponent_matches_the_per_call_power(base, r, x):
    # a literal exponent's power rule is folded where the code is emitted; the same
    # exponent as (r)*1 takes the per-call rule, which this fold leaves as it was
    literal, per_call = f"({base})^{r!r}", f"({base})^(({r!r})*1)"
    assert _power_outcomes(literal, x) == _power_outcomes(per_call, x), (literal, x)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(x=_POINTS)
@example(x=0.0)
@example(x=-1.0)
def test_a_zeroth_power_matches_the_per_call_power(x):
    assert _power_outcomes("ln(x)^0", x) == _power_outcomes("ln(x)^((0)*1)", x), x


def test_a_zeroth_power_emits_none_of_its_bases_derivatives():
    # u^0's derivatives are 0.0 whatever u's, so only u's d0 statements, which can raise, stay
    for source in _emitted(expr._shape(parse("ln(x)^0"), [])):
        assert "ln(x)" in source and "1.0 / x" not in source


def test_the_folded_powers_are_exact_for_every_double():
    # u^1 is folded to u and u^0 to 1.0; math.pow agrees, zero signs and NaN included
    rng = random.Random(23)
    powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    specials = [0.0, math.inf, math.nan, 5e-324, sys.float_info.max]
    doubles = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
               for _ in range(10_000)]
    for u in [s * v for v in powers + specials for s in (1.0, -1.0)] + doubles:
        assert struct.pack("<d", math.pow(u, 1.0)) == struct.pack("<d", u), u.hex()
        assert struct.pack("<d", math.pow(u, 0.0)) == struct.pack("<d", 1.0), u.hex()


def test_constant_base_power_jet():
    jet = eval_jet(parse("2^x"), 1.5)
    ln2 = math.log(2.0)
    v = 2.0 ** 1.5
    assert jet.d0 == pytest.approx(v, rel=1e-15)
    assert jet.d1 == pytest.approx(v * ln2, rel=1e-14)
    assert jet.d2 == pytest.approx(v * ln2 ** 2, rel=1e-14)
    assert jet.d3 == pytest.approx(v * ln2 ** 3, rel=1e-14)


def test_integer_power_of_negative_base():
    jet = eval_jet(parse("x^3"), -2.0)
    assert jet == Jet3(-8.0, 12.0, -12.0, 6.0)


def test_fractional_power_jet():
    jet = eval_jet(parse("x^2.5"), 4.0)
    assert jet.d0 == pytest.approx(32.0, rel=1e-15)
    assert jet.d1 == pytest.approx(2.5 * 4.0 ** 1.5, rel=1e-15)
    assert jet.d2 == pytest.approx(2.5 * 1.5 * 2.0, rel=1e-15)
    assert jet.d3 == pytest.approx(2.5 * 1.5 * 0.5 * 0.5, rel=1e-15)


def _same_floats(got, want) -> bool:
    """Equal bit for bit: signed zeros apart, NaN equal to itself."""
    return got is not None and [v.hex() for v in got] == [v.hex() for v in want]


def _outcome(evaluate, ast, x):
    try:
        return repr(evaluate(ast, x))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_jets_and_values_match_the_recorded_evaluator():
    """Bit-identity guard: every (expression, point) pair in the golden
    file gives the same jet and value reprs, or the same DomainError
    message, as recorded, and the stage's x-side read gives the recorded
    jet's d0 and d1.  The tree-walking evaluator of the unfolded rules
    recorded them; the signs of exact zeros in derivatives are the folded
    emitter's, which drops a product by 0.0 whatever its sign.  The pairs
    cover every node kind and function, domain edges, derivative-only
    failures, c^v, u^0 and fractional and negative exponents.  The
    expected values come from this platform's math library (glibc);
    another libm may round sin, exp or pow differently in the last bit."""
    asts = {}
    mismatches = []
    for line in GOLDEN_JETS.read_text().splitlines():
        text, x, jet, value = json.loads(line)
        ast = asts.setdefault(text, parse(text))
        got = (_outcome(eval_jet, ast, float(x)), _outcome(eval_value, ast, float(x)))
        if got != (jet, value):
            mismatches.append((text, x, got, (jet, value)))
        # the x-side read is the jet's (d0, d1) wherever the jet succeeds, and
        # fails as the jet does wherever the value fails
        try:
            d0, d1 = _x_side(ast, float(x))
            slope = f"Jet3(d0={d0!r}, d1={d1!r}"
        except DomainError as exc:
            slope = f"DomainError: {exc}"
        if jet.startswith("Jet3") and slope != jet.split(", d2=")[0]:
            mismatches.append((text, x, slope, jet))
        if value.startswith("DomainError") and slope != jet:
            mismatches.append((text, x, slope, jet))
    assert len(asts) == 69 and mismatches == []


def _exponents(shape):
    """The right operands of the ``^r`` nodes of a tree shape: a literal's value, else a shape."""
    if not isinstance(shape, tuple):
        return []
    own = [shape[2]] if shape[0] == "^r" else []
    return own + [e for arg in shape[1:] for e in _exponents(arg)]


#: a finiteness test: 0.0 times each slot, +-0.0 where all are finite
_FINITE = re.compile(r"\b0\.0(?: \* -?\w+)+ == 0\.0")


def _stage_arithmetic(text: str) -> int:
    """The arithmetic instructions (BINARY_OP and UNARY_NEGATIVE, as CPython 3.11
    names them) of the compiled xi-ODE stage of ``text``'s shape at an abscissa whose
    terms are read: past its x-side read, and apart from its finiteness tests."""
    source = xi_ode._source(expr._shape(parse(text), []), FEHLBERG7)
    lines = source.splitlines()
    start, end = (next(i for i, line in enumerate(lines, 1) if key in line)
                  for key in ("def stage(", "x_s, x = x, xi"))
    skip = set(range(start, end)) | {i for i, line in enumerate(lines, 1) if _FINITE.search(line)}
    pending = [compile(source, "<s>", "exec")]
    while (code := pending.pop()).co_name != "stage":
        pending += [c for c in code.co_consts if hasattr(c, "co_consts")]
    return sum(op.opname in ("BINARY_OP", "UNARY_NEGATIVE") and op.positions.lineno not in skip
               for op in dis.get_instructions(code))


def _distinct(source: str) -> str:
    """``source``'s lines, each once, in order: all that a check line by line reads."""
    return "\n".join(dict.fromkeys(source.splitlines()))


#: the templates' lines that read the x-side's g, g' and the jet's d2, d3 as they are
_TERMS = re.compile(r"^ *(P\w* =|den =|k\d+ =|return \(P|x = x_n \+).*$", re.M)


#: what an ``except UNDEFINED:`` handler guards: the derivative body on the line after its try
_HANDLED = re.compile(r"try:\n *(.*)\n *except UNDEFINED:")


@pytest.mark.parametrize("text,nodes", [
    *((text, 0) for text in ("sin(x)", "cos(x)", "tan(x)", "exp(x)", "x^2")),
    *((text, 1) for text in ("ln(x)", "log10(x)", "sqrt(x)", "x^0.5", "x^(1/3)", "2^x")),
])
def test_only_derivatives_that_can_raise_are_guarded(text, nodes):
    # float +, - and * never raise, and sin and cos only at +-inf, where the node's own d0
    # has raised first: a handler guards a quotient, a power or another call, once per such
    # node in each jet block and each slope block
    evaluators, step = _emitted(expr._shape(parse(text), []))
    assert len(_HANDLED.findall(evaluators)) == nodes, text
    blocks = step.count("x_s, x = x, ") + step.count("if x == a:")  # jets, slopes
    assert len(_HANDLED.findall(step)) == nodes * blocks, text


def test_every_handler_guards_a_body_that_can_raise():
    for text in {json.loads(line)[0] for line in GOLDEN_JETS.read_text().splitlines()}:
        for source in _emitted(expr._shape(parse(text), [])):
            for body in _HANDLED.findall(source):
                assert re.search(r"/|\*\*|\b(?!sin\(|cos\()\w+\(", body), (text, body)


def test_emitted_code_folds_ones_and_literal_exponent_terms():
    # x's jet is (x, 1.0, 0.0, 0.0) and a literal's (c, 0.0, 0.0, 0.0): x * 1.0 == x
    # for every double, so no emitted source multiplies by 1.0, nor by 0.0 or -0.0,
    # whose products the derivative rules drop; a literal exponent's r - 1, r - 2,
    # r - 3 are folded where the code is emitted, a negated literal's too (x^-1),
    # and with them pow(u, 1.0) to u and pow(u, 0.0) to 1.0; any other constant
    # exponent's are computed per call; and no derivative keeps an exact zero's sign by a
    # + 0.0 or a 0.0 - t, unshifted or at D = 2 (the step's x_n + 0.0 * h and (0.0 + ...)
    # are RKTableau.step's roundings)
    texts = {json.loads(line)[0] for line in GOLDEN_JETS.read_text().splitlines()}
    ones = re.compile(r"\* 1\.0(?![\w.])|(?<![\w.])1\.0 \*")
    constants = re.compile(r"\* -?[01]\.0(?![\w.])|(?<![\w.])-?[01]\.0 \*")
    zero_sign = re.compile(r"(^ *|; )[gsw][0-3]_\d+ = (0\.0 - |[^;\n]* \+ 0\.0(;|$))", re.M)
    counts = {"lit": 0, "other": 0}
    for text in texts:
        shape = expr._shape(parse(text), [])
        shifted = expr._shape(shift_by_cubic(parse(text), 2.0, 1.0), [])
        kinds = {"lit" if isinstance(e, float) else "other" for e in _exponents(shape)}
        for tableau in (FEHLBERG7, RK4, HEUN3):  # the stage, and each stage of the step inline
            source = xi_ode._source(shape, tableau)
            for emitted in (source, xi_ode._source(shifted, tableau)):
                assert not zero_sign.search(emitted), (text, tableau.name)
            step = source.split("def step")[1]
            assert source.count("x_s, x = x, ") == tableau.stages + 1, text
            assert len(re.findall(r"^ +k\d+ = \(", step, re.M)) == tableau.stages, text
            assert not re.search(r"\bstage\(", step), text  # which calls no stage
            # every x-side read and jet, but for the templates' lines that read their
            # slots as they are and the finiteness tests' factors 0.0
            blocks = _FINITE.sub("", _TERMS.sub("", _distinct(source.split("def stage")[1])))
            assert not constants.search(blocks), (text, tableau.name)
        assert not zero_sign.search(expr._source(shape) + expr._source(shifted)), text
        for source in map(_distinct, _emitted(shape)):
            _, bind, per_call = source.split("def ", 2)
            assert not ones.search(bind + per_call), text
            assert not re.search(r"lit\d+ - [123]\.0", source), text
            assert not re.search(r"pow(_value)?\([^,()]+, (-?0|1)\.0[,)]", source), text
            assert ("other" in kinds) == bool(re.search(r"w0_\d+ - 1\.0\)", per_call)), text
        assert not constants.search(_FINITE.sub("", expr._source(shape).split("def ", 2)[2])), text
        counts.update({kind: counts[kind] + 1 for kind in kinds})
    assert len(texts) == 69 and counts == {"lit": 18, "other": 3}
    # the folded stage's arithmetic, counted in its bytecode: each bound is the stage's count
    # under CPython 3.11.7 (54, 15 and 34), so that a stage that grows by one instruction fails
    assert _stage_arithmetic("x^2*(sin(x)*ln(2+x)-100*x)") <= 54
    assert _stage_arithmetic("sin(0.7*x+0.3)") <= 15
    assert _stage_arithmetic("sin(0.7*x+0.3)+2*(x-1)^3/6") <= 34
