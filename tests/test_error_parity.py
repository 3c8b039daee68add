"""The sweep's right-hand side is one emitted kernel per integrand shape;
it fails exactly as the per-stage path it replaced did (``xi_rhs``'s own
arithmetic over the ``eval_jet`` and slope-function wrappers).  Every
expectation below was recorded from that path: the exception's type,
message, abscissa, arguments and phase from ``run()``, and the exit code
and one diagnostic line from the CLI.  The one departure is by design: an
error in the jet at xi is located at the sweep's x, and its message names
xi ("... for xi=... at x=..."), where that path located it at xi alone."""

import math

import pytest

from trapcorr import (ConfigError, DomainError, ProblemSpec, SingularDenominatorError, parse,
                      run, xi_rhs)
from trapcorr.cli import main
from trapcorr.expr import eval_jet, eval_value

#: name: (f, a, b, x0, h, ref_tol, root_tol), error type, its args, its .x
RUNS = {
    # the inner exp overflows at xi, which the sweep has driven far past b
    "xi-inner-overflow": (("exp(exp(x))", 1.0, 7.0, 2.0, 0.01, 1e-3, 1e-2), DomainError,
                          ("overflow: math range error for xi=7.727723430810782e+194 "
                           "at x=6.3100000000000005",), 6.3100000000000005),
    # the outer exp overflows at xi, just past where g does
    "xi-outer-overflow": (("exp(exp(x))", 0.0, 7.0, 1.0, 0.01, 1e-3, 1e-2), DomainError,
                          ("overflow: math range error for xi=6.569072034370699 "
                           "at x=6.3100000000000005",), 6.3100000000000005),
    # g''' at xi overflows to inf
    "xi-non-finite": (("exp(x^2)", 1.0, 27.0, 2.0, 0.1, 1e-6, 1e-5), DomainError,
                      ("non-finite jet component for xi=26.516489693822503 "
                       "at x=26.400000000000002",), 26.400000000000002),
    "division-by-zero": (("1/(x-2.5)", 1.0, 4.0, 2.0, 0.01, 1e-13, 1e-12), DomainError,
                         ("division by zero at x=2.5",), 2.5),
    # g' at the abscissa x = 3 is infinite
    "x-non-finite": (("sqrt(3-x)", 1.0, 4.0, None, 0.01, 1e-13, 1e-12), DomainError,
                     ("non-finite jet component at x=3.0",), 3.0),
    "singular": (("x^2", 0.0, 4.0, None, 0.01, 1e-13, 1e-12), SingularDenominatorError,
                 (2.0, 1.0, 0.0), 2.0),
    # t^3 g'''(xi) under the guard in the reverse sweep's last step, near a
    "singular-near-a": (("sin(x+0.3)", 1.0, 4.0, None, 0.002, 1e-13, 1e-12),
                        SingularDenominatorError,
                        (1.0031666666666668, 1.001582484611251, -8.445895646207404e-09),
                        1.0031666666666668),
}

#: name: the CLI's exit code and its one line on stderr
CLI = {
    "xi-inner-overflow": (5, "[ode] overflow: math range error for xi=7.727723430810782e+194 "
                             "at x=6.3100000000000005"),
    "xi-outer-overflow": (5, "[ode] overflow: math range error for xi=6.569072034370699 "
                             "at x=6.3100000000000005"),
    "xi-non-finite": (5, "[ode] non-finite jet component for xi=26.516489693822503 "
                         "at x=26.400000000000002"),
    "division-by-zero": (5, "[ode] division by zero at x=2.5"),
    "x-non-finite": (5, "[ode] non-finite jet component at x=3.0"),
    "singular": (3, "[ode] denominator 0.0 below guard at x=2.0, xi=1.0; rerun with --shift-D 1"),
    "singular-near-a": (3, "[ode] denominator -8.445895646207404e-09 below guard at "
                           "x=1.0031666666666668, xi=1.001582484611251; rerun with --shift-D 1"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_fails_as_before(name):
    (f, a, b, x0, h, ref_tol, root_tol), kind, args, x = RUNS[name]
    spec = ProblemSpec.from_text(f, a, b, x0=x0, h=h, ref_tol=ref_tol, root_tol=root_tol)
    with pytest.raises(kind) as exc:
        run(spec)
    assert type(exc.value) is kind
    assert exc.value.args == args and exc.value.x == x and exc.value.phase == "ode"


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_fails_as_before(name, capsys):
    (f, a, b, x0, h, ref_tol, root_tol), *_ = RUNS[name]
    argv = ["integrate", "--f", f, "--a", repr(a), "--b", repr(b), "--h", repr(h),
            "--ref-tol", repr(ref_tol), "--root-tol", repr(root_tol)]
    code = main(argv + ([] if x0 is None else ["--x0", repr(x0)]))
    captured = capsys.readouterr()
    assert (code, captured.err) == (CLI[name][0], f"trapcorr: {CLI[name][1]}\n")
    assert captured.out == ""


SQRT = ProblemSpec.from_text("sqrt(x)", 1.0, 4.0)
SIN = ProblemSpec.from_text("sin(x)", 1.0, 10.0)
EXP = ProblemSpec.from_text("exp(x)", 1.0, 800.0)
TAN = ProblemSpec.from_text("tan(x)", 0.0, 1.0)


@pytest.mark.parametrize("call,message,x,cause", [
    (lambda: xi_rhs(EXP, 710.0, 2.0), "overflow: math range error at x=710.0", 710.0,
     OverflowError),
    (lambda: xi_rhs(SQRT, 2.0, -1.0), "sqrt of negative value -1.0 for xi=-1.0 at x=2.0", 2.0,
     None),
    (lambda: xi_rhs(SIN, 2.0, math.inf), "undefined: math domain error for xi=inf at x=2.0", 2.0,
     ValueError),
    (lambda: xi_rhs(SIN, 2.0, math.nan), "non-finite jet component for xi=nan at x=2.0", 2.0,
     None),
    (lambda: eval_jet(parse("exp(x)"), 710.0), "overflow: math range error at x=710.0", 710.0,
     OverflowError),
    (lambda: eval_value(parse("exp(x)"), 710.0), "overflow: math range error at x=710.0", 710.0,
     OverflowError),
    # the stage reads g and g' at x first: an error there is x's, whatever xi's would be
    (lambda: xi_rhs(EXP, 710.0, 800.0), "overflow: math range error at x=710.0", 710.0,
     OverflowError),
    (lambda: eval_value(parse("x^3"), 1e300), "overflow: math range error at x=1e+300", 1e300,
     OverflowError),
    (lambda: eval_jet(parse("sin(x)"), math.inf), "undefined: math domain error at x=inf",
     math.inf, ValueError),
    (lambda: eval_value(parse("cos(x)"), -math.inf), "undefined: math domain error at x=-inf",
     -math.inf, ValueError),
    (lambda: xi_rhs(TAN, math.inf, 0.5), "undefined: math domain error at x=inf", math.inf,
     ValueError),
])
def test_evaluators_fail_as_before(call, message, x, cause):
    # at x and at xi inside the kernel, and at x in each emitted evaluator
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.args == (message,)
    assert exc.value.x == x or math.isnan(x) and math.isnan(exc.value.x)
    assert type(exc.value.__cause__) is (type(None) if cause is None else cause)


def test_rhs_at_the_lower_limit_fails_as_before():
    # a violated precondition of the call, so a package error: the message is the old one
    with pytest.raises(ConfigError) as exc:
        xi_rhs(SQRT, 1.0, 0.5)
    assert type(exc.value) is ConfigError
    assert exc.value.args == ("xi_rhs is undefined at x == a",)
