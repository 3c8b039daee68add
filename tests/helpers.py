"""Property-check helpers shared between module tests and the acceptance
suite.  Each returns a (worst, detail) pair so callers can assert with a
useful message."""

import argparse
import math
import random
import sys
from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import islice
from operator import add, mul, neg, sub, truediv

from trapcorr import ConfigError, ReferenceResult, ToleranceError, quadrature
from trapcorr import DomainError, SingularDenominatorError, xi_ode
from trapcorr import cli, eval_jet, eval_value, parse, reference_integral
from trapcorr.expr import BinOp, Call, Const, Neg, Num, Var, contains_var
from trapcorr.pipeline import _write_text, emit_csv, emit_xi_csv

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


# ------------------------------------------------------ reference jets
#
# An interpreter for the order-3 Taylor jets that trapcorr.expr emits code
# for: it walks the tree and applies each rule as written, its terms in the
# order of the emitter's rule table, none dropped or folded (Griewank &
# Walther, *Evaluating Derivatives*, ch. 13).  It shares no rule or function
# table with the emitter, so the emitted code can be checked against it.

#: per function: g, then g' from (u, g(u)), then g'' and g''' from (u, g(u), g')
_CALLS = {
    "sin": (math.sin, lambda u, w: math.cos(u), lambda u, w, g1: (-w, -g1)),
    "cos": (math.cos, lambda u, w: -math.sin(u), lambda u, w, g1: (-w, -g1)),
    "tan": (math.tan, lambda u, w: 1.0 + w * w,
            lambda u, w, g1: (2.0 * w * g1, 2.0 * g1 * (1.0 + 3.0 * w * w))),
    "exp": (math.exp, lambda u, w: w, lambda u, w, g1: (w, w)),
    "ln": (math.log, lambda u, w: 1.0 / u, lambda u, w, g1: (-g1 * g1, 2.0 * g1 ** 3)),
    "log10": (math.log10, lambda u, w: 1.0 / (u * math.log(10.0)),
              lambda u, w, g1: (-g1 / u, 2.0 * g1 / (u * u))),
    "sqrt": (math.sqrt, lambda u, w: 0.5 / w,
             lambda u, w, g1: (-0.5 * g1 / u, 0.75 * g1 / (u * u))),
}


def _real_pow(u: float, r: float) -> float:
    """u^r over the reals: undefined for u < 0 and a fractional r (math.pow gives
    pow(-inf, -2.5) as 0.0, and raises itself for a finite u or a zero u and r < 0)."""
    if u < 0.0 and not r.is_integer():
        raise ValueError(f"{u!r} ** {r!r} is not real")
    return math.pow(u, r)


def _chain(u, g1, g23):
    """Faa di Bruno's formula: w', w'', w''' of w = g(u) from g' and, called when
    they are needed, ``g23()`` = (g'', g''')."""
    yield g1 * u[1]
    g2, g3 = g23()
    yield g2 * u[1] * u[1] + g1 * u[2]
    yield g3 * u[1] ** 3 + 3.0 * g2 * u[1] * u[2] + g1 * u[3]


def _terms(node, x: float, u=None, v=None):
    """``node``'s value at ``x``, then its first, second and third derivatives, each
    computed when it is asked for, from the jets ``u`` and ``v`` of its operands."""
    if isinstance(node, Var):
        yield from (x, 1.0, 0.0, 0.0)
    elif isinstance(node, (Num, Const)):
        yield node.value if isinstance(node, Num) else {"pi": math.pi, "e": math.e}[node.name]
        yield from (0.0, 0.0, 0.0)
    elif isinstance(node, Neg):
        yield from map(neg, u)
    elif isinstance(node, Call):
        g, g1, g23 = _CALLS[node.func]
        yield (w := g(u[0]))
        yield from _chain(u, (d1 := g1(u[0], w)), lambda: g23(u[0], w, d1))
    elif node.op in "+-":
        yield from map(add if node.op == "+" else sub, u, v)
    elif node.op == "*":  # Leibniz
        yield u[0] * v[0]
        yield u[1] * v[0] + u[0] * v[1]
        yield u[2] * v[0] + 2.0 * u[1] * v[1] + u[0] * v[2]
        yield u[3] * v[0] + 3.0 * u[2] * v[1] + 3.0 * u[1] * v[2] + u[0] * v[3]
    elif node.op == "/":  # w = u / v, so u = w v: Leibniz solved for w's terms
        yield (w0 := u[0] / v[0])
        yield (w1 := (u[1] - w0 * v[1]) / v[0])
        yield (w2 := (u[2] - w0 * v[2] - 2.0 * w1 * v[1]) / v[0])
        yield (u[3] - w0 * v[3] - 3.0 * w1 * v[2] - 3.0 * w2 * v[1]) / v[0]
    elif not contains_var(node.right):  # u^r, r constant: g_k = r (r-1) .. (r-k+1) u^(r-k)
        if (r := v[0]) == 0.0:
            yield from (1.0, 0.0, 0.0, 0.0)
            return
        yield _real_pow(u[0], r)
        s2 = r * (r - 1.0)
        s3 = s2 * (r - 2.0)
        yield from _chain(u, r * _real_pow(u[0], r - 1.0), lambda: (
            0.0 if s2 == 0.0 else s2 * _real_pow(u[0], r - 2.0),
            0.0 if s3 == 0.0 else s3 * _real_pow(u[0], r - 3.0)))
    else:  # b^v, b constant: exp(s) for s = v ln b, whose derivatives are all b^v
        yield (w := _real_pow(u[0], v[0]))
        ln_b = math.log(u[0])
        yield from _chain((None, v[1] * ln_b, v[2] * ln_b, v[3] * ln_b), w, lambda: (w, w))


def reference_jet(node, x: float, order: int = 3) -> tuple:
    """``node``'s value and first ``order`` derivatives at ``x``, by the rules unfolded.

    Raises ArithmeticError or ValueError where a value is undefined.  Where a node's
    value is defined but a derivative through ``order`` is not, all of that node's
    derivatives are NaN, and with them those of every node that reads them.  A jet of
    order 1 computes no second or third derivative."""
    operands = ((node.arg,) if isinstance(node, (Neg, Call))
                else (node.left, node.right) if isinstance(node, BinOp) else ())
    terms = _terms(node, x, *[(*reference_jet(arg, x, order), math.nan, math.nan)[:4]
                              for arg in operands])
    value = next(terms)
    try:
        return (value, *islice(terms, order))
    except (ArithmeticError, ValueError):
        return (value,) + (math.nan,) * order


def reference_defined(node, x: float, order: int = 3) -> tuple | None:
    """:func:`reference_jet`, or None where it raises or a component is not finite."""
    try:
        jet = reference_jet(node, x, order)
    except (ArithmeticError, ValueError):
        return None
    return jet if all(map(math.isfinite, jet)) else None


def reference_xi_step(g, a: float, x: float, y: float, h: float, tableau) -> list:
    """One step of ``tableau`` on the xi-ODE of ``g`` from (x, y) by h, the slope as
    trapcorr.xi_ode's module docstring states it, over :func:`reference_jet`: g and g'
    at x, a jet at xi.  [new y hex, g''(y) hex], or [the error's type name]."""
    records = []

    def rhs(x_s: float, xi: float) -> float:
        (g_x, dg_x), jet = reference_defined(g, x_s, 1) or (None, None), reference_defined(g, xi)
        if g_x is None or jet is None:
            raise DomainError("undefined or non-finite jet", x_s)
        t = x_s - a
        den = (t3 := t ** 3) * jet[3]
        if abs(den) < xi_ode.DEFAULT_DEN_GUARD * (1.0 + abs(t3)):
            raise SingularDenominatorError(x_s, xi, den)
        records.append(jet[2])
        return (xi_ode.F_COEFFICIENT * g_x + 6.0 * g_a + 6.0 * t * dg_x
                - 3.0 * t * t * jet[2]) / den

    try:
        if (at_a := reference_defined(g, a)) is None:  # a spec needs g's whole jet at a
            raise DomainError("undefined or non-finite jet", a)
        g_a = at_a[0]
        return [tableau.step(rhs, x, y, h).hex(), records[0].hex()]
    except (DomainError, SingularDenominatorError) as exc:
        return [type(exc).__name__]


# ----------------------------------------------------------------- oracle
#
# The integral of a trapcorr tree by the tanh-sinh (double-exponential) rule in
# decimal arithmetic (Takahasi & Mori, "Double exponential formulas for numerical
# integration", 1974).  It walks the tree itself and shares no table or routine
# with trapcorr.expr, trapcorr.quadrature or reference_jet: truth where tier-1 has
# no closed form, by a rule and an arithmetic that Romberg's table does not use.

#: significant digits of the oracle's arithmetic
ORACLE_DIGITS = 40


@lru_cache(maxsize=16)
def _decimal_pi(digits: int) -> Decimal:
    """pi to ``digits`` digits, by the ``decimal`` documentation's recipe."""
    with localcontext() as ctx:
        ctx.prec = digits + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext() as ctx:
        ctx.prec = digits
        return +s


def _decimal_cos(x: Decimal, sine: bool = False) -> Decimal:
    """cos(x), or sin(x) as cos(x - pi/2), by the recipe's Taylor series, after x is reduced
    mod 2 pi with as many more digits as x has before its point: the reduced argument keeps
    the context's."""
    with localcontext() as ctx:
        ctx.prec += 5 + max(x.adjusted(), 0)
        pi = _decimal_pi(ctx.prec)
        x -= pi / 2 if sine else 0
        x -= 2 * pi * (x / (2 * pi)).to_integral_value()
        i, lasts, s, fact, num, sign = 0, 0, Decimal(1), 1, 1, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign = -sign
            s += num / fact * sign
    return +s


def _decimal_value(node, x: Decimal) -> Decimal:
    """``node``'s value at ``x`` in the current decimal context: a literal or constant is the
    double that the parsed tree holds, exactly; exp, ln, log10 and sqrt are Decimal's own."""
    if isinstance(node, Var):
        return x
    if isinstance(node, (Num, Const)):
        return Decimal(node.value if isinstance(node, Num) else getattr(math, node.name))
    if isinstance(node, Neg):
        return -_decimal_value(node.arg, x)
    if isinstance(node, Call):
        u = _decimal_value(node.arg, x)
        if node.func == "tan":
            return _decimal_cos(u, sine=True) / _decimal_cos(u)
        if node.func in ("sin", "cos"):
            return _decimal_cos(u, sine=node.func == "sin")
        return getattr(u, node.func)()
    operation = {"+": add, "-": sub, "*": mul, "/": truediv, "^": pow}[node.op]
    return operation(_decimal_value(node.left, x), _decimal_value(node.right, x))


def decimal_integral(node, a: float, b: float) -> Decimal:
    """The integral of ``node`` over [a, b] by the tanh-sinh rule in ``decimal`` at
    ORACLE_DIGITS significant digits.  Its nodes are x = a + (b - a)/2 (1 - tanh v),
    v = pi sinh u, and their mirrors about the midpoint, weighted pi cosh u / cosh^2 v, at
    u = 0, h, 2h, ... out to the weight 10^-(ORACLE_DIGITS + 5).  h halves from 1 until two
    levels agree to half the digits, relative to the integral of |f|: the next halving would
    about square that error.  Raises what Decimal raises where the integrand is undefined at
    a node, and ArithmeticError where 10 levels do not agree."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        lo, hi, half_pi = Decimal(a), Decimal(b), _decimal_pi(ORACLE_DIGITS) / 2
        half, tiny = (hi - lo) / 2, Decimal(10) ** -(ORACLE_DIGITS + 5)
        agree = Decimal(10) ** -(ORACLE_DIGITS // 2)

        def weighted(u: Decimal) -> tuple:  # the weight at u, and f at its two nodes
            e = u.exp()
            ev = (half_pi * (e - 1 / e)).exp()  # e^v
            delta = 2 / (ev * ev + 1)  # 1 - tanh v, without cancellation
            weight = half_pi * (e + 1 / e) * 4 / (ev + 1 / ev) ** 2
            return (weight, _decimal_value(node, lo + half * delta),
                    _decimal_value(node, hi - half * delta))

        weight, f_mid, _ = weighted(Decimal(0))  # u = 0 is one node: the midpoint
        total, total_abs, h, estimate = weight * f_mid, weight * abs(f_mid), Decimal(1), None
        for level in range(10):  # level 0 takes every u = k h, each next one the odd k
            k = 1
            while (terms := weighted(k * h))[0] >= tiny:
                weight, f_lo, f_hi = terms
                total += weight * (f_lo + f_hi)
                total_abs += weight * (abs(f_lo) + abs(f_hi))
                k += 1 if level == 0 else 2
            value = half * h * total
            if estimate is not None and abs(value - estimate) <= agree * abs(half) * h * total_abs:
                return value
            estimate, h = value, h / 2
    raise ArithmeticError(f"tanh-sinh levels did not agree over [{a!r}, {b!r}]")


class _Parser(argparse.ArgumentParser):
    """argparse with single-line diagnostics, a stable help width, and help
    written as any other output is."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault(
            "formatter_class",
            lambda prog: argparse.HelpFormatter(
                prog, width=88, max_help_position=28))
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = cli._NEGATIVE_NUMBER

    def print_help(self, file=None):
        return cli._emit(_write_text, self.format_help(), file)

    def error(self, message):
        print(f"{cli.PROG}: [args] {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_run_command(sub, name: str, summary: str, writer) -> None:
    """A subcommand that runs the problem its flags state and writes the curve with ``writer``."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--f", required=True, metavar="EXPR",
                   help="integrand expression in x, e.g. 'sin(x)'")
    p.add_argument("--a", required=True, type=float, help="lower limit")
    p.add_argument("--b", required=True, type=float, help="upper limit")
    p.add_argument("--x0", type=float, default=None,
                   help="seed abscissa for the bootstrap (default: midpoint of [a, b])")
    p.add_argument("--h", required=True, type=float, help="RK step size")
    p.add_argument("--shift-D", type=float, default=0.0, dest="shift_d",
                   help="cubic shift constant D; g = f + D*(x-a)^3/6 (default: 0)")
    p.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                   help="RK tableau to integrate with (default: builtin)")
    if name == "integrate":  # xi-curve writes no column that these fill
        p.add_argument("--reference", action="store_true",
                       help="attach a reference-integral column (slow; default: off)")
        p.add_argument("--residual", action="store_true",
                       help="attach corrected-minus-reference column, implies "
                            "--reference (default: off)")
    p.add_argument("--ref-tol", type=float, default=1e-13,
                   help="absolute tolerance of reference integrals (default: 1e-13)")
    p.add_argument("--root-tol", type=float, default=1e-12,
                   help="residual tolerance of the bootstrap root solve "
                        "(default: 1e-12)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output CSV path (default: stdout)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="progress notes on stderr")
    p.set_defaults(func=cli._cmd_run, writer=writer, reference=False, residual=False)


def reference_parser() -> argparse.ArgumentParser:
    """``trapcorr``'s flags as an argparse parser: the reference whose exit codes, output and
    fields ``trapcorr.cli``'s own parse must match, with Python 3.11's argparse."""
    parser = _Parser(
        prog=cli.PROG,
        description="Trapezium quadrature with its error term recovered by "
                    "integrating an ODE for the mean-value point.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    _add_run_command(sub, "integrate", "run the corrected quadrature, write CSV", emit_csv)
    _add_run_command(sub, "xi-curve", "write only the (x, xi) columns", emit_xi_csv)

    p_ord = sub.add_parser(
        "order-test", help="measure the tableau's empirical convergence order")
    p_ord.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                       help="RK tableau to measure")
    p_ord.set_defaults(func=cli._cmd_order_test)

    p_tab = sub.add_parser("tableau-check", help="validate a tableau file")
    p_tab.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                       help="RK tableau to check")
    p_tab.set_defaults(func=cli._cmd_tableau_check)
    return parser
