"""Right-hand side of the mean-value-point ODE and the cubic-shift
transform that keeps its denominator away from zero.

Differentiating the identity

    integral_a^x f  =  (x-a)/2 * (f(a) + f(x))  -  (x-a)^3/12 * f''(xi(x))

with respect to x and solving for xi'(x) gives

    xi' = [-6 f(x) + 6 f(a) + 6 (x-a) f'(x) - 3 (x-a)^2 f''(xi)]
          / [(x-a)^3 f'''(xi)].

The -6 coefficient on f(x) is fixed by that derivation and is gated by a
residual test on the identity itself (see the pipeline test suite);
:func:`xi_rhs` and :func:`bind_step` read it from the module constant ``F_COEFFICIENT``, so
tests can patch in a wrong value and show that it destroys the residual.

When f''' comes close to zero the denominator degenerates.  Working with
g = f + D*(x-a)^3/6 instead moves the third derivative to f''' + D and
keeps g(a) = f(a).  The cubic's own trapezium error term is the single
term -D*(x-a)^4/24, so the shift is exactly reversible without
cancellation, however far [a, b] lies from the origin.  Every function
here takes the problem as a :class:`~trapcorr.pipeline.ProblemSpec`,
which builds g and g(a) once.

Each stage, of :func:`xi_rhs` or inline in the sweep's step, reads g and g' at x and the full
jet only at xi, whose errors it raises at x, xi as their ``xi``.  It compiles per (shape, tableau).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError, SingularDenominatorError
from .expr import _NAMESPACE, ExprAST, _compiled, _emit, _shape, eval_jet

if TYPE_CHECKING:
    from .pipeline import ProblemSpec

__all__ = ["bind_step", "xi_rhs", "error_term", "unshift_error", "suggest_shift"]

#: |denominator| guard threshold scale: singular below eps * (1 + |x-a|^3)
DEFAULT_DEN_GUARD = 1e-8

#: numerator coefficient on f(x); any other value breaks the identity
F_COEFFICIENT = -6.0


#: the terms of xi's slope that x alone fixes, for node n: g and g' at x by the evaluators'
#: slope block, then t^3, the guard's threshold and P, Q of the numerator P - Q g''(xi)
_READ = """\
{slope}
if not 0.0{fin0}{fin1} == 0.0: raise DomainError("non-finite jet component", x)
if x == a: raise ConfigError("xi_rhs is undefined at x == a")
t = x - a; t3{n} = t ** 3; thr{n} = guard * (1.0 + abs(t3{n}))
P{n} = F * {w0} + g_a6 + {t_dg}; Q{n} = 3.0 * t * t"""

#: the slope {k} at (x, xi) from node n's terms and the jet block at xi, by its name there,
#: x: its DomainError is raised at x_s, the stage's x, and at xi
_JET = """\
x_s, x = x, {xi}
{jet}
if not 0.0{fin0}{fin1}{fin2}{fin3} == 0.0: raise DomainError("non-finite jet component", x_s, x)
den = t3{n} * {w3}
if abs(den) < thr{n}: raise SingularDenominatorError(x_s, x, den)
{k} (P{n} - Q{n} * {w2}) / den"""

#: the xi-ODE, bound per run: its stage(x, xi), and the sweep's step(x, y, h) by a tableau's
#: literals, whose stages are the stage's statements and whose stage 0 appends g''(xi) to records
_XI = """\
def bind({literals}a, g_a, F, guard):
    g_a6, carry, record = 6.0 * g_a, (nan,) * 5, (records := []).append
    def stage(x, xi):
{stage}
    def step(x_n, y, h):
        nonlocal carry
{stages}
    return step, records, stage
"""


def _source(shape, tableau) -> str:
    """One shape's stage and sweep step by ``tableau``, its coefficients written in as literals.
    The step's stage i is x = x_n + c_i h, then k_i the slope at y + h a_ij k_j + ..., and it
    returns y + h (0.0 + b_i k_i + ...), each sum left to right over the nonzero entries: the
    roundings of :meth:`~trapcorr.rk.RKTableau.step`'s loop, a factor 1.0 dropped (exact).  It
    reads x's terms once per node c, carries a node c = 1's into the next step's c = 0 at an
    equal abscissa and records stage 0's g''(xi), at xi = y as A's first row is empty."""
    c, nodes, em = tableau.c, [ci.hex() for ci in tableau.c], _emit(shape)  # 0.0, -0.0 apart
    em = dict(em, **{key: em[key].replace("\n" + " " * 8, "\n")[8:].replace("{at}", at)
                     for key, at in (("slope", "x"), ("jet", "x_s, x"))},  # from 8 columns to 0
              t_dg="6.0 * t" + f" * {em['w1']}" * (em["w1"] != "1.0"))  # y * 1.0 is y

    def indent(text, columns):
        return " " * columns + text.replace("\n", "\n" + " " * columns)

    def times(v):  # the factor v, as a literal, unless it is 1.0
        return f"{v!r} * " * (v != 1.0)

    (rows, weights), stages = tableau.nonzero, []
    for i, row in enumerate(rows):
        yi = "y" + "".join(f" + h * {times(a)}k{j}" for j, a in row)
        n = nodes.index(nodes[i])
        terms, read = f"t3_{n}, thr_{n}, P_{n}, Q_{n}", _READ.format(n=f"_{n}", **em)
        if c[i] == 0.0:  # a node's first stage reads x's terms or takes the carry
            read = f"if x == carry[0]: _, {terms} = carry\nelse:\n" + indent(read, 4)
        stages.append(f"x = x_n + {times(c[i])}h\n" + (read + "\n") * (n == i)
                      + _JET.format(n=f"_{n}", xi=yi, k=f"k{i} =", **em)
                      + f"\nrecord({em['w2']})" * (i == 0)
                      + f"\ncarry = x_s, {terms}" * (c[i] == 1.0))
    stages.append("return y + h * (0.0" + "".join(f" + {times(b)}k{i}" for i, b in weights) + ")")
    stage = _READ.format(n="", **em) + "\n" + _JET.format(n="", xi="xi", k="return", **em)
    return _XI.format(stage=indent(stage, 8), stages=indent("\n".join(stages), 8), **em)


@lru_cache(maxsize=256)
def _factory(shape, tableau):
    """:func:`_source`'s bind, per (shape, tableau), bounded: a run's (step, records, stage)."""
    namespace = dict(_NAMESPACE, ConfigError=ConfigError,
                     SingularDenominatorError=SingularDenominatorError)
    exec(_compiled(_source(shape, tableau), "<trapcorr.xi_ode emitted>"), namespace)
    return namespace["bind"]


def _bind(p: ProblemSpec):  # F_COEFFICIENT and the guard as they read now
    literals = []
    return _factory(_shape(p.g, literals), p.tableau)(
        *literals, p.a, p.g_at_a, F_COEFFICIENT, DEFAULT_DEN_GUARD)


def bind_step(p: ProblemSpec):
    """``(step, records)``: the sweep's ``step(x, y, h)``, its stages :func:`xi_rhs`'s statements
    inline, and the bind's own list of each step's g''(y), in order.  Per run: it holds state."""
    return _bind(p)[:2]


def xi_rhs(p: ProblemSpec, x: float, xi: float) -> float:
    """Slope of the mean-value point xi at (x, xi).

    Requires x != a (the defining identity is 0 = 0 there), else raises :class:`ConfigError`,
    and a denominator above the guard threshold, else :class:`SingularDenominatorError`.  At x
    it reads g and g' alone, so it is defined where only g'' or g''' is not.  A
    :class:`DomainError` of the jet at xi is raised at x, xi as its ``xi``.  Its statements are each
    stage of the sweep's step.
    """
    if getattr(p, "_xi_rhs", (None,))[0] != (tag := (F_COEFFICIENT, DEFAULT_DEN_GUARD)):
        object.__setattr__(p, "_xi_rhs", (tag, _bind(p)[2]))
    return p._xi_rhs[1](x, xi)


def error_term(p: ProblemSpec, x: float, xi: float, d2: float | None = None) -> float:
    """Trapezium error term -(x-a)^3/12 * g''(xi), g''(xi) given as ``d2`` or evaluated.

    Adding this to the one-panel trapezium value reproduces the integral
    of g exactly when xi is the true mean-value point.
    """
    if x == p.a:
        return 0.0
    if d2 is None:
        d2 = eval_jet(p.g, xi).d2
    return -((x - p.a) ** 3) / 12.0 * d2


def unshift_error(shifted_error: float, d: float, a: float, x: float) -> float:
    """Error term of f given the error term of g = f + d*(x-a)^3/6 at the
    same limits: the cubic's own error term is

        integral_a^x d (t-a)^3/6 dt - (x-a)/2 * d (x-a)^3/6 = -d (x-a)^4/24
    """
    if d == 0.0:
        return shifted_error
    return shifted_error + d * (x - a) ** 4 / 24.0


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
