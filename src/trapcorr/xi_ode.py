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

The ODE compiles once per (shape of g, tableau) to a stage holding g and g' at x and the
jet at xi inline, the blocks :mod:`trapcorr.expr` emits per shape, and a sweep step that
calls it (:func:`trapcorr.rk.step_source`); :func:`xi_rhs` is the stage.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING

from .errors import DomainError, SingularDenominatorError
from .expr import _NAMESPACE, ExprAST, _emit, _shape, eval_jet
from .rk import step_source

if TYPE_CHECKING:
    from .pipeline import ProblemSpec

__all__ = ["bind_step", "xi_rhs", "error_term", "unshift_error", "suggest_shift"]

#: |denominator| guard threshold scale: singular below eps * (1 + |x-a|^3)
DEFAULT_DEN_GUARD = 1e-8

#: numerator coefficient on f(x); any other value breaks the identity
F_COEFFICIENT = -6.0


def _at_x(what: str, xi: float, x: float) -> DomainError:
    """The error ``what`` of the jet at ``xi``, located at the sweep's ``x`` instead, naming xi."""
    return DomainError(f"{what.removesuffix(f' at x={xi!r}')} for xi={xi!r}", x)


#: xi's slope at (x, xi) from g, g' at x, read by the evaluators' slope block if g is None and
#: left in g_s, dg_s, and their jet block at xi by its name there, x; d2_s gets g''(xi)
_STAGE = """\
def stage(x, xi, g=None, dg=None):
    nonlocal g_s, dg_s, d2_s
    if g is None:
{slope}
        if not 0.0{fin0}{fin1} == 0.0: raise DomainError("non-finite jet component", x)
        g_s = g = {w0}; dg_s = dg = {w1}
    if x == a: raise ValueError("xi_rhs is undefined at x == a")
    x_s, x, t = x, xi, x - a  # the jet block's point is xi; its DomainError is raised at x_s
    try:
{jet}
    except DomainError as exc:
        raise at_x(exc.args[0], x, x_s) from exc.__cause__
    if not 0.0{fin0}{fin1}{fin2}{fin3} == 0.0: raise at_x("non-finite jet component", x, x_s)
    den = (t3 := t ** 3) * {w3}
    if abs(den) < guard * (1.0 + abs(t3)): raise SingularDenominatorError(x_s, x, den)
    d2_s = {w2}
    return (F * g + 6.0 * g_a + 6.0 * t * dg - 3.0 * t * t * {w2}) / den"""

#: the xi-ODE, bound per run: its stage, and the sweep's step(x, y, h) by a tableau,
#: which calls the stage for every stage and passes stage 0's g''(xi) to record
_XI = """\
def bind({names}{literals}a, g_a, F, guard, record):
    carry_x = carry_g = carry_dg = g_s = dg_s = d2_s = nan
    {stage}
    def step(x, y, h):
        nonlocal carry_x, carry_g, carry_dg
{stages}
    return step, stage
"""


def _source(shape, tableau) -> tuple[str, list]:
    """One shape's stage and sweep step by ``tableau``, and the tableau's coefficients.  The
    step has (g, g') read once per node c, carries a node c = 1's into the next step's c = 0
    at an equal abscissa and records stage 0's g''(xi), at xi = y as A's first row is empty."""
    c, nodes = tableau.c, [ci.hex() for ci in tableau.c]  # 0.0 and -0.0 apart

    def step_stage(i, yi):  # a node's first stage reads (g, g') or takes the carry; kept to recur
        n, recurs = nodes.index(nodes[i]), nodes.count(nodes[i]) > 1  # a recurring c = 0 reads
        passed = (f", g{n}, dg{n}" if n < i else "" if recurs or c[i] != 0.0
                  else ", carry_g if x_s == carry_x else None, carry_dg")
        return (f"x_s = x + c{i} * h\nk{i} = stage(x_s, {yi}{passed})"
                + f"\ng{i}, dg{i} = g_s, dg_s" * (recurs and n == i) + "\nrecord(d2_s)" * (i == 0)
                + "\ncarry_x, carry_g, carry_dg = x_s, g_s, dg_s" * (n == i and c[i] == 1.0))
    fields = _emit(shape)
    names, values, body = step_source(tableau, step_stage)
    return _XI.format(names="".join(name + ", " for name in names),
                      stage=_STAGE.format(**fields).replace("\n", "\n    "),
                      stages=" " * 8 + body.replace("\n", "\n" + " " * 8), **fields), values


@lru_cache(maxsize=256)
def _factory(shape, tableau):
    """``bind`` of :func:`_source`'s code and coefficients, per (shape, tableau), bounded."""
    source, values = _source(shape, tableau)
    namespace = dict(_NAMESPACE, at_x=_at_x, SingularDenominatorError=SingularDenominatorError)
    exec(compile(source, "<trapcorr.xi_ode emitted>", "exec"), namespace)
    return partial(namespace["bind"], *values)


def _bind(p: ProblemSpec, record=None):  # F_COEFFICIENT and the guard as they read now
    literals = []
    return _factory(_shape(p.g, literals), p.tableau)(
        *literals, p.a, p.g_at_a, F_COEFFICIENT, DEFAULT_DEN_GUARD, record)


def bind_step(p: ProblemSpec):
    """``(step, records)``: the sweep's ``step(x, y, h)``, whose stages call :func:`xi_rhs`'s
    stage, and the list to which the i-th step taken appends g''(y).  Per run: it holds state."""
    records = []
    return _bind(p, records.append)[0], records


def xi_rhs(p: ProblemSpec, x: float, xi: float) -> float:
    """Slope of the mean-value point xi at (x, xi).

    Requires x != a (the defining identity is 0 = 0 there) and a denominator above the
    guard threshold; raises :class:`SingularDenominatorError` otherwise.  At x it reads g
    and g' alone, so it is defined where only g'' or g''' is not.  A :class:`DomainError`
    of the jet at xi is raised at x, naming xi.  It is the sweep step's stage, kept on the spec.
    """
    if getattr(p, "_xi_rhs", (None,))[0] != (tag := (F_COEFFICIENT, DEFAULT_DEN_GUARD)):
        object.__setattr__(p, "_xi_rhs", (tag, _bind(p)[1]))
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
