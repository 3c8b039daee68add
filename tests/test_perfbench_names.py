"""The benchmark's per-layer tracer (``perfbench/tracer.py``) replaces
module globals by name.  A refactor that drops or renames one of them
breaks ``perfbench/run.py --trace 1`` and ``perfbench/selftest.py``
without failing any other test; this test reads the tracer's own table
and checks every name it patches.  The second counts one pinned run's
calls through those names and, for the sweep's step that the tracer sees
only as ``rk_step``, through the line events of its inline stages."""

import importlib
import re
import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest

from trapcorr import expr, pipeline, xi_ode

from conftest import sin_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
#: the file name of the xi-ODE's compiled stage and step
EMITTED = "<trapcorr.xi_ode emitted>"


def test_every_traced_name_exists_in_its_module():
    patches = runpy.run_path(str(TRACER))["PATCHES"]
    assert patches
    missing = [f"{name}.{attr}" for name, attr, _ in patches
               if not hasattr(importlib.import_module(name), attr)]
    assert missing == []


def _counting(fn, layer, calls):
    def counted(*args, **kwargs):
        calls[layer] += 1
        return fn(*args, **kwargs)
    return counted


# The work of one run is deterministic.  Counting through the names the
# tracer patches also proves that every evaluation outside the sweep crosses
# a counted name or the list evaluator of f, which eval_value reaches too, so
# f's values are counted there alone: an evaluator reached some other way
# would drop out of these counts.  The sweep's step is emitted per
# integrand shape and tableau, each of its stages inline with one jet at xi:
# the tracer sees it as rk_step alone.  Line events of the emitted step count
# its stages, each ending in the line that sets its k, and among them the
# x-side reads, each the line that starts x's terms from t = x - a, where the
# step reads g and g' at a stage's x itself.  Each of the 899 steps reads once
# at each of its 9 new abscissae (c = 1/6 twice, c = 1 carried into the next
# step's c = 0), and each sweep's first step once more, at x0.  The curve takes
# g''(xi) from stage 0 of the step leaving each node: the 2 nodes that end a
# sweep are the curve's only jets, taken by error_term, which with
# unshift_error gives the error term at each of the 900 nodes after a.  It
# evaluates f at a and at those nodes in one list, and both columns read those
# values; a list counts as its points.  The reference column adds only its 900
# panels' midpoints, 2^k - 1 for a table ended at level k: 6,292 values, so
# 1,032 + 6,292 = 7,324.
@pytest.mark.parametrize("residual,expected", [
    (False, {"expr.eval_jet": 10363, "expr.eval_jet by name": 474, "x-side reads": 8093,
             "xi_ode.xi_rhs": 9889, "rk.rk_step": 899, "expr.eval_value": 1032,
             "xi_ode.error_term": 900, "xi_ode.unshift_error": 900}),
    (True, {"expr.eval_value": 7324, "xi_ode.error_term": 900, "xi_ode.unshift_error": 900}),
])
def test_pinned_work_counts(monkeypatch, residual, expected):
    spec = sin_spec()  # built outside the count, as the tracer's self-test does
    calls = Counter()
    for module_name, attr, layer in runpy.run_path(str(TRACER))["PATCHES"]:
        if layer == "expr.eval_value":  # a point of the list evaluator, counted below
            continue
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, _counting(getattr(module, attr), layer, calls))
    jet, values = spec.f_ast._evaluators

    def counted_values(xs):
        calls["expr.eval_value"] += len(xs)
        return values(xs)
    monkeypatch.setitem(vars(spec.f_ast), "_evaluators", (jet, counted_values))
    source = xi_ode._source(expr._shape(spec.g, []), spec.tableau)
    lines = dict(enumerate(source.splitlines(), 1))
    counted = {i: "xi_ode.xi_rhs" for i, line in lines.items() if re.match(r" +k\d+ = ", line)}
    counted.update((i, "x-side reads") for i, line in lines.items() if "t = x - a;" in line)

    def in_step(frame, event, arg):
        if event == "line" and frame.f_lineno in counted:
            calls[counted[frame.f_lineno]] += 1
        return in_step

    def trace(frame, event, arg):  # the lines of the sweep's step alone
        code = frame.f_code
        return in_step if (code.co_filename, code.co_name) == (EMITTED, "step") else None
    sys.settrace(trace)
    try:
        pipeline.run(spec, residual=residual)
    finally:
        sys.settrace(None)
    calls["expr.eval_jet by name"] = calls["expr.eval_jet"]
    calls["expr.eval_jet"] += calls["xi_ode.xi_rhs"]
    assert calls["xi_ode.xi_rhs"] == spec.tableau.stages * calls["rk.rk_step"]
    assert {layer: calls[layer] for layer in expected} == expected
