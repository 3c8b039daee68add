"""Outside-in tracer: times calls into trapcorr's public functions by
replacing, for the duration of a traced pass, the names callers look up.

Every trapcorr module binds its imports with ``from .expr import eval_jet``
and the like, so replacing ``trapcorr.expr.eval_jet`` alone would record
nothing: each patch below names the module whose global the caller reads.
Calls made inside the defining module (``eval_jet`` evaluating a constant
exponent with ``eval_value``) are not layer crossings and stay unpatched.

Spans are aggregated per (name, parent name) as they close: call count,
self time (the span minus the part of it its child spans cover), failures
and a per-name amount (Romberg evaluations, CSV bytes).  A bounded number
of raw spans is also kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time

#: (module, attribute, layer name) for every layer boundary
PATCHES = (
    ("trapcorr.pipeline", "parse", "expr.parse"),
    ("trapcorr.cli", "parse", "expr.parse"),
    ("trapcorr.pipeline", "eval_jet", "expr.eval_jet"),
    ("trapcorr.xi_ode", "eval_jet", "expr.eval_jet"),
    ("trapcorr.quadrature", "eval_value", "expr.eval_value"),
    ("trapcorr.pipeline", "trapezium", "quadrature.trapezium"),
    ("trapcorr.pipeline", "reference_integral", "quadrature.reference_integral"),
    ("trapcorr.rk", "integrate", "rk.integrate"),
    ("trapcorr.rk", "rk_step", "rk.rk_step"),
    ("trapcorr.pipeline", "xi_rhs", "xi_ode.xi_rhs"),
    ("trapcorr.pipeline", "error_term", "xi_ode.error_term"),
    ("trapcorr.pipeline", "unshift_error", "xi_ode.unshift_error"),
    ("trapcorr.pipeline", "solve_xi0", "pipeline.solve_xi0"),
    ("trapcorr.pipeline", "run", "pipeline.run"),
    ("trapcorr.cli", "run", "pipeline.run"),
    ("trapcorr.pipeline", "emit_csv", "pipeline.emit_csv"),
    ("trapcorr.cli", "emit_csv", "pipeline.emit_csv"),
    ("trapcorr.cli", "main", "cli.main"),
)


def _romberg_evals(args, result):
    return result.panels


def _csv_bytes(args, result):
    destination = args[1]
    if hasattr(destination, "tell"):
        return destination.tell()  # a fresh in-memory buffer: ASCII, one char per byte
    return os.path.getsize(destination)


#: work amounts read off a call once its span has closed
AMOUNTS = {
    "quadrature.reference_integral": _romberg_evals,
    "pipeline.emit_csv": _csv_bytes,
}


class Tracer:
    """Aggregated spans for the calls made while installed.

    ``stats`` maps "name|parent" to [calls, self seconds, failed, amount];
    the parent of a top-level call is "-".  ``spans`` holds the first
    ``keep_spans`` raw spans as (op, name, parent, start, end).
    """

    def __init__(self, keep_spans: int = 0):
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.op = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter
        amount = AMOUNTS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, clock(), 0.0]
            stack.append(frame)
            failed = 0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                key = name + "|" + parent
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += duration - frame[2]
                rec[2] += failed
                if amount is not None and not failed:
                    rec[3] += amount(args, result)
                if len(spans) < self.keep_spans:
                    spans.append((self.op, name, parent, frame[1], end))

        traced.__wrapped__ = fn
        return traced


def merge(into: dict, stats: dict) -> dict:
    """Add one ``Tracer.stats`` mapping into another."""
    for key, rec in stats.items():
        acc = into.setdefault(key, [0, 0.0, 0, 0])
        for i, v in enumerate(rec):
            acc[i] += v
    return into


def counts(stats: dict) -> dict:
    """The deterministic part of ``stats``: calls, failures and amounts."""
    return {k: (r[0], r[2], r[3]) for k, r in sorted(stats.items())}


def layer_metrics(stats: dict, passes: int) -> dict:
    """Per-layer metrics for one pass from stats summed over ``passes``."""
    def pick(name, parent=None):
        calls = secs = failed = amount = 0
        for key, (c, s, f, a) in stats.items():
            n, p = key.split("|")
            if n == name and (parent is None or p == parent):
                calls += c
                secs += s
                failed += f
                amount += a
        return calls / passes, secs * 1e3 / passes, failed / passes, amount / passes

    def ratio(x, y):
        return x / y if y else 0.0

    out = {}

    def timed(name, calls, ms, per_call=False):
        out[name + ".calls"] = (calls, "count")
        out[name + ".ms"] = (ms, "ms")
        if per_call:
            out[name + ".us_per_call"] = (ratio(ms * 1e3, calls), "us")

    calls, ms, _, _ = pick("expr.parse")
    timed("expr.parse", calls, ms)
    jets, ms, _, _ = pick("expr.eval_jet")
    timed("expr.eval_jet", jets, ms, per_call=True)
    calls, ms, _, _ = pick("expr.eval_value")
    timed("expr.eval_value", calls, ms, per_call=True)
    calls, ms, _, _ = pick("quadrature.trapezium")
    timed("quadrature.trapezium", calls, ms)

    boot = pick("quadrature.reference_integral", "pipeline.solve_xi0")
    total = pick("quadrature.reference_integral")
    column = tuple(t - b for t, b in zip(total, boot))
    for caller, (calls, ms, failed, evals) in (("bootstrap", boot), ("column", column)):
        name = "quadrature.reference_integral." + caller
        timed(name, calls, ms)
        out[name + ".evals"] = (evals, "count")
        out[name + ".evals_per_call"] = (ratio(evals, calls), "ratio")
        out[name + ".failed"] = (failed, "count")

    out["rk.integrate.calls"] = (pick("rk.integrate")[0], "count")
    steps, ms, _, _ = pick("rk.rk_step")
    timed("rk.rk_step", steps, ms)
    rhs, ms, failed, _ = pick("xi_ode.xi_rhs")
    out["rk.rhs_per_step"] = (ratio(rhs, steps), "ratio")
    timed("xi_ode.xi_rhs", rhs, ms)
    out["xi_ode.xi_rhs.failed"] = (failed, "count")
    out["xi_ode.jets_per_rhs"] = (ratio(pick("expr.eval_jet", "xi_ode.xi_rhs")[0], rhs), "ratio")
    calls, ms, _, _ = pick("xi_ode.error_term")
    timed("xi_ode.error_term", calls, ms)
    calls, ms, _, _ = pick("xi_ode.unshift_error")
    timed("xi_ode.unshift_error", calls, ms)

    calls, ms, _, _ = pick("pipeline.solve_xi0")
    timed("pipeline.solve_xi0", calls, ms)
    out["pipeline.solve_xi0.jets_per_call"] = (
        ratio(pick("expr.eval_jet", "pipeline.solve_xi0")[0], calls), "ratio")
    calls, ms, failed, _ = pick("pipeline.run")
    timed("pipeline.run", calls, ms)
    out["pipeline.run.failed"] = (failed, "count")
    calls, ms, _, size = pick("pipeline.emit_csv")
    timed("pipeline.emit_csv", calls, ms)
    out["pipeline.emit_csv.bytes"] = (size, "bytes")

    calls, ms, _, _ = pick("cli.main")
    timed("cli.main", calls, ms)
    return out
