"""Child process that runs library ops for ``run.py``.

    python3 perfbench/worker.py JOB.json RESULT.json

``JOB.json`` holds the mode, the problems and the run settings; the
result goes to ``RESULT.json``.  Only trapcorr is imported here, so the
process's peak RSS is the program's, and the oracle stays in the parent.

- mode "setup": time ``import trapcorr`` plus building every ProblemSpec.
- mode "run": build the specs, run every problem once untimed (its output
  is what the parent checks against the oracle), then time whole passes
  of ops over the problems serially.  Every timed op must reproduce the
  untimed output exactly, and is bracketed by calibration loops.  With tracing on, untraced and traced passes
  over all problems alternate instead, and each traced pass records
  aggregated spans.
"""

from __future__ import annotations

import json
import sys
import time

from calib import loop_seconds

clock = time.perf_counter


def build_specs(problems):
    from trapcorr import pipeline
    specs = []
    for p in problems:
        tols = {k: p[k] for k in ("ref_tol", "root_tol") if k in p}
        specs.append(pipeline.ProblemSpec.from_text(
            p["f"], a=p["a"], b=p["b"], x0=p["x0"], h=p["h"], shift=p["shift"], **tols))
    return specs


def setup(job):
    before = loop_seconds()
    t0 = clock()
    import trapcorr  # noqa: F401
    build_specs(job["problems"])
    elapsed = clock() - t0
    return {"setup_s": elapsed, "loop_before": before, "loop_after": loop_seconds()}


class Ops:
    """One op per problem: ``run()``, plus ``emit_csv`` to memory when the
    workload asks for it.  Names are looked up on the module at call time
    so that a traced pass sees the tracer's wrappers."""

    def __init__(self, job):
        import io
        from trapcorr import pipeline
        self.io, self.pipeline = io, pipeline
        self.residual, self.emit = job["residual"], job["emit"]

    def __call__(self, spec):
        """Run one op; return (seconds, output).  The output is read off
        after the clock stops."""
        pipeline = self.pipeline
        t0 = clock()
        curve = pipeline.run(spec, residual=self.residual)
        if self.emit:
            buf = self.io.StringIO()
            pipeline.emit_csv(curve, buf)
            elapsed = clock() - t0
            return elapsed, buf.getvalue()
        elapsed = clock() - t0
        return elapsed, tuple((r.x, r.corrected) for r in curve.rows)


def _rows(output):
    return output.count("\n") - 1 if isinstance(output, str) else len(output)


def run(job):
    problems, seconds = job["problems"], job["seconds"]
    op = Ops(job)
    specs = build_specs(problems)
    expected, outputs = [], []
    for spec in specs:
        try:
            _, out = op(spec)
        except Exception as exc:  # reported per problem; its ops then all fail
            out = None
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
        else:
            outputs.append({"csv": out} if isinstance(out, str)
                           else {"x": [r[0] for r in out], "corrected": [r[1] for r in out]})
        expected.append(out)

    # [problem index, seconds, rows, ok, traced, loop before, loop after]
    ops = []

    def one(i, spec, traced):
        before = loop_seconds()
        try:
            elapsed, out = op(spec)
        except Exception:
            elapsed, out = 0.0, None
        ok = out is not None and out == expected[i]
        ops.append([i, elapsed, _rows(out) if ok else 0, int(ok), traced, before, loop_seconds()])
        return elapsed

    start = clock()
    cap = 3.0 * seconds  # a much slower program still ends in time
    result = {"outputs": outputs, "ops": ops}
    if not job["trace"]:
        # whole passes only, so that every problem weighs the same in the quantiles
        while len(ops) < job["min_ops"] or clock() - start < seconds:
            for i, spec in enumerate(specs):
                one(i, spec, 0)
                if clock() - start >= cap:
                    return result
        return result

    from tracer import Tracer
    passes, spans = [], []
    untraced_s = traced_s = 0.0
    while not passes or clock() - start < seconds:
        untraced_s += sum(one(i, s, 0) for i, s in enumerate(build_specs(problems)))
        tracer = Tracer(keep_spans=job["keep_spans"] if not passes else 0)
        tracer.install()
        try:
            for i, spec in enumerate(build_specs(problems)):
                tracer.op = i
                traced_s += one(i, spec, 1)
        finally:
            tracer.uninstall()
        passes.append(tracer.stats)
        spans = spans or tracer.spans
        if clock() - start >= cap:
            break
    result.update(passes=passes, spans=spans, untraced_s=untraced_s, traced_s=traced_s)
    return result


def main(argv):
    with open(argv[1]) as fh:
        job = json.load(fh)
    result = setup(job) if job["mode"] == "setup" else run(job)
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
