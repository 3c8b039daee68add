"""Self-tests of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits 0 when every test passes.

- oracle: a silent wrong answer the program really produces (a cubic
  shift D = 2 that does not clear k^3 ~ 2.87 for sin(1.42*x + 0.03): exit
  0, but an error of about 248 at x = b) must count as a failed op, while
  the same problem with a clearing shift passes.
- counts: the traced work of the pinned problem sin(x) on [1, 10], x0 = 5,
  h = 0.01 is exactly that of the program this benchmark was written
  against, and repeats exactly.  A change that alters the work done (for
  example trimming jet orders) must update these numbers deliberately.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

import run
import workloads
from tracer import Tracer, counts, layer_metrics

WRONG = workloads.sin_problem(
    1.4211419660891869, 0.030589983033553536, 1.1680807910822022,
    8.775780952786114, 4.559231733313961, 0.02, shift=2.0)

#: traced calls of run() on the pinned problem, without and with residual
PINNED_COUNTS = {
    False: {"expr.eval_jet.calls": 20979, "xi_ode.xi_rhs.calls": 9889,
            "rk.rk_step.calls": 899, "expr.eval_value.calls": 1931},
    True: {"expr.eval_value.calls": 10023},
}


def test_oracle() -> str | None:
    good = dict(WRONG, shift=workloads.clearing_shift(WRONG["k"]))
    workdir = os.path.join(run.BUILD, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = run.Runner(workdir, time.monotonic() + run.DEADLINE_S)
        args = argparse.Namespace(seconds=0.5, trace=0, seed=0)
        out = run.run_library(runner, "audit-sin", [WRONG, good], args, min_ops=4)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if out.failed != out.attempted // 2 or out.worst < 100.0:
        return (f"expected the D=2 ops (half of {out.attempted}) to fail with an error "
                f"near 248; got {out.failed} failed, worst error {out.worst:.3g}")
    if not any("exceeds the check bound" in p for p in out.problems):
        return f"no check-bound failure reported: {out.problems}"
    return None


def test_counts() -> str | None:
    sys.path.insert(0, run.SRC)
    from trapcorr import pipeline
    spec = pipeline.ProblemSpec.from_text("sin(x)", a=1.0, b=10.0, x0=5.0, h=0.01)
    for residual, expected in PINNED_COUNTS.items():
        seen = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                pipeline.run(spec, residual=residual)
            finally:
                tracer.uninstall()
            seen.append(tracer.stats)
        if counts(seen[0]) != counts(seen[1]):
            return f"traced counts differ between two identical runs (residual={residual})"
        layers = layer_metrics(seen[0], 1)
        for name, value in expected.items():
            if layers[name][0] != value:
                return f"{name} = {layers[name][0]:g}, expected {value} (residual={residual})"
    return None


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "trapcorr", "__init__.py")):
        print("selftest: no trapcorr sources under src/; run from the root of a checkout",
              file=sys.stderr)
        return 2
    failures = 0
    for name, test in (("oracle", test_oracle), ("counts", test_counts)):
        reason = test()
        print(f"selftest {name}: {'PASS' if reason is None else 'FAIL: ' + reason}")
        failures += reason is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
