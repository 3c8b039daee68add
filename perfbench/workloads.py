"""Seeded problem generators for the benchmark workloads.

A problem is a plain dict (it travels to worker processes as JSON).  The
same seed gives the same problems.  Sizes and parameters are drawn one per
stratum (Latin-hypercube style) so that the mix of op sizes, and with it
the latency quantiles, changes little from seed to seed.

Families, each with an independent oracle (see ``oracle.py``):

- ``sin``: sin(k*x + p)
- ``exotic``: x^2*(sin(x)*ln(c+x) - m*x), the acceptance-suite integrand
- ``square``: x^2, whose third derivative vanishes without a shift
"""

from __future__ import annotations

import math
import random

#: relative check bound per family: |corrected - oracle| / max(1, |oracle|)
CHECK_BOUND = {"sin": 1e-9, "exotic": 1e-10, "square": 1e-9}

#: shift candidates, in the order ``trapcorr.xi_ode.suggest_shift`` tries them
SHIFT_CANDIDATES = (1.0, 2.0, 5.0, 10.0)

#: |f''' + D| must stay above this, as in ``suggest_shift``
SHIFT_CLEARANCE = 0.5


#: the program's default ODE denominator guard (``xi_ode.DEFAULT_DEN_GUARD``)
DEN_GUARD = 1e-8

#: an unshifted sin problem keeps its denominator this many times above the guard
GUARD_MARGIN = 10.0


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``n`` equal slices of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _grid(n: int, lo: float, hi: float) -> list[float]:
    """The midpoints of ``n`` equal slices of [lo, hi], ascending.  Op sizes
    come from this grid, so the size mix is the same for every seed."""
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def sin_problem(k, p, a, b, x0, h, shift=0.0, **extra):
    return dict(family="sin", k=k, p=p, f=f"sin({k!r}*x+{p!r})",
                a=a, b=b, x0=x0, h=h, shift=shift, **extra)


def clearing_shift(k: float) -> float:
    """Smallest candidate D with |f''' + D| > clearance for f = sin(k*x + p):
    f''' sweeps [-k^3, k^3], so D must exceed k^3 by the clearance."""
    return next(d for d in SHIFT_CANDIDATES if d > k ** 3 + SHIFT_CLEARANCE)


def regular(k: float, p: float, a: float, b: float, h: float) -> bool:
    """Whether the unshifted xi-ODE of sin(k*x + p) keeps its denominator
    (x-a)^3 f'''(xi) ``GUARD_MARGIN`` times above the guard on [a+h, b].

    The mean-value point satisfies f''(xi) = 12 (T - F) / (x-a)^3, with T
    the one-panel trapezium value and F the exact integral, so
    s = sin(k xi + p) is known in closed form and |f'''(xi)| =
    k^3 sqrt(1 - s^2) on every branch.  A singular problem is the CLI's
    documented exit 3, which the cli workload covers on purpose.
    """
    fa, ca = math.sin(k * a + p), math.cos(k * a + p)
    n = int(4.0 * (b - a) / h) + 1  # quarter-step samples cover the RK stages
    for i in range(n + 1):
        x = a + h + (b - a - h) * i / n
        t = x - a
        trap = 0.5 * t * (fa + math.sin(k * x + p))
        exact = (ca - math.cos(k * x + p)) / k
        s = -12.0 * (trap - exact) / (k * k * t ** 3)
        if abs(s) >= 1.0:
            return False
        if t ** 3 * k ** 3 * math.sqrt(1.0 - s * s) < GUARD_MARGIN * DEN_GUARD * (1.0 + t ** 3):
            return False
    return True


def regular_phase(rng: random.Random, k: float, a: float, b: float, h: float) -> float:
    """A seeded phase p for which sin(k*x + p) is ``regular`` on [a, b]."""
    for _ in range(1000):
        p = round(rng.uniform(0.0, 2.0 * math.pi), 6)
        if regular(k, p, a, b, h):
            return p
    raise ValueError(f"no regular phase for k={k!r} on [{a!r}, {b!r}]")


def sweep_exotic(rng: random.Random, n: int = 32) -> list[dict]:
    steps = _grid(n, 60, 200)
    hs = _strata(rng, n, 0.02, 0.04)
    cs = _strata(rng, n, 1.5, 3.0)
    ms = _strata(rng, n, 60.0, 140.0)
    fracs = _strata(rng, n, 0.3, 0.7)
    problems = []
    for i in range(n):
        h = round(hs[i], 4)
        length = steps[i] * h
        a = round(rng.uniform(1.0, 9.0 - length), 4)
        b = round(a + length, 4)
        c, m = round(cs[i], 4), round(ms[i], 3)
        # tolerances scale with the integral's magnitude (~ m b^4 / 4), as
        # the README directs for large integrands
        scale = m * b ** 4 / 4.0
        problems.append(dict(
            family="exotic", c=c, m=m, f=f"x^2*(sin(x)*ln({c!r}+x)-{m!r}*x)",
            a=a, b=b, x0=round(a + fracs[i] * (b - a), 4), h=h, shift=0.0,
            ref_tol=1e-14 * scale, root_tol=1e-13 * scale))
    rng.shuffle(problems)
    return problems


def audit_sin(rng: random.Random, n: int = 32) -> list[dict]:
    ks = _strata(rng, n, 0.5, 1.5)
    steps = _grid(n, 120, 360)
    hs = _strata(rng, n, 0.01, 0.03)
    fracs = _strata(rng, n, 0.3, 0.7)
    problems = []
    for i in range(n):
        k, h = round(ks[i], 6), round(hs[i], 4)
        length = steps[i] * h
        a = round(rng.uniform(0.5, 10.0 - length), 4)
        b = round(a + length, 4)
        x0 = round(a + fracs[i] * (b - a), 4)
        if i % 4 == 3:  # every fourth size on the grid is shifted
            shift = rng.choice((1.0, -1.0)) * clearing_shift(k)
            # the shifted integrand reaches |D| b^4 / 24: scale the absolute
            # tolerances with it, as the README directs for large integrands
            scale = max(10.0, abs(shift) * b ** 4 / 24.0)
            problems.append(sin_problem(
                k, round(rng.uniform(0.0, 2.0 * math.pi), 6), a, b, x0, h, shift,
                ref_tol=1e-14 * scale, root_tol=1e-13 * scale))
        else:
            problems.append(sin_problem(k, regular_phase(rng, k, a, b, h), a, b, x0, h))
    rng.shuffle(problems)
    return problems


#: cli op kinds per pass and their documented exit codes
CLI_MIX = (
    ("sin", 20, 0),
    ("square-shifted", 4, 0),
    ("parse-error", 2, 2),
    ("guard-near-a", 2, 3),
    ("square-unshifted", 2, 3),
    ("no-root", 2, 4),
    ("bad-x0", 2, 5),
    ("unwritable-out", 2, 6),
)


def _cli_sin(rng: random.Random, size: float) -> dict:
    k = round(rng.uniform(0.5, 1.5), 6)
    h = round(rng.uniform(0.03, 0.04), 4)
    length = (50 + 60 * size) * h
    a = round(rng.uniform(0.5, 4.0), 4)
    b = round(a + length, 4)
    # x0 - a >= 0.6 keeps clear of the CLI's close-seed warning
    x0 = round(a + rng.uniform(0.4, 0.6) * (b - a), 4)
    return sin_problem(k, regular_phase(rng, k, a, b, h), a, b, x0, h)


def _cli_op(kind: str, rng: random.Random, size: float) -> dict:
    """A problem of ``kind``; ``size`` in [0, 1) sets its length where the
    kind has one."""
    if kind in ("sin", "unwritable-out"):
        return _cli_sin(rng, size)
    if kind in ("square-shifted", "square-unshifted"):
        a = round(rng.uniform(0.0, 0.5), 4)
        b = round(a + 1.5 + size, 4)
        return dict(family="square", f="x^2", a=a, b=b, x0=round(0.5 * (a + b), 4),
                    h=0.025, shift=1.0 if kind == "square-shifted" else 0.0)
    if kind == "parse-error":
        k = round(rng.uniform(0.5, 1.5), 3)
        text = rng.choice((f"sin({k}*x", f"{k}x", f"x+*{k}", f"sinh({k}*x)", "sin(x)^x"))
        return dict(family=None, f=text, a=1.0, b=4.0, x0=2.5, h=0.02, shift=0.0)
    if kind == "guard-near-a":
        # |f'''| <= 1 and (x-a)^3 ~ h^3 = 8e-9 on the last reverse steps put
        # the denominator under the 1e-8 guard near a
        a = round(rng.uniform(0.5, 1.5), 4)
        return dict(family=None, f=f"sin(x+{round(rng.uniform(0.0, 2.0 * math.pi), 6)!r})",
                    a=a, b=round(a + 1.2, 4), x0=round(a + 0.6, 4), h=0.002, shift=0.0)
    if kind == "no-root":
        # a long interval: the absolute root tolerance cannot be met from the
        # default x0 (whether it can from another x0 is down to rounding)
        return dict(family=None, f="sin(8*x)", a=1.0, b=30.0, x0=None, h=0.01, shift=0.0)
    if kind == "bad-x0":
        a = round(rng.uniform(0.5, 2.0), 4)
        b = round(a + rng.uniform(1.5, 3.0), 4)
        x0 = round(b + rng.uniform(0.1, 2.0), 4) if rng.random() < 0.5 else round(a - rng.uniform(0.1, 2.0), 4)
        return dict(family=None, f="sin(x)", a=a, b=b, x0=x0, h=0.02, shift=0.0)
    raise ValueError(f"unknown cli op kind {kind!r}")


def cli(rng: random.Random) -> list[dict]:
    problems = []
    for kind, count, code in CLI_MIX:
        for size in _grid(count, 0.0, 1.0):
            problems.append(dict(_cli_op(kind, rng, size), kind=kind, expect=code))
    rng.shuffle(problems)
    return problems


def cli_argv(problem: dict, out: str) -> list[str]:
    """``trapcorr integrate`` arguments for a cli problem writing to ``out``."""
    argv = ["integrate", "--f", problem["f"], "--a", repr(problem["a"]),
            "--b", repr(problem["b"]), "--h", repr(problem["h"])]
    if problem["x0"] is not None:
        argv += ["--x0", repr(problem["x0"])]
    if problem["shift"]:
        argv += ["--shift-D", repr(problem["shift"])]
    return argv + ["--out", out]


#: problems whose exit-code contract the CLI breaks today (ROADMAP item 4);
#: they are probed in traced cli runs and reported as ``cli.contract_holes``,
#: not run as ops, because any failed op marks a whole run wrong
CONTRACT_PROBES = (
    ["integrate", "--f", "sin(x)", "--a", "1", "--b", "4", "--h", "0.02", "--root-tol", "nan"],
    ["integrate", "--f", "(" * 300 + "x" + ")" * 300, "--a", "1", "--b", "4", "--h", "0.02"],
)

GENERATORS = {"sweep-exotic": sweep_exotic, "audit-sin": audit_sin, "cli": cli}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
