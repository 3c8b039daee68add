import faulthandler
import os
import tempfile
from pathlib import Path

import pytest

from trapcorr import ProblemSpec, RKTableau, expr, load_tableau, run

SIN_TEXT = "sin(x)"
EXOTIC_TEXT = "x^2*(sin(x)*ln(2+x)-100*x)"

RK4 = load_tableau(str(Path(__file__).parent / "data" / "rk4.tab"))
#: Heun's third-order method: no node c = 1, so no step carries g and g' into the next
HEUN3 = RKTableau(name="heun3", order=3, a=((), (1 / 3,), (0.0, 2 / 3)),
                  b=(0.25, 0.0, 0.75), c=(0.0, 1 / 3, 2 / 3))


#: the suite's cache of compiled emitted code, and what points the program at it
_EMITTED = pytest.StashKey()

#: seconds one test may run before every thread's stack is printed and the run exits
WATCHDOG_S = 240.0
#: a descriptor of the terminal's stderr, which a test's output capture does not redirect
_WATCHDOG_FD = pytest.StashKey()


def pytest_configure(config):
    """Compiled emitted code goes to a fresh directory per session, for this process and,
    through ``PYTHONPYCACHEPREFIX``, for every Python it starts, from collection on: no run
    of the suite reads what an earlier one compiled, or writes into the checkout's cache.
    Those Pythons may write there, so that only the first compiles the standard library
    modules it imports, even where ``PYTHONDONTWRITEBYTECODE`` is set."""
    root, patch = tempfile.TemporaryDirectory(prefix="trapcorr-emitted-"), pytest.MonkeyPatch()
    patch.setattr(expr, "_CACHE", root.name)
    patch.setenv("PYTHONPYCACHEPREFIX", os.path.join(root.name, "pycache"))
    patch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    config.stash[_EMITTED] = root, patch
    config.stash[_WATCHDOG_FD] = os.dup(2)  # capture is suspended while plugins configure


def pytest_unconfigure(config):
    root, patch = config.stash[_EMITTED]
    patch.undo()
    root.cleanup()
    os.close(config.stash[_WATCHDOG_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """A watchdog per test: a test that hangs, or a shrink that runs away, ends the run with
    every thread's stack instead of holding it until an outer timeout."""
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=item.config.stash[_WATCHDOG_FD])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


def sin_spec(**overrides) -> ProblemSpec:
    kwargs = dict(a=1.0, b=10.0, x0=5.0, h=0.01)
    kwargs.update(overrides)
    return ProblemSpec.from_text(SIN_TEXT, **kwargs)


def exotic_spec(**overrides) -> ProblemSpec:
    # reference/root tolerances scaled to the ~1e5 magnitudes of this
    # integrand; the defaults target O(1) problems
    kwargs = dict(a=1.0, b=10.0, x0=5.0, h=0.01, ref_tol=1e-9, root_tol=1e-8)
    kwargs.update(overrides)
    return ProblemSpec.from_text(EXOTIC_TEXT, **kwargs)


@pytest.fixture(scope="session")
def sin_curve():
    return run(sin_spec())


@pytest.fixture(scope="session")
def sin_curve_shifted():
    return run(sin_spec(shift=2.0))


@pytest.fixture(scope="session")
def exotic_curve():
    return run(exotic_spec(), residual=True)
