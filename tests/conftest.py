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


def pytest_configure(config):
    """Compiled emitted code goes to a fresh directory per session, for this process and,
    through ``PYTHONPYCACHEPREFIX``, for every Python it starts, from collection on: no run
    of the suite reads what an earlier one compiled, or writes into the checkout's cache."""
    root, patch = tempfile.TemporaryDirectory(prefix="trapcorr-emitted-"), pytest.MonkeyPatch()
    patch.setattr(expr, "_CACHE", root.name)
    patch.setenv("PYTHONPYCACHEPREFIX", os.path.join(root.name, "pycache"))
    config.stash[_EMITTED] = root, patch


def pytest_unconfigure(config):
    root, patch = config.stash[_EMITTED]
    patch.undo()
    root.cleanup()


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
