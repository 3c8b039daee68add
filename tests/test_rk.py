import io
import math
import pickle
import random
from functools import partial
from pathlib import Path

import pytest

from trapcorr import (ConfigError, DomainError, FEHLBERG7, IoError, ProblemSpec, RKTableau,
                      emit_csv, empirical_order, format_tableau, integrate, load_tableau,
                      rk_step, run)
from trapcorr.rk import FLOOR_ULPS, MAX_ORDER, _trees, order_condition_residuals

DATA = Path(__file__).parent / "data"
RK4 = load_tableau(str(DATA / "rk4.tab"))
HEUN = RKTableau(name="heun", order=2, a=((), (1.0,)), b=(0.5, 0.5), c=(0.0, 1.0))
KUTTA3_SKEW = RKTableau(name="kutta3-skew", order=3,
                        a=((), (0.5,), (-1.0, 2.0), (0.0, -0.0, 1.0)),
                        b=(1 / 6, 2 / 3, 0.0, 1 / 6), c=(0.0, 0.5, 1.0, 1.0))


def test_integer_and_list_coefficients_freeze_to_their_float_tuple_twin():
    # each runs, hashes and compares as its twin, and writes its CSV bytes: no int reaches
    # the emitted step's float literals, nor a list a cache key
    twin = RKTableau(name="rk2", order=2, a=((), (0.5,)), b=(0.0, 1.0), c=(0.0, 0.5))
    csv = {}
    for kind, t in (("int", RKTableau(name="rk2", order=2, a=((), (0.5,)), b=(0, 1), c=(0, 0.5))),
                    ("list", RKTableau(name="rk2", order=2, a=[[], [0.5]], b=[0, 1], c=[0, 0.5])),
                    ("twin", twin)):  # the twin last: it caches no step for the others
        assert t == twin and hash(t) == hash(twin) and (t.a, t.b, t.c) == (twin.a, twin.b, twin.c)
        assert all(type(v) is float for v in (*t.b, *t.c, *sum(t.a, ()))), kind
        assert all(type(part) is tuple for part in (t.a, t.b, t.c, *t.a)), kind
        buf = io.StringIO()
        emit_csv(run(ProblemSpec.from_text("sin(x)", 1.0, 4.0, h=0.05, tableau=t)), buf)
        csv[kind] = buf.getvalue()
    assert csv["int"] == csv["twin"] == csv["list"]


def _declared(t: RKTableau, order: int) -> RKTableau:
    return RKTableau(t.name, order, t.a, t.b, t.c)


def _padded(t: RKTableau, stages: int, order: int) -> RKTableau:
    """``t`` with zero-weight stages at c = 0 appended: every b . Phi is unchanged."""
    extra = range(t.stages, stages)
    return RKTableau(f"{t.name}-padded", order, t.a + tuple((0.0,) * i for i in extra),
                     t.b + (0.0,) * len(extra), t.c + (0.0,) * len(extra))


# ------------------------------------------------------------- tableau

def test_shipped_tableau_row_sums():
    assert FEHLBERG7.row_sum_defect() <= 1e-14


def test_shipped_tableau_weights():
    assert abs(math.fsum(FEHLBERG7.b) - 1.0) <= 1e-15


def test_shipped_tableau_order_conditions_to_seven():
    rows = order_condition_residuals(FEHLBERG7)
    assert [order for order, _, _ in rows] == list(range(1, 8))
    assert sum(count for _, count, _ in rows) == 85  # all rooted trees through order 7
    for order, _, worst in rows:
        assert worst <= 1e-13, f"order {order}: {worst:.3e}"


def test_rooted_tree_counts_follow_a000081():
    assert [len(_trees(n)) for n in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48, 115]
    for n in range(1, 9):  # each tree once, in its one sorted form, of order n
        assert len(set(_trees(n))) == len(_trees(n))
        for t in _trees(n):
            assert list(t) == sorted(t) and _order(t) == n


def _order(tree) -> int:
    return 1 + sum(map(_order, tree))


def _hand_residuals(t: RKTableau) -> dict[int, float]:
    """Worst residual per order 1..4 from the eight conditions written out by hand."""
    s = t.stages
    a, b, c = t.a, t.b, t.c
    conditions = (
        (1, 1.0, math.fsum(b)),
        (2, 0.5, math.fsum(b[i] * c[i] for i in range(s))),
        (3, 1.0 / 3.0, math.fsum(b[i] * c[i] ** 2 for i in range(s))),
        (3, 1.0 / 6.0, math.fsum(b[i] * a[i][j] * c[j] for i in range(s) for j in range(i))),
        (4, 0.25, math.fsum(b[i] * c[i] ** 3 for i in range(s))),
        (4, 0.125, math.fsum(b[i] * c[i] * a[i][j] * c[j]
                             for i in range(s) for j in range(i))),
        (4, 1.0 / 12.0, math.fsum(b[i] * a[i][j] * c[j] ** 2
                                  for i in range(s) for j in range(i))),
        (4, 1.0 / 24.0, math.fsum(b[i] * a[i][j] * a[j][k] * c[k]
                                  for i in range(s) for j in range(i) for k in range(j))),
    )
    worst: dict[int, float] = {}
    for order, exact, got in conditions:
        worst[order] = max(worst.get(order, 0.0), abs(got - exact))
    return worst


@pytest.mark.parametrize("t", [FEHLBERG7, RK4, HEUN, KUTTA3_SKEW], ids=lambda t: t.name)
def test_recursion_matches_the_hand_written_conditions(t):
    # declared through order 4 where the stages allow: kutta3-skew's order-4
    # residuals are nonzero, so the comparison also covers failing rows
    rows = order_condition_residuals(_declared(t, min(4, t.stages)))
    hand = _hand_residuals(t)
    assert [order for order, _, _ in rows] == list(range(1, min(4, t.stages) + 1))
    for order, count, worst in rows:
        assert count == [1, 1, 2, 4][order - 1]
        assert worst == pytest.approx(hand[order], rel=1e-12, abs=1e-15), order
    if t is KUTTA3_SKEW:
        assert rows[3][2] > 1e-3


@pytest.mark.parametrize("t,message", [
    (_declared(FEHLBERG7, 8), "order-8 residual 1.837e-05 exceeds 1.0e-10"),
    (_padded(RK4, 7, 7), "order-5 residual 1.250e-02 exceeds 1.0e-10"),
    (_padded(RKTableau("euler", 1, ((),), (1.0,), (0.0,)), 3, 3),
     "order-2 residual 5.000e-01 exceeds 1.0e-10"),
], ids=["fehlberg7-as-8", "rk4-as-7", "euler-as-3"])
def test_validate_rejects_the_first_failing_order(t, message):
    with pytest.raises(ConfigError) as exc:
        t.validate()
    assert str(exc.value) == f"tableau '{t.name}': {message}"


def test_validate_passes_every_method_of_its_declared_order():
    for t in (FEHLBERG7, RK4, HEUN, KUTTA3_SKEW, _padded(RK4, 7, 4)):
        t.validate()


@pytest.mark.parametrize("stages,order", [
    (0, 1), (1, 3), (4, 7), (2, 0), (MAX_ORDER + 1, MAX_ORDER + 1),
])
def test_declared_order_is_bounded_when_built(stages, order):
    # an s-stage method has order at most s; MAX_ORDER bounds the trees checked
    with pytest.raises(ConfigError) as exc:
        RKTableau("t", order, tuple((0.0,) * i for i in range(stages)), (0.0,) * stages,
                  (0.0,) * stages)
    assert str(exc.value) == (f"tableau 't': order {order} outside "
                              f"[1, min(stage count {stages}, {MAX_ORDER})]")


def test_tableau_shape_validation():
    with pytest.raises(ConfigError):
        RKTableau(name="bad", order=2, a=((), (0.5, 0.0)), b=(0.0, 1.0),
                  c=(0.0, 0.5))
    with pytest.raises(ConfigError):
        RKTableau(name="bad", order=2, a=((), (0.5,)), b=(0.0, 1.0),
                  c=(0.0, 0.5, 1.0))


def test_tableau_consistency_validation():
    t = RKTableau(name="skew", order=2, a=((), (0.4,)), b=(0.5, 0.5),
                  c=(0.0, 0.5))
    with pytest.raises(ConfigError):
        t.validate()


@pytest.mark.parametrize("node", [2.0, -0.5, 1.0 + 2.0 ** -52])
def test_tableau_node_outside_the_step_fails_validation(node):
    # consistent (row sums match c), but the second stage leaves the step
    t = RKTableau(name="wide", order=1, a=((), (node,)), b=(1.0, 0.0), c=(0.0, node))
    with pytest.raises(ConfigError, match=rf"node c_2 = {node!r} outside \[0, 1\]"):
        t.validate()


def test_tableau_nodes_at_the_step_ends_validate():
    FEHLBERG7.validate()  # c runs from 0 to 1 inclusive
    RKTableau(name="ends", order=1, a=((), (-0.0,)), b=(1.0, 0.0), c=(0.0, -0.0)).validate()


# ---------------------------------------------------------------- steps

def _f7(rhs):
    """Fehlberg-7's own step over ``rhs``."""
    return partial(FEHLBERG7.step, rhs)


def test_step_constant_rhs_zero():
    assert rk_step(_f7(lambda x, y: 0.0), 1.0, 4.5, 0.3) == 4.5


def test_step_constant_rhs_one():
    got = rk_step(_f7(lambda x, y: 1.0), 1.0, 4.5, 0.3)
    assert got == pytest.approx(4.8, rel=1e-15)


def test_step_exponential_single():
    got = rk_step(_f7(lambda x, y: y), 0.0, 1.0, 0.5)
    assert got == pytest.approx(math.exp(0.5), abs=1e-8)


def test_step_rejects_zero_h():
    with pytest.raises(ConfigError):
        rk_step(_f7(lambda x, y: y), 0.0, 1.0, 0.0)


def test_step_is_called_once_with_the_signed_h():
    calls = []

    def step(x, y, h):
        calls.append((x, y, h))
        return y - 1.0

    assert rk_step(step, 2.0, 5.0, -0.25) == 4.0
    assert calls == [(2.0, 5.0, -0.25)]


# ----------------------------------------------------------- trajectories

def test_integrate_exponential_forward():
    nodes = integrate(_f7(lambda x, y: y), 0.0, 1.0, 1.0, 0.01)
    assert nodes[0] == (0.0, 1.0)
    assert nodes[-1][0] == 1.0
    assert nodes[-1][1] == pytest.approx(math.e, abs=1e-12)


def test_integrate_exponential_reverse():
    nodes = integrate(_f7(lambda x, y: y), 1.0, math.e, 0.0, 0.01)
    xs = [x for x, _ in nodes]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert nodes[-1][1] == pytest.approx(1.0, abs=1e-12)


def test_integrate_degenerate_interval():
    nodes = integrate(_f7(lambda x, y: y), 2.0, 5.0, 2.0, 0.1)
    assert nodes == ((2.0, 5.0),)


@pytest.mark.parametrize("x0,x_end,h_mag", [
    (0.0, math.nan, 0.1), (0.0, math.inf, 0.1), (0.0, -math.inf, 0.1), (math.nan, 1.0, 0.1),
    (-math.inf, 1.0, 0.1), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
])
def test_integrate_refuses_a_sweep_with_a_non_finite_end_or_step(x0, x_end, h_mag):
    # such a sweep never reaches x_end: it would append nodes until memory ran out
    def step(x, y, h):
        pytest.fail(f"stepped from x={x!r} by h={h!r}")
    with pytest.raises(ConfigError, match="need finite ends"):
        integrate(step, x0, 1.0, x_end, h_mag)


def test_final_step_clamps():
    nodes = integrate(_f7(lambda x, y: 0.0), 0.0, 0.0, 1.0, 0.3)
    xs = [x for x, _ in nodes]
    assert xs == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert all(g == pytest.approx(0.3, rel=1e-12) for g in gaps[:-1])
    assert gaps[-1] < 0.3


def test_nodes_strictly_monotone():
    nodes = integrate(_f7(lambda x, y: math.sin(x) * y), 5.0, 1.0, 1.0, 0.01)
    xs = [x for x, _ in nodes]
    assert all(b < a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("t", [FEHLBERG7, RK4], ids=lambda t: t.name)
def test_empirical_order_gives_two_slopes_above_the_floor(t):
    rows = empirical_order(t)
    slopes = [s for _, _, s in rows if not math.isnan(s)]
    assert len(slopes) >= 2
    assert all(abs(s - t.order) <= 0.5 for s in slopes)
    assert all(err > FLOOR_ULPS * math.ulp(math.e) for _, err, _ in rows)


def test_empirical_order_is_seven():
    rows = empirical_order()
    slopes = [s for _, _, s in rows if not math.isnan(s)]
    assert slopes, "every pair fell below the rounding floor"
    for slope in slopes:
        assert abs(slope - FEHLBERG7.order) <= 0.5


def test_forward_reverse_round_trip():
    for h in (0.1, 0.05):
        fwd = integrate(_f7(lambda x, y: y), 0.0, 1.0, 1.0, h)
        fwd_err = abs(fwd[-1][1] - math.e)
        back = integrate(_f7(lambda x, y: y), 1.0, fwd[-1][1], 0.0, h)
        assert abs(back[-1][1] - 1.0) <= 10.0 * fwd_err


def test_rhs_failure_propagates_unwrapped():
    raised = []

    def rhs(x, y):
        if x > 0.55:
            raised.append(DomainError("synthetic failure", x))
            raise raised[-1]
        return y

    with pytest.raises(DomainError) as exc:
        integrate(_f7(rhs), 0.0, 1.0, 1.0, 0.1)
    assert exc.value is raised[0]
    assert 0.55 < exc.value.x <= 0.6  # a stage of the step from 0.5 to 0.6
    assert exc.value.phase is None


def test_on_node_replaces_each_node_and_sweep_continues_from_it():
    seen = []

    def halve(x, y, y_prev):
        seen.append((x, y_prev))
        return 0.5 * y

    nodes = integrate(_f7(lambda x, y: 0.0), 0.0, 1.0, 0.3, 0.1, on_node=halve)
    xs = [x for x, _ in nodes]
    assert xs == [0.0, 0.1, 0.2, 0.3]
    # each new node, with the y of the node its step left from as the hook returned it
    assert seen == [(0.1, 1.0), (0.2, 0.5), (0.3, 0.25)]
    assert [y for _, y in nodes] == [1.0, 0.5, 0.25, 0.125]


def test_on_node_failure_propagates_unwrapped():
    raised = []

    def hook(x, y, y_prev):
        if x > 0.25:
            raised.append(DomainError("synthetic failure", x))
            raise raised[-1]
        return y

    with pytest.raises(DomainError) as exc:
        integrate(_f7(lambda x, y: y), 0.0, 1.0, 1.0, 0.1, on_node=hook)
    assert exc.value is raised[0]
    assert exc.value.x == pytest.approx(0.3)


# ------------------------------------------------------------ file format

def test_tableau_file_round_trip(tmp_path):
    path = tmp_path / "fehlberg7.tab"
    path.write_text(format_tableau(FEHLBERG7), encoding="ascii")
    loaded = load_tableau(str(path))
    assert loaded.name == str(path)
    assert (loaded.order, loaded.a, loaded.b, loaded.c) == (
        FEHLBERG7.order, FEHLBERG7.a, FEHLBERG7.b, FEHLBERG7.c)


def test_tableau_file_missing():
    with pytest.raises(IoError):
        load_tableau("/nonexistent/tableau.tab")


def test_tableau_file_malformed(tmp_path):
    path = tmp_path / "broken.tab"
    path.write_text("2 2\n\n0.9\n0.5 0.5\n0.0 0.5\n", encoding="ascii")
    with pytest.raises(ConfigError):
        load_tableau(str(path))  # row sum 0.9 != c2 = 0.5


def test_tableau_file_bad_header(tmp_path):
    path = tmp_path / "broken.tab"
    path.write_text("nonsense\n", encoding="ascii")
    with pytest.raises(ConfigError):
        load_tableau(str(path))


def test_loaded_tableau_drives_the_kernel(tmp_path):
    heun = RKTableau(name="heun", order=2, a=((), (1.0,)), b=(0.5, 0.5),
                     c=(0.0, 1.0))
    path = tmp_path / "heun.tab"
    path.write_text(format_tableau(heun), encoding="ascii")
    loaded = load_tableau(str(path))
    nodes = integrate(partial(loaded.step, lambda x, y: y), 0.0, 1.0, 1.0, 0.001)
    assert nodes[-1][1] == pytest.approx(math.e, abs=1e-5)



def _dense_step(rhs, x, y, h, t):
    """One step over every tableau entry, skipping zero ones as they come."""
    k = []
    for i in range(t.stages):
        yi = y
        for j in range(i):
            if t.a[i][j] != 0.0:
                yi += h * t.a[i][j] * k[j]
        k.append(rhs(x + t.c[i] * h, yi))
    acc = 0.0
    for i in range(t.stages):
        if t.b[i] != 0.0:
            acc += t.b[i] * k[i]
    return y + h * acc


def test_spelled_out_zeros_step_bit_identically(tmp_path):
    # Fehlberg-7 with its zeros written in several spellings: the kernel
    # walks only the nonzero entries, in the order a dense loop meets them
    spellings = iter(["0", "-0", "0e0", "0.0", "-0.0e5"] * 20)
    lines = format_tableau(FEHLBERG7).splitlines()
    path = tmp_path / "fehlberg7-zeros.tab"
    path.write_text("\n".join(" ".join(next(spellings) if float(v) == 0.0 else v
                                       for v in line.split()) if i else line
                              for i, line in enumerate(lines)) + "\n", encoding="ascii")
    loaded = load_tableau(str(path))
    assert "-0.0e5" in path.read_text() and loaded.nonzero == FEHLBERG7.nonzero

    def rhs(x, y):
        return math.sin(x * y) - y * y

    for h in (0.01, -0.01, 0.3):
        for x, y in ((0.5, 0.3), (-2.0, 1.7), (10.0, -0.25)):
            want = _dense_step(rhs, x, y, h, FEHLBERG7).hex()
            assert rk_step(partial(loaded.step, rhs), x, y, h).hex() == want
            assert rk_step(_f7(rhs), x, y, h).hex() == want


def _recorded(rhs):
    """``rhs`` that also logs each call's arguments and result as hex."""
    calls = []

    def logged(x, y):
        k = rhs(x, y)
        calls.append((x.hex(), y.hex(), k.hex()))
        return k

    return logged, calls


def test_compiled_step_matches_a_dense_loop_bit_for_bit():
    # the rhs see the sign of zero: x + 0.0*h is +0.0 at x = -0.0, and a
    # weighted sum of -0.0 slopes starts from +0.0
    rhs_cases = (lambda x, y: math.sin(x * y) - y * y,
                 lambda x, y: -0.0,
                 lambda x, y: math.copysign(y, x) if y < 1.0 else -0.0 * y)
    tableaus = (FEHLBERG7, RK4, KUTTA3_SKEW)
    rng = random.Random(20231018)
    points = [(-0.0, -0.0), (0.0, 0.0), (-0.0, 0.75)]
    points += [(rng.uniform(-20.0, 20.0), rng.uniform(-2.0, 2.0)) for _ in range(20)]
    for t in tableaus:
        for rhs in rhs_cases:
            for h in (0.01, -0.01, 0.37, -1.5):
                for x, y in points:
                    want_rhs, want_calls = _recorded(rhs)
                    got_rhs, got_calls = _recorded(rhs)
                    want = _dense_step(want_rhs, x, y, h, t).hex()
                    got = rk_step(partial(t.step, got_rhs), x, y, h).hex()
                    assert got == want, (t.name, h, x, y)
                    assert got_calls == want_calls


def test_compiled_step_stays_out_of_pickles_hash_and_equality():
    # stepping leaves no state in the pickle, hash or equality: a rebuilt tableau and an
    # unpickled copy equal the stepped one and step bit for bit as it does
    def rhs(x, y):
        return math.cos(x) * y

    want = rk_step(_f7(rhs), 0.3, 1.1, -0.02)
    fresh = RKTableau(FEHLBERG7.name, FEHLBERG7.order, FEHLBERG7.a, FEHLBERG7.b, FEHLBERG7.c)
    assert fresh == FEHLBERG7 and hash(fresh) == hash(FEHLBERG7)
    assert pickle.dumps(fresh) == pickle.dumps(FEHLBERG7)
    copy = pickle.loads(pickle.dumps(FEHLBERG7))
    assert copy == FEHLBERG7 and hash(copy) == hash(FEHLBERG7)
    assert rk_step(partial(copy.step, rhs), 0.3, 1.1, -0.02).hex() == want.hex()
