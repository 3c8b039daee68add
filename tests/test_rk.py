import math

import pytest

from trapcorr import (ConfigError, DomainError, FEHLBERG7, IoError, RKTableau,
                      empirical_order, format_tableau, integrate, load_tableau,
                      rk_step)
from trapcorr.rk import order_condition_residuals


# ------------------------------------------------------------- tableau

def test_shipped_tableau_row_sums():
    assert FEHLBERG7.row_sum_defect() <= 1e-14


def test_shipped_tableau_weights():
    assert abs(math.fsum(FEHLBERG7.b) - 1.0) <= 1e-15


def test_shipped_tableau_order_conditions_to_four():
    residuals = order_condition_residuals(FEHLBERG7)
    assert len(residuals) == 8  # all rooted trees through order 4
    for label, order, residual in residuals:
        assert residual <= 1e-13, f"{label} (order {order}): {residual:.3e}"


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


# ---------------------------------------------------------------- steps

def test_step_constant_rhs_zero():
    assert rk_step(lambda x, y: 0.0, 1.0, 4.5, 0.3) == 4.5


def test_step_constant_rhs_one():
    got = rk_step(lambda x, y: 1.0, 1.0, 4.5, 0.3)
    assert got == pytest.approx(4.8, rel=1e-15)


def test_step_exponential_single():
    got = rk_step(lambda x, y: y, 0.0, 1.0, 0.5)
    assert got == pytest.approx(math.exp(0.5), abs=1e-8)


def test_step_rejects_zero_h():
    with pytest.raises(ConfigError):
        rk_step(lambda x, y: y, 0.0, 1.0, 0.0)


# ----------------------------------------------------------- trajectories

def test_integrate_exponential_forward():
    traj = integrate(lambda x, y: y, 0.0, 1.0, 1.0, 0.01)
    assert traj.nodes[0] == (0.0, 1.0)
    assert traj.nodes[-1][0] == 1.0
    assert traj.y_end == pytest.approx(math.e, abs=1e-12)


def test_integrate_exponential_reverse():
    traj = integrate(lambda x, y: y, 1.0, math.e, 0.0, 0.01)
    xs = [x for x, _ in traj.nodes]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert traj.y_end == pytest.approx(1.0, abs=1e-12)


def test_integrate_degenerate_interval():
    traj = integrate(lambda x, y: y, 2.0, 5.0, 2.0, 0.1)
    assert traj.nodes == ((2.0, 5.0),)


def test_final_step_clamps():
    traj = integrate(lambda x, y: 0.0, 0.0, 0.0, 1.0, 0.3)
    xs = [x for x, _ in traj.nodes]
    assert xs == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert all(g == pytest.approx(0.3, rel=1e-12) for g in gaps[:-1])
    assert gaps[-1] < 0.3


def test_nodes_strictly_monotone():
    traj = integrate(lambda x, y: math.sin(x) * y, 5.0, 1.0, 1.0, 0.01)
    xs = [x for x, _ in traj.nodes]
    assert all(b < a for a, b in zip(xs, xs[1:]))


def test_empirical_order_is_seven():
    rows = empirical_order()
    slopes = [s for _, _, s in rows if not math.isnan(s)]
    assert slopes, "every pair fell below the rounding floor"
    for slope in slopes:
        assert abs(slope - FEHLBERG7.order) <= 0.5


def test_forward_reverse_round_trip():
    for h in (0.1, 0.05):
        fwd = integrate(lambda x, y: y, 0.0, 1.0, 1.0, h)
        fwd_err = abs(fwd.y_end - math.e)
        back = integrate(lambda x, y: y, 1.0, fwd.y_end, 0.0, h)
        assert abs(back.y_end - 1.0) <= 10.0 * fwd_err


def test_rhs_failure_propagates_unwrapped():
    raised = []

    def rhs(x, y):
        if x > 0.55:
            raised.append(DomainError("synthetic failure", x))
            raise raised[-1]
        return y

    with pytest.raises(DomainError) as exc:
        integrate(rhs, 0.0, 1.0, 1.0, 0.1)
    assert exc.value is raised[0]
    assert 0.55 < exc.value.x <= 0.6  # a stage of the step from 0.5 to 0.6
    assert exc.value.phase is None


def test_on_node_replaces_each_node_and_sweep_continues_from_it():
    seen = []

    def halve(x, y):
        seen.append(x)
        return 0.5 * y

    traj = integrate(lambda x, y: 0.0, 0.0, 1.0, 0.3, 0.1, on_node=halve)
    xs = [x for x, _ in traj.nodes]
    assert xs == [0.0, 0.1, 0.2, 0.3]
    assert seen == xs[1:]
    assert [y for _, y in traj.nodes] == [1.0, 0.5, 0.25, 0.125]


def test_on_node_failure_propagates_unwrapped():
    raised = []

    def hook(x, y):
        if x > 0.25:
            raised.append(DomainError("synthetic failure", x))
            raise raised[-1]
        return y

    with pytest.raises(DomainError) as exc:
        integrate(lambda x, y: y, 0.0, 1.0, 1.0, 0.1, on_node=hook)
    assert exc.value is raised[0]
    assert exc.value.x == pytest.approx(0.3)


# ------------------------------------------------------------ file format

def test_tableau_file_round_trip(tmp_path):
    path = tmp_path / "fehlberg7.tab"
    path.write_text(format_tableau(FEHLBERG7), encoding="ascii")
    loaded = load_tableau(str(path), name="fehlberg7")
    assert loaded == FEHLBERG7


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
    traj = integrate(lambda x, y: y, 0.0, 1.0, 1.0, 0.001, tableau=loaded)
    assert traj.y_end == pytest.approx(math.e, abs=1e-5)
