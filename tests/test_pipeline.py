import io
import math

import pytest

from trapcorr import (ConfigError, DomainError, NoRootError, ProblemSpec,
                      emit_csv, emit_xi_csv, eval_jet, integrate, parse,
                      pipeline, reference_integral, run, solve_xi0,
                      solve_xi_at, trapezium, xi_ode, xi_rhs)
from trapcorr.errors import phase
from trapcorr.pipeline import CSV_HEADER, CurveRow, ErrorCurve, in_interval_xi

from conftest import sin_spec


# ------------------------------------------------------------ validation

def test_spec_x0_defaults_to_midpoint():
    spec = ProblemSpec(f_text="sin(x)", f_ast=parse("sin(x)"), a=1.0, b=9.0,
                       x0=None, h=0.01)
    assert spec.x0 == 5.0
    assert ProblemSpec.from_text("sin(x)", 1.0, 9.0) == spec


def test_spec_validation():
    with pytest.raises(ConfigError):
        sin_spec(a=10.0, b=1.0)
    with pytest.raises(ConfigError):
        sin_spec(x0=0.5)  # outside (a, b)
    with pytest.raises(ConfigError):
        sin_spec(h=2.0)  # > (b - a)/10
    with pytest.raises(ConfigError):
        sin_spec(h=-0.01)
    with pytest.raises(ConfigError):
        sin_spec(ref_tol=0.0)
    with pytest.raises(ConfigError):
        sin_spec(root_tol=-1.0)
    for tol in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            sin_spec(ref_tol=tol)
        with pytest.raises(ConfigError):
            sin_spec(root_tol=tol)


def test_spec_default_x0_is_midpoint():
    spec = ProblemSpec.from_text("sin(x)", 1.0, 9.0, h=0.01)
    assert spec.x0 == 5.0


# ------------------------------------------------------------- bootstrap

def test_solve_xi0_sin_matches_bisection_value():
    xi0 = solve_xi0(sin_spec())
    assert abs(xi0 - 3.049296665128674) <= 1e-12


def test_solve_xi0_quadratic_falls_back_to_midpoint():
    spec = ProblemSpec.from_text("x^2", 0.0, 4.0, x0=2.0, h=0.01)
    assert solve_xi0(spec) == 1.0


def test_run_differentiates_one_shifted_integrand(monkeypatch):
    spec = sin_spec(shift=2.0)
    seen = {}
    for module in (pipeline, xi_ode):
        def record(f, x, original=module.eval_jet):
            seen[id(f)] = f
            return original(f, x)
        monkeypatch.setattr(module, "eval_jet", record)
    run(spec)
    assert len(seen) == 1, f"{len(seen)} integrand trees differentiated"
    assert next(iter(seen.values())) is spec.g


def test_solve_xi_at_infeasible_reference_reports_no_root():
    spec = sin_spec()
    problem = spec
    i_ref = reference_integral(problem.g, spec.a, spec.x0, spec.ref_tol).value
    # push the target outside the reachable range of the second derivative:
    # a +-1 perturbation only moves the matched f'' by 12/w^3 ~ 0.19, which
    # stays reachable, so drive it well past the +-1 range of sin
    with pytest.raises(NoRootError) as exc:
        solve_xi_at(problem, spec.x0, i_ref + 6.0, spec.root_tol)
    assert exc.value.min_abs_residual > spec.root_tol
    assert spec.a < exc.value.at < spec.x0


def test_solve_xi0_stamps_init_phase_on_failure():
    spec = sin_spec(ref_tol=1e-30)  # unreachable tolerance
    with pytest.raises(Exception) as exc:
        solve_xi0(spec)
    assert exc.value.phase == "init"


def test_phase_keeps_the_innermost_tag():
    with pytest.raises(ConfigError) as exc:
        with phase("curve"):
            with phase("init"):
                raise ConfigError("synthetic failure")
    assert exc.value.phase == "init"


def test_root_consistency_along_forward_sweep(sin_curve):
    # re-derive xi from the defining identity at nodes of the forward
    # sweep (where the residual has a single root) and compare with the
    # ODE trajectory
    spec = sin_curve.spec
    problem = spec
    rows = [r for r in sin_curve.rows if r.x >= spec.x0]
    picks = [rows[int(frac * (len(rows) - 1))] for frac in
             (0.0, 0.25, 0.5, 0.75, 1.0)]
    for row in picks:
        i_ref = reference_integral(problem.g, spec.a, row.x, 1e-13).value
        xi_again = solve_xi_at(problem, row.x, i_ref, spec.root_tol)
        assert xi_again == pytest.approx(row.xi, abs=1e-6)


def test_root_consistency_along_exotic_grid(exotic_curve):
    spec = exotic_curve.spec
    problem = spec
    rows = exotic_curve.rows[1:]
    picks = [rows[int(frac * (len(rows) - 1))] for frac in
             (0.02, 0.25, 0.5, 0.75, 1.0)]
    for row in picks:
        i_ref = reference_integral(problem.g, spec.a, row.x, 1e-9).value
        xi_again = solve_xi_at(problem, row.x, i_ref, spec.root_tol)
        assert xi_again == pytest.approx(row.xi, abs=1e-6)


# ------------------------------------------------------------------ runs

def test_sin_run_grid_shape(sin_curve):
    rows = sin_curve.rows
    assert rows[0].x == 1.0 and rows[0].xi is None
    assert rows[0].trapezium == 0.0 and rows[0].corrected == 0.0
    assert rows[1].x == pytest.approx(1.01, abs=1e-12)
    assert rows[-1].x == 10.0
    xs = [r.x for r in rows]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert len(rows) == 901


def test_sin_run_correction_beats_raw_trapezium(sin_curve):
    worst_corrected = 0.0
    worst_trap = 0.0
    for row in sin_curve.rows:
        exact = math.cos(1.0) - math.cos(row.x)
        worst_corrected = max(worst_corrected, abs(row.corrected - exact))
        worst_trap = max(worst_trap, abs(row.trapezium - exact))
    assert worst_corrected <= 1e-8
    assert worst_trap >= 1.0
    assert worst_corrected < 1e-3 * worst_trap


def test_rows_close_corrected_identity(sin_curve, exotic_curve):
    # corrected must be exactly the sum as computed, bit for bit
    for curve in (sin_curve, exotic_curve):
        for row in curve.rows:
            assert row.corrected == row.trapezium + row.error_term


def test_trapezium_column_matches_direct_evaluation(sin_curve):
    spec = sin_curve.spec
    for row in sin_curve.rows[1::100]:
        assert row.trapezium == trapezium(spec.f_ast, spec.a, row.x)


def test_reference_and_residual_columns():
    spec = sin_spec(b=3.0, x0=2.0)
    curve = run(spec, residual=True)
    assert curve.rows[0].reference == 0.0
    for row in curve.rows[1::25]:
        exact = math.cos(1.0) - math.cos(row.x)
        assert row.reference == pytest.approx(exact, abs=5e-12)
        assert row.residual == pytest.approx(row.corrected - row.reference,
                                             abs=1e-15)
    bare = run(spec)
    assert all(r.reference is None and r.residual is None for r in bare.rows)


def test_run_is_deterministic(sin_curve):
    again = run(sin_spec())
    assert again.rows == sin_curve.rows
    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_csv(sin_curve, buf_a)
    emit_csv(again, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_run_metadata(sin_curve):
    assert sin_curve.spec.tableau.name == "fehlberg7"
    assert sin_curve.wall_time > 0.0
    assert sin_curve.spec.f_text == "sin(x)"


def test_exotic_run_magnitudes(exotic_curve):
    worst_trap = max(abs(r.trapezium - r.reference) for r in exotic_curve.rows)
    worst_residual = max(abs(r.residual) for r in exotic_curve.rows)
    assert 1e5 <= worst_trap <= 1e6
    assert worst_residual <= 1e-8


def test_shift_equivalence_on_sin(sin_curve, sin_curve_shifted):
    # with the cubic shift active the emitted curve must still describe
    # the original integrand
    assert len(sin_curve.rows) == len(sin_curve_shifted.rows)
    for direct, shifted in zip(sin_curve.rows[1:], sin_curve_shifted.rows[1:]):
        assert shifted.x == direct.x
        assert shifted.error_term == pytest.approx(direct.error_term, abs=1e-9)
        assert shifted.corrected == pytest.approx(direct.corrected, abs=1e-9)


def test_shifted_quadratic_matches_antiderivative():
    spec = ProblemSpec.from_text("x^2", 0.0, 4.0, x0=2.0, h=0.01, shift=1.0)
    curve = run(spec)
    for row in curve.rows:
        assert row.corrected == pytest.approx(row.x ** 3 / 3.0, abs=1e-10)


def test_shifted_run_far_from_the_origin():
    spec = ProblemSpec.from_text("sin(x)", 1000.0, 1009.0, x0=1004.5, h=0.01,
                                 shift=2.0, ref_tol=1e-12, root_tol=1e-11)
    worst = max(abs(r.corrected - (math.cos(1000.0) - math.cos(r.x)))
                for r in run(spec).rows)
    assert worst <= 1e-9


def test_singular_abort_suggests_shift():
    spec = ProblemSpec.from_text("x^2", 0.0, 4.0, x0=2.0, h=0.01)
    from trapcorr import SingularDenominatorError
    with pytest.raises(SingularDenominatorError) as exc:
        run(spec)
    assert exc.value.suggested_shift == 1.0
    assert exc.value.phase == "ode"
    assert str(exc.value).endswith("; rerun with --shift-D 1")


def test_mid_sweep_domain_error_propagates_with_ode_phase():
    # sqrt(3-x) has no jet at x = 3, which the forward sweep from 2.5 reaches
    spec = ProblemSpec.from_text("sqrt(3-x)", 1.0, 4.0, h=0.01)
    with pytest.raises(DomainError) as exc:
        run(spec)
    assert exc.value.phase == "ode"
    assert exc.value.x == 3.0
    assert str(exc.value) == "non-finite jet component at x=3.0"


# --------------------------------------------------------- branch switch

def unswitched_nodes(spec):
    """(x, xi) nodes of both sweeps as the bare ODE gives them, with no
    branch switch."""
    problem = spec
    xi0 = solve_xi0(spec)

    def rhs(x, xi):
        return xi_rhs(problem, x, xi)

    forward = integrate(rhs, spec.x0, xi0, spec.b, spec.h)
    reverse = integrate(rhs, spec.x0, xi0, spec.a + spec.h, spec.h)
    return list(reversed(reverse.nodes))[:-1] + list(forward.nodes)


def test_in_interval_xi_reflects_the_sin_tail_node(sin_curve):
    problem = sin_curve.spec
    rows = sin_curve.rows
    # first reverse node where the bare ODE has crossed xi = x
    i = next(i for i, r in enumerate(rows) if abs(r.x - 1.81) < 1e-9)
    x, xi_out = rows[i].x, 1.8155206756564377
    t = in_interval_xi(problem, x, xi_out, rows[i + 1].xi)
    assert problem.a < t < x
    assert abs(eval_jet(problem.g, t).d2
               - eval_jet(problem.g, xi_out).d2) <= 1e-15
    assert t == pytest.approx(math.pi - xi_out, abs=1e-12)


def test_in_interval_xi_takes_the_preimage_nearest_the_previous_node():
    problem = sin_spec(b=20.0)
    # sin(t) = sin(9) has two solutions in (1, 8): 9 - 2 pi and 5 pi - 9
    assert in_interval_xi(problem, 8.0, 9.0, 6.5) == pytest.approx(
        5.0 * math.pi - 9.0, abs=1e-12)
    assert in_interval_xi(problem, 8.0, 9.0, 3.0) == pytest.approx(
        9.0 - 2.0 * math.pi, abs=1e-12)


def test_in_interval_xi_keeps_a_value_with_no_preimage():
    problem = sin_spec()
    # g'' = -sin stays inside (-sin(1.5), -sin(1)) on (1, 1.5); -1 is not there
    xi_out = 0.5 * math.pi
    assert in_interval_xi(problem, 1.5, xi_out, 1.2) == xi_out


def test_sin_reverse_tail_switches_to_the_in_interval_branch(sin_curve):
    spec = sin_curve.spec
    bare = unswitched_nodes(spec)
    rows = sin_curve.rows[1:]
    assert [r.x for r in rows] == [x for x, _ in bare]
    for row, (x, xi) in zip(rows, bare):
        assert spec.a < row.xi < row.x
        if x > 1.815:  # forward sweep and reverse nodes before the crossing
            assert row.xi == xi
    switched = [r for r, (_, xi) in zip(rows, bare) if r.xi != xi]
    assert len(switched) == 81 and max(r.x for r in switched) < 1.815


def test_runs_without_a_switch_keep_the_bare_ode_nodes(exotic_curve,
                                                        sin_curve_shifted):
    for curve in (exotic_curve, sin_curve_shifted):
        assert [(r.x, r.xi) for r in curve.rows[1:]] == unswitched_nodes(curve.spec)


# ------------------------------------------------------------------- CSV

def test_csv_single_row():
    curve = ErrorCurve(
        rows=(CurveRow(x=1.0, xi=None, trapezium=0.0, error_term=0.0,
                       corrected=0.0),),
        spec=sin_spec(), wall_time=0.0)
    buf = io.StringIO()
    emit_csv(curve, buf)
    assert buf.getvalue() == CSV_HEADER + "\n1,,0,0,0,,\n"


def test_csv_full_row_formatting():
    row = CurveRow(x=1.25, xi=math.pi, trapezium=-0.5, error_term=0.125,
                   corrected=-0.375, reference=-0.375, residual=0.0)
    curve = ErrorCurve(rows=(row,), spec=sin_spec(), wall_time=0.0)
    buf = io.StringIO()
    emit_csv(curve, buf)
    body = buf.getvalue().splitlines()[1]
    assert body == "1.25,3.1415926535897931,-0.5,0.125,-0.375,-0.375,0"
    # every field round-trips
    for field, want in zip(body.split(","), (1.25, math.pi, -0.5, 0.125,
                                             -0.375, -0.375, 0.0)):
        assert float(field) == want


def test_csv_values_round_trip(sin_curve):
    buf = io.StringIO()
    emit_csv(sin_curve, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    probe = lines[451].split(",")
    row = sin_curve.rows[450]
    assert float(probe[0]) == row.x
    assert float(probe[1]) == row.xi
    assert float(probe[4]) == row.corrected
    assert probe[5] == "" and probe[6] == ""


def test_csv_lf_endings_and_trailing_newline(tmp_path, sin_curve):
    path = tmp_path / "curve.csv"
    emit_csv(sin_curve, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.count(b"\n") == len(sin_curve.rows) + 1


def test_csv_unwritable_destination(sin_curve):
    from trapcorr import IoError
    with pytest.raises(IoError) as exc:
        emit_csv(sin_curve, "/nonexistent-dir/curve.csv")
    assert "/nonexistent-dir/curve.csv" in str(exc.value)


def test_csv_empty_curve_rejected():
    curve = ErrorCurve(rows=(), spec=sin_spec(), wall_time=0.0)
    with pytest.raises(ConfigError):
        emit_csv(curve, io.StringIO())


def test_xi_csv_columns(sin_curve):
    buf = io.StringIO()
    emit_xi_csv(sin_curve, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,xi"
    assert lines[1] == "1,"
    assert all(line.count(",") == 1 for line in lines)
