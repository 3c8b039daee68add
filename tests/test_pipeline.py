import io
import math
import pickle
from functools import partial
from pathlib import Path

import pytest

from trapcorr import (ConfigError, DomainError, NoRootError, ProblemSpec,
                      emit_csv, emit_xi_csv, eval_jet, integrate, load_tableau, parse,
                      pipeline, reference_integral, run, solve_xi0,
                      solve_xi_at, trapezium, xi_ode, xi_rhs)
from trapcorr.errors import phase
from trapcorr.pipeline import CSV_HEADER, CurveRow, ErrorCurve, in_interval_xi

from conftest import exotic_spec, sin_spec

DATA = Path(__file__).parent / "data"


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


def test_spec_rejects_an_interval_whose_power_overflows():
    # every (x - a)^3 of a run, and with a shift (x - a)^4, must stay finite,
    # x a little past b by rounding included: the cube root of the largest
    # double is 5.6438e102, its fourth root 1.1579e77
    for a, b, shift in ((0.0, 1e200, 0.0), (0.0, 5.65e102, 0.0), (-1e308, 1e308, 0.0),
                        (-2.83e102, 2.83e102, 0.0), (0.0, 1.16e77, 1.0)):
        with pytest.raises(ConfigError, match=r": \(x - a\)\^[34] nears overflow"):
            ProblemSpec.from_text("1", a, b, h=b / 100, shift=shift)
    ProblemSpec.from_text("1", 0.0, 1.15e77, h=1.15e75, shift=1.0)
    # just inside the limit, a stage abscissa some ulps past b still cubes
    spec = ProblemSpec.from_text("sin(x)", -2.82e102, 2.82e102, h=1e101)
    x = spec.b
    for _ in range(8):
        x = math.nextafter(x, math.inf)
        assert math.isfinite(xi_rhs(spec, x, 1.0))


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


def _full_scan_xi_at(spec, x, i_ref, root_tol):
    """The bootstrap with the scan run to its end: R at every scan point, the
    midpoint when no |R| exceeds root_tol, else the root in cells[0]."""
    a, w = spec.a, x - spec.a
    base = trapezium(spec.g, a, x) - i_ref
    scale = w ** 3 / 12.0

    def res(xi):
        return base - scale * eval_jet(spec.g, xi).d2

    points, values = pipeline._scan(res, a, w)
    if max(abs(v) for v in values) <= root_tol:
        return a + 0.5 * w
    cells = pipeline._brackets(values)
    if not cells:
        at = points[min(range(len(values)), key=lambda i: abs(values[i]))]
        raise NoRootError("no sign change of the bootstrap residual in (a, x0)",
                          min_abs_residual=min(abs(v) for v in values), at=at)
    xi0 = pipeline._root(res, points, values, cells[0])
    achieved = abs(res(xi0))
    if achieved > root_tol:
        floor = scale * abs(eval_jet(spec.g, xi0).d3) * math.ulp(xi0)
        why = (f", above the root tolerance {root_tol!r}, sits at xi's float-resolution floor "
               f"{floor!r}; a root tolerance above that floor can be met" if achieved <= floor
               else f" still exceeds the root tolerance {root_tol!r}")
        raise NoRootError(f"bisection converged but the residual {achieved!r}{why}",
                          min_abs_residual=achieved, at=xi0)
    return xi0


def _outcome(solve, *args):
    """A solve's result in hex, or its NoRootError's message and fields."""
    try:
        return solve(*args).hex()
    except NoRootError as exc:
        return str(exc), exc.min_abs_residual.hex(), exc.at.hex()


def _bootstrap(spec):
    return (spec, spec.x0, reference_integral(spec.g, spec.a, spec.x0, spec.ref_tol).value,
            spec.root_tol)


@pytest.mark.parametrize("spec", [
    sin_spec(),
    exotic_spec(),
    exotic_spec(root_tol=1e-12),  # bisection converges above the tolerance
    sin_spec(shift=2.0),
    sin_spec(shift=-2.0),
    ProblemSpec.from_text("x^2", 0.0, 4.0, x0=2.0, h=0.01),  # the midpoint convention
    ProblemSpec.from_text("sin(8*x)", 1.0, 30.0, h=0.01),  # no root within the tolerance
    sin_spec(a=1000.0, b=1009.0, x0=1004.5, shift=2.0),  # at xi's float-resolution floor
], ids=["sin", "exotic", "exotic-tight", "sin-shift+2", "sin-shift-2", "x^2", "sin(8x)",
        "floor"])
def test_early_stopping_scan_matches_the_full_scan(spec):
    expected = _outcome(_full_scan_xi_at, *_bootstrap(spec))
    assert _outcome(solve_xi0, spec) == expected


def test_early_stopping_scan_matches_the_full_scan_without_a_sign_change():
    spec, x, i_ref, root_tol = _bootstrap(sin_spec())
    expected = _outcome(_full_scan_xi_at, spec, x, i_ref + 6.0, root_tol)
    assert "no sign change" in expected[0]
    assert _outcome(solve_xi_at, spec, x, i_ref + 6.0, root_tol) == expected


def test_scan_stops_before_a_jet_failure_past_its_first_bracket():
    # g''' of (x*x)^1.25 is infinite at 0, scan point 128 of (-1, 1); the first
    # bracket is cell 86, so the scan stops before it and the root stands
    spec = ProblemSpec.from_text("(x*x)^1.25", -1.0, 2.0, x0=1.0, h=0.01)
    with pytest.raises(DomainError, match="at x=0.0"):
        _full_scan_xi_at(*_bootstrap(spec))
    _, x, i_ref, root_tol = _bootstrap(spec)
    xi0 = solve_xi0(spec)
    points = [spec.a + (x - spec.a) * i / pipeline.SCAN_INTERVALS for i in (86, 87)]
    assert points[0] < xi0 < points[1]
    residual = (trapezium(spec.g, spec.a, x) - i_ref
                - (x - spec.a) ** 3 / 12.0 * eval_jet(spec.g, xi0).d2)
    assert abs(residual) <= root_tol


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


def test_set_up_leaves_the_kernel_to_the_first_run():
    # the sweep's step compiles per (shape, tableau) on a run's first use, never
    # when a spec is built; this shape appears in no other test
    info = xi_ode._factory.cache_info
    before = info()
    spec = ProblemSpec.from_text("2.5*exp(x/7)-x/3", 1.0, 4.0, x0=2.5, h=0.05)
    rk4_spec = ProblemSpec.from_text("2.5*exp(x/7)-x/3", 1.0, 4.0, x0=2.5, h=0.05,
                                     tableau=load_tableau(str(DATA / "rk4.tab")))
    assert info() == before
    run(spec)
    first = info()
    assert (first.misses, first.hits) == (before.misses + 1, before.hits)
    run(spec)
    run(ProblemSpec.from_text("1.5*exp(x/9)-x/4", 1.0, 4.0, x0=2.5, h=0.05))
    assert info().misses == first.misses
    run(rk4_spec)
    run(rk4_spec)
    assert info().misses == first.misses + 1


def test_spec_pickles_and_rebuilds_its_memo():
    # the pickle carries the fields alone: g, g(a) and g's compiled evaluators
    # are built anew on loading
    spec = sin_spec(shift=2.0)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy.g == spec.g and copy.g_at_a == spec.g_at_a
    assert copy.g is not spec.g and copy.g._evaluators is not spec.g._evaluators
    assert eval_jet(copy.g, 5.0) == eval_jet(spec.g, 5.0)


def test_spec_pickles_after_its_tableau_has_stepped():
    spec = sin_spec(shift=2.0)
    curve = run(spec)  # compiles the sweep's step and builds g's evaluators
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy.g == spec.g and copy.g_at_a == spec.g_at_a
    assert "step" not in copy.tableau.__dict__
    assert run(copy).rows == curve.rows


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


def test_overflowed_xi_is_named_as_xi_at_its_node():
    # a step's xi overflows at the node x = 1134.5; the branch switch must not read it as x
    spec = ProblemSpec.from_text("x^100", 1.0, 1200.0, h=1.0, ref_tol=1e270, root_tol=1e271)
    with pytest.raises(DomainError) as exc:
        run(spec)
    assert exc.value.phase == "ode"
    assert exc.value.x == 1134.5
    assert str(exc.value) == "non-finite xi=inf at x=1134.5"


# --------------------------------------------------------- branch switch

def unswitched_nodes(spec):
    """(x, xi) nodes of both sweeps as the bare ODE gives them, with no
    branch switch."""
    problem = spec
    xi0 = solve_xi0(spec)

    def rhs(x, xi):
        return xi_rhs(problem, x, xi)

    step = partial(spec.tableau.step, rhs)
    forward = integrate(step, spec.x0, xi0, spec.b, spec.h)
    reverse = integrate(step, spec.x0, xi0, spec.a + spec.h, spec.h)
    return list(reversed(reverse))[:-1] + list(forward)


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


def test_csv_fields_are_format_17g_per_field():
    # each row takes the %-template of its pattern of absent fields; every
    # pattern must write what format(v, ".17g") writes
    edge = (-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, 7, -2.5e-10, math.inf, -math.nan)
    rows = []
    for i in range(len(edge)):
        v = [edge[(i + j) % len(edge)] for j in range(7)]
        rows.append(CurveRow(*v))
        rows.append(CurveRow(*v[:5]))
        rows.append(CurveRow(v[0], None, *v[2:6]))
        rows.append(CurveRow(*v[:6]))
    curve = ErrorCurve(rows=tuple(rows), spec=sin_spec(), wall_time=0.0)
    for writer, columns in ((emit_csv, CSV_HEADER.split(",")), (emit_xi_csv, ["x", "xi"])):
        buf = io.StringIO()
        writer(curve, buf)
        want = [",".join(columns)] + [
            ",".join("" if v is None else format(v, ".17g")
                     for v in (getattr(r, c) for c in columns)) for r in rows]
        assert buf.getvalue() == "\n".join(want) + "\n"


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


def test_csv_file_holds_the_bytes_of_the_text(tmp_path, exotic_curve):
    # every character is ASCII, so the file's UTF-8 bytes are the text's ASCII bytes
    path, buf = tmp_path / "curve.csv", io.StringIO()
    emit_csv(exotic_curve, str(path))
    emit_csv(exotic_curve, buf)
    assert path.read_bytes() == buf.getvalue().encode("ascii")


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
