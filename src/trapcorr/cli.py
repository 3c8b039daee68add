"""Command-line front door.

Subcommands:

    integrate      full corrected-quadrature run, CSV out
    xi-curve       only the (x, xi) columns of the same run
    order-test     empirical convergence order of the active tableau
    tableau-check  validate a tableau file

Exit codes: 0 success, 2 expression/flag parse error, 3 singular ODE
denominator (the message suggests a shift constant), 4 no root during
initialization, 5 invalid configuration, 6 I/O error.  Every error path
prints exactly one diagnostic line naming the failing phase; stack
traces never appear by default.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (ConfigError, ExpressionError, IoError, NoRootError,
                     SingularDenominatorError, TrapcorrError, phase)
from .expr import parse
from .pipeline import ProblemSpec, emit_csv, emit_xi_csv, run
from .rk import FEHLBERG7, RKTableau, empirical_order, load_tableau, \
    order_condition_residuals

PROG = "trapcorr"


def _exit_code(err: TrapcorrError) -> int:
    if isinstance(err, ExpressionError):
        return 2
    if isinstance(err, SingularDenominatorError):
        return 3
    if isinstance(err, NoRootError):
        return 4
    if isinstance(err, IoError):
        return 6
    # ConfigError, DomainError, ToleranceError: the problem as configured
    # cannot be computed
    return 5


def _diagnose(err: TrapcorrError) -> None:
    print(f"{PROG}: [{err.phase or 'config'}] {err}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse with single-line diagnostics and a stable help width."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault(
            "formatter_class",
            lambda prog: argparse.HelpFormatter(
                prog, width=88, max_help_position=28))
        super().__init__(*args, **kwargs)

    def error(self, message):
        print(f"{PROG}: [args] {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", required=True, metavar="EXPR",
                   help="integrand expression in x, e.g. 'sin(x)'")
    p.add_argument("--a", required=True, type=float, help="lower limit")
    p.add_argument("--b", required=True, type=float, help="upper limit")
    p.add_argument("--x0", type=float, default=None,
                   help="seed abscissa for the bootstrap (default: midpoint of [a, b])")
    p.add_argument("--h", required=True, type=float, help="RK step size")
    p.add_argument("--shift-D", type=float, default=0.0, dest="shift_d",
                   help="cubic shift constant D; g = f + D*(x-a)^3/6 (default: 0)")
    p.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                   help="RK tableau to integrate with (default: builtin)")
    p.add_argument("--reference", action="store_true",
                   help="attach a reference-integral column (slow; default: off)")
    p.add_argument("--residual", action="store_true",
                   help="attach corrected-minus-reference column, implies "
                        "--reference (default: off)")
    p.add_argument("--ref-tol", type=float, default=1e-13,
                   help="absolute tolerance of reference integrals (default: 1e-13)")
    p.add_argument("--root-tol", type=float, default=1e-12,
                   help="residual tolerance of the bootstrap root solve "
                        "(default: 1e-12)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output CSV path (default: stdout)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="progress notes on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Trapezium quadrature with its error term recovered by "
                    "integrating an ODE for the mean-value point.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_int = sub.add_parser(
        "integrate", parents=[], help="run the corrected quadrature, write CSV",
        formatter_class=parser.formatter_class)
    _add_problem_flags(p_int)
    p_int.set_defaults(func=_cmd_integrate)

    p_xi = sub.add_parser(
        "xi-curve", help="write only the (x, xi) columns",
        formatter_class=parser.formatter_class)
    _add_problem_flags(p_xi)
    p_xi.set_defaults(func=_cmd_xi_curve)

    p_ord = sub.add_parser(
        "order-test", help="measure the tableau's empirical convergence order",
        formatter_class=parser.formatter_class)
    p_ord.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                       help="RK tableau to measure")
    p_ord.set_defaults(func=_cmd_order_test)

    p_tab = sub.add_parser(
        "tableau-check", help="validate a tableau file",
        formatter_class=parser.formatter_class)
    p_tab.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                       help="RK tableau to check")
    p_tab.set_defaults(func=_cmd_tableau_check)
    return parser


def _resolve_tableau(selector: str) -> RKTableau:
    if selector == "builtin":
        return FEHLBERG7
    return load_tableau(selector)


def _build_spec(ns: argparse.Namespace) -> ProblemSpec:
    with phase("parse"):
        f_ast = parse(ns.f)
    with phase("config"):
        tableau = _resolve_tableau(ns.tableau)
        spec = ProblemSpec(f_text=ns.f, f_ast=f_ast, a=ns.a, b=ns.b, x0=ns.x0,
                           h=ns.h, shift=ns.shift_d, ref_tol=ns.ref_tol,
                           root_tol=ns.root_tol, tableau=tableau)
        if spec.x0 - spec.a < 10.0 * spec.h:
            raise ConfigError(
                f"x0 must sit at least 10 steps above a: x0 - a = "
                f"{spec.x0 - spec.a!r} < {10.0 * spec.h!r}")
    if spec.x0 - spec.a < 0.5:
        print(f"{PROG}: warning [config] x0 - a = {spec.x0 - spec.a:g} is small; "
              f"the ODE denominator vanishes toward a", file=sys.stderr)
    return spec


def _note(ns: argparse.Namespace, tag: str, message: str) -> None:
    if getattr(ns, "verbose", False):
        print(f"{PROG}: [{tag}] {message}", file=sys.stderr)


def _emit(curve, ns, writer) -> None:
    with phase("output"):
        writer(curve, sys.stdout if ns.out is None else ns.out)


def _cmd_integrate(ns: argparse.Namespace) -> int:
    spec = _build_spec(ns)
    curve = run(spec, reference=ns.reference, residual=ns.residual)
    _note(ns, "curve", f"{len(curve.rows)} rows in {curve.wall_time:.3f}s "
                       f"({curve.spec.tableau.name})")
    _emit(curve, ns, emit_csv)
    return 0


def _cmd_xi_curve(ns: argparse.Namespace) -> int:
    spec = _build_spec(ns)
    curve = run(spec)
    _note(ns, "curve", f"{len(curve.rows)} rows in {curve.wall_time:.3f}s")
    _emit(curve, ns, emit_xi_csv)
    return 0


def _cmd_order_test(ns: argparse.Namespace) -> int:
    tableau = _resolve_tableau(ns.tableau)
    rows = empirical_order(tableau)
    print(f"tableau {tableau.name}: declared order {tableau.order}")
    print("h        error         slope")
    for i, (h, err, slope) in enumerate(rows):
        if i + 1 == len(rows):
            s = "-"
        elif math.isnan(slope):
            s = "at rounding floor"
        else:
            s = f"{slope:.3f}"
        print(f"{h:<8g} {err:<13.3e} {s}")
    return 0


def _cmd_tableau_check(ns: argparse.Namespace) -> int:
    tableau = _resolve_tableau(ns.tableau)
    tableau.validate()
    print(f"tableau {tableau.name}: {tableau.stages} stages, declared order "
          f"{tableau.order}")
    print(f"row-sum defect:   {tableau.row_sum_defect():.3e}")
    print(f"weight-sum defect: {abs(math.fsum(tableau.b) - 1.0):.3e}")
    for label, order, residual in order_condition_residuals(tableau):
        print(f"order {order} condition {label}: residual {residual:.3e}")
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_help()
        return 0
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(ns, "func"):
        parser.print_help()
        return 0
    try:
        return ns.func(ns)
    except TrapcorrError as exc:
        _diagnose(exc)
        return _exit_code(exc)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
