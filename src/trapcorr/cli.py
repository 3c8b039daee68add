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
traces never appear by default.  CSVs, reports and help pages are all
written under phase ``output``: a failed write to stdout exits 6, and a
stdout closed at start-up discards the output.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .errors import (ConfigError, ExpressionError, IoError, NoRootError,
                     SingularDenominatorError, TrapcorrError, phase)
from .expr import parse
from .pipeline import ProblemSpec, _write_text, emit_csv, emit_xi_csv, run
from .rk import FEHLBERG7, RKTableau, empirical_order, load_tableau, \
    order_condition_residuals

PROG = "trapcorr"


#: exit code of a package error, by its first matching class; any other
#: (ConfigError, DomainError, ToleranceError: the problem as configured
#: cannot be computed) exits 5
_EXIT_CODES = ((ExpressionError, 2), (SingularDenominatorError, 3), (NoRootError, 4),
               (IoError, 6))

#: an argument that is a value, not a flag: a minus before a digit, a point or inf/nan, so that
#: ``--a -1e3`` and ``--a -inf`` reach the same check as ``--a=-1e3`` (argparse's own pattern
#: takes only ``-1000`` and ``-1.5``)
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(?i:inf|nan)")


class _Parser(argparse.ArgumentParser):
    """argparse with single-line diagnostics, a stable help width, and help
    written as any other output is."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault(
            "formatter_class",
            lambda prog: argparse.HelpFormatter(
                prog, width=88, max_help_position=28))
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def print_help(self, file=None):
        return _emit(_write_text, self.format_help(), file)

    def error(self, message):
        print(f"{PROG}: [args] {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_run_command(sub, name: str, summary: str, writer) -> None:
    """A subcommand that runs the problem its flags state and writes the curve with ``writer``."""
    p = sub.add_parser(name, help=summary)
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
    if name == "integrate":  # xi-curve writes no column that these fill
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
    p.set_defaults(func=_cmd_run, writer=writer, reference=False, residual=False)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Trapezium quadrature with its error term recovered by "
                    "integrating an ODE for the mean-value point.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    _add_run_command(sub, "integrate", "run the corrected quadrature, write CSV", emit_csv)
    _add_run_command(sub, "xi-curve", "write only the (x, xi) columns", emit_xi_csv)

    p_ord = sub.add_parser(
        "order-test", help="measure the tableau's empirical convergence order")
    p_ord.add_argument("--tableau", default="builtin", metavar="FILE|builtin",
                       help="RK tableau to measure")
    p_ord.set_defaults(func=_cmd_order_test)

    p_tab = sub.add_parser("tableau-check", help="validate a tableau file")
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


def _emit(writer, payload, destination=None) -> int:
    """Write under [output], to stdout by default, or as print does, nowhere if it started closed."""
    with phase("output"):
        writer(payload, (sys.stdout or os.devnull) if destination is None else destination)
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    curve = run(_build_spec(ns), reference=ns.reference, residual=ns.residual)
    if ns.verbose:
        print(f"{PROG}: [curve] {len(curve.rows)} rows in {curve.wall_time:.3f}s "
              f"({curve.spec.tableau.name})", file=sys.stderr)
    return _emit(ns.writer, curve, ns.out)


def _cmd_order_test(ns: argparse.Namespace) -> int:
    tableau = _resolve_tableau(ns.tableau)
    rows = empirical_order(tableau)
    lines = [f"tableau {tableau.name}: declared order {tableau.order}",
             "h           error         slope"]
    for i, (h, err, slope) in enumerate(rows, 1):
        s = ("-" if i == len(rows) else "at rounding floor" if math.isnan(slope)
             else f"{slope:.3f}")
        lines.append(f"{h:<11g} {err:<13.3e} {s}")
    return _emit(_write_text, "\n".join(lines) + "\n")


def _cmd_tableau_check(ns: argparse.Namespace) -> int:
    tableau = _resolve_tableau(ns.tableau)
    tableau.validate()
    lines = [f"tableau {tableau.name}: {tableau.stages} stages, declared order {tableau.order}",
             f"row-sum defect:   {tableau.row_sum_defect():.3e}", "order  trees  worst residual"]
    lines += [f"{order:<6} {trees:<6} {worst:.3e}"
              for order, trees, worst in order_condition_residuals(tableau)]
    return _emit(_write_text, "\n".join(lines + ["OK"]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns) if ns.command else parser.print_help()
    except SystemExit as exc:  # argparse, after a help page or a flag error
        return int(exc.code or 0)
    except TrapcorrError as exc:
        print(f"{PROG}: [{exc.phase or 'config'}] {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 5)


def entry() -> None:
    code = main()
    # bytes that a failed write left in stdout's buffer would fail again in Python's exit
    # flush, which then prints a second message and exits 120: drop them instead
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
