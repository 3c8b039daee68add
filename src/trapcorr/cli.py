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

Flags are read left to right as Python 3.11's argparse reads them, with its messages:
``--flag value`` or ``--flag=value``, a long flag cut to any unique prefix, ``-h`` anywhere.
argparse is not imported: with the gettext and locale it loads, it costs more than a small run.

:func:`entry`, the console script, freezes the process's heap (``gc.freeze``)
before it exits, so the collections Python runs as it shuts down skip what
the run built; atexit handlers still run and the standard streams are still
flushed.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
from types import SimpleNamespace

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

#: an argument that is a value, not a flag: a minus before a letter, a digit, a point or a
#: parenthesis, as a number or an expression may start, so that ``--a -1e3``, ``--a -inf`` and
#: ``--f -sin(x)`` reach the same check as ``--a=-1e3``.  ``-h`` and ``-v`` are never values:
#: where no ``-v`` is taken, it is an unknown flag, as argparse reads it
_NEGATIVE_NUMBER = re.compile(r"-(?![hv]\Z)[\w.(]")

#: each command's flags, in the order messages list them: flag -> (field, None for help; float
#: or str, the value's type, or None for a switch; default, or ... if required).  Equal entries
#: are one flag's spellings
_HELP_FLAGS = {"-h": (None, None, None), "--help": (None, None, None)}
_RUN_FLAGS = {
    **_HELP_FLAGS, "--f": ("f", str, ...), "--a": ("a", float, ...), "--b": ("b", float, ...),
    "--x0": ("x0", float, None), "--h": ("h", float, ...), "--shift-D": ("shift_d", float, 0.0),
    "--tableau": ("tableau", str, "builtin"), "--reference": ("reference", None, False),
    "--residual": ("residual", None, False), "--ref-tol": ("ref_tol", float, 1e-13),
    "--root-tol": ("root_tol", float, 1e-12), "--out": ("out", str, None),
    "-v": ("verbose", None, False), "--verbose": ("verbose", None, False)}
#: xi-curve writes no column that --reference or --residual fills
_XI_CURVE_FLAGS = {f: s for f, s in _RUN_FLAGS.items() if f not in ("--reference", "--residual")}
_TABLEAU_FLAGS = {**_HELP_FLAGS, "--tableau": ("tableau", str, "builtin")}

_MAIN_HELP = """\
usage: trapcorr [-h] COMMAND ...

Trapezium quadrature with its error term recovered by integrating an ODE for the mean-
value point.

positional arguments:
  COMMAND
    integrate    run the corrected quadrature, write CSV
    xi-curve     write only the (x, xi) columns
    order-test   measure the tableau's empirical convergence order
    tableau-check
                 validate a tableau file

options:
  -h, --help     show this help message and exit
"""
#: integrate's options and, without the reference and residual lines, xi-curve's
_RUN_OPTIONS = """
options:
  -h, --help              show this help message and exit
  --f EXPR                integrand expression in x, e.g. 'sin(x)'
  --a A                   lower limit
  --b B                   upper limit
  --x0 X0                 seed abscissa for the bootstrap (default: midpoint of [a, b])
  --h H                   RK step size
  --shift-D SHIFT_D       cubic shift constant D; g = f + D*(x-a)^3/6 (default: 0)
  --tableau FILE|builtin  RK tableau to integrate with (default: builtin)
{}  --ref-tol REF_TOL       absolute tolerance of reference integrals (default: 1e-13)
  --root-tol ROOT_TOL     residual tolerance of the bootstrap root solve (default:
                          1e-12)
  --out PATH              output CSV path (default: stdout)
  -v, --verbose           progress notes on stderr
"""
_INTEGRATE_HELP = """\
usage: trapcorr integrate [-h] --f EXPR --a A --b B [--x0 X0] --h H [--shift-D SHIFT_D]
                          [--tableau FILE|builtin] [--reference] [--residual]
                          [--ref-tol REF_TOL] [--root-tol ROOT_TOL] [--out PATH] [-v]
""" + _RUN_OPTIONS.format("""\
  --reference             attach a reference-integral column (slow; default: off)
  --residual              attach corrected-minus-reference column, implies --reference
                          (default: off)
""")
_XI_CURVE_HELP = """\
usage: trapcorr xi-curve [-h] --f EXPR --a A --b B [--x0 X0] --h H [--shift-D SHIFT_D]
                         [--tableau FILE|builtin] [--ref-tol REF_TOL]
                         [--root-tol ROOT_TOL] [--out PATH] [-v]
""" + _RUN_OPTIONS.format("")
_TABLEAU_HELP = """\
usage: trapcorr {} [-h] [--tableau FILE|builtin]

options:
  -h, --help              show this help message and exit
  --tableau FILE|builtin  RK tableau to {}
"""


def _resolve_tableau(selector: str) -> RKTableau:
    if selector == "builtin":
        return FEHLBERG7
    return load_tableau(selector)


def _build_spec(ns: SimpleNamespace) -> ProblemSpec:
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
    """Write under [output], to stdout by default, or as print does, nowhere if it began closed."""
    with phase("output"):
        writer(payload, (sys.stdout or os.devnull) if destination is None else destination)
    return 0


def _cmd_run(ns: SimpleNamespace) -> int:
    curve = run(_build_spec(ns), reference=getattr(ns, "reference", False),  # not in xi-curve
                residual=getattr(ns, "residual", False))
    if ns.verbose:
        print(f"{PROG}: [curve] {len(curve.rows)} rows in {curve.wall_time:.3f}s "
              f"({curve.spec.tableau.name})", file=sys.stderr)
    return _emit(emit_csv if ns.command == "integrate" else emit_xi_csv, curve, ns.out)


def _cmd_order_test(ns: SimpleNamespace) -> int:
    tableau = _resolve_tableau(ns.tableau)
    rows = empirical_order(tableau)
    lines = [f"tableau {tableau.name}: declared order {tableau.order}",
             "h           error         slope"]
    for i, (h, err, slope) in enumerate(rows, 1):
        s = ("-" if i == len(rows) else "at rounding floor" if math.isnan(slope)
             else f"{slope:.3f}")
        lines.append(f"{h:<11g} {err:<13.3e} {s}")
    return _emit(_write_text, "\n".join(lines) + "\n")


def _cmd_tableau_check(ns: SimpleNamespace) -> int:
    tableau = _resolve_tableau(ns.tableau)
    tableau.validate()
    lines = [f"tableau {tableau.name}: {tableau.stages} stages, declared order {tableau.order}",
             f"row-sum defect:   {tableau.row_sum_defect():.3e}", "order  trees  worst residual"]
    lines += [f"{order:<6} {trees:<6} {worst:.3e}"
              for order, trees, worst in order_condition_residuals(tableau)]
    return _emit(_write_text, "\n".join(lines + ["OK"]) + "\n")


#: command -> (flags, help page, handler)
_COMMANDS = {
    "integrate": (_RUN_FLAGS, _INTEGRATE_HELP, _cmd_run),
    "xi-curve": (_XI_CURVE_FLAGS, _XI_CURVE_HELP, _cmd_run),
    "order-test": (_TABLEAU_FLAGS, _TABLEAU_HELP.format("order-test", "measure"), _cmd_order_test),
    "tableau-check": (_TABLEAU_FLAGS, _TABLEAU_HELP.format("tableau-check", "check"),
                      _cmd_tableau_check),
}


def _args_error(message: str):
    print(f"{PROG}: [args] {message}", file=sys.stderr)
    raise SystemExit(2)


def _flag(flags: dict, arg: str) -> tuple[str, str | None] | None:
    """None if ``arg`` is a value; else the flag, as ``flags`` spells it if it names one, and
    the value given after its ``=``, or None."""
    name, eq, value = arg.partition("=")
    value = value if eq else None
    if name in flags:
        return name, value
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "-" and arg != "--":  # argparse's "--" ends its flags; here it is unknown
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _args_error(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value
    elif _NEGATIVE_NUMBER.match(arg):
        return None
    return None if " " in arg else (arg, None)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command that ``argv`` names and its fields.  A help page ends the parse in
    SystemExit(0), a flag error in one ``[args]`` line and SystemExit(2)."""
    flags, page, values = _HELP_FLAGS, _MAIN_HELP, {"command": None}
    argv, extras, i = argv or ["-h"], [], 0  # a bare trapcorr prints the main page
    while i < len(argv):
        arg, i = argv[i], i + 1
        found = _flag(flags, arg)
        if found is None and values["command"] is None:
            if arg not in _COMMANDS:
                _args_error(f"argument COMMAND: invalid choice: {arg!r} (choose from "
                            f"{', '.join(map(repr, _COMMANDS))})")
            flags, page, _ = _COMMANDS[arg]
            values = {"command": arg} | {field: default for field, _, default in flags.values()
                                         if field}
        elif found is None or found[0] not in flags:
            extras.append(arg)
        else:
            flag, value = found
            field, kind, _ = spec = flags[flag]
            name = "/".join(f for f, s in flags.items() if s == spec)
            if kind is None and value is not None:
                _args_error(f"argument {name}: ignored explicit argument {value!r}")
            if field is None:
                raise SystemExit(_emit(_write_text, page))
            if kind is not None and value is None:
                if i == len(argv) or _flag(flags, argv[i]) is not None:
                    _args_error(f"argument {name}: expected one argument")
                value, i = argv[i], i + 1
            try:
                values[field] = True if kind is None else kind(value)
            except ValueError:
                _args_error(f"argument {name}: invalid float value: {value!r}")
    missing = [flag for flag, (field, _, _) in flags.items() if values.get(field) is ...]
    if missing:
        _args_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _args_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse_args(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[ns.command][2](ns)
    except SystemExit as exc:  # after a help page or a flag error
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
    # what the process built is garbage only at exit: moved to the permanent generation, it is
    # not traversed by the collections the interpreter runs as it finalizes
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
