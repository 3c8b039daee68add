import io
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_parser
from trapcorr import cli, rk
from trapcorr.cli import main
from trapcorr.rk import FEHLBERG7, format_tableau

DATA = Path(__file__).parent / "data"

SIN_ARGS = ["--f", "sin(x)", "--a", "1", "--b", "10", "--x0", "5", "--h", "0.01"]


def stderr_lines(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln]


# ------------------------------------------------------------- success

def test_integrate_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["integrate", *SIN_ARGS, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "x,xi,trapezium,error_term,corrected,reference,residual"
    assert len(lines) == 902
    last = lines[-1].split(",")
    assert float(last[0]) == 10.0
    assert abs(float(last[4]) - (math.cos(1.0) - math.cos(10.0))) < 1e-9


def test_integrate_to_stdout(capsys):
    code = main(["integrate", "--f", "sin(x)", "--a", "1", "--b", "2",
                 "--x0", "1.5", "--h", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("x,xi,trapezium")
    assert out.endswith("\n")


def test_xi_curve_columns(tmp_path):
    out = tmp_path / "xi.csv"
    code = main(["xi-curve", *SIN_ARGS, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,xi"
    assert lines[1] == "1,"


def test_default_x0_is_midpoint(capsys):
    code = main(["integrate", "--f", "sin(x)", "--a", "1", "--b", "9",
                 "--h", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert any(line.startswith("5,") for line in out.splitlines())


def test_order_test_reports_declared_order(capsys):
    assert main(["order-test"]) == 0
    out = capsys.readouterr().out
    assert "declared order 7" in out
    assert "7.0" in out  # measured slope


def test_tableau_check_builtin(capsys):
    assert main(["tableau-check"]) == 0
    out = capsys.readouterr().out
    assert "11 stages" in out
    assert out.rstrip().endswith("OK")


def test_tableau_check_file(tmp_path, capsys):
    path = tmp_path / "f7.tab"
    path.write_text(format_tableau(FEHLBERG7), encoding="ascii")
    assert main(["tableau-check", "--tableau", str(path)]) == 0


def test_tableau_check_prints_one_row_per_order(capsys):
    path = str(DATA / "rk4.tab")
    assert main(["tableau-check", "--tableau", path]) == 0
    assert capsys.readouterr().out == (
        f"tableau {path}: 4 stages, declared order 4\n"
        "row-sum defect:   0.000e+00\n"
        "order  trees  worst residual\n"
        "1      1      0.000e+00\n"
        "2      1      0.000e+00\n"
        "3      2      0.000e+00\n"
        "4      4      0.000e+00\n"
        "OK\n")


@pytest.mark.parametrize("argv", [["tableau-check", "--tableau", str(DATA / "rk4.tab")],
                                  ["tableau-check"]])
def test_tableau_check_computes_the_order_conditions_once(capsys, argv):
    # a file is validated as it loads and again by the command, which then
    # prints the same rows: each read after the first is a hit of the cache
    rk.order_condition_residuals.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith("OK")
    assert rk.order_condition_residuals.cache_info().misses == 1


def test_verbose_notes(tmp_path, capsys):
    for command in ["integrate", "xi-curve"]:
        code = main([command, *SIN_ARGS, "--out", str(tmp_path / "c.csv"), "-v"])
        assert code == 0
        err = capsys.readouterr().err
        assert re.fullmatch(rf"trapcorr: \[curve\] 901 rows in \S+s \({FEHLBERG7.name}\)\n", err)


# ------------------------------------------------------------ help text

def test_no_args_prints_help(capsys):
    assert main([]) == 0
    assert "usage: trapcorr" in capsys.readouterr().out


def test_main_help_golden(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == (DATA / "help_main.txt").read_text()


def test_integrate_help_golden(capsys):
    assert main(["integrate", "--help"]) == 0
    assert capsys.readouterr().out == (DATA / "help_integrate.txt").read_text()


@pytest.mark.parametrize("command", ["xi-curve", "order-test", "tableau-check"])
def test_subcommand_help_golden(command, capsys):
    assert main([command, "--help"]) == 0
    golden = DATA / f"help_{command.replace('-', '_')}.txt"
    assert capsys.readouterr().out == golden.read_text()


# ---------------------------------------------------- flags against argparse
#
# The CLI reads its flags itself, as helpers.reference_parser, an argparse
# parser, reads them.  Over argvs with at most one fault, both end in the same
# exit code and the same bytes on stdout and stderr, or read the same value
# into every field a command reads.

REFERENCE_PARSER = reference_parser()

_FLOATS = ["1", "2.5", "1e-9", "-1e3", "-.5", "-inf"]
_TEXTS = ["sin(x)", "-sin(x)", "- sin(x)", "-", "a b"]
_RUN_FLAGS = {"--f": _TEXTS, "--a": _FLOATS, "--b": _FLOATS, "--x0": _FLOATS, "--h": _FLOATS,
              "--shift-D": _FLOATS, "--tableau": _TEXTS, "--ref-tol": _FLOATS,
              "--root-tol": _FLOATS, "--out": _TEXTS, "-v": None, "--verbose": None}
#: each command's flags and the values they take; a switch takes None
_COMMAND_FLAGS = {"integrate": {**_RUN_FLAGS, "--reference": None, "--residual": None},
                  "xi-curve": _RUN_FLAGS,
                  "order-test": {"--tableau": _TEXTS}, "tableau-check": {"--tableau": _TEXTS}}
_REQUIRED = ["--f", "--a", "--b", "--h"]
_FAULTS = ["none", "unknown flag", "extra word", "missing flag", "not a float", "no value",
           "ambiguous", "switch=1", "help", "xi-curve reference"]


def _spellings(command, flag):
    """``flag``, and each shorter prefix of it that starts no other long flag of ``command``."""
    longs = [f for f in [*_COMMAND_FLAGS[command], "--help"] if f.startswith("--")]
    return [flag] + [flag[:n] for n in range(3, len(flag)) if flag.startswith("--")
                     and [f for f in longs if f.startswith(flag[:n])] == [flag]]


@st.composite
def _argvs(draw):
    """No argv, an unknown word, or a command with its flags in any order and spelling;
    then at most one fault."""
    command = draw(st.sampled_from([None, "frobnicate", *_COMMAND_FLAGS]))
    flags = _COMMAND_FLAGS.get(command, {})

    def given(flag, values):
        spelling = draw(st.sampled_from(_spellings(command, flag)))
        if values is None:
            return [spelling]
        value = draw(st.sampled_from(values))
        return [f"{spelling}={value}"] if draw(st.booleans()) else [spelling, value]

    groups = [(flag, given(flag, flags[flag])) for flag in draw(st.permutations(list(flags)))
              if flag in _REQUIRED or draw(st.booleans())]
    if command == "frobnicate":
        groups = [("--f", ["--f", "sin(x)"])]
    fault = draw(st.sampled_from(_FAULTS))
    value_flags = [f for f in flags if flags[f] is not None]
    insert = None
    if fault == "unknown flag":
        insert = draw(st.sampled_from([["--frobnicate", "1"], ["--frobnicate=-1e3"], ["--zz"]]))
    elif fault == "extra word":
        insert = [draw(st.sampled_from(["stray", "-1e3", "a b", "integrate"]))]
    elif fault == "missing flag" and command in ("integrate", "xi-curve"):
        gone = draw(st.sampled_from(_REQUIRED))
        groups = [g for g in groups if g[0] != gone]
    elif fault == "not a float" and (floats := [g for g in groups if flags.get(g[0]) is _FLOATS]):
        flag, args = draw(st.sampled_from(floats))
        bad = draw(st.sampled_from(["x", "-sin(x)", "- sin(x)", "-", "a b"]))
        args[-1] = f"{args[0].partition('=')[0]}={bad}" if len(args) == 1 else bad
    elif fault == "no value" and value_flags:
        insert = [draw(st.sampled_from(_spellings(command, draw(st.sampled_from(value_flags)))))]
    elif fault == "ambiguous":
        insert = draw(st.sampled_from([["--r", "1"], ["--re", "1e-9"], ["--r=1"], ["--re=-1e3"]]))
    elif fault == "switch=1" and command in ("integrate", "xi-curve"):
        switch = draw(st.sampled_from([f for f in flags if flags[f] is None]))
        insert = [f"{draw(st.sampled_from(_spellings(command, switch)))}=1"]
    elif fault == "xi-curve reference" and command == "xi-curve":
        insert = [draw(st.sampled_from(["--reference", "--residual"]))]
    if insert:
        groups.insert(draw(st.integers(0, len(groups))), (None, insert))
    argv = [command] * (command is not None) + [arg for _, args in groups for arg in args]
    if fault == "help":  # anywhere, also before the command or between a flag and its value
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help", "--he"])))
    return argv


def _outcome(parse, argv):
    """(exit code, stdout, stderr) if parsing ``argv`` ends the run, else the fields read."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        return exc.code or 0, out.getvalue(), err.getvalue()


def _reference_fields(argv):
    ns = REFERENCE_PARSER.parse_args(argv)
    if ns.command is None:  # main printed the main page
        raise SystemExit(REFERENCE_PARSER.print_help())
    # the CLI picks the writer by command; xi-curve reads no reference or residual field
    unread = {"writer", "reference", "residual"} if ns.command == "xi-curve" else {"writer"}
    return {k: v for k, v in vars(ns).items() if k not in unread}


def _fields(argv):
    ns = cli._parse_args(argv)
    return {**vars(ns), "func": cli._COMMANDS[ns.command][2]}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(argv=_argvs())
@example(argv=["xi-curve", "--re=1e-9", "--f", "-", "--a", "1", "--b", "2", "--h=-.5"])
@example(argv=["integrate", "--r=--f", "--f", "x", "--a", "1", "--b", "2", "--h", "1"])
@example(argv=["--"])  # argparse's end of flags, unknown to the CLI: the same message
def test_flags_read_as_argparse_read_them(argv):
    assert _outcome(_fields, argv) == _outcome(_reference_fields, argv)


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # both cost start-up time on every command; -S keeps site's imports out
    check = ("import sys, trapcorr.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_builtin_integrate_builds_no_rooted_trees(tmp_path):
    # start-up is a metric: order conditions are checked by tableau-check and
    # for tableau files, never at import or for the builtin's runs
    argv = ["integrate", *SIN_ARGS, "--out", str(tmp_path / "c.csv")]
    check = ("import trapcorr.cli, trapcorr.rk; "
             f"code = trapcorr.cli.main({argv!r}); "
             "print(code, trapcorr.rk._trees.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")


@pytest.mark.parametrize("argv", [["integrate", *SIN_ARGS, "--out", "{}"],
                                  ["integrate", *SIN_ARGS, "--frobnicate"], ["--help"]],
                         ids=["exit-0", "args-error", "help"])
def test_cli_process_loads_no_argparse_gettext_or_locale(argv, tmp_path):
    # flag handling is start-up time on every command: argparse and the gettext and
    # locale modules it loads cost more than a small run
    argv = [arg.format(tmp_path / "c.csv") for arg in argv]
    check = ("import sys; bare = set(sys.modules); import trapcorr.cli; "
             f"code = trapcorr.cli.main({argv!r}); "
             "print(code, sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - bare)), "
             "file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)
    code = 2 if "--frobnicate" in argv else 0
    assert (proc.returncode, proc.stderr.splitlines()[-1]) == (0, f"{code} []")


# ------------------------------------------------------- error mapping

def test_expression_syntax_error_exit_2(capsys):
    code = main(["integrate", "--f", "2+*x", "--a", "1", "--b", "10",
                 "--x0", "5", "--h", "0.01"])
    assert code == 2
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "[parse]" in lines[0] and "offset 2" in lines[0]


def test_unknown_flag_exit_2(capsys):
    # xi-curve writes no reference column, so it takes no flag that attaches one
    for argv in (["integrate", "--frobnicate", "1"], ["xi-curve", *SIN_ARGS, "--reference"],
                 ["xi-curve", *SIN_ARGS, "--residual"]):
        code = main(argv)
        assert code == 2
        lines = stderr_lines(capsys)
        assert len(lines) == 1
        assert "[args]" in lines[0]


@pytest.mark.parametrize("flag", ["x0", "shift-D"])
@pytest.mark.parametrize("value", ["-1e3", "-1.5e1", "-1E-3", "-.5", "-1000", "-inf", "-nan"])
def test_negative_value_as_a_separate_argument(flag, value, capsys):
    # a minus before a digit, a point or a letter starts a value, not a flag: both
    # spellings must reach the same check
    base = ["xi-curve", "--f", "sin(x)", "--a", "-2", "--b", "2", "--h", "0.05"]
    outcomes = []
    for argv in ([f"--{flag}", value], [f"--{flag}={value}"]):
        code = main([*base, *argv])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert "[args]" not in outcomes[0][1]


@pytest.mark.parametrize("value", ["-sin(x)", "-x", "-(x)", "-pi*x", "-2*x"])
def test_negative_integrand_as_a_separate_argument(value, capsys):
    # a minus before a letter or a parenthesis starts an expression, not an unknown flag
    base = ["integrate", "--a", "1", "--b", "4", "--h", "0.01"]
    outcomes = []
    for argv in (["--f", value], [f"--f={value}"]):
        code = main([*base, *argv])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert "[args]" not in outcomes[0][2]


def test_verbose_after_a_negative_integrand(capsys):
    assert main(["integrate", "--f", "-sin(x)", "--a", "1", "--b", "4", "--h", "0.01", "-v"]) == 0
    assert re.fullmatch(r"trapcorr: \[curve\] 301 rows in \S+s \(fehlberg7\)\n",
                        capsys.readouterr().err)


def test_singular_denominator_exit_3_and_shift_remedy(tmp_path, capsys):
    base = ["integrate", "--f", "x^2", "--a", "0", "--b", "4", "--x0", "2",
            "--h", "0.01"]
    code = main(base)
    assert code == 3
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "[ode]" in lines[0]
    assert "--shift-D 1" in lines[0]

    out = tmp_path / "sq.csv"
    code = main(base + ["--shift-D", "1", "--out", str(out)])
    assert code == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert abs(float(last[4]) - 64.0 / 3.0) < 1e-10


def test_no_root_exit_4(capsys):
    # default root tolerance is far below the ~1e4-magnitude residual
    # noise of this integrand, so the bootstrap cannot certify its root
    code = main(["integrate", "--f", "x^2*(sin(x)*ln(2+x)-100*x)",
                 "--a", "1", "--b", "10", "--x0", "5", "--h", "0.01",
                 "--ref-tol", "1e-9"])
    assert code == 4
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "[init]" in lines[0]


def test_no_root_at_the_float_resolution_floor_exit_4(capsys):
    # far from the origin one ulp of xi moves the bootstrap residual by
    # about (x0-a)^3/12 |g'''(xi)| ulp(xi) = 2.6e-12, above the default
    # root tolerance: the message names that floor
    code = main(["integrate", "--f", "sin(x)", "--a", "1000", "--b", "1009",
                 "--x0", "1004.5", "--h", "0.01", "--shift-D", "2"])
    assert code == 4
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    floor = re.match(r"trapcorr: \[init\] bisection converged but the residual (\S+), above "
                     r"the root tolerance 1e-12, sits at xi's float-resolution floor (\S+); "
                     r"a root tolerance above that floor can be met: ", lines[0])
    assert floor and 1e-12 < float(floor[1]) <= float(floor[2]) < 1e-11


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: no exit-0 bound is enforced yet")
def test_huge_shift_does_not_exit_0():
    # the bootstrap's residual rounds to exactly 0 at the cubic's own mean-value point,
    # (a + x0)/2 = 1.75, and each step's rounding of xi moves the identity by an ulp of
    # xi times (x-a)^3/12 |f''' + D|, about 1e285: the run exits 0 erring by 1.19e285
    code = main(["integrate", "--f", "sin(x)", "--a", "1", "--b", "4", "--h", "0.02",
                 "--shift-D", "1e300"])
    assert code != 0


def test_exotic_runs_with_scaled_tolerances(tmp_path):
    out = tmp_path / "exotic.csv"
    code = main(["integrate", "--f", "x^2*(sin(x)*ln(2+x)-100*x)",
                 "--a", "1", "--b", "10", "--x0", "5", "--h", "0.01",
                 "--ref-tol", "1e-9", "--root-tol", "1e-8",
                 "--out", str(out)])
    assert code == 0


def test_residual_column_panels_stop_at_their_round_off_floor(tmp_path, capsys):
    # a column panel of 2^x is worth up to about 14, and its share of the default
    # 1e-13, 2.2e-16, lies below the round-off of its table: the panel's tolerance
    # is floored at a few ulp of its trapezium value (this exited 5 before)
    out = tmp_path / "pow.csv"
    code = main(["integrate", "--f=2^x", "--a=0.5", "--b=9.5", "--h=0.02", "--residual",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    for line in out.read_text().splitlines()[2:]:  # the rows after x = a
        x, *_, reference, residual = map(float, line.split(","))
        assert abs(reference - (2.0 ** x - 2.0 ** 0.5) / math.log(2.0)) < 1e-11
        assert abs(residual) < 1e-11


@pytest.mark.parametrize("args", [
    ["--f", "sin(x)", "--a", "10", "--b", "1", "--x0", "5", "--h", "0.01"],
    ["--f", "sin(x)", "--a", "1", "--b", "10", "--x0", "11", "--h", "0.01"],
    ["--f", "sin(x)", "--a", "1", "--b", "10", "--x0", "5", "--h", "2"],
    ["--f", "sin(x)", "--a", "1", "--b", "10", "--x0", "1.05", "--h", "0.01"],
    ["--f", "sin(x)", "--a", "1", "--b", "4", "--h", "0.02", "--root-tol", "nan"],
    ["--f", "sin(x)", "--a", "1", "--b", "4", "--h", "0.02", "--ref-tol", "inf"],
    # at most ulp(4): two nodes x0 + k*h can round to one double; refused before the bootstrap
    ["--f", "sin(x)", "--a", "1", "--b", "4", "--h", "1e-300"],
    ["--f", "sin(x)", "--a", "1", "--b", "4", "--h", "4e-16"],
])
def test_invalid_configuration_exit_5(args, capsys):
    code = main(["integrate", *args])
    assert code == 5
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "[config]" in lines[0]


@pytest.mark.parametrize("args", [
    ["--f", "1", "--a", "0", "--b", "1e200", "--h", "1e198"],
    ["--f", "x^2", "--a", "0", "--b", "1.5e77", "--h", "1e75", "--shift-D", "1",
     "--ref-tol", "1e300", "--root-tol", "1e300"],
    # no x0: the default midpoint must not overflow where a + b does
    ["--f", "sin(x)", "--a", "1e308", "--b", "1.7e308", "--h", "1e306"],
], ids=["cube", "shifted", "default-x0"])
def test_interval_whose_power_overflows_exit_5(args, capsys):
    code = main(["integrate", *args])
    assert code == 5
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("trapcorr: [config] b - a = ") and "nears overflow" in lines[0]


@pytest.mark.parametrize("args,start", [
    (["--f", "ln(x-2)", "--a", "1", "--b", "10", "--x0", "5", "--h", "0.01"],
     "trapcorr: [config] "),
    (["--f", "sqrt(3-x)", "--a", "1", "--b", "4", "--h", "0.01"],
     "trapcorr: [ode] non-finite jet component at x=3.0"),
], ids=["at-a", "mid-sweep"])
def test_domain_error_exit_5(args, start, capsys):
    code = main(["integrate", *args])
    assert code == 5
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith(start)


def test_negative_base_under_an_infinite_exponent_exit_5(capsys):
    # the exponent overflows to inf, which is not an integer: a domain error, not an overflow
    code = main(["integrate", "--f", "(x-5)^(1e200*1e200)", "--a", "1", "--b", "4", "--h", "0.01"])
    assert code == 5
    assert stderr_lines(capsys) == [
        "trapcorr: [config] negative base -4.0 with non-integer exponent inf at x=1.0"]


def test_divergent_bootstrap_integral_exit_5(capsys):
    # a pole inside (a, x0): the reference integral does not exist
    code = main(["integrate", "--f=1/x", "--a=-1", "--b=2", "--h=0.05", "--x0=1.3"])
    assert code == 5
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("trapcorr: [init] integral looks divergent: ")


def test_jet_domain_error_exit_5(capsys):
    # the value is defined at a, the derivatives are not (1/(a*a) underflows)
    code = main(["integrate", "--f", "sqrt(x)", "--a", "1e-200", "--b", "1",
                 "--h", "0.01"])
    assert code == 5
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "non-finite jet component" in lines[0]


@pytest.mark.parametrize("text", [
    "(" * 300 + "x" + ")" * 300,
    "+".join(["x"] * 1200),
    "1e400",
    "sin(x)*2٠",  # an Arabic-Indic zero, no ASCII digit
], ids=["300-parentheses", "1200-terms", "1e400", "non-ascii-digit"])
def test_unparseable_expression_exit_2(text, capsys):
    code = main(["integrate", "--f", text, "--a", "1", "--b", "4", "--h", "0.02"])
    assert code == 2
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "[parse]" in lines[0] and "offset" in lines[0]


def test_unwritable_output_exit_6(capsys):
    code = main(["integrate", *SIN_ARGS, "--out", "/nonexistent-dir/x.csv"])
    assert code == 6
    lines = stderr_lines(capsys)
    assert len(lines) == 1
    assert "[output]" in lines[0]


class _FullStdout(io.StringIO):
    """A stdout on a full disk: ``write`` fails, or only the ``flush`` of what it buffered."""

    name = "<stdout>"

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


#: every way a command writes to stdout: the two CSVs, the two reports, and
#: the help pages (bare ``trapcorr`` prints the main one)
STDOUT_ARGVS = [["integrate", *SIN_ARGS], ["xi-curve", *SIN_ARGS], ["tableau-check"],
                ["order-test"], [], ["--help"],
                *([command, "--help"] for command in
                  ["integrate", "xi-curve", "order-test", "tableau-check"])]


def _argv_id(argv):
    """The command and whether it asks for help: ``xi-curve``, ``xi-curve --help``."""
    return " ".join(argv[:1] + ["--help"] * ("--help" in argv[1:])) or "bare"


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", STDOUT_ARGVS, ids=_argv_id)
def test_stdout_write_failure_exit_6(argv, failing, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    assert main(argv) == 6
    lines = stderr_lines(capsys)
    assert lines == ["trapcorr: [output] cannot write '<stdout>': "
                     "[Errno 28] No space left on device"]


SMALL_SIN_ARGS = ["--f", "sin(x)", "--a", "1", "--b", "3", "--x0", "2", "--h", "0.1"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["integrate", *SIN_ARGS], ["integrate", *SMALL_SIN_ARGS],
                                  ["tableau-check"], ["--help"]],
                         ids=["csv-over-8KiB", "csv-under-8KiB", "report", "help"])
def test_stdout_on_a_full_device_exit_6(argv, buffering):
    # buffered, what a write could not flush stays in stdout's buffer until Python exits
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "trapcorr.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 6
    assert proc.stderr.splitlines() == ["trapcorr: [output] cannot write '<stdout>': "
                                        "[Errno 28] No space left on device"]


def _entry(argv):
    """``entry()`` with ``argv``, in a ``-X dev`` Python whose atexit hook writes to stderr
    whether the heap was frozen."""
    check = ("import atexit, gc, sys, trapcorr.cli; "
             "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); "
             f"sys.argv = {['trapcorr', *argv]!r}; trapcorr.cli.entry()")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run([sys.executable, "-X", "dev", "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)


def test_entry_exits_with_a_frozen_heap_and_runs_atexit(tmp_path):
    argv = ["integrate", *SMALL_SIN_ARGS, "--out"]
    proc = _entry([*argv, str(tmp_path / "entry.csv")])
    assert (proc.returncode, proc.stderr) == (0, "True\n")
    assert main([*argv, str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    proc = _entry(["integrate", "--f", "2x", "--a", "1", "--b", "4", "--h", "0.01"])
    lines = proc.stderr.splitlines()
    assert (proc.returncode, len(lines), lines[-1]) == (2, 2, "True")
    assert lines[0].startswith("trapcorr: [parse] ")


@pytest.mark.parametrize("argv", STDOUT_ARGVS, ids=_argv_id)
def test_closed_stdout_discards_the_output(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)  # how Python starts when fd 1 is closed
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_missing_tableau_file_exit_6(capsys):
    code = main(["integrate", *SIN_ARGS, "--tableau", "/nonexistent.tab"])
    assert code == 6
    assert len(stderr_lines(capsys)) == 1


#: every subcommand that reads a tableau file
TABLEAU_COMMANDS = [["tableau-check"], ["order-test"], ["integrate", *SIN_ARGS]]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
def test_endless_tableau_file_exit_5(command):
    # read whole, /dev/zero's ASCII NULs exhausted memory: under this cap a MemoryError
    # traceback, exit 1; the cap and the timeout fail the test fast where it is read whole
    check = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             f"import trapcorr.cli; raise SystemExit(trapcorr.cli.main({command!r} + "
             "['--tableau', '/dev/zero']))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        5, "", f"trapcorr: [config] tableau file '/dev/zero': longer than {2 ** 20} characters\n")


@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
@pytest.mark.parametrize("size", [2 ** 20, 2 ** 20 + 1])
def test_tableau_file_size_bound(size, command, tmp_path, capsys):
    # Fehlberg-7 with its c line padded with spaces to ``size`` bytes
    text = format_tableau(FEHLBERG7)
    path = tmp_path / "padded.tab"
    path.write_text(text[:-1] + " " * (size - len(text)) + "\n", encoding="ascii")
    assert path.stat().st_size == size
    code = main([*command, "--tableau", str(path)])
    captured = capsys.readouterr()
    if size > 2 ** 20:
        assert (code, captured.out, captured.err) == (
            5, "", f"trapcorr: [config] tableau file '{path}': longer than {2 ** 20} characters\n")
    else:
        assert (code, captured.err) == (0, "")


#: tableaux whose NaN or inf entries leave every defect NaN, which no
#: ``>`` bound catches: a NaN weight, and an inf node matched by an inf
#: A entry (inf - inf)
NON_FINITE_TABLEAUX = {
    "nan-b": "1 1\n\nnan\n0.0\n",
    "inf-a-and-c": "2 1\n\ninf\n0.5 0.5\n0.0 inf\n",
}


@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
@pytest.mark.parametrize("name", sorted(NON_FINITE_TABLEAUX))
def test_non_finite_tableau_exit_5(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.tab"
    path.write_text(NON_FINITE_TABLEAUX[name], encoding="ascii")
    assert main([*command, "--tableau", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(lines) == 1
    assert lines[0].startswith("trapcorr: [config] ")
    assert "non-finite entry" in lines[0]


@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
def test_negative_stage_count_tableau_exit_5(command, tmp_path, capsys):
    # the header's count, not a later line read in its place, is what is wrong
    path = tmp_path / "negative.tab"
    path.write_text("-1 1\n1\n1\n", encoding="ascii")
    assert main([*command, "--tableau", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"trapcorr: [config] tableau file '{path}': "
                            "negative stage count -1\n")


@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
def test_non_ascii_tableau_exit_5(command, tmp_path, capsys):
    path = tmp_path / "latin-1.tab"
    path.write_bytes(b"1 1\n\n\xff\n0.0\n")
    assert main([*command, "--tableau", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"trapcorr: [config] tableau file '{path}': "
                            "non-ASCII byte 0xff\n")


@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
@pytest.mark.parametrize("extra", ["# Fehlberg 1968\n", "1 2 3\n"], ids=["comment", "numbers"])
def test_line_after_c_line_tableau_exit_5(extra, command, tmp_path, capsys):
    # the file ends with its c line: a line after it is not ignored
    path = tmp_path / "trailing.tab"
    path.write_text(format_tableau(FEHLBERG7) + extra, encoding="ascii")
    assert main([*command, "--tableau", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"trapcorr: [config] tableau file '{path}': "
                            "expected 14 lines, got 15\n")


#: tableaux that cannot have the order they declare, and the end of the one
#: line naming why: more than their stages (caught when the tableau is built,
#: before any defect is computed), more than ``rk.MAX_ORDER``, or a failing
#: order condition (methods padded with zero-weight stages, so that order <=
#: stages holds, fail at their own order + 1)
UNREACHED_ORDER_TABLEAUX = {
    "zero-stages": ("0 1\n\n\n", "order 1 outside [1, min(stage count 0, 10)]"),
    "euler-as-3": ("1 3\n\n1.0\n0.0\n", "order 3 outside [1, min(stage count 1, 10)]"),
    "rk4-as-7": ("4 7\n" + (DATA / "rk4.tab").read_text().split("\n", 1)[1],
                 "order 7 outside [1, min(stage count 4, 10)]"),
    "fehlberg7-as-11": ("11 11\n" + format_tableau(FEHLBERG7).split("\n", 1)[1],
                        "order 11 outside [1, min(stage count 11, 10)]"),
    "padded-euler-as-3": ("3 3\n\n0.0\n0.0 0.0\n1.0 0.0 0.0\n0.0 0.0 0.0\n",
                          "order-2 residual 5.000e-01 exceeds 1.0e-10"),
    "padded-rk4-as-7": ("7 7\n\n0.5\n0 0.5\n0.0 -0 1.0\n0 0 0 0\n0 0 0 0 0\n0 0 0 0 0 0\n"
                        "0.16666666666666666 0.3333333333333333 0.3333333333333333 "
                        "0.16666666666666666 0 0 0\n0.0 0.5 0.5 1.0 0 0 0\n",
                        "order-5 residual 1.250e-02 exceeds 1.0e-10"),
}


@pytest.mark.parametrize("command", TABLEAU_COMMANDS)
@pytest.mark.parametrize("name", sorted(UNREACHED_ORDER_TABLEAUX))
def test_unreached_order_tableau_exit_5(name, command, tmp_path, capsys):
    text, reason = UNREACHED_ORDER_TABLEAUX[name]
    path = tmp_path / f"{name}.tab"
    path.write_text(text, encoding="ascii")
    assert main([*command, "--tableau", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"trapcorr: [config] tableau '{path}': {reason}\n"


@pytest.mark.parametrize("command", [
    ["tableau-check"],
    ["integrate", "--f", "sin(x)", "--a", "1", "--b", "4", "--h", "0.01"],
    ["integrate", "--f", "sin(x)", "--a", "2", "--b", "4", "--h", "0.01"],
])
def test_tableau_node_outside_the_step_exit_5(command, capsys):
    # a valid order-2 method with c_2 = 2: its second stage would sample
    # x + 2h, outside the step, at a (x == a) or below it
    path = str(DATA / "node_outside_step.tab")
    assert main([*command, "--tableau", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"trapcorr: [config] tableau '{path}': node c_2 = 2.0 outside [0, 1]\n"


def test_close_seed_warning(capsys):
    code = main(["integrate", "--f", "sin(x)", "--a", "1", "--b", "2",
                 "--x0", "1.3", "--h", "0.01"])
    assert code == 0
    err = capsys.readouterr().err
    assert "warning" in err and "[config]" in err


# ------------------------------------------------------ failure contract
#
# Every input ends in exit code 0 or 2-6, with one diagnostic line on
# failure and none on success.  1/x puts a pole inside (a, x0) when a = -1:
# the bootstrap Romberg table then stalls while its largest sample keeps
# growing, and the run stops after about 2^14 evaluations, not its 2^22
# budget (test_divergent_bootstrap_integral_exit_5), so a draw may list it.

_DIAGNOSTIC = re.compile(r"trapcorr: \[(args|parse|config|init|ode|curve|output)\] ")

_INTEGRANDS = st.sampled_from(
    ["sin(x)", "cos(x)+x/3", "x^2", "exp(x/4)", "sin(8*x)", "sqrt(3-x)",
     "ln(x-2)", "sqrt(x)", "1/x"])
_SOUP = st.lists(st.sampled_from(
    ["x", "2", "pi", "sin", "ln", "sqrt", "(", ")", "+", "-", "*", "/", "^",
     ".", ",", " ", "@", "1e400", "y"]), min_size=1, max_size=8).map("".join)


def _flag(name, values):
    """``--name=value`` or ``--name value`` for a value drawn from ``values`` (a list
    or a strategy); None leaves the flag out."""
    if isinstance(values, list):
        values = st.sampled_from(values)
    return st.tuples(values, st.booleans()).map(
        lambda d: [] if d[0] is None else [f"--{name}={d[0]}"] if d[1] else [f"--{name}", d[0]])


_ARGV = st.builds(
    lambda command, *flags: [command] + [arg for flag in flags for arg in flag],
    st.sampled_from(["integrate", "xi-curve"]),
    # listed integrands twice as often as token soup
    _flag("f", st.one_of(_INTEGRANDS, _INTEGRANDS, _SOUP)),
    _flag("a", ["1", "0", "-1", "2.5", "1e-200", "nan", "inf", "-inf", None]),
    _flag("b", ["4", "2", "10", "-1", "nan", "inf", None]),
    _flag("h", ["0.01", "0.05", "2", "0", "-0.01", "nan", "inf", None]),
    _flag("x0", [None, None, None, "2.5", "2", "1.3", "11", "nan", "-inf"]),
    _flag("shift-D", [None, None, None, "1", "-2", "nan", "inf"]),
    _flag("ref-tol", [None, None, None, "1e-9", "0", "-1", "nan", "inf"]),
    _flag("root-tol", [None, None, None, "1e-8", "0", "nan", "inf"]),
    _flag("out", [None, None, None, "/nonexistent-dir/x.csv"]),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(argv=_ARGV)
# one example per exit code: 0, 2, 3, 4, 5 ([ode]) and 6
@example(argv=["integrate", "--f=sin(x)", "--a=1", "--b=2", "--x0=1.5",
               "--h=0.01"])
@example(argv=["integrate", "--f=2+*x", "--a=1", "--b=10", "--h=0.01"])
@example(argv=["integrate", "--f=x^2", "--a=0", "--b=4", "--x0=2", "--h=0.01"])
@example(argv=["integrate", "--f=sin(8*x)", "--a=1", "--b=30", "--h=0.01"])
@example(argv=["integrate", "--f=sqrt(3-x)", "--a=1", "--b=4", "--h=0.01"])
@example(argv=["xi-curve", "--f=sin(x)", "--a=1", "--b=4", "--h=0.01",
               "--out=/nonexistent-dir/x.csv"])
def test_every_input_ends_in_an_exit_code_and_one_diagnostic(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5, 6}
    lines = [ln for ln in err.getvalue().splitlines()
             if not ln.startswith("trapcorr: warning ")]
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and _DIAGNOSTIC.match(lines[0]), lines
