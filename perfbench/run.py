"""trapcorr benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.
Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

- ``sweep-exotic``: ``run()`` on seeded variants of the exotic integrand.
- ``audit-sin``: ``run(residual=True)`` and ``emit_csv`` to memory on
  seeded sin(k*x+p) problems, a quarter of them with a clearing cubic shift.
- ``cli``: serial ``python -m trapcorr.cli integrate`` processes, valid
  problems mixed with inputs for each documented exit code 2-6.

Ops run serially in a closed loop with one client.  Library ops run in a
child process (``worker.py``) so that its peak RSS is the program's;
every output is checked against the independent oracle in ``oracle.py``
outside the timed region.  ``--trace 1`` alternates untraced and traced
passes over the problems and prints the per-layer metrics instead.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import mpmath

import calib
import oracle
import tracer
import workloads

clock = time.perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PYTHON = sys.executable
BARE_START = [PYTHON, "-c", "pass"]

#: timed ops per run at least, so that ten samples lie beyond p90
MIN_OPS = 100
#: fresh interpreters timed for setup_s, before and again after the ops;
#: the median of all of them is reported
SETUP_REPEATS = 8
#: bare interpreters timed for cli.python_start_ms
START_REPEATS = 11
#: raw spans kept in memory from the first traced pass and written out at the end
KEEP_SPANS = 20_000
#: the whole run must end within this many seconds
DEADLINE_S = 170.0

CSV_HEADER = "x,xi,trapezium,error_term,corrected,reference,residual"
CLI_EXIT_CODES = (0, 2, 3, 4, 5, 6)


class Failure(Exception):
    """The benchmark cannot produce a result."""


def _alarm(signum, frame):
    raise TimeoutError("child process timed out")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with a warm bytecode cache
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Spawns child processes, times them, and records their peak RSS."""

    def __init__(self, workdir: str, deadline: float):
        signal.signal(signal.SIGALRM, _alarm)
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.out = os.path.join(workdir, "child.out")
        self.err = os.path.join(workdir, "child.err")

    def spawn(self, argv: list[str]) -> tuple[int, float, int]:
        """Run ``argv`` to completion; return (exit code, seconds, peak RSS
        in KiB).  Its stdout and stderr land in ``self.out``/``self.err``."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, self.out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, self.err, flags, 0o644)]
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise Failure("out of time")
        t0 = clock()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        signal.alarm(int(remaining))
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
        return os.waitstatus_to_exitcode(status), clock() - t0, usage.ru_maxrss

    def stderr_lines(self) -> list[str]:
        with open(self.err) as fh:
            return fh.read().splitlines()

    def python(self, script: str, *args: str) -> tuple[int, float, int]:
        code, seconds, rss = self.spawn([PYTHON, os.path.join(HERE, script), *args])
        if code != 0:
            raise Failure(f"{script} exited with {code}: " + " | ".join(self.stderr_lines()[-3:]))
        return code, seconds, rss

    def worker(self, job: dict) -> tuple[dict, int]:
        job_path = os.path.join(self.workdir, "job.json")
        result_path = os.path.join(self.workdir, "result.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        _, _, rss = self.python("worker.py", job_path, result_path)
        with open(result_path) as fh:
            return json.load(fh), rss


def build(runner: Runner) -> None:
    """Byte-compile the program and the benchmark (the warm cache set-up assumes)."""
    code, _, _ = runner.spawn([PYTHON, "-m", "compileall", "-q", SRC, HERE])
    if code != 0:
        raise Failure("byte-compiling src/ failed: " + " | ".join(runner.stderr_lines()[-3:]))


def measure_setup(runner: Runner, problems: list[dict]) -> list[tuple]:
    """(seconds, (loop before, loop after)) for each of ``SETUP_REPEATS``
    fresh interpreters importing trapcorr and building every ProblemSpec."""
    specs = [p for p in problems if p.get("family")]
    samples = []
    for _ in range(SETUP_REPEATS):
        result, _ = runner.worker({"mode": "setup", "problems": specs})
        samples.append((result["setup_s"], (result["loop_before"], result["loop_after"])))
    return samples


def at_reference_speed(samples: list[tuple], ref_s: float, window: int) -> list[float]:
    """Scale the seconds of each (seconds, calibration times, ...) sample, in
    time order, to reference speed (see ``calib.py``): by ``ref_s`` over the
    median calibration time of the samples at most ``window`` places away."""
    scaled = []
    for j, sample in enumerate(samples):
        cal = [c for s in samples[max(0, j - window):j + window + 1] for c in s[1]]
        scaled.append(sample[0] * ref_s / statistics.median(cal))
    return scaled


# ------------------------------------------------------------ checking

def csv_columns(text: str) -> dict[str, list]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    columns = {name: [] for name in CSV_HEADER.split(",")}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"ragged CSV row {line!r}")
        for name, field in zip(columns, fields):
            columns[name].append(float(field) if field else None)
    return columns


def check_csv(problem: dict, text: str, reference: bool) -> tuple[float, str | None]:
    """Check a CSV curve; with ``reference`` also its reference and
    residual columns."""
    try:
        cols = csv_columns(text)
    except ValueError as exc:
        return math.inf, str(exc)
    bound = workloads.CHECK_BOUND[problem["family"]]
    if not reference:
        return oracle.check(problem, cols["x"], cols["corrected"], bound)
    if None in cols["reference"] or None in cols["residual"]:
        return math.inf, "missing reference or residual values"
    worst, reason = oracle.check(problem, cols["x"], cols["corrected"], bound)
    _, ref_reason = oracle.check(problem, cols["x"], cols["reference"], bound)
    if reason is None and ref_reason is not None:
        reason = "reference column: " + ref_reason
    for c, r, res in zip(cols["corrected"], cols["reference"], cols["residual"]):
        if reason is None and res != c - r:
            reason = f"residual {res!r} is not corrected - reference"
    return worst, reason


def check_output(problem: dict, output: dict) -> tuple[float, str | None]:
    if "error" in output:
        return math.inf, output["error"]
    if "csv" in output:
        return check_csv(problem, output["csv"], reference=True)
    return oracle.check(problem, output["x"], output["corrected"],
                        workloads.CHECK_BOUND[problem["family"]])


# ----------------------------------------------------------- workloads

class Outcome:
    """What one run measured."""

    def __init__(self):
        #: (seconds, calibration times, rows, ok) of every timed op, in order
        self.samples: list[tuple] = []
        #: the reference calibration time and the window of ``at_reference_speed``
        self.speed = (calib.REF_S, 2)
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0  # worst relative error over checked rows
        self.problems: list[str] = []  # why outputs were wrong
        self.peak_rss_kb = 0
        self.layers: dict = {}

    def note(self, reason: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(reason)


def run_library(runner: Runner, workload: str, problems: list[dict], args,
                min_ops: int = MIN_OPS) -> Outcome:
    audit = workload == "audit-sin"
    job = dict(mode="run", problems=problems, residual=audit, emit=audit,
               seconds=float(args.seconds), min_ops=min_ops, trace=bool(args.trace),
               keep_spans=KEEP_SPANS)
    result, rss = runner.worker(job)
    out = Outcome()
    out.peak_rss_kb = rss
    good = []
    for i, (problem, output) in enumerate(zip(problems, result["outputs"])):
        worst, reason = check_output(problem, output)
        out.worst = max(out.worst, worst)
        good.append(reason is None)
        if reason:
            out.note(f"problem {i} ({problem['f']}): {reason}")
    for i, seconds, rows, ok, traced, before, after in result["ops"]:
        out.attempted += 1
        ok = ok and good[i]
        if not ok:
            out.failed += 1
            out.note(f"op on problem {i} failed or did not reproduce the checked output")
        if not traced:
            out.samples.append((seconds, (before, after), rows, ok))
    if args.trace:
        out.layers = trace_metrics(result["passes"], result["traced_s"] / result["untraced_s"], out)
        write_spans(workload, args.seed, result["spans"])
    return out


def trace_metrics(passes: list[dict], overhead: float, out: Outcome, extra=None) -> dict:
    """Per-layer metrics for one pass; counts must repeat in every pass."""
    for i, stats in enumerate(passes[1:], 2):
        if tracer.counts(stats) != tracer.counts(passes[0]):
            out.failed += 1
            out.note(f"traced pass {i} counted different work than pass 1")
    merged = {}
    for stats in passes:
        tracer.merge(merged, stats)
    layers = tracer.layer_metrics(merged, len(passes))
    cli = extra or {}
    layers["cli.import_ms"] = (cli.get("import_ms", 0.0), "ms")
    layers["cli.python_start_ms"] = (cli.get("python_start_ms", 0.0), "ms")
    for code in CLI_EXIT_CODES:
        layers[f"cli.exit.{code}"] = (cli.get(f"exit.{code}", 0), "count")
    layers["cli.contract_holes"] = (cli.get("contract_holes", 0), "count")
    layers["trace.overhead_frac"] = (overhead, "ratio")
    return layers


def write_spans(workload: str, seed: int, spans: list) -> None:
    path = os.path.join(BUILD, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump([dict(zip(("op", "name", "parent", "start", "end"), s)) for s in spans], fh)


def run_cli(runner: Runner, problems: list[dict], args) -> Outcome:
    out = Outcome()
    # a CLI op is mostly interpreter start-up and imports, which the
    # in-process loop does not model; a bare start after every third op
    # calibrates instead
    out.speed = (calib.REF_START_S, 6)
    csv_dir = os.path.join(runner.workdir, "csv")
    os.makedirs(csv_dir)
    ops = []
    for i, p in enumerate(problems):
        parent = os.path.join(csv_dir, "missing") if p["kind"] == "unwritable-out" else csv_dir
        ops.append((p, workloads.cli_argv(p, os.path.join(parent, f"op{i}.csv"))))
    plain = [PYTHON, "-m", "trapcorr.cli"]
    stats_path = os.path.join(runner.workdir, "stats.json")
    traced = [PYTHON, os.path.join(HERE, "trace_cli.py"), stats_path]

    def one(i: int, prefix: list[str]) -> tuple[int, float, bytes | None]:
        p, argv = ops[i]
        target = argv[-1]
        if os.path.exists(target):
            os.remove(target)
        code, seconds, rss = runner.spawn(prefix + argv)
        out.peak_rss_kb = max(out.peak_rss_kb, rss)
        lines = runner.stderr_lines()
        ok = code == p["expect"] and len(lines) == (0 if code == 0 else 1)
        if not ok:
            out.note(f"op {i} ({p['kind']}): exit {code}, expected {p['expect']}; "
                     f"stderr {lines[-1:] if lines else 'empty'}")
        csv = None
        if ok and code == 0:
            with open(target, "rb") as fh:
                csv = fh.read()
        return (code if ok else -1), seconds, csv

    # untimed pass: the outputs every timed op must reproduce, checked here
    expected = []
    for i, (p, _) in enumerate(ops):
        code, _, csv = one(i, plain)
        if code == 0:
            worst, reason = check_csv(p, csv.decode("ascii"), reference=False)
            out.worst = max(out.worst, worst)
            if reason:
                out.note(f"op {i} ({p['f']}): {reason}")
                code = -1
        expected.append((code, csv))

    def timed(i: int, prefix: list[str]) -> tuple[int, float]:
        code, seconds, csv = one(i, prefix)
        out.attempted += 1
        ok = code >= 0 and (code, csv) == expected[i]
        out.failed += not ok
        if prefix is plain:
            cal = (runner.spawn(BARE_START)[1],) if len(out.samples) % 3 == 0 else ()
            out.samples.append((seconds, cal, csv.count(b"\n") - 1 if csv else 0, ok))
        return code, seconds

    start = clock()
    if not args.trace:
        # whole passes only, so that every op weighs the same in the quantiles
        while out.attempted < MIN_OPS or clock() - start < args.seconds:
            for i in range(len(ops)):
                timed(i, plain)
                if clock() - start >= 3.0 * args.seconds:
                    return out
        return out

    passes, exits, imports = [], {}, []
    untraced_s = traced_s = 0.0
    spans = None
    while not passes or clock() - start < args.seconds:
        untraced_s += sum(timed(i, plain)[1] for i in range(len(ops)))
        stats = {}
        for i in range(len(ops)):
            keep = KEEP_SPANS if spans is None else 0
            code, seconds = timed(i, traced + [str(keep)])
            traced_s += seconds
            exits[code] = exits.get(code, 0) + 1
            with open(stats_path) as fh:
                child = json.load(fh)
            os.remove(stats_path)
            tracer.merge(stats, child["stats"])
            imports.append(child["import_s"])
            if spans is None:
                spans = child["spans"]
        passes.append(stats)
        if clock() - start >= 3.0 * args.seconds:
            break
    starts = [runner.spawn(BARE_START)[1] for _ in range(START_REPEATS)]
    holes = 0
    for argv in workloads.CONTRACT_PROBES:
        code, _, _ = runner.spawn(plain + argv)
        if code not in CLI_EXIT_CODES or code == 0 or len(runner.stderr_lines()) != 1:
            holes += 1
    extra = {f"exit.{c}": n / len(passes) for c, n in exits.items()}
    extra.update(import_ms=statistics.median(imports) * 1e3,
                 python_start_ms=statistics.median(starts) * 1e3, contract_holes=holes)
    out.layers = trace_metrics(passes, traced_s / untraced_s, out, extra)
    write_spans("cli", args.seed, spans or [])
    return out


# -------------------------------------------------------------- report

def timings(seconds: list[float], rows: int, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (statistics.median(seconds) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(seconds, n=10)[-1] * 1e3, "ms"),
        "rows_per_s": (rows / sum(seconds), "rows/s"),
    }


def end_to_end(out: Outcome, setup: list[tuple]) -> tuple[dict, dict]:
    """The end-to-end metrics, with times at reference speed, and the same
    timings unscaled."""
    done = [s for s in out.samples if s[3]]
    if len(done) < 2:
        raise Failure("fewer than two ops completed")
    rows = sum(s[2] for s in done)
    scaled = [t for t, s in zip(at_reference_speed(out.samples, *out.speed), out.samples) if s[3]]
    metrics = timings(scaled, rows, at_reference_speed(setup, calib.REF_S, 2))
    worst = min(max(out.worst, 1e-17), 1e300)  # exact rows would read as infinite digits
    metrics.update({
        "err_digits": (-math.log10(worst), "digits"),
        "ok_frac": ((out.attempted - out.failed) / out.attempted, "ratio"),
        "peak_rss_mb": (out.peak_rss_kb / 1024.0, "MB"),
    })
    return metrics, timings([s[0] for s in done], rows, [s[0] for s in setup])


def machine_facts() -> str:
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"mpmath={mpmath.__version__} platform={platform.platform()}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trapcorr", "__init__.py")):
        print("perfbench: no trapcorr sources under src/; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # one CPU for this process and every child it starts, so that the
    # calibration loops run where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(BUILD, exist_ok=True)
    workdir = os.path.join(BUILD, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workdir, time.monotonic() + DEADLINE_S)
    try:
        build(runner)
        problems = workloads.generate(args.workload, args.seed)
        setup = [] if args.trace else measure_setup(runner, problems)
        if args.workload == "cli":
            out = run_cli(runner, problems, args)
        else:
            out = run_library(runner, args.workload, problems, args)
        raw = {}
        if not args.trace:
            metrics, raw = end_to_end(out, setup + measure_setup(runner, problems))
        else:
            metrics = out.layers
    except (Failure, TimeoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in out.problems:
        print(f"perfbench: wrong output: {reason}", file=sys.stderr)
    print(machine_facts())
    print(f"workload={args.workload} seed={args.seed} ops={out.attempted} "
          f"failed={out.failed} (closed loop, one client, serial)")
    for name, (value, unit) in metrics.items():
        raw_note = f"  (unscaled {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name} = {value:.6g} {unit}{raw_note}")
    print(json.dumps({
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
