"""Turn perfbench runs into a ``BENCH_<n>.json``: alternating pairs of runs
of a parent commit and of this checkout, with per-metric quartiles and wins.

    python3 tools/bench_pairs.py --parent HEAD~1 --seed 41 --pairs 10 \\
        --workload audit-sin --workload sweep-exotic --trace audit-sin \\
        --out BENCH_21.json --description "what changed"

The parent runs from a ``git archive`` export of ``--parent`` into a temporary
directory, which leaves nothing behind in the repository.  Both sides run the same command, ``python3
perfbench/run.py --workload W --seed S --seconds T --trace 0``, each from its
own checkout root, with T the ``run_seconds`` of ``BENCHMARK.json``; each
run's JSON summary line is kept as it is.  Pair i runs the parent first
when i is even and this checkout first when it is odd.  Then each
``--trace`` workload gets one ``--trace 1`` run per side.  Just before each
``cli`` run, the median wall time of 9 bare ``python3 -c pass`` runs is taken
and stored, in ms, under the workload's ``python_start_ms``, index for index
with its runs: the interpreter start that every cli op pays, as the machine
gave it at that moment.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's quartiles (inclusive method), the parent's quartile distance, the
change of the median relative to the parent's, the pairs the change
won in the metric's better direction (a tie wins for neither side), and
whether a gain may be claimed (``claim_met``): the change won at least nine
tenths of the pairs, and its median is better than the parent's by more
than the parent's quartile distance.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: bare interpreters timed before each cli run
START_REPEATS = 9


def perfbench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run from ``checkout``: its machine line and final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv[1:])} in {checkout} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    machine = next((ln for ln in lines if ln.startswith("machine:")), "")
    return {"machine": machine, "final_line": json.loads(lines[-1])}


def python_start_ms() -> float:
    """The median wall time, in ms, of ``START_REPEATS`` bare ``python3 -c pass`` runs."""
    times = []
    for _ in range(START_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def summary(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Quartiles and pair wins of each end-to-end metric."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        pq = statistics.quantiles(p, n=4, method="inclusive")
        cq = statistics.quantiles(c, n=4, method="inclusive")
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        moved = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])  # the median's gain
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "parent_quartile_distance": pq[2] - pq[0],
            "median_change": (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
            "change_better_pairs": wins,
            "pairs": len(p),
            # a gain may be claimed: nine tenths of the pairs won, ties for neither side,
            # and the median moved past the parent's own quartile distance
            "claim_met": 10 * wins >= 9 * len(p) and moved > pq[2] - pq[0],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    ap.add_argument("--workload", action="append", required=True, help="repeat for each")
    ap.add_argument("--trace", action="append", default=[],
                    help="a workload to run once traced per side; repeat for each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--description", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    seconds = BENCHMARK["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        parent_dir = Path(scratch) / "parent"
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_dir, filter="data")
        sides = {"parent": parent_dir, "change": ROOT}
        result = {
            "description": args.description,
            "command": (f"python3 perfbench/run.py --workload W --seed {args.seed} "
                        f"--seconds {seconds} --trace 0|1"),
            "seed": args.seed,
            "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, text=True,
                                     capture_output=True).stdout.strip() or args.parent,
            "machine": "",
            "workloads": {},
        }
        for workload in args.workload:
            runs, starts = {"parent": [], "change": []}, {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    if workload == "cli":
                        starts[side].append(python_start_ms())
                    run = perfbench(sides[side], workload, args.seed, seconds, 0)
                    result["machine"] = result["machine"] or run["machine"]
                    runs[side].append(run["final_line"])
                    print(f"{workload} pair {i} {side}: op_ms_p50 = "
                          f"{run['final_line']['metrics']['op_ms_p50']['value']:.3f}",
                          file=sys.stderr)
            result["workloads"][workload] = {
                "summary": summary(runs["parent"], runs["change"], BENCHMARK["end_to_end"]),
                "runs": runs, **({"python_start_ms": starts} if workload == "cli" else {})}
        for workload in args.trace:
            result["trace_" + workload.replace("-", "_")] = {
                side: {"final_line": perfbench(path, workload, args.seed, seconds,
                                               1)["final_line"]}
                for side, path in sides.items()}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
