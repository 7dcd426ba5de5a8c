"""End-to-end and per-layer benchmark of the four gmclone commands.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark measures the package under ``./src`` without installing it.
It runs the gate self-check, then repeats the workload, each run in a
fresh worker process, for about ``--seconds`` and at least ``MIN_RUNS``
runs.  It times ``import gmclone`` in fresh interpreters (``setup_s``) at
the start and again before each round of runs, so set-up samples span the
whole invocation.  Every run of one invocation issues the same operations,
so a time metric is the sum over operations of each operation's median
run.  Medians, not fastest runs: on a shared machine the speed of the
fastest moments drifts over tens of seconds too, while a median averages
over the invocation (see ``notes.json``).  With ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones listed in ``BENCHMARK.json``.  Every metric, including the ones
not gated there, is printed by name with its unit on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # at the start; then one more before each round of runs
MIN_RUNS = {0: 3, 1: 2}  # runs per mode, by --trace
RUN_LIMIT_S = 170  # every worker is killed before this, so the run ends in time
# Fixed BLAS/OpenMP thread count, at most nproc: SVD rounding, and with it the
# retained ranks near the noise floor, depends on the thread count.
BLAS_THREADS = min(2, os.cpu_count() or 1)
COMMANDS = ("prepare", "compile", "analyze", "sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("GMCLONE_BACKEND", None)
    return env


def setup_seconds(env: dict, deadline: float, count: int) -> list:
    """Seconds from spawning an interpreter until ``import gmclone`` returns.

    The child prints CLOCK_MONOTONIC, which is shared across processes.
    """
    code = "import time, gmclone; print(time.monotonic())"
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start), check=True,
        )
        samples.append(float(proc.stdout) - start)
    return samples


def run_worker(args: list, env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=env,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}, n={len(values)}"


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>16.6g} {unit:<16} {note}")


def median_per_op(runs: list) -> list:
    """Median time of each operation over runs that issue the same operations."""
    return [statistics.median(times) for times in zip(*(r["op_s"] for r in runs))]


def per_command(op_s: list, commands: list) -> dict:
    totals = {}
    for seconds, command in zip(op_s, commands):
        totals[f"{command}_s"] = totals.get(f"{command}_s", 0.0) + seconds
    return totals


def measure(args, env: dict, work: Path, deadline: float, setup: list) -> dict:
    """Repeat the workload, alternating traced and untraced runs if tracing.

    Each round first adds one ``import gmclone`` sample to ``setup``.
    A new round starts only while it is expected to end within --seconds,
    once every mode has its minimum number of runs.
    """
    modes = (False, True) if args.trace else (False,)
    runs = {mode: [] for mode in modes}
    rounds = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        setup += setup_seconds(env, deadline, 1)
        for mode in modes:
            run_dir = work / f"run{len(runs[mode])}-{int(mode)}"
            runs[mode].append(run_worker(
                ["run", args.workload, str(args.seed), str(run_dir), str(int(mode))],
                env, deadline,
            ))
            shutil.rmtree(run_dir, ignore_errors=True)
        rounds.append(time.monotonic() - round_start)
        done = all(len(runs[m]) >= MIN_RUNS[args.trace] for m in modes)
        if done and time.monotonic() - start + statistics.median(rounds) > args.seconds:
            return runs


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "gmclone" / "cli.py").is_file():
        print("error: no gmclone sources under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_seconds(env, deadline, 1)  # may write bytecode caches; not counted
        setup = setup_seconds(env, deadline, SETUP_SAMPLES)
        check = run_worker(["selfcheck", str(work / "selfcheck")], env, deadline)
        runs = measure(args, env, work, deadline, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    all_runs = [r for mode_runs in runs.values() for r in mode_runs]
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    plain = runs[False]
    commands = plain[0]["op_commands"]
    median = statistics.median

    typical = median_per_op(plain)
    e2e = {"wall_s": sum(typical), **per_command(typical, commands)}
    spread = {"wall_s": [r["wall_s"] for r in plain]}
    for r in plain:
        for name, seconds in per_command(r["op_s"], commands).items():
            spread.setdefault(name, []).append(seconds)
    e2e["setup_s"] = median(setup)
    spread["setup_s"] = setup
    e2e["peak_rss_mb"] = median(r["peak_rss_mb"] for r in plain)
    spread["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]

    print(f"gmclone benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced run(s) of {len(commands)} operations, "
          f"BLAS threads {BLAS_THREADS} of nproc {os.cpu_count()}")
    print("end to end (times: sum over operations of each one's median run; "
          "setup_s, peak_rss_mb: median):")
    for name, value in e2e.items():
        show(name, value, "MB" if name == "peak_rss_mb" else "s",
             "per run: " + quartiles(spread[name]))
    fastest = [min(times) for times in zip(*(r["op_s"] for r in plain))]
    show("wall_s.fastest", sum(fastest), "s", "sum of each operation's fastest run")
    show("failed_ratio", failed / attempted, "1", f"base: ops_attempted = {attempted}")
    show("ops_attempted", attempted, "count")
    print(f"gate self-check: {check['cases'] - len(check['failures'])} of "
          f"{check['cases']} cases judged correctly")
    for label in check["failures"]:
        print(f"  self-check FAILED: {label}")
    for problem in [p for r in all_runs for p in r["problems"]][:10]:
        print(f"  gate FAILED: {problem}")

    if args.trace:
        traced = runs[True]
        layers = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = sum(median_per_op(traced)) - e2e["wall_s"]
        print(f"per layer (median over {len(traced)} traced run(s); "
              f"trace.overhead_s compares median-run sums):")
        for name in sorted(layers):
            show(name, layers[name], next(
                (m["unit"] for m in spec["per_layer"] if m["name"] == name), "count"))
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not check["failures"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
