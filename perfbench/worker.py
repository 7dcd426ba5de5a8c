"""One run of a workload in a fresh interpreter, or the gate self-check.

``run.py`` starts this script once per workload run, with ``src`` on
``PYTHONPATH``, and reads the JSON line it prints last:

    python3 perfbench/worker.py run WORKLOAD SEED WORKDIR TRACE
    python3 perfbench/worker.py selfcheck WORKDIR

Each CLI invocation calls ``gmclone.cli.main(argv)`` in-process, one after
another.  Only the call itself is timed; gates run after it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import gates
import tracing
import workloads
from gmclone import cli


def run_op(op):
    """Invoke the CLI once; returns (seconds, exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


def run_workload(name: str, seed: int, work: Path, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = workloads.build(name, seed, work)
    op_s = []
    problems = []
    failed = 0
    for op in ops:
        seconds, code, stdout = run_op(op)
        op_s.append(seconds)
        found = gates.check(op, code, stdout)
        if found:
            failed += 1
            problems.append(f"{' '.join(op.argv)}: {'; '.join(found)}")
    result = {
        "wall_s": sum(op_s),
        "op_s": op_s,
        "op_commands": [op.command for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["wall_s"])
    return result


def self_check(work: Path) -> dict:
    failures, cases = gates.self_check(run_op, workloads.make_op, work)
    return {"failures": failures, "cases": cases}


def main(argv) -> int:
    if argv[0] == "run":
        name, seed, work, trace = argv[1:]
        result = run_workload(name, int(seed), Path(work), trace == "1")
    else:
        result = self_check(Path(argv[1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
