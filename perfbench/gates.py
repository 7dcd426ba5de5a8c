"""Correctness gates on the outputs of each CLI invocation.

Every gate returns a list of problems; an empty list means the output is
correct.  Gates run outside the timed region and stream the stage files
line by line so they do not raise the measured peak RSS.  Tolerances are
the ones pinned in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

FIDELITY_TOL = 1e-10
ROUNDTRIP_TOL = 1e-10


def expected_bond_dims(clones: int) -> list:
    """D_k = min(k+1, 2M-k, M) for k = 0 .. 2M-1, boundary bonds included."""
    return [min(k + 1, 2 * clones - k, clones) for k in range(2 * clones)]


def _count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def check_prepare(out: Path, clones: int, stdout: str) -> list:
    problems = []
    n = 2 * clones - 1
    support = 2 * math.comb(n, clones)
    full = _count_lines(out / "FullBitString")
    if full != 2**n:
        problems.append(f"FullBitString has {full} lines, expected {2**n}")
    gm = _count_lines(out / "GMBitString")
    if gm != support:
        problems.append(f"GMBitString has {gm} lines, expected {support}")
    records = 0
    with (out / "GMMatrix").open(encoding="ascii") as handle:
        for line in handle:
            records += 1
            bits, _, _, cls = line.rstrip("\n").split("\t")
            ones = bits.count("1")
            want = "C0" if ones == clones - 1 else "C1" if ones == clones else None
            if cls != want:
                problems.append(f"GMMatrix {bits}: class {cls}, popcount {ones}")
                break
    if records != support:
        problems.append(f"GMMatrix has {records} records, expected {support}")
    return problems


def check_compile(out: Path, clones: int, stdout: str) -> list:
    report = json.loads((out / "compile_report.json").read_text(encoding="ascii"))
    problems = []
    if report["bond_dims"] != expected_bond_dims(clones):
        problems.append(f"bond_dims {report['bond_dims']}")
    error = report["roundtrip_error"]
    if not error <= ROUNDTRIP_TOL:
        problems.append(f"roundtrip_error {error}")
    return problems


def check_analyze(out, clones: int, stdout: str) -> list:
    report = json.loads(stdout)  # a NaN prints as "nan", which fails to parse
    target = (2 * clones + 1) / (3 * clones)
    problems = []
    fids = report["clone_fidelities"]
    if len(fids) != clones or not all(abs(f - target) <= FIDELITY_TOL for f in fids):
        problems.append(f"clone fidelities {fids}, expected {target}")
    gap = report["nonlinearity_gap"]
    if not math.isfinite(gap) or (clones >= 2 and not gap > 0.0):
        problems.append(f"nonlinearity_gap {gap}")
    return problems


def check_sweep(out: Path, clones: int, stdout: str) -> list:
    lines = (out / "scaling.csv").read_text(encoding="ascii").splitlines()
    problems = []
    if len(lines) != clones + 1:
        problems.append(f"scaling.csv has {len(lines) - 1} rows, expected {clones}")
    for line in lines[1:]:
        M, _, bond_dim, _, _ = line.split(",")
        if int(bond_dim) != int(M):
            problems.append(f"scaling.csv M={M}: bond_dim {bond_dim}")
    return problems


GATES = {
    "prepare": check_prepare,
    "compile": check_compile,
    "analyze": check_analyze,
    "sweep": check_sweep,
}


def check(op, exit_code, stdout: str) -> list:
    """All gates of one invocation: exit code first, then its outputs."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return GATES[op.command](op.out, op.clones, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# self-check: every gate must reject a deliberately corrupted output
# ---------------------------------------------------------------------------

def _flipped_class(out, stdout):
    path = out / "GMMatrix"
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    fields = lines[0].split("\t")
    fields[3] = "C1\n" if fields[3] == "C0\n" else "C0\n"
    lines[0] = "\t".join(fields)
    path.write_text("".join(lines), encoding="ascii")
    return stdout


def _missing_line(out, stdout):
    path = out / "FullBitString"
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="ascii")
    return stdout


def _edit_report(out, key, change):
    path = out / "compile_report.json"
    report = json.loads(path.read_text(encoding="ascii"))
    report[key] = change(report[key])
    path.write_text(json.dumps(report), encoding="ascii")


def _wrong_bond_dim(out, stdout):
    _edit_report(out, "bond_dims", lambda d: d[:2] + [d[2] + 1] + d[3:])
    return stdout


def _roundtrip_error(out, stdout):
    _edit_report(out, "roundtrip_error", lambda e: 1e-6)
    return stdout


def _edit_stdout(stdout, key, change):
    report = json.loads(stdout)
    report[key] = change(report[key])
    return json.dumps(report)  # NaN is written as NaN, which json parses


def _nan_fidelity(out, stdout):
    return _edit_stdout(stdout, "clone_fidelities", lambda f: [math.nan] + f[1:])


def _fidelity_off(out, stdout):
    return _edit_stdout(stdout, "clone_fidelities", lambda f: [f[0] + 1e-8] + f[1:])


def _zero_gap(out, stdout):
    return _edit_stdout(stdout, "nonlinearity_gap", lambda g: 0.0)


def _wrong_sweep_bond(out, stdout):
    path = out / "scaling.csv"
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[2] = str(int(fields[2]) + 1)
    lines[-1] = ",".join(fields)
    path.write_text("".join(lines), encoding="ascii")
    return stdout


SELF_CHECK_CASES = (
    ("prepare", None),
    ("prepare", _flipped_class),
    ("prepare", _missing_line),
    ("compile", None),
    ("compile", _wrong_bond_dim),
    ("compile", _roundtrip_error),
    ("analyze", None),
    ("analyze", _nan_fidelity),
    ("analyze", _fidelity_off),
    ("analyze", _zero_gap),
    ("sweep", None),
    ("sweep", _wrong_sweep_bond),
)


def self_check(run_op, make_op, work: Path):
    """Check that every gate passes a real output and rejects corrupted ones.

    ``make_op(command, clones, out, input_spec)`` builds an invocation and
    ``run_op(op)`` runs it, returning ``(seconds, exit_code, stdout)``.  Each case
    runs a fresh M = 3 invocation.  Returns the labels of the cases where a
    gate judged wrongly, and the number of cases judged.
    """
    failures = []
    for i, (command, corrupt) in enumerate(SELF_CHECK_CASES):
        out = None if command == "analyze" else work / f"case{i}"
        spec = "equatorial:0.4" if command in ("compile", "analyze") else None
        op = make_op(command, 3, out, spec)
        _, code, stdout = run_op(op)
        if corrupt is not None:
            stdout = corrupt(out, stdout)
        if (not check(op, code, stdout)) != (corrupt is None):
            failures.append(f"{command}: {corrupt.__name__ if corrupt else 'correct output'}")
        if i == 0 and not check(op, 3, stdout):
            failures.append("any command: non-zero exit code accepted")
    return failures, len(SELF_CHECK_CASES) + 1
