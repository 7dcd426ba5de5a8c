"""Workload definitions: each is a fixed sequence of gmclone CLI invocations.

A workload is a closed loop with one client: the next invocation starts only
after the previous one returned.  The mix of commands and register sizes is
fixed per workload; only the input states and the order of equivalent calls
are drawn from the seed, so run time does not depend on the seed.
See ``notes.json`` for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its correctness gate needs to know."""

    command: str
    clones: int
    argv: tuple
    out: Path | None  # directory the command writes to, None for stdout only


def make_op(command, clones, out=None, input_spec=None):
    argv = [command, "--clones", str(clones)]
    if input_spec is not None:
        argv += ["--input", input_spec]
    if out is not None:
        argv += ["--out", str(out)]
    return Op(command, clones, tuple(argv), out)


def _equatorial(rng: random.Random) -> str:
    return f"equatorial:{rng.uniform(0.0, 2.0 * math.pi)!r}"


def _amps(rng: random.Random) -> str:
    # Keep both populations in [0.1, 0.9]: a generic superposition, so the
    # nonlinearity gap is well above zero and the gate on it is meaningful.
    while True:
        re0, im0, re1, im1 = (rng.gauss(0.0, 1.0) for _ in range(4))
        p0 = re0 * re0 + im0 * im0
        share = p0 / (p0 + re1 * re1 + im1 * im1)
        if 0.1 <= share <= 0.9:
            return f"amps:{re0!r},{im0!r},{re1!r},{im1!r}"


def stage_files(rng: random.Random, work: Path) -> list:
    out = work / "stage"
    bits = ["0", "1"]
    rng.shuffle(bits)
    ops = [make_op("prepare", 10, out)]
    ops += [make_op("compile", 10, out, f"basis:{b}") for b in bits]
    return ops


def dense_inputs(rng: random.Random, work: Path) -> list:
    # amps inputs stay at M = 10: at M = 11 some of them trip the SVD
    # noise-floor defect (bond dimension far above M), see notes.json.
    ops = []
    for clones, spec in ((10, _amps(rng)), (11, _equatorial(rng))):
        ops.append(make_op("compile", clones, work / f"compile-{clones}", spec))
        ops.append(make_op("analyze", clones, input_spec=spec))
    return ops


SMALL_CYCLES = 5


def small_registers(rng: random.Random, work: Path) -> list:
    ops = [make_op("sweep", 8, work / "sweep")]
    for cycle in range(SMALL_CYCLES):
        for clones in range(1, 8):
            spec = _equatorial(rng)
            ops.append(make_op("compile", clones, work / f"c{cycle}-{clones}", spec))
            ops.append(make_op("analyze", clones, input_spec=spec))
    return ops


WORKLOADS = {
    "stage-files": stage_files,
    "dense-inputs": dense_inputs,
    "small-registers": small_registers,
}


def build(name: str, seed: int, work: Path) -> list:
    return WORKLOADS[name](random.Random(seed), Path(work))
