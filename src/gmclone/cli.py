"""Command-line driver: prepare / compile / analyze / sweep.

The parser is built once, at import; ``main`` only parses and dispatches the
namespace to one handler per command; ``--format`` is an option of
``analyze`` alone, and ``analyze``, which writes no file, has no ``--out``.
``compile`` passes the register guard before it reads anything, then makes
one sweep (``mps.mps_from_dicke``) over the (M+1) x M matrix c of the
output on |D^M_a>|D^(M-1)_b>.  It names its source on stdout: the GMMatrix
stage in ``--out`` for a ``basis:`` input, whose register projected onto
the clone-symmetric (x) anticlone-symmetric states gives c, or the builder
(``builder.dicke_outputs``).  The stage is read once, keeping only the
records of class C{b} for input ``basis:b``; a stage that is not the
cloner's, by its record count or by a coefficient of either class off its
closed form, exits 4 before the sweep.
``roundtrip_error`` measures the export, as the product of its contracted
halves at the clone|anticlone bond (``mps.mps_halves``), against the
reference.  For the builder that is the register of c, and the check runs
in the symmetric subspaces (``_symmetric_roundtrip``): no array of it is
wider than the (M+1) x 2^M Dicke basis of the clones.  For a stage it is
the stage register, compared entry by entry as 2^M x 2^(M-1) matrices,
``ROW_BLOCK`` clone rows at a time, so whatever a stage holds outside the
symmetric states shows there.  ``compile`` forms no array of 2^(2M-1)
amplitudes on either route.

Exit codes: 0 success, 2 usage error, 3 resource guard or out of memory,
4 internal consistency failure or a ``ValueError`` that is not a gmclone
error, such as numpy's ``LinAlgError`` (an SVD that does not converge),
1 any other gmclone error or an ``OSError`` (an unwritable ``--out``
included).  Past argument parsing, each of these
failures prints one ``error: ...`` line.  All outputs are deterministic —
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, mps, pipeline
from .builder import _dicke_kets, check_register, dicke_outputs
from .errors import (
    GMCloneError,
    InternalConsistencyError,
    ResourceLimitError,
    UsageError,
)
from .qubit import BASIS, Qubit, equatorial_qubit, make_qubit
from ._format import dumps_17g, float17

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# Clone-index rows per block of the stage compile's roundtrip check: one
# block of the register is ROW_BLOCK x 2^(M-1) amplitudes, 1 MiB at M = 12.
ROW_BLOCK = 32


def _basis_bit(spec: str):
    """0 or 1 for exactly ``basis:0`` or ``basis:1``, else None."""
    return {"basis:0": 0, "basis:1": 1}.get(spec)


def parse_input_spec(spec: str) -> Qubit:
    """SPEC grammar: basis:0 | basis:1 | equatorial:FLOAT | amps:RE,IM,RE,IM."""
    bit = _basis_bit(spec)
    if bit is not None:
        return BASIS[bit]
    tag, _, payload = spec.partition(":")
    try:
        if tag == "basis":
            raise ValueError
        if tag == "equatorial":
            return equatorial_qubit(float(payload))
        if tag == "amps":
            parts = [float(x) for x in payload.split(",")]
            if len(parts) != 4:
                raise ValueError
            return make_qubit(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    except (ValueError, GMCloneError):
        raise UsageError(f"bad --input spec {spec!r}") from None
    raise UsageError(f"unknown --input tag {tag!r}")


def cmd_prepare(args) -> int:
    count0, count1 = pipeline.run_pipeline(args.clones, args.out)
    records = count0 + count1
    print(f"FullBitString: {2 ** (2 * args.clones - 1)} lines -> "
          f"{args.out / pipeline.FULL_STAGE_NAME}")
    print(f"GMBitString:   {records} lines -> {args.out / pipeline.GM_STAGE_NAME}")
    print(f"GMMatrix:      {records} records -> {args.out / pipeline.MATRIX_STAGE_NAME}")
    print(f"parity classes: C0={count0} C1={count1}")
    return EXIT_OK


def _stage_dicke(records, M: int, bit: int) -> np.ndarray:
    """The (M+1) x M matrix c of the stage register of class ``bit``
    projected onto |D^M_a>|D^(M-1)_b>.

    A record's cell is a, the popcount of its clone half, and its class
    fixes b = M - 1 + bit - a; c[a, b] is the cell's sum over
    sqrt(C(M, a) C(M-1, b)).  Each cell is summed pairwise, by ``np.sum``
    of its records, one cell at a time: a sequential sum (``np.bincount``,
    ``np.add.at``) lands 1.5e-13 off the builder's c at M = 10, and a sort
    by cell would copy every column.
    """
    indices, coefficients = records
    cells = np.bitwise_count(indices >> (M - 1))  # uint8: no int64 copy of the column
    c = np.zeros((M + 1, M), dtype=np.complex128)
    for a in range(bit, M + bit):
        b = M - 1 + bit - a
        norm = math.sqrt(math.comb(M, a) * math.comb(M - 1, b))
        c[a, b] = coefficients[cells == a].sum() / norm
    return c


def _minus_stage_rows(block, records, lo: int) -> np.ndarray:
    """``block``, rows lo.. of a (2^M, cols) matrix, minus the same rows of
    the stage register: the records whose indices fall in them, subtracted
    in place."""
    indices, coefficients = records
    rows, cols = block.shape
    start, stop = np.searchsorted(indices, (lo * cols, (lo + rows) * cols))
    block.reshape(-1)[indices[start:stop] - lo * cols] -= coefficients[start:stop]
    return block


def _symmetric_roundtrip(left, right, c) -> float:
    """The distance ||L @ R - K_M^T c K_(M-1)|| from the export's halves at
    the clone|anticlone bond to the register of ``c``, with no 2^M x 2^(M-1)
    array.

    K_n is the (n+1) x 2^n matrix of the Dicke states |D^n_a>; its rows are
    orthonormal.  With A = K_M L and B = R K_(M-1)^T the difference is the
    sum of three orthogonal parts: K_M^T (A B - c) K_(M-1) inside both
    symmetric subspaces, (L - K_M^T A) B K_(M-1) outside the clone one and
    L (R - B K_(M-1)) outside the anticlone one.  Their norms are those of
    A B - c, (L - K_M^T A) B and T (R - B K_(M-1)), T the triangular factor
    of L (T^H T = L^H L): each is the norm of an explicit matrix, so no
    squared part can round negative.  The cost is O(2^M D M).
    """
    M = c.shape[0] - 1
    clone, anti = _dicke_kets(np.eye(M + 1)), _dicke_kets(np.eye(M))
    a = clone @ left
    b = right @ anti.T
    parts = (
        a @ b - c,
        (left - clone.T @ a) @ b,
        np.linalg.qr(left, mode="r") @ (right - b @ anti),
    )
    return math.sqrt(sum(np.vdot(part, part).real for part in parts))


def cmd_compile(args) -> int:
    M, q = args.clones, parse_input_spec(args.input)
    check_register(M)
    matrix_path = args.out / pipeline.MATRIX_STAGE_NAME
    bit = _basis_bit(args.input)
    if bit is not None and matrix_path.is_file():
        # One class read checks both classes of the stage, run by run, and
        # keeps only this one.
        matrix = pipeline.read_gm_matrix(matrix_path, M, bit)
        records = matrix.indices, matrix.coefficients
        source, origin = "gm_matrix", f"gm_matrix {matrix_path}"
        c = _stage_dicke(records, M, bit)
    else:
        records = None
        source = origin = "builder"
        (c,) = dicke_outputs(M, [q])
    compiled, spectrum = mps.mps_from_dicke(c, args.tol)
    left, right = mps.mps_halves(compiled, M)
    if records is None:
        error = _symmetric_roundtrip(left, right, c)
    else:
        # Export minus stage register as 2^M x 2^(M-1) matrices, ROW_BLOCK
        # clone rows at a time: L @ R minus the stage rows, entry by entry.
        blocks = [(lo, min(lo + ROW_BLOCK, 2**M)) for lo in range(0, 2**M, ROW_BLOCK)]
        differences = (_minus_stage_rows(left[lo:hi] @ right, records, lo) for lo, hi in blocks)
        error = math.sqrt(sum(np.vdot(block, block).real for block in differences))
    args.out.mkdir(parents=True, exist_ok=True)
    export_path = args.out / "mps.json"
    report_path = args.out / "compile_report.json"
    mps.save_mps(export_path, compiled, spectrum)
    report = {
        "M": M,
        "num_qubits": compiled.num_sites,
        "input": args.input,
        "tol": float(args.tol),
        "source": source,
        "bond_dims": compiled.bond_dims(),
        "retained_ranks": spectrum.retained_ranks(),
        "singular_values_per_cut": [cut.singular_values for cut in spectrum.cuts],
        "roundtrip_error": error,
    }
    report_path.write_text(dumps_17g(report), encoding="ascii")
    print(f"source: {origin}")
    print(f"MPS export -> {export_path}")
    print(f"report     -> {report_path}")
    print(f"bond_dims: {compiled.bond_dims()}  roundtrip_error: {float17(error)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    result = analysis.analyze_cloner(args.clones, parse_input_spec(args.input))
    clones = result.clone_fidelities
    anticlones = result.anticlone_fidelities
    gap = result.nonlinearity_gap
    if args.format == "csv":
        print("metric,value")
        print("clone_fidelities," + ";".join(float17(f) for f in clones))
        print("anticlone_fidelities," + ";".join(float17(f) for f in anticlones))
        print("nonlinearity_gap," + float17(gap))
    else:
        report = {
            "M": args.clones,
            "input": args.input,
            "clone_fidelities": clones,
            "anticlone_fidelities": anticlones,
            "nonlinearity_gap": gap,
        }
        print(dumps_17g(report), end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = analysis.scaling_sweep(1, args.clones, args.tol)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "scaling.csv"
    analysis.write_scaling_csv(csv_path, rows)
    print(f"scaling CSV -> {csv_path}")
    for row in rows:
        print(
            f"M={row.M} qubits={row.num_qubits} "
            f"bond_dim={row.bond_dim} (bound {2 * row.M})"
        )
    return EXIT_OK


_HANDLERS = {
    "prepare": cmd_prepare,
    "compile": cmd_compile,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmclone",
        description=(
            "Simulate the 1->M universal cloning machine output, prepare it "
            "through the parity bitstring pipeline, and compile it to an MPS."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True, with_tol=True, with_out=True):
        p.add_argument("--clones", type=int, required=True, help="number of clones M")
        if with_input:
            p.add_argument(
                "--input",
                default="equatorial:0.0",
                help="basis:0 | basis:1 | equatorial:PHI | amps:RE,IM,RE,IM",
            )
        if with_tol:
            p.add_argument(
                "--tol", type=float, default=mps.DEFAULT_TOL,
                help="relative singular-value cutoff in [0, 1)",
            )
        if with_out:
            p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        return p

    add_common(sub.add_parser("prepare", help="run the bitstring pipeline stages"),
               with_input=False, with_tol=False)
    add_common(sub.add_parser("compile", help="compile a cloner output state to MPS"))
    analyze = add_common(sub.add_parser("analyze", help="fidelities and nonlinearity gap"),
                         with_tol=False, with_out=False)
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sub.add_parser("sweep", help="bond-dimension scaling study M=1..clones"),
               with_input=False)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.clones < 1:
            raise UsageError("--clones must be >= 1")
        if not 0.0 <= getattr(args, "tol", 0.0) < 1.0:
            raise UsageError("--tol must lie in [0, 1)")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GMCloneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        # After GMCloneError, since DomainError is a ValueError too; numpy's
        # LinAlgError is one, so an unconverged SVD lands here.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
