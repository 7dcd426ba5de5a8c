"""Command-line driver: prepare / compile / analyze / sweep.

The parser is built once, at import; ``main`` only parses and dispatches the
namespace to one handler per command; ``--format`` is an option of
``analyze`` alone, and ``analyze``, which writes no file, has no ``--out``.
``compile`` passes the register guard before it reads anything.  It names
its source on stdout: the GMMatrix stage in ``--out`` for a ``basis:``
input, or the builder.  Either way the export is the cloner output of the
input qubit written in closed form (``builder.gm_mps``), with no SVD; the
source only chooses the reference that ``roundtrip_error`` measures it
against.  The stage is read once, keeping only the records of class C{b}
for input ``basis:b``; a stage that is not the cloner's, by its record
count or by a coefficient of either class off its closed form, exits 4
before anything is exported.  ``roundtrip_error`` measures the export, as
the product of its contracted halves at the clone|anticlone bond
(``mps.mps_halves``), against the reference.  For the builder that is the
register of the (M+1) x M matrix c of the output on |D^M_a>|D^(M-1)_b>
(``builder.dicke_outputs``), and the check runs in the symmetric subspaces
(``_symmetric_roundtrip``): no array of it is larger than the 2^M x D clone
half.  For a stage it is the stage register, compared entry by entry as
2^M x 2^(M-1) matrices, ``ROW_BLOCK`` clone rows at a time, so whatever a
stage holds outside the closed form shows there.  ``compile`` forms no
array of 2^(2M-1) amplitudes on either route.

Exit codes: 0 success, 2 usage error, 3 resource guard or out of memory,
4 internal consistency failure or a ``ValueError`` that is not a gmclone
error, such as numpy's ``LinAlgError`` (from the QR factorization of the
builder's roundtrip check),
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
from .builder import check_register, dicke_outputs, gm_mps
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


def _minus_stage_rows(block, records, lo: int) -> np.ndarray:
    """``block``, rows lo.. of a (2^M, cols) matrix, minus the same rows of
    the stage register: the records whose indices fall in them, subtracted
    in place."""
    indices, coefficients = records
    rows, cols = block.shape
    start, stop = np.searchsorted(indices, (lo * cols, (lo + rows) * cols))
    block.reshape(-1)[indices[start:stop] - lo * cols] -= coefficients[start:stop]
    return block


def _dicke_split(half):
    """The (2^n, D) matrix ``half`` as its coefficients on the Dicke states
    and the rest: returns (a, da, rest).

    a + da = K_n half, K_n the (n+1) x 2^n matrix of the Dicke states
    |D^n_p>, and rest = half - K_n^T (a + da), with its rows sorted by
    popcount.  rest is formed as half - K_n^T a, a difference of nearly
    equal doubles whose rounding leaves a part inside the Dicke states, so
    it is projected once more: da is that part, which a caller adds to a in
    extended precision.  Row p of K_n^T y is y[p] / sqrt(C(n, p)) on each
    string of popcount p, so both steps work on one copy of ``half`` sorted
    by popcount: K_n sums each group (``np.add.reduceat``), and K_n^T
    repeats each row over its group, subtracted in place.
    """
    n = half.shape[0].bit_length() - 1
    order = np.argsort(np.bitwise_count(np.arange(2**n)), kind="stable")
    rest = half[order]
    sizes = [math.comb(n, p) for p in range(n + 1)]
    starts = np.cumsum([0] + sizes[:-1])
    norms = np.sqrt(np.array(sizes, dtype=np.float64))[:, None]

    def project():
        coefficients = np.add.reduceat(rest, starts, axis=0) / norms
        rest[...] -= np.repeat(coefficients / norms, sizes, axis=0)
        return coefficients

    a = project()
    return a, project(), rest


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
    squared part can round negative.  ``_dicke_split`` gives A and B with a
    correction each, and A B - c is formed in ``np.clongdouble``, so the
    report resolves distances at the rounding level of the export.  The
    cost is O(2^M D M); no array is larger than L.
    """
    def square(part):
        return np.vdot(part, part).real

    triangle = np.linalg.qr(left, mode="r")
    b, db, rest = _dicke_split(right.T)
    outside = square(rest @ triangle.T)
    a, da, rest = _dicke_split(left)
    outside += square(rest @ b.T)
    inside = (a.astype(np.clongdouble) + da) @ (b.astype(np.clongdouble) + db).T - c
    return math.sqrt(outside + square(inside))


def cmd_compile(args) -> int:
    M, q = args.clones, parse_input_spec(args.input)
    check_register(M)
    matrix_path = args.out / pipeline.MATRIX_STAGE_NAME
    bit = _basis_bit(args.input)
    records = None
    source = origin = "builder"
    if bit is not None and matrix_path.is_file():
        # One class read checks both classes of the stage, run by run, and
        # keeps only this one.
        matrix = pipeline.read_gm_matrix(matrix_path, M, bit)
        records = matrix.indices, matrix.coefficients
        source, origin = "gm_matrix", f"gm_matrix {matrix_path}"
    compiled, spectrum = gm_mps(M, q, args.tol)
    left, right = mps.mps_halves(compiled, M)
    if records is None:
        (c,) = dicke_outputs(M, [q])
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
        # LinAlgError is one, so a failed factorization lands here.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
