"""Classical state-preparation pipeline over bitstring stage files.

Three stages, each a plain LF-terminated text file:

1. ``FullBitString``   every bitstring of length 2M-1, sorted;
2. ``GMBitString``     the support strings of the two basis-clone outputs,
   sorted (their popcounts are M-1 and M, which makes them exactly the two
   popcount classes);
3. ``GMMatrix``        one ``BITS<TAB>RE<TAB>IM<TAB>CLASS`` record per
   support string, carrying the final per-ket amplitude and its parity
   class ``C{b}``: b = 0 for popcount M-1 (the clone of |0>), b = 1 for
   popcount M (the clone of |1>).

Coefficients stored in GMMatrix are the normalized per-ket amplitudes of
the basis-clone states (the j-sector weight divided by the square root of
the arrangement multiplicity), signs included, so the file alone suffices
to rebuild the dense states.

In memory a bitstring is its basis index (qubit 1 is the most significant
bit, so fixed-width lexicographic order is numeric order), and the GMMatrix
stage is one columnar :class:`GMMatrix`: sorted int64 indices and complex128
coefficients.  A record's class b is not stored: it is the popcount of its
index minus M-1.  Nothing is built per line: the bitstring stages are
``(rows, n+1)`` uint8 ASCII matrices written with ``tobytes()``
(FullBitString refills only the high columns of one block per chunk), the
GMMatrix writer appends each distinct tail of a chunk, formatted once, to
the chunk's bit rows viewed as strings, and the reader checks a block of
lines at once with array masks over its raw bytes: the TAB after each bit
field, which a good line has exactly ``width`` bytes in, becomes an LF, so
one ``bytes.split`` gives the bit fields, joined into a ``(rows, width)``
matrix, and the ``RE<TAB>IM<TAB>CLASS`` tails, each distinct one parsed once
through one dict lookup per line.
Every writer goes through one open file, ``CHUNK_ROWS`` lines at a time; the
reader goes through one open file, ``READ_BLOCK`` bytes of whole lines at a
time; and the support is kept from a scan of the 2^(2M-1) register in runs
of ``CHUNK_ROWS`` indices.  So no temporary grows with the register, and none
of stage I/O grows with the file beyond the columns it reads or writes.  The
per-line grammar in :func:`_line_problem` only words the error for the first
bad line.  :func:`read_gm_matrix` reads the stage of M clones, width 2M-1,
for one parity class: it holds each block to the closed form of
:func:`assign_coefficients` in the same pass as the line checks, and keeps
only the records of that class.  A class is its bit b everywhere, as the
``basis:b`` input of ``compile`` names it.  The package writes the
bitstring stages and reads only GMMatrix; the string generators and the
per-line bitstring reader that the tests use live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .builder import check_register, gamma
from .errors import (
    DomainError,
    InternalConsistencyError,
    StageParseError,
)
from ._format import float17

# Stage lines written at a time: bounds the temporaries of the stage
# writers.  A power of two.
CHUNK_ROWS = 1 << 14
# Bytes read from a GMMatrix stage at a time, completed to a whole line.
READ_BLOCK = 1 << 18
# Largest distance of a stage coefficient from its closed form that compile
# accepts.
STAGE_ATOL = 1e-12

FULL_STAGE_NAME = "FullBitString"
GM_STAGE_NAME = "GMBitString"
MATRIX_STAGE_NAME = "GMMatrix"

_TAB, _LF, _ZERO = b"\t\n0"


@dataclass(frozen=True, eq=False)
class GMMatrix:
    """The GMMatrix stage as columns, one entry per support ket."""

    width: int                # register length 2M-1
    indices: np.ndarray       # int64 basis indices, strictly increasing
    coefficients: np.ndarray  # complex128 per-ket amplitudes

    def __len__(self) -> int:
        return self.indices.size


def _bit_rows(indices: np.ndarray, width: int) -> np.ndarray:
    """ASCII bitstrings of ``indices``: a (rows, width+1) uint8 matrix, LF last."""
    rows = np.empty((indices.size, width + 1), dtype=np.uint8)
    for col in range(width):
        rows[:, col] = ((indices >> (width - 1 - col)) & 1) + _ZERO
    rows[:, width] = _LF
    return rows


def _row_chunks(rows: int):
    """(lo, hi) bounds of consecutive runs of ``CHUNK_ROWS`` of ``rows`` rows."""
    return ((lo, min(lo + CHUNK_ROWS, rows)) for lo in range(0, rows, CHUNK_ROWS))


def _write_rows(path, rows: int, lines) -> None:
    """Write ``lines(lo, hi)``, the bytes of rows lo..hi-1, for each chunk of
    ``rows`` rows in order, through one open file."""
    with Path(path).open("wb") as handle:
        for lo, hi in _row_chunks(rows):
            handle.write(lines(lo, hi))


def _support(M: int) -> tuple[int, np.ndarray]:
    """Width and sorted support indices of both classes.

    The supports are the full popcount classes M-1 and M: a support string
    of the clone of |0> has j ones in the clone sector and M-1-j in the
    anticlone sector for some j, and conversely any split of M-1 ones is
    realized.  They are kept from a scan of the register, one run of
    ``CHUNK_ROWS`` indices at a time, so each comes out sorted.
    """
    check_register(M)
    n = 2 * M - 1
    runs = []
    for lo, hi in _row_chunks(2**n):
        run = np.arange(lo, hi, dtype=np.int64)
        ones = np.bitwise_count(run)
        runs.append(run[(ones == M - 1) | (ones == M)])
    support = np.concatenate(runs)
    # Both classes hold C(2M-1, M) = C(2M-1, M-1) kets.
    per_class = math.comb(n, M)
    if support.size != 2 * per_class:
        raise InternalConsistencyError(
            f"popcount classes of M={M} hold {support.size} support indices, "
            f"expected {2 * per_class}, half with popcount M-1 and half with M"
        )
    return n, support


def assign_coefficients(M: int) -> GMMatrix:
    """Attach the basis-clone amplitudes to the support, class by class.

    Each support ket x|y (clone half x, anticlone half y) lies in exactly
    one sector j of its class's cloner output, so its amplitude is the one
    term ``gamma_j * S^M_j(q)[x] * S^(M-1)_j(anticlone(q))[y]`` of the sum
    over sectors, with no ket and no dense state built.  For the clone of |0> the clone
    sector's perp factors are the ones, so j = popcount(x); for the clone
    of |1> they are the zeros, so j = M - popcount(x).  Either way the
    sector kets of a basis input are equal-weight sums over placements,
    with the sign (-1)^j of perp(|0>) = -|1> on one side: the term is
    ``gamma_j * ((-1)^j / sqrt(C(M, j)) * (1 / sqrt(C(M-1, j))))``.
    """
    n, support = _support(M)
    return GMMatrix(n, support, _basis_amplitudes(M, support).astype(np.complex128))


def _basis_amplitudes(M: int, indices: np.ndarray) -> np.ndarray:
    """The closed form of :func:`assign_coefficients` at the support kets
    ``indices``, each of the class its popcount gives."""
    ones = np.bitwise_count(indices >> (M - 1))
    j = np.where(np.bitwise_count(indices) == M, M - ones, ones)
    sectors = range(M)
    weights = np.array([gamma(M, k) for k in sectors])
    clone = np.array([(-1.0) ** k / math.sqrt(math.comb(M, k)) for k in sectors])
    anti = np.array([1.0 / math.sqrt(math.comb(M - 1, k)) for k in sectors])
    return (weights * (clone * anti))[j]


# ---------------------------------------------------------------------------
# stage file I/O
# ---------------------------------------------------------------------------

def write_gm_matrix(path, matrix: GMMatrix) -> None:
    """Write ``matrix`` as a GMMatrix stage, ``CHUNK_ROWS`` lines at a time.

    Nothing is built per line.  A chunk's bit fields are its ``(rows,
    width)`` uint8 rows viewed as ``S{width}`` strings.  Its distinct
    doubles, and then its distinct (RE, IM, CLASS) codes, come from two 1-D
    ``np.unique`` calls, CLASS being C1 for popcount M and C0 otherwise;
    each distinct ``<TAB>RE<TAB>IM<TAB>CLASS<LF>`` tail is formatted once,
    ``np.strings.add`` appends to each bit field its tail, and the NUL
    padding of the shorter lines is dropped from the joined bytes.
    """
    width = matrix.width
    M = (width + 1) // 2

    def lines(lo, hi):
        part = matrix.coefficients[lo:hi]
        values, inverse = np.unique(np.concatenate([part.real, part.imag]), return_inverse=True)
        texts = [float17(v) for v in values.tolist()]
        codes = (inverse[: hi - lo] * values.size + inverse[hi - lo :]) * 2
        one = np.bitwise_count(matrix.indices[lo:hi]) == M
        keys, tail_of = np.unique(codes + one, return_inverse=True)
        tails = np.array([
            f"\t{texts[key // 2 // values.size]}\t{texts[key // 2 % values.size]}"
            f"\tC{key % 2}\n".encode("ascii")
            for key in keys.tolist()
        ])
        bits = _bit_rows(matrix.indices[lo:hi], width)[:, :width].copy().view(f"S{width}")
        return np.strings.add(bits[:, 0], tails[tail_of]).tobytes().replace(b"\0", b"")

    _write_rows(path, len(matrix), lines)


def _line_problem(line: bytes, width: int, prev_bits: str | None):
    """What is wrong with one GMMatrix line, or None; checks in grammar order."""
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError:
        return "non-ASCII byte"
    fields = text.split("\t")
    if len(fields) != 4:
        return "expected 4 tab-separated fields"
    bits, re_text, im_text, cls_text = fields
    if not bits or any(ch not in "01" for ch in bits):
        return f"bad bitstring {bits!r}"
    if len(bits) != width:
        return f"expected {width} bits, got {len(bits)}"
    if prev_bits is not None and bits <= prev_bits:
        return f"bitstring {bits} does not follow {prev_bits} (need sorted, unique)"
    try:
        re, im = float(re_text), float(im_text)
    except ValueError:
        return f"unparseable coefficient {re_text!r}/{im_text!r}"
    if not (math.isfinite(re) and math.isfinite(im)):
        return f"non-finite coefficient {re_text!r}/{im_text!r}"
    if cls_text not in ("C0", "C1"):
        return f"unknown class {cls_text!r}"
    M, ones = (width + 1) // 2, bits.count("1")
    if ones not in (M - 1, M):
        return f"popcount {ones} is in neither parity class of M={M}"
    if cls_text != f"C{ones - M + 1}":
        return f"class {cls_text} contradicts popcount {ones} of M={M}"
    return None


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _tail(text: bytes) -> tuple[complex, int]:
    """RE + IM j and class of the ``RE<TAB>IM<TAB>CLASS`` tail of a line:
    0 for C0, 1 for C1 and 2 for a tail that :func:`_line_problem` rejects
    (a non-ASCII byte, a field count, a number that is unparseable or not
    finite, an unknown class)."""
    try:
        re_text, im_text, cls_text = text.decode("ascii").split("\t")
        re, im = float(re_text), float(im_text)
    except ValueError:  # UnicodeDecodeError and an unpacking error included
        return 0j, 2
    if not (math.isfinite(re) and math.isfinite(im)):
        return 0j, 2
    return complex(re, im), {"C0": 0, "C1": 1}.get(cls_text, 2)


class _Codes(dict):
    """Code of each distinct key: its rank in order of first lookup."""

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


def _line_blocks(handle):
    """The bytes of ``handle`` in blocks of whole lines, each about
    ``READ_BLOCK`` bytes and ending in LF; a last line without one gets it."""
    while block := handle.read(READ_BLOCK):
        if not block.endswith(b"\n"):
            block += handle.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
        yield block


def _check_block(path, data: bytes, lineno: int, width: int, prev):
    """Indices and coefficients of one block of whole GMMatrix lines of
    ``width`` bits.

    ``lineno`` lines come before the block, the last with basis index
    ``prev`` (None for the first block).  The array checks flag the earliest
    bad line, which :func:`_line_problem` then words.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _LF)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # A good line has its first TAB exactly ``width`` bytes in.  A line too
    # short for that is clipped to its own LF, so a TAB of a later line
    # cannot stand in for it.
    at = np.minimum(starts + width, ends)
    bad = _first(buf[at] != _TAB)
    if bad:
        # With that TAB made an LF, one split of the lines before ``bad``
        # gives BITS, RE<TAB>IM<TAB>CLASS, BITS, ..., each BITS ``width`` bytes.
        lined = buf[: ends[bad - 1]].copy()
        lined[at[:bad]] = _LF
        pieces = lined.tobytes().split(b"\n")
        digits = np.frombuffer(b"".join(pieces[::2]), dtype=np.uint8) - _ZERO
        line_bad = (digits > 1).reshape(bad, width).any(axis=1)
        indices = np.zeros(bad, dtype=np.int64)
        for column in digits.reshape(bad, width).T:
            indices <<= 1
            indices |= column
        line_bad[1:] |= indices[1:] <= indices[:-1]
        if prev is not None:
            line_bad[0] |= indices[0] <= prev
        # A stage written from a few distinct doubles repeats a few tails on
        # every line: each distinct one is parsed once, in code order.
        tails = _Codes()
        codes = np.fromiter(map(tails.__getitem__, pieces[1::2]), np.intp, bad)
        values, classes = zip(*map(_tail, tails))
        coefficients = np.array(values, dtype=np.complex128)[codes]
        classes = np.array(classes, dtype=np.int64)[codes]
        M = (width + 1) // 2
        line_bad |= (classes > 1) | (np.bitwise_count(indices) != M - 1 + classes)
        bad = _first(line_bad)

    if bad < ends.size:
        if bad:
            prev = int(indices[bad - 1])
        problem = _line_problem(
            data[starts[bad] : ends[bad]],
            width,
            None if prev is None else format(prev, f"0{width}b"),
        )
        if problem is None:
            raise InternalConsistencyError(
                f"{path}:{lineno + bad + 1}: array checks reject a line the grammar accepts"
            )
        raise StageParseError(path, lineno + bad + 1, problem)
    return indices, coefficients


def read_gm_matrix(path, M: int, parity_class: int) -> GMMatrix:
    """The records of class C{parity_class} of the GMMatrix stage of M
    clones, checked to be the cloner's.

    The register guard (:func:`~gmclone.builder.check_register`) and the
    class, 0 or 1, are checked before the file is opened.  Every line is
    ``BITS<TAB>RE<TAB>IM<TAB>CLASS``: BITS of width 2M-1, strictly
    increasing down the file; RE and IM finite; CLASS ``C0`` for popcount
    M-1 and ``C1`` for popcount M.  Only LF ends a line, and a last line
    without one still counts.  The records of both classes are held to the
    closed form of :func:`assign_coefficients` as their block is read, their
    count is checked at the end, and only the records of the class asked
    for are kept.  A line error anywhere comes first, naming the earliest
    bad line with the first check it fails in :func:`_line_problem`; then a
    count error; then a coefficient error, which names the earliest record
    more than ``STAGE_ATOL`` from its amplitude.

    The file is read through one open handle, ``READ_BLOCK`` bytes of whole
    lines at a time; only the columns kept of the lines read so far grow
    with it.
    """
    check_register(M)
    if parity_class not in (0, 1):
        raise DomainError(f"a class read needs class 0 or 1, not {parity_class!r}")
    path = Path(path)
    width, lineno, prev = 2 * M - 1, 0, None
    off_error = None  # the error naming the earliest record off, if any
    columns = ([np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.complex128)])
    with path.open("rb") as handle:
        for data in _line_blocks(handle):
            block = _check_block(path, data, lineno, width, prev)
            indices, coefficients = block
            if off_error is None:
                closed = _basis_amplitudes(M, indices)
                off = np.abs(coefficients - closed)
                at = _first(~(off <= STAGE_ATOL))  # NaN counts as off
                if at < off.size:
                    off_error = (
                        f"{path}:{lineno + at + 1}: coefficient is {off[at]:.3g} "
                        f"from the cloner's amplitude {float17(closed[at])} "
                        f"(tolerance {STAGE_ATOL:g})"
                    )
            keep = np.bitwise_count(indices) == M - 1 + parity_class
            lineno += indices.size
            prev = int(indices[-1])
            for column, part in zip(columns, block):
                column.append(part[keep])
    expected = 2 * math.comb(width, M)
    if lineno != expected:
        raise InternalConsistencyError(
            f"{path}: {lineno} records, but the cloner of M={M} has {expected} support kets"
        )
    if off_error is not None:
        raise InternalConsistencyError(off_error)
    joined = []
    for column in columns:  # one column's blocks and copy alive at a time
        joined.append(np.concatenate(column))
        column.clear()
    return GMMatrix(width, *joined)


def run_pipeline(M: int, out_dir) -> GMMatrix:
    """Run all three stages, persist them under ``out_dir`` as
    ``FULL_STAGE_NAME``, ``GM_STAGE_NAME`` and ``MATRIX_STAGE_NAME``, and
    return the GMMatrix stage."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix = assign_coefficients(M)
    n = matrix.width
    # The low bits of a chunk of FullBitString lines are those of every
    # chunk (CHUNK_ROWS is a power of two), and its high bits are constant.
    low = min(n, CHUNK_ROWS.bit_length() - 1)
    block = _bit_rows(np.arange(1 << low, dtype=np.int64), n)

    def full_lines(lo, hi):
        block[:, : n - low] = _bit_rows(np.array([lo >> low]), n - low)[:, :-1]
        return block.tobytes()

    _write_rows(out_dir / FULL_STAGE_NAME, 2**n, full_lines)
    _write_rows(out_dir / GM_STAGE_NAME, len(matrix), lambda lo, hi: _bit_rows(
        matrix.indices[lo:hi], n).tobytes())
    write_gm_matrix(out_dir / MATRIX_STAGE_NAME, matrix)
    return matrix
