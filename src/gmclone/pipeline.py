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
``(rows, n+1)`` uint8 ASCII matrices, unpacked from the big-endian bytes of
the indices and written with ``tobytes()`` (FullBitString refills only the
high columns of one block per chunk), and the GMMatrix lines come from one
formatter, :func:`_lines`, which appends a tail formatted once per distinct
``RE<TAB>IM<TAB>CLASS`` to the bit rows viewed as strings.
:func:`read_gm_matrix` reads the stage of M clones, width 2M-1, for one
parity class.  It first compares the file with the bytes ``prepare`` writes
for M, regenerated by that formatter one run of the support at a time, and
keeps the records of a run that matches from the regenerated columns: a
``prepare``-written stage is checked without parsing a line.  From the
first run that differs it parses the rest of the file, a block of lines at
once with array masks over its raw bytes: each bit field, which a good line
has exactly ``width`` bytes long, is read column by column off the line
starts, and its ``RE<TAB>IM<TAB>CLASS`` tail is looked up in a dict, so
each distinct tail is parsed once.  Each parsed block is held to the
closed form of :func:`assign_coefficients` in the same pass as the line
checks, and only the records of the class asked for are kept.
Every writer goes through one open file, ``CHUNK_ROWS`` lines at a time; the
reader goes through one open file, a run of lines or ``READ_BLOCK`` bytes of
whole lines at a time; and the support is kept from a scan of the
2^(2M-1) register in runs of ``CHUNK_ROWS`` indices (:func:`_support_runs`),
the runs the reader compares.  So no temporary grows with the register, and
none of stage I/O grows with the file beyond the columns it reads or
writes.  The per-line grammar in :func:`_line_problem` only words the error
for the first bad line.  A class is its bit b everywhere, as the
``basis:b`` input of ``compile`` names it.  The package writes the
bitstring stages and reads only GMMatrix; the string generators and the
per-line bitstring reader that the tests use live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
import os
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
    used = (width + 7) // 8  # low bytes of each big-endian index that hold bits
    big = indices.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - used :]
    rows = np.empty((indices.size, width + 1), dtype=np.uint8)
    np.add(np.unpackbits(big, axis=1)[:, 8 * used - width :], _ZERO, out=rows[:, :width])
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


def _support_runs(M: int):
    """The support indices in each run of ``CHUNK_ROWS`` register indices,
    run by run: those of popcount M-1 or M, sorted."""
    for lo, hi in _row_chunks(2 ** (2 * M - 1)):
        run = np.arange(lo, hi, dtype=np.int64)
        ones = np.bitwise_count(run)
        yield run[(ones == M - 1) | (ones == M)]


def _support(M: int) -> tuple[int, np.ndarray]:
    """Width and sorted support indices of both classes.

    The supports are the full popcount classes M-1 and M: a support string
    of the clone of |0> has j ones in the clone sector and M-1-j in the
    anticlone sector for some j, and conversely any split of M-1 ones is
    realized.  They are kept from a scan of the register, one run of
    ``CHUNK_ROWS`` indices at a time (:func:`_support_runs`), so each comes
    out sorted.
    """
    check_register(M)
    n = 2 * M - 1
    support = np.concatenate(list(_support_runs(M)))
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
    return GMMatrix(n, support, _sector_amplitudes(M)[_sectors(M, support)].astype(np.complex128))


def _sector_amplitudes(M: int) -> np.ndarray:
    """The closed form of :func:`assign_coefficients`: the amplitude of a
    support ket of sector j, for j = 0..M-1."""
    sectors = range(M)
    weights = np.array([gamma(M, k) for k in sectors])
    clone = np.array([(-1.0) ** k / math.sqrt(math.comb(M, k)) for k in sectors])
    anti = np.array([1.0 / math.sqrt(math.comb(M - 1, k)) for k in sectors])
    return weights * (clone * anti)


def _sectors(M: int, indices: np.ndarray) -> np.ndarray:
    """The sector j of each support ket of ``indices``, in the class its
    popcount gives."""
    ones = np.bitwise_count(indices >> (M - 1))
    return np.where(np.bitwise_count(indices) == M, M - ones, ones)


# ---------------------------------------------------------------------------
# stage file I/O
# ---------------------------------------------------------------------------

def _tails(keys) -> np.ndarray:
    """The ``<TAB>RE<TAB>IM<TAB>CLASS<LF>`` line tails of (RE text, IM text,
    class bit) ``keys``, as an ``S`` array."""
    return np.array([f"\t{re}\t{im}\tC{b}\n".encode("ascii") for re, im, b in keys])


def _lines(indices: np.ndarray, width: int, tails: np.ndarray, tail_of: np.ndarray) -> bytes:
    """The GMMatrix lines of ``indices``: each bit field, its ``(rows,
    width)`` uint8 row viewed as an ``S{width}`` string, followed by its
    tail ``tails[tail_of]``.  ``np.strings.add`` appends the tails, and the
    NUL padding of the shorter lines is dropped from the joined bytes."""
    bits = _bit_rows(indices, width)[:, :width].copy().view(f"S{width}")
    return np.strings.add(bits[:, 0], tails[tail_of]).tobytes().replace(b"\0", b"")


def write_gm_matrix(path, matrix: GMMatrix) -> None:
    """Write ``matrix`` as a GMMatrix stage, ``CHUNK_ROWS`` lines at a time.

    Nothing is built per line.  A chunk's distinct doubles, and then its
    distinct (RE, IM, CLASS) codes, come from two 1-D ``np.unique`` calls,
    CLASS being C1 for popcount M and C0 otherwise; each distinct tail is
    formatted once, and :func:`_lines` appends them to the bit fields.
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
        tails = _tails(
            (texts[key // 2 // values.size], texts[key // 2 % values.size], key % 2)
            for key in keys.tolist()
        )
        return _lines(matrix.indices[lo:hi], width, tails, tail_of)

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
        # The lines before ``bad`` have their BITS field ``width`` bytes
        # long, so bit k of each is the byte k past its start.
        indices = np.zeros(bad, dtype=np.int64)
        line_bad = np.zeros(bad, dtype=bool)
        for k in range(width):
            digits = buf[starts[:bad] + k] - _ZERO
            line_bad |= digits > 1
            indices <<= 1
            indices |= digits
        line_bad[1:] |= indices[1:] <= indices[:-1]
        if prev is not None:
            line_bad[0] |= indices[0] <= prev
        # A stage written from a few distinct doubles repeats a few tails on
        # every line: each distinct one is parsed once, in code order.
        tails = _Codes()
        tail = operator.itemgetter(slice(width + 1, None))
        lines = data.split(b"\n", bad)
        codes = np.fromiter(map(tails.__getitem__, map(tail, lines)), np.intp, bad)
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


def _read_prepared_runs(handle, M: int, parity_class: int, columns) -> tuple[int, int | None]:
    """Compare ``handle`` with the stage ``prepare`` writes for M, one run of
    :func:`_support_runs` at a time, and append to ``columns`` the records
    of class C{parity_class} of each run whose bytes match.

    A run's lines are formatted by the writer's :func:`_lines`, with the 2M
    tails of (class b, sector j) formatted once.  Its records are kept from
    the regenerated columns: parsing its lines would give the same indices
    and the same doubles, as ``float17`` round-trips and IM is 0.  Stops at
    the first run that differs, with ``handle`` back at its first byte.
    Returns the number of lines matched and the index of the last one, or
    None.  A function of its own, so that the temporaries of the last run
    are freed before the parse starts.
    """
    width = 2 * M - 1
    amplitudes = _sector_amplitudes(M)
    tails = _tails((float17(a), float17(0.0), b) for b in (0, 1) for a in amplitudes.tolist())
    lineno, prev = 0, None
    for run in _support_runs(M):
        one = np.bitwise_count(run) == M
        j = _sectors(M, run)
        lines = _lines(run, width, tails, j + M * one)
        data = handle.read(len(lines))
        if data != lines:
            handle.seek(-len(data), os.SEEK_CUR)
            break
        keep = one == parity_class
        columns[0].append(run[keep])
        columns[1].append(amplitudes[j[keep]].astype(np.complex128))
        lineno += run.size
        if run.size:
            prev = int(run[-1])
    return lineno, prev


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

    The file is read through one open handle.  It is first compared with
    the bytes ``prepare`` writes, one support run at a time
    (:func:`_read_prepared_runs`): the lines of a run that matches are the
    cloner's, so none is parsed.  From the first run that differs to the
    end of the file, ``READ_BLOCK`` bytes of whole lines at a time are
    parsed and checked (:func:`_check_block`), with the line number and the
    last index carried over.  So the errors, their order and their line
    numbers do not depend on where the comparison stopped.  Only the
    columns kept of the lines read so far grow with the file.
    """
    check_register(M)
    if parity_class not in (0, 1):
        raise DomainError(f"a class read needs class 0 or 1, not {parity_class!r}")
    path = Path(path)
    width = 2 * M - 1
    off_error = None  # the error naming the earliest record off, if any
    columns = ([np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.complex128)])
    with path.open("rb") as handle:
        lineno, prev = _read_prepared_runs(handle, M, parity_class, columns)
        for data in _line_blocks(handle):
            block = _check_block(path, data, lineno, width, prev)
            indices, coefficients = block
            if off_error is None:
                closed = _sector_amplitudes(M)[_sectors(M, indices)]
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
