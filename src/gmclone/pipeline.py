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
bit, so fixed-width lexicographic order is numeric order).  The register is
taken in runs of ``2**CHUNK_BITS`` indices that share their high bits, and
the GMMatrix bytes of each run come from one generator,
:func:`_stage_runs`.  The support is the two popcount classes M-1 and M: a
support string of the clone of |0> has j ones in the clone sector and
M-1-j in the anticlone sector for some j, and conversely any split of M-1
ones is realized.  A record's class b is the popcount of its index minus
M-1, its sector j a popcount of one half, and its line the bit field
followed by one of the 2M ``RE<TAB>IM<TAB>CLASS`` tails of (b, j), each
formatted once.  The support, classes and sectors of a run depend on its
high bits only through two popcounts, so the lines of the first run of
each such key are built from its indices (:func:`_bit_rows`,
:func:`_lines`) and kept as the key's template.  Every later run of the
key stamps its own high bits into the template in place, writing only the
columns that differ from the run the template held before, so no
run-sized buffer is made per run for GMMatrix and nothing is built per
line.  ``prepare`` (:func:`run_pipeline`) writes the three stages from
that generator in one pass through three open files: FullBitString from
one block of the bit rows of the low bits, whose high columns it stamps by
the same rule; GMBitString, the support rows of that block; and GMMatrix,
the run's stamped lines.
:func:`read_gm_matrix` reads the stage of M clones, width 2M-1, for one
parity class.  It compares the file with the same generator's bytes, one
run at a time.  A run that matches gives the records of the class read
from its template's columns, taken once per key: a ``prepare``-written
stage is checked without parsing a line.  A run that differs is parsed
over the lines that start with its high bits, and so is any line past the
last run: line by line, by :func:`_parse_line`, the one GMMatrix line
grammar, and held to the closed form of :func:`_sector_amplitudes`.  Only
the records of the class asked for are kept.  So no temporary grows with
the register, and none of stage I/O grows with the file beyond one run,
the templates in use and the columns it reads.  A class is its bit b
everywhere, as the ``basis:b`` input of ``compile`` names it.  The
package writes the stages and reads only GMMatrix; the string generators,
the per-line readers and writers, and the table of both classes that the
tests use live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
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

# A run is the 2**CHUNK_BITS register indices that share all but their
# CHUNK_BITS low bits: the stage lines ``prepare`` writes, and the reader
# compares, at a time.  At most 16, as a template keeps its low bits in
# uint16.
CHUNK_BITS = 14
# Largest distance of a stage coefficient from its closed form that compile
# accepts.
STAGE_ATOL = 1e-12

FULL_STAGE_NAME = "FullBitString"
GM_STAGE_NAME = "GMBitString"
MATRIX_STAGE_NAME = "GMMatrix"

_LF, _ZERO = b"\n0"


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


def _high_bits(h: int, high: int) -> bytes:
    """The ASCII bits of a run's high bits ``h``: exactly ``high`` bytes,
    none when ``high`` is 0."""
    return format((1 << high) | h, "b")[1:].encode("ascii")


def _sector_amplitudes(M: int) -> np.ndarray:
    """The amplitude of a support ket of sector j, for j = 0..M-1.

    Each support ket x|y (clone half x, anticlone half y) lies in exactly
    one sector j of its class's cloner output, so its amplitude is the one
    term ``gamma_j * S^M_j(q)[x] * S^(M-1)_j(anticlone(q))[y]`` of the sum
    over sectors, with no ket and no dense state built.  For the clone of
    |0> the clone sector's perp factors are the ones, so j = popcount(x);
    for the clone of |1> they are the zeros, so j = M - popcount(x)
    (:func:`_sectors`).  Either way the sector kets of a basis input are
    equal-weight sums over placements, with the sign (-1)^j of perp(|0>) =
    -|1> on one side: the term is ``gamma_j * ((-1)^j / sqrt(C(M, j)) *
    (1 / sqrt(C(M-1, j))))``.
    """
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

def _lines(rows: np.ndarray, tails: np.ndarray, tail_of: np.ndarray) -> bytes:
    """The GMMatrix lines of the bit rows ``rows`` of :func:`_bit_rows`: each
    bit field, viewed as an ``S{width}`` string, followed by its tail
    ``tails[tail_of]``.  ``np.strings.add`` appends the tails, and the NUL
    padding of the shorter lines is dropped from the joined bytes."""
    width = rows.shape[1] - 1
    bits = rows[:, :width].copy().view(f"S{width}")
    return np.strings.add(bits[:, 0], tails[tail_of]).tobytes().replace(b"\0", b"")


def _stage_runs(M: int):
    """The GMMatrix stage of M clones, one run of ``2**CHUNK_BITS`` register
    indices at a time: ``(key, base, offsets, one, j, lines)``, the key of
    the run's template, the run's first register index, and the template's
    uint16 offsets from it of the support indices in the run (those of
    popcount M-1 or M), their class bits, sectors j and GMMatrix lines (a
    bytearray).

    The register index of a run's line is its high bits h, the same on
    every line of the run, followed by low bits l.  Whether l is in the
    support, its class and its sector depend on h only through the key
    ``(popcount(h), popcount of h's bits in the clone half)``, so the lines
    of two runs with one key differ only in their first columns, the bits
    of h.  The first run of each key is built from its indices: its bit rows
    (:func:`_bit_rows`), and from them its lines (:func:`_lines`), with the
    2M ``<TAB>RE<TAB>IM<TAB>CLASS<LF>`` tails of (class b, sector j)
    formatted once: the amplitude of sector j, IM 0 and C{b}.  Its lines are
    kept as the key's template, with their starts and the high bits they
    hold.  For every later run of the key, the template's lines are stamped
    in place: only the high columns where h differs from the bits they hold
    are written, at the line starts.  So ``lines`` is valid until the next
    step of the generator, which may overwrite it.  A template is dropped
    after the last run of its key.
    """
    width = 2 * M - 1
    low = min(width, CHUNK_BITS)
    high = width - low
    tails = np.array([
        f"\t{float17(a)}\t{float17(0.0)}\tC{b}\n".encode("ascii")
        for b in (0, 1) for a in _sector_amplitudes(M).tolist()
    ])
    lengths = width + np.strings.str_len(tails)  # of a line, by its tail
    low_ones = np.bitwise_count(np.arange(1 << low))

    def key(h):
        return h.bit_count(), ((h << low) >> (M - 1)).bit_count()

    last = {key(h): h for h in range(1 << high)}
    templates = {}
    for h in range(1 << high):
        k = key(h)
        bits = _high_bits(h, high)
        if k in templates:
            offsets, one, j, lines, starts, held = templates[k]
            view = np.frombuffer(lines, dtype=np.uint8)
            for column, (bit, was) in enumerate(zip(bits, held)):
                if bit != was:
                    view[starts + column] = bit
        else:
            ones = low_ones + k[0]
            offsets = np.flatnonzero((ones == M - 1) | (ones == M)).astype(np.uint16)
            run = offsets + np.int64(h << low)
            one = np.bitwise_count(run) == M
            j = _sectors(M, run).astype(np.uint8)
            tail_of = j + M * one
            lines = bytearray(_lines(_bit_rows(run, width), tails, tail_of))
            starts = np.cumsum(lengths[tail_of]) - lengths[tail_of]
        templates[k] = offsets, one, j, lines, starts, bits
        if last[k] == h:
            del templates[k]
        yield k, h << low, offsets, one, j, lines


def _parse_line(line: bytes, width: int, prev_bits: str | None):
    """The bit field and coefficient of one GMMatrix line of ``width`` bits
    that follows the bit field ``prev_bits`` (None for the first line), or
    the text of the first check it fails, in grammar order."""
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError:
        return "non-ASCII byte"
    fields = text.split("\t")
    if len(fields) != 4:
        return "expected 4 tab-separated fields"
    bits, re_text, im_text, cls_text = fields
    if not bits or bits.strip("01"):
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
    return bits, complex(re, im)


def _parse_lines(path, lines, lineno: int, M: int, prev: int | None):
    """The indices and coefficients of the GMMatrix ``lines`` of M clones,
    each checked by :func:`_parse_line`, and the error naming the first of
    them more than ``STAGE_ATOL`` from its closed form, or None.

    ``lineno`` lines come before them, the last with basis index ``prev``
    (None if there is none).  A line that fails the grammar raises
    :class:`StageParseError` on its own line number.
    """
    width = 2 * M - 1
    prev_bits = None if prev is None else format(prev, f"0{width}b")
    indices, values = [], []
    for line in lines:
        parsed = _parse_line(line.removesuffix(b"\n"), width, prev_bits)
        if isinstance(parsed, str):
            raise StageParseError(path, lineno + len(indices) + 1, parsed)
        prev_bits, value = parsed
        indices.append(int(prev_bits, 2))
        values.append(value)
    indices = np.array(indices, dtype=np.int64)
    coefficients = np.array(values, dtype=np.complex128)
    closed = _sector_amplitudes(M)[_sectors(M, indices)]
    off = np.abs(coefficients - closed)
    at = np.flatnonzero(off > STAGE_ATOL)
    if not at.size:
        return indices, coefficients, None
    at = at[0]
    return indices, coefficients, (
        f"{path}:{lineno + at + 1}: coefficient is {off[at]:.3g} "
        f"from the cloner's amplitude {float17(closed[at])} "
        f"(tolerance {STAGE_ATOL:g})"
    )


def _prefixed(handle, prefix: bytes):
    """The lines at ``handle`` up to the first that does not start with
    ``prefix``, which is left unread."""
    for line in handle:
        if not line.startswith(prefix):
            handle.seek(-len(line), os.SEEK_CUR)
            return
        yield line


def read_gm_matrix(path, M: int, parity_class: int) -> GMMatrix:
    """The records of class C{parity_class} of the GMMatrix stage of M
    clones, checked to be the cloner's.

    The register guard (:func:`~gmclone.builder.check_register`) and the
    class, 0 or 1, are checked before the file is opened.  Every line is
    ``BITS<TAB>RE<TAB>IM<TAB>CLASS``: BITS of width 2M-1, strictly
    increasing down the file; RE and IM finite; CLASS ``C0`` for popcount
    M-1 and ``C1`` for popcount M.  Only LF ends a line, and a last line
    without one still counts.  The records of both classes are held to the
    closed form of :func:`_sector_amplitudes`, their count is checked at
    the end, and only the records of the class asked for are kept.  A line
    error anywhere comes first, naming the earliest bad line with the first
    check it fails in :func:`_parse_line`; then a count error; then a
    coefficient error, which names the earliest record more than
    ``STAGE_ATOL`` from its amplitude.

    The file is read through one open handle, one run of
    :func:`_stage_runs` at a time and then the lines past the last run.
    Each run's bytes are compared with its lines from the generator, the
    bytes ``prepare`` writes, before its next step, which may overwrite
    them.  A run that matches is the cloner's, so none of its lines is
    parsed: its records of the class are its template's int64 low offsets
    and coefficients of the class, taken once per key, with the run's first
    index added to the offsets.  A parse would give the same indices and
    the same doubles, as ``float17`` round-trips and IM is 0.  The
    coefficients are one array per key, kept for each of its runs, so they
    are read and never written.  Any other run is parsed line by line, as
    far as its lines start with the run's high bits, which begin each of
    its lines, so the next run is compared at its own first line even when
    a line was deleted or inserted; the lines past the last run are parsed
    too.  The records parsed for a run lie in it, below the first index of
    every later run.  One count of the lines read so far is both the line
    number a parse starts after and, at the end, the record count, and the
    last index read is carried into the next parse.  So the errors, their
    order and their line numbers do not depend on which runs matched.  Only
    the columns kept of the runs read so far grow with the file.
    """
    check_register(M)
    if parity_class not in (0, 1):
        raise DomainError(f"a class read needs class 0 or 1, not {parity_class!r}")
    path = Path(path)
    width = 2 * M - 1
    high = width - min(width, CHUNK_BITS)
    amplitudes = _sector_amplitudes(M).astype(np.complex128)
    kept = {}  # by template key: the low offsets and coefficients of the class
    count, prev, off_error = 0, None, None  # lines read; the last index; the earliest off
    columns = ([np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.complex128)])

    def parse(lines):
        nonlocal count, prev, off_error
        indices, coefficients, off = _parse_lines(path, lines, count, M, prev)
        count += indices.size
        prev = int(indices[-1]) if indices.size else prev
        off_error = off_error or off
        keep = np.bitwise_count(indices) == M - 1 + parity_class
        columns[0].append(indices[keep])
        columns[1].append(coefficients[keep])

    with path.open("rb") as handle:
        for key, base, offsets, one, j, lines in _stage_runs(M):
            data = handle.read(len(lines))
            if data != lines:
                handle.seek(-len(data), os.SEEK_CUR)
                parse(_prefixed(handle, lines[:high]))
                continue
            if key not in kept:
                keep = one == parity_class
                kept[key] = offsets[keep].astype(np.int64), amplitudes[j[keep]]
            low, coefficients = kept[key]
            columns[0].append(low + base)
            columns[1].append(coefficients)
            count += offsets.size
            prev = base + int(offsets[-1]) if offsets.size else prev
        parse(handle)
    del kept, data, lines  # the last run and the per-key columns: not held at the join
    expected = 2 * math.comb(width, M)
    if count != expected:
        raise InternalConsistencyError(
            f"{path}: {count} records, but the cloner of M={M} has {expected} support kets"
        )
    if off_error is not None:
        raise InternalConsistencyError(off_error)
    joined = []
    for column in columns:  # one column's runs and copy alive at a time
        joined.append(np.concatenate(column))
        column.clear()
    return GMMatrix(width, *joined)


def run_pipeline(M: int, out_dir) -> tuple[int, int]:
    """Run all three stages, persist them under ``out_dir`` as
    ``FULL_STAGE_NAME``, ``GM_STAGE_NAME`` and ``MATRIX_STAGE_NAME``, and
    return the record counts of classes C0 and C1.

    The three stages are written in one pass over :func:`_stage_runs`,
    through three open files.  FullBitString's run is one block of the
    ``(2**CHUNK_BITS, n+1)`` bit rows of the low bits, whose high columns
    are stamped only where the run's high bits differ from the ones they
    hold, as the templates are.  GMBitString's run is the block's support
    rows, ``np.take`` of the run's offsets, and GMMatrix's the run's lines.
    The counts are checked to make up the whole support, 2 C(2M-1, M) kets.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    check_register(M)
    n = 2 * M - 1
    low = min(n, CHUNK_BITS)
    block = _bit_rows(np.arange(1 << low, dtype=np.int64), n)
    held = _high_bits(0, n - low)  # the high bits the block holds
    counts = [0, 0]
    with (out_dir / FULL_STAGE_NAME).open("wb") as full, \
            (out_dir / GM_STAGE_NAME).open("wb") as gm, \
            (out_dir / MATRIX_STAGE_NAME).open("wb") as matrix:
        for _, base, offsets, one, _, lines in _stage_runs(M):
            bits = _high_bits(base >> low, n - low)
            for column, (bit, was) in enumerate(zip(bits, held)):
                if bit != was:
                    block[:, column] = bit
            held = bits
            full.write(block)
            gm.write(np.take(block, offsets, axis=0))
            matrix.write(lines)
            ones = int(np.count_nonzero(one))
            counts[0] += offsets.size - ones
            counts[1] += ones
    # Both classes hold C(2M-1, M) = C(2M-1, M-1) kets.
    total, expected = sum(counts), 2 * math.comb(n, M)
    if total != expected:
        raise InternalConsistencyError(
            f"popcount classes of M={M} hold {total} support indices, "
            f"expected {expected}, half with popcount M-1 and half with M"
        )
    return counts[0], counts[1]
