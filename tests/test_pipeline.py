"""Tests for the bitstring pipeline stages and their file formats."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmclone import pipeline
from gmclone.errors import (
    DomainError,
    InternalConsistencyError,
    ResourceLimitError,
    StageParseError,
)
from gmclone.cli import main
from gmclone.pipeline import (
    GMMatrix,
    _line_problem,
    read_gm_matrix,
    run_pipeline,
)

from oracles import (
    assign_coefficients,
    build_gm_basis,
    check_gm_matrix,
    gen_full_bitstrings,
    gen_gm_bitstrings,
    read_bitstring_stage,
    read_stage,
    reconstruct_state,
    write_bitstring_stage,
    write_gm_matrix_lines,
)


class TestFullEnumeration:
    def test_m1(self):
        assert gen_full_bitstrings(1) == ["0", "1"]

    def test_m2(self):
        assert gen_full_bitstrings(2) == [
            "000", "001", "010", "011", "100", "101", "110", "111",
        ]

    def test_length(self):
        assert len(gen_full_bitstrings(2)) == 8

    def test_sorted_no_duplicates(self):
        full = gen_full_bitstrings(4)
        assert full == sorted(full)
        assert len(full) == len(set(full))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            gen_full_bitstrings(13)
        with pytest.raises(DomainError):
            gen_full_bitstrings(0)


class TestGMBitstrings:
    def test_m1(self):
        assert gen_gm_bitstrings(1) == ["0", "1"]

    def test_m2(self):
        assert gen_gm_bitstrings(2) == ["001", "010", "011", "100", "101", "110"]

    def test_popcounts_in_class(self):
        for bits in gen_gm_bitstrings(2):
            assert bits.count("1") in (1, 2)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_matches_builder_supports(self, M):
        n = 2 * M - 1
        expected = set()
        for bit in (0, 1):
            amps = build_gm_basis(M, bit).amplitudes
            expected |= {
                format(i, f"0{n}b")
                for i in np.nonzero(np.abs(amps) > 1e-13)[0]
            }
        assert gen_gm_bitstrings(M) == sorted(expected)

    @pytest.mark.parametrize(
        "M, chunk",
        [(M, pipeline.CHUNK_ROWS) for M in range(1, 12)]
        + [(M, chunk) for chunk in (1, 7, 64) for M in range(1, 9)],
    )
    def test_support_is_the_popcount_scan(self, monkeypatch, M, chunk):
        # Small chunks split a popcount class at the edges of the runs.
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", chunk)
        n = 2 * M - 1
        support = np.concatenate(list(pipeline._support_runs(M)))
        counts = np.bitwise_count(np.arange(2**n, dtype=np.int64))
        expected = np.flatnonzero((counts == M - 1) | (counts == M))
        assert support.dtype == np.int64
        np.testing.assert_array_equal(support, expected)

    @pytest.mark.parametrize("M", range(1, 11))
    def test_class_sizes_match_binomials(self, M):
        strings = gen_gm_bitstrings(M)
        count0 = sum(1 for s in strings if s.count("1") == M - 1)
        count1 = len(strings) - count0
        expected = sum(math.comb(M, j) * math.comb(M - 1, j) for j in range(M))
        assert count0 == expected
        assert count1 == expected


def _classify(bits: str, cls: str = "C0"):
    """What the GMMatrix grammar says of ``bits`` read with class ``cls``."""
    return _line_problem(f"{bits}\t0.5\t0\t{cls}".encode(), 3, None)


class TestParityClassify:
    """The class rule, popcount M - 1 + b for class C{b}: as the GMMatrix
    grammar words it for a line of width 3, and on every support string."""

    def test_clone_of_zero(self):
        assert _classify("001", "C0") is None
        assert _classify("001", "C1") == "class C1 contradicts popcount 1 of M=2"

    def test_clone_of_one(self):
        assert _classify("110", "C1") is None
        assert _classify("110", "C0") == "class C0 contradicts popcount 2 of M=2"

    def test_not_gm(self):
        assert _classify("000") == "popcount 0 is in neither parity class of M=2"
        assert _classify("111") == "popcount 3 is in neither parity class of M=2"

    def test_length_mismatch(self):
        assert _classify("00") == "expected 3 bits, got 2"

    def test_bad_character(self):
        assert _classify("0x1") == "bad bitstring '0x1'"

    @pytest.mark.parametrize("M", range(1, 11))
    def test_partitions_all_support_strings(self, M):
        for bits in gen_gm_bitstrings(M):
            assert bits.count("1") in (M - 1, M)


class TestAssignCoefficients:
    def test_m1_records(self):
        matrix = assign_coefficients(1)
        assert matrix.width == 1
        assert matrix.indices.tolist() == [0b0, 0b1]
        assert np.all(np.abs(matrix.coefficients - 1.0) < 1e-15)

    def test_m2_known_amplitudes(self):
        # magnitudes from the equal-weight expansion; signs follow the
        # builder's orthogonal-complement convention ((-1)^j per sector)
        matrix = assign_coefficients(2)
        row = {index: k for k, index in enumerate(matrix.indices.tolist())}
        assert abs(matrix.coefficients[row[0b001]] - math.sqrt(2 / 3)) < 1e-14
        assert abs(abs(matrix.coefficients[row[0b010]]) - 1 / math.sqrt(6)) < 1e-14

    def test_records_sorted_by_bits(self):
        indices = assign_coefficients(3).indices
        assert np.all(np.diff(indices) > 0)

    def test_coefficients_equal_builder_amplitudes(self):
        amps0 = build_gm_basis(3, 0).amplitudes
        amps1 = build_gm_basis(3, 1).amplitudes
        matrix = assign_coefficients(3)
        source = np.where(
            np.bitwise_count(matrix.indices) == 3, amps1[matrix.indices], amps0[matrix.indices]
        )
        assert np.all(np.abs(matrix.coefficients - source) < 1e-15)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_reconstruction_matches_builder(self, M):
        records = assign_coefficients(M)
        for bit in (0, 1):
            rebuilt = reconstruct_state(records, M, bit)
            np.testing.assert_allclose(
                rebuilt.amplitudes,
                build_gm_basis(M, bit).amplitudes,
                atol=1e-12,
            )


class TestStageFiles:
    def test_bitstring_roundtrip(self, tmp_path):
        path = tmp_path / "FullBitString"
        strings = gen_full_bitstrings(2)
        write_bitstring_stage(path, strings)
        assert read_bitstring_stage(path) == strings

    def test_lf_terminated_sorted(self, tmp_path):
        path = tmp_path / "GMBitString"
        write_bitstring_stage(path, gen_gm_bitstrings(2))
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == len(set(lines))

    def test_short_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "FullBitString"
        path.write_text("000\n00\n010\n")
        with pytest.raises(StageParseError) as err:
            read_bitstring_stage(path, expected_length=3)
        assert err.value.line_number == 2

    def test_bad_character_rejected(self, tmp_path):
        path = tmp_path / "FullBitString"
        path.write_text("000\n0a0\n")
        with pytest.raises(StageParseError):
            read_bitstring_stage(path)

    @pytest.mark.parametrize(
        "content, line, message",
        [
            (b"001\r\n010\r\n", 1, "bad bitstring '001\\r'"),
            (b"001\n010\r\n", 2, "bad bitstring '010\\r'"),
            (b"001\n010\n001\n", 3, "001 does not follow 010"),
            (b"010\n001\n001\n", 2, "001 does not follow 010"),
            (b"001\n001\n", 2, "001 does not follow 001"),
        ],
    )
    def test_bitstring_stage_invariants(self, tmp_path, content, line, message):
        path = tmp_path / "GMBitString"
        path.write_bytes(content)
        with pytest.raises(StageParseError) as err:
            read_bitstring_stage(path)
        assert err.value.line_number == line
        assert message in str(err.value)

    def test_bitstring_stage_last_line_without_lf(self, tmp_path):
        path = tmp_path / "GMBitString"
        path.write_bytes(b"001\n010")
        assert read_bitstring_stage(path) == ["001", "010"]

    def test_matrix_roundtrip_exact(self, tmp_path):
        path = tmp_path / "GMMatrix"
        records = assign_coefficients(2)
        run_pipeline(2, tmp_path)
        loaded = read_stage(path, 2)
        assert len(loaded) == 6
        assert loaded.width == records.width
        assert loaded.indices.tolist() == records.indices.tolist()
        # 17 significant digits round-trip doubles exactly
        assert loaded.coefficients.tolist() == records.coefficients.tolist()

    def test_matrix_rewrite_byte_identical(self, tmp_path):
        path1 = tmp_path / "GMMatrix"
        path2 = tmp_path / "GMMatrix2"
        run_pipeline(3, tmp_path)
        write_gm_matrix_lines(path2, read_stage(path1, 3))
        assert path1.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize(
        "line",
        [
            "001\t0.5\t0\tC2",          # unknown class
            "001\t0.5\tC0",             # missing field
            "001\tnope\t0\tC0",         # unparseable float
            "021\t0.5\t0\tC0",          # bad bitstring
        ],
    )
    def test_matrix_bad_lines(self, tmp_path, line):
        path = tmp_path / "GMMatrix"
        path.write_text("001\t0.5\t0\tC0\n" + line + "\n")
        with pytest.raises(StageParseError) as err:
            read_gm_matrix(path, 2, 0)
        assert err.value.line_number == 2

    def test_matrix_length_mismatch(self, tmp_path):
        path = tmp_path / "GMMatrix"
        path.write_text("001\t0.5\t0\tC0\n")
        with pytest.raises(StageParseError):
            read_gm_matrix(path, 3, 0)


class TestRunPipeline:
    @pytest.mark.parametrize("M, chunk", [(1, 4), (2, 4), (3, 4), (5, 8), (8, 1 << 14)])
    def test_full_stage_in_chunks_of_high_bits(self, tmp_path, monkeypatch, M, chunk):
        # Each chunk of FullBitString lines reuses one block of low bits and
        # fills its constant high bits; M = 8 has two default chunks.
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", chunk)
        run_pipeline(M, tmp_path)
        n = 2 * M - 1
        expected = "".join(format(i, f"0{n}b") + "\n" for i in range(2**n))
        assert (tmp_path / "FullBitString").read_text() == expected

    @pytest.mark.parametrize("M", range(1, 12))
    def test_prepared_stage_passes_the_cross_check(self, tmp_path, monkeypatch, M):
        per_class = math.comb(2 * M - 1, M)
        assert run_pipeline(M, tmp_path) == (per_class, per_class)
        path = tmp_path / "GMMatrix"
        # Its bytes are the ones the reader regenerates: no line is parsed.
        calls = _spy_on_check_block(monkeypatch)
        matrix = read_stage(path, M)
        assert calls == []
        check_gm_matrix(matrix, M, path)
        _assert_same(matrix, assign_coefficients(M))

    def test_produces_three_parsable_stages(self, tmp_path):
        assert run_pipeline(2, tmp_path) == (3, 3)
        assert read_bitstring_stage(tmp_path / "FullBitString") == gen_full_bitstrings(2)
        assert read_bitstring_stage(tmp_path / "GMBitString") == gen_gm_bitstrings(2)
        assert len(read_stage(tmp_path / "GMMatrix", 2)) == 6

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_pipeline(3, a_dir)
        run_pipeline(3, b_dir)
        for name in ("FullBitString", "GMBitString", "GMMatrix"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


GOOD_M2 = "001\t0.5\t0\tC0\n010\t0.5\t0\tC0\n011\t0.5\t0\tC1\n"
M3_START = "00011\t0.5\t0\tC0\n00101\t0.5\t0\tC0\n"


def _raises_on_line(path, line_number, M=2):
    with pytest.raises(StageParseError) as err:
        read_gm_matrix(path, M, 0)
    assert err.value.line_number == line_number
    return str(err.value)


class TestGMMatrixReaderSemantics:
    """Behaviour of the per-line reader the array reader must keep."""

    def test_earlier_bad_width_beats_later_field_count(self, tmp_path):
        path = tmp_path / "GMMatrix"
        path.write_text("001\t0.5\t0\tC0\n01\t0.5\t0\tC0\n011\t0.5\tC1\n")
        assert "expected 3 bits, got 2" in _raises_on_line(path, 2)

    def test_final_line_without_lf_parses(self, tmp_path):
        path = tmp_path / "GMMatrix"
        matrix = assign_coefficients(2)
        run_pipeline(2, tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        _assert_same(read_stage(path, 2), matrix)

    def test_crlf_rejected_on_line_1(self, tmp_path):
        path = tmp_path / "GMMatrix"
        path.write_bytes(GOOD_M2.replace("\n", "\r\n").encode())
        assert "unknown class 'C0\\r'" in _raises_on_line(path, 1)

    def test_expected_length_mismatch_on_line_1(self, tmp_path):
        path = tmp_path / "GMMatrix"
        path.write_text(GOOD_M2)
        message = _raises_on_line(path, 1, M=3)
        assert "expected 5 bits, got 3" in message

    def test_non_ascii_byte_rejected(self, tmp_path):
        path = tmp_path / "GMMatrix"
        path.write_bytes(GOOD_M2.encode() + "100\t0.5\t0\tC1 \n".encode())
        assert "non-ASCII" in _raises_on_line(path, 4)

    @pytest.mark.parametrize(
        "line_number, field, text, problem",
        [
            (None, None, None, None),
            # IM 0 spelled 0.0: the same table, parsed from line 1 or from
            # the run of line 16384 on
            (1, 2, b"0.0", None),
            (16384, 2, b"0.0", None),
            (16384, 1, b"x1", "unparseable coefficient"),
            (16385, 2, b"inf", "non-finite coefficient"),
            (48620, 1, b"nan", "non-finite coefficient"),
        ],
    )
    def test_coefficients_past_one_chunk(self, tmp_path, line_number, field, text, problem):
        """M = 9 has 48,620 lines, so RE and IM are parsed in several chunks
        of lines; a bad one is still reported on its own line."""
        matrix = assign_coefficients(9)
        path = tmp_path / "GMMatrix"
        run_pipeline(9, tmp_path)
        if line_number is not None:
            lines = path.read_bytes().split(b"\n")
            fields = lines[line_number - 1].split(b"\t")
            fields[field] = text
            lines[line_number - 1] = b"\t".join(fields)
            path.write_bytes(b"\n".join(lines))
        if problem is None:
            _assert_same(read_stage(path, 9), matrix)
        else:
            assert problem in _raises_on_line(path, line_number, M=9)


def _edited_m8_stage(tmp_path, row, field, text):
    """The M = 8 stage up to two lines past the start of its second read
    block, with ``field`` of line 1 (``row`` "first") or of the first line of
    that block set to ``text``; the path, the edited line and the matrix."""
    matrix = assign_coefficients(8)
    path = tmp_path / "GMMatrix"
    run_pipeline(8, tmp_path)
    lines = path.read_bytes().split(b"\n")[:-1]
    starts = np.cumsum([0] + [len(line) + 1 for line in lines])
    # A block is READ_BLOCK bytes completed to a whole line, so the second
    # starts with the first line that starts at or past READ_BLOCK.
    second = int(np.searchsorted(starts, pipeline.READ_BLOCK))
    assert 0 < second < len(lines) - 2
    lines = lines[: second + 2]
    edited = 0 if row == "first" else second
    fields = lines[edited].split(b"\t")
    fields[field] = text
    lines[edited] = b"\t".join(fields)
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path, edited + 1, matrix


class TestGMMatrixInvariants:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("100\tnan\t0\tC1", "non-finite"),
            ("100\t0.5\tinf\tC1", "non-finite"),
            ("100\t-inf\t0\tC1", "non-finite"),
            ("010\t0.5\t0\tC0", "does not follow"),     # duplicate
            ("000\t0.5\t0\tC0", "does not follow"),     # unsorted
            ("100\t0.5\t0\tC1", "contradicts popcount"),
            ("111\t0.5\t0\tC1", "neither parity class"),
            # bit fields too short for a TAB 3 bytes in: 3 bytes in lands on
            # the TAB of line 4, which must not pass for line 3's
            ("1\n1\t0.5\t0\tC1", "expected 4 tab-separated fields"),
            ("\n01\t0.5\t0\tC0", "expected 4 tab-separated fields"),
            ("0111\t0.5\t0\tC1", "expected 3 bits, got 4"),
            # a TAB inside the bit field, 3 bytes in or before
            ("01\t\t0\tC1", "expected 3 bits, got 2"),
            ("1\t00\t0.5\tC1", "expected 3 bits, got 1"),
            ("0\t1\t0.5\t0\tC1", "expected 4 tab-separated fields"),
            # A case that ends in LF is a whole stage of another width,
            # bad on its last line: the popcount rule at M = 1 and M = 3.
            ("0\t1\t0\tC1\n", "class C1 contradicts popcount 0 of M=1"),
            ("0\t1\t0\tC0\n1\t1\t0\tC0\n", "class C0 contradicts popcount 1 of M=1"),
            ("00001\t0.5\t0\tC0\n", "popcount 1 is in neither parity class of M=3"),
            (M3_START + "00110\t0.5\t0\tC1\n", "class C1 contradicts popcount 2 of M=3"),
            (M3_START + "00111\t0.5\t0\tC0\n", "class C0 contradicts popcount 3 of M=3"),
            (M3_START + "11111\t0.5\t0\tC1\n", "popcount 5 is in neither parity class of M=3"),
        ],
    )
    def test_rejected_on_its_line(self, tmp_path, line, message):
        if line.endswith("\n"):
            stage, bad = line, line.count("\n")
        else:
            stage, bad = "001\t0.5\t0\tC0\n010\t0.5\t0\tC0\n" + line + "\n", 3
        path = tmp_path / "GMMatrix"
        path.write_text(stage)
        width = len(stage.split("\t", 1)[0])
        assert message in _raises_on_line(path, bad, M=(width + 1) // 2)

    @pytest.mark.parametrize("row", ["first", "past a block"])
    @pytest.mark.parametrize("field", [1, 2])
    @pytest.mark.parametrize("text, value", [(b" 1.0", 1.0), (b"1_0", 10.0), (b"+0.5", 0.5)])
    def test_coefficient_texts_float_accepts(self, tmp_path, row, field, text, value):
        # The edited stage is cut short and off the closed form, so its lines
        # are parsed as one block, with no count or coefficient check.
        path, line_number, matrix = _edited_m8_stage(tmp_path, row, field, text)
        _, coefficients = pipeline._check_block(path, path.read_bytes(), 0, 15, None)
        expected = matrix.coefficients[: coefficients.size].copy()
        if field == 1:
            expected[line_number - 1] = complex(value, expected[line_number - 1].imag)
        else:
            expected[line_number - 1] = complex(expected[line_number - 1].real, value)
        assert coefficients.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("row", ["first", "past a block"])
    @pytest.mark.parametrize("field", [1, 2])
    @pytest.mark.parametrize("text", [b"0x1p3", b"1\x00", b"1.0.0", b""])
    def test_coefficient_texts_float_rejects(self, tmp_path, row, field, text):
        path, line_number, _ = _edited_m8_stage(tmp_path, row, field, text)
        message = _raises_on_line(path, line_number, M=8)
        assert "unparseable coefficient" in message

    def test_even_width_rejected(self, tmp_path):
        # No register has an even width 2M-1, so line 1 fails for every M.
        path = tmp_path / "GMMatrix"
        path.write_text("0001\t0.5\t0\tC0\n0010\t0.5\t0\tC0\n")
        for M in (2, 3):
            assert f"expected {2 * M - 1} bits, got 4" in _raises_on_line(path, 1, M=M)

    def test_nan_duplicate_record_fails_compile(self, tmp_path, capsys):
        path = tmp_path / "GMMatrix"
        path.write_text("000\tnan\t0\tC1\n" * 2)
        with pytest.raises(StageParseError):
            read_gm_matrix(path, 2, 1)
        code = main([
            "compile", "--clones", "2", "--input", "basis:1",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "GMMatrix:1:" in capsys.readouterr().err


class TestStageCrossCheck:
    def _stage(self, M, edit=None):
        matrix = assign_coefficients(M)
        coefficients = matrix.coefficients.copy()
        if edit is not None:
            row, delta = edit
            coefficients[row] += delta
        return GMMatrix(matrix.width, matrix.indices, coefficients)

    @pytest.mark.parametrize("delta", [5e-13, -5e-13, 5e-13j])
    def test_offsets_within_tolerance_pass(self, delta):
        check_gm_matrix(self._stage(4, (7, delta)), 4, "GMMatrix")

    @pytest.mark.parametrize(
        "M, row, delta",
        [(1, 0, 2e-12), (4, 7, -2e-12), (4, 69, 1e-3j), (9, 40000, 1.0)],
    )
    def test_coefficient_off_the_closed_form_names_its_line(self, M, row, delta):
        with pytest.raises(InternalConsistencyError) as err:
            check_gm_matrix(self._stage(M, (row, delta)), M, "GMMatrix")
        assert str(err.value).startswith(f"GMMatrix:{row + 1}: coefficient is ")

    def test_missing_record_rejected(self):
        matrix = assign_coefficients(3)
        keep = np.arange(len(matrix)) != 5
        short = GMMatrix(matrix.width, matrix.indices[keep], matrix.coefficients[keep])
        with pytest.raises(InternalConsistencyError, match="19 records, but"):
            check_gm_matrix(short, 3, "GMMatrix")

    def test_empty_stage_fails_compile(self, tmp_path, capsys):
        (tmp_path / "GMMatrix").write_bytes(b"")
        code = main([
            "compile", "--clones", "2", "--input", "basis:0", "--out", str(tmp_path),
        ])
        assert code == 4
        assert "0 records, but the cloner of M=2 has 6" in capsys.readouterr().err


CLASSES = (0, 1)
# Test ids of the class bits: the clone each belongs to.
CLASS_IDS = {0: "ParityClass.CLONE_OF_0", 1: "ParityClass.CLONE_OF_1"}


def _class_of(matrix, parity_class):
    """The records of ``matrix`` in the class ``parity_class``, as a GMMatrix."""
    M = (matrix.width + 1) // 2
    keep = np.bitwise_count(matrix.indices) == M - 1 + parity_class
    return GMMatrix(matrix.width, matrix.indices[keep], matrix.coefficients[keep])


def _assert_same(a, b):
    assert a.width == b.width
    for name in ("indices", "coefficients"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _respell(path, rows):
    """Write RE of the lines ``rows`` of the stage at ``path`` in exponent
    form and IM 0 as 0.0: the same doubles in other bytes than the
    writer's, so the reader parses those lines."""
    lines = path.read_bytes().split(b"\n")
    for row in rows:
        bits, re_text, im_text, cls_text = lines[row].split(b"\t")
        assert im_text == b"0"
        lines[row] = b"\t".join([bits, format(float(re_text), ".16e").encode(), b"0.0", cls_text])
    path.write_bytes(b"\n".join(lines))


def _spy_on_check_block(monkeypatch):
    """Record the line count before and the bytes of each block that
    ``pipeline._check_block`` parses, in a list."""
    calls, check_block = [], pipeline._check_block

    def spy(path, data, lineno, width, prev):
        calls.append((lineno, data))
        return check_block(path, data, lineno, width, prev)

    monkeypatch.setattr(pipeline, "_check_block", spy)
    return calls


class TestClassRead:
    """``read_gm_matrix``: the cross-check of both classes, in the pass that
    reads the lines, and the records of one class kept."""

    @pytest.mark.parametrize("M", range(1, 12))
    def test_equals_the_filtered_table(self, tmp_path, M):
        path = tmp_path / "GMMatrix"
        whole = assign_coefficients(M)
        run_pipeline(M, tmp_path)
        for parity_class in CLASSES:
            one = read_gm_matrix(path, M, parity_class)
            _assert_same(one, _class_of(whole, parity_class))

    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_equals_the_filtered_table_in_small_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(pipeline, "READ_BLOCK", block)
        path = tmp_path / "GMMatrix"
        for M in range(1, 6):
            whole = assign_coefficients(M)
            for respelled in (False, True):
                run_pipeline(M, tmp_path)
                if respelled:
                    _respell(path, [0, len(whole) - 1])
                for parity_class in CLASSES:
                    one = read_gm_matrix(path, M, parity_class)
                    _assert_same(one, _class_of(whole, parity_class))

    @pytest.mark.parametrize("parity_class", CLASSES, ids=CLASS_IDS.get)
    @pytest.mark.parametrize("where", ["line 1", "last block", "last line"])
    def test_coefficient_off_the_closed_form_names_its_line(self, tmp_path, parity_class, where):
        # M = 9 has 48,620 lines in about 10 blocks, and either class's read
        # checks both classes.
        matrix = assign_coefficients(9)
        path = tmp_path / "GMMatrix"
        run_pipeline(9, tmp_path)
        with path.open("rb") as handle:
            last_block = list(pipeline._line_blocks(handle))[-1]
        row = {"line 1": 0, "last line": len(matrix) - 1}.get(
            where, len(matrix) - last_block.count(b"\n"))
        coefficients = matrix.coefficients.copy()
        coefficients[row] += 1e-3
        table = GMMatrix(17, matrix.indices, coefficients)
        write_gm_matrix_lines(path, table)
        with pytest.raises(InternalConsistencyError) as err:
            read_gm_matrix(path, 9, parity_class)
        assert str(err.value).startswith(f"{path}:{row + 1}: coefficient is 0.001 from ")
        with pytest.raises(InternalConsistencyError) as whole:
            check_gm_matrix(table, 9, path)
        assert str(whole.value) == str(err.value)

    @pytest.mark.parametrize("parity_class", CLASSES, ids=CLASS_IDS.get)
    @pytest.mark.parametrize("chunk", [5, 13, 64, 1 << 14])
    def test_earliest_record_off_is_named(self, tmp_path, monkeypatch, parity_class, chunk):
        # With offsets growing down the file from record 3 on, the record
        # named is record 3, the earliest one off, as for a line error: not
        # a worse one later in its block, and whatever the writers' chunk.
        matrix = assign_coefficients(4)
        coefficients = matrix.coefficients + 1e-3 * np.maximum(np.arange(len(matrix)) - 2, 0)
        path = tmp_path / "GMMatrix"
        table = GMMatrix(7, matrix.indices, coefficients)
        write_gm_matrix_lines(path, table)
        monkeypatch.setattr(pipeline, "READ_BLOCK", 100)
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", chunk)
        with path.open("rb") as handle:
            assert len(list(pipeline._line_blocks(handle))) > 10
        with pytest.raises(InternalConsistencyError) as err:
            read_gm_matrix(path, 4, parity_class)
        assert str(err.value).startswith(f"{path}:4: coefficient is 0.001 from ")
        with pytest.raises(InternalConsistencyError) as whole:
            check_gm_matrix(table, 4, path)
        assert str(whole.value) == str(err.value)

    @pytest.mark.parametrize("parity_class", CLASSES, ids=CLASS_IDS.get)
    def test_missing_record_fails_on_the_count(self, tmp_path, parity_class):
        path = tmp_path / "GMMatrix"
        run_pipeline(6, tmp_path)
        lines = path.read_bytes().split(b"\n")
        del lines[300]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(InternalConsistencyError) as err:
            read_gm_matrix(path, 6, parity_class)
        assert str(err.value) == f"{path}: 923 records, but the cloner of M=6 has 924 support kets"

    def test_line_error_then_count_then_coefficient(self, tmp_path):
        # The order of the line checks followed by check_gm_matrix.
        matrix = assign_coefficients(3)
        coefficients = matrix.coefficients.copy()
        coefficients[1] += 1.0
        path = tmp_path / "GMMatrix"
        write_gm_matrix_lines(path, GMMatrix(5, matrix.indices, coefficients))
        good = path.read_bytes()
        path.write_bytes(good + b"11111\t0\t0\tC1\n")
        with pytest.raises(StageParseError, match="neither parity class"):
            read_gm_matrix(path, 3, 0)
        path.write_bytes(good[: good.rindex(b"\n", 0, -1) + 1])
        with pytest.raises(InternalConsistencyError, match="19 records, but"):
            read_gm_matrix(path, 3, 0)
        path.write_bytes(good)
        with pytest.raises(InternalConsistencyError, match=":2: coefficient is 1 from"):
            read_gm_matrix(path, 3, 0)

    @pytest.mark.parametrize(
        "M, parity_class, error",
        [(2, 2, DomainError), (13, 0, ResourceLimitError), (0, 0, DomainError)],
        ids=["class 2", "M=13", "M=0"],
    )
    def test_needs_a_class_and_a_width(self, tmp_path, M, parity_class, error):
        # Refused before the file is opened: it is missing, so opening it
        # would raise FileNotFoundError.
        with pytest.raises(error):
            read_gm_matrix(tmp_path / "GMMatrix", M, parity_class)


# ---------------------------------------------------------------------------
# the reader in small blocks, and the memory of stage I/O
# ---------------------------------------------------------------------------

class SmallBlocks:
    """Read stages a few bytes at a time: a block is then a line or two, so
    every check meets the line before it in another block.  The 48,620-line
    M = 9 file takes 4 KiB blocks, about 90 lines each, to stay fast."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, request, monkeypatch):
        big = request.node.originalname == "test_coefficients_past_one_chunk"
        monkeypatch.setattr(pipeline, "READ_BLOCK", 4099 if big else 5)


class TestGMMatrixReaderSemanticsInSmallBlocks(SmallBlocks, TestGMMatrixReaderSemantics):
    pass


class TestGMMatrixInvariantsInSmallBlocks(SmallBlocks, TestGMMatrixInvariants):
    pass


class TestGMMatrixReaderBlocks:
    @pytest.mark.parametrize("block", [1, 5, 149, 151, 176, 177, 1 << 18])
    def test_last_line_without_lf_across_blocks(self, tmp_path, monkeypatch, block):
        # The last line without LF starts at byte 149 of the 177.
        monkeypatch.setattr(pipeline, "READ_BLOCK", block)
        path = tmp_path / "GMMatrix"
        matrix = assign_coefficients(2)
        run_pipeline(2, tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert path.read_bytes().rindex(b"\n") + 1 == 149
        _assert_same(read_stage(path, 2), matrix)

    @pytest.mark.parametrize("block", [5, 64, 1000])
    def test_blocks_give_the_same_arrays(self, tmp_path, monkeypatch, block):
        for M in range(1, 7):
            run_pipeline(M, tmp_path / f"m{M}")
            path = tmp_path / f"m{M}" / "GMMatrix"
            whole = read_stage(path, M)
            respelled = tmp_path / f"GMMatrix{M}-respelled"
            respelled.write_bytes(path.read_bytes())
            _respell(respelled, range(len(whole)))
            monkeypatch.setattr(pipeline, "READ_BLOCK", block)
            parts = read_stage(path, M)
            parsed = read_stage(respelled, M)
            monkeypatch.undo()
            _assert_same(parts, whole)
            _assert_same(parsed, whole)


def _run_starts(M):
    """The number of support kets before each run of ``_support_runs(M)``."""
    sizes = [run.size for run in pipeline._support_runs(M)]
    return np.cumsum([0] + sizes[:-1])


class TestPreparedRuns:
    """The reader compares the stage with the bytes ``prepare`` writes, one
    support run at a time, and parses it only from the first line of the
    first run that differs.  M = 9 has 8 runs."""

    @pytest.mark.parametrize("where", ["first run", "middle run", "last run", "last line"])
    def test_parses_from_the_run_of_the_edit(self, tmp_path, monkeypatch, where):
        matrix = assign_coefficients(9)
        path = tmp_path / "GMMatrix"
        run_pipeline(9, tmp_path)
        starts = _run_starts(9)
        assert len(starts) == 8
        row = {"first run": 0, "middle run": starts[4], "last run": starts[-1]}.get(
            where, len(matrix) - 1)
        lines = path.read_bytes().split(b"\n")
        fields = lines[row].split(b"\t")
        fields[1] = b"x1"
        lines[row] = b"\t".join(fields)
        path.write_bytes(b"\n".join(lines))
        calls = _spy_on_check_block(monkeypatch)
        with pytest.raises(StageParseError) as err:
            read_gm_matrix(path, 9, 0)
        assert str(err.value) == f"{path}:{row + 1}: unparseable coefficient 'x1'/'0'"
        start = starts[starts <= row][-1]
        lineno, data = calls[0]
        assert lineno == start
        assert data.startswith(lines[start] + b"\n")

    def test_no_final_lf_is_parsed_from_the_last_run(self, tmp_path, monkeypatch):
        matrix = assign_coefficients(9)
        path = tmp_path / "GMMatrix"
        run_pipeline(9, tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        calls = _spy_on_check_block(monkeypatch)
        _assert_same(read_stage(path, 9), matrix)
        assert calls and min(lineno for lineno, _ in calls) == _run_starts(9)[-1]

    def test_extra_line_is_parsed_after_the_last_run(self, tmp_path, monkeypatch):
        path = tmp_path / "GMMatrix"
        run_pipeline(9, tmp_path)
        data = path.read_bytes()
        last = data[data.rindex(b"\n", 0, -1) + 1 :]
        path.write_bytes(data + last)
        calls = _spy_on_check_block(monkeypatch)
        with pytest.raises(StageParseError) as err:
            read_gm_matrix(path, 9, 1)
        bits = last.split(b"\t")[0].decode()
        assert str(err.value) == (
            f"{path}:48621: bitstring {bits} does not follow {bits} (need sorted, unique)"
        )
        assert [lineno for lineno, _ in calls] == [48620]


class TestStageMemory:
    """tracemalloc peaks of ``prepare`` and the GMMatrix reader: ``prepare``
    holds one run of lines, flat in M, and the reader the columns of the
    class it returns and one block, not the table of both classes and then
    a copy of one."""

    @pytest.mark.parametrize("M", [10, 11])
    def test_stage_io_peaks(self, tmp_path, M):
        path = tmp_path / "GMMatrix"
        tracemalloc.start()
        try:
            run_pipeline(M, tmp_path)
            prepare_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = read_gm_matrix(path, M, 1)
            read_peak = tracemalloc.get_traced_memory()[1]
            del loaded
            # Line 1's IM spelled 0.0: the same table, from every line parsed.
            path.write_bytes(path.read_bytes().replace(b"\t0\tC0\n", b"\t0.0\tC0\n", 1))
            tracemalloc.reset_peak()
            parsed = read_gm_matrix(path, M, 1)
            parse_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed) == math.comb(2 * M - 1, M)
        table = parsed.indices.nbytes + parsed.coefficients.nbytes
        assert prepare_peak <= 4 * 2**20
        assert read_peak <= 2 * table
        assert parse_peak <= 2 * table


# ---------------------------------------------------------------------------
# property tests: the array reader against per-line references
# ---------------------------------------------------------------------------

EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    1.7976931348623157e308, 0.1, 1 / 3, -2 / 3, 0.12345678901234568,
]
doubles = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.floats(allow_nan=False, allow_infinity=False),
)


# byte edits, a cut and an expected width for the line-grammar property
EDITS = st.lists(
    st.tuples(st.integers(0, 200), st.sampled_from(list(b"019\t\nC2x.-\r"))),
    max_size=3,
)
CUTS = st.tuples(st.integers(0, 200), st.integers(0, 2))
EXPECTED = st.sampled_from([3, 5])


@st.composite
def gm_matrices(draw):
    M = draw(st.integers(1, 5))
    n = 2 * M - 1
    support = [i for i in range(2**n) if bin(i).count("1") in (M - 1, M)]
    chosen = sorted(draw(st.sets(st.sampled_from(support), max_size=len(support))))
    size = len(chosen)
    re = draw(st.lists(doubles, min_size=size, max_size=size))
    im = draw(st.lists(doubles, min_size=size, max_size=size))
    coefficients = np.empty(size, dtype=np.complex128)
    coefficients.real, coefficients.imag = re, im
    return GMMatrix(n, np.array(chosen, dtype=np.int64), coefficients)


def _reference_text(matrix):
    """Per-record GMMatrix text, 17 significant digits and -0.0 printed as 0."""

    def number(x):
        return "0" if x == 0 else format(x, ".17g")

    lines = []
    M = (matrix.width + 1) // 2
    for index, c in zip(matrix.indices, matrix.coefficients):
        bits = format(int(index), f"0{matrix.width}b")
        cls = f"C{bits.count('1') - (M - 1)}"
        lines.append(f"{bits}\t{number(c.real)}\t{number(c.imag)}\t{cls}\n")
    return "".join(lines)


class TestGMMatrixProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(matrix=gm_matrices())
    def test_write_read_roundtrip(self, tmp_path, matrix):
        first = tmp_path / "GMMatrix"
        second = tmp_path / "GMMatrix2"
        write_gm_matrix_lines(first, matrix)
        assert first.read_text() == _reference_text(matrix)
        if not len(matrix):
            return  # an empty file: no block of lines to parse
        # Any coefficients, not only the cloner's: the file is parsed as one
        # block, with no count or coefficient check.
        data = first.read_bytes()
        indices, coefficients = pipeline._check_block(first, data, 0, matrix.width, None)
        np.testing.assert_array_equal(indices, matrix.indices)
        np.testing.assert_array_equal(coefficients, matrix.coefficients)
        write_gm_matrix_lines(second, GMMatrix(matrix.width, indices, coefficients))
        assert second.read_bytes() == data

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=EDITS, cut=CUTS, expected=EXPECTED)
    def test_array_checks_agree_with_line_grammar(self, tmp_path, edits, cut, expected):
        """Corrupted files fail on the line, and with the message, of a
        sequential reader that applies the line grammar one line at a time."""
        _agrees_with_line_grammar(tmp_path, edits, cut, expected)


def _agrees_with_line_grammar(tmp_path, edits, cut, expected):
    data = bytearray(
        b"001\t0.5\t0\tC0\n010\t-1e-3\t1e308\tC0\n011\t0.25\t0\tC1\n"
        b"100\t1\t-0\tC0\n101\t3.5e+2\t2e-5\tC1\n110\t1_0\t.5\tC1\n"
    )
    for pos, byte in edits:
        data[pos % len(data)] = byte
    start = cut[0] % len(data)
    del data[start : start + cut[1]]
    path = tmp_path / "GMMatrix"
    path.write_bytes(bytes(data))

    lines = bytes(data).split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    prev, problem = None, None
    for lineno, line in enumerate(lines, start=1):
        problem = _line_problem(line, expected, prev)
        if problem is not None:
            break
        prev = line.split(b"\t")[0].decode()
    M = (expected + 1) // 2
    if problem is None:
        # Lines the grammar accepts, but not the cloner's stage.
        with pytest.raises(InternalConsistencyError, match="records, but|coefficient is"):
            read_gm_matrix(path, M, 0)
    else:
        with pytest.raises(StageParseError) as err:
            read_gm_matrix(path, M, 0)
        assert str(err.value) == f"{path}:{lineno}: {problem}"


class TestGMMatrixGrammarInSmallBlocks:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=EDITS, cut=CUTS, expected=EXPECTED, block=st.integers(1, 40))
    def test_array_checks_agree_with_line_grammar(self, tmp_path, edits, cut, expected, block):
        """The same, read ``block`` bytes at a time."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "READ_BLOCK", block)
            _agrees_with_line_grammar(tmp_path, edits, cut, expected)


def _per_line_bitstring_reader(data: bytes, expected_length):
    """The bitstring stage grammar applied one line at a time."""
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    strings, width, prev = [], expected_length, None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.decode("ascii", errors="replace")
        if not line or line.strip("01"):
            return lineno, f"bad bitstring {line!r}"
        if width is None:
            width = len(line)
        if len(line) != width:
            return lineno, f"expected {width} bits, got {len(line)}"
        if prev is not None and line <= prev:
            return lineno, f"bitstring {line} does not follow {prev} (need sorted, unique)"
        strings.append(line)
        prev = line
    return strings


class TestBitstringStageProperties:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 100), st.sampled_from(list(b"01\n\r2x \xff"))),
            max_size=3,
        ),
        cut=st.tuples(st.integers(0, 100), st.integers(0, 5)),
        expected=st.sampled_from([None, 0, 3, 4]),
    )
    def test_agrees_with_per_line_reader(self, tmp_path, edits, cut, expected):
        """A corrupted stage fails on the line, and with the message, of the
        per-line reader, and an intact one reads to the same strings."""
        data = bytearray(b"000\n001\n011\n100\n101\n110\n111\n")
        for pos, byte in edits:
            data[pos % len(data)] = byte
        start = cut[0] % len(data)
        del data[start : start + cut[1]]
        path = tmp_path / "FullBitString"
        path.write_bytes(bytes(data))
        reference = _per_line_bitstring_reader(bytes(data), expected)
        if isinstance(reference, list):
            assert read_bitstring_stage(path, expected_length=expected) == reference
        else:
            with pytest.raises(StageParseError) as err:
                read_bitstring_stage(path, expected_length=expected)
            lineno, problem = reference
            assert str(err.value) == f"{path}:{lineno}: {problem}"

    @pytest.mark.parametrize(
        "content",
        [b"", b"\n", b"0\n\n1\n", b"\n0\n", b"01", b"\xff\n", b"1\n0", b"0" * 70 + b"\n" + b"1" * 70],
    )
    @pytest.mark.parametrize("expected", [None, 0, 1, 70])
    def test_edge_files(self, tmp_path, content, expected):
        path = tmp_path / "GMBitString"
        path.write_bytes(content)
        reference = _per_line_bitstring_reader(content, expected)
        if isinstance(reference, list):
            assert read_bitstring_stage(path, expected_length=expected) == reference
        else:
            with pytest.raises(StageParseError) as err:
                read_bitstring_stage(path, expected_length=expected)
            assert str(err.value) == f"{path}:{reference[0]}: {reference[1]}"
