"""End-to-end CLI tests: flags, exit codes, file outputs, determinism."""

import functools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmclone import analysis, builder, cli, mps, pipeline
from gmclone.builder import dicke_outputs
from gmclone.cli import (
    EXIT_FAILURE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    parse_input_spec,
)
from gmclone.errors import DomainError, InternalConsistencyError, UsageError
from gmclone.mps import load_mps
from gmclone.qubit import BASIS

from oracles import (
    assign_coefficients,
    blockwise_roundtrip,
    dicke_state,
    gm_factors,
    gm_from_factors,
    mps_to_state,
    read_stage,
    reconstruct_state,
    write_gm_matrix_lines,
)


@pytest.fixture(scope="module")
def stage_m11(tmp_path_factory):
    out = tmp_path_factory.mktemp("stage-m11")
    assert main(["prepare", "--clones", "11", "--out", str(out)]) == EXIT_OK
    return out


class TestInputSpec:
    def test_basis(self):
        q = parse_input_spec("basis:1")
        assert q.alpha == 0 and q.beta == 1

    def test_equatorial(self):
        q = parse_input_spec("equatorial:0.0")
        assert abs(q.alpha - 1 / math.sqrt(2)) < 1e-15
        assert abs(q.beta - 1 / math.sqrt(2)) < 1e-15

    def test_amps(self):
        q = parse_input_spec("amps:0.6,0,0.8,0")
        assert abs(q.alpha - 0.6) < 1e-15
        assert abs(q.beta - 0.8) < 1e-15

    @pytest.mark.parametrize(
        "spec",
        ["basis:2", "equatorial:abc", "amps:1,0", "ghz:0", "basis", "amps:0,0,0,0",
         "basis:01", "basis: 1", "basis:+1"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(UsageError):
            parse_input_spec(spec)


class TestPrepare:
    def test_writes_three_stages(self, tmp_path, capsys):
        code = main(["prepare", "--clones", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "FullBitString").is_file()
        assert (tmp_path / "GMBitString").is_file()
        assert (tmp_path / "GMMatrix").is_file()
        out = capsys.readouterr().out
        assert "C0=3 C1=3" in out
        assert len((tmp_path / "GMMatrix").read_text().splitlines()) == 6

    def test_single_clone_has_two_records(self, tmp_path):
        main(["prepare", "--clones", "1", "--out", str(tmp_path)])
        assert len((tmp_path / "GMMatrix").read_text().splitlines()) == 2

    @pytest.mark.parametrize("M", range(1, 12))
    def test_stdout_counts_the_streamed_records(self, tmp_path, capsys, M):
        code = main(["prepare", "--clones", str(M), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        per_class = math.comb(2 * M - 1, M)
        assert code == EXIT_OK
        assert captured.out.replace(str(tmp_path), "OUT") == (
            f"FullBitString: {2 ** (2 * M - 1)} lines -> OUT/FullBitString\n"
            f"GMBitString:   {2 * per_class} lines -> OUT/GMBitString\n"
            f"GMMatrix:      {2 * per_class} records -> OUT/GMMatrix\n"
            f"parity classes: C0={per_class} C1={per_class}\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("M", [2, 9])
    def test_short_support_exits_4(self, tmp_path, capsys, monkeypatch, M):
        # The stage generator loses the first index of its first run, with
        # its class, sector and line, and GMBitString the row of that
        # offset: the streamed counts no longer make up 2 C(2M-1, M) kets.
        stage_runs = pipeline._stage_runs

        def short_runs(M):
            runs = stage_runs(M)
            key, base, offsets, one, j, lines = next(runs)
            yield key, base, offsets[1:], one[1:], j[1:], lines[lines.index(b"\n") + 1 :]
            yield from runs

        monkeypatch.setattr(pipeline, "_stage_runs", short_runs)
        code = main(["prepare", "--clones", str(M), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        expected = 2 * math.comb(2 * M - 1, M)
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err == (
            f"error: popcount classes of M={M} hold {expected - 1} support indices, "
            f"expected {expected}, half with popcount M-1 and half with M\n"
        )

    def test_resource_guard_exit_code(self, tmp_path, capsys):
        code = main(["prepare", "--clones", "99", "--out", str(tmp_path)])
        assert code == EXIT_RESOURCE
        assert "error" in capsys.readouterr().err


class TestCompile:
    def test_no_register_formed_on_either_route(self, tmp_path, monkeypatch):
        # Both routes compile the Dicke matrix c, so no matrix of 2^(2M-1)
        # entries reaches the SVD, and check the export at the clone|anticlone
        # bond a row block at a time: no contraction of the export yields all
        # 2^(2M-1) amplitudes, only its two halves.
        M = 4
        sizes = []
        real_svd = np.linalg.svd
        real_contract = mps.contract_sweep

        def svd(matrix, **kwargs):
            sizes.append(matrix.size)
            return real_svd(matrix, **kwargs)

        def contract(*args):
            contracted = real_contract(*args)
            assert contracted.size < 2 ** (2 * M - 1), "2^(2M-1)-amplitude register formed"
            return contracted

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(mps, "contract_sweep", contract)
        argv = ["compile", "--clones", str(M), "--input", "basis:1", "--out", str(tmp_path)]
        for source in ("builder", "gm_matrix"):
            if source == "gm_matrix":
                assert main(["prepare", "--clones", str(M), "--out", str(tmp_path)]) == EXIT_OK
            sizes.clear()
            assert main(argv) == EXIT_OK
            assert len(sizes) == 2 * M - 2
            assert all(size < 2 ** (2 * M - 1) for size in sizes)
            report = json.loads((tmp_path / "compile_report.json").read_text())
            assert report["source"] == source
            assert report["roundtrip_error"] < 1e-14

    def test_builder_compile_memory_is_a_fraction_of_the_register(self, tmp_path, capsys):
        # At M = 10 the register is 2^19 amplitudes, 8 MiB; the compile's
        # traced peak stays below a quarter of it.
        M = 10
        argv = ["compile", "--clones", str(M), "--input", "amps:0.3,-0.2,0.5,0.4",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK  # imports and caches outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** (2 * M - 1) * 16 / 4

    def test_builder_compile_memory_at_the_guard(self, tmp_path, capsys):
        # At M = 12 the register is 128 MiB.  The builder check forms no
        # block of its rows, and the traced peak (3.34 MiB) stays below 1/32
        # of it; products of 32-row blocks peaked at 4.33 MiB.
        M = 12
        argv = ["compile", "--clones", str(M), "--input", "equatorial:0.7",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** (2 * M - 1) * 16 / 32

    @pytest.mark.parametrize("tol", [1e-12, 0.999])
    @pytest.mark.parametrize("spec", ["amps:0.3,-0.2,0.5,0.4", "equatorial:0.7"])
    @pytest.mark.parametrize("M", range(1, 13))
    def test_symmetric_roundtrip_is_the_blockwise_one(self, M, spec, tol, tmp_path, capsys):
        # Oracle: the export's halves against the register of c, entry by
        # entry over blocks of 32 clone rows.  Untruncated both read rounding
        # (at most 9.5e-17 apart); at tol 0.999 the bond keeps one state and
        # the error is about 0.9, where they agree to 7.9e-15 relative.
        argv = ["compile", "--clones", str(M), "--input", spec, "--tol", str(tol),
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "compile_report.json").read_text())
        compiled, _ = load_mps(tmp_path / "mps.json")
        (c,) = dicke_outputs(M, [parse_input_spec(spec)])
        expected = blockwise_roundtrip(*mps.mps_halves(compiled, M), c)
        if tol < 0.5:
            assert abs(report["roundtrip_error"] - expected) <= 1e-16
        else:
            assert abs(report["roundtrip_error"] - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("M", range(1, 9))
    def test_symmetric_roundtrip_of_halves_off_the_symmetric_states(self, M):
        # A compiled export lies in the symmetric states, where the parts
        # outside the clone and the anticlone subspace are rounding; random
        # halves give each of the three parts its own weight.
        rng = np.random.default_rng(M)
        D = min(M, 3)

        def normal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        left, right, c = normal(2**M, D), normal(D, 2 ** (M - 1)), normal(M + 1, M)
        expected = blockwise_roundtrip(left, right, c)
        assert abs(cli._symmetric_roundtrip(left, right, c) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("M", range(1, 10))
    def test_blockwise_roundtrip_error_is_the_dense_distance(self, M, tmp_path, capsys):
        # Oracle: the register of the export against the dense reference,
        # the builder's assembly or the stage's rebuilt register.
        q = parse_input_spec("amps:0.3,-0.2,0.5,0.4")
        cases = [("amps:0.3,-0.2,0.5,0.4", lambda: gm_from_factors(*gm_factors(M, q)))]
        cases.append(("amps:0.3,-0.2,0.5,0.4", lambda: dicke_state(dicke_outputs(M, [q])[0])))
        pipeline.run_pipeline(M, tmp_path)
        matrix = read_stage(tmp_path / "GMMatrix", M)
        for bit in (0, 1):
            cases.append((f"basis:{bit}", functools.partial(
                reconstruct_state, matrix, M, bit)))
        for spec, dense in cases:
            argv = ["compile", "--clones", str(M), "--input", spec, "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK
            report = json.loads((tmp_path / "compile_report.json").read_text())
            assert report["source"] == ("builder" if spec.startswith("amps") else "gm_matrix")
            compiled, _ = load_mps(tmp_path / "mps.json")
            distance = np.linalg.norm(mps_to_state(compiled).amplitudes - dense().amplitudes)
            assert abs(report["roundtrip_error"] - distance) <= 1e-16
        # Truncated to one state at the bond, the error is about 0.9; the
        # dense distance itself rounds to 2.6e-14 relative at M = 9.
        argv = ["compile", "--clones", str(M), "--input", "amps:0.3,-0.2,0.5,0.4",
                "--tol", "0.999", "--out", str(tmp_path / "truncated")]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "truncated" / "compile_report.json").read_text())
        compiled, _ = load_mps(tmp_path / "truncated" / "mps.json")
        reference = dicke_state(dicke_outputs(M, [q])[0]).amplitudes
        distance = np.linalg.norm(mps_to_state(compiled).amplitudes - reference)
        assert abs(report["roundtrip_error"] - distance) <= 5e-14 * distance

    @pytest.mark.parametrize("M, seed", [(11, seed) for seed in range(8)] + [(12, 0)])
    def test_builder_bond_dims_analytic_up_to_the_guard(self, M, seed, tmp_path, capsys):
        # Compiled from c, no cut is wider than M^2 columns, so SVD rounding
        # stays far below the default tol.
        re0, im0, re1, im1 = np.random.default_rng(seed).normal(size=4).tolist()
        argv = ["compile", "--clones", str(M), "--input",
                f"amps:{re0!r},{im0!r},{re1!r},{im1!r}", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "compile_report.json").read_text())
        assert report["bond_dims"] == [min(k + 1, 2 * M - k, M) for k in range(2 * M)]
        assert report["roundtrip_error"] <= 1e-13

    @pytest.mark.parametrize("bit", [0, 1])
    def test_stage_bond_dims_analytic_at_m11(self, bit, stage_m11, capsys):
        # The stage route sweeps its register's Dicke matrix too, so no cut
        # has more than 2 M^3 entries, where a dense cut had 2 x 2^20.
        M = 11
        argv = ["compile", "--clones", str(M), "--input", f"basis:{bit}",
                "--out", str(stage_m11)]
        assert main(argv) == EXIT_OK
        report = json.loads((stage_m11 / "compile_report.json").read_text())
        assert report["source"] == "gm_matrix"
        assert report["bond_dims"] == [min(k + 1, 2 * M - k, M) for k in range(2 * M)]
        assert report["roundtrip_error"] <= 1e-13

    def test_guard_precedes_the_stage(self, tmp_path, monkeypatch, capsys):
        # A GMMatrix stage in --out gives no way past the register guard:
        # compile refuses M = 13 before it reads the stage.
        M = 13
        (tmp_path / "GMMatrix").write_text("0" * M + "1" * (M - 1) + "\t1\t0\tC0\n")

        def refuse(*args, **kwargs):
            raise AssertionError("stage read before the register guard")

        monkeypatch.setattr(pipeline, "read_gm_matrix", refuse)
        argv = ["compile", "--clones", str(M), "--input", "basis:0", "--out", str(tmp_path)]
        assert main(argv) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert [f.name for f in tmp_path.iterdir()] == ["GMMatrix"]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_stage_is_read_once_through_read_gm_matrix(self, bit, tmp_path, monkeypatch):
        # A stage compile reads its stage in one call of read_gm_matrix, with
        # the stage path first: the guard test above and tools that time or
        # count the stage read through that function see the whole read.
        main(["prepare", "--clones", "3", "--out", str(tmp_path)])
        calls = []
        real_read = pipeline.read_gm_matrix

        def spy(*args, **kwargs):
            calls.append(args)
            return real_read(*args, **kwargs)

        monkeypatch.setattr(pipeline, "read_gm_matrix", spy)
        argv = ["compile", "--clones", "3", "--input", f"basis:{bit}", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(calls) == 1
        assert calls[0][0] == tmp_path / "GMMatrix"

    def test_stage_numbers_are_what_gets_compiled(self, tmp_path, capsys):
        # Every coefficient of the stage doubled: a stage of norm 2 is not
        # the cloner's, so compile checks the stage's numbers and exits 4
        # before it exports anything.
        M = 4
        main(["prepare", "--clones", str(M), "--out", str(tmp_path)])
        capsys.readouterr()
        path = tmp_path / "GMMatrix"
        matrix = assign_coefficients(M)
        write_gm_matrix_lines(path, pipeline.GMMatrix(
            matrix.width, matrix.indices, 2 * matrix.coefficients,
        ))
        argv = ["compile", "--clones", str(M), "--input", "basis:1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}:1: ")
        assert "from the cloner's amplitude" in err
        assert not (tmp_path / "mps.json").exists()

    def test_edited_stage_exits_4_naming_the_edited_line(self, tmp_path, capsys):
        # Record 100|01 of M = 3 edited by delta: its anticlone half holds
        # a single 1, so part of the edit lies outside the span of the
        # anticlone rows.  The stage is no longer the cloner's: compile
        # names the record's line and exits 4.
        M, delta = 3, 0.01
        main(["prepare", "--clones", str(M), "--out", str(tmp_path)])
        capsys.readouterr()
        path = tmp_path / "GMMatrix"
        matrix = assign_coefficients(M)
        coefficients = matrix.coefficients.copy()
        edited = int(np.flatnonzero(matrix.indices == 0b100_01)[0])
        coefficients[edited] += delta
        write_gm_matrix_lines(path, pipeline.GMMatrix(
            matrix.width, matrix.indices, coefficients,
        ))
        argv = ["compile", "--clones", str(M), "--input", "basis:0", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}:{edited + 1}: coefficient is 0.01 ")
        assert not (tmp_path / "compile_report.json").exists()

    def test_basis_report(self, tmp_path):
        code = main([
            "compile", "--clones", "2", "--input", "basis:0",
            "--tol", "1e-12", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "compile_report.json").read_text())
        assert report["bond_dims"] == [1, 2, 2, 1]
        assert report["roundtrip_error"] < 1e-10
        assert report["source"] == "builder"
        assert (tmp_path / "mps.json").is_file()

    def test_single_clone_bond_dims(self, tmp_path):
        main([
            "compile", "--clones", "1", "--input", "equatorial:0.0",
            "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "compile_report.json").read_text())
        assert report["bond_dims"] == [1, 1]

    def test_explicit_amplitude_input(self, tmp_path):
        code = main([
            "compile", "--clones", "2", "--input", "amps:0.6,0,0.8,0",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK

    def test_uses_gm_matrix_stage_when_present(self, tmp_path):
        main(["prepare", "--clones", "2", "--out", str(tmp_path)])
        code = main([
            "compile", "--clones", "2", "--input", "basis:0",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "compile_report.json").read_text())
        assert report["source"] == "gm_matrix"
        assert report["bond_dims"] == [1, 2, 2, 1]

    def test_names_its_source_on_stdout(self, tmp_path, capsys):
        argv = ["compile", "--clones", "2", "--input", "basis:1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "source: builder"
        main(["prepare", "--clones", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"source: gm_matrix {tmp_path / 'GMMatrix'}"
        assert len(lines) == 4

    def test_padded_basis_spec_is_refused_before_the_stage(self, tmp_path, capsys):
        # Only exactly basis:0 / basis:1 name a basis input, with or without
        # a GMMatrix stage to read.
        main(["prepare", "--clones", "2", "--out", str(tmp_path)])
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        capsys.readouterr()
        argv = ["compile", "--clones", "2", "--input", "basis:+1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --input spec 'basis:+1'\n"
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_stage_of_wrong_register_size_fails(self, tmp_path, capsys):
        main(["prepare", "--clones", "3", "--out", str(tmp_path)])
        code = main([
            "compile", "--clones", "2", "--input", "basis:0",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            main(["prepare", "--clones", "3", "--out", str(d)])
            main([
                "compile", "--clones", "3", "--input", "basis:1", "--out", str(d),
            ])
        for name in ("FullBitString", "GMBitString", "GMMatrix",
                     "mps.json", "compile_report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestDickeSweep:
    """Both ``compile`` routes and ``sweep`` compile the (M+1) x M Dicke
    matrix c of the output by one ``mps_from_dicke`` sweep."""

    @pytest.mark.parametrize("route", ["builder", "stage", "sweep"])
    def test_svd_calls_and_sizes(self, route, stage_m11, tmp_path, monkeypatch, capsys):
        # 2M - 2 SVDs, none of more than 2 M^3 entries.  M = 12 on the
        # builder and the sweep; the stage route at M = 11, whose stage the
        # module writes once (a GMMatrix stage of M = 12 is 142 MB).
        M = 11 if route == "stage" else 12
        sizes = []
        real_svd = np.linalg.svd

        def svd(matrix, **kwargs):
            sizes.append(matrix.size)
            return real_svd(matrix, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        if route == "sweep":
            rows = analysis.scaling_sweep(M, M, mps.DEFAULT_TOL)
            assert rows[0].bond_dim == M
        else:
            out = stage_m11 if route == "stage" else tmp_path
            argv = ["compile", "--clones", str(M), "--input", "basis:1", "--out", str(out)]
            assert main(argv) == EXIT_OK
            report = json.loads((out / "compile_report.json").read_text())
            assert report["source"] == ("gm_matrix" if route == "stage" else "builder")
        assert len(sizes) == 2 * M - 2
        assert max(sizes) <= 2 * M**3

    @pytest.mark.parametrize("M", range(1, 13))
    def test_stage_c_is_the_builders(self, M):
        # The pairwise per-cell sums of the stage records land within
        # rounding of the builder's c; a sequential sum (np.bincount with
        # weights) lands 1.8e-12 off at M = 12.
        table = assign_coefficients(M)
        for bit in (0, 1):
            keep = np.bitwise_count(table.indices) == M - 1 + bit
            records = (table.indices[keep], table.coefficients[keep])
            c = cli._stage_dicke(records, M, bit)
            (expected,) = dicke_outputs(M, [BASIS[bit]])
            assert np.max(np.abs(c - expected)) <= 1e-14

    @pytest.mark.parametrize("M", [1, 2, 5, 9])
    def test_each_route_compiles_the_dicke_outputs(self, M, tmp_path, monkeypatch, capsys):
        seen = []
        real_sweep = mps.mps_from_dicke

        def spy(c, tol):
            seen.append(c)
            return real_sweep(c, tol)

        monkeypatch.setattr(mps, "mps_from_dicke", spy)
        q = parse_input_spec("amps:0.3,-0.2,0.5,0.4")
        cases = [("amps:0.3,-0.2,0.5,0.4", q), ("basis:0", BASIS[0])]
        main(["prepare", "--clones", str(M), "--out", str(tmp_path / "stage")])
        cases += [("stage basis:0", BASIS[0]), ("stage basis:1", BASIS[1])]
        for spec, qubit in cases:
            out = tmp_path / ("stage" if spec.startswith("stage") else "builder")
            argv = ["compile", "--clones", str(M), "--input", spec.split()[-1], "--out", str(out)]
            seen.clear()
            assert main(argv) == EXIT_OK
            (c,) = seen
            assert c.shape == (M + 1, M)
            assert np.max(np.abs(c - dicke_outputs(M, [qubit])[0])) <= 1e-14

    def test_sweep_gathers_no_ket(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep must compile c alone")

        monkeypatch.setattr(builder, "_dicke_kets", refuse)
        monkeypatch.setattr(cli, "_dicke_kets", refuse)
        assert main(["sweep", "--clones", "8", "--out", str(tmp_path)]) == EXIT_OK


class TestAnalyze:
    def test_m2_basis_fidelities(self, capsys):
        code = main(["analyze", "--clones", "2", "--input", "basis:0"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["clone_fidelities"]) == 2
        for f in report["clone_fidelities"]:
            assert abs(f - 5 / 6) < 1e-10
        assert report["nonlinearity_gap"] < 1e-12

    def test_single_clone_perfect_fidelity(self, capsys):
        main(["analyze", "--clones", "1", "--input", "equatorial:1.0"])
        report = json.loads(capsys.readouterr().out)
        assert len(report["clone_fidelities"]) == 1
        assert abs(report["clone_fidelities"][0] - 1.0) < 1e-12
        assert report["anticlone_fidelities"] == []

    def test_equatorial_gap_positive(self, capsys):
        main(["analyze", "--clones", "2", "--input", "equatorial:0.0"])
        report = json.loads(capsys.readouterr().out)
        assert report["nonlinearity_gap"] > 0.1

    def test_tiny_amplitudes_are_basis_zero(self, capsys):
        # 1e-200 squared underflows to zero; the input is |0> up to scale.
        assert main(["analyze", "--clones", "3", "--input", "amps:1e-200,0,0,0"]) == EXIT_OK
        tiny = json.loads(capsys.readouterr().out)
        assert main(["analyze", "--clones", "3", "--input", "basis:0"]) == EXIT_OK
        basis = json.loads(capsys.readouterr().out)
        for key in ("clone_fidelities", "anticlone_fidelities", "nonlinearity_gap"):
            assert tiny[key] == basis[key]

    @pytest.mark.parametrize("clones", [12, 13])
    def test_register_guard_still_applies(self, clones, capsys):
        expected = EXIT_OK if clones == 12 else EXIT_RESOURCE
        assert main(["analyze", "--clones", str(clones)]) == expected

    def test_csv_format(self, capsys):
        main(["analyze", "--clones", "2", "--input", "basis:0", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,value"
        assert lines[1].startswith("clone_fidelities,0.8333")

    def test_csv_output_bytes(self, capsys):
        argv = ["analyze", "--clones", "3", "--input", "amps:0.3,-0.2,0.5,0.4",
                "--format", "csv"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "metric,value\n"
            "clone_fidelities,0.77777777777777768;0.77777777777777768;0.77777777777777768\n"
            "anticlone_fidelities,0.66666666666666663;0.66666666666666663\n"
            "nonlinearity_gap,1.2021359072090712\n"
        )


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        code = main(["sweep", "--clones", "3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "scaling.csv").read_text().splitlines()
        assert lines[0] == "M,num_qubits,bond_dim,cut_ranks,tol"
        assert len(lines) == 4

    def test_single_clone_row(self, tmp_path):
        main(["sweep", "--clones", "1", "--out", str(tmp_path)])
        lines = (tmp_path / "scaling.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,1,1,")

    def test_resource_guard(self, tmp_path):
        assert main(["sweep", "--clones", "13", "--out", str(tmp_path)]) == EXIT_RESOURCE


class TestDenseGuard:
    @pytest.mark.parametrize("command", ["compile", "analyze"])
    def test_forty_clones_exit_resource(self, command, tmp_path, capsys):
        argv = [command, "--clones", "40"]
        if command == "compile":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--clones", "2", "--input", "equatorial:nan"],
            ["analyze", "--clones", "2", "--input", "amps:nan,0,1,0"],
            ["compile", "--clones", "2", "--input", "equatorial:inf"],
        ],
    )
    def test_exit_usage(self, argv, tmp_path, capsys):
        out = [] if argv[0] == "analyze" else ["--out", str(tmp_path)]
        assert main(argv + out) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad --input spec" in captured.err
        assert not (tmp_path / "mps.json").exists()


class TestFailureExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (MemoryError("Unable to allocate 64.0 GiB for an array"), EXIT_RESOURCE),
            (MemoryError(), EXIT_RESOURCE),
            (InternalConsistencyError("rebuilt state disagrees"), EXIT_INTERNAL),
            (ValueError("operands could not be broadcast together"), EXIT_INTERNAL),
            (np.linalg.LinAlgError("SVD did not converge"), EXIT_INTERNAL),
            (DomainError("tol must lie in [0, 1)"), EXIT_FAILURE),
        ],
    )
    def test_one_error_line_and_exit_code(self, error, code, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise error

        monkeypatch.setitem(cli._HANDLERS, "compile", fail)
        assert main(["compile", "--clones", "2", "--out", str(tmp_path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestLinAlgError:
    def test_unconverged_svd_exits_internal(self, tmp_path, monkeypatch, capsys):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        argv = ["compile", "--clones", "3", "--input", "equatorial:0.2", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SVD did not converge\n"
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["prepare", "compile", "sweep"])
    @pytest.mark.parametrize("below_file", [False, True])
    def test_one_error_line_and_exit_failure(self, command, below_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "run" if below_file else blocker
        assert main([command, "--clones", "2", "--out", str(out)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert blocker.read_text() == "not a directory\n"


class TestSharedParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--clones", "2"],
            ["compile", "--clones", "2", "--input", "basis:0"],
            ["analyze", "--clones", "2"],
            ["sweep", "--clones", "2"],
        ],
    )
    def test_main_does_not_rebuild_the_parser(self, argv, tmp_path, monkeypatch):
        def rebuild():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        out = [] if argv[0] == "analyze" else ["--out", str(tmp_path)]
        assert main(argv + out) == EXIT_OK

    def test_format_does_not_leak_into_the_next_call(self, capsys):
        main(["analyze", "--clones", "2", "--format", "csv"])
        assert capsys.readouterr().out.startswith("metric,value\n")
        assert main(["analyze", "--clones", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["M"] == 2

    def test_tol_does_not_leak_into_the_next_call(self, tmp_path):
        report = tmp_path / "compile_report.json"
        main(["compile", "--clones", "2", "--tol", "1e-3", "--out", str(tmp_path)])
        assert json.loads(report.read_text())["tol"] == 1e-3
        main(["compile", "--clones", "2", "--out", str(tmp_path)])
        assert json.loads(report.read_text())["tol"] == 1e-12


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_clones(self):
        assert main(["prepare"]) == EXIT_USAGE

    def test_zero_clones(self, capsys):
        assert main(["prepare", "--clones", "0", "--out", "/tmp/x"]) == EXIT_USAGE
        assert "clones" in capsys.readouterr().err

    def test_bad_input_spec(self, capsys):
        code = main(["analyze", "--clones", "2", "--input", "nonsense:1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["prepare", "compile", "sweep"])
    def test_format_belongs_to_analyze_alone(self, command, tmp_path, capsys):
        argv = [command, "--clones", "2", "--format", "csv", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "--format" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_belongs_to_the_commands_that_write(self, tmp_path, capsys):
        assert main(["analyze", "--clones", "2", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_bad_tol(self, tmp_path):
        code = main([
            "compile", "--clones", "2", "--tol", "1.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE


def test_module_invocation_roundtrip(tmp_path):
    # exercise the installed entry path (python -m gmclone)
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "gmclone", "analyze", "--clones", "2",
         "--input", "basis:1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)},
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert abs(report["clone_fidelities"][0] - 5 / 6) < 1e-10
