"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Tolerances and runtime ceilings are pinned here; nothing is deferred to
later calibration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gmclone.analysis import analyze_cloner, scaling_csv, scaling_sweep
from gmclone.builder import gamma
from gmclone.mps import bond_dimension, load_mps, save_mps
from gmclone import pipeline
from gmclone.pipeline import read_gm_matrix, run_pipeline
from gmclone.qubit import Qubit, anticlone, equatorial_qubit, make_qubit

from oracles import (
    GMParameters,
    StateVector,
    anticlone_fidelity,
    assign_coefficients,
    build_gm,
    build_gm_basis,
    clone_fidelity,
    combine_basis_mps,
    expand_gm_decomposed,
    gen_gm_bitstrings,
    mps_from_state,
    mps_to_state,
    read_bitstring_stage,
    read_stage,
    reconstruct_state,
    write_bitstring_stage,
    write_gm_matrix_lines,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {name}")
        raise
    print(f"criterion {number:02d} PASS: {name}")


def random_equatorial(rng):
    return equatorial_qubit(float(rng.uniform(0.0, 2.0 * np.pi)))


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_criterion_01_normalization(rng):
    with criterion(1, "builder output normalized for M=1..8, 20 random inputs"):
        start = time.perf_counter()
        for M in range(1, 9):
            for _ in range(20):
                state = build_gm(GMParameters(M, random_equatorial(rng)))
                assert abs(state.norm() - 1.0) < 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_02_gamma_completeness():
    with criterion(2, "sector weights sum to one for M=1..20"):
        for M in range(1, 21):
            assert abs(sum(gamma(M, j) ** 2 for j in range(M)) - 1.0) < 1e-14


def test_criterion_03_oracle_equivalence(rng):
    with criterion(3, "builder matches decomposed-expansion oracle, M=1..5"):
        start = time.perf_counter()
        for M in range(1, 6):
            for _ in range(10):
                q = random_equatorial(rng)
                built = build_gm(GMParameters(M, q))
                expanded = expand_gm_decomposed(M, q)
                assert abs(abs(built.overlap(expanded)) - 1.0) < 1e-10
        assert time.perf_counter() - start < 30.0


def test_criterion_04_pipeline_equivalence(tmp_path):
    with criterion(4, "GMMatrix records rebuild the basis states, M=1..8"):
        start = time.perf_counter()
        for M in range(1, 9):
            run_pipeline(M, tmp_path / f"m{M}")
            for bit in (0, 1):
                loaded = read_gm_matrix(tmp_path / f"m{M}" / "GMMatrix", M, bit)
                rebuilt = reconstruct_state(loaded, M, bit)
                reference = build_gm_basis(M, bit)
                assert (
                    np.abs(rebuilt.amplitudes - reference.amplitudes).max() < 1e-12
                )
        assert time.perf_counter() - start < 30.0


def test_criterion_05_parity_partition():
    with criterion(5, "popcount parity splits every support string, M=1..10"):
        for M in range(1, 11):
            strings = gen_gm_bitstrings(M)
            # prepare's support is the string generator's
            support = np.concatenate(list(pipeline._support_runs(M)))
            n = 2 * M - 1
            assert [format(i, f"0{n}b") for i in support.tolist()] == strings
            count0 = count1 = 0
            for bits in strings:
                popcount = bits.count("1")
                if popcount == M - 1:
                    count0 += 1
                elif popcount == M:
                    count1 += 1
                else:
                    raise AssertionError(f"{bits} not classified at M={M}")
            expected = sum(
                math.comb(M, j) * math.comb(M - 1, j) for j in range(M)
            )
            assert count0 == count1 == expected


def _fidelity_oracle(state, position):
    """Independent partial-trace route: explicit accumulation per basis ket."""
    n = state.num_qubits
    rho = np.zeros((2, 2), dtype=np.complex128)
    shift = n - position  # position is 1-indexed, qubit 1 most significant
    buckets = [{}, {}]
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        bit = (idx >> shift) & 1
        rest = idx & ~(1 << shift)
        buckets[bit][rest] = buckets[bit].get(rest, 0j) + amp
    for bi in (0, 1):
        for bj in (0, 1):
            total = 0j
            for rest, amp in buckets[bi].items():
                other = buckets[bj].get(rest)
                if other is not None:
                    total += amp * np.conj(other)
            rho[bi, bj] = total
    return rho


def test_criterion_06_clone_fidelity(rng):
    with criterion(6, "clone fidelity equals (2M+1)/(3M), input-independent"):
        start = time.perf_counter()
        for M in range(1, 7):
            target = (2 * M + 1) / (3 * M)
            for _ in range(5):
                q = random_equatorial(rng)
                state = build_gm(GMParameters(M, q))
                fids = clone_fidelity(state, M, q)
                assert len(fids) == M
                assert max(fids) - min(fids) < 1e-10
                for f in fids:
                    assert abs(f - target) < 1e-10
            # independent oracle spot-check on the first clone
            psi = q.components()
            rho = _fidelity_oracle(state, 1)
            oracle = float(np.real(psi.conj() @ rho @ psi))
            assert abs(oracle - target) < 1e-10
        # the two hand-derived anchor values
        fid2 = clone_fidelity(build_gm_basis(2, 0), 2, Qubit(1, 0))
        assert all(abs(f - 5 / 6) < 1e-10 for f in fid2)
        q3 = equatorial_qubit(0.0)
        fid3 = clone_fidelity(build_gm(GMParameters(3, q3)), 3, q3)
        assert all(abs(f - 7 / 9) < 1e-10 for f in fid3)
        assert time.perf_counter() - start < 60.0


def test_fidelities_match_oracle_past_the_acceptance_range(rng):
    M = 9
    q = make_qubit(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
    state = build_gm(GMParameters(M, q))
    clones = clone_fidelity(state, M, q)
    anticlones = anticlone_fidelity(state, M, q)
    for fids, target, pos in ((clones, q, 1), (anticlones, anticlone(q), M + 1)):
        psi = target.components()
        rho = _fidelity_oracle(state, pos)
        oracle = float(np.real(psi.conj() @ rho @ psi))
        # The oracle's sequential sums over 2^16 products drift by up to
        # about 3e-13 from any vectorized route, `reduced_density` included.
        assert abs(fids[0] - oracle) < 1e-12
        assert max(fids) - min(fids) < 1e-13


def test_clone_fidelity_at_m11(rng):
    M = 11
    q = random_equatorial(rng)
    fids = clone_fidelity(build_gm(GMParameters(M, q)), M, q)
    assert len(fids) == M
    assert max(abs(f - (2 * M + 1) / (3 * M)) for f in fids) <= 1e-12


def test_criterion_07_mps_roundtrip(rng):
    with criterion(7, "tol=0 compile/reconstruct is exact up to 15 qubits"):
        start = time.perf_counter()
        for M in range(1, 9):
            state = build_gm(GMParameters(M, random_equatorial(rng)))
            mps, _ = mps_from_state(state, 0.0)
            back = mps_to_state(mps)
            assert abs(abs(state.overlap(back)) - 1.0) < 1e-10
        for _ in range(20):
            state = random_state(rng, 12)
            mps, _ = mps_from_state(state, 0.0)
            back = mps_to_state(mps)
            assert abs(abs(state.overlap(back)) - 1.0) < 1e-10
        assert time.perf_counter() - start < 120.0


def test_criterion_08_truncation_bound(rng):
    with criterion(8, "roundtrip error bounded by discarded singular weight"):
        for tol in (1e-4, 1e-8):
            for _ in range(10):
                state = random_state(rng, 10)
                mps, spectrum = mps_from_state(state, tol)
                back = mps_to_state(mps)
                err = float(np.linalg.norm(state.amplitudes - back.amplitudes))
                assert err <= math.sqrt(spectrum.discarded_weight()) + 1e-12


def test_criterion_09_bond_bound(rng, tmp_path):
    with criterion(9, "bond dimension <= 2M at tol=1e-12, sweep spans 15 qubits"):
        for M in range(1, 9):
            state = build_gm(GMParameters(M, random_equatorial(rng)))
            mps, _ = mps_from_state(state, 1e-12)
            assert bond_dimension(mps) <= 2 * M
        rows = scaling_sweep(1, 8, 1e-12)
        text = scaling_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "M,num_qubits,bond_dim,cut_ranks,tol"
        assert len(lines) == 9
        assert all(row.bond_dim <= 2 * row.M for row in rows)
        assert rows[-1].num_qubits == 15


def test_criterion_10_nonlinearity():
    with criterion(10, "cloning map nonlinear at M=2, linear on basis inputs"):
        def gap(alpha, beta):
            return analyze_cloner(2, make_qubit(alpha, beta)).nonlinearity_gap

        inv = 1 / math.sqrt(2)
        assert gap(inv, inv) > 0.1
        assert gap(1, 0) < 1e-12
        assert gap(0, 1) < 1e-12


def test_criterion_11_combine_basis_mps(rng):
    with criterion(11, "block-sum MPS rebuilds the superposed outputs"):
        for M in range(1, 5):
            mps0, _ = mps_from_state(build_gm_basis(M, 0), 1e-12)
            mps1, _ = mps_from_state(build_gm_basis(M, 1), 1e-12)
            for _ in range(3):
                raw = rng.normal(size=2) + 1j * rng.normal(size=2)
                alpha, beta = raw / np.linalg.norm(raw)
                combined = combine_basis_mps(mps0, mps1, alpha, beta)
                expected = (
                    alpha * build_gm_basis(M, 0).amplitudes
                    + beta * build_gm_basis(M, 1).amplitudes
                )
                got = mps_to_state(combined).amplitudes
                assert np.linalg.norm(got - expected) < 1e-10
                assert bond_dimension(combined) == bond_dimension(mps0) + bond_dimension(mps1)


def test_criterion_12_file_roundtrips(tmp_path):
    with criterion(12, "all stage files and the MPS export round-trip losslessly"):
        M = 3
        run_pipeline(M, tmp_path)
        records = assign_coefficients(M)
        # parse back losslessly
        full = read_bitstring_stage(tmp_path / "FullBitString")
        support = read_bitstring_stage(tmp_path / "GMBitString")
        loaded = read_stage(tmp_path / "GMMatrix", M)
        assert len(full) == 2 ** (2 * M - 1)
        assert loaded.width == len(support[0])
        assert loaded.indices.tolist() == [int(bits, 2) for bits in support]
        assert loaded.coefficients.tolist() == records.coefficients.tolist()
        # byte-identical rewrite
        rewrite_dir = tmp_path / "rewrite"
        rewrite_dir.mkdir()
        write_bitstring_stage(rewrite_dir / "FullBitString", full)
        write_bitstring_stage(rewrite_dir / "GMBitString", support)
        write_gm_matrix_lines(rewrite_dir / "GMMatrix", loaded)
        for name in ("FullBitString", "GMBitString", "GMMatrix"):
            assert (rewrite_dir / name).read_bytes() == (tmp_path / name).read_bytes()
        # MPS export
        mps, spectrum = mps_from_state(build_gm_basis(M, 0), 1e-12)
        first = tmp_path / "mps.json"
        second = tmp_path / "mps2.json"
        save_mps(first, mps, spectrum)
        loaded_mps, loaded_spectrum = load_mps(first)
        for a, b in zip(mps.sites, loaded_mps.sites):
            np.testing.assert_array_equal(a, b)
        save_mps(second, loaded_mps, loaded_spectrum)
        assert first.read_bytes() == second.read_bytes()
