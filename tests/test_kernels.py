"""Kernel checks: each numpy kernel against a direct reference."""

import json

import numpy as np
import pytest

from gmclone import kernels
from gmclone.cli import EXIT_OK, main
from gmclone.errors import DomainError
from gmclone.mps import MatrixProductState, mps_halves
from gmclone.qubit import equatorial_qubit

from oracles import (
    GMParameters,
    build_gm,
    build_gm_basis,
    combine_basis_mps,
    mps_from_state,
    mps_to_state,
)


def einsum_sweep(sites, left, right):
    """Frozen copy of the one-`einsum`-per-site sweep that `contract_sweep`
    replaced: the reference for the prefix order x -> 2x + i."""
    T = np.asarray(left, dtype=np.complex128).reshape(1, -1)
    for A in sites:
        T = np.einsum("xa,iab->xib", T, A).reshape(-1, A.shape[2])
    return T @ np.asarray(right, dtype=np.complex128)


def random_mps(rng, n):
    """n sites with ragged bonds of 1..5, boundary vectors included."""
    dims = rng.integers(1, 6, size=n + 1)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    sites = [cplx(2, dims[k], dims[k + 1]) for k in range(n)]
    return MatrixProductState(sites, cplx(dims[0]), cplx(dims[n]))


def assert_matches_einsum_sweep(mps):
    expected = einsum_sweep(mps.sites, mps.left_boundary, mps.right_boundary)
    got = kernels.contract_sweep(mps.sites, mps.left_boundary, mps.right_boundary)
    assert got.shape == (2**mps.num_sites,)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.linalg.norm(expected)


class TestContractSweep:
    def _mps_sites(self, n=6):
        state = build_gm(GMParameters((n + 1) // 2, equatorial_qubit(0.4)))
        mps, _ = mps_from_state(state, 1e-12)
        return state, mps

    def test_numpy_against_per_ket_products(self):
        state, mps = self._mps_sites()
        n = mps.num_sites
        out = kernels.contract_sweep(mps.sites, mps.left_boundary, mps.right_boundary)
        for idx in (0, 3, 2**n - 1, 17 % 2**n):
            bits = format(idx, f"0{n}b")
            chain = mps.left_boundary.reshape(1, -1)
            for k, bit in enumerate(bits):
                chain = chain @ mps.sites[k][int(bit)]
            expected = (chain @ mps.right_boundary)[0]
            assert abs(out[idx] - expected) < 1e-12

    @pytest.mark.parametrize("n", range(1, 16))
    def test_ragged_random_mps_against_einsum_sweep(self, n):
        rng = np.random.default_rng(7000 + n)
        assert_matches_einsum_sweep(random_mps(rng, n))
        combined = combine_basis_mps(random_mps(rng, n), random_mps(rng, n), 0.6, 0.8j)
        assert_matches_einsum_sweep(combined)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_combined_basis_mps_against_einsum_sweep(self, M):
        mps0, _ = mps_from_state(build_gm_basis(M, 0), 1e-12)
        mps1, _ = mps_from_state(build_gm_basis(M, 1), 1e-12)
        combined = combine_basis_mps(mps0, mps1, 0.6, -0.8j)
        assert combined.left_boundary.size == 2
        assert_matches_einsum_sweep(combined)


class TestMatrixBoundaries:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_halves_multiply_to_the_contracted_state(self, n):
        # L (2^k, D) from sites 1..k and R (D, 2^(n-k)) from the rest, each
        # one contract_sweep with an identity on the open bond: L @ R read
        # row-major is the full contraction, at every cut.
        mps = random_mps(np.random.default_rng(7100 + n), n)
        expected = mps_to_state(mps).amplitudes
        scale = np.linalg.norm(expected)
        for k in range(1, n + 1):
            left, right = mps_halves(mps, k)
            assert left.shape == (2**k, mps.bond_dims()[k])
            assert right.shape == (mps.bond_dims()[k], 2 ** (n - k))
            assert np.max(np.abs((left @ right).reshape(-1) - expected)) <= 1e-15 * scale

    @pytest.mark.parametrize("M", range(1, 9))
    def test_clone_anticlone_halves_of_a_compiled_state(self, M):
        # The cut compile checks at: normalized amplitudes, so 1e-15 absolute.
        mps, _ = mps_from_state(build_gm(GMParameters(M, equatorial_qubit(0.4))), 1e-12)
        left, right = mps_halves(mps, M)
        expected = mps_to_state(mps).amplitudes
        assert np.max(np.abs((left @ right).reshape(-1) - expected)) <= 1e-15

    def test_matrix_boundaries_of_the_kernel(self):
        # (r, D_1) and (D_{n+1}, c) boundaries add a leading and a trailing
        # index to the (2^n,) result of the vector boundaries.
        rng = np.random.default_rng(7200)
        mps = random_mps(rng, 5)
        lefts = rng.normal(size=(3, mps.bond_dims()[0]))
        rights = rng.normal(size=(mps.bond_dims()[-1], 4))
        got = kernels.contract_sweep(mps.sites, lefts, rights)
        assert got.shape == (3, 2**5, 4)
        for r in range(3):
            for c in range(4):
                expected = einsum_sweep(mps.sites, lefts[r], rights[:, c])
                assert np.max(np.abs(got[r, :, c] - expected)) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("k", [0, 4])
    def test_cut_outside_the_chain(self, k):
        with pytest.raises(DomainError):
            mps_halves(random_mps(np.random.default_rng(7300), 3), k)


@pytest.mark.parametrize("spec", ["amps:0.3,-0.2,0.5,0.4", "equatorial:0.7"])
@pytest.mark.parametrize("M", range(1, 11))
def test_builder_compile_roundtrip_error(M, spec, tmp_path, capsys):
    """`compile` checks its export by contracting it back.  The error is at
    most the truncation bound, the root-sum-square of the discarded singular
    values (up to 3.2e-13 at M = 10: SVD noise the cutoff drops), plus
    rounding."""
    argv = ["compile", "--clones", str(M), "--input", spec, "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    report = json.loads((tmp_path / "compile_report.json").read_text())
    assert report["source"] == "builder"
    discarded = sum(
        sum(s * s for s in values[kept:])
        for values, kept in zip(report["singular_values_per_cut"], report["retained_ranks"])
    )
    assert report["roundtrip_error"] <= np.sqrt(discarded) + 1e-13
