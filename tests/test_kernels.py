"""Kernel checks: each numpy kernel against a direct reference."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gmclone import kernels
from gmclone.builder import GMParameters, build_gm
from gmclone.mps import mps_from_state
from gmclone.qubit import Qubit, equatorial_qubit, make_qubit, perp


class TestPopcounts:
    def test_numpy_against_python(self):
        values = np.arange(2**12, dtype=np.int64)
        expected = np.array([bin(v).count("1") for v in values])
        got = kernels.popcounts(values)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


def _permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _transpose_loop_average(amps, perms):
    # The symmetrizer as one transpose per permutation, added in order onto
    # a zero array: the summation order the gather must reproduce exactly.
    n = perms.shape[1]
    tensor = amps.reshape((2,) * n)
    acc = np.zeros_like(tensor)
    for p in perms:
        acc += tensor.transpose(p)
    return acc.reshape(-1) / perms.shape[0]


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


INPUTS = {
    "basis0": Qubit(1.0 + 0j, 0j),
    "basis1": Qubit(0j, 1.0 + 0j),
    "equatorial": equatorial_qubit(0.7),
    "amps": make_qubit(0.3 - 0.2j, 0.5 + 0.4j),
}


def _sector_products(n, q):
    # The product states symmetric_ket symmetrizes: n - j factors q, j perp(q).
    u, v = q.components(), perp(q).components()
    return [reduce(np.kron, [u] * (n - j) + [v] * j) for j in range(n + 1)]


class TestPermutationAverage:
    def _random_amps(self, rng, n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return amps / np.linalg.norm(amps)

    def test_numpy_against_direct_sum(self, rng):
        n = 4
        amps = self._random_amps(rng, n)
        perms = _permutations(n)
        expected = np.zeros_like(amps)
        for perm in perms:
            for idx in range(2**n):
                bits = format(idx, f"0{n}b")
                dest = "".join(bits[perm[pos]] for pos in range(n))
                expected[int(dest, 2)] += amps[idx]
        expected /= len(perms)
        np.testing.assert_allclose(
            kernels.permutation_average(amps, perms), expected, atol=1e-13
        )

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sector_products_bit_identical_to_transpose_loop(self, n, name):
        perms = _permutations(n)
        products = _sector_products(n, INPUTS[name])
        if n == 8:
            # 8! terms of 256 amplitudes fill hundreds of gather blocks, so
            # the running sum crosses many block boundaries; the transpose
            # loop takes 0.2 s per state here, so two sectors suffice.
            assert len(perms) * 2**n > 100 * kernels._GATHER_ENTRIES
            products = products[1::4]
        for amps in products:
            np.testing.assert_array_equal(
                _bits(kernels.permutation_average(amps, perms)),
                _bits(_transpose_loop_average(amps, perms)),
            )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_states_bit_identical_to_transpose_loop(self, n, rng):
        perms = _permutations(n)
        for _ in range(3 if n < 8 else 1):
            amps = self._random_amps(rng, n)
            np.testing.assert_array_equal(
                _bits(kernels.permutation_average(amps, perms)),
                _bits(_transpose_loop_average(amps, perms)),
            )

    def test_n9_runs_in_bounded_memory(self):
        # Gathering all 9! terms at once would take 9! * 512 * 16 B = 3 GB.
        perms = _permutations(9)
        amps = np.zeros(2**9, dtype=np.complex128)
        amps[1] = 1.0  # |0...01>: its symmetrization is the W state
        tracemalloc.start()
        try:
            out = kernels.permutation_average(amps, perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        expected = np.zeros(2**9)
        expected[[1 << k for k in range(9)]] = 1 / 9
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


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
