"""Kernel checks: each numpy kernel against a direct reference."""

import numpy as np

from gmclone import kernels
from gmclone.builder import GMParameters, build_gm
from gmclone.mps import mps_from_state
from gmclone.qubit import equatorial_qubit


class TestPopcounts:
    def test_numpy_against_python(self):
        values = np.arange(2**12, dtype=np.int64)
        expected = np.array([bin(v).count("1") for v in values])
        got = kernels.popcounts(values)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


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
