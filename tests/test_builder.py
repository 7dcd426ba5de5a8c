"""Tests for symmetric kets and the cloner output builder.

Frozen expectation vectors below were produced with the subset-enumeration
oracle (expand_gm_decomposed's route): the j-th sector of the basis-clone
output carries the sign (-1)^j from the orthogonal-complement convention
perp(|0>) = -|1>, so magnitudes follow the equal-weight expansion while the
signs alternate per sector.
"""

import itertools
import math
from functools import reduce

import numpy as np
import pytest

from gmclone.builder import FULL_ENUMERATION_LIMIT, dicke_outputs, gamma, gm_mps
from gmclone.cli import parse_input_spec
from gmclone.errors import DomainError, ResourceLimitError
from gmclone.qubit import Qubit, anticlone, equatorial_qubit, make_qubit, perp

from oracles import (
    GMParameters,
    StateVector,
    build_gm,
    build_gm_basis,
    dicke_state,
    expand_gm_decomposed,
    gm_factors,
    gm_from_factors,
    mps_from_dicke,
    mps_from_state,
    mps_to_state,
    schmidt_spectra,
    symmetric_ket,
)

INV_SQRT2 = 1 / math.sqrt(2)
INV_SQRT6 = 1 / math.sqrt(6)


def _state(num_qubits, pairs):
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    for bits, value in pairs.items():
        amps[int(bits, 2)] = value
    return StateVector(num_qubits, amps)


def random_qubit(rng):
    return make_qubit(
        complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    )


ORACLE_INPUTS = [
    Qubit(1.0 + 0j, 0j),
    Qubit(0j, 1.0 + 0j),
    equatorial_qubit(2.1),
    make_qubit(0.3 - 0.2j, 0.5 + 0.4j),
]


# Frozen copies of the two routes that built the sector kets before they
# all came from the Dicke maps, kept as a value oracle: for n <= 6 the
# product state averaged over all n! qubit permutations (one transpose per
# permutation) and renormalized, for larger n the equal-weight kron
# recursion over the placements of the perp factors.

def _permutation_ket(n, j, u, v):
    tensor = reduce(np.kron, [u] * (n - j) + [v] * j).reshape((2,) * n)
    acc = np.zeros_like(tensor)
    for p in itertools.permutations(range(n)):
        acc += tensor.transpose(p)
    acc = acc.reshape(-1) / math.factorial(n)
    return acc / np.linalg.norm(acc)


def _binomial_kets(n, u, v):
    kets = [np.ones(1, dtype=np.complex128)]  # kets[j]: j perp factors
    for _ in range(n):
        kets = (
            [np.kron(kets[0], u)]
            + [np.kron(a, u) + np.kron(b, v) for a, b in zip(kets[1:], kets)]
            + [np.kron(kets[-1], v)]
        )
    return [ket / math.sqrt(math.comb(n, j)) for j, ket in enumerate(kets)]


def frozen_kets(n, q):
    """Rows j = 0..n: ``symmetric_ket(n, j, q)`` as the retired routes built it."""
    u, v = q.components(), perp(q).components()
    if n <= 6:
        return np.stack([_permutation_ket(n, j, u, v) for j in range(n + 1)])
    return np.stack(_binomial_kets(n, u, v))


class TestGamma:
    def test_single_clone(self):
        assert gamma(1, 0) == 1.0

    def test_two_clone_values(self):
        assert abs(gamma(2, 0) - math.sqrt(2 / 3)) < 1e-15
        assert abs(gamma(2, 1) - math.sqrt(1 / 3)) < 1e-15

    @pytest.mark.parametrize("M", range(1, 21))
    def test_completeness(self, M):
        total = sum(gamma(M, j) ** 2 for j in range(M))
        assert abs(total - 1.0) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma(2, 2)
        with pytest.raises(DomainError):
            gamma(2, -1)
        with pytest.raises(DomainError):
            gamma(0, 0)

    def test_values_strictly_decreasing(self):
        for M in range(2, 11):
            values = [gamma(M, j) for j in range(M)]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestSymmetricKet:
    def test_one_perp_factor_carries_sign(self):
        out = symmetric_ket(2, 1, Qubit(1, 0))
        expected = _state(2, {"01": -INV_SQRT2, "10": -INV_SQRT2})
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-14)

    def test_all_input_factors(self):
        out = symmetric_ket(3, 0, Qubit(1, 0))
        np.testing.assert_allclose(
            out.amplitudes, _state(3, {"000": 1.0}).amplitudes, atol=1e-14
        )

    def test_all_perp_factors_square_sign(self):
        out = symmetric_ket(2, 2, Qubit(1, 0))
        np.testing.assert_allclose(
            out.amplitudes, _state(2, {"11": 1.0}).amplitudes, atol=1e-14
        )

    def test_equal_weights_for_basis_input(self):
        out = symmetric_ket(4, 2, Qubit(1, 0))
        support = np.nonzero(np.abs(out.amplitudes) > 1e-13)[0]
        assert len(support) == math.comb(4, 2)
        np.testing.assert_allclose(
            np.abs(out.amplitudes[support]), 1 / math.sqrt(6), atol=1e-14
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_construction_paths_agree(self, n):
        # symmetric_ket and the gm_factors rows against the frozen routes
        for q in ORACLE_INPUTS:
            _, clone, anti = gm_factors(n, q)
            for phi in (q, anticlone(q)):
                kets = np.stack([symmetric_ket(n, j, phi).amplitudes for j in range(n + 1)])
                np.testing.assert_allclose(kets, frozen_kets(n, phi), rtol=0, atol=1e-14)
            np.testing.assert_allclose(clone, frozen_kets(n, q)[:n], rtol=0, atol=1e-14)
            if n > 1:
                np.testing.assert_allclose(
                    anti, frozen_kets(n - 1, anticlone(q)), rtol=0, atol=1e-14
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            symmetric_ket(2, 3, Qubit(1, 0))
        with pytest.raises(DomainError):
            symmetric_ket(0, 0, Qubit(1, 0))


class TestBuildGM:
    def test_single_clone_is_identity(self, rng):
        q = random_qubit(rng)
        out = build_gm(GMParameters(1, q))
        np.testing.assert_allclose(out.amplitudes, q.components(), atol=1e-14)

    def test_two_clones_of_zero(self):
        out = build_gm_basis(2, 0)
        expected = _state(
            3,
            {"001": math.sqrt(2 / 3), "010": -INV_SQRT6, "100": -INV_SQRT6},
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-14)

    def test_two_clones_of_one(self):
        out = build_gm_basis(2, 1)
        expected = _state(
            3,
            {"110": math.sqrt(2 / 3), "101": -INV_SQRT6, "011": -INV_SQRT6},
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("M", range(1, 7))
    def test_normalized(self, M, rng):
        q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
        assert abs(build_gm(GMParameters(M, q)).norm() - 1.0) < 1e-10

    def test_rejects_bad_clone_count(self):
        with pytest.raises(DomainError):
            GMParameters(0, Qubit(1, 0))

    @pytest.mark.parametrize("M", range(1, 7))
    def test_permutation_symmetry_within_sectors(self, M, rng):
        # any transposition of two clone positions or two anticlone
        # positions leaves the state invariant
        n = 2 * M - 1
        for _ in range(3):
            q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
            tensor = build_gm(GMParameters(M, q)).amplitudes.reshape((2,) * n)
            if M >= 2:
                i, j = rng.choice(M, size=2, replace=False)
                axes = list(range(n))
                axes[i], axes[j] = axes[j], axes[i]
                np.testing.assert_allclose(
                    tensor, tensor.transpose(axes), atol=1e-12
                )
            if M >= 3:
                i, j = rng.choice(np.arange(M, n), size=2, replace=False)
                axes = list(range(n))
                axes[i], axes[j] = axes[j], axes[i]
                np.testing.assert_allclose(
                    tensor, tensor.transpose(axes), atol=1e-12
                )


def _build_gm_per_sector(M, q):
    """Reference: one kron, scale and add over the register per sector j."""
    total = np.zeros(2 ** (2 * M - 1), dtype=np.complex128)
    for j in range(M):
        term = symmetric_ket(M, j, q).amplitudes
        if M > 1:
            term = np.kron(term, symmetric_ket(M - 1, j, anticlone(q)).amplitudes)
        total += gamma(M, j) * term
    return total


class TestFactoredBuild:
    @pytest.mark.parametrize("M", [1, 2, 3, 5, 9, 10, 11])
    def test_matches_per_sector_reference(self, M, rng):
        q = random_qubit(rng)
        np.testing.assert_allclose(
            build_gm(GMParameters(M, q)).amplitudes,
            _build_gm_per_sector(M, q),
            rtol=0,
            atol=1e-14,
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sector_kets_equal_symmetric_ket_bitwise(self, n, rng):
        q = random_qubit(rng)
        _, clone, anti = gm_factors(n, q)
        for j in range(n):
            assert np.array_equal(clone[j], symmetric_ket(n, j, q).amplitudes)
            if n > 1:
                expected = symmetric_ket(n - 1, j, anticlone(q)).amplitudes
                assert np.array_equal(anti[j], expected)

    def test_factor_shapes(self):
        weights, clone, anti = gm_factors(4, equatorial_qubit(0.3))
        assert weights.shape == (4,)
        assert clone.shape == (4, 16)
        assert anti.shape == (4, 8)
        assert gm_factors(1, Qubit(1, 0))[2].tolist() == [[1.0]]

    @pytest.mark.parametrize("M", [FULL_ENUMERATION_LIMIT + 1, 40])
    def test_register_guard(self, M):
        with pytest.raises(ResourceLimitError):
            build_gm(GMParameters(M, Qubit(1, 0)))


class TestDickeOutputs:
    # compile checks its export against the register of c, so the step from
    # the maps to c is held here to the sector kets assembled densely.
    SPECS = ["amps:0.3,-0.2,0.5,0.4", "equatorial:0.7", "basis:0", "basis:1"]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("M", range(1, FULL_ENUMERATION_LIMIT + 1))
    def test_register_of_c_is_the_factored_output(self, M, spec):
        q = parse_input_spec(spec)
        (c,) = dicke_outputs(M, [q])
        assert c.shape == (M + 1, M)
        difference = dicke_state(c).amplitudes
        difference -= gm_from_factors(*gm_factors(M, q)).amplitudes
        assert np.linalg.norm(difference) <= 1e-15


def analytic_bond_dims(M):
    return [min(k + 1, 2 * M - k, M) for k in range(2 * M)]


class TestGmMps:
    """``gm_mps`` against the Schmidt-value recursion, the dense SVD sweep
    and the SVD sweep over the Dicke matrix c, all in Oseledets' gauge."""

    INPUTS = {
        "amps": make_qubit(0.3 - 0.2j, 0.5 + 0.4j),
        "equatorial": equatorial_qubit(0.7),
        "basis:1": Qubit(0j, 1.0 + 0j),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("M", range(1, 13))
    def test_sites_are_left_canonical(self, M, name):
        mps, spectrum = gm_mps(M, self.INPUTS[name])
        assert mps.bond_dims() == analytic_bond_dims(M)
        for site in mps.sites[:-1]:
            matrix = site.transpose(1, 0, 2).reshape(-1, site.shape[2])
            gram = matrix.conj().T @ matrix
            assert np.max(np.abs(gram - np.eye(site.shape[2]))) <= 1e-14
        assert abs(np.linalg.norm(mps.sites[-1]) - 1) <= 1e-14
        assert spectrum.discarded_weight() == 0.0

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("M", range(1, 9))
    def test_cut_values_are_the_schmidt_spectrum(self, M, name):
        # Each cut lists the D_k values of its labels, with no rounding
        # tail; the dense sweep of the register keeps the same D_k values.
        q = self.INPUTS[name]
        mps, spectrum = gm_mps(M, q)
        _, dense = mps_from_state(dicke_state(dicke_outputs(M, [q])[0]))
        expected = schmidt_spectra(M)
        assert len(spectrum.cuts) == len(dense.cuts) == len(expected) == 2 * M - 2
        for cut, dense_cut, values, dim in zip(
            spectrum.cuts, dense.cuts, expected, analytic_bond_dims(M)[1:-1]
        ):
            assert cut.retained == dense_cut.retained == len(values) == dim
            assert np.all(np.diff(cut.singular_values) <= 0)
            assert np.max(np.abs(cut.singular_values - values)) <= 1e-13
            assert np.max(np.abs(dense_cut.singular_values[:dim] - values)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("M", range(2, 11))
    def test_truncation_is_the_svd_sweeps(self, M, name):
        # One rightward pass of label norms truncates as the SVD sweep does:
        # the same bond dimensions and ranks, and the same state.  tol 0.5
        # is left out: Lambda / Lambda_max = 1/2 exactly at some cuts, and
        # rounding puts that value on either side of the cut-off.
        q = self.INPUTS[name]
        (c,) = dicke_outputs(M, [q])
        for tol in (1e-12, 0.05, 0.1, 0.2, 0.3, 0.71, 0.999):
            mps, spectrum = gm_mps(M, q, tol)
            swept, swept_spectrum = mps_from_dicke(c, tol)
            assert mps.bond_dims() == swept.bond_dims()
            assert spectrum.retained_ranks() == swept_spectrum.retained_ranks()
            difference = mps_to_state(mps).amplitudes - mps_to_state(swept).amplitudes
            assert np.linalg.norm(difference) <= 1e-13
            assert abs(spectrum.discarded_weight() - swept_spectrum.discarded_weight()) <= 1e-13

    def test_tol_zero_keeps_the_analytic_dims(self):
        # Every label has a positive Schmidt value and nothing else is
        # listed, so tol 0 keeps exactly the labels.
        for M in range(1, 13):
            mps, spectrum = gm_mps(M, self.INPUTS["amps"], 0.0)
            assert mps.bond_dims() == analytic_bond_dims(M)
            assert all(cut.singular_values.min() > 0 for cut in spectrum.cuts)

    def test_single_clone_is_the_input(self):
        q = self.INPUTS["amps"]
        mps, spectrum = gm_mps(1, q)
        assert [site.shape for site in mps.sites] == [(2, 1, 1)]
        assert mps.sites[0].reshape(-1).tolist() == [q.alpha, q.beta]
        assert spectrum.cuts == []

    @pytest.mark.parametrize("M", [30, 50, 100])
    def test_past_the_guard(self, M):
        mps, spectrum = gm_mps(M, self.INPUTS["amps"])
        assert mps.bond_dims() == analytic_bond_dims(M)
        for cut in spectrum.cuts:
            assert abs(np.sum(cut.singular_values**2) - 1) <= 1e-13
        assert abs(np.linalg.norm(mps.sites[-1]) - 1) <= 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gm_mps(0, self.INPUTS["amps"])
        for tol in (1.0, -0.1):
            with pytest.raises(DomainError):
                gm_mps(3, self.INPUTS["amps"], tol)


class TestBuildGMBasis:
    def test_supports_m2(self):
        support0 = {
            format(i, "03b")
            for i in np.nonzero(np.abs(build_gm_basis(2, 0).amplitudes) > 1e-13)[0]
        }
        support1 = {
            format(i, "03b")
            for i in np.nonzero(np.abs(build_gm_basis(2, 1).amplitudes) > 1e-13)[0]
        }
        assert support0 == {"001", "010", "100"}
        assert support1 == {"110", "101", "011"}

    def test_single_clone_basis(self):
        np.testing.assert_allclose(
            build_gm_basis(1, 0).amplitudes, [1.0, 0.0], atol=1e-15
        )

    @pytest.mark.parametrize("M", range(1, 11))
    def test_popcounts_and_disjoint_supports(self, M):
        n = 2 * M - 1
        support0 = np.nonzero(np.abs(build_gm_basis(M, 0).amplitudes) > 1e-13)[0]
        support1 = np.nonzero(np.abs(build_gm_basis(M, 1).amplitudes) > 1e-13)[0]
        assert all(bin(i).count("1") == M - 1 for i in support0)
        assert all(bin(i).count("1") == M for i in support1)
        assert not set(support0) & set(support1)

    @pytest.mark.parametrize("M", range(1, 11))
    def test_coefficient_degeneracy_structure(self, M):
        # One magnitude per j-sector, gamma_j / sqrt(multiplicity); sectors
        # can collide (at M=3, j=1 and j=2 share 1/sqrt(18)), so the number
        # of distinct magnitudes is at most M, not exactly M.
        amps = build_gm_basis(M, 0).amplitudes
        support = np.nonzero(np.abs(amps) > 1e-13)[0]
        for idx in support:
            j = bin(idx >> (M - 1)).count("1")  # ones in the clone sector
            predicted = gamma(M, j) / math.sqrt(
                math.comb(M, j) * math.comb(M - 1, j)
            )
            assert abs(abs(amps[idx]) - predicted) < 1e-13
        distinct = np.unique(np.round(np.abs(amps[support]), 12))
        assert len(distinct) <= M

    def test_rejects_bad_bit(self):
        with pytest.raises(DomainError):
            build_gm_basis(2, 2)


class TestExpandOracle:
    def test_single_clone_equatorial(self):
        out = expand_gm_decomposed(1, make_qubit(INV_SQRT2, INV_SQRT2))
        np.testing.assert_allclose(
            out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-14
        )

    def test_basis_input_matches_builder(self):
        out = expand_gm_decomposed(2, Qubit(1, 0))
        np.testing.assert_allclose(
            out.amplitudes, build_gm_basis(2, 0).amplitudes, atol=1e-14
        )

    def test_equatorial_matches_builder(self):
        q = make_qubit(INV_SQRT2, INV_SQRT2)
        a = build_gm(GMParameters(2, q))
        b = expand_gm_decomposed(2, q)
        assert abs(abs(a.overlap(b)) - 1.0) < 1e-10

    @pytest.mark.parametrize("M", range(1, 8))
    def test_route_equivalence_random_equatorial(self, M, rng):
        # the oracle costs 0.7 s per input at M = 7
        phases = rng.uniform(0, 2 * np.pi, size=10 if M <= 5 else 1)
        inputs = ORACLE_INPUTS + [equatorial_qubit(phase) for phase in phases]
        for q in inputs:
            np.testing.assert_allclose(
                build_gm(GMParameters(M, q)).amplitudes,
                expand_gm_decomposed(M, q).amplitudes,
                rtol=0,
                atol=1e-13,
            )


class TestStateVector:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, np.inf)]
    )
    def test_rejects_non_finite_amplitudes(self, bad):
        amps = np.array([0.6, 0.8, 0, 0], dtype=np.complex128)
        amps[2] = bad
        with pytest.raises(DomainError, match="finite"):
            StateVector(2, amps)
