"""Tests for fidelities, nonlinearity, and the scaling sweep."""

import math

import numpy as np
import pytest

from gmclone import builder
from gmclone.analysis import (
    SCALING_CSV_HEADER,
    _analyze,
    _split_fidelity,
    analyze_cloner,
    scaling_csv,
    scaling_sweep,
    write_scaling_csv,
)
from gmclone.builder import _dicke_maps, dicke_outputs
from gmclone.errors import DomainError, ResourceLimitError
from gmclone.qubit import BASIS, Qubit, anticlone, equatorial_qubit, make_qubit, perp

from oracles import (
    GMParameters,
    StateVector,
    anticlone_fidelity,
    build_gm,
    build_gm_basis,
    clone_fidelity,
    reduced_density,
)
from test_builder import frozen_kets

# phase-minimized distance between cloning the equal superposition and
# superposing the two basis outputs at M=2; frozen from the dense oracle
# (overlap modulus 1/3, gap sqrt(2 * (1 - 1/3)))
GAP_M2_EQUATORIAL = math.sqrt(4.0 / 3.0)


def bell_state():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return StateVector(2, amps)


class TestReducedDensity:
    def test_product_state_pure(self):
        state = StateVector(2, np.array([1, 0, 0, 0], dtype=np.complex128))
        rho = reduced_density(state, [1])
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_state_maximally_mixed(self):
        rho = reduced_density(bell_state(), [1])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_gm2_first_clone(self):
        rho = reduced_density(build_gm_basis(2, 0), [1])
        np.testing.assert_allclose(
            rho.entries, np.diag([5 / 6, 1 / 6]), atol=1e-12
        )

    def test_density_invariants(self, rng):
        amps = rng.normal(size=2**4) + 1j * rng.normal(size=2**4)
        state = StateVector(4, amps / np.linalg.norm(amps))
        rho = reduced_density(state, [2, 4]).entries
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_keep_validation(self):
        with pytest.raises(DomainError):
            reduced_density(bell_state(), [])
        with pytest.raises(DomainError):
            reduced_density(bell_state(), [3])


class TestCloneFidelity:
    def test_single_clone_is_exact(self):
        state = build_gm_basis(1, 0)
        assert clone_fidelity(state, 1, Qubit(1, 0)) == [1.0]

    def test_m2_basis_value(self):
        fids = clone_fidelity(build_gm_basis(2, 0), 2, Qubit(1, 0))
        assert len(fids) == 2
        for f in fids:
            assert abs(f - 5 / 6) < 1e-12

    def test_m3_equatorial_value(self):
        q = equatorial_qubit(0.0)
        fids = clone_fidelity(build_gm(GMParameters(3, q)), 3, q)
        assert len(fids) == 3
        for f in fids:
            assert abs(f - 7 / 9) < 1e-12

    @pytest.mark.parametrize("M", range(1, 7))
    def test_clone_symmetry(self, M, rng):
        q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
        fids = clone_fidelity(build_gm(GMParameters(M, q)), M, q)
        assert max(fids) - min(fids) < 1e-10

    @pytest.mark.parametrize("M", range(2, 6))
    def test_state_independence(self, M, rng):
        values = []
        for _ in range(10):
            q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
            values.append(clone_fidelity(build_gm(GMParameters(M, q)), M, q)[0])
        assert max(values) - min(values) < 1e-10

    @pytest.mark.parametrize("M", range(1, 7))
    def test_optimal_universal_value(self, M, rng):
        q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
        fids = clone_fidelity(build_gm(GMParameters(M, q)), M, q)
        target = (2 * M + 1) / (3 * M)
        for f in fids:
            assert abs(f - target) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            clone_fidelity(bell_state(), 2, Qubit(1, 0))


class TestAnticloneFidelity:
    def test_no_anticlones_for_single_clone(self):
        assert anticlone_fidelity(build_gm_basis(1, 0), 1, Qubit(1, 0)) == []

    def test_values_symmetric_across_positions(self, rng):
        for M in (2, 3, 4):
            q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
            fids = anticlone_fidelity(build_gm(GMParameters(M, q)), M, q)
            assert len(fids) == M - 1
            if fids:
                assert max(fids) - min(fids) < 1e-10


def analyzed_gap(M, alpha, beta):
    return analyze_cloner(M, make_qubit(alpha, beta)).nonlinearity_gap


class TestNonlinearityGap:
    def test_basis_inputs_give_zero(self):
        assert analyzed_gap(2, 1, 0) < 1e-12
        assert analyzed_gap(2, 0, 1) < 1e-12

    def test_equal_superposition_m2(self):
        gap = analyzed_gap(2, 1 / math.sqrt(2), 1 / math.sqrt(2))
        assert gap > 0.1
        assert abs(gap - GAP_M2_EQUATORIAL) < 1e-10

    def test_single_clone_map_is_linear(self):
        assert analyzed_gap(1, 1 / math.sqrt(2), 1 / math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("M", range(2, 5))
    def test_positive_for_superpositions(self, M, rng):
        phase = rng.uniform(0, 2 * np.pi)
        q = equatorial_qubit(phase)
        assert analyzed_gap(M, q.alpha, q.beta) > 0.1


def dense_gap(M, q):
    # The gap on three dense registers, as the norm of the phase-aligned
    # difference (not from the norms and the overlap, whose difference
    # cancels to a residue of order 1e-16 that the root lifts to 1e-8).
    cloned = build_gm(GMParameters(M, q)).amplitudes
    superposed = (
        q.alpha * build_gm_basis(M, 0).amplitudes
        + q.beta * build_gm_basis(M, 1).amplitudes
    )
    overlap = np.vdot(superposed, cloned)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(cloned - phase * superposed))


class TestFactoredAnalysis:
    INPUTS = {
        "basis1": Qubit(0j, 1.0 + 0j),
        "equatorial": equatorial_qubit(2.1),
        "amps": make_qubit(0.3 - 0.2j, 0.5 + 0.4j),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("M", range(1, 12))
    def test_matches_dense_register(self, M, name):
        q = self.INPUTS[name]
        state = build_gm(GMParameters(M, q))
        result = analyze_cloner(M, q)
        assert len(result.clone_fidelities) == M
        assert len(result.anticlone_fidelities) == M - 1
        np.testing.assert_allclose(
            result.clone_fidelities, clone_fidelity(state, M, q), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            result.anticlone_fidelities,
            anticlone_fidelity(state, M, q),
            rtol=0,
            atol=1e-12,
        )
        assert abs(result.nonlinearity_gap - dense_gap(M, q)) < 1e-12

    @pytest.mark.parametrize("M", [1, 4, 12])
    def test_optimal_clone_fidelity(self, M):
        result = analyze_cloner(M, equatorial_qubit(0.3))
        target = (2 * M + 1) / (3 * M)
        assert max(abs(f - target) for f in result.clone_fidelities) < 1e-12

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            analyze_cloner(13, equatorial_qubit(0.0))


def dicke_projection(kets):
    """Rows of symmetric n-qubit kets on the Dicke basis |D_a>, a = 0..n."""
    n = kets.shape[1].bit_length() - 1
    ones = np.array([bin(x).count("1") for x in range(2**n)])
    basis = np.zeros((2**n, n + 1))
    basis[np.arange(2**n), ones] = 1 / np.sqrt([math.comb(n, a) for a in ones])
    return kets @ basis


class TestDickeAnalysis:
    BASE = [
        Qubit(1.0 + 0j, 0j),
        Qubit(0j, 1.0 + 0j),
        equatorial_qubit(2.1),
        make_qubit(0.3 - 0.2j, 0.5 + 0.4j),
    ]
    QUBITS = BASE + [anticlone(q) for q in BASE]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_maps_are_dicke_projections_of_symmetric_kets(self, n):
        short, full = _dicke_maps(n, self.QUBITS)
        assert short.shape == (len(self.QUBITS), n, n)
        assert full.shape == (len(self.QUBITS), n + 1, n + 1)
        for maps, m in ((full, n), (short, n - 1)):
            for q, rows in zip(self.QUBITS, maps):
                if m == 0:
                    assert rows.tolist() == [[1.0]]
                    continue
                np.testing.assert_allclose(
                    rows, dicke_projection(frozen_kets(m, q)), rtol=0, atol=1e-14
                )
                np.testing.assert_allclose(rows @ rows.conj().T, np.eye(m + 1), atol=1e-14)

    def test_builds_no_sector_ket_and_no_register(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analysis must stay on the Dicke basis")

        monkeypatch.setattr(builder, "_dicke_kets", refuse)
        q = equatorial_qubit(0.4)
        result = analyze_cloner(7, q)
        assert abs(result.clone_fidelities[0] - 15 / 21) < 1e-12
        assert result.nonlinearity_gap > 0.1

    @pytest.mark.parametrize("name", ["equatorial", "amps"])
    def test_stable_at_a_hundred_clones(self, name):
        M = 100
        q = TestFactoredAnalysis.INPUTS[name]
        (cloned,) = dicke_outputs(M, [q])
        assert cloned.shape == (M + 1, M)
        assert abs(np.linalg.norm(cloned) - 1) <= 1e-13
        result = _analyze(M, q)
        assert len(result.clone_fidelities) == M
        assert len(result.anticlone_fidelities) == M - 1
        target = (2 * M + 1) / (3 * M)
        assert abs(result.clone_fidelities[0] - target) <= 1e-13

    def test_gap_guard(self):
        with pytest.raises(ResourceLimitError):
            analyzed_gap(13, 1 / math.sqrt(2), 1 / math.sqrt(2))
        with pytest.raises(DomainError):
            analyzed_gap(0, 1, 0)


def _random_qubit(seed):
    parts = np.random.default_rng(seed).normal(size=4)
    return make_qubit(complex(*parts[:2]), complex(*parts[2:]))


class TestLinearity:
    """The cloner is a unitary, so its output is linear in the input.  The
    builder gives the anticlones anticlone(psi), which is neither linear nor
    antilinear in psi; with perp(psi) in its place the output is
    alpha c(|0>) + (-1)^(M-1) beta c(|1>), from the two basis outputs (the
    stage's two classes) alone, and its clones are still optimal."""

    INPUTS = {
        "amps": make_qubit(0.3 - 0.2j, 0.5 + 0.4j),
        "equatorial": equatorial_qubit(0.7),
        **{f"random{seed}": _random_qubit(seed) for seed in (1, 2, 3)},
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_basis_outputs_sum_to_the_perp_anticlone_output(self, name):
        q = self.INPUTS[name]
        for M in range(1, 41):
            zero, one = dicke_outputs(M, BASIS)
            linear = q.alpha * zero + (-1) ** (M - 1) * q.beta * one
            # c = R_C^T diag(gamma) R_A with R_A the maps of perp(q)
            short, full = _dicke_maps(M, [q, perp(q)])
            weights = np.array([builder.gamma(M, j) for j in range(M)])
            expected = (full[0, :M] * weights[:, None]).T @ short[1]
            overlap = np.vdot(linear, expected)
            assert abs(abs(overlap) - 1) <= 1e-13
            assert np.linalg.norm(expected - overlap / abs(overlap) * linear) <= 1e-13
            fidelity = _split_fidelity(linear, q, M)[0]
            assert abs(fidelity - (2 * M + 1) / (3 * M)) <= 1e-13


class TestScalingSweep:
    def test_single_row(self):
        rows = scaling_sweep(1, 1, 1e-12)
        assert len(rows) == 1
        assert rows[0].bond_dim == 1
        assert rows[0].num_qubits == 1

    def test_m2_bond_dim(self):
        rows = scaling_sweep(2, 2, 1e-12)
        assert rows[0].bond_dim == 2

    def test_full_range(self):
        rows = scaling_sweep(1, 8, 1e-12)
        assert len(rows) == 8
        dims = [row.bond_dim for row in rows]
        assert all(row.bond_dim <= 2 * row.M for row in rows)
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        assert all(row.bond_dim == max(row.cut_ranks, default=1) for row in rows)
        assert rows[-1].num_qubits == 15

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            scaling_sweep(1, 13, 1e-12)
        with pytest.raises(DomainError):
            scaling_sweep(3, 2, 1e-12)

    def test_csv_format(self, tmp_path):
        rows = scaling_sweep(1, 3, 1e-12)
        text = scaling_csv(rows)
        lines = text.splitlines()
        assert lines[0] == SCALING_CSV_HEADER
        assert lines[2].startswith("2,3,2,2;2,")
        path = tmp_path / "scaling.csv"
        write_scaling_csv(path, rows)
        assert path.read_text() == text
