"""Tests for the MPS container, its contraction and export, and the SVD
sweeps of ``tests/oracles.py`` that the closed-form MPS is checked against."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmclone.builder import dicke_outputs
from gmclone.cli import EXIT_OK, main
from gmclone.errors import DomainError, MalformedMPSError, StageParseError
from gmclone._format import dumps_17g
from gmclone.mps import (
    BondCut,
    BondSpectrum,
    MatrixProductState,
    bond_dimension,
    export_document,
    load_mps,
    save_mps,
)
from gmclone.qubit import BASIS, equatorial_qubit, make_qubit

from oracles import (
    DegenerateStateError,
    GMParameters,
    StateVector,
    build_gm,
    build_gm_basis,
    combine_basis_mps,
    dicke_state,
    mps_from_dicke,
    mps_from_state,
    mps_to_state,
)
from test_format import as_lists, recursive_dumps


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def gram_ranks(state, tol):
    """Independent rank oracle: eigenvalues of the per-cut Gram matrix.

    Gram eigenvalues are squared singular values, so the cutoff is tol**2 —
    floored at 1e-12 * largest because eigvalsh noise on true zeros sits
    around machine epsilon times the largest eigenvalue, far above tol**2
    for tol = 1e-12.  The states exercised here keep all genuine singular
    values well clear of that band.
    """
    n = state.num_qubits
    ranks = []
    for k in range(1, n):
        matrix = state.amplitudes.reshape(2**k, -1)
        eigs = np.linalg.eigvalsh(matrix @ matrix.conj().T)
        cutoff = max(tol**2, 1e-12) * eigs[-1]
        ranks.append(int(np.sum(eigs > cutoff)))
    return ranks


class TestCompile:
    def test_single_qubit_site_matrices(self):
        q = make_qubit(0.6, 0.8j)
        mps, spectrum = mps_from_state(StateVector(1, q.components()), 0.0)
        assert mps.num_sites == 1
        assert mps.sites[0].shape == (2, 1, 1)
        assert abs(mps.sites[0][0, 0, 0] - 0.6) < 1e-15
        assert abs(mps.sites[0][1, 0, 0] - 0.8j) < 1e-15
        assert spectrum.cuts == []

    def test_product_state_rank_one(self):
        state = StateVector(2, np.array([1, 0, 0, 0], dtype=np.complex128))
        mps, spectrum = mps_from_state(state, 0.0)
        assert spectrum.retained_ranks() == [1]
        np.testing.assert_allclose(
            mps_to_state(mps).amplitudes, state.amplitudes, atol=1e-14
        )

    def test_m2_basis_bond_profile(self):
        mps, spectrum = mps_from_state(build_gm_basis(2, 0), 1e-12)
        assert mps.bond_dims() == [1, 2, 2, 1]
        assert bond_dimension(mps) == 2
        assert spectrum.retained_ranks() == [2, 2]

    def test_boundaries_are_scalars(self):
        mps, _ = mps_from_state(build_gm_basis(3, 1), 1e-12)
        assert mps.left_boundary.shape == (1,)
        assert mps.right_boundary.shape == (1,)

    def test_singular_values_descending(self, rng):
        _, spectrum = mps_from_state(random_state(rng, 6), 0.0)
        for cut in spectrum.cuts:
            s = cut.singular_values
            assert np.all(s[:-1] >= s[1:])
            assert np.all(s >= 0)

    def test_tol_domain(self, rng):
        state = random_state(rng, 3)
        with pytest.raises(DomainError):
            mps_from_state(state, 1.0)
        with pytest.raises(DomainError):
            mps_from_state(state, -0.1)

    def test_zero_state_degenerate(self):
        state = StateVector(2, np.zeros(4, dtype=np.complex128))
        with pytest.raises(DegenerateStateError):
            mps_from_state(state, 0.0)


def _assert_same_cuts(spectrum, dense_spectrum):
    assert spectrum.retained_ranks() == dense_spectrum.retained_ranks()
    assert spectrum.tolerance == dense_spectrum.tolerance
    for cut, dense_cut in zip(spectrum.cuts, dense_spectrum.cuts, strict=True):
        kept = cut.singular_values[: cut.retained]
        dense_kept = dense_cut.singular_values[: dense_cut.retained]
        assert np.max(np.abs(kept - dense_kept)) <= 1e-13 * dense_kept[0]


class TestFromDicke:
    """The SVD sweep in Dicke coordinates (``mps_from_dicke``) against the
    dense sweep of the same register (``mps_from_state``), both in
    ``tests/oracles.py``."""

    INPUTS = {
        "equatorial": equatorial_qubit(0.7),
        "amps": make_qubit(complex(0.3, -0.2), complex(0.5, 0.4)),
        "basis:0": BASIS[0],
        "basis:1": BASIS[1],
    }
    SOURCES = sorted(INPUTS)

    def _c(self, M, name):
        return dicke_outputs(M, [self.INPUTS[name]])[0]

    def _both_sweeps(self, M, name, tol=1e-12):
        c = self._c(M, name)
        state = dicke_state(c)
        return state, mps_from_state(state, tol), mps_from_dicke(c, tol)

    @pytest.mark.parametrize("name", SOURCES)
    @pytest.mark.parametrize("M", range(1, 11))
    def test_matches_the_dense_sweep(self, M, name):
        # At tol 1e-12 and 0.3 the sweeps keep the same values; the dense
        # register is the state itself.
        for tol in (1e-12, 0.3):
            state, (dense, dense_spectrum), (mps, spectrum) = self._both_sweeps(M, name, tol)
            assert mps.bond_dims() == dense.bond_dims()
            _assert_same_cuts(spectrum, dense_spectrum)
            error = np.linalg.norm(mps_to_state(mps).amplitudes - state.amplitudes)
            if tol == 0.3:
                assert error <= math.sqrt(spectrum.discarded_weight()) + 1e-13
            else:
                assert np.max(np.abs(mps_to_state(mps).amplitudes - state.amplitudes)) <= 1e-13

    @pytest.mark.parametrize("name", SOURCES)
    @pytest.mark.parametrize("M", range(1, 11))
    def test_tol_zero_is_exact(self, M, name):
        # At tol 0 both sweeps keep rounding noise, as many values as their
        # cuts are wide, so their ranks differ; the Dicke cuts list
        # min(2 D_k, m T) values and contract back to the register.
        c = self._c(M, name)
        mps, spectrum = mps_from_dicke(c, 0.0)
        # Cut k <= M has the M - k + 1 clone Dicke states left times the M of
        # the anticlones; cut M + t has the M - t anticlone states left.
        widths = [(M - k + 1) * M for k in range(1, M + 1)] + list(range(M - 1, 1, -1))
        widths = widths[: 2 * M - 2]
        dims = mps.bond_dims()
        assert [cut.singular_values.size for cut in spectrum.cuts] == [
            min(2 * d, w) for d, w in zip(dims, widths)
        ]
        back = mps_to_state(mps).amplitudes
        assert np.max(np.abs(back - dicke_state(c).amplitudes)) <= 1e-13

    @pytest.mark.parametrize("name", ["amps", "equatorial"])
    @pytest.mark.parametrize("M", range(1, 11))
    def test_contracts_to_the_dense_sweep_state(self, M, name):
        # Both sweeps keep U as the site and carry S Wh forward, so neither
        # site absorbs a singular value; when the dense sweep's site took
        # U S instead, its MPS contracted 1.7e-13 off the register at
        # M = 10 (amps).
        _, (dense, _), (mps, _) = self._both_sweeps(M, name)
        back = mps_to_state(mps).amplitudes
        assert np.max(np.abs(back - mps_to_state(dense).amplitudes)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        front=st.integers(1, 6),
        back=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_dicke_matrices(self, front, back, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(front + 1, back + 1)) + 1j * rng.normal(size=(front + 1, back + 1))
        state = dicke_state(c)
        mps, spectrum = mps_from_dicke(c, 1e-12)
        assert mps.num_sites == front + back
        scale = max(1.0, float(np.max(np.abs(state.amplitudes))))
        assert np.max(np.abs(mps_to_state(mps).amplitudes - state.amplitudes)) <= 1e-13 * scale
        dense, dense_spectrum = mps_from_state(state, 1e-12)
        assert mps.bond_dims() == dense.bond_dims()
        _assert_same_cuts(spectrum, dense_spectrum)

    @pytest.mark.parametrize(
        "front, back",
        [
            (1, 0),  # M = 1: one qubit, an empty anticlone register
            (1, 4),  # the front block is one qubit
            (4, 1),  # the back block is one qubit
            (5, 0),  # one symmetric block
            (2, 5),  # a back block wider than the front
        ],
    )
    def test_ragged_shapes_roundtrip(self, front, back, rng):
        c = rng.normal(size=(front + 1, back + 1)) + 1j * rng.normal(size=(front + 1, back + 1))
        mps, _ = mps_from_dicke(c, 0.0)
        assert mps.num_sites == front + back
        assert np.max(np.abs(mps_to_state(mps).amplitudes - dicke_state(c).amplitudes)) <= 1e-13

    @pytest.mark.parametrize(
        "shape", [(1, 3), (1, 1), (0, 2), (3, 0), (4,), (2, 2, 2)]
    )
    def test_bad_shapes_refused(self, shape):
        with pytest.raises(DomainError):
            mps_from_dicke(np.ones(shape, dtype=np.complex128), 1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_refused(self, value):
        c = np.ones((3, 2), dtype=np.complex128)
        c[1, 0] = value
        with pytest.raises(DomainError, match="finite"):
            mps_from_dicke(c, 1e-12)

    @pytest.mark.parametrize("shape", [(2, 1), (3, 2), (13, 12), (4, 4)])
    def test_zero_state_degenerate(self, shape):
        with pytest.raises(DegenerateStateError):
            mps_from_dicke(np.zeros(shape), 0.0)

    def test_tol_domain(self):
        for tol in (1.0, -0.1):
            with pytest.raises(DomainError):
                mps_from_dicke(np.ones((2, 1)), tol)


class TestReconstruction:
    def test_exact_roundtrip_gm_equatorial(self):
        state = build_gm(GMParameters(2, equatorial_qubit(0.0)))
        mps, _ = mps_from_state(state, 0.0)
        back = mps_to_state(mps)
        assert abs(abs(state.overlap(back)) - 1.0) < 1e-10

    def test_m2_basis_reconstruction(self):
        state = build_gm_basis(2, 0)
        mps, _ = mps_from_state(state, 1e-12)
        np.testing.assert_allclose(
            mps_to_state(mps).amplitudes, state.amplitudes, atol=1e-12
        )

    def test_identity_sites_give_all_zeros_ket(self):
        site = np.zeros((2, 1, 1), dtype=np.complex128)
        site[0, 0, 0] = 1.0
        mps = MatrixProductState(
            sites=[site.copy() for _ in range(3)],
            left_boundary=np.ones(1, dtype=np.complex128),
            right_boundary=np.ones(1, dtype=np.complex128),
        )
        amps = mps_to_state(mps).amplitudes
        expected = np.zeros(8, dtype=np.complex128)
        expected[0] = 1.0
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_exact_roundtrip_random(self, n, rng):
        state = random_state(rng, n)
        mps, _ = mps_from_state(state, 0.0)
        back = mps_to_state(mps)
        assert abs(abs(state.overlap(back)) - 1.0) < 1e-10
        # the sweep fixes all phases, so equality is componentwise too
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_bond_mismatch_rejected(self):
        good = np.ones((2, 1, 2), dtype=np.complex128)
        bad = np.ones((2, 3, 1), dtype=np.complex128)
        with pytest.raises(MalformedMPSError):
            MatrixProductState(
                sites=[good, bad],
                left_boundary=np.ones(1, dtype=np.complex128),
                right_boundary=np.ones(1, dtype=np.complex128),
            )


class TestTruncation:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_error_bounded_by_discarded_weight(self, tol, rng):
        for _ in range(5):
            state = random_state(rng, 9)
            mps, spectrum = mps_from_state(state, tol)
            back = mps_to_state(mps)
            err = float(np.linalg.norm(state.amplitudes - back.amplitudes))
            assert err <= math.sqrt(spectrum.discarded_weight()) + 1e-12

    def test_retained_rank_counts_relative_threshold(self, rng):
        state = random_state(rng, 6)
        _, spectrum = mps_from_state(state, 1e-1)
        for cut in spectrum.cuts:
            expected = int(np.sum(cut.singular_values > 1e-1 * cut.singular_values[0]))
            assert cut.retained == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_schmidt_rank_consistency(self, n, rng):
        tol = 1e-12
        states = [random_state(rng, n)]
        if n % 2 == 1:
            M = (n + 1) // 2
            states.append(build_gm(GMParameters(M, equatorial_qubit(0.3))))
        for state in states:
            _, spectrum = mps_from_state(state, tol)
            assert spectrum.retained_ranks() == gram_ranks(state, tol)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_bond_bound_two_m(self, M, rng):
        q = equatorial_qubit(rng.uniform(0, 2 * np.pi))
        mps, _ = mps_from_state(build_gm(GMParameters(M, q)), 1e-12)
        assert bond_dimension(mps) <= 2 * M


class TestCombine:
    def _basis_pair(self, M):
        mps0, _ = mps_from_state(build_gm_basis(M, 0), 1e-12)
        mps1, _ = mps_from_state(build_gm_basis(M, 1), 1e-12)
        return mps0, mps1

    def test_pure_alpha_recovers_first_input(self):
        mps0, mps1 = self._basis_pair(2)
        combined = combine_basis_mps(mps0, mps1, 1.0, 0.0)
        np.testing.assert_allclose(
            mps_to_state(combined).amplitudes,
            build_gm_basis(2, 0).amplitudes,
            atol=1e-12,
        )

    def test_equal_superposition_m2(self):
        mps0, mps1 = self._basis_pair(2)
        combined = combine_basis_mps(mps0, mps1, 1 / math.sqrt(2), 1 / math.sqrt(2))
        expected = (
            build_gm_basis(2, 0).amplitudes + build_gm_basis(2, 1).amplitudes
        ) / math.sqrt(2)
        np.testing.assert_allclose(
            mps_to_state(combined).amplitudes, expected, atol=1e-10
        )
        assert bond_dimension(combined) == 4

    def test_differs_from_cloning_the_superposition(self):
        # the cloning map is nonlinear: superposing the basis outputs is not
        # the output of the superposed input
        mps0, mps1 = self._basis_pair(2)
        combined = combine_basis_mps(mps0, mps1, 1 / math.sqrt(2), 1 / math.sqrt(2))
        direct = build_gm(GMParameters(2, make_qubit(1, 1)))
        overlap = abs(direct.overlap(mps_to_state(combined)))
        assert overlap < 1 - 1e-3

    def test_reconstruction_linear_in_weights(self, rng):
        mps0, mps1 = self._basis_pair(3)
        s0 = build_gm_basis(3, 0).amplitudes
        s1 = build_gm_basis(3, 1).amplitudes
        for _ in range(3):
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combined = combine_basis_mps(mps0, mps1, alpha, beta)
            np.testing.assert_allclose(
                mps_to_state(combined).amplitudes,
                alpha * s0 + beta * s1,
                atol=1e-12,
            )

    def test_bond_dimension_doubles(self):
        for M in range(1, 5):
            mps0, mps1 = self._basis_pair(M)
            combined = combine_basis_mps(mps0, mps1, 0.6, 0.8)
            assert bond_dimension(combined) == bond_dimension(mps0) + bond_dimension(mps1)

    def test_length_mismatch(self):
        mps0, _ = mps_from_state(build_gm_basis(2, 0), 1e-12)
        mps1, _ = mps_from_state(build_gm_basis(3, 1), 1e-12)
        with pytest.raises(DomainError):
            combine_basis_mps(mps0, mps1, 1.0, 0.0)


class TestExportImport:
    def test_lossless_roundtrip(self, tmp_path, rng):
        state = build_gm(GMParameters(3, equatorial_qubit(1.1)))
        mps, spectrum = mps_from_state(state, 1e-12)
        path = tmp_path / "mps.json"
        save_mps(path, mps, spectrum)
        loaded, loaded_spectrum = load_mps(path)
        assert loaded.num_sites == mps.num_sites
        for a, b in zip(mps.sites, loaded.sites):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.left_boundary, mps.left_boundary)
        np.testing.assert_array_equal(loaded.right_boundary, mps.right_boundary)
        assert loaded_spectrum.tolerance == spectrum.tolerance
        assert loaded_spectrum.retained_ranks() == spectrum.retained_ranks()
        for a, b in zip(spectrum.cuts, loaded_spectrum.cuts):
            np.testing.assert_array_equal(a.singular_values, b.singular_values)

    def test_rewrite_byte_identical(self, tmp_path):
        mps, spectrum = mps_from_state(build_gm_basis(2, 1), 1e-12)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_mps(first, mps, spectrum)
        loaded, loaded_spectrum = load_mps(first)
        save_mps(second, loaded, loaded_spectrum)
        assert first.read_bytes() == second.read_bytes()


def _synthetic_mps(M, rng):
    """Random sites and spectrum with the cloner's bond dims at M."""
    n = 2 * M - 1
    dims = [1] + [min(k + 1, 2 * M - k, M) for k in range(1, n)] + [1]
    sites = [
        rng.normal(size=(2, a, b)) + 1j * rng.normal(size=(2, a, b))
        for a, b in zip(dims, dims[1:])
    ]
    ones = np.ones(1, dtype=np.complex128)
    cuts = [BondCut(np.sort(rng.random(d))[::-1], d) for d in dims[1:-1]]
    return MatrixProductState(sites, ones, ones), BondSpectrum(cuts, 1e-12)


class TestExportBytes:
    """``save_mps`` writes what the frozen recursive renderer makes of the
    plain-list document, and holds one array's text at a time."""

    @pytest.mark.parametrize(
        "M, tol", [(M, None) for M in range(1, 13)] + [(6, "0.3")]
    )
    def test_compile_matches_the_recursive_renderer(self, tmp_path, M, tol):
        argv = ["compile", "--clones", str(M), "--input", "amps:0.6,0.1,-0.2,0.77"]
        argv += ["--tol", tol] if tol else []
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        compiled, spectrum = load_mps(tmp_path / "mps.json")
        expected = recursive_dumps(as_lists(export_document(compiled, spectrum)))
        assert (tmp_path / "mps.json").read_text() == expected
        report = (tmp_path / "compile_report.json").read_text()
        assert report == recursive_dumps(json.loads(report))

    def test_synthetic_m30_matches_the_recursive_renderer(self, tmp_path, rng):
        compiled, spectrum = _synthetic_mps(30, rng)
        save_mps(tmp_path / "mps.json", compiled, spectrum)
        expected = recursive_dumps(as_lists(export_document(compiled, spectrum)))
        assert (tmp_path / "mps.json").read_text() == expected

    def test_document_holds_views_of_the_sites(self, rng):
        compiled, spectrum = _synthetic_mps(3, rng)
        doc = export_document(compiled, spectrum)
        for site, A in zip(doc["sites"], compiled.sites):
            assert np.shares_memory(site["entries"], A)
            assert site["entries"].shape == (A.size, 2)
            np.testing.assert_array_equal(site["entries"][:, 0], A.real.reshape(-1))

    def test_peak_memory_below_half_the_file(self, tmp_path):
        compiled, spectrum = mps_from_dicke(dicke_outputs(12, [equatorial_qubit(0.3)])[0])
        path = tmp_path / "mps.json"
        save_mps(path, compiled, spectrum)
        tracemalloc.start()
        try:
            save_mps(path, compiled, spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


def _valid_document():
    """The plain-list form of an export, so that _paths reaches every number."""
    mps, spectrum = mps_from_state(build_gm(GMParameters(2, equatorial_qubit(0.4))), 1e-12)
    return json.loads(dumps_17g(export_document(mps, spectrum)))


def _paths(node, prefix=()):
    """Every key or index path into a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


VALID_DOCUMENT = _valid_document()
DOCUMENT_PATHS = list(_paths(VALID_DOCUMENT))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _assert_loaded_document_is_valid(mps, spectrum):
    for A in mps.sites:
        assert A.shape[0] == 2 and min(A.shape) >= 1
        assert np.isfinite(A).all()
    assert np.isfinite(mps.left_boundary).all()
    assert np.isfinite(mps.right_boundary).all()
    assert 0.0 <= spectrum.tolerance < 1.0
    for cut in spectrum.cuts:
        assert np.isfinite(cut.singular_values).all()
        assert (cut.singular_values >= 0).all()
        assert type(cut.retained) is int
        assert 0 <= cut.retained <= cut.singular_values.size
    assert spectrum.retained_ranks() == mps.bond_dims()[1:-1]


class TestLoadValidation:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("sites", 0, "entries", 0, 0), math.nan),
            (("sites", 1, "entries", 3, 1), math.inf),
            (("left_boundary", 0, 1), -math.inf),
            (("right_boundary", 0, 0), math.nan),
            (("spectrum", "cuts", 0, "singular_values", 1), math.nan),
            (("spectrum", "cuts", 0, "singular_values", 1), -0.5),
            (("spectrum", "cuts", 0, "retained"), 1.7),
            (("spectrum", "cuts", 0, "retained"), -3),
            (("spectrum", "cuts", 0, "retained"), 3),
            (("spectrum", "cuts", 0, "retained"), "x"),
            (("spectrum", "cuts", 0, "retained"), None),
            (("spectrum", "cuts", 0, "retained"), True),
            (("spectrum", "tolerance"), "abc"),
            (("spectrum", "tolerance"), None),
            (("spectrum", "tolerance"), 1.5),
            (("sites", 2, "shape"), [2, 1, -1]),
            (("sites", 2, "shape"), [2, 2, 2]),
            (("sites", 0, "entries", 0), ["1", 0]),
            (("sites", 0, "entries", 0), [10**400, 0]),
            (("num_qubits",), 7),
            (("num_qubits",), "x"),
            (("num_qubits",), 3.0),
        ],
    )
    def test_rejects_bad_value(self, tmp_path, path, value):
        doc = copy.deepcopy(VALID_DOCUMENT)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = tmp_path / "mps.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(StageParseError):
            load_mps(target)

    @pytest.mark.parametrize(
        "path",
        [
            ("spectrum", "cuts"), ("spectrum", "tolerance"), ("sites",), ("left_boundary",),
            ("num_qubits",), ("spectrum",),
        ],
    )
    def test_rejects_missing_field(self, tmp_path, path):
        doc = copy.deepcopy(VALID_DOCUMENT)
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        target = tmp_path / "mps.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(StageParseError, match="missing field"):
            load_mps(target)

    @pytest.mark.parametrize(
        "extra_cut, first_retained",
        [(True, 1), (True, 2), (False, 1)],
    )
    def test_rejects_spectrum_that_contradicts_the_bonds(
        self, tmp_path, extra_cut, first_retained
    ):
        """A spectrum needs one cut per inner bond, retaining its dimension:
        the M = 2 document has bonds [1, 2, 2, 1], so cuts retain [2, 2]."""
        doc = copy.deepcopy(VALID_DOCUMENT)
        cuts = doc["spectrum"]["cuts"]
        if extra_cut:
            cuts.append(copy.deepcopy(cuts[-1]))
        cuts[0]["retained"] = first_retained
        target = tmp_path / "mps.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(StageParseError, match="inner bonds") as info:
            load_mps(target)
        assert info.value.line_number == 0

    def test_rejects_non_ascii(self, tmp_path):
        target = tmp_path / "mps.json"
        target.write_bytes(json.dumps(VALID_DOCUMENT).encode() + b" \xff")
        with pytest.raises(StageParseError):
            load_mps(target)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        path=st.sampled_from(DOCUMENT_PATHS),
        value=JSON_VALUES,
        delete=st.booleans(),
    )
    def test_replaced_values_load_valid_or_fail_as_documented(
        self, tmp_path, path, value, delete
    ):
        """A document with any one value replaced or removed either loads
        into a valid MPS and spectrum or fails with a documented error."""
        doc = copy.deepcopy(VALID_DOCUMENT)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        target = tmp_path / "mps.json"
        target.write_text(json.dumps(doc))
        try:
            mps, spectrum = load_mps(target)
        except (StageParseError, MalformedMPSError):
            return
        _assert_loaded_document_is_valid(mps, spectrum)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 2000), st.sampled_from(list(b"0159.-e,[]{}\": tnNI\xff"))),
            max_size=3,
        ),
        cut=st.tuples(st.integers(0, 2000), st.integers(0, 3)),
    )
    def test_corrupted_bytes_load_valid_or_fail_as_documented(self, tmp_path, edits, cut):
        """Byte edits of a saved document either load into a valid MPS and
        spectrum or fail with a documented error, never a raw exception."""
        data = bytearray(dumps_17g(VALID_DOCUMENT).encode("ascii"))
        for pos, byte in edits:
            data[pos % len(data)] = byte
        start = cut[0] % len(data)
        del data[start : start + cut[1]]
        target = tmp_path / "mps.json"
        target.write_bytes(bytes(data))
        try:
            mps, spectrum = load_mps(target)
        except (StageParseError, MalformedMPSError):
            return
        _assert_loaded_document_is_valid(mps, spectrum)
