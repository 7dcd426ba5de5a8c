"""Unit tests for single-qubit algebra and index conventions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmclone.errors import InvalidStateError
from gmclone.pipeline import _bit_rows
from gmclone.qubit import (
    Qubit,
    anticlone,
    equatorial_qubit,
    make_qubit,
    perp,
)

INV_SQRT2 = 1 / math.sqrt(2)


def bloch(theta, phi):
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return make_qubit(math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))


def bits_of(indices, width):
    """The bitstrings the stage writers give ``indices`` at ``width``."""
    rows = _bit_rows(np.asarray(indices, dtype=np.int64), width)[:, :width]
    return [row.tobytes().decode("ascii") for row in rows]


class TestMakeQubit:
    def test_basis_state(self):
        q = make_qubit(1, 0)
        assert q.alpha == 1 and q.beta == 0

    def test_equatorial_state(self):
        q = make_qubit(INV_SQRT2, INV_SQRT2)
        assert abs(q.alpha - INV_SQRT2) < 1e-15
        assert abs(q.beta - INV_SQRT2) < 1e-15

    def test_scaling_invariance(self):
        q = make_qubit(2, 0)
        assert q.alpha == 1 and q.beta == 0

    def test_zero_state_rejected(self):
        with pytest.raises(InvalidStateError):
            make_qubit(0, 0)

    def test_normalized_input_unchanged(self):
        q = make_qubit(0.6, 0.8j)
        assert abs(q.alpha - 0.6) <= 1e-15
        assert abs(q.beta - 0.8j) <= 1e-15

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (math.nan, 0),
            (1, complex(0, math.nan)),
            (math.inf, 0),
            (0, complex(-math.inf, 1)),
            (complex(1.7e308, 1.7e308), 0),
        ],
    )
    def test_non_finite_or_overflowing_rejected(self, alpha, beta):
        with pytest.raises(InvalidStateError):
            make_qubit(alpha, beta)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310, 5e-324])
    def test_extreme_scales_normalize_exactly(self, scale):
        # Squaring these moduli would overflow or underflow to zero.
        q = make_qubit(scale, 0)
        assert q.alpha == 1 and q.beta == 0
        q = make_qubit(0, -scale * 1j)
        assert q.alpha == 0 and q.beta == -1j

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales_keep_ratio(self, scale):
        q = make_qubit(3 * scale, 4j * scale)
        assert abs(q.alpha - 0.6) <= 1e-15
        assert abs(q.beta - 0.8j) <= 1e-15

    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
        st.complex_numbers(max_magnitude=1e3),
    )
    def test_always_normalized(self, a, b):
        q = make_qubit(a, b)
        assert abs(abs(q.alpha) ** 2 + abs(q.beta) ** 2 - 1.0) < 1e-12


class TestPerp:
    def test_basis(self):
        p = perp(Qubit(1, 0))
        assert p.alpha == 0 and p.beta == -1

    def test_real_equatorial(self):
        p = perp(make_qubit(INV_SQRT2, INV_SQRT2))
        assert abs(p.alpha - INV_SQRT2) < 1e-15
        assert abs(p.beta + INV_SQRT2) < 1e-15

    def test_bloch_form(self):
        # symbolic substitution: (cos t/2, e^{i phi} sin t/2)
        #   -> (e^{-i phi} sin t/2, -cos t/2), checked at t=pi/3, phi=pi/4
        theta, phi = math.pi / 3, math.pi / 4
        p = perp(bloch(theta, phi))
        assert abs(p.alpha - cmath.exp(-1j * phi) * math.sin(theta / 2)) < 1e-15
        assert abs(p.beta + math.cos(theta / 2)) < 1e-15

    def test_orthogonality(self, rng):
        for _ in range(100):
            q = make_qubit(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            assert abs(np.vdot(q.components(), perp(q).components())) <= 1e-14

    def test_involution_up_to_phase(self, rng):
        for _ in range(100):
            q = make_qubit(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            assert abs(abs(np.vdot(q.components(), perp(perp(q)).components())) - 1.0) < 1e-12


class TestAnticlone:
    def test_basis_states(self):
        assert anticlone(Qubit(1, 0)) == Qubit(0, 1)
        assert anticlone(Qubit(0, 1)) == Qubit(1, 0)

    def test_complex_equatorial(self):
        # direct substitution, cross-checked against the Bloch form
        # e^{-i phi} sin(t/2)|0> + cos(t/2)|1> at t=pi/2, phi=pi/2
        a = anticlone(make_qubit(INV_SQRT2, 1j * INV_SQRT2))
        assert abs(a.alpha + 1j * INV_SQRT2) < 1e-15
        assert abs(a.beta - INV_SQRT2) < 1e-15
        theta, phi = math.pi / 2, math.pi / 2
        assert abs(a.alpha - cmath.exp(-1j * phi) * math.sin(theta / 2)) < 1e-15
        assert abs(a.beta - math.cos(theta / 2)) < 1e-15

    def test_norm_preserved(self, rng):
        for _ in range(100):
            q = make_qubit(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            assert abs(np.linalg.norm(anticlone(q).components()) - 1.0) < 1e-14


class TestBitIndex:
    """The index convention of the module, as the stage writers apply it."""

    @pytest.mark.parametrize(
        "bits,expected", [("001", 1), ("100", 4), ("110", 6), ("0", 0), ("1", 1)]
    )
    def test_examples(self, bits, expected):
        assert bits_of([expected], len(bits)) == [bits]

    def test_qubit_one_is_most_significant(self):
        assert bits_of([16], 5) == ["10000"]

    def test_roundtrip_exhaustive(self):
        for length in range(1, 16):
            bits = bits_of(np.arange(2**length), length)
            assert [int(b, 2) for b in bits] == list(range(2**length))

    @given(st.integers(min_value=1, max_value=15), st.data())
    def test_roundtrip_property(self, length, data):
        value = data.draw(st.integers(min_value=0, max_value=2**length - 1))
        (bits,) = bits_of([value], length)
        assert len(bits) == length
        assert int(bits, 2) == value


def test_equatorial_qubit_matches_bloch_equator():
    for phase in (0.0, 1.0, math.pi):
        q = equatorial_qubit(phase)
        b = bloch(math.pi / 2, phase)
        assert abs(q.alpha - b.alpha) < 1e-15
        assert abs(q.beta - b.beta) < 1e-15


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_angle_constructors_reject_non_finite(value):
    with pytest.raises(InvalidStateError):
        equatorial_qubit(value)
