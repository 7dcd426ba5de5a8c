"""Single-qubit state algebra and the conventions used across the package.

* qubit 1 is the leftmost symbol of a ket and the most significant bit, so
  ``index("i1 i2 ... in") = sum_k i_k * 2**(n-k)``;
* states are compared by overlap modulus, never component-wise, because the
  orthogonal-complement map and SVD factors carry arbitrary phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

# Moduli whose squares are normal doubles, summed without overflow.
_SQUARE_SAFE = (2.0**-500, 2.0**500)


@dataclass(frozen=True)
class Qubit:
    """A normalized pure single-qubit state alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def components(self):
        return np.array([self.alpha, self.beta], dtype=np.complex128)


BASIS = (Qubit(1.0 + 0j, 0j), Qubit(0j, 1.0 + 0j))  # |0>, |1>


def make_qubit(alpha: complex, beta: complex) -> Qubit:
    """Normalize (alpha, beta) into a valid :class:`Qubit`.

    Raises :class:`InvalidStateError` when an amplitude is NaN or infinite,
    when its modulus overflows and when both amplitudes vanish.  Inputs that
    are already normalized come back unchanged up to 1e-15.

    Outside [2^-500, 2^500] the larger modulus is first brought into
    [0.5, 1) by an exact power-of-two scaling of both amplitudes, so the
    squares neither underflow nor overflow at any finite scale.
    """
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise InvalidStateError(f"non-finite amplitude in ({alpha}, {beta})")
    try:
        largest = max(abs(alpha), abs(beta))
    except OverflowError:
        raise InvalidStateError(f"modulus of ({alpha}, {beta}) overflows") from None
    if largest == 0.0:
        raise InvalidStateError("both amplitudes are zero")
    if not _SQUARE_SAFE[0] <= largest <= _SQUARE_SAFE[1]:
        shift = -math.frexp(largest)[1]
        alpha, beta = (
            complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
            for z in (complex(alpha), complex(beta))
        )
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return Qubit(complex(alpha) / norm, complex(beta) / norm)


def equatorial_qubit(phase: float) -> Qubit:
    """(|0> + e^{i phase}|1>)/sqrt(2), Bloch vector in the x-y plane.

    Raises :class:`InvalidStateError` when ``phase`` is NaN or infinite.
    """
    if not math.isfinite(phase):
        raise InvalidStateError(f"non-finite phase {phase!r}")
    return Qubit(1 / math.sqrt(2), cmath.exp(1j * phase) / math.sqrt(2))


def perp(q: Qubit) -> Qubit:
    """Orthogonal complement beta*|0> - alpha*|1>."""
    return Qubit(q.beta.conjugate(), -q.alpha.conjugate())


def anticlone(q: Qubit) -> Qubit:
    """Anticlone state beta*|0> + alpha|1>."""
    return Qubit(q.beta.conjugate(), q.alpha)
