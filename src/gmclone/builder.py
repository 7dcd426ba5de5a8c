"""Symmetric multiqubit kets and the full cloning-machine output state.

The 1->M universal symmetric cloner maps an input qubit psi to the
(2M-1)-qubit entangled state

    sum_{j=0}^{M-1} gamma_j |(M-j) psi, j psi_perp>_S (x) |(M-j-1) psi_a, j psi_a_perp>_S

with gamma_j = sqrt(2(M-j) / (M(M+1))), M clones on qubits 1..M and M-1
anticlones on qubits M+1..2M-1.  ``gm_factors`` returns the two stacks of
sector kets and the weights of that sum; ``gm_from_factors`` (and so
``build_gm``) assembles the dense state from them in one matrix product;
``expand_gm_decomposed`` rebuilds it along an independent route (explicit
insertion of the input amplitudes and enumeration of the symmetrized
arrangements) and serves as the cross-check oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import kernels
from .errors import DomainError, ResourceLimitError, ZeroProjectionError
from .qubit import Qubit, anticlone, perp

# Hard ceiling for explicit permutation averaging: 9! permutations is the
# largest sweep that stays in tens-of-MB / seconds territory.
PERMUTATION_LIMIT = 9

# symmetric_ket switches from permutation averaging to the binomial
# construction above this size; both paths are exact and tested against
# each other through n = 8.
_PERMUTATION_KET_MAX = 6

ZERO_PROJECTION_TOL = 1e-13

# Largest M with a dense register: 2^(2M-1) amplitudes, 128 MiB at M = 12.
# The parity pipeline enumerates every basis index under the same guard.
FULL_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class StateVector:
    """Dense amplitudes of an n-qubit register, big-endian indexed."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 0:
            raise DomainError("negative qubit count")
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise DomainError(
                f"expected {2**self.num_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if other.num_qubits != self.num_qubits:
            raise DomainError("overlap of states with different register sizes")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class GMParameters:
    """Number of clones and the input qubit; register size is 2M-1."""

    clones: int
    input: Qubit

    def __post_init__(self):
        if self.clones < 1:
            raise DomainError("clones must be >= 1")


def qubit_state(q: Qubit) -> StateVector:
    return StateVector(1, q.components())


def gamma(M: int, j: int) -> float:
    """Weight of the j-th term of the cloner output, sqrt(2(M-j)/(M(M+1)))."""
    if M < 1:
        raise DomainError("M must be >= 1")
    if not 0 <= j <= M - 1:
        raise DomainError(f"j={j} outside 0..{M - 1}")
    return math.sqrt(2 * (M - j) / (M * (M + 1)))


@lru_cache(maxsize=None)
def _permutations_array(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def symmetrize(state: StateVector) -> StateVector:
    """Project onto the completely symmetric subspace and renormalize.

    Averages the amplitude tensor over all n! qubit permutations; the
    normalization is computed numerically after the projection.  Guarded at
    n <= 9 because the permutation count grows factorially.
    """
    n = state.num_qubits
    if n < 1:
        raise DomainError("need at least one qubit")
    if n > PERMUTATION_LIMIT:
        raise ResourceLimitError(
            f"explicit permutation averaging limited to n <= {PERMUTATION_LIMIT}"
        )
    projected = kernels.permutation_average(
        np.ascontiguousarray(state.amplitudes, dtype=np.complex128),
        _permutations_array(n),
    )
    norm = np.linalg.norm(projected)
    if norm < ZERO_PROJECTION_TOL:
        raise ZeroProjectionError("state has no symmetric component")
    return StateVector(n, projected / norm)


def _product_state(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def _symmetric_ket_permutation(n: int, j: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    prod = _product_state([u] * (n - j) + [v] * j)
    return symmetrize(StateVector(n, prod)).amplitudes


def _symmetric_kets_binomial(n: int, j_max: int, u: np.ndarray, v: np.ndarray) -> list:
    # Equal-weight sum over the C(n, j) placements of the v factors; the
    # placements are mutually orthogonal product states (u and v are
    # orthogonal), so the normalization is exactly 1/sqrt(C(n, j)).  The
    # recursion over qubits carries every count up to j_max at once.
    by_count = {0: np.ones(1, dtype=np.complex128)}
    for _ in range(n):
        grown = {}
        for count in range(min(j_max, len(by_count)) + 1):
            parts = []
            if count in by_count:
                parts.append(np.kron(by_count[count], u))
            if count - 1 in by_count:
                parts.append(np.kron(by_count[count - 1], v))
            if parts:
                grown[count] = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        by_count = grown
    return [by_count[j] / math.sqrt(math.comb(n, j)) for j in range(j_max + 1)]


def _symmetric_ket_binomial(n: int, j: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return _symmetric_kets_binomial(n, j, u, v)[j]


def symmetric_ket(n: int, j: int, phi: Qubit) -> StateVector:
    """Normalized symmetric state of n-j factors phi and j factors perp(phi).

    For phi = |0> this is the equal-weight sum over the C(n, j) bitstrings
    with j ones, up to the sign carried by the orthogonal complement.
    """
    if n < 1:
        raise DomainError("need at least one qubit")
    if not 0 <= j <= n:
        raise DomainError(f"j={j} outside 0..{n}")
    u = phi.components()
    v = perp(phi).components()
    if n <= _PERMUTATION_KET_MAX:
        amps = _symmetric_ket_permutation(n, j, u, v)
    else:
        amps = _symmetric_ket_binomial(n, j, u, v)
    return StateVector(n, amps)


def _sector_kets(n: int, count: int, phi: Qubit) -> np.ndarray:
    """Rows j = 0..count-1 are ``symmetric_ket(n, j, phi)``, bit for bit."""
    if n <= _PERMUTATION_KET_MAX:
        return np.stack([symmetric_ket(n, j, phi).amplitudes for j in range(count)])
    u = phi.components()
    v = perp(phi).components()
    return np.stack(_symmetric_kets_binomial(n, count - 1, u, v))


def check_register(M: int) -> None:
    """Refuse M < 1 (:class:`DomainError`) and registers above the guard.

    Raises :class:`ResourceLimitError` above ``FULL_ENUMERATION_LIMIT``.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    if M > FULL_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"dense register guarded at M <= {FULL_ENUMERATION_LIMIT} "
            f"(2^{2 * FULL_ENUMERATION_LIMIT - 1} amplitudes)"
        )


def gm_factors(M: int, q: Qubit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and stacked sector kets of the cloner output for input ``q``.

    Returns ``(weights, clone, anti)``: ``weights[j] = gamma(M, j)``, row j
    of the ``(M, 2^M)`` array ``clone`` is ``symmetric_ket(M, j, q)`` and row
    j of the ``(M, 2^(M-1))`` array ``anti`` is
    ``symmetric_ket(M-1, j, anticlone(q))``.  For M = 1 the anticlone sector
    is the empty register, whose only amplitude is 1.  Raises
    :class:`ResourceLimitError` above ``FULL_ENUMERATION_LIMIT`` before
    anything is allocated.
    """
    check_register(M)
    weights = np.array([gamma(M, j) for j in range(M)])
    clone = _sector_kets(M, M, q)
    if M == 1:
        anti = np.ones((1, 1), dtype=np.complex128)
    else:
        anti = _sector_kets(M - 1, M, anticlone(q))
    return weights, clone, anti


def gm_from_factors(weights, clone, anti) -> StateVector:
    """The dense cloner output from the stacks of :func:`gm_factors`.

    As a ``2^M x 2^(M-1)`` matrix (clone half of the index by anticlone
    half) the output is ``clone^T diag(weights) anti``, formed in one matrix
    product; the same factors always give the same bits.
    """
    total = ((clone * weights[:, None]).T @ anti).reshape(-1)
    return StateVector(total.size.bit_length() - 1, total)


def build_gm(params: GMParameters) -> StateVector:
    """Assemble the (2M-1)-qubit cloner output for an arbitrary input.

    :func:`gm_from_factors` of :func:`gm_factors`.  For M = 1 the output
    equals the input qubit.  Guarded at M <= ``FULL_ENUMERATION_LIMIT``
    (:class:`ResourceLimitError`).
    """
    return gm_from_factors(*gm_factors(params.clones, params.input))


def build_gm_basis(M: int, bit: int) -> StateVector:
    """Cloner output for a computational-basis input |0> or |1>.

    Every basis ket in the support of the bit=0 output has popcount M-1;
    every ket for bit=1 has popcount M, which is what the parity pipeline
    exploits.
    """
    if bit not in (0, 1):
        raise DomainError("bit must be 0 or 1")
    q = Qubit(1.0 + 0j, 0j) if bit == 0 else Qubit(0j, 1.0 + 0j)
    return build_gm(GMParameters(M, q))


def expand_gm_decomposed(M: int, input: Qubit) -> StateVector:
    """Independent oracle: explicit insertion of the input amplitudes.

    Expands each symmetrized sector ket as the equal-weight sum over
    placements of the orthogonal factors (a fully symmetric product of basis
    kets is already its own symmetrization) and accumulates one kron chain
    per placement pair.  Shares only the gamma weights and the single-qubit
    maps with :func:`build_gm`.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    clone_u = input.components()
    clone_v = perp(input).components()
    anti_u = anticlone(input).components()
    anti_v = perp(anticlone(input)).components()
    total = np.zeros(2 ** (2 * M - 1), dtype=np.complex128)
    for j in range(M):
        weight = gamma(M, j) / math.sqrt(math.comb(M, j) * math.comb(M - 1, j))
        for clone_pos in itertools.combinations(range(M), j):
            clone_factors = [
                clone_v if p in clone_pos else clone_u for p in range(M)
            ]
            for anti_pos in itertools.combinations(range(M - 1), j):
                anti_factors = [
                    anti_v if p in anti_pos else anti_u for p in range(M - 1)
                ]
                total += weight * _product_state(clone_factors + anti_factors)
    return StateVector(2 * M - 1, total)
