"""Symmetric multiqubit kets and the full cloning-machine output state.

The 1->M universal symmetric cloner maps an input qubit psi to the
(2M-1)-qubit entangled state

    sum_{j=0}^{M-1} gamma_j |(M-j) psi, j psi_perp>_S (x) |(M-j-1) psi_a, j psi_a_perp>_S

with gamma_j = sqrt(2(M-j) / (M(M+1))), M clones on qubits 1..M and M-1
anticlones on qubits M+1..2M-1.  Every sector ket is symmetric, so it is
fixed by its coefficients on the Dicke states |D^n_a> (a ones among n
qubits); one recursion over qubits (``_dicke_maps``) gives them for every
consumer.  ``symmetric_ket`` and ``gm_factors`` spread them over the
register with one gather, ``gm_from_factors`` (and so ``build_gm``)
assembles the dense state in one matrix product, and the analysis reads
the output on the Dicke bases directly.  ``expand_gm_decomposed`` rebuilds
the state along an independent route (explicit insertion of the input
amplitudes and enumeration of the placements of the orthogonal factors) and
serves as the cross-check oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import kernels
from .errors import DomainError, ResourceLimitError
from .qubit import BASIS, Qubit, anticlone, perp

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
        if not np.isfinite(self.amplitudes).all():
            raise DomainError("amplitudes must be finite (no NaN or infinity)")

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


def gamma(M: int, j: int) -> float:
    """Weight of the j-th term of the cloner output, sqrt(2(M-j)/(M(M+1)))."""
    if M < 1:
        raise DomainError("M must be >= 1")
    if not 0 <= j <= M - 1:
        raise DomainError(f"j={j} outside 0..{M - 1}")
    return math.sqrt(2 * (M - j) / (M * (M + 1)))


def _append_qubit(maps, factor, stay, move):
    """Dicke coefficients of every ket of ``maps`` with one qubit appended.

    ``maps[i, j]`` holds k-1-qubit coefficients and ``factor[i]`` the
    appended qubit; |D^k_a> = stay[a] |D^(k-1)_a>|0> + move[a]
    |D^(k-1)_(a-1)>|1> gives the k-qubit coefficients.
    """
    k = maps.shape[-1]
    grown = np.zeros(maps.shape[:-1] + (k + 1,), dtype=np.complex128)
    grown[..., :k] = maps * stay[:k] * factor[:, 0, None, None]
    grown[..., 1:] += maps * move[1:] * factor[:, 1, None, None]
    return grown


def _dicke_maps(n: int, qubits) -> tuple[np.ndarray, np.ndarray]:
    """``[i, j, a] = <D^m_a|symmetric_ket(m, j, qubits[i])>`` for m = n-1 and n.

    Returns the two arrays, of shapes (len(qubits), n, n) and
    (len(qubits), n+1, n+1).  One loop over n qubits grows them with
    |S^k_j> = sqrt((k-j)/k) |S^(k-1)_j> phi + sqrt(j/k) |S^(k-1)_(j-1)> perp(phi)
    on the ket side and the same recursion of |D^k_a> on the basis side.
    Every weight is at most 1, so the maps stay accurate at hundreds of
    qubits, unlike the closed form through binomial-weighted polynomial
    coefficients, which cancels.
    """
    u = np.array([q.components() for q in qubits])
    v = np.array([perp(q).components() for q in qubits])
    previous = maps = np.ones((len(qubits), 1, 1), dtype=np.complex128)
    for k in range(1, n + 1):
        stay = np.sqrt(np.arange(k, -1, -1) / k)
        move = np.sqrt(np.arange(k + 1) / k)
        grown = np.zeros((len(qubits), k + 1, k + 1), dtype=np.complex128)
        grown[:, :k] = stay[:k, None] * _append_qubit(maps, u, stay, move)
        grown[:, 1:] += move[1:, None] * _append_qubit(maps, v, stay, move)
        previous, maps = maps, grown
    return previous, maps


def _sector_maps(M: int, inputs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and Dicke maps of the cloner output for each of ``inputs``.

    Returns ``(weights, clone, anti)``: ``weights[j] = gamma(M, j)``,
    ``clone[i, j, a] = <D^M_a|symmetric_ket(M, j, inputs[i])>`` for
    j = 0..M-1 and ``anti[i, j, b] = <D^(M-1)_b|symmetric_ket(M-1, j,
    anticlone(inputs[i]))>``.  The maps of all inputs come from one
    recursion.  Not guarded: the cost is O(M^3) per input.
    """
    count = len(inputs)
    short, full = _dicke_maps(M, list(inputs) + [anticlone(q) for q in inputs])
    weights = np.array([gamma(M, j) for j in range(M)])
    return weights, full[:count, :M], short[count:]


def _dicke_kets(maps: np.ndarray) -> np.ndarray:
    """Amplitudes of the symmetric kets whose Dicke coefficients are ``maps``.

    Row j of the (rows, n+1) array ``maps`` becomes a 2^n-amplitude ket,
    ``ket_j[x] = maps[j, popcount(x)] / sqrt(C(n, popcount(x)))``: one
    gather, as |D^n_a> spreads evenly over the C(n, a) strings with a ones.
    """
    n = maps.shape[-1] - 1
    norms = np.sqrt([float(math.comb(n, a)) for a in range(n + 1)])
    return (maps / norms)[:, kernels.popcounts(np.arange(2**n))]


def symmetric_ket(n: int, j: int, phi: Qubit) -> StateVector:
    """Normalized symmetric state of n-j factors phi and j factors perp(phi).

    For phi = |0> this is the equal-weight sum over the C(n, j) bitstrings
    with j ones, up to the sign carried by the orthogonal complement.
    """
    if n < 1:
        raise DomainError("need at least one qubit")
    if not 0 <= j <= n:
        raise DomainError(f"j={j} outside 0..{n}")
    _, maps = _dicke_maps(n, [phi])
    return StateVector(n, _dicke_kets(maps[0, j : j + 1])[0])


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
    ``symmetric_ket(M-1, j, anticlone(q))``, bit for bit: both come from the
    same Dicke maps by the same gather.  For M = 1 the anticlone sector is
    the empty register, whose only amplitude is 1.  Raises
    :class:`ResourceLimitError` above ``FULL_ENUMERATION_LIMIT`` before
    anything is allocated.
    """
    check_register(M)
    weights, clone, anti = _sector_maps(M, [q])
    return weights, _dicke_kets(clone[0]), _dicke_kets(anti[0])


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
    return build_gm(GMParameters(M, BASIS[bit]))


def expand_gm_decomposed(M: int, input: Qubit) -> StateVector:
    """Independent oracle: explicit insertion of the input amplitudes.

    Expands each symmetric sector ket as the equal-weight sum over
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
                total += weight * reduce(np.kron, clone_factors + anti_factors)
    return StateVector(2 * M - 1, total)
