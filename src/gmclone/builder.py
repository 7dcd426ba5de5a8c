"""The full cloning-machine output state on the Dicke bases.

The 1->M universal symmetric cloner maps an input qubit psi to the
(2M-1)-qubit entangled state

    sum_{j=0}^{M-1} gamma_j |(M-j) psi, j psi_perp>_S (x) |(M-j-1) psi_a, j psi_a_perp>_S

with gamma_j = sqrt(2(M-j) / (M(M+1))), M clones on qubits 1..M and M-1
anticlones on qubits M+1..2M-1.  Every sector ket S^n_j(phi), the
normalized symmetric state of n-j factors phi and j factors perp(phi), is
fixed by its coefficients on the Dicke states |D^n_a> (a ones among n
qubits); one recursion over qubits (``_dicke_maps``) gives them.
``dicke_outputs`` turns them into the (M+1) x M matrix c of the output on
|D^M_a>|D^(M-1)_b>, the one construction of a builder output: ``compile``
and ``sweep`` compile it and ``analyze`` reads its fidelities from it.
``_dicke_kets`` spreads Dicke coefficients over 2^n amplitudes with one
gather, for the register that ``compile`` checks its export against.
The dense builders, the sector kets and the decomposed-expansion oracle that
the tests check c against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import DomainError, ResourceLimitError
from .qubit import anticlone, perp

# Largest M with a dense register: 2^(2M-1) amplitudes, 128 MiB at M = 12.
# The parity pipeline enumerates every basis index under the same guard.
FULL_ENUMERATION_LIMIT = 12


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
    """``[i, j, a] = <D^m_a|S^m_j(qubits[i])>`` for m = n-1 and n.

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


def dicke_outputs(M: int, inputs) -> np.ndarray:
    """The cloner output of each of ``inputs`` on Dicke (x) Dicke states.

    Entry [i, a, b] is the amplitude of |D^M_a>|D^(M-1)_b> in GM(inputs[i]):
    c = R_C^T diag(gamma) R_A, where row j of R_C holds the Dicke
    coefficients of S^M_j(inputs[i]) and row j of R_A those of
    S^(M-1)_j(anticlone(inputs[i])).  The maps of all inputs and their
    anticlones come from one recursion.  Not guarded: the cost is O(M^3)
    per input.
    """
    count = len(inputs)
    short, full = _dicke_maps(M, list(inputs) + [anticlone(q) for q in inputs])
    weights = np.array([gamma(M, j) for j in range(M)])
    clone, anti = full[:count, :M], short[count:]
    return (clone * weights[:, None]).transpose(0, 2, 1) @ anti


def _dicke_kets(maps: np.ndarray) -> np.ndarray:
    """Amplitudes of the symmetric kets whose Dicke coefficients are ``maps``.

    Row j of the (rows, n+1) array ``maps`` becomes a 2^n-amplitude ket,
    ``ket_j[x] = maps[j, popcount(x)] / sqrt(C(n, popcount(x)))``: one
    gather, as |D^n_a> spreads evenly over the C(n, a) strings with a ones.
    """
    n = maps.shape[-1] - 1
    norms = np.sqrt([float(math.comb(n, a)) for a in range(n + 1)])
    return (maps / norms)[:, kernels.popcounts(np.arange(2**n))]


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
