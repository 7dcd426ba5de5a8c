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
|D^M_a>|D^(M-1)_b>: ``analyze`` reads its fidelities from it, and
``compile`` checks a builder export against it.
``gm_mps`` writes the same output as a matrix-product state in closed form:
the same recursion, read one qubit at a time, makes every site a
bidiagonal counting step, and ``_schmidt_values`` gives the Schmidt values
of every bond, so no command runs an SVD.
The dense builders, the sector kets, their Dicke-coefficient gather and the
decomposed-expansion oracle that the tests check c against live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceLimitError
from .mps import DEFAULT_TOL, BondCut, BondSpectrum, MatrixProductState, _check_tol
from .qubit import Qubit, anticlone, perp

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


def _schmidt_values(M: int) -> list[np.ndarray]:
    """The Schmidt values of the cloner output at bonds 0..2M-1, in Dicke
    label order; the boundary bonds hold the norm, 1.

    Bond M holds gamma.  Crossing a site outwards, with r of its side's
    qubits on the far side of it (r = k crossing clone site k leftwards,
    r = M - t crossing anticlone site M + t rightwards), gives r values,
    L^2_next[i] = ((r - i)/r) L^2[i] + ((i + 1)/r) L^2[i + 1] with L^2
    zero past its end: a sum of positive terms, so nothing cancels.
    """
    one = np.ones(1)
    if M == 1:
        return [one, one]
    count = np.arange(M + 1)
    middle = np.array([gamma(M, j) ** 2 for j in range(M)] + [0.0])

    def outwards(rs):
        squares, bonds = middle, []
        for r in rs:
            squares = (count[r:0:-1] * squares[:r] + count[1 : r + 1] * squares[1 : r + 1]) / r
            bonds.append(np.sqrt(squares))
        return bonds

    clone, anti = outwards(range(M, 1, -1)), outwards(range(M - 1, 1, -1))
    return [one, *clone[::-1], np.sqrt(middle[:M]), *anti, one]


def _counting_site(phi: np.ndarray, phi_perp: np.ndarray, k: int) -> np.ndarray:
    """The (2, k, k+1) site that appends one qubit to the sector kets of
    k-1 qubits: entry [s, j', j] is the amplitude of |S^(k-1)_j'(phi)>|s>
    in |S^k_j(phi)>, from
    |S^k_j> = sqrt((k-j)/k) |S^(k-1)_j> phi + sqrt(j/k) |S^(k-1)_(j-1)> perp(phi),
    with ``phi`` and ``phi_perp`` the components of phi and perp(phi).  It
    is bidiagonal in the count of perp(phi) factors, and an isometry: the
    diagonal of each (k, k+1) matrix is every (k+2)-th entry of its rows
    laid end to end, and the superdiagonal the entry after each.
    """
    site = np.zeros((2, k * (k + 1)), dtype=np.complex128)
    j = np.arange(k)
    site[:, :: k + 2] = np.multiply.outer(phi, np.sqrt((k - j) / k))
    site[:, 1 :: k + 2] = np.multiply.outer(phi_perp, np.sqrt((j + 1) / k))
    return site.reshape(2, k, k + 1)


def gm_mps(M: int, q: Qubit, tol: float = DEFAULT_TOL):
    """The cloner output of ``q`` as a left-canonical MPS, in closed form;
    returns (mps, spectrum), each cut of the spectrum listing the Schmidt
    values of its bond.

    Clone site k is the ``_counting_site`` of q (site M without its column
    j = M) and maps the perp-count label j' of k-1 qubits to j.  gamma sits
    on bond M.  Anticlone site M + t, with r = M - t, is the transposed
    ``_counting_site`` B of anticlone(q) and r, which peels one qubit off
    the sector kets of r qubits; in the left-canonical gauge it is
    diag(L_in) B diag(L_out)^-1, with the Schmidt values L of
    ``_schmidt_values``.  The environments of every bond are diagonal in
    the labels (<phi|perp(phi)> = 0), so every bond basis is a Schmidt
    basis and no SVD is needed: each site but the last is an isometry, the
    last carries the norm, the bonds keep the Dicke label order and each
    cut lists the values of its labels, sorted descending.

    ``tol`` truncates in one rightward pass.  w_k[j] is the norm of the
    left state of label j once the labels dropped before bond k are gone
    (1 while none is), so the cut's values are L_k w_k, and the labels
    above ``tol`` times their largest are kept.  Each site becomes
    diag(w_(k-1)) A_k diag(w_k)^-1 on the kept labels, the last with no
    right factor: the state projected cut by cut, as the SVD sweep in
    Oseledets' order truncates it.  Raises :class:`DomainError` for M < 1
    or a ``tol`` outside [0, 1).  Not guarded: the sites hold O(M^3)
    entries.
    """
    _check_tol(tol)
    if M < 1:
        raise DomainError("M must be >= 1")
    values = _schmidt_values(M)
    n = 2 * M - 1
    clone = q.components(), perp(q).components()
    chain = [_counting_site(*clone, k) for k in range(1, M + 1)]
    chain[-1] = chain[-1][:, :, :M]
    anti = anticlone(q).components(), perp(anticlone(q)).components()
    for r in range(M - 1, 0, -1):  # anticlone site M + t = 2M - r
        inner, outer = values[2 * M - 1 - r], values[2 * M - r]
        site = _counting_site(*anti, r).transpose(0, 2, 1) * inner[:, None]
        chain.append(site if r == 1 else site / outer)
    sites, cuts = [], []
    truncated = False
    for k, site in enumerate(chain, start=1):
        if truncated:
            site = site[:, kept] * norms[:, None]
        if k < n:
            norms = np.linalg.norm(site, axis=(0, 1)) if truncated else np.ones(site.shape[2])
            spectrum = values[k] * norms
            keep = spectrum > tol * spectrum.max()
            cuts.append(BondCut(np.sort(spectrum)[::-1], int(np.count_nonzero(keep))))
            truncated = truncated or not keep.all()
            if truncated:
                kept, norms = np.flatnonzero(keep), norms[keep]
                site = site[:, :, kept] / norms
        sites.append(site)
    one = np.ones(1, dtype=np.complex128)
    return MatrixProductState(sites, one, one.copy()), BondSpectrum(cuts, tol)


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
