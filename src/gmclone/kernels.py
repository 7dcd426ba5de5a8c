"""Hot numeric kernels: permutation averaging for the symmetrization
projector, the left-to-right MPS contraction sweep and bulk popcounts over
basis indices, each as one numpy implementation.
"""

from __future__ import annotations

import numpy as np

# Amplitudes gathered per block of permutations: bounds the index table and
# the gathered block at 0.5 MB whatever the permutation count.
_GATHER_ENTRIES = 2**14


def permutation_average(amps: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Mean over qubit permutations of an n-qubit amplitude array.

    ``perms`` is an (n_perms, n) integer array of position maps; summing over
    every element of the symmetric group makes the axis convention moot.
    Term p is ``amps.reshape((2,) * n).transpose(p)``, read as one gather:
    its flat entry y is ``amps[sum_k bit_k(y) << (n - 1 - p[k])]``, with
    bit_k(y) the bit of qubit k + 1.  The terms are added in the order of
    ``perms``, one block at a time, onto a running sum that starts at zero.
    """
    n_perms, n = perms.shape
    size = amps.shape[0]
    shifts = np.arange(n - 1, -1, -1)
    bits = ((np.arange(size)[None, :] >> shifts[:, None]) & 1).astype(np.float64)
    rows = max(1, _GATHER_ENTRIES // size)
    block = np.empty((rows + 1, size), dtype=amps.dtype)
    block[0] = 0
    for start in range(0, n_perms, rows):
        # One product gives the source index of every entry of every term in
        # the block; it is exact in doubles, as every index is below 2^n.
        source = (2.0 ** (n - 1 - perms[start : start + rows])) @ bits
        terms = block[: len(source) + 1]
        # Every index is in range; "clip" only spares the buffered copy that
        # the default mode makes of ``out``.
        np.take(amps, source.astype(np.intp), out=terms[1:], mode="clip")
        # Reduced along the block's outer axis, each row is added in turn to
        # the running sum in row 0, as a loop of ``acc += term`` would.
        block[0] = np.add.reduce(terms, axis=0)
    return block[0] / n_perms


def contract_sweep(sites, left, right) -> np.ndarray:
    """Contract boundary . A_1 ... A_n . boundary for all 2^n assignments.

    A single left-to-right sweep over a growing prefix table instead of one
    matrix chain per basis ket; prefix index x extends to x*2 + i at site i.
    """
    T = np.asarray(left, dtype=np.complex128).reshape(1, -1)
    for A in sites:
        T = np.einsum("xa,iab->xib", T, A).reshape(-1, A.shape[2])
    return T @ np.asarray(right, dtype=np.complex128)


def popcounts(values: np.ndarray) -> np.ndarray:
    """Popcount of every entry of a nonnegative integer array, as int64."""
    return np.bitwise_count(np.asarray(values)).astype(np.int64)
