"""Hot numeric kernels: the left-to-right MPS contraction sweep and bulk
popcounts over basis indices, each as one numpy implementation.
"""

from __future__ import annotations

import numpy as np


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
