"""Hot numeric kernels: the left-to-right MPS contraction sweep (one BLAS
matrix product per site) and bulk popcounts over basis indices, each as one
numpy implementation.
"""

from __future__ import annotations

import numpy as np


def contract_sweep(sites, left, right) -> np.ndarray:
    """Contract boundary . A_1 ... A_n . boundary for all 2^n assignments.

    A single left-to-right sweep over a growing prefix table T of shape
    (2^k, D_{k+1}) instead of one matrix chain per basis ket.  Site (2, D, D')
    is laid out as one (D, 2 D') matrix, so each step is one matrix product;
    the row-major reshape of its (2^k, 2 D') result extends prefix index x to
    x*2 + i at site value i.
    """
    T = np.asarray(left, dtype=np.complex128).reshape(1, -1)
    for A in sites:
        _, rows, cols = A.shape
        T = (T @ A.transpose(1, 0, 2).reshape(rows, 2 * cols)).reshape(-1, cols)
    return T @ np.asarray(right, dtype=np.complex128)


def popcounts(values: np.ndarray) -> np.ndarray:
    """Popcount of every entry of a nonnegative integer array, as int64."""
    return np.bitwise_count(np.asarray(values)).astype(np.int64)
