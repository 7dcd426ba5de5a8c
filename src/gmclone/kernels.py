"""Hot numeric kernel: the left-to-right MPS contraction sweep, one BLAS
matrix product per site, as one numpy implementation.
"""

from __future__ import annotations

import numpy as np


def contract_sweep(sites, left, right) -> np.ndarray:
    """Contract boundary . A_1 ... A_n . boundary for all 2^n assignments.

    ``left`` is a (D_1,) vector or an (r, D_1) matrix and ``right`` a
    (D_{n+1},) vector or a (D_{n+1}, c) matrix; the result has shape
    (2^n,), (r, 2^n), (2^n, c) or (r, 2^n, c) accordingly, so identity
    boundaries give the open bond of a run of sites as a matrix index.

    A single left-to-right sweep over a growing prefix table T of shape
    (r 2^k, D_{k+1}) instead of one matrix chain per basis ket.  Site
    (2, D, D') is laid out as one (D, 2 D') matrix, so each step is one
    matrix product; the row-major reshape of its (r 2^k, 2 D') result
    extends prefix index x to x*2 + i at site value i.
    """
    left = np.asarray(left, dtype=np.complex128)
    right = np.asarray(right, dtype=np.complex128)
    T = left.reshape(-1, left.shape[-1])
    for A in sites:
        _, rows, cols = A.shape
        T = (T @ A.transpose(1, 0, 2).reshape(rows, 2 * cols)).reshape(-1, cols)
    return (T @ right).reshape(left.shape[:-1] + (-1,) + right.shape[1:])

