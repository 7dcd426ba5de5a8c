"""Physics validation: reduced density matrices, fidelities, nonlinearity,
and the bond-dimension scaling study.

Positions are 1-indexed to match the ket convention (qubit 1 = leftmost).
Clones sit on positions 1..M, anticlones on M+1..2M-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .builder import GMParameters, StateVector, build_gm, gm_factors
from .errors import DomainError, ResourceLimitError
from .mps import bond_dimension, mps_from_state
from .qubit import Qubit, anticlone, equatorial_qubit, make_qubit
from ._format import float17

SWEEP_LIMIT = 8  # 2M-1 <= 15 qubits

SCALING_CSV_HEADER = "M,num_qubits,bond_dim,cut_ranks,tol"


@dataclass(frozen=True)
class DensityMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise DomainError("density matrix shape mismatch")


@dataclass(frozen=True)
class ScalingRow:
    M: int
    num_qubits: int
    bond_dim: int
    cut_ranks: list
    tol: float


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the given 1-indexed qubit positions."""
    keep = sorted(set(keep))
    n = state.num_qubits
    if not keep:
        raise DomainError("keep must name at least one qubit")
    if keep[0] < 1 or keep[-1] > n:
        raise DomainError(f"positions must lie in 1..{n}")
    axes = [p - 1 for p in keep]
    rest = [q for q in range(n) if q not in axes]
    tensor = state.amplitudes.reshape((2,) * n).transpose(axes + rest)
    matrix = tensor.reshape(2 ** len(axes), -1)
    rho = matrix @ matrix.conj().T
    return DensityMatrix(dim=2 ** len(axes), entries=rho)


def _single_qubit_fidelities(state, positions, target: Qubit):
    # <psi|rho_p|psi> = || psi_0^* T[:, 0, :] + psi_1^* T[:, 1, :] ||^2 on the
    # (2^(p-1), 2, rest) view T of the register: no transposed copy per qubit.
    psi0, psi1 = target.components().conj()
    out = []
    for pos in positions:
        tensor = state.amplitudes.reshape(2 ** (pos - 1), 2, -1)
        projected = psi0 * tensor[:, 0, :]
        projected += psi1 * tensor[:, 1, :]
        out.append(float(np.vdot(projected, projected).real))
    return out


def clone_fidelity(state: StateVector, M: int, input: Qubit) -> list[float]:
    """Overlap of each clone's reduced state with the input, one per clone.

    By symmetry of the cloner output all M values coincide; the optimal
    universal value is (2M+1)/(3M).
    """
    if state.num_qubits != 2 * M - 1:
        raise DomainError(
            f"state has {state.num_qubits} qubits, expected {2 * M - 1}"
        )
    return _single_qubit_fidelities(state, range(1, M + 1), input)


def anticlone_fidelity(state: StateVector, M: int, input: Qubit) -> list[float]:
    """Same figure against the anticlone state, one per anticlone position.

    Reported for completeness; no optimality target is attached to it.
    """
    if state.num_qubits != 2 * M - 1:
        raise DomainError(
            f"state has {state.num_qubits} qubits, expected {2 * M - 1}"
        )
    return _single_qubit_fidelities(state, range(M + 1, 2 * M), anticlone(input))


# The cloner output is Psi = sum_j w_j C_j (x) A_j over the sector stacks
# (C, A) of ``gm_factors``, so every figure below is taken on the factors:
# O(M^2 2^M) work instead of a pass over the 2^(2M-1) amplitudes.


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry (j, k) is <a_j|b_k> for the rows of two stacks of kets."""
    return a.conj() @ b.T


def _factored_fidelities(weights, kets, partner, target: Qubit) -> list[float]:
    # With the measured positions in the sector of ``kets``, projecting
    # qubit p of every kets_j onto the target gives
    # P_j = t_0* K_j[:, 0, :] + t_1* K_j[:, 1, :] on the (2^(p-1), 2, rest)
    # view K_j, and F_p = sum_jk w_j w_k <P_j|P_k> <partner_j|partner_k>.
    coupling = np.outer(weights, weights) * _gram(partner, partner)
    t0, t1 = target.components().conj()
    rows = kets.shape[0]
    out = []
    for pos in range(1, kets.shape[1].bit_length()):
        view = kets.reshape(rows, 2 ** (pos - 1), 2, -1)
        projected = (t0 * view[:, :, 0, :] + t1 * view[:, :, 1, :]).reshape(rows, -1)
        out.append(float((coupling * _gram(projected, projected)).sum().real))
    return out


def _dicke_coefficients(kets: np.ndarray) -> np.ndarray:
    """Rows of symmetric m-qubit kets on the Dicke basis |D_a>, a = 0..m.

    |D_a> is the normalized sum of the kets with a ones; a symmetric ket
    lies in their span, so the rows lose nothing.
    """
    size = kets.shape[1]
    m = size.bit_length() - 1
    ones = kernels.popcounts(np.arange(size))
    norms = np.sqrt([math.comb(m, a) for a in range(m + 1)])
    basis = np.zeros((size, m + 1))
    basis[np.arange(size), ones] = 1.0 / norms[ones]
    return kets @ basis


def _dicke_output(weights, clone, anti) -> np.ndarray:
    """The (M+1) x M matrix of the cloner output on Dicke x Dicke states."""
    return (_dicke_coefficients(clone) * weights[:, None]).T @ _dicke_coefficients(anti)


def _factored_gap(M: int, weights, clone, anti, q: Qubit) -> float:
    # All three outputs lie in Sym(M) (x) Sym(M-1), where they are small
    # matrices; the gap is the norm of their difference, taken directly
    # rather than from <Psi|Psi> + <S|S> - 2|<S|Psi>|, which would cancel to
    # a rounding residue of order 1e-16 and leave 1e-8 after the root.
    cloned = _dicke_output(weights, clone, anti)
    superposed = q.alpha * _dicke_output(*gm_factors(M, Qubit(1.0 + 0j, 0j)))
    superposed += q.beta * _dicke_output(*gm_factors(M, Qubit(0j, 1.0 + 0j)))
    overlap = np.vdot(superposed, cloned)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(cloned - phase * superposed))


def nonlinearity_gap(M: int, alpha: complex, beta: complex) -> float:
    """Distance between cloning the superposition and superposing the clones.

    Returns || GM(alpha 0 + beta 1) - (alpha GM(0) + beta GM(1)) || minimized
    over a global phase on the first term.  Zero at basis inputs, strictly
    positive for genuine superpositions once M >= 2 (the cloning map is not
    linear); trivially zero for M = 1.  Taken on the sector factors of the
    three outputs, with no dense register.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    q = make_qubit(alpha, beta)
    return _factored_gap(M, *gm_factors(M, q), q)


@dataclass(frozen=True)
class ClonerAnalysis:
    clone_fidelities: list
    anticlone_fidelities: list
    nonlinearity_gap: float


def analyze_cloner(M: int, input: Qubit) -> ClonerAnalysis:
    """Fidelities and nonlinearity gap of the cloner output for ``input``.

    The same figures as :func:`clone_fidelity` and
    :func:`anticlone_fidelity` on ``build_gm`` and as
    :func:`nonlinearity_gap`, taken from the sector factors of GM(input)
    (shared by all three), GM(|0>) and GM(|1>): no dense register is built.
    Guarded like ``gm_factors`` (:class:`ResourceLimitError` above
    ``FULL_ENUMERATION_LIMIT``).
    """
    weights, clone, anti = gm_factors(M, input)
    return ClonerAnalysis(
        clone_fidelities=_factored_fidelities(weights, clone, anti, input),
        anticlone_fidelities=_factored_fidelities(
            weights, anti, clone, anticlone(input)
        ),
        nonlinearity_gap=_factored_gap(M, weights, clone, anti, input),
    )


def scaling_sweep(M_min: int, M_max: int, tol: float) -> list[ScalingRow]:
    """Compile the cloner output of the fixed equatorial input for each M.

    Every row must satisfy bond_dim <= 2M; the sweep itself is reported as
    data rather than asserted beyond that bound.
    """
    if M_min < 1 or M_min > M_max:
        raise DomainError("need 1 <= M_min <= M_max")
    if M_max > SWEEP_LIMIT:
        raise ResourceLimitError(f"sweep guarded at M <= {SWEEP_LIMIT} (15 qubits)")
    input_qubit = equatorial_qubit(0.0)
    rows = []
    for M in range(M_min, M_max + 1):
        state = build_gm(GMParameters(M, input_qubit))
        mps, spectrum = mps_from_state(state, tol)
        rows.append(
            ScalingRow(
                M=M,
                num_qubits=2 * M - 1,
                bond_dim=bond_dimension(mps),
                cut_ranks=spectrum.retained_ranks(),
                tol=tol,
            )
        )
    return rows


def scaling_csv(rows) -> str:
    lines = [SCALING_CSV_HEADER]
    for row in rows:
        ranks = ";".join(str(r) for r in row.cut_ranks)
        lines.append(
            f"{row.M},{row.num_qubits},{row.bond_dim},{ranks},{float17(row.tol)}"
        )
    return "\n".join(lines) + "\n"


def write_scaling_csv(path, rows) -> None:
    Path(path).write_text(scaling_csv(rows), encoding="ascii")
