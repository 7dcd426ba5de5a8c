"""Physics validation: reduced density matrices, fidelities, nonlinearity,
and the bond-dimension scaling study.

Positions are 1-indexed to match the ket convention (qubit 1 = leftmost).
Clones sit on positions 1..M, anticlones on M+1..2M-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .builder import (
    StateVector,
    _sector_maps,
    check_register,
    gm_factors,
)
from .errors import DomainError
from .mps import bond_dimension, mps_from_factors
from .qubit import BASIS, Qubit, anticlone, equatorial_qubit, make_qubit
from ._format import float17

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


# On the Dicke bases |D^M_a> of the clones and |D^(M-1)_b> of the anticlones
# the cloner output sum_j gamma_j |S^M_j(psi)>|S^(M-1)_j(psi_a)> is the
# (M+1) x M matrix c = R_C^T diag(gamma) R_A, where row j of R_phi holds the
# Dicke coefficients of symmetric_ket(n, j, phi).  Every figure below is read
# from c in O(M^3) work, with no 2^M-amplitude ket and no dense register.


def _dicke_outputs(M: int, inputs) -> np.ndarray:
    """The cloner output of each of ``inputs`` on Dicke (x) Dicke states.

    Entry [i, a, b] is the amplitude of |D^M_a>|D^(M-1)_b> in GM(inputs[i]),
    from the maps of :func:`_sector_maps`.  Not guarded: the cost is O(M^3)
    per input.
    """
    weights, clone, anti = _sector_maps(M, inputs)
    return (clone * weights[:, None]).transpose(0, 2, 1) @ anti


def _split_fidelity(c: np.ndarray, target: Qubit, copies: int) -> list[float]:
    """Fidelity with ``target`` of any one qubit of the row register of ``c``.

    Splitting one qubit off |D^m_a> projects the output onto
    t_0* sqrt((m-a)/m) c[a] + t_1* sqrt((a+1)/m) c[a+1] for a = 0..m-1; the
    rows are symmetric, so every one of the ``copies`` positions shares the
    value.
    """
    if not copies:
        return []
    m = c.shape[0] - 1
    t0, t1 = target.components().conj()
    a = np.arange(m)[:, None]
    projected = t0 * np.sqrt((m - a) / m) * c[:-1] + t1 * np.sqrt((a + 1) / m) * c[1:]
    return [float(np.vdot(projected, projected).real)] * copies


def _gap(cloned, zero, one, q: Qubit) -> float:
    # The norm of the phase-aligned difference, taken directly rather than
    # from <Psi|Psi> + <S|S> - 2|<S|Psi>|, which would cancel to a rounding
    # residue of order 1e-16 and leave 1e-8 after the root.
    superposed = q.alpha * zero + q.beta * one
    overlap = np.vdot(superposed, cloned)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(cloned - phase * superposed))


def nonlinearity_gap(M: int, alpha: complex, beta: complex) -> float:
    """Distance between cloning the superposition and superposing the clones.

    Returns || GM(alpha 0 + beta 1) - (alpha GM(0) + beta GM(1)) || minimized
    over a global phase on the first term.  Zero at basis inputs, strictly
    positive for genuine superpositions once M >= 2 (the cloning map is not
    linear); trivially zero for M = 1.  Taken on the Dicke-basis matrices of
    the three outputs, with no dense register; guarded like
    :func:`analyze_cloner`.
    """
    check_register(M)
    q = make_qubit(alpha, beta)
    return _gap(*_dicke_outputs(M, (q, *BASIS)), q)


@dataclass(frozen=True)
class ClonerAnalysis:
    clone_fidelities: list
    anticlone_fidelities: list
    nonlinearity_gap: float


def _analyze(M: int, input: Qubit) -> ClonerAnalysis:
    cloned, zero, one = _dicke_outputs(M, (input, *BASIS))
    return ClonerAnalysis(
        clone_fidelities=_split_fidelity(cloned, input, M),
        anticlone_fidelities=_split_fidelity(cloned.T, anticlone(input), M - 1),
        nonlinearity_gap=_gap(cloned, zero, one, input),
    )


def analyze_cloner(M: int, input: Qubit) -> ClonerAnalysis:
    """Fidelities and nonlinearity gap of the cloner output for ``input``.

    The same figures as :func:`clone_fidelity` and
    :func:`anticlone_fidelity` on ``build_gm`` and as
    :func:`nonlinearity_gap`, read from the (M+1) x M Dicke-basis matrices
    of GM(input), GM(|0>) and GM(|1>) in O(M^3) work: no dense register and
    no sector ket is built.  Keeps the dense register guard
    (:class:`ResourceLimitError` above ``FULL_ENUMERATION_LIMIT``).
    """
    check_register(M)
    return _analyze(M, input)


def scaling_sweep(M_min: int, M_max: int, tol: float) -> list[ScalingRow]:
    """Compile the cloner output of the fixed equatorial input for each M.

    Each output is compiled from its ``gm_factors`` stacks by
    ``mps_from_factors``, with no dense register; ``M_max`` keeps the
    register guard of the other commands (:class:`ResourceLimitError`
    above ``FULL_ENUMERATION_LIMIT``).  Every row must satisfy
    bond_dim <= 2M; the sweep itself is reported as data rather than
    asserted beyond that bound.
    """
    if M_min < 1 or M_min > M_max:
        raise DomainError("need 1 <= M_min <= M_max")
    check_register(M_max)
    input_qubit = equatorial_qubit(0.0)
    rows = []
    for M in range(M_min, M_max + 1):
        weights, clone, anti = gm_factors(M, input_qubit)
        mps, spectrum = mps_from_factors((clone * weights[:, None]).T, anti, tol)
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
