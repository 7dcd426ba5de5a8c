"""Physics validation: clone and anticlone fidelities and the nonlinearity
gap on the Dicke bases, and the bond-dimension scaling study, which writes
the output as an MPS in closed form (``builder.gm_mps``).

Clones sit on qubits 1..M (qubit 1 = leftmost), anticlones on M+1..2M-1.
The dense-register fidelities that the tests check these figures against
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .builder import check_register, dicke_outputs, gm_mps
from .errors import DomainError
from .mps import bond_dimension
from .qubit import BASIS, Qubit, anticlone, equatorial_qubit
from ._format import float17

SCALING_CSV_HEADER = "M,num_qubits,bond_dim,cut_ranks,tol"


@dataclass(frozen=True)
class ScalingRow:
    M: int
    num_qubits: int
    bond_dim: int
    cut_ranks: list
    tol: float


# On the Dicke bases |D^M_a> of the clones and |D^(M-1)_b> of the anticlones
# the cloner output is the (M+1) x M matrix c of ``builder.dicke_outputs``.
# Every figure below is read from c in O(M^3) work, with no 2^M-amplitude ket
# and no dense register.


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


@dataclass(frozen=True)
class ClonerAnalysis:
    clone_fidelities: list
    anticlone_fidelities: list
    nonlinearity_gap: float


def _analyze(M: int, input: Qubit) -> ClonerAnalysis:
    cloned, zero, one = dicke_outputs(M, (input, *BASIS))
    return ClonerAnalysis(
        clone_fidelities=_split_fidelity(cloned, input, M),
        anticlone_fidelities=_split_fidelity(cloned.T, anticlone(input), M - 1),
        nonlinearity_gap=_gap(cloned, zero, one, input),
    )


def analyze_cloner(M: int, input: Qubit) -> ClonerAnalysis:
    """Fidelities and nonlinearity gap of the cloner output for ``input``.

    The fidelity of every clone with ``input`` and of every anticlone with
    its anticlone, and the gap || GM(alpha 0 + beta 1) - (alpha GM(0) +
    beta GM(1)) || minimized over a global phase on the first term: zero at
    basis inputs, > 0 for genuine superpositions once M >= 2 (the cloning
    map is not linear), and zero at M = 1.  All are read from the (M+1) x M
    Dicke-basis matrices of GM(input), GM(|0>) and GM(|1>) in O(M^3) work,
    with no dense register and no sector ket.  Keeps the dense register
    guard (:class:`ResourceLimitError` above ``FULL_ENUMERATION_LIMIT``).
    """
    check_register(M)
    return _analyze(M, input)


def scaling_sweep(M_min: int, M_max: int, tol: float) -> list[ScalingRow]:
    """Compile the cloner output of the fixed equatorial input for each M.

    Each output is written as an MPS in closed form
    (:func:`~gmclone.builder.gm_mps`), with no SVD, no 2^M-wide array and
    no dense register; ``M_max`` keeps the register guard
    of the other commands (:class:`ResourceLimitError` above
    ``FULL_ENUMERATION_LIMIT``).  The rows are data and nothing here checks
    them: ``sweep`` prints each bond_dim next to its bound 2M, and the tests
    check bond_dim <= 2M (acceptance criterion 9).
    """
    if M_min < 1 or M_min > M_max:
        raise DomainError("need 1 <= M_min <= M_max")
    check_register(M_max)
    input_qubit = equatorial_qubit(0.0)
    rows = []
    for M in range(M_min, M_max + 1):
        mps, spectrum = gm_mps(M, input_qubit, tol)
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
