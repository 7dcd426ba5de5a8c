"""Dense and per-line reference implementations that the tests check gmclone
against.

No command needs them: ``compile``, ``analyze`` and ``sweep`` work from the
(M+1) x M Dicke-basis matrix of the output (``builder.dicke_outputs``) and
its closed-form MPS (``builder.gm_mps``), and ``prepare`` writes its stages
from index arrays.  Each one here takes an
independent or a plainer route to the same figure, so the suites can
cross-check the package:

* a dense register (``StateVector``), and the kets of Dicke coefficients
  spread over it by one gather (``dicke_kets``);
* the sector kets of the cloner output spread over the register
  (``gm_factors``) and the dense output assembled from them in one matrix
  product (``gm_from_factors``, ``build_gm``, ``build_gm_basis``), and the
  decomposed expansion (``expand_gm_decomposed``), which enumerates the
  placements of the orthogonal factors one kron chain at a time;
* dense reduced densities and single-qubit fidelities;
* the Schmidt values of the cloner output at every bond, by their
  recursion one value at a time (``schmidt_spectra``);
* the dense successive-SVD sweep over a whole register (``mps_from_state``),
  the same sweep in Dicke coordinates over a Dicke-basis matrix
  (``mps_from_dicke``), against which the closed-form MPS and its
  truncation are checked, the register of a Dicke-basis matrix
  (``dicke_state``), the full contraction of an MPS into a register
  (``mps_to_state``), and the builder roundtrip taken entry by entry over
  blocks of that register (``blockwise_roundtrip``);
* the block-sum of two basis MPSs, which shows that superposing the clones
  is not cloning the superposition;
* the bitstring stages as Python strings, generated by a plain scan of the
  register, and their per-line reader and writer, and a per-line GMMatrix
  writer;
* ``assign_coefficients``, the table of both classes that ``prepare``
  writes, from a plain scan of the register, ``check_gm_matrix``, the
  stage cross-check over a table already in memory, ``read_stage``, a
  whole stage from its two class reads, and ``reconstruct_state``, one
  class of a table as a dense register.

Every function that moved here from the package keeps the signature it had
there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from gmclone.builder import _dicke_maps, check_register, gamma
from gmclone._format import float17
from gmclone.errors import (
    DomainError, GMCloneError, InternalConsistencyError, StageParseError,
)
from gmclone.mps import (
    DEFAULT_TOL, BondCut, BondSpectrum, MatrixProductState, _check_tol, contract_sweep,
)
from gmclone.pipeline import STAGE_ATOL, GMMatrix, read_gm_matrix
from gmclone.qubit import BASIS, Qubit, anticlone, perp


# ---------------------------------------------------------------------------
# dense cloner output
# ---------------------------------------------------------------------------

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


def dicke_kets(maps: np.ndarray) -> np.ndarray:
    """Amplitudes of the symmetric kets whose Dicke coefficients are ``maps``.

    Row j of the (rows, n+1) array ``maps`` becomes a 2^n-amplitude ket,
    ``ket_j[x] = maps[j, popcount(x)] / sqrt(C(n, popcount(x)))``: one
    gather, as |D^n_a> spreads evenly over the C(n, a) strings with a ones.
    """
    n = maps.shape[-1] - 1
    norms = np.sqrt([float(math.comb(n, a)) for a in range(n + 1)])
    return (maps / norms)[:, np.bitwise_count(np.arange(2**n))]


def gm_factors(M: int, q: Qubit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and stacked sector kets of the cloner output for input ``q``.

    Returns ``(weights, clone, anti)``: ``weights[j] = gamma(M, j)``, row j
    of the ``(M, 2^M)`` array ``clone`` is the sector ket S^M_j(q) and row j
    of the ``(M, 2^(M-1))`` array ``anti`` is S^(M-1)_j(anticlone(q)), both
    gathered from one set of Dicke maps.  For M = 1 the anticlone sector is
    the empty register, whose only amplitude is 1.  Raises
    :class:`ResourceLimitError` above ``FULL_ENUMERATION_LIMIT`` before
    anything is allocated.
    """
    check_register(M)
    short, full = _dicke_maps(M, [q, anticlone(q)])
    weights = np.array([gamma(M, j) for j in range(M)])
    return weights, dicke_kets(full[0, :M]), dicke_kets(short[1])


def gm_from_factors(weights, clone, anti) -> StateVector:
    """The dense cloner output from the stacks of :func:`gm_factors`.

    As a ``2^M x 2^(M-1)`` matrix (clone half of the index by anticlone
    half) the output is ``clone^T diag(weights) anti``, formed in one matrix
    product; the same factors always give the same bits.
    """
    total = ((clone * weights[:, None]).T @ anti).reshape(-1)
    return StateVector(total.size.bit_length() - 1, total)


@dataclass(frozen=True)
class GMParameters:
    """Number of clones and the input qubit; register size is 2M-1."""

    clones: int
    input: Qubit

    def __post_init__(self):
        if self.clones < 1:
            raise DomainError("clones must be >= 1")


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
    return StateVector(n, dicke_kets(maps[0, j : j + 1])[0])


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


# ---------------------------------------------------------------------------
# dense fidelities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise DomainError("density matrix shape mismatch")


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


# ---------------------------------------------------------------------------
# SVD sweeps
# ---------------------------------------------------------------------------

class DegenerateStateError(GMCloneError):
    """Every singular value at some cut was truncated away."""


def mps_from_state(state: StateVector, tol: float = DEFAULT_TOL):
    """Compile a dense state into MPS form; returns (mps, spectrum).

    The successive-SVD sweep over the whole register, in Oseledets' order:
    at cut k the remainder is reshaped to (2 D_k, 2^(n-k-1)), SVD'd into
    V S W+, V is the site and S W+ is carried forward, so every site but the
    last is an isometry and each cut lists the Schmidt values of the state
    truncated so far.  ``tol`` is relative: at every cut, singular values
    > tol * sigma_max are retained.  tol = 0 keeps everything nonzero and
    makes the roundtrip exact to machine precision.
    """
    _check_tol(tol)
    if state.num_qubits < 1:
        raise DomainError("need at least one qubit")
    remainder = np.asarray(state.amplitudes, dtype=np.complex128).reshape(1, -1)
    sites = []
    cuts = []
    for _ in range(state.num_qubits - 1):
        matrix = remainder.reshape(remainder.shape[0] * 2, -1)
        U, S, Wh = np.linalg.svd(matrix, full_matrices=False)
        if S[0] <= 0.0:
            raise DegenerateStateError("zero state: nothing to retain at this cut")
        keep = int(np.sum(S > tol * S[0]))
        cuts.append(BondCut(S, keep))
        site = U[:, :keep].reshape(-1, 2, keep).transpose(1, 0, 2)
        sites.append(np.ascontiguousarray(site))
        remainder = S[:keep, None] * Wh[:keep]
    sites.append(np.ascontiguousarray(remainder.reshape(-1, 2, 1).transpose(1, 0, 2)))
    ones = np.ones(1, dtype=np.complex128)
    return MatrixProductState(sites, ones, ones.copy()), BondSpectrum(cuts, tol)


def mps_from_dicke(c, tol: float = DEFAULT_TOL):
    """Compile sum_ab c[a, b] |D^p_a>|D^q_b> into MPS form; returns (mps, spectrum).

    ``c`` is the (p+1) x (q+1) matrix, p >= 1, of a state on p + q qubits
    that is symmetric within its first p and within its last q qubits.  Each
    cut peels qubit k off the front block with
    |D^m_a> = sqrt((m-a)/m) |0>|D^(m-1)_a> + sqrt(a/m) |1>|D^(m-1)_(a-1)>,
    so the cut is a (2 D_k, m T) matrix over the m Dicke states of the m - 1
    qubits left in the block times the T of the block after it.  Those are
    orthonormal, so the cut has the singular values and left vectors of the
    dense (2 D_k, 2^(n-k-1)) cut, up to a phase per vector, and ``tol``
    truncates as it would there: singular values > tol * sigma_max are
    retained.  Raises :class:`DomainError` for a ``tol`` outside [0, 1) or a
    ``c`` that is not a finite matrix of at least two rows, and
    :class:`DegenerateStateError` for a zero ``c``.
    """
    _check_tol(tol)
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] < 2 or c.shape[1] < 1:
        raise DomainError(f"c of shape {c.shape} is not a (p+1) x (q+1) matrix with p >= 1")
    if not np.isfinite(c).all():
        raise DomainError("c must be finite (no NaN or infinity)")
    if not c.any():
        raise DegenerateStateError("zero state: nothing to retain")
    remainder = c.reshape(1, *c.shape)
    sites = []
    cuts = []
    for _ in range(sum(c.shape) - 3):
        rows, front, back = remainder.shape
        if front == 1:  # the front block is peeled: go on with the back one
            front, back = back, 1
        m = front - 1
        root = np.sqrt(np.arange(front) / m)[:, None]  # sqrt(a/m), a = 0..m
        remainder = remainder.reshape(rows, front, back)
        matrix = np.empty((rows, 2, m, back), dtype=np.complex128)
        np.multiply(root[:0:-1], remainder[:, :-1], out=matrix[:, 0])
        np.multiply(root[1:], remainder[:, 1:], out=matrix[:, 1])
        U, S, Wh = np.linalg.svd(matrix.reshape(2 * rows, m * back), full_matrices=False)
        keep = int(np.count_nonzero(S > tol * S[0]))
        cuts.append(BondCut(S, keep))
        site = U[:, :keep].reshape(-1, 2, keep).transpose(1, 0, 2)
        sites.append(np.ascontiguousarray(site))
        remainder = (S[:keep, None] * Wh[:keep]).reshape(keep, m, back)
    last = remainder.reshape(-1, 2, 1).transpose(1, 0, 2)
    sites.append(np.ascontiguousarray(last))
    mps = MatrixProductState(
        sites=sites,
        left_boundary=np.ones(1, dtype=np.complex128),
        right_boundary=np.ones(1, dtype=np.complex128),
    )
    return mps, BondSpectrum(cuts=cuts, tolerance=tol)


def schmidt_spectra(M: int) -> list[list[float]]:
    """The Schmidt values of the cloner output at each inner bond 1..2M-2,
    sorted descending, by the recursion out of bond M, one value at a time.

    Bond M holds gamma_j^2 = 2(M-j)/(M(M+1)).  Crossing a site outwards with
    r of its side's qubits beyond it, L^2_next[i] = ((r-i)/r) L^2[i] +
    ((i+1)/r) L^2[i+1], L^2 zero past its end.  The values depend on M
    alone, not on the input.
    """
    middle = [2 * (M - j) / (M * (M + 1)) for j in range(M)]

    def outwards(rs):
        squares, bonds = middle, []
        for r in rs:
            padded = squares + [0.0]
            squares = [((r - i) * padded[i] + (i + 1) * padded[i + 1]) / r for i in range(r)]
            bonds.append(squares)
        return bonds

    bonds = outwards(range(M, 1, -1))[::-1] + [middle] + outwards(range(M - 1, 1, -1))
    return [sorted((math.sqrt(x) for x in bond), reverse=True) for bond in bonds][: 2 * M - 2]


def mps_to_state(mps: MatrixProductState) -> StateVector:
    """Contract the MPS back into dense amplitudes (no renormalization)."""
    mps.validate()
    amps = contract_sweep(mps.sites, mps.left_boundary, mps.right_boundary)
    return StateVector(mps.num_sites, amps)


def dicke_state(c) -> StateVector:
    """The register sum_ab c[a, b] |D^p_a>|D^q_b> of a (p+1) x (q+1) ``c``.

    Amplitude x is c[a, b] / sqrt(C(p, a) C(q, b)), with a and b the
    popcounts of the first p and the last q bits of x: the scaled c indexed
    by the 2^p clone popcounts against the 2^q anticlone popcounts, so the
    register is the only array of 2^(p+q) entries.
    """
    c = np.asarray(c, dtype=np.complex128)
    p, q = c.shape[0] - 1, c.shape[1] - 1
    a, b = np.bitwise_count(np.arange(2**p)), np.bitwise_count(np.arange(2**q))
    counts = np.array([[math.comb(p, i) * math.comb(q, j) for j in range(q + 1)]
                       for i in range(p + 1)])
    return StateVector(p + q, (c / np.sqrt(counts))[a[:, None], b].reshape(-1))


def blockwise_roundtrip(left, right, c) -> float:
    """||L @ R - register of c|| over 2^M x 2^(M-1) blocks of 32 clone rows,
    as ``compile`` checked a builder export before its check moved into the
    symmetric subspaces.

    ``left`` (2^M, D) and ``right`` (D, 2^(M-1)) are the export's halves at
    the clone|anticlone bond (``mps.mps_halves``) and ``c`` the (M+1) x M
    matrix that was compiled.  Each block is one product [L | H] @ [R; -K]:
    column b of H is sum_a c[a, b] |D^M_a> and row b of K is |D^(M-1)_b>.
    """
    M = c.shape[0] - 1
    head = dicke_kets(c.T).T
    stacked = np.vstack([right, -dicke_kets(np.eye(M))])
    blocks = [(lo, min(lo + 32, 2**M)) for lo in range(0, 2**M, 32)]
    differences = (np.hstack([left[lo:hi], head[lo:hi]]) @ stacked for lo, hi in blocks)
    return math.sqrt(sum(np.vdot(block, block).real for block in differences))


# ---------------------------------------------------------------------------
# block-sum MPS
# ---------------------------------------------------------------------------

def combine_basis_mps(
    mps0: MatrixProductState,
    mps1: MatrixProductState,
    alpha: complex,
    beta: complex,
) -> MatrixProductState:
    """Block-direct-sum of the two basis-clone MPSs with doubled bonds.

    Each site stacks the input site tensors block-diagonally; the input
    weights alpha, beta ride on the left boundary.  The reconstruction is
    exactly alpha * state(mps0) + beta * state(mps1), which is generally a
    different state from compiling the cloner output of the superposed
    input (the cloning map is nonlinear).
    """
    if mps0.num_sites != mps1.num_sites:
        raise DomainError("MPS lengths differ")
    sites = []
    for A, B in zip(mps0.sites, mps1.sites):
        block = np.zeros(
            (2, A.shape[1] + B.shape[1], A.shape[2] + B.shape[2]),
            dtype=np.complex128,
        )
        block[:, : A.shape[1], : A.shape[2]] = A
        block[:, A.shape[1] :, A.shape[2] :] = B
        sites.append(block)
    left = np.concatenate(
        [complex(alpha) * mps0.left_boundary, complex(beta) * mps1.left_boundary]
    )
    right = np.concatenate([mps0.right_boundary, mps1.right_boundary])
    return MatrixProductState(sites=sites, left_boundary=left, right_boundary=right)


# ---------------------------------------------------------------------------
# bitstring stages and the GMMatrix table
# ---------------------------------------------------------------------------

def gen_full_bitstrings(M: int) -> list[str]:
    """All 2^(2M-1) bitstrings of register length 2M-1, lexicographic."""
    check_register(M)
    n = 2 * M - 1
    return [format(i, f"0{n}b") for i in range(2**n)]


def gen_gm_bitstrings(M: int) -> list[str]:
    """Sorted union of the two basis-clone supports: a scan of the register
    for the strings with M-1 or M ones."""
    return [bits for bits in gen_full_bitstrings(M) if bits.count("1") in (M - 1, M)]


def write_bitstring_stage(path, strings) -> None:
    path = Path(path)
    path.write_text("".join(s + "\n" for s in strings), encoding="ascii")


def read_bitstring_stage(path, expected_length: int | None = None) -> list[str]:
    """Parse a FullBitString/GMBitString stage; strict line grammar.

    The register width is taken from ``expected_length`` when given,
    otherwise from the first line; every later line must match it and be
    strictly greater than the line before (sorted, no duplicates).  Only LF
    ends a line, and a last line without one still counts, as in
    :func:`gmclone.pipeline.read_gm_matrix`.  The first bad line is reported.
    """
    path = Path(path)
    lines = path.read_bytes().split(b"\n")
    if not lines[-1]:
        lines.pop()
    strings = []
    width = expected_length
    prev = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.decode("ascii", errors="replace")
        if not line or line.strip("01"):
            raise StageParseError(path, lineno, f"bad bitstring {line!r}")
        if width is None:
            width = len(line)
        if len(line) != width:
            raise StageParseError(
                path, lineno, f"expected {width} bits, got {len(line)}"
            )
        if prev is not None and line <= prev:
            raise StageParseError(
                path, lineno,
                f"bitstring {line} does not follow {prev} (need sorted, unique)",
            )
        strings.append(line)
        prev = line
    return strings


def write_gm_matrix_lines(path, matrix: GMMatrix) -> None:
    """The GMMatrix stage of ``matrix`` formatted one line at a time, each
    line's class b taken from its popcount M-1+b."""
    M = (matrix.width + 1) // 2
    lines = [
        f"{format(int(index), f'0{matrix.width}b')}\t{float17(value.real)}"
        f"\t{float17(value.imag)}\tC{int(index).bit_count() - (M - 1)}\n"
        for index, value in zip(matrix.indices, matrix.coefficients)
    ]
    Path(path).write_text("".join(lines), encoding="ascii")


def _closed_form(M: int, indices: np.ndarray) -> np.ndarray:
    """The cloner's amplitude of each support ket of ``indices``:
    ``gamma_j (-1)^j / sqrt(C(M, j)) / sqrt(C(M-1, j))``, j the popcount of
    the clone half for C0 and M minus it for C1."""
    amplitude = np.array([
        gamma(M, j) * ((-1.0) ** j / math.sqrt(math.comb(M, j))
                       * (1.0 / math.sqrt(math.comb(M - 1, j))))
        for j in range(M)
    ])
    ones = np.bitwise_count(indices >> (M - 1)).astype(np.int64)
    one = np.bitwise_count(indices) == M
    return amplitude[np.where(one, M - ones, ones)]


def assign_coefficients(M: int) -> GMMatrix:
    """The GMMatrix table of M clones: every support ket of both classes,
    the indices of popcount M-1 or M in one scan of the register, sorted,
    each with its closed-form amplitude."""
    check_register(M)
    n = 2 * M - 1
    indices = np.arange(2**n, dtype=np.int64)
    ones = np.bitwise_count(indices)
    support = indices[(ones == M - 1) | (ones == M)]
    return GMMatrix(n, support, _closed_form(M, support).astype(np.complex128))


def check_gm_matrix(matrix: GMMatrix, M: int, source) -> None:
    """Require ``matrix`` to be the GMMatrix stage of M clones: all
    2 C(2M-1, M) support kets, each within ``STAGE_ATOL`` of its closed-form
    amplitude.

    The indices are taken to be strictly increasing and in their popcount
    classes, as the stage reader checks, so the count makes them the whole
    support.  The count is checked first, then every record at once against
    ``gamma_j (-1)^j / sqrt(C(M, j)) / sqrt(C(M-1, j))``, j the popcount of
    the clone half for C0 and M minus it for C1; the earliest record off is
    named.  Raises :class:`InternalConsistencyError` naming ``source``
    otherwise.
    """
    expected = 2 * math.comb(2 * M - 1, M)
    if len(matrix) != expected:
        raise InternalConsistencyError(
            f"{source}: {len(matrix)} records, but the cloner of "
            f"M={M} has {expected} support kets"
        )
    closed = _closed_form(M, matrix.indices)
    off = np.abs(matrix.coefficients - closed)
    bad = np.flatnonzero(~(off <= STAGE_ATOL))
    if bad.size:
        record = int(bad[0])
        raise InternalConsistencyError(
            f"{source}:{record + 1}: coefficient is {off[record]:.3g} "
            f"from the cloner's amplitude {float17(closed[record])} "
            f"(tolerance {STAGE_ATOL:g})"
        )


def read_stage(path, M: int) -> GMMatrix:
    """The whole GMMatrix stage of M clones at ``path``: its two class reads
    (:func:`gmclone.pipeline.read_gm_matrix`) merged in index order."""
    parts = [read_gm_matrix(path, M, bit) for bit in (0, 1)]
    indices = np.concatenate([part.indices for part in parts])
    order = np.argsort(indices)
    coefficients = np.concatenate([part.coefficients for part in parts])
    return GMMatrix(2 * M - 1, indices[order], coefficients[order])


def reconstruct_state(matrix: GMMatrix, M: int, parity_class: int) -> StateVector:
    """Dense state of the parity class ``C{parity_class}`` rebuilt from a
    GMMatrix table."""
    n = 2 * M - 1
    if len(matrix) and matrix.width != n:
        raise DomainError(
            f"GMMatrix of width {matrix.width} does not fit a {n}-qubit register"
        )
    keep = np.bitwise_count(matrix.indices) == M - 1 + parity_class
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[matrix.indices[keep]] = matrix.coefficients[keep]
    return StateVector(n, amps)
