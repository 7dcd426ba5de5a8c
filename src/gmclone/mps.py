"""Matrix-product-state compilation by a successive-SVD sweep in Dicke
coordinates.

The remainder of the state is repartitioned left to right: at each cut it is
reshaped to (D_k * 2, rest) and SVD'd into V S W+; V is the site tensor and
S W+ is carried forward as the next remainder (Oseledets, SISC 33, 2295
(2011), Alg. 1).  So every site but the last is an isometry, the last
carries the norm, and the singular values of each cut are the Schmidt
values of the state truncated so far.  Singular values below
``tol * sigma_max`` are discarded per cut together with their factor
columns/rows; the roundtrip error is then bounded by the root-sum-square of
everything discarded.

There is one sweep, ``mps_from_dicke``.  The cloner output is symmetric over
its clones and over its anticlones, so it is the (M+1) x M matrix c of its
amplitudes on the Dicke states |D^M_a>|D^(M-1)_b>, and the sweep runs on
that matrix: the rest of a cut is the Dicke states of the qubits still to
peel, never a 2^n-wide array: no SVD sees more than 2 M^3 entries (the
largest at M = 12 is 12 x 84).  ``compile`` passes it the projection of a
GMMatrix stage's register onto the clone-symmetric (x) anticlone-symmetric
states; whatever a stage holds outside them is left out of the export and
shows in ``roundtrip_error``.  A builder input needs no sweep: its MPS in
the same gauge is written in closed form (``builder.gm_mps``).  The dense
sweep over a whole register and the full contraction of an MPS into one,
which the tests check this module against, live in ``tests/oracles.py``.

Site k holds two D_k x D_{k+1} matrices (one per basis value of qubit k),
stored as one (2, D_k, D_{k+1}) array.  Reconstruction contracts
left boundary . A_1 ... A_n . right boundary in ascending site order, one
matrix product per site (``contract_sweep``);
``mps_halves`` contracts the two sides of one bond apart, so the state is a
product of a (2^k, D) and a (D, 2^(n-k)) matrix that a caller can compare
with a reference without forming it.  ``compile`` checks its export that
way at the clone|anticlone bond, with no 2^n-amplitude array: a builder
export by projecting the halves onto the Dicke states, a stage export a
block of rows at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateStateError, DomainError, MalformedMPSError, StageParseError
from ._format import _pieces

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class MatrixProductState:
    sites: list  # site k: complex array (2, D_k, D_{k+1})
    left_boundary: np.ndarray  # (D_1,)
    right_boundary: np.ndarray  # (D_{n+1},)

    def __post_init__(self):
        self.validate()

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def bond_dims(self) -> list[int]:
        """D_1 .. D_{n+1} including the boundary bonds."""
        dims = [int(self.left_boundary.shape[0])]
        dims.extend(int(A.shape[2]) for A in self.sites)
        return dims

    def validate(self) -> None:
        if not self.sites:
            raise MalformedMPSError("MPS needs at least one site")
        if self.left_boundary.ndim != 1 or self.right_boundary.ndim != 1:
            raise MalformedMPSError("boundaries must be vectors")
        prev = self.left_boundary.shape[0]
        for k, A in enumerate(self.sites, start=1):
            if A.ndim != 3 or A.shape[0] != 2:
                raise MalformedMPSError(f"site {k} must have shape (2, D_k, D_k+1)")
            if A.shape[1] != prev:
                raise MalformedMPSError(
                    f"site {k}: expected {prev} rows, got {A.shape[1]}"
                )
            prev = A.shape[2]
        if self.right_boundary.shape[0] != prev:
            raise MalformedMPSError(
                f"right boundary has length {self.right_boundary.shape[0]}, "
                f"expected {prev}"
            )


@dataclass(frozen=True)
class BondCut:
    # Every singular value of the cut, descending and before truncation:
    # min(2 D_k, m T) of them for a (2 D_k, m T) cut of mps_from_dicke,
    # rounding tail included; the D_k Schmidt values of the bond's labels
    # for a cut of builder.gm_mps, with no rounding tail.
    singular_values: np.ndarray
    retained: int


@dataclass(frozen=True)
class BondSpectrum:
    cuts: list
    tolerance: float

    def discarded_weight(self) -> float:
        """Sum of squared discarded singular values across all cuts."""
        return float(
            sum(np.sum(cut.singular_values[cut.retained :] ** 2) for cut in self.cuts)
        )

    def retained_ranks(self) -> list[int]:
        return [cut.retained for cut in self.cuts]


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < 1.0:
        raise DomainError("tol must lie in [0, 1)")


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


def mps_halves(mps: MatrixProductState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The state as the product L @ R of its two halves at the bond after site k.

    L, of shape (2^k, D), contracts sites 1..k and R, of shape (D, 2^(n-k)),
    sites k+1..n, each in one :func:`contract_sweep` with an identity on
    the open bond (for k = n, R is the right boundary as a column).
    ``(L @ R).reshape(-1)`` is the contracted state, with no array of 2^n
    entries formed.  Raises :class:`DomainError` for a k outside 1..n.
    """
    mps.validate()
    if not 1 <= k <= mps.num_sites:
        raise DomainError(f"cut after site {k} outside 1..{mps.num_sites}")
    bond = np.eye(mps.sites[k - 1].shape[2], dtype=np.complex128)
    left = contract_sweep(mps.sites[:k], mps.left_boundary, bond)
    return left, contract_sweep(mps.sites[k:], bond, mps.right_boundary)


def bond_dimension(mps: MatrixProductState) -> int:
    """Largest bond dimension, boundaries included."""
    return max(mps.bond_dims())


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def _complex_rows(array: np.ndarray) -> np.ndarray:
    """The entries as an (n, 2) float view, one [re, im] row per entry."""
    flat = np.ascontiguousarray(array, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def export_document(mps: MatrixProductState, spectrum: BondSpectrum) -> dict:
    """The JSON document of :func:`save_mps`.

    Site entries (row-major over bit, row, col) and the boundaries are
    (n, 2) float64 views of the complex data, one [re, im] row per entry,
    and each cut's singular values a float64 vector: array leaves that
    :func:`~gmclone._format.dumps_17g` renders as their ``tolist()`` in one
    format call each.  ``json.loads(dumps_17g(doc))`` is the plain-list form.
    """
    return {
        "num_qubits": mps.num_sites,
        "sites": [
            {"shape": [int(d) for d in A.shape], "entries": _complex_rows(A)}
            for A in mps.sites
        ],
        "left_boundary": _complex_rows(mps.left_boundary),
        "right_boundary": _complex_rows(mps.right_boundary),
        "spectrum": {
            "tolerance": float(spectrum.tolerance),
            "cuts": [
                {
                    "singular_values": np.asarray(cut.singular_values, dtype=np.float64),
                    "retained": int(cut.retained),
                }
                for cut in spectrum.cuts
            ],
        },
    }


def save_mps(path, mps: MatrixProductState, spectrum: BondSpectrum) -> None:
    """Write the :func:`export_document` of ``mps`` as ``dumps_17g`` text.

    The text is written piece by piece through one open file, one site's
    entries at a time, so at most one array's text is in memory.
    """
    with open(path, "w", encoding="ascii") as out:
        out.writelines(_pieces(export_document(mps, spectrum)))


def _number(value) -> float:
    """A finite JSON number as a float; bools, strings and nulls are refused."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _count(value, low: int, high: int) -> int:
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"expected an integer in {low}..{high}, got {value!r}")
    return value


def _complex_array(rows) -> np.ndarray:
    return np.array(
        [complex(_number(re), _number(im)) for re, im in rows], dtype=np.complex128
    )


def _site(site) -> np.ndarray:
    entries = _complex_array(site["entries"])
    shape = tuple(_count(d, 1, entries.size) for d in site["shape"])
    if math.prod(shape) != entries.size:
        raise ValueError(f"{entries.size} entries do not fill shape {list(shape)}")
    return entries.reshape(shape)


def _spectrum(spec) -> BondSpectrum:
    tolerance = _number(spec["tolerance"])
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance {tolerance!r} outside [0, 1)")
    cuts = []
    for cut in spec["cuts"]:
        values = np.array([_number(v) for v in cut["singular_values"]], dtype=np.float64)
        if np.any(values < 0.0):
            raise ValueError("negative singular value")
        cuts.append(BondCut(values, _count(cut["retained"], 0, values.size)))
    return BondSpectrum(cuts=cuts, tolerance=tolerance)


def load_mps(path):
    """Inverse of :func:`save_mps`; returns (mps, spectrum).

    Raises :class:`StageParseError` for a document :func:`save_mps` cannot
    write: invalid JSON, a missing or mistyped field, a ``num_qubits`` other
    than the number of sites, a non-finite number, a site shape that is not
    positive integers filled by its entries, a negative singular value, a
    tolerance outside [0, 1) or a retained count that is not an integer in
    0..len(singular_values), or a spectrum whose cuts do not match the inner
    bonds (one cut per inner bond, retaining its dimension).  Sites whose
    bonds do not chain raise :class:`MalformedMPSError`.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes().decode("ascii"))
    except UnicodeDecodeError:
        raise StageParseError(path, 0, "non-ASCII byte") from None
    except json.JSONDecodeError as exc:
        raise StageParseError(path, exc.lineno, exc.msg) from None
    try:
        sites = [_site(site) for site in doc["sites"]]
        _count(doc["num_qubits"], len(sites), len(sites))
        left = _complex_array(doc["left_boundary"])
        right = _complex_array(doc["right_boundary"])
        spectrum = _spectrum(doc["spectrum"])
    except KeyError as exc:
        raise StageParseError(path, 0, f"missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise StageParseError(path, 0, f"malformed MPS document: {exc}") from None
    mps = MatrixProductState(sites=sites, left_boundary=left, right_boundary=right)
    bonds = mps.bond_dims()[1:-1]
    if spectrum.retained_ranks() != bonds:
        raise StageParseError(
            path, 0,
            f"spectrum retains {spectrum.retained_ranks()} at inner bonds {bonds}",
        )
    return mps, spectrum
