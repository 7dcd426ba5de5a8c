"""Matrix-product states: the container, its bond spectrum, contraction
and the ``mps.json`` export.

Site k holds two D_k x D_{k+1} matrices (one per basis value of qubit k),
stored as one (2, D_k, D_{k+1}) array.  ``builder.gm_mps`` writes the
cloner output in this form, in closed form and with no SVD: every site but
the last is an isometry, the last carries the norm, and each cut lists the
Schmidt values of the state truncated so far (Oseledets, SISC 33, 2295
(2011), Alg. 1, gives the same gauge by a sweep of SVDs).  ``tol`` is
relative: a cut keeps the values above ``tol`` times its largest.  The
dense and Dicke-coordinate SVD sweeps and the full contraction of an MPS
into one register, which the tests check the closed form against, live in
``tests/oracles.py``.

Reconstruction contracts
left boundary . A_1 ... A_n . right boundary in ascending site order, one
matrix product per site (``contract_sweep``);
``mps_halves`` contracts the two sides of one bond apart, so the state is a
product of a (2^k, D) and a (D, 2^(n-k)) matrix that a caller can compare
with a reference without forming it.  ``compile`` checks its export that
way at the clone|anticlone bond, with no 2^n-amplitude array: against the
builder by projecting the halves onto the Dicke states, against a stage a
block of rows at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, MalformedMPSError, StageParseError
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
    # The D_k Schmidt values of the bond's labels, descending and before
    # truncation, with no rounding tail.
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
