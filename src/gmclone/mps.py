"""Matrix-product-state compilation by a successive-SVD sweep.

The coefficient tensor is repartitioned left to right: at each cut the
current remainder is reshaped to (D_k * 2, rest), SVD'd into V S W+, the
site tensor absorbs V S (singular values stay on the left factor) and W+ is
carried forward as the next remainder.  Singular values below
``tol * sigma_max`` are discarded per cut together with their factor
columns/rows; the roundtrip error is then bounded by the root-sum-square of
everything discarded (Oseledets, SISC 33, 2295 (2011)).

There is one sweep, ``mps_from_factors``, over a state given as
head @ tail, where tail has orthonormal rows, without forming it: the cuts
through head have the singular values and left vectors of the dense cuts,
and tail joins the remainder after the last of them.  ``mps_from_state`` is
that sweep with the whole register as head and a 1 x 1 tail.  ``compile``
and ``sweep`` pass the cloner's anticlone stack (``builder.gm_factors``) as
tail, with the weighted clone stack as head, or for a GMMatrix stage its
register projected onto the anticlone rows.  So at M = 12 the widest cut is
2 x (2^11 * 12) instead of 2 x 2^22, where rounding of about
eps * sqrt(cols) * sigma_max can pass the default cutoff as a singular value.

Site k holds two D_k x D_{k+1} matrices (one per basis value of qubit k),
stored as one (2, D_k, D_{k+1}) array.  Reconstruction contracts
left boundary . A_1 ... A_n . right boundary in ascending site order;
``mps_halves`` contracts the two sides of one bond apart, so the state is a
product of a (2^k, D) and a (D, 2^(n-k)) matrix that a caller can compare
with a reference a block of rows at a time.  ``compile`` checks its export
that way at the clone|anticlone bond, with no 2^n-amplitude array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .builder import StateVector
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
    singular_values: np.ndarray  # full descending list, pre-truncation
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


def _qubit_count(size: int, what: str) -> int:
    """n for a ``size`` of 2^n, else :class:`DomainError`."""
    n = size.bit_length() - 1
    if size < 1 or size != 1 << n:
        raise DomainError(f"{what} has {size} entries, not a power of two")
    return n


def mps_from_state(state: StateVector, tol: float = DEFAULT_TOL):
    """Compile a dense state into MPS form; returns (mps, spectrum).

    ``tol`` is relative: at every cut, singular values > tol * sigma_max are
    retained.  tol = 0 keeps everything nonzero and makes the roundtrip
    exact to machine precision.  This is :func:`mps_from_factors` with the
    whole register as head and a 1 x 1 tail.
    """
    return mps_from_factors(state.amplitudes.reshape(-1, 1), np.ones((1, 1)), tol)


def mps_from_factors(head, tail, tol: float = DEFAULT_TOL):
    """Compile the state ``(head @ tail).reshape(-1)`` into MPS form.

    ``head`` is (2^m, r) and ``tail`` is (r, 2^(n-m)) with orthonormal rows.
    Cut k <= m of the dense sweep is the (2 D_k, 2^(m-k) r) remainder of
    ``head`` times I (x) ``tail``, whose rows are orthonormal, so the small
    matrix has the same singular values and left vectors.  ``tail`` is
    multiplied in once, after cut m (after the last cut when m = n), and
    the sweep finishes on the (D_m, 2^(n-m)) remainder.  Returns
    (mps, spectrum) like :func:`mps_from_state` of the product, up to a
    phase per singular vector.  Raises :class:`DomainError` for a ``tol``
    outside [0, 1), shapes that are not (2^m, r) and (r, 2^(n-m)), n = 0,
    or a ``tail`` whose Gram matrix is further than 1e-12 from the identity.
    """
    _check_tol(tol)
    head = np.asarray(head, dtype=np.complex128)
    tail = np.asarray(tail, dtype=np.complex128)
    if head.ndim != 2 or tail.ndim != 2 or not 1 <= head.shape[1] == tail.shape[0]:
        raise DomainError(
            f"head {head.shape} and tail {tail.shape} are not (2^m, r) and (r, 2^(n-m))"
        )
    m = _qubit_count(head.shape[0], "head column")
    n = m + _qubit_count(tail.shape[1], "tail row")
    if n < 1:
        raise DomainError("need at least one qubit")
    gram = tail @ tail.conj().T
    if not np.max(np.abs(gram - np.eye(tail.shape[0]))) <= 1e-12:
        raise DomainError("tail rows are not orthonormal to 1e-12")
    split = min(m, n - 1)
    remainder = np.ascontiguousarray(head).reshape(1, -1)
    sites = []
    cuts = []
    for k in range(n):
        if k == split:
            rows = remainder.shape[0]
            remainder = (remainder.reshape(-1, tail.shape[0]) @ tail).reshape(rows, -1)
        if k == n - 1:
            break
        matrix = remainder.reshape(remainder.shape[0] * 2, -1)
        U, S, Wh = np.linalg.svd(matrix, full_matrices=False)
        if S[0] <= 0.0:
            raise DegenerateStateError("zero state: nothing to retain at this cut")
        keep = int(np.sum(S > tol * S[0]))
        if keep == 0:
            raise DegenerateStateError("all singular values truncated at a cut")
        cuts.append(BondCut(S.copy(), keep))
        site = (U[:, :keep] * S[:keep]).reshape(-1, 2, keep).transpose(1, 0, 2)
        sites.append(np.ascontiguousarray(site))
        remainder = Wh[:keep, :]
    last = remainder.reshape(-1, 2, 1).transpose(1, 0, 2)
    sites.append(np.ascontiguousarray(last))
    mps = MatrixProductState(
        sites=sites,
        left_boundary=np.ones(1, dtype=np.complex128),
        right_boundary=np.ones(1, dtype=np.complex128),
    )
    return mps, BondSpectrum(cuts=cuts, tolerance=tol)


def mps_to_state(mps: MatrixProductState) -> StateVector:
    """Contract the MPS back into dense amplitudes (no renormalization)."""
    mps.validate()
    amps = kernels.contract_sweep(mps.sites, mps.left_boundary, mps.right_boundary)
    return StateVector(mps.num_sites, amps)


def mps_halves(mps: MatrixProductState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The state as the product L @ R of its two halves at the bond after site k.

    L, of shape (2^k, D), contracts sites 1..k and R, of shape (D, 2^(n-k)),
    sites k+1..n, each in one :func:`kernels.contract_sweep` with an
    identity on the open bond; for k = n, R is the right boundary as a
    column.  ``(L @ R).reshape(-1)`` is :func:`mps_to_state` up to rounding,
    with no array of 2^n entries formed.  Raises :class:`DomainError` for a
    k outside 1..n.
    """
    mps.validate()
    if not 1 <= k <= mps.num_sites:
        raise DomainError(f"cut after site {k} outside 1..{mps.num_sites}")
    bond = np.eye(mps.sites[k - 1].shape[2], dtype=np.complex128)
    left = kernels.contract_sweep(mps.sites[:k], mps.left_boundary, bond)
    if k == mps.num_sites:
        return left, mps.right_boundary.reshape(-1, 1)
    return left, kernels.contract_sweep(mps.sites[k:], bond, mps.right_boundary)


def bond_dimension(mps: MatrixProductState) -> int:
    """Largest bond dimension, boundaries included."""
    return max(mps.bond_dims())


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
# export / import
# ---------------------------------------------------------------------------

def _complex_rows(array: np.ndarray) -> np.ndarray:
    """The entries as an (n, 2) float view, one [re, im] row per entry."""
    flat = np.ascontiguousarray(array, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def export_document(mps: MatrixProductState, spectrum: BondSpectrum | None = None) -> dict:
    """The JSON document of :func:`save_mps`.

    Site entries (row-major over bit, row, col) and the boundaries are
    (n, 2) float64 views of the complex data, one [re, im] row per entry,
    and each cut's singular values a float64 vector: array leaves that
    :func:`~gmclone._format.dumps_17g` renders as their ``tolist()`` in one
    format call each.  ``json.loads(dumps_17g(doc))`` is the plain-list form.
    """
    doc = {
        "num_qubits": mps.num_sites,
        "sites": [
            {"shape": [int(d) for d in A.shape], "entries": _complex_rows(A)}
            for A in mps.sites
        ],
        "left_boundary": _complex_rows(mps.left_boundary),
        "right_boundary": _complex_rows(mps.right_boundary),
    }
    if spectrum is not None:
        doc["spectrum"] = {
            "tolerance": float(spectrum.tolerance),
            "cuts": [
                {
                    "singular_values": np.asarray(cut.singular_values, dtype=np.float64),
                    "retained": int(cut.retained),
                }
                for cut in spectrum.cuts
            ],
        }
    return doc


def save_mps(path, mps: MatrixProductState, spectrum: BondSpectrum | None = None) -> None:
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
    """Inverse of :func:`save_mps`; returns (mps, spectrum-or-None).

    Raises :class:`StageParseError` for a document :func:`save_mps` cannot
    write: invalid JSON, a missing or mistyped field, a non-finite number,
    a site shape that is not positive integers filled by its entries, a
    negative singular value, a tolerance outside [0, 1) or a retained count
    that is not an integer in 0..len(singular_values), or a spectrum whose
    cuts do not match the inner bonds (one cut per inner bond, retaining its
    dimension).  Sites whose bonds do not chain raise
    :class:`MalformedMPSError`.
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
        left = _complex_array(doc["left_boundary"])
        right = _complex_array(doc["right_boundary"])
        spectrum = _spectrum(doc["spectrum"]) if "spectrum" in doc else None
    except KeyError as exc:
        raise StageParseError(path, 0, f"missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise StageParseError(path, 0, f"malformed MPS document: {exc}") from None
    mps = MatrixProductState(sites=sites, left_boundary=left, right_boundary=right)
    bonds = mps.bond_dims()[1:-1]
    if spectrum is not None and spectrum.retained_ranks() != bonds:
        raise StageParseError(
            path, 0,
            f"spectrum retains {spectrum.retained_ranks()} at inner bonds {bonds}",
        )
    return mps, spectrum
