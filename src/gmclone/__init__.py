"""gmclone: classical simulation of the 1->M universal quantum cloning machine.

Builds the exact (2M-1)-qubit cloner output as its (M+1) x M matrix on the
Dicke bases (``dicke_outputs``), prepares its basis outputs through a
parity-classified bitstring pipeline, writes it as a matrix-product state
in closed form (``gm_mps``), with no SVD, and checks that state against
the matrix or a prepared stage, cloning optimality and bond-dimension
scaling on the Dicke bases.
The dense reference constructions that the tests check all of this against
live in ``tests/oracles.py``.
"""

from .builder import (
    dicke_outputs,
    gamma,
    gm_mps,
)
from .mps import (
    BondCut,
    BondSpectrum,
    MatrixProductState,
    bond_dimension,
    load_mps,
    mps_halves,
    save_mps,
)
from .pipeline import (
    GMMatrix,
    run_pipeline,
)
from .analysis import (
    ClonerAnalysis,
    ScalingRow,
    analyze_cloner,
    scaling_sweep,
)
from .qubit import (
    Qubit,
    anticlone,
    equatorial_qubit,
    make_qubit,
    perp,
)

__version__ = "0.1.0"

__all__ = [
    "BondCut",
    "BondSpectrum",
    "ClonerAnalysis",
    "GMMatrix",
    "MatrixProductState",
    "Qubit",
    "ScalingRow",
    "analyze_cloner",
    "anticlone",
    "bond_dimension",
    "dicke_outputs",
    "equatorial_qubit",
    "gamma",
    "gm_mps",
    "load_mps",
    "make_qubit",
    "mps_halves",
    "perp",
    "run_pipeline",
    "save_mps",
    "scaling_sweep",
]
