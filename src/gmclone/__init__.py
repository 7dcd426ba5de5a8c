"""gmclone: classical simulation of the 1->M universal quantum cloning machine.

Builds the sector factors of the exact (2M-1)-qubit cloner output, prepares
its basis outputs through a parity-classified bitstring pipeline, compiles
it into a matrix-product state by one successive-SVD sweep over its
Dicke-basis matrix, and checks cloning optimality and bond-dimension scaling
on the Dicke bases.
The dense reference constructions that the tests check all of this against
live in ``tests/oracles.py``.
"""

from .builder import (
    StateVector,
    gamma,
    gm_factors,
    gm_from_factors,
)
from .mps import (
    BondCut,
    BondSpectrum,
    MatrixProductState,
    bond_dimension,
    load_mps,
    mps_from_dicke,
    mps_halves,
    mps_to_state,
    save_mps,
)
from .pipeline import (
    GMMatrix,
    ParityClass,
    PipelineArtifacts,
    assign_coefficients,
    parity_classify,
    run_pipeline,
)
from .analysis import (
    ClonerAnalysis,
    ScalingRow,
    analyze_cloner,
    nonlinearity_gap,
    scaling_sweep,
)
from .qubit import (
    Qubit,
    anticlone,
    bit_index,
    bloch_qubit,
    equatorial_qubit,
    index_bits,
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
    "ParityClass",
    "PipelineArtifacts",
    "Qubit",
    "ScalingRow",
    "StateVector",
    "analyze_cloner",
    "anticlone",
    "assign_coefficients",
    "bit_index",
    "bloch_qubit",
    "bond_dimension",
    "equatorial_qubit",
    "gamma",
    "gm_factors",
    "gm_from_factors",
    "index_bits",
    "load_mps",
    "make_qubit",
    "mps_from_dicke",
    "mps_halves",
    "mps_to_state",
    "nonlinearity_gap",
    "parity_classify",
    "perp",
    "run_pipeline",
    "save_mps",
    "scaling_sweep",
]
