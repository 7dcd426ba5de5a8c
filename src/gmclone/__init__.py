"""gmclone: classical simulation of the 1->M universal quantum cloning machine.

Builds the exact (2M-1)-qubit cloner output on a dense register, prepares it
through a parity-classified bitstring pipeline, compiles it into a
matrix-product state by successive singular-value decompositions, and checks
cloning optimality and bond-dimension scaling.
"""

from .builder import (
    GMParameters,
    StateVector,
    build_gm,
    build_gm_basis,
    expand_gm_decomposed,
    gamma,
    gm_factors,
    gm_from_factors,
    symmetric_ket,
)
from .mps import (
    BondCut,
    BondSpectrum,
    MatrixProductState,
    bond_dimension,
    combine_basis_mps,
    load_mps,
    mps_from_factors,
    mps_from_state,
    mps_halves,
    mps_to_state,
    save_mps,
)
from .pipeline import (
    GMMatrix,
    ParityClass,
    PipelineArtifacts,
    assign_coefficients,
    gen_full_bitstrings,
    gen_gm_bitstrings,
    parity_classify,
    run_pipeline,
)
from .analysis import (
    DensityMatrix,
    ClonerAnalysis,
    ScalingRow,
    analyze_cloner,
    anticlone_fidelity,
    clone_fidelity,
    nonlinearity_gap,
    reduced_density,
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
    "DensityMatrix",
    "GMMatrix",
    "GMParameters",
    "MatrixProductState",
    "ParityClass",
    "PipelineArtifacts",
    "Qubit",
    "ScalingRow",
    "StateVector",
    "analyze_cloner",
    "anticlone",
    "anticlone_fidelity",
    "assign_coefficients",
    "bit_index",
    "bloch_qubit",
    "bond_dimension",
    "build_gm",
    "build_gm_basis",
    "clone_fidelity",
    "combine_basis_mps",
    "equatorial_qubit",
    "expand_gm_decomposed",
    "gamma",
    "gen_full_bitstrings",
    "gen_gm_bitstrings",
    "gm_factors",
    "gm_from_factors",
    "index_bits",
    "load_mps",
    "make_qubit",
    "mps_from_factors",
    "mps_from_state",
    "mps_halves",
    "mps_to_state",
    "nonlinearity_gap",
    "parity_classify",
    "perp",
    "reduced_density",
    "run_pipeline",
    "save_mps",
    "scaling_sweep",
    "symmetric_ket",
]
