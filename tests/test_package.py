"""The public namespace of the package."""

import ast
import re
from pathlib import Path

import pytest

import gmclone
from gmclone import analysis, builder, cli, mps, pipeline

PUBLIC = [
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

# Reference implementations that no command calls; they live in tests/oracles.py.
ORACLES = [
    "StateVector",
    "dicke_kets",
    "gm_factors",
    "gm_from_factors",
    "mps_to_state",
    "GMParameters",
    "build_gm",
    "build_gm_basis",
    "expand_gm_decomposed",
    "symmetric_ket",
    "DensityMatrix",
    "reduced_density",
    "_single_qubit_fidelities",
    "clone_fidelity",
    "anticlone_fidelity",
    "combine_basis_mps",
    "mps_from_state",
    "mps_from_dicke",
    "DegenerateStateError",
    "schmidt_spectra",
    "dicke_state",
    "gen_full_bitstrings",
    "gen_gm_bitstrings",
    "write_bitstring_stage",
    "read_bitstring_stage",
    "assign_coefficients",
    "check_gm_matrix",
    "reconstruct_state",
]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gmclone import *", namespace)
    for name in gmclone.__all__:
        assert namespace[name] is getattr(gmclone, name)


def test_public_names_are_pinned():
    assert sorted(gmclone.__all__) == PUBLIC


@pytest.mark.parametrize("module", [gmclone, builder, analysis, mps, pipeline, cli],
                         ids=lambda module: module.__name__)
def test_oracles_stay_out_of_the_package(module):
    assert [name for name in ORACLES if hasattr(module, name)] == []


def test_mps_does_not_import_the_builder():
    tree = ast.parse(Path(mps.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "builder" not in imported


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
