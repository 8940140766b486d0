"""The names the package exports: one may go only by an edit of this list."""

import ast
import types
from pathlib import Path

import obslab

PUBLIC = [
    "AlgebraicPointSet",
    "BoundaryEdgeBottom",
    "BoundaryEdgeLeft",
    "BoundaryGamma0",
    "ConstantReport",
    "CrossStrips",
    "DiophantineReport",
    "EnergyWeight",
    "ExponentialSum",
    "GramForm",
    "HorizontalLine",
    "HorizontalStrip",
    "ModeSet",
    "ObservationSpec",
    "OpenRect",
    "Pencil",
    "RectangleGeometry",
    "SpectralState",
    "SymmetryConstants",
    "SymmetrySpec",
    "THEOREM_IDS",
    "VerticalLine",
    "VerticalSegments",
    "VerticalStrip",
    "assemble_gram",
    "build_algebraic_points",
    "build_mode_set",
    "check_gap_lemma",
    "check_theorem",
    "corollary33_check",
    "dist_to_integers",
    "empirical_constants",
    "energy_seminorm_sq",
    "estimate_gamma",
    "fill_theorem_params",
    "m_ab",
    "mehrenberger_check",
    "partial_gap_analysis",
    "pencil",
    "predicted_constant",
    "project_p_symmetric",
    "quadrature_oracle",
    "random_state",
    "random_states",
    "scan_theorem",
    "sin_sum_lower_bound_check",
    "sine_dist_check",
    "sine_overlap",
    "state_from_json",
    "state_to_json",
    "symmetry_constants",
    "symmetry_residual",
    "theorem_symmetries",
    "thm21_fourfamily_form",
    "time_kernel",
    "verify_observability",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what was imported
    exported = sorted(
        name
        for name, value in vars(obslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert PUBLIC == sorted(PUBLIC)
    assert exported == PUBLIC


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export, so only the other modules are held to this
    package = Path(obslab.__file__).parent
    unused = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}
    source = "from .observation import GramForm, assemble_gram\nassemble_gram()\n"
    assert _unused_imports(source) == ["GramForm"]
