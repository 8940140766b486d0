"""Numerical laboratory for observability inequalities on rectangles.

Truncated sine-basis expansions of membrane (wave) and hinged-plate solutions,
exact Gram forms for observation functionals, observability constants as
extremal eigenvalues of weighted Hermitian pencils, explicit constant and time
threshold formulas, and brute-force checks of the supporting gap, symmetry and
Diophantine lemmas.
"""

__version__ = "0.1.0"

import os as _os

# OBSLAB_THREADS caps BLAS parallelism; must land before numpy is imported
if "OBSLAB_THREADS" in _os.environ:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _os.environ["OBSLAB_THREADS"])

from .spectrum import (
    RectangleGeometry,
    ModeSet,
    build_mode_set,
    check_gap_lemma,
    partial_gap_analysis,
)
from .states import (
    SpectralState,
    EnergyWeight,
    SymmetrySpec,
    energy_seminorm_sq,
    project_p_symmetric,
    symmetry_residual,
    random_state,
    random_states,
    state_to_json,
    state_from_json,
)
from .observation import (
    ObservationSpec,
    GramForm,
    VerticalSegments,
    BoundaryEdgeBottom,
    BoundaryEdgeLeft,
    BoundaryGamma0,
    VerticalStrip,
    HorizontalStrip,
    CrossStrips,
    VerticalLine,
    HorizontalLine,
    OpenRect,
    time_kernel,
    sine_overlap,
    assemble_gram,
    quadrature_oracle,
    thm21_fourfamily_form,
)
from .inequalities import (
    ConstantReport,
    SymmetryConstants,
    ExponentialSum,
    Pencil,
    pencil,
    empirical_constants,
    m_ab,
    symmetry_constants,
    predicted_constant,
    verify_observability,
    check_theorem,
    scan_theorem,
    fill_theorem_params,
    theorem_symmetries,
    mehrenberger_check,
    corollary33_check,
    sin_sum_lower_bound_check,
    THEOREM_IDS,
)
from .diophantine import (
    AlgebraicPointSet,
    DiophantineReport,
    build_algebraic_points,
    dist_to_integers,
    estimate_gamma,
    sine_dist_check,
)
