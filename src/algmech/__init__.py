"""Hamiltonian mechanics on algebroids in local coordinates.

Structure functions of a (not necessarily skew or Jacobi) bracket with left
and right anchors induce dynamics on the dual-bundle chart; the same dynamics
is reconstructed independently through a lifted exact symplectic structure,
and the equivalence plus closedness claims are verified numerically.
"""

from .algebroid import (
    AlgebroidStructure,
    StructureReport,
    StructureSnapshot,
    canonical_tangent,
    d_full,
    d_skew,
    d_sym,
    diff_lr_section,
    left_right_diff,
    so3_algebra,
    structure_checks,
    structure_eval,
)
from .connections import (
    ConnectionPair,
    CurvatureTensor,
    curvature_field,
    default_split,
    levi_civita,
    metric_compatible_pair,
    verify_split,
)
from .errors import (
    InputError,
    IntegrationDivergedError,
    InvalidStructureError,
    NumericError,
)
from .fields import (
    SmoothField,
    TensorField,
    field_from_polynomial,
)
from .hamiltonian import (
    PhasePoint,
    Trajectory,
    energy_rate,
    ham_field,
    integrate,
)
from .prolongation import (
    ProlongationData,
    closedness_residual,
    lr_ham_field,
    omega,
    prolong_eval,
    right_ham_section,
)
from .scenarios import (
    ConstraintSpec,
    ScenarioBundle,
    build_canonical,
    build_constrained,
    build_contorsion,
    build_euler_top,
    build_gradient_extension,
    build_lie_poisson,
    lagrangian_reference,
)

__version__ = "0.1.0"
