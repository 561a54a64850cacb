"""Multiview camera geometry with distance-constrained reconstruction.

Cameras are rank-3 3x4 matrices over exact rationals or floats.  The package
provides triangulation from camera pairs, membership tests for consistent
image tuples, the degree-8 constraint families that cut out image pairs of
world points at fixed distance, a sparse multigraded polynomial engine for
span-dimension computations, and a seeded experiment harness with a CLI.
"""

from .cameras import (
    Camera,
    CameraRig,
    ProjectivePoint,
    RigidMotion,
    apply_left_action,
    apply_right_action,
    cayley_rotation,
    forward_map,
    multiview_membership,
    projectively_equal,
    rig_from_json,
    rig_to_json,
)
from .constraints import (
    BihomForm,
    Family,
    QuadTensor,
    chow_factor,
    chow_map,
    collinearity_discriminant,
    constraint_system,
    coplanar_residuals,
    distance_form,
    distance_form_squared,
    polarize,
    rigid_pair_by_equations,
    rigid_pair_oracle,
    triangle_inequality_ok,
    trilinear_residuals,
    unit_distance_form,
)
from .harness import (
    numeric_dimension,
    random_camera,
    random_rig,
    refine_rigid_pair,
    run_experiment,
    sample_unit_pair,
)
from .linalg import EXACT, FLOAT, Mat, det, rank, signed_maximal_minors
from .polyspace import (
    MultiHomogPoly,
    all_octics_symbolic,
    expand_wedge_symbolic,
    generator_count,
    ideal_component_basis,
    span_dimension,
)
from .triangulation import (
    BMatrix,
    TriangulationSolution,
    assemble_b,
    is_triangulable,
    triangulate,
)

__all__ = [
    "BMatrix",
    "BihomForm",
    "Camera",
    "CameraRig",
    "EXACT",
    "FLOAT",
    "Family",
    "Mat",
    "MultiHomogPoly",
    "ProjectivePoint",
    "QuadTensor",
    "RigidMotion",
    "TriangulationSolution",
    "all_octics_symbolic",
    "apply_left_action",
    "apply_right_action",
    "assemble_b",
    "cayley_rotation",
    "chow_factor",
    "chow_map",
    "collinearity_discriminant",
    "constraint_system",
    "coplanar_residuals",
    "det",
    "distance_form",
    "distance_form_squared",
    "expand_wedge_symbolic",
    "forward_map",
    "generator_count",
    "ideal_component_basis",
    "is_triangulable",
    "multiview_membership",
    "numeric_dimension",
    "polarize",
    "projectively_equal",
    "random_camera",
    "random_rig",
    "rank",
    "refine_rigid_pair",
    "rig_from_json",
    "rig_to_json",
    "rigid_pair_by_equations",
    "rigid_pair_oracle",
    "run_experiment",
    "sample_unit_pair",
    "signed_maximal_minors",
    "span_dimension",
    "triangle_inequality_ok",
    "triangulate",
    "trilinear_residuals",
    "unit_distance_form",
]
