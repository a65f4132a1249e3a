"""Certifiably robust correspondence-based point-cloud registration.

The pipeline decouples scale, rotation, and translation estimation under
a truncated-least-squares cost: scale by exact adaptive voting over
pairwise invariant measurements, outlier pruning by maximum-clique
selection on the scale-consistent graph, rotation by graduated
non-convexity with an a-posteriori dual optimality certificate, and
translation component-wise by the same scalar solver.
"""

from .certifier import (
    Certificate,
    CertifyOptions,
    Verdict,
    build_cost_matrix,
    certify,
    make_candidate,
)
from .clique import CliqueResult, PrunedGraph, max_clique, next_clique, prune_by_scale
from .geometry import (
    CorrespondenceSet,
    RigidTransform,
    TlsConfig,
    UnitQuaternion,
    beta_from_sigma,
    geodesic_rotation_error,
)
from .invariants import GraphTopology, MeasurementGraph, build_measurement_graph
from .pipeline import (
    ErrorBounds,
    InsufficientInliersError,
    RegistrationOptions,
    RegistrationResult,
    RegistrationTrace,
    compute_error_bounds,
    estimate_translation,
    register,
)
from .ransac import ransac_baseline
from .rotation import RotationProblem, RotationSolution, horn_weighted, solve_gnc_tls
from .scalar_tls import (
    ScalarTlsProblem,
    ScalarTlsSolution,
    consensus_equivalence_check,
    solve_consensus_max,
    solve_scalar_tls,
)
from .synthetic import SyntheticSpec, generate

__all__ = [
    "Certificate",
    "CertifyOptions",
    "Verdict",
    "build_cost_matrix",
    "certify",
    "make_candidate",
    "CliqueResult",
    "PrunedGraph",
    "max_clique",
    "next_clique",
    "prune_by_scale",
    "CorrespondenceSet",
    "RigidTransform",
    "TlsConfig",
    "UnitQuaternion",
    "beta_from_sigma",
    "geodesic_rotation_error",
    "GraphTopology",
    "MeasurementGraph",
    "build_measurement_graph",
    "ErrorBounds",
    "InsufficientInliersError",
    "RegistrationOptions",
    "RegistrationResult",
    "RegistrationTrace",
    "compute_error_bounds",
    "estimate_translation",
    "register",
    "ransac_baseline",
    "RotationProblem",
    "RotationSolution",
    "horn_weighted",
    "solve_gnc_tls",
    "ScalarTlsProblem",
    "ScalarTlsSolution",
    "solve_scalar_tls",
    "solve_consensus_max",
    "consensus_equivalence_check",
    "SyntheticSpec",
    "generate",
]

__version__ = "0.1.0"
