"""Numerical ergodic-theory laboratory for endomorphisms of the projective plane.

The package builds holomorphic self-maps of P^2 from homogeneous polynomial
triples and measures their equilibrium dynamics: escape-rate potentials,
backward-orbit sampling of the measure of maximal entropy, Lyapunov
exponents, expansion-adapted tangent frames, and slice measures, ball
masses and a mass certificate for the Green currents.  A zoo of maps with
known exponents and dimensions serves as the reference for each estimate.
"""

from __future__ import annotations

from .errors import (
    ConfigError,
    CorrectionDomainError,
    CriticalPointError,
    DegenerateEvaluationError,
    DegenerateMapError,
    FrameError,
    OrbitInvariantError,
    P2DynError,
    PreimageSolverError,
    ResolutionError,
    SamplingError,
)
from .frames import (
    NormalFormCoordinates,
    OseledecFrame,
    PullbackScaling,
    compute_frame,
    default_coordinates,
    pullback_scaling,
    resonance_detect,
)
from .green import (
    GreenEvaluator,
    escape_rate,
    local_potential,
)
from .preimages import (
    PreimageBatch,
    preimage_batch,
    preimages,
)
from .projective import (
    ChartPoint,
    HomogeneousMap,
    HomogeneousPoint,
    injectivity_radius,
)
from .sampler import (
    BackwardOrbit,
    ExponentEstimate,
    MeasureSample,
    backward_orbit,
    fs_jacobian_dets,
    fs_tangent_maps,
    lyapunov_exponents,
    sample_equilibrium,
    tangent_basis_batch,
    write_csv,
)
from .slices import (
    LocalGrid,
    MassCertificate,
    SliceMeasure,
    axis_chart,
    ball_mass,
    calibration_mass,
    harmonicity_defect,
    mass_certificate,
    positivity_check,
    slice_csv,
    slice_measure,
    slice_summary,
    trace_measure,
)
from .zoo import (
    MapFamily,
    certify_nondegenerate,
    family_by_name,
    parse_map,
    perturb,
    serialize_map,
    standard_zoo,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardOrbit",
    "ChartPoint",
    "ConfigError",
    "CorrectionDomainError",
    "CriticalPointError",
    "DegenerateEvaluationError",
    "DegenerateMapError",
    "ExponentEstimate",
    "FrameError",
    "GreenEvaluator",
    "HomogeneousMap",
    "HomogeneousPoint",
    "MapFamily",
    "MeasureSample",
    "NormalFormCoordinates",
    "OrbitInvariantError",
    "OseledecFrame",
    "LocalGrid",
    "MassCertificate",
    "P2DynError",
    "PreimageBatch",
    "PreimageSolverError",
    "PullbackScaling",
    "ResolutionError",
    "SamplingError",
    "SliceMeasure",
    "axis_chart",
    "backward_orbit",
    "ball_mass",
    "calibration_mass",
    "certify_nondegenerate",
    "compute_frame",
    "default_coordinates",
    "escape_rate",
    "family_by_name",
    "fs_jacobian_dets",
    "fs_tangent_maps",
    "harmonicity_defect",
    "injectivity_radius",
    "local_potential",
    "lyapunov_exponents",
    "mass_certificate",
    "parse_map",
    "perturb",
    "positivity_check",
    "preimage_batch",
    "preimages",
    "pullback_scaling",
    "resonance_detect",
    "sample_equilibrium",
    "serialize_map",
    "slice_csv",
    "slice_measure",
    "slice_summary",
    "standard_zoo",
    "tangent_basis_batch",
    "trace_measure",
    "write_csv",
    "__version__",
]
