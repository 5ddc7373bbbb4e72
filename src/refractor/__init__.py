"""Poly-oval near-field refractor design.

Given a point source radiating through a spherical cap and a finite set of
target points with prescribed energy fractions, find the piecewise Descartes
oval surface that refracts the emitted energy onto the targets to within a
requested tolerance, and verify the design by forward ray tracing.
"""

from .geometry import CapDomain, QuadratureGrid, build_quadrature, cap_area, cap_min_dot
from .measure import (
    MeasureVector,
    assign_cells,
    export_mesh,
    flood_vector,
    refractor_measure,
    rho,
    total_energy,
    write_obj,
)
from .oval import (
    DegenerateNormal,
    NonPositiveDiscriminant,
    OvalParams,
    delta,
    oval_db,
    oval_extrema,
    oval_gradient,
    oval_normal,
    oval_radius,
)
from .raytrace import TotalInternalReflection, trace_ray, validate_transport
from .scene import (
    H1Violated,
    H2Violated,
    InadmissibleBVector,
    IntensitySpec,
    R0TooLarge,
    Scene,
    SceneValidationError,
    TargetPoint,
    alpha_bound,
    default_b1,
    initial_admissible_vector,
    load_scene,
    scene_from_dict,
    validate_h1,
    validate_h2,
    validate_structural,
)
from .snell import RefractionResult, critical_cos, refract
from .solver import (
    FloorReached,
    MaxGroupsExceeded,
    MonotoneOracleSpec,
    QuantizationTooCoarse,
    RefractorSolution,
    SolverConfig,
    SolverTrace,
    adjust_coordinate,
    estimate_lipschitz,
    solve,
    solve_refractor,
)

__version__ = "0.1.0"
