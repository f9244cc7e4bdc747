"""Resonances of 2x2 self-adjoint operator matrices.

Numerical library for computing resonances as eigenvalues of effective
non-self-adjoint operators obtained by solving a nonlinear fixed-point
equation on analytically continued contours, together with verified
factorization, moment, residue, and basis identities.
"""

from .contour import (
    Contour,
    Flat,
    Rectangle,
    Semicircle,
    SolvabilityCertificate,
    build_contour,
    double_order,
    mirrored,
    separation_distance,
    solvability_certificate,
    variation,
)
from .errors import (
    ClusteringError,
    ContractionViolationError,
    DomainError,
    GeometryError,
    GuardBandError,
    IdentityFailureError,
    InadmissibleCertificateError,
    InconsistencyError,
    NonconvergenceError,
    PairingError,
    ResolventSingularityError,
    ResonanceError,
    StructuralModelError,
    UnsupportedModelError,
)
from .friedrichs import (
    BoundStates,
    FriedrichsParams,
    bound_states,
    friedrichs_model,
    params_from_model,
    resonance_root,
    self_energy_closed,
    transfer_closed,
)
from .model import (
    CouplingFunction,
    DecaySpec,
    DiscretePoint,
    Interval,
    SpectralModel,
    ValidationReport,
    model_dumps,
    model_from_json_dict,
    model_to_json_dict,
    spectral_norm,
    validate_model,
)
from .solver import (
    Solution,
    adjoint_equation_residual,
    contour_independence,
    fixed_point_residual,
    self_energy_of_operator,
    solve_fixed_point,
)
from .spectral import (
    Circle,
    Factorization,
    GramResult,
    MomentResult,
    OverlapOperator,
    ProjectionReport,
    ResidueResult,
    SpectralDecomposition,
    contour_moment,
    eigen_decompose,
    enclosure_circles,
    factorize,
    left_factor_inverse_bound,
    overlap_operator,
    residue_at,
    riesz_gram,
    transfer_residue,
    verify_projection_equations,
)
from .transfer import (
    self_energy_many,
    transfer_many,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
