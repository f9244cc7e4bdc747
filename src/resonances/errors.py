"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ResonanceError(Exception):
    """Base class for all package errors."""


class StructuralModelError(ResonanceError):
    """Malformed input data (non-square matrices, NaN entries, shape mismatch).

    Distinct from assumption violations, which are reported by
    ``validate_model`` instead of raised.
    """


class DomainError(ResonanceError):
    """Evaluation requested outside the declared holomorphy region."""


class GeometryError(ResonanceError):
    """A curve or integration circle violates its geometric constraints."""


class UnsupportedModelError(ResonanceError):
    """The model lacks data required by the requested operation."""


class GuardBandError(ResonanceError):
    """Evaluation point too close to quadrature nodes or discrete points."""

    def __init__(self, z, distance, guard):
        super().__init__(
            f"evaluation at z={z} is too close to the integration set: "
            f"distance {distance:.3e} <= guard {guard:.3e}"
        )
        self.z = z
        self.distance = distance
        self.guard = guard


class PairingError(ResonanceError):
    """Data that must belong together does not.

    Raised for contours or solutions that must be mirror partners, and for
    a contour used with a model other than the one it was built from.
    """


class InadmissibleCertificateError(ResonanceError):
    """Solvability certificate does not admit the contraction argument."""

    def __init__(self, certificate, message="solvability certificate is not admissible"):
        super().__init__(message)
        self.certificate = certificate


class NonconvergenceError(ResonanceError):
    """Iteration failed to converge; carries the step or value history.

    A fixed-point solve also attaches its solvability certificate; the
    closed-form root finders leave ``certificate`` as None.
    """

    def __init__(self, message, history=(), certificate=None):
        super().__init__(message)
        self.history = tuple(history)
        self.certificate = certificate


class ContractionViolationError(ResonanceError):
    """An iterate escaped the certified ball; quadrature error dominates."""


class ResolventSingularityError(ResonanceError):
    """(Y - mu) was singular at a quadrature node or discrete point."""

    def __init__(self, mu):
        super().__init__(f"resolvent is singular at integration point mu={mu}")
        self.mu = mu


class IdentityFailureError(ResonanceError):
    """A proved operator identity failed beyond the allowed numerical slack."""


class InconsistencyError(ResonanceError):
    """Cross-checked spectral data disagree beyond tolerance."""


class ClusteringError(ResonanceError):
    """Eigenvalue clusters cannot be separated by residue circles."""
