"""Transfer function evaluation on the physical sheet and its continuations.

The continued transfer function is the internal matrix minus the spectral
parameter plus the self-energy term, where the self-energy integral runs
over the discrete remainder and the deformation contour. Points closer to
the integration set than a guard band are rejected rather than extrapolated
because the quadrature error grows like the inverse distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Contour, _quadrature, is_mirror_pair
from .errors import GuardBandError, PairingError, ResolventSingularityError
from .model import SpectralModel, spectral_norm

LOCATION_INSIDE = "inside"
LOCATION_OUTSIDE = "outside"
LOCATION_GUARD_BAND = "on-contour-guard-band"


def _resolvents(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Stacked inverses of (h - mu) at every point, shape (P, n, n).

    A singular shift raises ``ResolventSingularityError`` naming the point
    whose determinant vanishes (the smallest one, should none be exactly 0).
    """
    shifted = h[None, :, :] - points[:, None, None] * np.eye(h.shape[0])
    try:
        return np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        worst = int(np.argmin(np.linalg.slogdet(shifted)[1]))
        raise ResolventSingularityError(points[worst]) from exc


def _weighted_sum(coeff: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over q of coeff[q] * a[q] @ b[q], as one matmul on the flattened stacks."""
    p, n, k = a.shape
    left = (coeff[:, None, None] * a).transpose(1, 0, 2).reshape(n, p * k)
    return left @ b.reshape(p * k, -1)


def locate(contour: Contour, z: complex) -> str:
    """Classify z relative to the region bounded by contour and intervals."""
    if contour.distance(z) <= contour.guard:
        return LOCATION_GUARD_BAND
    return LOCATION_INSIDE if contour.region_contains(z) else LOCATION_OUTSIDE


def self_energy(model: SpectralModel, contour: Contour, z: complex) -> np.ndarray:
    """Continued self-energy at z: the resolvent-weighted coupling integral."""
    return self_energy_many(model, contour, [z])[0]


def self_energy_many(model: SpectralModel, contour: Contour, zs: np.ndarray) -> np.ndarray:
    """Vectorized self-energy over a batch of points, shape (P, n, n).

    Raises ``GuardBandError`` for the first point within the guard band.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    points, weights, values = _quadrature(model, contour)
    dist = contour.distance(zs)
    near = np.flatnonzero(dist <= contour.guard)
    if near.size:
        raise GuardBandError(complex(zs[near[0]]), float(dist[near[0]]), contour.guard)
    coeff = weights[None, :] / (zs[:, None] - points[None, :])
    n = model.dim
    return (coeff @ values.reshape(-1, n * n)).reshape(-1, n, n)


@dataclass(frozen=True)
class TransferEvaluation:
    """Transfer function value with its sheet bookkeeping."""

    z: complex
    matrix: np.ndarray
    sheet_tag: tuple[int, ...] | str
    location: str


def transfer(model: SpectralModel, contour: Contour, z: complex) -> TransferEvaluation:
    """Evaluate the continued transfer function and classify the point.

    Inside the region bounded by the contour and the intervals the value
    lives on the sheet labelled by the contour's multi-index; outside it
    coincides with the physical-sheet transfer function.
    """
    z = complex(z)
    matrix = transfer_many(model, contour, [z])[0]
    location = LOCATION_INSIDE if contour.region_contains(z) else LOCATION_OUTSIDE
    tag = contour.multi_index if location == LOCATION_INSIDE else "physical"
    return TransferEvaluation(z, matrix, tag, location)


def transfer_many(model: SpectralModel, contour: Contour, zs: np.ndarray) -> np.ndarray:
    """Vectorized transfer matrices over a batch of points, shape (P, n, n)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    se = self_energy_many(model, contour, zs)
    eye = np.eye(model.dim)
    return model.a1[None, :, :] - zs[:, None, None] * eye[None, :, :] + se


def adjoint_symmetry_residual(model: SpectralModel, contour_l: Contour,
                              contour_minus_l: Contour, z: complex) -> float:
    """Defect of the conjugate-adjoint symmetry between mirror sheets.

    Returns the norm of the difference between the adjoint of the mirror
    transfer function at conj(z) and the transfer function at z; both sides
    are computed independently.
    """
    if not is_mirror_pair(contour_l, contour_minus_l):
        raise PairingError("contours are not a mirror pair")
    z = complex(z)
    left = transfer(model, contour_minus_l, np.conj(z)).matrix.conj().T
    right = transfer(model, contour_l, z).matrix
    return spectral_norm(left - right)
