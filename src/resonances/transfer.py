"""Transfer function evaluation on the physical sheet and its continuations.

The continued transfer function is the internal matrix minus the spectral
parameter plus the self-energy term, where the self-energy integral runs
over the discrete remainder and the deformation contour. Evaluation takes a
batch of points: ``self_energy_many`` is the one sum of the self-energy, or
of its k-th derivative, over the integration data, and ``transfer_many``
adds the internal matrix and the spectral parameter. Points closer to the
integration set than a guard band are rejected, for every derivative order,
rather than extrapolated because the quadrature error grows like the
inverse distance. ``locate`` says on which sheet a point's value lives:
inside the region bounded by the contour and the intervals, the sheet of
the contour's multi-index; outside it, the physical sheet.
"""

from __future__ import annotations

import math

import numpy as np

from .contour import Contour, is_mirror_pair
from .errors import GuardBandError, PairingError, ResolventSingularityError

LOCATION_INSIDE = "inside"
LOCATION_OUTSIDE = "outside"
LOCATION_GUARD_BAND = "on-contour-guard-band"


def _resolvents(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Stacked inverses of (h - mu) at every point, shape (..., P, n, n).

    ``h`` is one matrix or a stack of them, with leading axes ``...``. A
    singular shift raises ``ResolventSingularityError`` naming the point
    whose determinant vanishes (the smallest one, should none be exactly 0).
    """
    shifted = h[..., None, :, :] - points[:, None, None] * np.eye(h.shape[-1])
    try:
        return np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        worst = int(np.argmin(np.linalg.slogdet(shifted)[1])) % points.size
        raise ResolventSingularityError(points[worst]) from exc


def _weighted_sum(coeff: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over q of coeff[q] * a[..., q, :, :] @ b[..., q, :, :], as one matmul per stack.

    ``a`` and ``b`` share their leading axes ``...``, which may hold no row.
    """
    *lead, p, n, k = a.shape
    left = (coeff[:, None, None] * a).swapaxes(-3, -2).reshape(*lead, n, p * k)
    return left @ b.reshape(*lead, p * k, b.shape[-1])


def locate(contour: Contour, z: complex) -> str:
    """Classify z relative to the region bounded by contour and intervals."""
    if contour.distance(z) <= contour.guard:
        return LOCATION_GUARD_BAND
    return LOCATION_INSIDE if contour.region_contains(z) else LOCATION_OUTSIDE


def self_energy_many(contour: Contour, zs: np.ndarray, k: int = 0) -> np.ndarray:
    """k-th derivative of the continued self-energy over a batch of points, shape (P, n, n).

    The self-energy is the resolvent-weighted coupling integral, the sum of
    ``w / (z - mu)`` times the coupling values over the integration data; its
    k-th derivative weighs them by ``(-1)^k k! w / (z - mu)^(k+1)``. Raises
    ``GuardBandError`` for the first point within the guard band, whatever k.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    dist = contour.distance(zs)
    near = np.flatnonzero(dist <= contour.guard)
    if near.size:
        raise GuardBandError(complex(zs[near[0]]), float(dist[near[0]]), contour.guard)
    coeff = contour.quad_weights / (zs[:, None] - contour.quad_points) ** (k + 1)
    if k:
        coeff *= (-1) ** k * math.factorial(k)
    n = contour.model.dim
    return (coeff @ contour.quad_values.reshape(-1, n * n)).reshape(-1, n, n)


def transfer_many(contour: Contour, zs: np.ndarray) -> np.ndarray:
    """Vectorized transfer matrices over a batch of points, shape (P, n, n)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    se = self_energy_many(contour, zs)
    model = contour.model
    return model.a1[None, :, :] - zs[:, None, None] * np.eye(model.dim)[None, :, :] + se


def adjoint_symmetry_residual(contour_l: Contour, contour_minus_l: Contour,
                              zs: np.ndarray) -> np.ndarray:
    """Defect of the conjugate-adjoint symmetry between mirror sheets, per point.

    Returns, for each z of the batch, the norm of the difference between the
    adjoint of the mirror transfer function at conj(z) and the transfer
    function at z; both sides are computed independently. The contours must
    be a mirror pair of one model.
    """
    if not is_mirror_pair(contour_l, contour_minus_l):
        raise PairingError("contours are not a mirror pair")
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    left = transfer_many(contour_minus_l, zs.conj()).conj().transpose(0, 2, 1)
    right = transfer_many(contour_l, zs)
    return np.linalg.norm(left - right, 2, axis=(1, 2))
