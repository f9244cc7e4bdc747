"""Transfer function evaluation on the physical sheet and its continuations.

The continued transfer function is the internal matrix minus the spectral
parameter plus the self-energy term, where the self-energy integral runs
over the discrete remainder and the deformation contour. Evaluation takes a
batch of points: ``self_energy_many`` is the one sum of the self-energy, or
of its k-th derivative, over the integration data, and ``transfer_many``
adds the internal matrix and the spectral parameter. Points closer to the
integration set than a guard band are rejected, for every derivative order,
rather than extrapolated because the quadrature error grows like the
inverse distance.

A sum over an operator argument ``Y`` goes through the eigenvectors of
``Y``. The operator self-energy acts on an eigenvector of ``Y`` as the
scalar self-energy at its eigenvalue, so with ``Y = V diag(lam) V^-1`` the
resolvent at every integration point is ``V diag(1 / (lam - mu)) V^-1``
and a sum over the points needs the scalar sums at the n eigenvalues only:
``_eigen_sums`` gives the self-energy at each eigenvalue as one matrix
product. ``_eigensystem`` alone decides whether an eigenbasis is usable,
for these sums and for the eigensystem a ``Solution`` owns: cond(V) must
be at most ``_EIGVEC_COND_MAX``. For a defective or nearly defective ``Y``
the sum inverts the shifted argument at every point instead
(``_resolvents``, ``_weighted_sum``).
"""

from __future__ import annotations

import math

import numpy as np

from .contour import Contour
from .errors import GuardBandError, ResolventSingularityError

# largest cond(V) of an eigenvector matrix V that is used: above it, sums
# over an operator argument invert resolvents at every point, and
# eigenprojections are resolvent residues
_EIGVEC_COND_MAX = 1e4


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


def _eigensystem(y: np.ndarray):
    """Eigenvalues lam and eigenvectors V of ``y``, and whether each V is usable.

    ``y`` is one matrix or a stack (..., n, n). An eigenbasis is usable when
    its cond(V) is at most ``_EIGVEC_COND_MAX``. Returns ``(lam, V,
    usable)``, with one flag per matrix, shape (...); when the eigensolver
    refuses ``y`` (a non-finite entry, no convergence) lam and V are None
    and no basis is usable.
    """
    try:
        lam, vecs = np.linalg.eig(y)
    except np.linalg.LinAlgError:
        return None, None, np.False_
    return lam, vecs, np.linalg.cond(vecs) <= _EIGVEC_COND_MAX


def _dual_eigensystem(h: np.ndarray):
    """``(lam, V, V^-1)`` of one matrix; V^-1 is None when V is not usable."""
    lam, vecs, usable = _eigensystem(h)
    return lam, vecs, np.linalg.inv(vecs) if usable else None


def _inverse_distances(lam: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``1 / (lam_j - points_q)``, shape (..., n, P); raises at a point equal to a lam_j."""
    diff = lam[..., :, None] - points
    hit = np.flatnonzero(diff == 0.0)
    if hit.size:
        raise ResolventSingularityError(points[hit[0] % points.size])
    return 1.0 / diff


def _eigen_sums(contour: Contour, lam: np.ndarray, values: np.ndarray | None = None):
    """The self-energy at each eigenvalue ``lam_j``, shape (..., n, n, n).

    ``se[..., j, :, :]`` is the sum of ``w_q values_q / (lam_j - mu_q)``,
    computed for every eigenvalue as one matrix product. ``values`` is the
    coupling data on the contour's points, (P, n, n) or one per row
    (..., P, n, n); by default the contour's own.
    """
    inv_dist = _inverse_distances(lam, contour.quad_points)
    values = contour.quad_values if values is None else values
    n = lam.shape[-1]
    se = (contour.quad_weights * inv_dist) @ values.reshape(*values.shape[:-2], n * n)
    return se.reshape(*se.shape[:-1], n, n)


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
