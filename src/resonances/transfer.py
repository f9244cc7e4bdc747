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

A sum over an operator argument ``Y = V diag(lam) V^-1`` needs scalar sums
at the n eigenvalues only, since the resolvent at every integration point
is ``V diag(1 / (lam - mu)) V^-1``. ``_resolvent_sum`` is the one such sum,
behind the operator self-energy, the left factor and the overlap operator,
and the one place that chooses between eigenbases and resolvent stacks. An
eigenbasis is usable when its cond(V) is at most ``_EIGVEC_COND_MAX``
(``_eigensystem``, for these sums and a ``Solution``'s eigensystem alike).
A finite 1x1 argument, the rank-one single-level case, is its own
eigenvalue with eigenvector 1 and cond(V) = 1, and takes no ``eig``.
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
    """Sum over q of coeff[..., q] * a[..., q, :, :] @ b[..., q, :, :], as one matmul per stack.

    The leading axes ``...`` of ``coeff``, ``a`` and ``b`` broadcast, and may hold no row.
    """
    scaled = coeff[..., None, None] * a
    *lead, p, n, k = scaled.shape
    left = scaled.swapaxes(-3, -2).reshape(*lead, n, p * k)
    return left @ b.reshape(*b.shape[:-3], p * k, b.shape[-1])


def _eigensystem(y: np.ndarray):
    """Eigenvalues lam and eigenvectors V of ``y``, and whether each V is usable.

    ``y`` is one matrix or a stack (..., n, n). An eigenbasis is usable when
    its cond(V) is at most ``_EIGVEC_COND_MAX``. Returns ``(lam, V,
    usable)``, with one flag per matrix, shape (...); when the eigensolver
    refuses ``y`` (a non-finite entry, no convergence) lam and V are None
    and no basis is usable. A finite 1x1 matrix is its own eigenvalue, with
    eigenvector 1 and cond(V) = 1, and takes no ``eig``.
    """
    if y.shape[-1] == 1 and np.isfinite(y).all():
        return y[..., 0].copy(), np.ones_like(y), np.full(y.shape[:-2], 1.0 <= _EIGVEC_COND_MAX)
    try:
        lam, vecs = np.linalg.eig(y)
    except np.linalg.LinAlgError:
        return None, None, np.False_
    return lam, vecs, np.linalg.cond(vecs) <= _EIGVEC_COND_MAX


def _dual_eigensystem(h: np.ndarray):
    """``(lam, V, V^-1)`` of one matrix; V^-1 is None when V is not usable."""
    lam, vecs, usable = _eigensystem(h)
    return lam, vecs, np.linalg.inv(vecs) if usable else None


def _adjoint(h: np.ndarray, eigensystem) -> tuple:
    """``h^H`` with its eigensystem ``(conj(lam), (V^-1)^H, V^H)``, read off that of ``h``."""
    lam, vecs, duals = eigensystem
    usable = duals is not None
    return h.conj().T, (lam.conj(), duals.conj().T, vecs.conj().T) if usable else (None,) * 3


def _inverse_distances(lam: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``1 / (lam_j - points_q)``, shape (..., n, P); raises at a point equal to a lam_j."""
    diff = lam[..., :, None] - points
    hit = np.flatnonzero(diff == 0.0)
    if hit.size:
        raise ResolventSingularityError(points[hit[0] % points.size])
    return 1.0 / diff


def _resolvent_sum(points: np.ndarray, coeff: np.ndarray, values: np.ndarray, right: tuple,
                   left: tuple | None = None) -> np.ndarray:
    """Sum over q of ``coeff[..., q] L_q values_q (h - points_q)^-1``.

    ``right`` is one matrix or a stack (G, n, n) with its eigensystem, ``(h,
    (lam, V, V^-1))``, V^-1 None if V is unusable; an eigensystem None is
    taken here, without V^-1, for one coefficient row with no left side.
    ``values`` is (P, n, n) or (G, P, n, n). A ``left`` ``(g, (alpha, W,
    W^-1))`` makes ``L_q = (g - points_q)^-1``, else ``L_q = I``. ``coeff``
    is (P,), or (Z, P) for Z sums over one matrix with no left side.

    An unusable basis on either side inverts every shifted matrix. Otherwise
    the inputs pick the fastest association: one coefficient row and no left
    side solves ``[SE(lam_j) v_j]_j`` against V; a batch forms ``K_q V``
    once; a left side takes the Daleckii-Krein form ``W [sum_q (W^-1 K_q V)
    o G_q] V^-1``, ``G_q[i, j] = coeff_q / ((alpha_i - mu_q)(lam_j - mu_q))``.
    """
    h, eigensystem = right
    if eigensystem is None:
        lam, vecs, usable = _eigensystem(h)
        usable = usable.all()
    else:
        lam, vecs, duals = eigensystem
        usable = duals is not None
    if not usable or (left is not None and left[1][2] is None):
        if left is not None:
            values = _resolvents(left[0], points) @ values
        elif coeff.ndim == 2:
            # Z sums over one matrix, one at a time: no (Z, P, n, n) array
            inv = _resolvents(h, points)
            out = np.empty((len(coeff), *h.shape), dtype=complex)
            for row, c in zip(out, coeff):
                row[...] = _weighted_sum(c, values, inv)
            return out
        return _weighted_sum(coeff, values, _resolvents(h, points))
    inv_dist = _inverse_distances(lam, points)
    n = lam.shape[-1]
    if left is None and coeff.ndim == 1:
        se = (coeff * inv_dist) @ values.reshape(*values.shape[:-2], n * n)
        se = se.reshape(*se.shape[:-1], n, n)           # [..., j]: SE(lam_j)
        vecs_t = vecs.swapaxes(-1, -2)
        cols_t = (se @ vecs_t[..., None])[..., 0]       # row j: SE(lam_j) v_j
        return np.linalg.solve(vecs_t, cols_t).swapaxes(-1, -2)
    kv = (values.reshape(-1, n) @ vecs).reshape(-1, n, n)           # [q]: K_q V
    if left is None:
        # the products are stacked over the rows, so a row's sum does not
        # depend on the other rows of the batch
        kv = np.ascontiguousarray(kv.transpose(2, 1, 0))            # [j, i, q]
        cols_t = (kv @ (coeff[:, None, :] * inv_dist)[..., None])[..., 0]
        return cols_t.swapaxes(-1, -2) @ duals
    _, (alpha, w, w_inv) = left
    # [i, q, j]: W^-1 K_q V for every q, as one matrix product
    wkv = (w_inv @ kv.transpose(1, 0, 2).reshape(n, -1)).reshape(n, -1, n)
    core = np.einsum("iq,iqj,qj->ij", coeff * _inverse_distances(alpha, points), wkv,
                     inv_dist.T)
    return w @ core @ duals


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
