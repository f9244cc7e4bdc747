"""Spectral structure of the effective operators and the proved identities.

An eigenprojection at a simple eigenvalue is the outer product of its right
eigenvector and the matching row of the inverse eigenvector matrix, when
that matrix is well conditioned. Clusters of several eigenvalues, and every
cluster of an ill-conditioned eigenvector basis, take the contour residue
of the resolvent instead (trapezoidal rule on circles, order-doubled until
stable), which stays robust for defective clusters. The residue of the
inverse transfer function at a simple eigenvalue comes from Keldysh's
theorem (the null vectors of the transfer function and its derivative);
at a multiple eigenvalue it is a trapezoid residue as well. The module also
builds the left factor of the transfer-function factorization, the overlap
operator defining the modified inner product, the resolvent moments of the
inverse transfer function, and the Gram matrices behind the basis
statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .contour import Contour, is_mirror_pair
from .errors import (
    ClusteringError,
    GeometryError,
    IdentityFailureError,
    InconsistencyError,
    PairingError,
    UnsupportedModelError,
)
from .model import spectral_norm
from .solver import Solution
from .transfer import _resolvents, _weighted_sum, self_energy_many, transfer_many

DEFAULT_NILPOTENT_TOL = 1e-8
_ENCLOSURE_PAD = 0.45  # enclosure circle pad, as a fraction of the separation
_TRAPEZOID_START = 64
_TRAPEZOID_CAP = 16384
_TRAPEZOID_RTOL = 1e-12
# largest cond(V) of the eigenvector matrix V for which simple eigenvalues
# take their projections from V and V^-1 rather than from resolvent residues
_EIGVEC_COND_MAX = 1e4


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float


def _as_circles(gamma) -> tuple[Circle, ...]:
    return (gamma,) if isinstance(gamma, Circle) else tuple(gamma)


def _trapezoid_residue(f_batch, circles, moment: int = 0, atol: float = 0.0):
    """-(1/2 pi i) * contour integral of z^moment * f(z) dz over circles.

    ``f_batch`` maps an array of points to a stacked array of matrices.
    The trapezoidal rule is spectrally accurate on circles. Level N uses the
    nodes theta_k = 2 pi k / N, so the rule nests: each doubling evaluates
    only the N new midpoints and adds them to a running sum, until two
    consecutive levels agree. Returns (value, delta, points).
    """
    def level_sum(npts: int, offset: float):
        total = 0.0
        phase = np.exp(2j * math.pi * (np.arange(npts) + offset) / npts)
        for c in circles:
            zs = c.center + c.radius * phase
            weight = c.radius * phase
            if moment:
                weight = weight * zs ** moment
            total = total + np.einsum("p,pij->ij", weight, f_batch(zs))
        return total

    npts = _TRAPEZOID_START
    running = level_sum(npts, 0.0)
    prev = -running / npts
    while npts < _TRAPEZOID_CAP:
        running = running + level_sum(npts, 0.5)
        npts *= 2
        cur = -running / npts
        delta = spectral_norm(cur - prev)
        if delta <= atol + _TRAPEZOID_RTOL * max(spectral_norm(cur), 1.0):
            return cur, delta, npts
        prev = cur
    return prev, math.inf, npts


# ---------------------------------------------------------------------------
# Eigen decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigenvalues with projections, nilpotents, multiplicities.

    ``paths`` names, per cluster, how its projection was computed:
    ``"eigenvector"`` (outer product of eigenvector and dual row) or
    ``"residue"`` (trapezoid residue of the resolvent). ``scale`` is
    max(norm(h), 1) of the decomposed matrix h, and ``lookup_tol`` the
    distance within which ``find`` matches an eigenvalue to a cluster.
    """

    eigenvalues: tuple[complex, ...]
    projections: tuple[np.ndarray, ...]
    nilpotents: tuple[np.ndarray, ...]
    algebraic: tuple[int, ...]
    geometric: tuple[int, ...]
    pole_orders: tuple[int, ...]
    projector_sum_defect: float
    nilpotent_margins: tuple[float, ...]
    paths: tuple[str, ...]
    scale: float
    lookup_tol: float

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def find(self, lam: complex) -> int:
        dists = [abs(ev - lam) for ev in self.eigenvalues]
        i = int(np.argmin(dists))
        if dists[i] > self.lookup_tol:
            raise InconsistencyError(
                f"eigenvalue {lam} not present in the decomposition "
                f"(closest is {self.eigenvalues[i]} at distance {dists[i]:.3e})")
        return i


def _cluster(eigs: np.ndarray, tol: float) -> list[list[int]]:
    order = np.lexsort((eigs.imag, eigs.real))
    parent = list(range(eigs.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(eigs.size):
        for b in range(a + 1, eigs.size):
            if abs(eigs[a] - eigs[b]) <= tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in order:
        groups.setdefault(find(i), []).append(int(i))
    out = sorted(groups.values(), key=lambda g: (eigs[g[0]].real, eigs[g[0]].imag))
    return out


def eigen_decompose(h1: np.ndarray, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Cluster the spectrum and compute its projections.

    Eigenvalues within ``cluster_tol`` of each other merge into one cluster
    represented by its centroid; ``find`` then matches within
    ``max(10 * cluster_tol, 1e-12)``, or ``1e-5 * max(norm(h1), 1)`` when no
    ``cluster_tol`` is given. A cluster of one eigenvalue takes the
    projection v w^H, with v its column of the eigenvector matrix V and w^H
    the matching row of V^-1, while cond(V) is at most ``_EIGVEC_COND_MAX``.
    Any other projection is the residue of the resolvent on a circle of
    radius half the gap to the nearest other cluster. The nilpotent is the
    shifted matrix times the projection, and the pole order is the first
    power whose norm falls below the threshold
    ``DEFAULT_NILPOTENT_TOL * max(norm(h1), 1)**k``. A cluster of algebraic
    multiplicity one has nilpotent 0 and pole order 1 without either test.
    """
    h1 = np.asarray(h1, dtype=complex)
    n = h1.shape[0]
    norm = spectral_norm(h1)
    scale = max(norm, 1.0)
    if cluster_tol is None:
        cluster_tol = 1e-7 * max(norm, 1e-300)
        lookup_tol = 1e-5 * scale
    else:
        lookup_tol = max(10.0 * cluster_tol, 1e-12)
    eigs, vecs = np.linalg.eig(h1)
    groups = _cluster(eigs, cluster_tol)
    centroids = [complex(np.mean(eigs[g])) for g in groups]

    # inter-cluster separability
    labels = np.empty(eigs.size, dtype=int)
    for j, g in enumerate(groups):
        labels[g] = j
    diff = eigs[:, None] - eigs[None, :]
    foreign = labels[:, None] != labels[None, :]
    min_gap = np.hypot(diff.real, diff.imag).min(where=foreign, initial=math.inf)
    if len(groups) > 1 and min_gap < 4.0 * cluster_tol:
        raise ClusteringError(
            f"inter-cluster gap {min_gap:.3e} < 4 * cluster_tol "
            f"({4.0 * cluster_tol:.3e}); choose a different tolerance")

    eye = np.eye(n)
    duals = np.linalg.inv(vecs) if np.linalg.cond(vecs) <= _EIGVEC_COND_MAX else None
    projections = []
    paths = []
    nilpotents = []
    algebraic = []
    geometric = []
    pole_orders = []
    margins = []
    for j, lam in enumerate(centroids):
        offset = eigs - lam
        dist = np.hypot(offset.real, offset.imag)
        spread = dist.max(where=labels == j, initial=0.0)
        gap = dist.min(where=labels != j, initial=math.inf)
        if math.isfinite(gap):
            if spread >= gap * (1.0 - 1e-9):
                raise ClusteringError(
                    f"cluster at {lam} spreads over {spread:.3e} with only "
                    f"{gap:.3e} to the nearest neighbor; choose a different "
                    "tolerance")
            # between the cluster spread and the nearest foreign eigenvalue
            radius = 0.5 * (spread + gap)
        else:
            radius = spread + 0.1 * (1.0 + norm)
        if duals is not None and len(groups[j]) == 1:
            k = groups[j][0]
            p = np.outer(vecs[:, k], duals[k])
            paths.append("eigenvector")
        else:
            p, _, _ = _trapezoid_residue(partial(_resolvents, h1), (Circle(lam, radius),),
                                         atol=1e-13 * (1.0 + norm))
            paths.append("residue")
        m_raw = float(np.trace(p).real)
        m = int(round(m_raw))
        if abs(m_raw - m) > 1e-2 or m < 1:
            raise ClusteringError(
                f"projection trace {m_raw:.6f} is not close to an integer; "
                "residue circle geometry is unreliable")
        if m == 1:
            nil, rank, order, margin = np.zeros((n, n), dtype=complex), 0, 1, 0.0
        else:
            nil = (h1 - lam * eye) @ p
            sv = np.linalg.svd(nil, compute_uv=False)
            rank = int(np.sum(sv > DEFAULT_NILPOTENT_TOL * scale))
            order = m
            margin = 0.0
            power = nil.copy()
            for k in range(1, m + 1):
                norm_k = spectral_norm(power)
                thresh = DEFAULT_NILPOTENT_TOL * scale ** k
                if norm_k <= thresh:
                    order = k
                    margin = norm_k / thresh
                    break
                power = power @ nil
            else:
                margin = spectral_norm(power) / (DEFAULT_NILPOTENT_TOL * scale ** (m + 1))
        projections.append(p)
        nilpotents.append(nil if order > 1 else np.zeros_like(nil))
        algebraic.append(m)
        geometric.append(m - rank)
        pole_orders.append(order)
        margins.append(margin)

    total = sum(projections)
    defect = spectral_norm(total - eye)
    return SpectralDecomposition(
        eigenvalues=tuple(centroids),
        projections=tuple(projections),
        nilpotents=tuple(nilpotents),
        algebraic=tuple(algebraic),
        geometric=tuple(geometric),
        pole_orders=tuple(pole_orders),
        projector_sum_defect=defect,
        nilpotent_margins=tuple(margins),
        paths=tuple(paths),
        scale=scale,
        lookup_tol=lookup_tol,
    )


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    left_factor: np.ndarray
    residual: float | np.ndarray


def factorize(sol: Solution, z: complex | np.ndarray) -> Factorization:
    """Left factor of the transfer function at z and the factorization defect.

    The left factor is the identity minus the coupling data integrated
    against the inverse distance to z times the resolvent of the effective
    operator; multiplying it by (effective - z) must reproduce the continued
    transfer function. ``z`` is one point, giving an (n, n) factor and a
    float defect, or an array of points, giving factors and defects stacked
    in its shape; the resolvent stack is inverted once for all of them.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    contour, h = sol.contour, sol.effective
    eye = np.eye(h.shape[0])
    points, weights, values = contour.quad_points, contour.quad_weights, contour.quad_values
    inv = _resolvents(h, points)
    w1 = np.stack([eye - _weighted_sum(weights / (points - zk), values, inv) for zk in flat])
    m1 = transfer_many(contour, flat)
    shifted = h[None, :, :] - flat[:, None, None] * eye
    residual = np.linalg.norm(m1 - w1 @ shifted, 2, axis=(1, 2))
    if zs.ndim == 0:
        return Factorization(w1[0], float(residual[0]))
    return Factorization(w1.reshape(zs.shape + eye.shape), residual.reshape(zs.shape))


def left_factor_inverse_bound(cert) -> float:
    """Certified bound for the inverse of the left factor near the spectrum."""
    ratio = cert.v0 / (cert.d0 ** 2 / 4.0)
    if ratio >= 1.0:
        return math.inf
    return 1.0 / (1.0 - ratio)


# ---------------------------------------------------------------------------
# Overlap operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapOperator:
    """Positive-type operator defining the modified inner product."""

    matrix: np.ndarray
    norm: float
    norm_bound_check: float  # certified bound, must be < 1

    def metric(self) -> np.ndarray:
        return np.eye(self.matrix.shape[0]) + self.matrix


def overlap_operator(sol_l: Solution, sol_minus_l: Solution) -> OverlapOperator:
    """Integral of mirror-adjoint resolvent, coupling data, and resolvent.

    Computed over the discrete remainder plus the contour of ``sol_l``,
    which must be the mirror of the contour of ``sol_minus_l``. The norm
    must stay below the certified bound, the variation over the squared
    half separation of the certificate ``sol_l`` was solved with; a
    violation beyond one percent slack raises, since it signals a bad
    certificate or quadrature.
    """
    if not is_mirror_pair(sol_l.contour, sol_minus_l.contour):
        raise PairingError("solutions do not live on mirror contours")
    contour = sol_l.contour
    left_inv = _resolvents(sol_minus_l.effective.conj().T, contour.quad_points)
    right_inv = _resolvents(sol_l.effective, contour.quad_points)
    out = _weighted_sum(contour.quad_weights, left_inv @ contour.quad_values, right_inv)
    cert = sol_l.certificate
    bound = cert.v0 / (cert.d0 / 2.0) ** 2 if cert.d0 > 0 else math.inf
    norm = spectral_norm(out)
    if norm >= bound * 1.01 + 1e-300:
        raise IdentityFailureError(
            f"overlap operator norm {norm:.6e} violates its bound {bound:.6e} "
            "beyond quadrature slack")
    return OverlapOperator(out, norm, bound)


# ---------------------------------------------------------------------------
# Moments and residues of the inverse transfer function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentResult:
    matrix: np.ndarray
    delta: float
    points: int
    circles: tuple[Circle, ...]


def _check_circle_geometry(contour: Contour, circles: tuple[Circle, ...],
                           enclosed: np.ndarray):
    clearance = contour.distance([c.center for c in circles])
    for i, c in enumerate(circles):
        if clearance[i] <= c.radius + contour.guard:
            raise GeometryError(
                f"integration circle {i} meets or encloses part of the contour "
                "or the discrete remainder")
    for lam in np.atleast_1d(enclosed):
        hits = [c for c in circles if abs(lam - c.center) < c.radius * (1.0 - 1e-9)]
        if len(hits) != 1:
            raise GeometryError(
                f"eigenvalue {lam} is enclosed by {len(hits)} circles; "
                "need exactly one")
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            a, b = circles[i], circles[j]
            if abs(a.center - b.center) <= a.radius + b.radius:
                raise GeometryError("integration circles overlap")


def _minv_batch(contour: Contour, scale: float):
    limit = 1e-10 * scale

    def f(zs):
        mats = transfer_many(contour, zs)
        try:
            inv = np.linalg.inv(mats)
        except np.linalg.LinAlgError:
            inv, suspect = None, np.arange(len(zs))
        else:
            # 1/||T^-1||_F <= sigma_min, so only the points this bound cannot
            # clear (with a factor 2 for the rounding of the inverse) need an SVD
            suspect = np.flatnonzero(np.linalg.norm(inv, axis=(1, 2)) * limit > 0.5)
        if suspect.size:
            smallest = np.linalg.svd(mats[suspect], compute_uv=False)[:, -1]
            near = suspect[smallest < limit]
            if near.size or inv is None:
                bad = near[0] if near.size else suspect[np.argmin(smallest)]
                raise GeometryError(
                    f"transfer function nearly singular on the circle at "
                    f"z={zs[bad]:.6g}")
        return inv
    return f


def enclosure_circles(sol: Solution) -> tuple[Circle, ...]:
    """Circles around the effective spectrum, padded by the separation.

    Groups eigenvalues closer than the separation distance and wraps each
    group in one circle whose pad keeps it inside the certified
    invertibility region but away from the eigenvalues themselves.
    """
    cert = sol.certificate
    eigs = np.linalg.eigvals(sol.effective)
    groups = _cluster(eigs, cert.d0)
    circles = []
    for g in groups:
        pts = eigs[g]
        center = complex(0.5 * (pts.real.min() + pts.real.max()),
                         0.5 * (pts.imag.min() + pts.imag.max()))
        spread = max(abs(pts - center))
        circles.append(Circle(center, spread + _ENCLOSURE_PAD * cert.d0))
    return tuple(circles)


def contour_moment(sol_l: Solution, sol_minus_l: Solution, gamma,
                   moment: int = 0) -> MomentResult:
    """Residue-style moment of the inverse transfer function.

    Moment 0 integrates the inverse transfer function on the contour of
    ``sol_l`` around the whole effective spectrum; moment 1 weights the
    integrand by z. The circles must enclose every effective eigenvalue of
    both solutions exactly once, avoid the contour and the discrete
    remainder, and the trapezoidal rule is doubled until stable.
    """
    if moment not in (0, 1):
        raise GeometryError("moment must be 0 or 1")
    contour = sol_l.contour
    circles = _as_circles(gamma)
    eigs = np.linalg.eigvals(sol_l.effective)
    eigs_m = np.conj(np.linalg.eigvals(sol_minus_l.effective))
    _check_circle_geometry(contour, circles, np.concatenate([eigs, eigs_m]))
    scale = max(spectral_norm(sol_l.effective), 1.0)
    value, delta, pts = _trapezoid_residue(
        _minv_batch(contour, scale), circles, moment,
        atol=1e-13 * (1.0 + scale))
    return MomentResult(value, delta, pts, circles)


@dataclass(frozen=True)
class TransferResidue:
    """Residue of the inverse transfer function at one eigenvalue.

    ``delta`` is the trapezoid doubling delta, None on the Keldysh path.
    ``singular_ratio`` is sigma_min(T(lam)) / max(sigma_max(T(lam)), scale),
    scale = max(norm(effective), 1), on the Keldysh path and None on the
    trapezoid path: a check, independent of the residue, that the transfer
    function is singular at the eigenvalue (the scale keeps it meaningful at
    n = 1, where sigma_min/sigma_max is always 1).
    """

    matrix: np.ndarray
    circle: Circle
    delta: float | None
    singular_ratio: float | None


@dataclass(frozen=True)
class ResidueResult(TransferResidue):
    residual_vs_adjoint_projection: float
    residual_vs_projection: float


def transfer_residue(sol_l: Solution, dec_l: SpectralDecomposition,
                     lam: complex) -> TransferResidue:
    """Raw residue of the inverse transfer function around one eigenvalue.

    The transfer function is the one on the contour of ``sol_l``, and
    ``dec_l`` is the decomposition of ``sol_l.effective``. At an eigenvalue
    of algebraic multiplicity one the residue follows from Keldysh's theorem:
    with u and v the left and right singular vectors of T(lam) for its
    smallest singular value, it is -v u^H / (u^H T'(lam) v), in the sign
    convention of ``_trapezoid_residue``. At a multiple eigenvalue it is the
    trapezoid residue on the circle centered at the cluster centroid with
    radius half the gap to the nearest other cluster, capped to stay off the
    contour by the guard band; that circle is checked and reported on both
    paths.
    """
    contour, scale = sol_l.contour, dec_l.scale
    i = dec_l.find(complex(lam))
    lam_i = dec_l.eigenvalues[i]

    gap = min((abs(lam_i - ev) for k2, ev in enumerate(dec_l.eigenvalues) if k2 != i),
              default=math.inf)
    dist_curve = contour.distance(lam_i)
    radius = 0.5 * min(gap, dist_curve - contour.guard)
    if not (radius > 0.0):
        raise GeometryError(
            f"no admissible residue circle around {lam_i}: gap {gap:.3e}, "
            f"distance to contour {dist_curve:.3e}")
    circle = Circle(lam_i, radius)
    _check_circle_geometry(contour, (circle,), np.array([lam_i]))
    if dec_l.algebraic[i] == 1:
        u, s, vh = np.linalg.svd(transfer_many(contour, [lam_i])[0])
        left, right = u[:, -1], vh[-1].conj()
        slope = self_energy_many(contour, [lam_i], 1)[0] - np.eye(contour.model.dim)
        value = -np.outer(right, left.conj()) / (left.conj() @ slope @ right)
        return TransferResidue(value, circle, None, float(s[-1] / max(s[0], scale)))
    value, delta, _ = _trapezoid_residue(
        _minv_batch(contour, scale), (circle,),
        atol=1e-13 * (1.0 + scale))
    return TransferResidue(value, circle, delta, None)


def residue_at(sol_l: Solution, sol_minus_l: Solution,
               dec_l: SpectralDecomposition, dec_m: SpectralDecomposition,
               lam: complex) -> ResidueResult:
    """Residue of the inverse transfer function at one isolated eigenvalue.

    ``dec_l`` and ``dec_m`` are the decompositions of the two effective
    operators. Also reports the defects of the two product identities
    relating the residue to the eigenprojections of the effective operator
    and of the adjoint mirror operator through the overlap metric.
    """
    lam = complex(lam)
    i = dec_l.find(lam)
    j = dec_m.find(np.conj(lam))
    res = transfer_residue(sol_l, dec_l, lam)

    om = overlap_operator(sol_l, sol_minus_l)
    metric_inv = np.linalg.inv(om.metric())
    p_l = dec_l.projections[i]
    p_m_adj = dec_m.projections[j].conj().T
    res_left = spectral_norm(res.matrix - metric_inv @ p_m_adj)
    res_right = spectral_norm(res.matrix - p_l @ metric_inv)
    return ResidueResult(res.matrix, res.circle, res.delta, res.singular_ratio,
                         res_left, res_right)


# ---------------------------------------------------------------------------
# Projection and nilpotent equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionEquationRow:
    eigenvalue: complex
    projection_residual: float
    nilpotent_residuals: tuple[float, ...]


@dataclass(frozen=True)
class ProjectionReport:
    rows: tuple[ProjectionEquationRow, ...]
    reconstruction_error: float
    correction_norm: float
    within_larger_ball: bool

    @property
    def max_residual(self) -> float:
        out = self.reconstruction_error
        for r in self.rows:
            out = max(out, r.projection_residual, *(r.nilpotent_residuals or (0.0,)))
        return out


def verify_projection_equations(contour: Contour, sol: Solution,
                                dec: SpectralDecomposition) -> ProjectionReport:
    """Residuals of the projection and nilpotent equations for every cluster.

    The equations are evaluated on ``contour``, which must belong to the
    model of ``sol`` (``verify`` takes it at twice the order of the contour
    of ``sol``). Each cluster is checked against the identity expressing the
    transfer function times the projection through the nilpotent and the
    self-energy derivatives, plus the shifted variants obtained by
    multiplying with nilpotent powers. The decomposition is also
    reconstructed into a matrix and compared with the effective operator,
    including the ball condition that makes the reconstruction unique.
    """
    model = sol.model
    if contour.model is not model:
        raise PairingError("contour was built for a different model than the solution")
    rows = []
    n = model.dim
    lams = np.array(dec.eigenvalues)
    m1s = transfer_many(contour, lams)
    derivs = {k: self_energy_many(contour, lams, k) for k in range(1, max(dec.pole_orders))}
    recon = np.zeros((n, n), dtype=complex)
    for i in range(dec.count):
        lam = dec.eigenvalues[i]
        p = dec.projections[i]
        nil = dec.nilpotents[i]
        order = dec.pole_orders[i]
        m1 = m1s[i]
        acc = m1 @ p - nil
        powers = [np.eye(n, dtype=complex)]
        for _ in range(max(order - 1, 0)):
            powers.append(powers[-1] @ nil)
        for k in range(1, order):
            acc += derivs[k][i] @ powers[k] / math.factorial(k)
        proj_res = spectral_norm(acc)
        nil_res = []
        for pp in range(1, order):
            acc2 = m1 @ powers[order - pp]
            acc2 -= powers[order - pp] @ nil
            for k in range(1, pp):
                acc2 += (derivs[k][i] @ powers[order - pp + k]) / math.factorial(k)
            nil_res.append(spectral_norm(acc2))
        rows.append(ProjectionEquationRow(lam, proj_res, tuple(nil_res)))
        recon += lam * p + nil
    recon_err = spectral_norm(recon - sol.effective)
    corr_norm = spectral_norm(recon - model.a1)
    r_max = sol.certificate.r_max if sol.certificate.r_max is not None else math.inf
    return ProjectionReport(tuple(rows), recon_err, corr_norm, corr_norm < r_max)


# ---------------------------------------------------------------------------
# Gram matrices under the modified inner product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramResult:
    gram: np.ndarray
    labels: tuple[tuple[complex, int], ...]
    real_block: np.ndarray
    real_labels: tuple[tuple[float, int], ...]
    overlap_norm: float

    @property
    def gram_defect(self) -> float:
        return spectral_norm(self.gram - np.eye(self.gram.shape[0]))

    @property
    def real_block_defect(self) -> float:
        if self.real_block.size == 0:
            return 0.0
        return spectral_norm(self.real_block - np.eye(self.real_block.shape[0]))


def _range_basis(p: np.ndarray, m: int) -> np.ndarray:
    u, s, _ = np.linalg.svd(p)
    if m > 0 and (s.size < m or s[m - 1] < 0.1):
        raise InconsistencyError(
            "projection rank deficient; cannot extract an eigenvector basis")
    return u[:, :m]


def riesz_gram(sol_l: Solution, sol_minus_l: Solution,
               dec_l: SpectralDecomposition, dec_m: SpectralDecomposition,
               real_eigs=()) -> GramResult:
    """Binormalized Gram matrix of the eigenvector systems under the metric.

    Eigenvector bases of the two mirror solutions are paired by conjugate
    eigenvalues and binormalized so the cross products under the modified
    inner product form the identity; the assembled Gram matrix then tests
    biorthogonality across distinct eigenvalues. Bases at eigenvalues listed
    in ``real_eigs`` are first orthonormalized in the modified inner product
    itself, and the returned real block checks that orthonormality using the
    left system on both sides. ``dec_l`` and ``dec_m`` are the
    decompositions of the two effective operators.
    """
    if any(o != 1 for o in dec_l.pole_orders):
        raise UnsupportedModelError(
            "gram construction requires a semisimple spectrum")
    for lam in real_eigs:
        dec_l.find(complex(lam))
        dec_m.find(complex(np.conj(lam)))

    om = overlap_operator(sol_l, sol_minus_l)
    metric = om.metric()

    real_set = [complex(v) for v in real_eigs]

    left_cols = []
    right_cols = []
    labels = []
    real_cols = []
    real_labels = []
    for i in range(dec_l.count):
        lam = dec_l.eigenvalues[i]
        j = dec_m.find(np.conj(lam))
        m_i = dec_l.algebraic[i]
        if dec_m.algebraic[j] != m_i:
            raise InconsistencyError(
                f"multiplicity mismatch at eigenvalue {lam}: "
                f"{m_i} vs {dec_m.algebraic[j]}")
        psi_l = _range_basis(dec_l.projections[i], m_i)
        psi_m = _range_basis(dec_m.projections[j], m_i)
        is_real = any(abs(lam - v) <= dec_l.lookup_tol for v in real_set)
        if is_real:
            b = psi_l.conj().T @ metric @ psi_l
            bh = 0.5 * (b + b.conj().T)
            w, u = np.linalg.eigh(bh)
            if w.min() <= 0.0:
                raise InconsistencyError(
                    f"modified inner product not positive on the eigenspace "
                    f"at {lam}")
            psi_l = psi_l @ (u @ np.diag(w ** -0.5) @ u.conj().T)
        a = psi_m.conj().T @ metric @ psi_l
        if np.linalg.cond(a) > 1e8:
            raise InconsistencyError(
                f"cross Gram block at eigenvalue {lam} is nearly singular")
        psi_m = psi_m @ np.linalg.inv(a).conj().T
        left_cols.append(psi_l)
        right_cols.append(psi_m)
        labels.extend((lam, jj) for jj in range(m_i))
        if is_real:
            real_cols.append(psi_l)
            real_labels.extend((float(lam.real), jj) for jj in range(m_i))

    psi_left = np.concatenate(left_cols, axis=1)
    psi_right = np.concatenate(right_cols, axis=1)
    gram = (psi_right.conj().T @ metric @ psi_left).T
    if real_cols:
        pr = np.concatenate(real_cols, axis=1)
        real_block = (pr.conj().T @ metric @ pr).T
    else:
        real_block = np.zeros((0, 0), dtype=complex)
    return GramResult(gram, tuple(labels), real_block, tuple(real_labels), om.norm)
