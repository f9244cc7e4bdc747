"""Spectral structure of the effective operators and the proved identities.

The eigenvalues and eigenvectors of a solution's effective operator come
from the eigensystem the ``Solution`` owns, taken once; the overlap reads
the adjoint mirror operator's from the mirror solution. An eigenprojection
at a simple eigenvalue is the outer product of its right eigenvector and
the matching row of the inverse eigenvector matrix, when that basis is
usable (``transfer._eigensystem``). Clusters of several eigenvalues, and
every cluster of an unusable eigenvector basis, take the contour residue
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
from .transfer import (
    _adjoint,
    _dual_eigensystem,
    _eigensystem,
    _resolvent_sum,
    _resolvents,
    self_energy_many,
    transfer_many,
)

DEFAULT_NILPOTENT_TOL = 1e-8
_ENCLOSURE_PAD = 0.45  # enclosure circle pad, as a fraction of the separation
_TRAPEZOID_START = 64
_TRAPEZOID_CAP = 16384
_TRAPEZOID_RTOL = 1e-12


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float


def _trapezoid_residue(f_batch, circles, atol: float = 0.0):
    """-(1/2 pi i) * contour integral of f(z) dz over circles.

    ``f_batch`` maps an array of points to a stacked array of matrices.
    The trapezoidal rule is spectrally accurate on circles. Level N uses the
    nodes theta_k = 2 pi k / N, so the rule nests: each doubling evaluates
    only the N new midpoints and adds them to a running sum, until two
    consecutive levels agree. Raises ``GeometryError`` when they still
    differ at ``_TRAPEZOID_CAP`` points per circle, as next to a pole.
    """
    def level_sum(npts: int, offset: float):
        total = 0.0
        phase = np.exp(2j * math.pi * (np.arange(npts) + offset) / npts)
        for c in circles:
            zs = c.center + c.radius * phase
            total = total + np.einsum("p,pij->ij", c.radius * phase, f_batch(zs))
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
            return cur
        prev = cur
    raise GeometryError(
        f"trapezoid rule did not settle in {npts} points per circle: the last "
        f"doubling moved it by {delta:.3e}; a circle may pass too close to a pole")


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
    """Indices of the eigenvalues linked by steps of at most ``tol``, group by group.

    Each group lists its members in (re, im) order, and the groups are
    ordered by their first members.
    """
    label = list(range(eigs.size))
    for a in range(eigs.size):
        for b in range(a + 1, eigs.size):
            if abs(eigs[a] - eigs[b]) <= tol and label[a] != label[b]:
                label = [label[b] if v == label[a] else v for v in label]
    groups: dict[int, list[int]] = {}
    for i in np.lexsort((eigs.imag, eigs.real)).tolist():
        groups.setdefault(label[i], []).append(i)
    return sorted(groups.values(), key=lambda g: (eigs[g[0]].real, eigs[g[0]].imag))


def _clusters(eigs: np.ndarray, cluster_tol: float, norm: float) -> tuple:
    """Clusters of ``eigs`` within ``cluster_tol``, their centroids and residue radii.

    ``norm`` is the norm of the matrix the eigenvalues belong to. Raises
    ``ClusteringError`` when two clusters come closer than four times
    ``cluster_tol``, or a cluster spreads as far as its nearest foreign
    eigenvalue. A cluster's residue circle passes halfway between its
    spread and that eigenvalue.
    """
    groups = _cluster(eigs, cluster_tol)
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
    centroids = [complex(np.mean(eigs[g])) for g in groups]
    radii = []
    for j, lam in enumerate(centroids):
        offset = eigs - lam
        dist = np.hypot(offset.real, offset.imag)
        spread = dist.max(where=labels == j, initial=0.0)
        gap = dist.min(where=labels != j, initial=math.inf)
        if spread >= gap * (1.0 - 1e-9):
            raise ClusteringError(
                f"cluster at {lam} spreads over {spread:.3e} with only "
                f"{gap:.3e} to the nearest neighbor; choose a different "
                "tolerance")
        radii.append(0.5 * (spread + gap) if math.isfinite(gap) else spread + 0.1 * (1.0 + norm))
    return groups, centroids, radii


def eigen_decompose(h1: Solution | np.ndarray,
                    cluster_tol: float | None = None) -> SpectralDecomposition:
    """Cluster the spectrum and compute its projections.

    ``h1`` is a solution, whose own eigensystem is used, or a bare matrix.
    Eigenvalues within ``cluster_tol`` of each other merge into one cluster
    represented by its centroid; ``find`` then matches within
    ``max(10 * cluster_tol, 1e-12)``, or ``1e-5 * max(norm(h1), 1)`` when no
    ``cluster_tol`` is given. A cluster of one eigenvalue takes the
    projection v w^H, with v its column of the eigenvector matrix V and w^H
    the matching row of V^-1, while that eigenbasis is usable.
    Any other projection is the residue of the resolvent on a circle of
    radius half the gap to the nearest other cluster. The nilpotent is the
    shifted matrix times the projection, and the pole order is the first
    power whose norm falls below the threshold
    ``DEFAULT_NILPOTENT_TOL * max(norm(h1), 1)**k``. A cluster of algebraic
    multiplicity one has nilpotent 0 and pole order 1 without either test.
    """
    if isinstance(h1, Solution):
        h1, (eigs, vecs, duals) = h1.effective, h1.eigensystem
    else:
        h1 = np.asarray(h1, dtype=complex)
        eigs, vecs, duals = _dual_eigensystem(h1)
    n = h1.shape[0]
    norm = spectral_norm(h1)
    scale = max(norm, 1.0)
    if cluster_tol is None:
        cluster_tol = 1e-7 * max(norm, 1e-300)
        lookup_tol = 1e-5 * scale
    else:
        lookup_tol = max(10.0 * cluster_tol, 1e-12)
    groups, centroids, radii = _clusters(eigs, cluster_tol, norm)

    eye = np.eye(n)
    clusters = []   # per cluster: projection, path, nilpotent, multiplicities, pole order
    for j, (lam, radius) in enumerate(zip(centroids, radii)):
        if duals is not None and len(groups[j]) == 1:
            k = groups[j][0]
            p, path = np.outer(vecs[:, k], duals[k]), "eigenvector"
        else:
            p = _trapezoid_residue(partial(_resolvents, h1), (Circle(lam, radius),),
                                   atol=1e-13 * (1.0 + norm))
            path = "residue"
        m_raw = float(np.trace(p).real)
        m = int(round(m_raw))
        if abs(m_raw - m) > 1e-2 or m < 1:
            raise ClusteringError(
                f"projection trace {m_raw:.6f} is not close to an integer; "
                "residue circle geometry is unreliable")
        nil, rank, order = np.zeros((n, n), dtype=complex), 0, 1
        if m > 1:
            nil = (h1 - lam * eye) @ p
            sv = np.linalg.svd(nil, compute_uv=False)
            rank = int(np.sum(sv > DEFAULT_NILPOTENT_TOL * scale))
            order = m
            power = nil.copy()
            for k in range(1, m + 1):
                if spectral_norm(power) <= DEFAULT_NILPOTENT_TOL * scale ** k:
                    order = k
                    break
                power = power @ nil
        clusters.append((p, path, nil if order > 1 else np.zeros_like(nil), m, m - rank, order))

    projections, paths, nilpotents, algebraic, geometric, pole_orders = zip(*clusters)
    return SpectralDecomposition(tuple(centroids), projections, nilpotents, algebraic, geometric,
                                 pole_orders, spectral_norm(sum(projections) - eye), paths,
                                 scale, lookup_tol)


def _spectra(h: np.ndarray) -> list:
    """``(eigenvalues, scale)`` of each stacked matrix (G, n, n), as ``eigen_decompose`` gives them.

    One batched ``eig``, norm and gap screen serve every row. A row whose
    eigenvalues lie at least four times the cluster tolerance apart, with a
    usable eigenbasis, is a row of single clusters with projection traces
    ``(V^-1 V)_kk``, which pass the trace check; its eigenvalues are its
    centroids. Any other row goes through ``eigen_decompose`` and all its
    checks.
    """
    eigs, _, usable = _eigensystem(h)
    norms = np.linalg.svd(h, compute_uv=False)[:, 0]
    gaps = np.abs(eigs[:, :, None] - eigs[:, None, :])
    off = ~np.eye(eigs.shape[-1], dtype=bool)
    min_gap = gaps.min(axis=(1, 2), where=off, initial=math.inf)
    separated = usable & (min_gap >= 4.0 * (1e-7 * np.maximum(norms, 1e-300)))
    out = []
    for hg, eigs_g, simple, norm in zip(h, eigs, separated.tolist(), norms.tolist()):
        if simple:
            centroids = tuple(sorted(eigs_g.tolist(), key=lambda z: (z.real, z.imag)))
        else:
            dec = eigen_decompose(hg)
            centroids, norm = dec.eigenvalues, dec.scale
        out.append((centroids, max(norm, 1.0)))
    return out


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
    in its shape. A point within the guard band raises ``GuardBandError``.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    contour, h = sol.contour, sol.effective
    m1 = transfer_many(contour, flat)
    eye = np.eye(h.shape[0])
    coeff = contour.quad_weights / (contour.quad_points - flat[:, None])
    w1 = eye - _resolvent_sum(contour.quad_points, coeff, contour.quad_values, (h, sol.eigensystem))
    shifted = h[None, :, :] - flat[:, None, None] * eye
    residual = np.linalg.norm(m1 - w1 @ shifted, 2, axis=(1, 2))
    if zs.ndim == 0:
        return Factorization(w1[0], float(residual[0]))
    return Factorization(w1.reshape(zs.shape + eye.shape), residual.reshape(zs.shape))


def left_factor_inverse_bound(cert) -> float:
    """Certified bound for the inverse of the left factor near the spectrum.

    Infinite when the certificate is not admissible (``d0`` may then be 0).
    """
    ratio = cert.v0 / (cert.d0 ** 2 / 4.0) if cert.admissible else math.inf
    return 1.0 / (1.0 - ratio) if ratio < 1.0 else math.inf


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


def overlap_operator(sol_l: Solution, sol_minus_l: Solution,
                     contour: Contour | None = None) -> OverlapOperator:
    """Integral of mirror-adjoint resolvent, coupling data, and resolvent.

    Computed over the discrete remainder plus the contour of ``sol_l``,
    which must be the mirror of the contour of ``sol_minus_l``. A given
    ``contour`` of the model and multi-index of ``sol_l`` (``verify`` takes
    it at twice the order) replaces it: its points, weights and coupling
    data are integrated against the eigensystem of ``sol_l`` and that of the
    adjoint mirror operator, read off ``sol_minus_l``'s. The norm
    must stay below the certified bound, the variation over the squared
    half separation of the certificate ``sol_l`` was solved with; a
    violation beyond one percent slack raises, since it signals a bad
    certificate or quadrature.
    """
    if not is_mirror_pair(sol_l.contour, sol_minus_l.contour):
        raise PairingError("solutions do not live on mirror contours")
    if contour is None:
        contour = sol_l.contour
    elif contour.model is not sol_l.model or contour.multi_index != sol_l.multi_index:
        raise PairingError("contour was built for a different model or sheet than the solution")
    out = _resolvent_sum(contour.quad_points, contour.quad_weights, contour.quad_values,
                         (sol_l.effective, sol_l.eigensystem),
                         _adjoint(sol_minus_l.effective, sol_minus_l.eigensystem))
    cert = sol_l.certificate
    bound = cert.v0 / (cert.d0 / 2.0) ** 2
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
    """Moments 0 and 1 from one trapezoid run."""

    m0: np.ndarray
    m1: np.ndarray


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
    eigs = sol.eigensystem[0]
    groups = _cluster(eigs, cert.d0)
    circles = []
    for g in groups:
        pts = eigs[g]
        center = complex(0.5 * (pts.real.min() + pts.real.max()),
                         0.5 * (pts.imag.min() + pts.imag.max()))
        spread = max(abs(pts - center))
        circles.append(Circle(center, spread + _ENCLOSURE_PAD * cert.d0))
    return tuple(circles)


def contour_moment(sol_l: Solution, sol_minus_l: Solution, gamma) -> MomentResult:
    """Residue-style moments 0 and 1 of the inverse transfer function.

    Moment 0 integrates the inverse transfer function on the contour of
    ``sol_l`` around the whole effective spectrum; moment 1 weights the
    integrand by z. Both come from one trapezoid run on the stacked
    integrand, so each point is evaluated and inverted once. The circles
    must enclose every effective eigenvalue of both solutions exactly once
    and avoid the contour and the discrete remainder; the rule is doubled
    until the stacked moments are stable, and raises ``GeometryError`` if
    they never are.
    """
    contour = sol_l.contour
    circles = (gamma,) if isinstance(gamma, Circle) else tuple(gamma)
    eigs = np.concatenate([sol_l.eigensystem[0], np.conj(sol_minus_l.eigensystem[0])])
    _check_circle_geometry(contour, circles, eigs)
    scale = max(spectral_norm(sol_l.effective), 1.0)
    minv = _minv_batch(contour, scale)

    def stacked(zs):
        inv = minv(zs)
        return np.concatenate([inv, zs[:, None, None] * inv], axis=1)

    value = _trapezoid_residue(stacked, circles, atol=1e-13 * (1.0 + scale))
    n = contour.model.dim
    return MomentResult(value[:n], value[n:])


@dataclass(frozen=True)
class ResidueResult:
    """Defects of the two product identities of the residue at one eigenvalue."""

    residual_vs_adjoint_projection: float
    residual_vs_projection: float


def transfer_residue(sol_l: Solution, dec_l: SpectralDecomposition,
                     lam: complex) -> np.ndarray:
    """Raw residue of the inverse transfer function around one eigenvalue.

    The transfer function is the one on the contour of ``sol_l``, and
    ``dec_l`` is the decomposition of ``sol_l.effective``. At an eigenvalue
    of algebraic multiplicity one the residue follows from Keldysh's theorem:
    with u and v the left and right singular vectors of T(lam) for its
    smallest singular value, it is -v u^H / (u^H T'(lam) v), in the sign
    convention of ``_trapezoid_residue``. At a multiple eigenvalue it is the
    trapezoid residue on the circle centered at the cluster centroid with
    radius half the gap to the nearest other cluster, capped to stay off the
    contour by the guard band; that circle is checked on both paths.
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
        u, _, vh = np.linalg.svd(transfer_many(contour, [lam_i])[0])
        left, right = u[:, -1], vh[-1].conj()
        slope = self_energy_many(contour, [lam_i], 1)[0] - np.eye(contour.model.dim)
        return -np.outer(right, left.conj()) / (left.conj() @ slope @ right)
    return _trapezoid_residue(_minv_batch(contour, scale), (circle,),
                              atol=1e-13 * (1.0 + scale))


def residue_at(sol_l: Solution, dec_l: SpectralDecomposition, dec_m: SpectralDecomposition,
               metric_inv: np.ndarray, lam: complex) -> ResidueResult:
    """Defects of the residue product identities at one isolated eigenvalue.

    ``dec_l`` and ``dec_m`` are the decompositions of the effective
    operators of ``sol_l`` and of its mirror solution, and ``metric_inv``
    the inverse of the overlap metric the caller built for the pair. The
    residue of the inverse transfer function at ``lam`` is compared with
    ``metric_inv`` times the adjoint of the mirror projection at the
    eigenvalue of ``dec_m`` nearest ``conj(lam)``, and with the projection
    of ``dec_l`` at ``lam`` times ``metric_inv``.
    """
    lam = complex(lam)
    i = dec_l.find(lam)
    value = transfer_residue(sol_l, dec_l, lam)
    j = int(np.argmin([abs(ev - np.conj(lam)) for ev in dec_m.eigenvalues]))
    return ResidueResult(spectral_norm(value - metric_inv @ dec_m.projections[j].conj().T),
                         spectral_norm(value - dec_l.projections[i] @ metric_inv))


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
    model and multi-index of ``sol`` (``verify`` takes it at twice the order
    of the contour of ``sol``). Each cluster is checked against the identity
    expressing the transfer function times the projection through the
    nilpotent and the self-energy derivatives, plus the shifted variants
    obtained by multiplying with nilpotent powers. The decomposition is also
    reconstructed into a matrix and compared with the effective operator,
    including the ball condition that makes the reconstruction unique.
    """
    model = sol.model
    if contour.model is not model or contour.multi_index != sol.multi_index:
        raise PairingError("contour was built for a different model or sheet than the solution")
    rows = []
    n = model.dim
    lams = np.array(dec.eigenvalues)
    m1s = transfer_many(contour, lams)
    derivs = {k: self_energy_many(contour, lams, k) for k in range(1, max(dec.pole_orders))}
    recon = np.zeros((n, n), dtype=complex)
    for i, (lam, p, nil, order, m1) in enumerate(zip(dec.eigenvalues, dec.projections,
                                                     dec.nilpotents, dec.pole_orders, m1s)):
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
    return ProjectionReport(tuple(rows), recon_err, corr_norm,
                            corr_norm < sol.certificate.r_max)


# ---------------------------------------------------------------------------
# Gram matrices under the modified inner product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramResult:
    gram: np.ndarray
    real_block: np.ndarray

    @property
    def gram_defect(self) -> float:
        return spectral_norm(self.gram - np.eye(self.gram.shape[0]))

    @property
    def real_block_defect(self) -> float:
        if self.real_block.size == 0:
            return 0.0
        return spectral_norm(self.real_block - np.eye(self.real_block.shape[0]))


def _range_basis(p: np.ndarray, m: int, path: str) -> np.ndarray:
    """Orthonormal basis of the range of a rank-m projection."""
    if path == "eigenvector":       # p = v w^H: its largest column spans v
        col = p[:, np.argmax(np.linalg.norm(p, axis=0))]
        return (col / np.linalg.norm(col))[:, None]
    u, s, _ = np.linalg.svd(p)
    if m > 0 and (s.size < m or s[m - 1] < 0.1):
        raise InconsistencyError(
            "projection rank deficient; cannot extract an eigenvector basis")
    return u[:, :m]


def riesz_gram(dec_l: SpectralDecomposition, dec_m: SpectralDecomposition,
               metric: np.ndarray, real_eigs=()) -> GramResult:
    """Binormalized Gram matrix of the eigenvector systems under the metric.

    Eigenvector bases of the two mirror solutions are paired by conjugate
    eigenvalues and binormalized so the cross products under the modified
    inner product form the identity; the assembled Gram matrix then tests
    biorthogonality across distinct eigenvalues. Bases at eigenvalues listed
    in ``real_eigs`` are first orthonormalized in the modified inner product
    itself, and the returned real block checks that orthonormality using the
    left system on both sides. ``dec_l`` and ``dec_m`` are the
    decompositions of the two effective operators, and ``metric`` is
    ``I + Omega`` of their overlap operator.
    """
    if any(o != 1 for o in dec_l.pole_orders):
        raise UnsupportedModelError(
            "gram construction requires a semisimple spectrum")
    for lam in real_eigs:
        dec_l.find(complex(lam))
        dec_m.find(complex(np.conj(lam)))

    real_set = [complex(v) for v in real_eigs]

    left_cols = []
    right_cols = []
    real_cols = []
    for i in range(dec_l.count):
        lam = dec_l.eigenvalues[i]
        j = dec_m.find(np.conj(lam))
        m_i = dec_l.algebraic[i]
        if dec_m.algebraic[j] != m_i:
            raise InconsistencyError(
                f"multiplicity mismatch at eigenvalue {lam}: "
                f"{m_i} vs {dec_m.algebraic[j]}")
        psi_l = _range_basis(dec_l.projections[i], m_i, dec_l.paths[i])
        psi_m = _range_basis(dec_m.projections[j], m_i, dec_m.paths[j])
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
        if is_real:
            real_cols.append(psi_l)

    psi_left = np.concatenate(left_cols, axis=1)
    psi_right = np.concatenate(right_cols, axis=1)
    gram = (psi_right.conj().T @ metric @ psi_left).T
    if real_cols:
        pr = np.concatenate(real_cols, axis=1)
        real_block = (pr.conj().T @ metric @ pr).T
    else:
        real_block = np.zeros((0, 0), dtype=complex)
    return GramResult(gram, real_block)
