"""Contraction solver for the nonlinear operator fixed-point equation.

The correction X solves X = F(X) where F applies the self-energy integral to
the shifted internal matrix. Under an admissible certificate F contracts
every ball between the two certified radii, the iteration starts at zero,
and the standard a-posteriori bound controls the distance to the true fixed
point at termination.

There is one iteration loop, and it runs over a stack of rows: coupling
data on one contour's points and weights, such as the grid points of a
sweep. The rows are certified where they are solved, from the contour's
separation distance and their stacked variation; each admissible row keeps
its own contraction factor, stop threshold, escape radius and contraction
checks, and freezes when it stops. A single solve is the stack of one row.

``F`` is evaluated through the eigenvectors of its argument. The paper
defines the operator self-energy ``V1(Y)`` by ``V1(Y) psi = V1(z) psi`` for
every eigenvector ``psi`` of ``Y`` with eigenvalue ``z``; for
``Y = V diag(lam) V^-1`` that fixes ``F(Y) = [V1(lam_j) v_j]_j V^-1``.
``transfer._resolvent_sum`` takes the sum, or inverts ``Y`` at every
integration point when its eigenbasis is ill conditioned.

A ``Solution`` records the contour (which carries the model) and the
certificate (computed once per solve) it was solved with, and owns the
eigensystem of its effective matrix, taken on first read and at most once;
the identities read all three from it, and ``F`` of a solution reads its
eigensystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import contour as ct
from .contour import Contour, SolvabilityCertificate, is_mirror_pair
from .errors import (
    ContractionViolationError,
    InadmissibleCertificateError,
    NonconvergenceError,
    PairingError,
)
from .model import SpectralModel, spectral_norm
from .transfer import _dual_eigensystem, _resolvent_sum

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
_RATIO_SLACK = 1e-6


def self_energy_of_operator(contour: Contour, y: np.ndarray | Solution,
                            values: np.ndarray | None = None) -> np.ndarray:
    """Self-energy applied to an operator argument.

    On an eigenvector of ``y`` this action reduces to the scalar
    self-energy at the eigenvalue; ``transfer._resolvent_sum`` takes the
    sum. ``y`` may be a solution, whose effective matrix is the argument and
    whose own eigensystem is used, or a stack (G, n, n); ``values`` then
    holds each row's coupling data on the contour's points and weights,
    shape (G, P, n, n). By default it is the contour's own.
    """
    if isinstance(y, Solution):
        right = (y.effective, y.eigensystem)
    else:       # the sum takes the eigensystem of a bare argument itself
        right = (np.asarray(y, dtype=complex), None)
    return _resolvent_sum(contour.quad_points, contour.quad_weights,
                          contour.quad_values if values is None else values, right)


@dataclass(frozen=True, eq=False)
class Solution:
    """Fixed point of the contraction map with its diagnostics.

    Also records the contour (which carries the model) and the certificate
    it was solved with.
    """

    contour: Contour
    certificate: SolvabilityCertificate
    correction: np.ndarray          # X
    effective: np.ndarray           # internal matrix plus X
    step_norms: tuple[float, ...]
    a_posteriori_bound: float

    @property
    def model(self) -> SpectralModel:
        return self.contour.model

    @property
    def multi_index(self) -> tuple[int, ...]:
        return self.contour.multi_index

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def last_step_norm(self) -> float:
        return self.step_norms[-1]

    @cached_property
    def eigensystem(self) -> tuple:
        """``(lam, V, V^-1)`` of the effective matrix, taken once; V^-1 None if unusable."""
        return _dual_eigensystem(self.effective)


def _iterate(contour: Contour, values: np.ndarray, q, threshold, r_escape,
             max_iter: int, certs) -> tuple:
    """Picard iteration of G stacked rows on the contour's points and weights.

    Row g iterates ``X <- F(A1 + X)`` with coupling data ``values[g]`` from
    zero. It freezes when its step falls to ``threshold[g]``, when its
    iterate leaves the ball of radius ``r_escape[g]``, or when its step
    ratio exceeds ``q[g]`` > 0. Returns the iterates, the step norms, the
    norm of each row's last iterate and the fault of each row: None, a
    ``ContractionViolationError``, or after ``max_iter`` steps a
    ``NonconvergenceError`` carrying ``certs[g]``.
    """
    a1 = contour.model.a1
    x = np.zeros((len(values), *a1.shape), dtype=complex)
    out = np.empty_like(x)
    floor = 10.0 * np.finfo(float).eps * (spectral_norm(a1) + 1.0)
    steps: list[list[float]] = [[] for _ in range(len(x))]
    norms: list = [None] * len(x)
    faults: list = [None] * len(x)
    rows = np.arange(len(x))            # the rows still iterating
    prev = [None] * len(x)
    for it in range(1, max_iter + 1):
        x_next = self_energy_of_operator(contour, a1 + x, values)
        # largest singular values, as spectral_norm takes them, row by row
        step_now = np.linalg.svd(x_next - x, compute_uv=False)[:, 0].tolist()
        norm_now = np.linalg.svd(x_next, compute_uv=False)[:, 0].tolist()
        going = []
        for g, step, x_norm, last in zip(rows.tolist(), step_now, norm_now, prev):
            steps[g].append(step)
            norms[g] = x_norm
            if x_norm > r_escape[g] * (1.0 + 1e-12):
                faults[g] = ContractionViolationError(
                    f"iterate norm {x_norm:.6e} escaped the certified ball "
                    f"of radius {r_escape[g]:.6e} at iteration {it}")
            elif (last is not None and last > floor and step > floor and q[g] > 0.0
                  and step > q[g] * last * (1.0 + _RATIO_SLACK)):
                faults[g] = ContractionViolationError(
                    f"empirical step ratio {step / last:.6e} exceeds the "
                    f"certified contraction factor {q[g]:.6e} at iteration {it}")
            going.append(faults[g] is None and not step <= threshold[g])
        x, prev = x_next, step_now
        if not all(going):
            out[rows] = x
            if not any(going):
                return out, steps, norms, faults
            keep = np.flatnonzero(going)
            rows, x, values = rows[keep], x[keep], values[keep]
            prev = [prev[k] for k in keep]
    out[rows] = x
    for g in rows:
        faults[g] = NonconvergenceError(
            f"no convergence within {max_iter} iterations "
            f"(last step {steps[g][-1]:.3e}, threshold {threshold[g]:.3e})", steps[g], certs[g])
    return out, steps, norms, faults


def _solve_rows(contour: Contour, values: np.ndarray, tol: float, max_iter: int) -> list:
    """Certify stacked rows and solve the admissible ones from zero in one batch.

    Row g has coupling data ``values[g]`` on the contour's points and
    weights. The contour's separation distance, taken once, and the rows'
    stacked variation give each row its certificate. Returns per row
    ``(certificate, X, step norms, a-posteriori bound)``, or its
    ``InadmissibleCertificateError`` or ``NonconvergenceError``, and raises
    the ``ContractionViolationError`` of the first violating row, as solving
    the rows one by one in order would.
    """
    d0 = ct.separation_distance(contour)
    certs = [ct._certificate(d0, v0) for v0 in ct.variation(contour, values).tolist()]
    out: list = [None if cert.admissible else InadmissibleCertificateError(cert)
                 for cert in certs]
    admitted = [g for g, cert in enumerate(certs) if cert.admissible]
    if not admitted:
        return out
    if len(admitted) < len(certs):
        values, certs = values[admitted], [certs[g] for g in admitted]
    q = [cert.contraction_factor() for cert in certs]
    threshold = [math.inf if qg == 0.0 else tol * (1.0 - qg) / qg for qg in q]
    x, steps, norms, faults = _iterate(contour, values, q, threshold,
                                       [cert.r_max for cert in certs], max_iter, certs)
    for g, cert, qg, xg, steps_g, x_norm, fault in zip(admitted, certs, q, x, steps, norms,
                                                      faults):
        if isinstance(fault, NonconvergenceError):
            out[g] = fault
            continue
        if fault is not None:
            raise fault
        bound = 0.0 if qg == 0.0 else qg / (1.0 - qg) * steps_g[-1]
        if x_norm > cert.r_min + bound + 1e-12 * (1.0 + cert.r_min):
            raise ContractionViolationError(
                f"final norm {x_norm:.6e} exceeds the certified radius "
                f"{cert.r_min:.6e} plus bound {bound:.3e}")
        out[g] = (cert, xg, tuple(steps_g), bound)
    return out


def fixed_point_residual(sol: Solution) -> float:
    """Norm of ``X - F(X)`` at the solution; costs one more evaluation of F."""
    return spectral_norm(sol.correction - self_energy_of_operator(sol.contour, sol))


def solve_fixed_point(contour: Contour, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> Solution:
    """Solve the fixed-point equation by plain iteration from zero.

    Requires an admissible certificate; refuses otherwise with the
    certificate attached, and attaches it to a ``NonconvergenceError`` too.
    Stops when the step norm guarantees an a-posteriori error at most
    ``tol``; the geometric decay of the step norms is checked against the
    certified contraction factor on every iteration, and an iterate
    escaping the larger certified ball aborts the solve.
    """
    # the one row borrows the contour's coupling data rather than copying it
    (result,) = _solve_rows(contour, contour.quad_values[None], tol, max_iter)
    if isinstance(result, Exception):
        raise result
    cert, x, steps, bound = result
    return Solution(contour, cert, x, contour.model.a1 + x, steps, bound)


def contour_independence(sol: Solution, other: Contour) -> float:
    """Norm distance between the solution and an independent re-solve.

    The second contour must belong to the solution's model and carry the
    same multi-index. When it is admissible a fresh independent solve runs
    from zero. When it is merely separated beyond the first solution's
    certified radius, no solve there is certified; the existing solution
    already satisfies that equation up to quadrature agreement, and the
    residual ``X - F_other(A1 + X)`` of one evaluation is reported without
    claiming uniqueness there.
    """
    if other.model is not sol.model or other.multi_index != sol.multi_index:
        raise PairingError(
            f"second contour (multi-index {other.multi_index}) is not on the solution's "
            f"model and multi-index {sol.multi_index}")
    try:
        resolved = solve_fixed_point(other)
    except InadmissibleCertificateError as exc:
        cert = exc.certificate
    else:
        return spectral_norm(resolved.correction - sol.correction)
    if cert.d0 > sol.certificate.r_min + sol.a_posteriori_bound:
        return spectral_norm(sol.correction - self_energy_of_operator(other, sol))
    raise InadmissibleCertificateError(
        cert, "second contour is neither admissible nor separated beyond the "
              "certified solution radius")


def adjoint_equation_residual(sol_l: Solution, sol_minus_l: Solution) -> float:
    """Residual of the adjoint fixed-point equation at the mirror solution.

    The adjoint of the mirror solution must solve the variant of the
    equation on contour l with the resolvent left of the coupling data. Its
    adjoint is the mirror solution's own equation with contour l's coupling
    data adjointed, on the mirror points and weights (exact conjugates of
    contour l's), so the check reads the mirror solution's eigensystem.
    """
    if not is_mirror_pair(sol_l.contour, sol_minus_l.contour):
        raise PairingError("solutions do not live on mirror contours")
    values = sol_l.contour.quad_values.conj().swapaxes(-1, -2)
    rhs = self_energy_of_operator(sol_minus_l.contour, sol_minus_l, values)
    return spectral_norm(sol_minus_l.correction - rhs)
