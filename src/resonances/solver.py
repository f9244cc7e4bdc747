"""Contraction solver for the nonlinear operator fixed-point equation.

The correction X solves X = F(X) where F applies the self-energy integral to
the shifted internal matrix. Under an admissible certificate F contracts
every ball between the two certified radii, the iteration starts at zero,
and the standard a-posteriori bound controls the distance to the true fixed
point at termination.

A ``Solution`` records the contour (which carries the model) and the
certificate (computed once per solve) it was solved with, and the
identities read them from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import Contour, SolvabilityCertificate, is_mirror_pair, solvability_certificate
from .errors import (
    ContractionViolationError,
    InadmissibleCertificateError,
    NonconvergenceError,
    PairingError,
)
from .model import SpectralModel, spectral_norm
from .transfer import _resolvents, _weighted_sum

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
_RATIO_SLACK = 1e-6


def self_energy_of_operator(contour: Contour, y: np.ndarray) -> np.ndarray:
    """Self-energy applied to an operator argument.

    Sums the coupling data against the resolvent of ``y`` at every discrete
    point and quadrature node. On an eigenvector of ``y`` this action
    reduces to the scalar self-energy at the eigenvalue.
    """
    inv = _resolvents(np.asarray(y, dtype=complex), contour.quad_points)
    return _weighted_sum(contour.quad_weights, contour.quad_values, inv)


def adjoint_self_energy_of_operator(contour: Contour, y: np.ndarray) -> np.ndarray:
    """Left-resolvent variant: integrates resolvent times coupling data."""
    inv = _resolvents(np.asarray(y, dtype=complex), contour.quad_points)
    return _weighted_sum(contour.quad_weights, inv, contour.quad_values)


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


def _iterate(contour: Contour, q: float, tol: float, max_iter: int,
             r_escape: float | None, stop_abs: float | None = None,
             x0: np.ndarray | None = None, cert: SolvabilityCertificate | None = None):
    a1 = contour.model.a1
    x = np.zeros_like(a1) if x0 is None else np.asarray(x0, dtype=complex)
    scale = spectral_norm(a1) + 1.0
    floor = 10.0 * np.finfo(float).eps * scale
    threshold = stop_abs if stop_abs is not None else (
        math.inf if q == 0.0 else tol * (1.0 - q) / q)
    steps: list[float] = []
    prev_step = None
    for it in range(1, max_iter + 1):
        x_next = self_energy_of_operator(contour, a1 + x)
        step = spectral_norm(x_next - x)
        steps.append(step)
        x_norm = spectral_norm(x_next)
        if r_escape is not None and x_norm > r_escape * (1.0 + 1e-12):
            raise ContractionViolationError(
                f"iterate norm {x_norm:.6e} escaped the certified ball "
                f"of radius {r_escape:.6e} at iteration {it}")
        if prev_step is not None and prev_step > floor and step > floor:
            if q > 0.0 and step > q * prev_step * (1.0 + _RATIO_SLACK):
                raise ContractionViolationError(
                    f"empirical step ratio {step / prev_step:.6e} exceeds the "
                    f"certified contraction factor {q:.6e} at iteration {it}")
        x = x_next
        if step <= threshold:
            return x, steps
        prev_step = step
    raise NonconvergenceError(
        f"no convergence within {max_iter} iterations "
        f"(last step {steps[-1]:.3e}, threshold {threshold:.3e})", steps, cert)


def fixed_point_residual(sol: Solution) -> float:
    """Norm of ``X - F(X)`` at the solution; costs one more evaluation of F."""
    return spectral_norm(sol.correction
                         - self_energy_of_operator(sol.contour, sol.effective))


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
    cert = solvability_certificate(contour)
    if not cert.admissible:
        raise InadmissibleCertificateError(cert)
    q = cert.contraction_factor()
    x, steps = _iterate(contour, q, tol, max_iter, cert.r_max, cert=cert)
    bound = 0.0 if q == 0.0 else q / (1.0 - q) * steps[-1]
    x_norm = spectral_norm(x)
    if x_norm > cert.r_min + bound + 1e-12 * (1.0 + cert.r_min):
        raise ContractionViolationError(
            f"final norm {x_norm:.6e} exceeds the certified radius "
            f"{cert.r_min:.6e} plus bound {bound:.3e}")
    return Solution(contour, cert, x, contour.model.a1 + x, tuple(steps), bound)


def refine_fixed_point(contour: Contour, x0: np.ndarray, tol: float = 1e-12,
                       max_iter: int = DEFAULT_MAX_ITER) -> Solution:
    """Picard refinement from a given starting matrix, without a certificate.

    For ingesting externally constructed solutions (inverse constructions,
    previous runs): iterates until the absolute step norm drops below
    ``tol``, with no contraction enforcement, and records the certificate
    purely as data. The a-posteriori bound is not a guarantee here; it
    reports the final step norm.
    """
    cert = solvability_certificate(contour)
    x, steps = _iterate(contour, 0.0, tol, max_iter, None, stop_abs=tol, x0=x0)
    return Solution(contour, cert, x, contour.model.a1 + x, tuple(steps), steps[-1])


def contour_independence(sol: Solution, other: Contour) -> float:
    """Norm distance between the solution and an independent re-solve.

    The second contour must belong to the solution's model and carry the
    same multi-index. When it is admissible a fresh independent solve runs
    from zero. When it is merely separated beyond the first solution's
    certified radius, the existing solution is refined on the second contour
    (it already satisfies that equation up to quadrature agreement) and the
    difference is reported without claiming uniqueness there.
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
    r0_estimate = sol.certificate.r_min + sol.a_posteriori_bound
    if cert.d0 > r0_estimate:
        refined = refine_fixed_point(other, sol.correction, DEFAULT_TOL)
        return spectral_norm(refined.correction - sol.correction)
    raise InadmissibleCertificateError(
        cert, "second contour is neither admissible nor separated beyond the "
              "certified solution radius")


def adjoint_equation_residual(sol_l: Solution, sol_minus_l: Solution) -> float:
    """Residual of the adjoint fixed-point equation on the original contour.

    The adjoint of the mirror solution must solve the variant with the
    resolvent on the left of the coupling data, integrated over the original
    contour.
    """
    if not is_mirror_pair(sol_l.contour, sol_minus_l.contour):
        raise PairingError("solutions do not live on mirror contours")
    x_adj = sol_minus_l.correction.conj().T
    rhs = adjoint_self_energy_of_operator(sol_l.contour, sol_l.model.a1 + x_adj)
    return spectral_norm(x_adj - rhs)
