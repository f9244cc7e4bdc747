"""Closed-form single-level model with constant coupling: the oracle.

The external channel is multiplication on (0, a), the internal space is one
dimensional with level lambda1, and the coupling is a constant beta. The
self-energy is an explicit logarithm, so resonances, bound states, and their
asymptotics are available independently of any contour quadrature. This
module cross-validates the whole pipeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonconvergenceError, UnsupportedModelError
from .model import SpectralModel

_ROOT_FTOL = 1e-12          # |f| at which Newton stops, for resonances and bound states
_NEWTON_MAX_STEPS = 100


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where f must change sign, to the last float.

    While the ends lie on one side of zero more than a factor two apart the
    bracket is split at their geometric mean, so a bracket spanning hundreds
    of orders of magnitude closes in a few dozen steps; otherwise at the
    midpoint. Stops when no float lies strictly between the ends.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if (f_lo < 0.0 and f_hi < 0.0) or (f_lo > 0.0 and f_hi > 0.0):
        raise NonconvergenceError(f"no sign change of the root function on [{lo}, {hi}]",
                                  (lo, hi))
    while True:
        if (0.0 < lo and 2.0 * lo < hi) or (hi < 0.0 and lo < 2.0 * hi):
            mid = math.copysign(math.sqrt(abs(lo)) * math.sqrt(abs(hi)), hi)
        else:
            mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


@dataclass(frozen=True)
class FriedrichsParams:
    """Interval length a, internal level lambda1, coupling beta, sheet nu."""

    a: float
    lambda1: float
    beta: float
    nu: int = 0

    def __post_init__(self):
        if not (self.a > 0.0):
            raise DomainError("interval length a must be positive")
        if not (self.beta > 0.0):
            raise DomainError("coupling beta must be positive")

    def with_sheet(self, nu: int) -> "FriedrichsParams":
        return FriedrichsParams(self.a, self.lambda1, self.beta, int(nu))


def self_energy_closed(params: FriedrichsParams, z: complex) -> complex:
    """Closed-form self-energy on sheet nu.

    The branch is the principal logarithm difference, which is real for
    real z > a (physical-sheet calibration); sheet nu adds 2*pi*i*nu times
    the squared coupling.
    """
    z = complex(z)
    if z == 0.0 or z == params.a:
        raise DomainError(f"z={z} is a branch point")
    b2 = params.beta ** 2
    return b2 * (cmath.log(z) - cmath.log(z - params.a) + 2j * math.pi * params.nu)


def transfer_closed(params: FriedrichsParams, z: complex) -> complex:
    """Scalar transfer function lambda1 - z + self-energy on sheet nu."""
    return params.lambda1 - complex(z) + self_energy_closed(params, z)


def _transfer_derivative(params: FriedrichsParams, z: complex) -> complex:
    b2 = params.beta ** 2
    return -1.0 + b2 * (1.0 / z - 1.0 / (z - params.a))


@dataclass(frozen=True)
class ResonanceRoot:
    z: complex
    residual: float
    iterations: int
    angle_residual: float | None


def resonance_root(params: FriedrichsParams) -> ResonanceRoot:
    """Newton root of the sheet-nu transfer function (nu != 0 required).

    Started at lambda1 plus a small displacement into the half plane of the
    sheet index. In the symmetric case (a = 2*lambda1) the root is checked
    against the independent tangent equation for the argument angle.
    """
    if params.nu == 0:
        raise DomainError("resonance_root requires a nonzero sheet index")
    z = complex(params.lambda1, math.copysign(params.a / 10.0, params.nu))
    history = [z]
    for it in range(1, _NEWTON_MAX_STEPS + 1):
        f = transfer_closed(params, z)
        if abs(f) <= _ROOT_FTOL:
            break
        df = _transfer_derivative(params, z)
        if df == 0.0:
            raise NonconvergenceError("Newton derivative vanished", history)
        z = z - f / df
        history.append(z)
    else:
        raise NonconvergenceError(
            f"Newton did not reach |f| <= {_ROOT_FTOL} in {_NEWTON_MAX_STEPS} steps",
            history)

    angle_residual = None
    if abs(params.a - 2.0 * params.lambda1) <= 1e-12 * params.a:
        r = params.lambda1
        bt2 = 2.0 * params.beta ** 2 / r
        phi = math.atan2(abs(z.imag), r)
        angle_residual = abs(math.tan(phi)
                             - bt2 * (phi - math.pi / 2.0 + math.pi * abs(params.nu)))
    return ResonanceRoot(z, abs(transfer_closed(params, z)), it, angle_residual)


@dataclass(frozen=True)
class BoundStates:
    """Physical-sheet roots below zero and above a.

    ``za_offset`` stores the distance of the upper root from the endpoint a
    to full relative precision; the root equation near a is ill conditioned
    in the absolute coordinate, so the residual is evaluated through the
    offset parametrization.
    """

    z0: float
    za: float
    za_offset: float
    residual0: float
    residual_a: float

    def z0_asymptote(self, params: FriedrichsParams) -> float:
        return -params.a * math.exp(-params.lambda1 / params.beta ** 2)

    def za_asymptote(self, params: FriedrichsParams) -> float:
        return params.a * (1.0 + math.exp(-(params.a - params.lambda1) / params.beta ** 2))

    def za_gap_asymptote(self, params: FriedrichsParams) -> float:
        return params.a * math.exp(-(params.a - params.lambda1) / params.beta ** 2)


def _physical_transfer_real(params: FriedrichsParams, x: float) -> float:
    b2 = params.beta ** 2
    return params.lambda1 - x + b2 * (math.log(abs(x)) - math.log(abs(x - params.a)))


def bound_states(params: FriedrichsParams) -> BoundStates:
    """The two physical-sheet roots: one below zero, one above a.

    Requires the internal level inside (0, a), where both endpoint integrals
    of the constant coupling diverge and therefore both roots exist. The
    lower root is bisected in place; the upper root is bisected in the
    offset coordinate t = z - a, which keeps the residual resolvable when
    the root sits exponentially close to the endpoint.
    """
    a, lam, b2 = params.a, params.lambda1, params.beta ** 2
    if not (0.0 < lam < a):
        raise DomainError("bound states require lambda1 inside (0, a)")

    f = lambda x: _physical_transfer_real(params, x)

    lo = -a * math.exp(min(lam / b2, 600.0)) - 1.0
    hi = -a * math.exp(-min(lam / b2, 600.0)) * 1e-6
    if f(hi) > 0.0:
        hi = -1e-300
    z0 = _bisect(f, lo, hi)
    for _ in range(4):
        if abs(f(z0)) <= _ROOT_FTOL:
            break
        z0 -= f(z0) / (-1.0 + b2 * (1.0 / z0 - 1.0 / (z0 - a)))

    def g(t: float) -> float:
        return lam - a - t + b2 * (math.log(a + t) - math.log(t))

    t_est = a * math.exp(-min((a - lam) / b2, 600.0))
    t_lo = max(t_est * 1e-6, 5e-324)
    t_hi = a
    while g(t_hi) > 0.0:
        t_hi *= 2.0
        if t_hi > 1e30:
            raise NonconvergenceError("could not bracket the upper bound state", (t_hi,))
    t = _bisect(g, t_lo, t_hi)
    for _ in range(8):
        if abs(g(t)) <= _ROOT_FTOL:
            break
        t -= g(t) / (-1.0 + b2 * (1.0 / (a + t) - 1.0 / t))
    return BoundStates(z0, a + t, t, abs(f(z0)), abs(g(t)))


def friedrichs_model(r: float = 1.0, *, beta_sq: float) -> SpectralModel:
    """The symmetric single-level model: interval (0, 2R), level R, constant beta."""
    from .model import CouplingFunction, Interval

    coupling = CouplingFunction.constant_vector([math.sqrt(beta_sq)])
    return SpectralModel(np.array([[r]]), [Interval(0.0, 2.0 * r, 4.0 * r)], (), coupling)


def params_from_model(model: SpectralModel, nu: int = 0) -> FriedrichsParams:
    """Extract closed-form parameters from a single-level constant model."""
    if model.dim != 1 or model.m != 1 or model.discrete:
        raise UnsupportedModelError("oracle requires n=1, one interval, no remainder")
    if model.coupling.kind != "constant-vector":
        raise UnsupportedModelError("oracle requires the constant-vector coupling")
    iv = model.intervals[0]
    if not iv.bounded or iv.lo != 0.0:
        raise UnsupportedModelError("oracle requires the interval (0, a)")
    beta = float(abs(model.coupling.row[0]))
    return FriedrichsParams(iv.hi, float(model.a1[0, 0].real), beta, nu)
