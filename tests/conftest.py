"""Shared model fixtures for the test suite."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import resonances
from resonances import (
    CouplingFunction,
    Interval,
    Semicircle,
    SpectralModel,
    build_contour,
    friedrichs_model,
    self_energy_of_operator,
)

BETA_SQ_STD = 3.0 / (16.0 * math.pi)


def child_env() -> dict:
    """Environment in which a child interpreter imports the package under test."""
    src = str(Path(resonances.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def squared_poly_coupling(g0: np.ndarray, g1: np.ndarray, scale: float) -> CouplingFunction:
    """Coupling density scale*(g0 + mu*g1)^H (g0 + mu*g1): PSD for real mu."""
    c0 = scale * (g0.conj().T @ g0)
    c1 = scale * (g0.conj().T @ g1 + g1.conj().T @ g0)
    c2 = scale * (g1.conj().T @ g1)
    return CouplingFunction.polynomial([c0, c1, c2])


@pytest.fixture(scope="session")
def friedrichs_std():
    """Symmetric single-level model, beta^2 = 3/(16 pi)."""
    return friedrichs_model(1.0, beta_sq=BETA_SQ_STD)


@pytest.fixture(scope="session")
def zero_model():
    """n=2 model with zero coupling, one interval."""
    a1 = np.diag([0.3, 0.7]).astype(complex)
    return SpectralModel(a1, [Interval(0.0, 1.0, 0.6)], (),
                         CouplingFunction.zero(2))


@pytest.fixture(scope="session")
def poly4_model():
    """n=4 polynomial-coupling model on (0, 4), all levels embedded."""
    u = random_unitary(4, seed=11)
    a1 = u @ np.diag([1.6, 2.0, 2.4, 2.8]) @ u.conj().T
    a1 = 0.5 * (a1 + a1.conj().T)
    rng = np.random.default_rng(7)
    g0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g0 /= np.linalg.norm(g0, 2)
    g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g1 *= 0.15 / np.linalg.norm(g1, 2)
    coupling = squared_poly_coupling(g0, g1, 0.01)
    return SpectralModel(a1, [Interval(0.0, 4.0, 2.6)], (), coupling)


@pytest.fixture(scope="session")
def m2_model():
    """n=3 model with two intervals and one real level outside both."""
    u = random_unitary(3, seed=21)
    a1 = u @ np.diag([0.5, 2.5, 4.0]) @ u.conj().T
    a1 = 0.5 * (a1 + a1.conj().T)
    rng = np.random.default_rng(9)
    g0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g0 /= np.linalg.norm(g0, 2)
    g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g1 *= 0.1 / np.linalg.norm(g1, 2)
    coupling = squared_poly_coupling(g0, g1, 0.0025)
    return SpectralModel(a1, [Interval(0.0, 1.0, 0.45), Interval(2.0, 3.0, 0.45)],
                         (), coupling)


@pytest.fixture(scope="session")
def n3_bound_model():
    """n=3 model with one level outside the interval (a bound state)."""
    u = random_unitary(3, seed=33)
    a1 = u @ np.diag([-0.5, 0.4, 0.6]) @ u.conj().T
    a1 = 0.5 * (a1 + a1.conj().T)
    rng = np.random.default_rng(17)
    g0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g0 /= np.linalg.norm(g0, 2)
    g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g1 *= 0.2 / np.linalg.norm(g1, 2)
    coupling = squared_poly_coupling(g0, g1, 0.008)
    return SpectralModel(a1, [Interval(0.0, 1.0, 0.6)], (), coupling)


@pytest.fixture(scope="session")
def embedded_real_model():
    """n=2 model engineered to keep a real eigenvalue embedded at 0.5.

    The density has a double zero at 0.5 and annihilates the first basis
    vector, so the level at 0.5 survives inside the interval.
    """
    lam = 0.5
    q = np.diag([0.0, 1.0]).astype(complex)
    c = 0.02
    coeffs = [c * lam * lam * q, -2.0 * c * lam * q, c * q]
    coupling = CouplingFunction.polynomial(coeffs)
    a1 = np.diag([lam, 0.75]).astype(complex)
    return SpectralModel(a1, [Interval(0.0, 1.0, 0.6)], (), coupling)


def build_defective4():
    """Inverse-constructed n=4 model whose exact solution has a Jordan block.

    Picks an effective matrix with a 2-Jordan block inside the upper sheet,
    then defines the internal matrix as that matrix minus its own
    self-energy, which makes it an exact fixed point by construction. The
    resulting internal matrix is not Hermitian; validation is intentionally
    skipped for this engineered fixture.
    """
    z0 = 0.55 + 0.12j
    j = np.zeros((4, 4), dtype=complex)
    j[0, 0] = z0
    j[0, 1] = 1.0
    j[1, 1] = z0
    j[2, 2] = 0.30 + 0.07j
    j[3, 3] = 1.40
    rng = np.random.default_rng(5)
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = np.eye(4) + 0.3 * s / np.linalg.norm(s, 2)
    h = s @ j @ np.linalg.inv(s)

    rng2 = np.random.default_rng(6)
    g0 = rng2.standard_normal((4, 4)) + 1j * rng2.standard_normal((4, 4))
    g0 /= np.linalg.norm(g0, 2)
    g1 = rng2.standard_normal((4, 4)) + 1j * rng2.standard_normal((4, 4))
    g1 *= 0.1 / np.linalg.norm(g1, 2)
    coupling = squared_poly_coupling(g0, g1, 0.001)

    interval = Interval(0.0, 1.0, 0.6)
    seed_model = SpectralModel(np.eye(4), [interval], (), coupling)
    contour = build_contour(seed_model, Semicircle(), [1])
    x_exact = self_energy_of_operator(seed_model, contour, h)
    a1 = h - x_exact
    model = SpectralModel(a1, [interval], (), coupling)
    contour = build_contour(model, Semicircle(), [1])
    return model, contour, h, x_exact, j


@pytest.fixture(scope="session")
def defective4():
    return build_defective4()
