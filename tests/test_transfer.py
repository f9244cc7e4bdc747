"""Continued transfer function: values, identities, classification."""

import cmath
import math

import numpy as np
import pytest

from resonances import (
    CouplingFunction,
    Flat,
    GuardBandError,
    Interval,
    PairingError,
    Rectangle,
    Semicircle,
    SpectralModel,
    build_contour,
    coupling_density,
    mirrored,
    self_energy_many,
    spectral_norm,
    transfer_many,
    adjoint_symmetry_residual,
)
from resonances.transfer import LOCATION_INSIDE, LOCATION_OUTSIDE, locate
from conftest import BETA_SQ_STD, squared_poly_coupling


def test_self_energy_log_value_on_physical_sheet(friedrichs_std):
    c = build_contour(friedrichs_std, Flat(), [1])
    zs = (4.0, 2.5, -1.0, 3.0 + 2.0j)
    for z, val in zip(zs, self_energy_many(c, zs)[:, 0, 0]):
        ref = BETA_SQ_STD * (cmath.log(z) - cmath.log(z - 2.0))
        assert abs(val - ref) <= 1e-10 * (1.0 + abs(ref))


def test_self_energy_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    assert spectral_norm(self_energy_many(c, [0.5 + 0.3j])[0]) == 0.0


def test_transfer_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    z = 0.4 + 0.2j
    m = transfer_many(c, [z])[0]
    assert np.array_equal(m, zero_model.a1 - z * np.eye(2))


def test_residue_relation_scalar(friedrichs_std):
    # value inside the deformation region picks up the full residue term
    c_half = build_contour(friedrichs_std, Semicircle(), [1])
    c_flat = build_contour(friedrichs_std, Flat(), [1], order=(12, 16))
    z = 1.0 + 0.5j
    lifted = self_energy_many(c_half, [z])[0, 0, 0]
    flat = self_energy_many(c_flat, [z])[0, 0, 0]
    assert abs(lifted - flat - 2j * math.pi * BETA_SQ_STD) <= 1e-9


def test_residue_relation_matrix(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    c_flat = build_contour(poly4_model, Flat(), [1], order=(12, 16))
    z = 2.0 + 0.8j
    m_lift = transfer_many(c, [z])[0]
    m_phys = transfer_many(c_flat, [z])[0]
    k = coupling_density(poly4_model, z)
    assert spectral_norm(m_lift - m_phys - 2j * math.pi * k) <= 1e-9


def test_residue_relation_lower_sheet(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [-1])
    c_flat = build_contour(poly4_model, Flat(), [-1], order=(12, 16))
    z = 2.0 - 0.8j
    m_lift = transfer_many(c, [z])[0]
    m_phys = transfer_many(c_flat, [z])[0]
    k = coupling_density(poly4_model, z)
    assert spectral_norm(m_lift - m_phys + 2j * math.pi * k) <= 1e-9


def test_coincidence_outside_region(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    c_flat = build_contour(poly4_model, Flat(), [1], order=(12, 16))
    zs = (6.0 + 0.5j, -2.0 - 1.0j, 2.0 - 2.5j)
    diffs = transfer_many(c, zs) - transfer_many(c_flat, zs)
    for z, diff in zip(zs, diffs):
        assert locate(c, z) == LOCATION_OUTSIDE
        assert spectral_norm(diff) <= 1e-9


def test_sheet_classification(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    assert locate(c, 1.0 + 0.4j) == LOCATION_INSIDE
    assert locate(c, 1.0 - 0.4j) == LOCATION_OUTSIDE
    assert locate(c, 5.0) == LOCATION_OUTSIDE
    assert c.multi_index == (1,)


def test_self_energy_derivatives_match_central_differences(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    zs = np.array([2.0 + 0.8j, 0.5 - 1.0j, 4.5 + 0.3j, 1.7 + 0.2j])
    assert np.all(c.distance(zs) >= 0.5)
    h = 1e-3
    plus, mid, minus = (self_energy_many(c, zs + s) for s in (h, 0.0, -h))
    central = {1: (plus - minus) / (2 * h), 2: (plus - 2 * mid + minus) / h ** 2}
    for k, fd in central.items():
        for exact, approx in zip(self_energy_many(c, zs, k), fd):
            assert spectral_norm(exact - approx) <= 1e-5 * spectral_norm(exact)


def test_guard_band_rejection(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    node = c.nodes[len(c.nodes) // 2]
    with pytest.raises(GuardBandError) as err:
        self_energy_many(c, [node])
    assert err.value.distance <= err.value.guard
    with pytest.raises(GuardBandError):
        transfer_many(c, [node + 1e-12j])


def test_guard_band_names_first_point_of_batch(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    node = c.nodes[len(c.nodes) // 2]
    zs = [1.0 + 0.4j, 3.0, node, 2.0 - 1.0j, c.nodes[0]]
    for k in (0, 1):
        with pytest.raises(GuardBandError) as err:
            self_energy_many(c, zs, k)
        assert err.value.z == node
        assert err.value.distance == c.distance(node)
        assert err.value.guard == c.guard
        assert self_energy_many(c, [zs[0], zs[1], zs[3]], k).shape == (3, 1, 1)


def test_guard_band_near_discrete_point():
    model = SpectralModel(np.array([[5.0]]), [Interval(0.0, 1.0, 0.6)],
                          [(3.0, np.array([[0.04]]))],
                          CouplingFunction.constant_vector([0.05]))
    c = build_contour(model, Semicircle(), [1])
    with pytest.raises(GuardBandError):
        transfer_many(c, [3.0 + 1e-12j])
    val = self_energy_many(c, [3.5])[0]
    assert abs(val[0, 0] - (0.04 / 0.5 + self_energy_without_discrete(model, c, 3.5))) < 1e-12


def self_energy_without_discrete(model, contour, z):
    stack = np.stack([model.coupling(mu) for mu in contour.nodes])
    coeff = contour.weights / (z - contour.nodes)
    return np.einsum("q,qij->ij", coeff, stack)[0, 0]


def test_adjoint_symmetry_random_points(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    cm = mirrored(c)
    rng = np.random.default_rng(12)
    zs = []
    while len(zs) < 50:
        z = complex(rng.uniform(-1.0, 5.0), rng.uniform(-2.5, 2.5))
        if min(c.distance(z), cm.distance(z)) >= 0.05:
            zs.append(z)
    residuals = adjoint_symmetry_residual(c, cm, zs)
    assert residuals.shape == (50,)
    assert np.all(residuals <= 1e-9)


def test_adjoint_symmetry_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    cm = mirrored(c)
    residuals = adjoint_symmetry_residual(c, cm, [0.3 + 0.7j, 0.2])
    assert np.array_equal(residuals, [0.0, 0.0])


def test_adjoint_symmetry_pairing_error(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    c2 = build_contour(poly4_model, Semicircle(radius=1.5), [-1])
    with pytest.raises(PairingError):
        adjoint_symmetry_residual(c, c2, [2.0 + 1.0j])


def test_self_energy_scaling_linearity():
    rng = np.random.default_rng(8)
    g0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = SpectralModel(np.diag([0.4, 0.5, 0.6]).astype(complex),
                         [Interval(0.0, 1.0, 0.6)],
                         coupling=squared_poly_coupling(g0, np.zeros((3, 3)), 0.001))
    scaled = SpectralModel(base.a1, base.intervals, (),
                           squared_poly_coupling(g0, np.zeros((3, 3)), 0.003))
    c = build_contour(base, Semicircle(), [1])
    cs = build_contour(scaled, Semicircle(), [1])
    z = 0.5 + 0.9j
    a = self_energy_many(c, [z])[0]
    b = self_energy_many(cs, [z])[0]
    assert spectral_norm(b - 3.0 * a) <= 1e-12 * spectral_norm(b)


def test_continuation_contour_independence(n3_bound_model):
    c1 = build_contour(n3_bound_model, Semicircle(radius=0.45), [1])
    c2 = build_contour(n3_bound_model, Rectangle(depth=0.5), [1])
    zs = (0.5 + 0.2j, 0.3 + 0.1j, 0.7 + 0.25j)
    for diff in transfer_many(c1, zs) - transfer_many(c2, zs):
        assert spectral_norm(diff) <= 1e-9


def test_holomorphy_cauchy_riemann_proxy(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    rng = np.random.default_rng(15)
    h = 1e-5
    checked = 0
    while checked < 20:
        z = complex(rng.uniform(0.5, 3.5), rng.uniform(-1.5, 1.5))
        if c.distance(z) < 0.2:
            continue
        m = transfer_many(c, [z + h, z - h, z + 1j * h, z - 1j * h])
        fx = (m[0] - m[1]) / (2 * h)
        fy = (m[2] - m[3]) / (2j * h)
        grad = max(spectral_norm(fx), 1e-3)
        assert spectral_norm(fx - fy) <= 1e-6 * grad
        checked += 1
