"""Closed-form single-level model: roots, bound states, asymptotics."""

import cmath
import math

import numpy as np
import pytest

from resonances import (
    DomainError,
    Flat,
    FriedrichsParams,
    Semicircle,
    bound_states,
    build_contour,
    friedrichs_model,
    params_from_model,
    resonance_root,
    self_energy_closed,
    self_energy_many,
    transfer_closed,
)
from resonances.friedrichs import _bisect

from conftest import BETA_SQ_STD

# frozen root of tan(phi) = (3/(8 pi)) * (phi + pi/2), computed by bisection
IM_ROOT_STD = 0.21249270733645836


def symmetric_angle_root(beta_tilde_sq: float, nu: int) -> float | None:
    """Root of tan(phi) = bt2*(phi - pi/2 + pi*nu) on [0, pi/2), if any.

    The closed form ``resonance_root`` is checked against: for the
    symmetric model (a = 2R, lambda1 = R) each root corresponds to a
    resonance R*(1 + i*tan(phi)) on the upper half of sheet nu. A sign scan
    plus bisection to the last float; returns None when no sign change
    exists (all nu <= 0).
    """
    def g(phi: float) -> float:
        return math.tan(phi) - beta_tilde_sq * (phi - math.pi / 2.0 + math.pi * nu)

    lo, hi = 0.0, math.pi / 2.0 - 1e-9
    while g(hi) < 0.0:
        hi = 0.5 * (hi + math.pi / 2.0)
        if math.pi / 2.0 - hi < 1e-15:
            return None
    if g(lo) > 0.0:
        # scan for an interior sign change before giving up
        grid = np.linspace(lo, hi, 1001)
        vals = [g(p) for p in grid]
        for p0, p1, v0, v1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if v0 <= 0.0 <= v1 or v1 <= 0.0 <= v0:
                lo, hi = p0, p1
                break
        else:
            return None
    return _bisect(g, lo, hi)


def test_branch_calibration_real_axis():
    p = FriedrichsParams(a=2.0, lambda1=1.0, beta=0.3, nu=0)
    # for z > a the value is the real logarithm ratio
    z = 4.0
    val = self_energy_closed(p, z)
    assert abs(val - 0.09 * math.log(2.0)) <= 1e-15
    assert abs(val.imag) == 0.0
    # below zero the two branch terms cancel to a real value as well
    val2 = self_energy_closed(p, -2.0)
    assert abs(val2.imag) == 0.0
    assert abs(val2 - 0.09 * math.log(0.5)) <= 1e-15


def test_branch_point_rejected():
    p = FriedrichsParams(2.0, 1.0, 0.3)
    with pytest.raises(DomainError):
        self_energy_closed(p, 0.0)
    with pytest.raises(DomainError):
        self_energy_closed(p, 2.0)


def test_sheet_consistency_exact():
    p0 = FriedrichsParams(2.0, 1.0, 0.3, 0)
    for nu in (-3, -1, 1, 2, 5):
        pn = FriedrichsParams(2.0, 1.0, 0.3, nu)
        for z in (0.5 + 0.2j, -1.0 + 1.0j, 3.0 - 0.4j):
            diff = self_energy_closed(pn, z) - self_energy_closed(p0, z)
            term = 0.09 * 2j * math.pi * nu
            assert abs(diff - term) <= 4.0 * np.finfo(float).eps * abs(term)


def test_quadrature_cross_check(friedrichs_std):
    c = build_contour(friedrichs_std, Flat(), [1], order=(12, 16))
    p = params_from_model(friedrichs_std, 0)
    zs = (3.0, -0.7, 1.0 + 1.5j, 0.5 - 2.0j)
    for z, quad in zip(zs, self_energy_many(c, zs)[:, 0, 0]):
        assert abs(quad - self_energy_closed(p, z)) <= 1e-9


def test_symmetric_resonance_two_root_finders():
    p = FriedrichsParams(2.0, 1.0, math.sqrt(BETA_SQ_STD), 1)
    root = resonance_root(p)
    assert root.residual <= 1e-12
    assert abs(root.z.real - 1.0) <= 1e-10
    assert abs(root.z.imag - IM_ROOT_STD) <= 1e-10
    assert root.angle_residual is not None and root.angle_residual <= 1e-10
    bt2 = 2.0 * BETA_SQ_STD / 1.0
    phi = symmetric_angle_root(bt2, 1)
    assert phi is not None
    assert abs(math.tan(phi) - root.z.imag) <= 1e-10


def test_conjugate_pairing():
    p = FriedrichsParams(2.0, 1.0, 0.2, 1)
    up = resonance_root(p)
    dn = resonance_root(p.with_sheet(-1))
    assert abs(dn.z - np.conj(up.z)) <= 1e-10


def test_no_roots_on_nonpositive_sheets():
    for nu in (0, -1, -2):
        assert symmetric_angle_root(0.4, nu) is None


def test_roots_exist_on_every_positive_sheet():
    for nu in (1, 2, 3):
        for bt2 in (0.05, 0.5, 4.0):
            phi = symmetric_angle_root(bt2, nu)
            assert phi is not None
            assert 0.0 <= phi < math.pi / 2.0
            assert abs(math.tan(phi) - bt2 * (phi - math.pi / 2 + math.pi * nu)) <= 1e-10


def test_resonance_requires_unphysical_sheet():
    with pytest.raises(DomainError):
        resonance_root(FriedrichsParams(2.0, 1.0, 0.2, 0))


def test_bound_states_residuals():
    p = FriedrichsParams(2.0, 1.0, math.sqrt(0.1))
    bs = bound_states(p)
    assert bs.z0 < 0.0
    assert bs.za > 2.0
    assert bs.residual0 <= 1e-12
    assert bs.residual_a <= 1e-12


def test_bound_state_asymptote_factor_two():
    lam, a = 1.0, 2.0
    p = FriedrichsParams(a, lam, math.sqrt(lam / 10.0))
    bs = bound_states(p)
    assert 0.5 <= bs.z0 / bs.z0_asymptote(p) <= 2.0
    assert 0.5 <= bs.za_offset / bs.za_gap_asymptote(p) <= 2.0


def test_bound_state_trend_to_asymptote():
    lam, a = 1.0, 2.0
    devs = []
    for denom in (6.0, 8.0, 10.0, 12.0):
        p = FriedrichsParams(a, lam, math.sqrt(lam / denom))
        bs = bound_states(p)
        devs.append(abs(bs.z0 / bs.z0_asymptote(p) - 1.0))
    assert all(b < a_ for a_, b in zip(devs[:-1], devs[1:]))
    assert devs[-1] < 0.5


def test_bound_states_require_embedded_level():
    with pytest.raises(DomainError):
        bound_states(FriedrichsParams(2.0, 3.0, 0.2))


def test_params_from_model_round_trip(friedrichs_std):
    p = params_from_model(friedrichs_std, 1)
    assert p.a == 2.0 and p.lambda1 == 1.0
    assert abs(p.beta ** 2 - BETA_SQ_STD) <= 1e-15
    f = transfer_closed(p, 1.0 + 0.2j)
    ref = 1.0 - (1.0 + 0.2j) + BETA_SQ_STD * (
        cmath.log(1.0 + 0.2j) - cmath.log(-1.0 + 0.2j) + 2j * math.pi)
    assert abs(f - ref) <= 1e-14


def test_oracle_keystone_cross_validation():
    # solve on the upper contour and compare with the closed-form root
    import resonances as rs

    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(10):
        r = 0.5 + 2.5 * rng.random()
        frac = 0.15 + 0.75 * rng.random()
        pairs.append((r, frac * r / (4.0 * math.pi)))
    for r, b2 in pairs:
        model = friedrichs_model(r, beta_sq=b2)
        c = rs.build_contour(model, Semicircle(), [1])
        sol = rs.solve_fixed_point(c, tol=1e-12)
        p = params_from_model(model, 1)
        root = resonance_root(p)
        err = abs(complex(sol.effective[0, 0]) - root.z)
        assert err <= max(1e-8, sol.a_posteriori_bound)
        sol_m = rs.solve_fixed_point(rs.mirrored(c), tol=1e-12)
        root_m = resonance_root(p.with_sheet(-1))
        assert abs(complex(sol_m.effective[0, 0]) - root_m.z) <= max(
            1e-8, sol_m.a_posteriori_bound)
