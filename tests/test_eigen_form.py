"""Sums over an operator argument: eigenvector form against stacked resolvents.

The operator self-energy, the overlap operator and the left factor of the
factorization are computed through the eigenvectors of their arguments, and
through resolvent stacks when the eigenbasis is ill conditioned. The
references below are the resolvent-stack sums.
"""

from dataclasses import replace

import numpy as np
import pytest

from resonances import (
    Interval,
    ResolventSingularityError,
    Semicircle,
    SpectralModel,
    adjoint_equation_residual,
    build_contour,
    factorize,
    mirrored,
    overlap_operator,
    self_energy_of_operator,
    solve_fixed_point,
    spectral_norm,
)
from resonances import transfer
from resonances.transfer import _resolvents, _weighted_sum

from conftest import random_unitary, squared_poly_coupling


def ref_self_energy(contour, y, values=None):
    inv = _resolvents(np.asarray(y, dtype=complex), contour.quad_points)
    return _weighted_sum(contour.quad_weights,
                         contour.quad_values if values is None else values, inv)


def ref_adjoint(contour, y):
    """The left-resolvent sum: resolvent times coupling data."""
    inv = _resolvents(np.asarray(y, dtype=complex), contour.quad_points)
    return _weighted_sum(contour.quad_weights, inv, contour.quad_values)


def ref_overlap(sol, sol_m):
    c = sol.contour
    left_inv = _resolvents(sol_m.effective.conj().T, c.quad_points)
    right_inv = _resolvents(sol.effective, c.quad_points)
    return _weighted_sum(c.quad_weights, left_inv @ c.quad_values, right_inv)


def ref_left_factor(sol, zs):
    c, h = sol.contour, sol.effective
    inv = _resolvents(h, c.quad_points)
    eye = np.eye(h.shape[0])
    return np.stack([eye - _weighted_sum(c.quad_weights / (c.quad_points - z),
                                         c.quad_values, inv) for z in zs])


def poly16_model():
    """n=16 polynomial-coupling model on (0, 4), levels spread over (1.2, 2.8)."""
    n = 16
    u = random_unitary(n, seed=61)
    a1 = u @ np.diag(np.linspace(1.2, 2.8, n)) @ u.conj().T
    a1 = 0.5 * (a1 + a1.conj().T)
    rng = np.random.default_rng(63)
    g0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g0 /= np.linalg.norm(g0, 2)
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g1 *= 0.15 / np.linalg.norm(g1, 2)
    return SpectralModel(a1, [Interval(0.0, 4.0, 2.6)], (),
                         squared_poly_coupling(g0, g1, 0.01))


def sample_points(sol, count, seed):
    """Points within half a separation of the levels, off the contour."""
    rng = np.random.default_rng(seed)
    eigs = sol.model.a1_eigenvalues()
    d0 = sol.certificate.d0
    zs = []
    while len(zs) < count:
        z = (eigs[rng.integers(0, len(eigs))]
             + 0.5 * d0 * rng.random() * np.exp(2j * np.pi * rng.random()))
        if sol.contour.distance(z) > 1e-3:
            zs.append(complex(z))
    return np.array(zs)


def evaluations(sol, sol_m, zs):
    """F, the overlap and the left factors of one mirror pair."""
    c, h = sol.contour, sol.effective
    return (self_energy_of_operator(c, h), overlap_operator(sol, sol_m).matrix,
            factorize(sol, zs).left_factor)


def references(sol, sol_m, zs):
    c, h = sol.contour, sol.effective
    return ref_self_energy(c, h), ref_overlap(sol, sol_m), ref_left_factor(sol, zs)


@pytest.fixture
def resolvent_calls(monkeypatch):
    """Counts the resolvent stacks taken by the sums over an operator argument."""
    calls = []

    def spy(h, points):
        calls.append(h.shape)
        return _resolvents(h, points)

    monkeypatch.setattr(transfer, "_resolvents", spy)
    return calls


@pytest.mark.parametrize("model_name", ["friedrichs_std", "poly4_model", "poly16"])
def test_eigen_form_matches_resolvent_sums(request, resolvent_calls, model_name):
    model = poly16_model() if model_name == "poly16" else request.getfixturevalue(model_name)
    c = build_contour(model, Semicircle(), [1])
    sol, sol_m = solve_fixed_point(c), solve_fixed_point(mirrored(c))
    zs = sample_points(sol, 12, seed=71)
    del resolvent_calls[:]
    got = evaluations(sol, sol_m, zs)
    assert resolvent_calls == []       # every sum took the eigenvector form
    for value, ref in zip(got, references(sol, sol_m, zs)):
        assert value.shape == ref.shape
        assert spectral_norm((value - ref).reshape(-1, model.dim)) \
            <= 1e-13 * spectral_norm(ref.reshape(-1, model.dim))
    # a solution argument reads its own eigensystem, to the same bits
    assert np.array_equal(self_energy_of_operator(c, sol), got[0])


def test_fallback_equals_resolvent_sums(monkeypatch, resolvent_calls, poly4_model):
    # with no eigenbasis accepted, every sum is the resolvent-stack sum, bit for bit
    c = build_contour(poly4_model, Semicircle(), [1])
    sol, sol_m = solve_fixed_point(c), solve_fixed_point(mirrored(c))
    zs = sample_points(sol, 12, seed=73)
    monkeypatch.setattr(transfer, "_EIGVEC_COND_MAX", 0.0)
    del resolvent_calls[:]
    got = evaluations(sol, sol_m, zs)
    assert len(resolvent_calls) == 4   # F, both overlap sides, factorize
    for value, ref in zip(got, references(sol, sol_m, zs)):
        assert np.array_equal(value, ref)
    # stacked rows with their own coupling data take the same path
    ys = np.stack([sol.effective, sol_m.effective])
    values = np.stack([c.quad_values, 2.0 * c.quad_values])
    assert np.array_equal(self_energy_of_operator(c, ys, values),
                          ref_self_energy(c, ys, values))


@pytest.mark.parametrize("cond_max", [transfer._EIGVEC_COND_MAX, 0.0])
def test_stack_with_contour_data_equals_rows_alone(monkeypatch, resolvent_calls, poly4_model,
                                                   cond_max):
    # a stacked argument with the contour's own coupling data: each row is its
    # evaluation alone, on the eigenbasis path and on the fallback alike
    c = build_contour(poly4_model, Semicircle(), [1])
    sol, sol_m = solve_fixed_point(c), solve_fixed_point(mirrored(c))
    ys = np.stack([sol.effective, sol_m.effective, poly4_model.a1])
    monkeypatch.setattr(transfer, "_EIGVEC_COND_MAX", cond_max)
    del resolvent_calls[:]
    got = self_energy_of_operator(c, ys)
    assert len(resolvent_calls) == (1 if cond_max == 0.0 else 0)
    assert got.shape == ys.shape
    for row, y in zip(got, ys):
        assert np.array_equal(row, self_energy_of_operator(c, y))


def test_defective_argument_takes_fallback(resolvent_calls, defective4):
    # a Jordan block leaves no usable eigenbasis, cond(V) ~ 3e8
    model, contour, h, x_exact, j = defective4
    sol = solve_fixed_point(contour, tol=1e-11)
    sol_m = solve_fixed_point(mirrored(contour), tol=1e-11)
    zs = sample_points(sol, 6, seed=79)
    del resolvent_calls[:]
    got = evaluations(sol, sol_m, zs)
    assert len(resolvent_calls) == 4
    for value, ref in zip(got, references(sol, sol_m, zs)):
        assert np.array_equal(value, ref)
    assert np.array_equal(self_energy_of_operator(contour, sol), got[0])


def test_fallback_names_singular_point(monkeypatch, friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    monkeypatch.setattr(transfer, "_EIGVEC_COND_MAX", 0.0)
    with pytest.raises(ResolventSingularityError) as err:
        self_energy_of_operator(c, np.array([[c.nodes[3]]]))
    assert err.value.mu == c.nodes[3]


def test_non_finite_argument_takes_fallback(resolvent_calls, friedrichs_std):
    # the eigensolver refuses a non-finite argument; the resolvent sum
    # carries it through, as it did before the eigenvector form
    c = build_contour(friedrichs_std, Semicircle(), [1])
    for y in (np.array([[np.nan]]), np.array([[np.inf]])):
        assert np.array_equal(self_energy_of_operator(c, y), ref_self_energy(c, y),
                              equal_nan=True)
    assert len(resolvent_calls) == 2


@pytest.mark.parametrize("fault", [0.0, 1e-7])
def test_adjoint_equation_is_the_left_resolvent_sum(poly4_model, fault):
    # the adjoint equation on contour l at the adjoint of the mirror solution,
    # summed with the resolvent left of the coupling data, read through the
    # mirror solution's eigensystem; a fault on the mirror solution shows
    c = build_contour(poly4_model, Semicircle(), [1])
    sol, sol_m = solve_fixed_point(c), solve_fixed_point(mirrored(c))
    rng = np.random.default_rng(83)
    e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = sol_m.correction + fault * e / spectral_norm(e)
    faulty = replace(sol_m, correction=x, effective=poly4_model.a1 + x)
    x_adj = x.conj().T
    ref = spectral_norm(x_adj - ref_adjoint(c, poly4_model.a1 + x_adj))
    got = adjoint_equation_residual(sol, faulty)
    assert abs(got - ref) <= 1e-3 * ref
    assert got <= 1e-10 if fault == 0.0 else got >= 0.5 * fault
