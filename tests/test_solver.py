"""Fixed-point solver: convergence, certificates, mirror relations."""

import math

import numpy as np
import pytest

from resonances import (
    CouplingFunction,
    Flat,
    InadmissibleCertificateError,
    Interval,
    NonconvergenceError,
    PairingError,
    Rectangle,
    ResolventSingularityError,
    Semicircle,
    SpectralModel,
    adjoint_equation_residual,
    build_contour,
    contour_independence,
    eigen_decompose,
    fixed_point_residual,
    friedrichs_model,
    mirrored,
    overlap_operator,
    params_from_model,
    resonance_root,
    self_energy_many,
    self_energy_of_operator,
    solvability_certificate,
    solve_fixed_point,
    spectral_norm,
    transfer_many,
    variation,
    verify_projection_equations,
)


def test_zero_coupling_one_iteration(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    sol = solve_fixed_point(c)
    assert sol.iterations == 1
    assert spectral_norm(sol.correction) <= 1e-14
    assert sol.a_posteriori_bound == 0.0
    assert np.array_equal(sol.effective, zero_model.a1)


def test_friedrichs_solution_matches_oracle(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    sol = solve_fixed_point(c)
    # the effective value annihilates the continued transfer function
    z = complex(sol.effective[0, 0])
    assert abs(transfer_many(c, [z])[0, 0, 0]) <= 1e-8
    root = resonance_root(params_from_model(friedrichs_std, 1))
    assert abs(z - root.z) <= 1e-8
    assert spectral_norm(sol.correction) <= 0.25 + sol.a_posteriori_bound


def test_effective_is_internal_plus_correction(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    sol = solve_fixed_point(c)
    assert np.array_equal(sol.effective, poly4_model.a1 + sol.correction)


def test_contraction_ratio_and_residual(poly4_model, n3_bound_model):
    for model in (poly4_model, n3_bound_model):
        c = build_contour(model, Semicircle(), [1])
        cert = solvability_certificate(c)
        sol = solve_fixed_point(c)
        q = cert.contraction_factor()
        floor = 100.0 * np.finfo(float).eps * (spectral_norm(model.a1) + 1.0)
        for prev, cur in zip(sol.step_norms[:-1], sol.step_norms[1:]):
            if prev > floor and cur > floor:
                assert cur <= q * prev * (1.0 + 1e-6)
        assert fixed_point_residual(sol) <= 2.0 * 1e-10
        assert spectral_norm(sol.correction) <= cert.r_min + sol.a_posteriori_bound


def test_solution_norm_within_certified_ball(m2_model):
    c = build_contour(m2_model, Semicircle(radius=0.4), [1, -1])
    sol = solve_fixed_point(c)
    assert spectral_norm(sol.correction) <= sol.certificate.r_min + sol.a_posteriori_bound


def test_mirror_spectrum_conjugate(poly4_model, m2_model):
    for model, spec, l in ((poly4_model, Semicircle(), [1]),
                           (m2_model, Semicircle(radius=0.4), [1, -1])):
        c = build_contour(model, spec, l)
        sol = solve_fixed_point(c)
        sol_m = solve_fixed_point(mirrored(c))
        e = np.sort_complex(np.linalg.eigvals(sol.effective))
        em = np.sort_complex(np.conj(np.linalg.eigvals(sol_m.effective)))
        assert np.max(np.abs(e - em)) <= 1e-9


def test_adjoint_equation_residual(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    sol = solve_fixed_point(c)
    sol_m = solve_fixed_point(mirrored(c))
    assert adjoint_equation_residual(sol, sol_m) <= 2.0 * 1e-10


def test_mirror_contours_of_two_models_do_not_pair():
    # same internal matrix, interval and curve; only the couplings differ, so
    # the integration data of the two contours are still exact conjugates
    a1 = np.diag([0.45, 0.55]).astype(complex)
    models = [SpectralModel(a1, [Interval(0.0, 1.0, 0.6)], (),
                            CouplingFunction.polynomial([g * np.eye(2)]))
              for g in (0.01, 0.02)]
    c = build_contour(models[0], Semicircle(), [1])
    cm = build_contour(models[1], Semicircle(), [-1])
    sol, sol_m = solve_fixed_point(c), solve_fixed_point(cm)
    with pytest.raises(PairingError):
        overlap_operator(sol, sol_m)
    with pytest.raises(PairingError):
        adjoint_equation_residual(sol, sol_m)
    assert adjoint_equation_residual(sol, solve_fixed_point(mirrored(c))) <= 1e-9


def test_inadmissible_refusal():
    model = friedrichs_model(1.0, beta_sq=1.0 / (2.0 * math.pi))
    c = build_contour(model, Semicircle(), [1])
    with pytest.raises(InadmissibleCertificateError) as err:
        solve_fixed_point(c)
    assert err.value.certificate.admissible is False
    assert err.value.certificate.v0 > err.value.certificate.d0 ** 2 / 4.0


def test_nonconvergence_reports_history(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    with pytest.raises(NonconvergenceError) as err:
        solve_fixed_point(c, tol=1e-10, max_iter=2)
    assert len(err.value.history) == 2


def test_contraction_violation_guard(friedrichs_std, monkeypatch):
    # white-box: plant a fake certificate with an impossibly small factor
    import resonances.solver
    from resonances import ContractionViolationError
    from resonances.contour import SolvabilityCertificate

    c = build_contour(friedrichs_std, Semicircle(), [1])
    fake = SolvabilityCertificate(1.0, 1e-8, 1.0, True,
                                  1e-8, 1.0 - 1e-4)
    monkeypatch.setattr(resonances.contour, "_certificate", lambda d0, v0: fake)
    with pytest.raises(ContractionViolationError):
        solve_fixed_point(c)


def test_operator_self_energy_eigenvector_property(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    rng = np.random.default_rng(19)
    y = poly4_model.a1 + 0.05 * (rng.standard_normal((4, 4))
                                 + 1j * rng.standard_normal((4, 4)))
    vals, vecs = np.linalg.eig(y)
    out = self_energy_of_operator(c, y)
    # norm estimate: the variation times the largest resolvent norm
    inv = np.linalg.inv(y[None, :, :] - c.quad_points[:, None, None] * np.eye(4))
    bound = variation(c) * float(np.max(np.linalg.norm(inv, 2, axis=(1, 2))))
    assert spectral_norm(out) <= bound * (1.0 + 1e-9) + 1e-300
    se = self_energy_many(c, vals)
    for k in range(4):
        u = vecs[:, k]
        lhs = out @ u
        rhs = se[k] @ u
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_operator_self_energy_diagonal_columns(friedrichs_std, n3_bound_model):
    a1 = np.diag(np.linalg.eigvalsh(n3_bound_model.a1)).astype(complex)
    diag_model = SpectralModel(a1, n3_bound_model.intervals, (),
                               n3_bound_model.coupling)
    c = build_contour(diag_model, Semicircle(), [1])
    out = self_energy_of_operator(c, a1)
    se = self_energy_many(c, np.diag(a1))
    for k in range(3):
        col = se[k] @ np.eye(3)[:, k]
        assert np.linalg.norm(out[:, k] - col) <= 1e-12


def test_operator_self_energy_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    out = self_energy_of_operator(c, zero_model.a1)
    assert spectral_norm(out) == 0.0


def test_resolvent_singularity_error(friedrichs_std):
    # the error names the singular point: a quadrature node, a discrete point
    c = build_contour(friedrichs_std, Semicircle(), [1])
    disc = SpectralModel(np.diag([0.5, 2.0]), [Interval(0.0, 1.0, 0.6)],
                         [(3.0, np.diag([0.01, 0.02]))],
                         CouplingFunction.constant_vector([0.05, 0.1]))
    cases = ((c, np.array([[c.nodes[3]]]), c.nodes[3]),
             (build_contour(disc, Semicircle(), [1]), np.diag([0.4 + 0.1j, 3.0]), 3.0))
    for contour, y, mu in cases:
        with pytest.raises(ResolventSingularityError) as err:
            self_energy_of_operator(contour, y)
        assert err.value.mu == mu


def test_operator_self_energy_stacked_rows(poly4_model):
    # each row of a stack is its own coupling data and argument; a row equals
    # the same evaluation alone, bit for bit, and a stack may hold no row
    c = build_contour(poly4_model, Semicircle(), [1])
    rng = np.random.default_rng(23)
    ys = poly4_model.a1 + 0.05 * (rng.standard_normal((3, 4, 4))
                                  + 1j * rng.standard_normal((3, 4, 4)))
    values = np.stack([c.quad_values, 2.0 * c.quad_values, 0.0 * c.quad_values])
    out = self_energy_of_operator(c, ys, values)
    assert out.shape == (3, 4, 4)
    assert np.array_equal(out[0], self_energy_of_operator(c, ys[0]))
    assert np.array_equal(out[1], self_energy_of_operator(c, ys[1], values[1]))
    assert not out[2].any()
    assert self_energy_of_operator(c, ys[:0], values[:0]).shape == (0, 4, 4)
    ys[1] = c.quad_points[5] * np.eye(4)
    with pytest.raises(ResolventSingularityError) as err:
        self_energy_of_operator(c, ys, values)
    assert err.value.mu == c.quad_points[5]


def test_contour_rejects_other_coupling(poly4_model):
    # a second contour built for another model is refused, even when that
    # model holds equal data on the same curve
    c = build_contour(poly4_model, Semicircle(), [1])
    other = SpectralModel(poly4_model.a1, poly4_model.intervals, (),
                          CouplingFunction.polynomial(poly4_model.coupling.coeffs))
    c_other = build_contour(other, Semicircle(), [1])
    sol = solve_fixed_point(c)
    with pytest.raises(PairingError):
        contour_independence(sol, c_other)
    with pytest.raises(PairingError):
        verify_projection_equations(c_other, sol, eigen_decompose(sol.effective))
    with pytest.raises(PairingError):
        solvability_certificate(other, c)


def test_contour_independence_admissible_shapes():
    model = friedrichs_model(1.0, beta_sq=0.02)
    c1 = build_contour(model, Semicircle(), [1])
    sol = solve_fixed_point(c1)
    c2 = build_contour(model, Semicircle(radius=0.6), [1])
    assert solvability_certificate(c2).admissible
    assert contour_independence(sol, c2) <= 1e-8


def test_contour_independence_rectangle(n3_bound_model):
    c1 = build_contour(n3_bound_model, Semicircle(), [1])
    sol = solve_fixed_point(c1)
    c2 = build_contour(n3_bound_model, Rectangle(depth=0.5), [1])
    assert solvability_certificate(c2).admissible
    assert contour_independence(sol, c2) <= 1e-8


def test_contour_independence_zero_coupling(zero_model):
    c1 = build_contour(zero_model, Semicircle(), [1])
    sol = solve_fixed_point(c1)
    c2 = build_contour(zero_model, Rectangle(depth=0.5), [1])
    assert contour_independence(sol, c2) == 0.0


def test_contour_independence_separated_only(friedrichs_std):
    # detour contour: inadmissible but separated beyond the solution radius
    c1 = build_contour(friedrichs_std, Semicircle(), [1])
    sol = solve_fixed_point(c1)
    c2 = build_contour(friedrichs_std, Semicircle(radius=0.6), [1])
    cert2 = solvability_certificate(c2)
    assert not cert2.admissible
    assert cert2.d0 > sol.certificate.r_min + sol.a_posteriori_bound
    assert contour_independence(sol, c2) <= 1e-8


def test_contour_independence_separated_only_evaluates_once(friedrichs_std, monkeypatch):
    # an inadmissible second contour is not iterated on: one evaluation of
    # its F at the solution, and no uncertified solve
    import resonances.solver

    c1 = build_contour(friedrichs_std, Semicircle(), [1])
    sol = solve_fixed_point(c1)
    c2 = build_contour(friedrichs_std, Semicircle(radius=0.6), [1])
    evaluate, iterate = resonances.solver.self_energy_of_operator, resonances.solver._iterate
    evaluated, iterated = [], []
    monkeypatch.setattr(resonances.solver, "self_energy_of_operator",
                        lambda *args: evaluated.append(args[0]) or evaluate(*args))
    monkeypatch.setattr(resonances.solver, "_iterate",
                        lambda *args: iterated.append(args[0]) or iterate(*args))
    distance = contour_independence(sol, c2)
    assert evaluated == [c2]
    assert iterated == []
    assert distance == spectral_norm(sol.correction - evaluate(c2, sol))


def test_contour_independence_pairing_error(friedrichs_std):
    c1 = build_contour(friedrichs_std, Semicircle(), [1])
    sol = solve_fixed_point(c1)
    c2 = build_contour(friedrichs_std, Flat(), [-1])
    with pytest.raises(PairingError):
        contour_independence(sol, c2)
