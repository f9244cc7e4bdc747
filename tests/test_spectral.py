"""Spectral structure: decompositions, factorization, moments, Gram."""

import math
import re

import numpy as np
import pytest

from resonances import (
    Circle,
    ClusteringError,
    GeometryError,
    InconsistencyError,
    Interval,
    PairingError,
    Semicircle,
    SpectralModel,
    build_contour,
    contour_moment,
    double_order,
    eigen_decompose,
    enclosure_circles,
    factorize,
    friedrichs_model,
    left_factor_inverse_bound,
    mirrored,
    overlap_operator,
    residue_at,
    riesz_gram,
    solvability_certificate,
    solve_fixed_point,
    spectral_norm,
    transfer_many,
    transfer_residue,
    verify_projection_equations,
)


def solve_pair(model, spec, l):
    c = build_contour(model, spec, l)
    sol = solve_fixed_point(c)
    sol_m = solve_fixed_point(mirrored(c))
    return c, sol, sol_m


def decompose_pair(sol, sol_m):
    return eigen_decompose(sol.effective), eigen_decompose(sol_m.effective)


# ---------------------------------------------------------------------------
# eigen_decompose
# ---------------------------------------------------------------------------

def test_decompose_diagonal():
    h = np.diag([1.0, 2.0, 3.5]).astype(complex)
    dec = eigen_decompose(h)
    assert dec.count == 3
    for i, lam in enumerate(dec.eigenvalues):
        e = np.zeros((3, 1)); e[[1.0, 2.0, 3.5].index(lam.real)] = 1.0
        assert spectral_norm(dec.projections[i] - e @ e.T) <= 1e-11
        assert spectral_norm(dec.nilpotents[i]) <= 1e-11
        assert dec.pole_orders[i] == 1
        assert dec.algebraic[i] == dec.geometric[i] == 1
    assert dec.projector_sum_defect <= 1e-11


def test_decompose_jordan_block():
    lam = 0.7 + 0.2j
    h = np.array([[lam, 1.0], [0.0, lam]])
    dec = eigen_decompose(h, cluster_tol=1e-6)
    assert dec.count == 1
    assert dec.algebraic == (2,)
    assert dec.geometric == (1,)
    assert dec.pole_orders == (2,)
    assert spectral_norm(dec.projections[0] - np.eye(2)) <= 1e-9
    assert spectral_norm(dec.nilpotents[0] - np.array([[0, 1], [0, 0]])) <= 1e-9


def test_decompose_similarity_six():
    # 6x6 with blocks: J3(1), J2(2+1j), 1x1 at 4
    j = np.zeros((6, 6), dtype=complex)
    j[0, 0] = j[1, 1] = j[2, 2] = 1.0
    j[0, 1] = j[1, 2] = 1.0
    j[3, 3] = j[4, 4] = 2.0 + 1.0j
    j[3, 4] = 1.0
    j[5, 5] = 4.0
    rng = np.random.default_rng(23)
    s = np.eye(6) + 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    h = s @ j @ np.linalg.inv(s)
    dec = eigen_decompose(h, cluster_tol=1e-4)
    assert dec.count == 3
    by_eig = {round(ev.real, 2): i for i, ev in enumerate(dec.eigenvalues)}
    i1, i2, i4 = by_eig[1.0], by_eig[2.0], by_eig[4.0]
    assert dec.algebraic[i1] == 3 and dec.geometric[i1] == 1 and dec.pole_orders[i1] == 3
    assert dec.algebraic[i2] == 2 and dec.geometric[i2] == 1 and dec.pole_orders[i2] == 2
    assert dec.algebraic[i4] == 1 and dec.pole_orders[i4] == 1
    assert dec.projector_sum_defect <= 1e-9
    # cluster_tol=1e-4 gives find a lookup tolerance of 1e-3
    assert dec.find(dec.eigenvalues[i4] + 5e-4) == i4
    with pytest.raises(InconsistencyError):
        dec.find(dec.eigenvalues[i4] + 2e-3)
    # projection algebra
    for a in range(3):
        for b in range(3):
            prod = dec.projections[a] @ dec.projections[b]
            ref = dec.projections[a] if a == b else np.zeros((6, 6))
            assert spectral_norm(prod - ref) <= 1e-8


def test_decompose_real_isolated_semisimple(n3_bound_model):
    c = build_contour(n3_bound_model, Semicircle(), [1])
    sol = solve_fixed_point(c)
    dec = eigen_decompose(sol.effective)
    real = [i for i, ev in enumerate(dec.eigenvalues) if abs(ev.imag) < 1e-9]
    assert len(real) == 1
    i = real[0]
    assert dec.pole_orders[i] == 1
    assert spectral_norm(dec.nilpotents[i]) <= 1e-10


def test_decompose_cluster_separability_error():
    h = np.diag([0.0, 1e-7, 1.0]).astype(complex)
    with pytest.raises(ClusteringError, match="inter-cluster gap"):
        eigen_decompose(h, cluster_tol=5e-8)
    # a chained cluster of spread 4.5 with a foreign eigenvalue 4.1 from its centroid
    h = np.diag(np.append(0.9 * np.arange(11), 4.5 + 4.1j))
    with pytest.raises(ClusteringError, match="spreads over 4.500e"):
        eigen_decompose(h, cluster_tol=1.0)


def _residue_path_decomposition(monkeypatch, h, **kwargs):
    """eigen_decompose with every cluster forced onto the residue path."""
    from resonances import transfer

    with monkeypatch.context() as m:
        m.setattr(transfer, "_EIGVEC_COND_MAX", 0.0)
        return eigen_decompose(h, **kwargs)


def test_eigenvector_path_matches_residue_path(monkeypatch, friedrichs_std, zero_model,
                                                poly4_model, m2_model, n3_bound_model,
                                                embedded_real_model):
    mats = []
    for model in (friedrichs_std, zero_model, poly4_model, n3_bound_model,
                  embedded_real_model):
        mats.append(solve_fixed_point(build_contour(model, Semicircle(), [1])).effective)
    mats.append(solve_fixed_point(
        build_contour(m2_model, Semicircle(radius=0.4), [1, -1])).effective)
    rng = np.random.default_rng(43)
    for n in (2, 5, 8):
        for _ in range(3):
            mats.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    for h in mats:
        dec = eigen_decompose(h)
        ref = _residue_path_decomposition(monkeypatch, h)
        assert dec.paths == ("eigenvector",) * dec.count
        assert ref.paths == ("residue",) * ref.count
        assert dec.algebraic == ref.algebraic and dec.pole_orders == ref.pole_orders
        assert np.allclose(dec.eigenvalues, ref.eigenvalues, rtol=0.0, atol=1e-14)
        for p, q in zip(dec.projections, ref.projections):
            assert spectral_norm(p - q) <= 1e-10
        assert dec.projector_sum_defect <= 1e-12


def test_ill_conditioned_basis_falls_back_to_residue():
    # distinct eigenvalues 1 and 1.001, eigenvectors 2e-5 rad apart: cond(V) ~ 1e5
    b = 50.0
    h = np.array([[1.0, b], [0.0, 1.001]], dtype=complex)
    assert np.linalg.cond(np.linalg.eig(h)[1]) > 1e4
    dec = eigen_decompose(h)
    assert dec.paths == ("residue", "residue")
    coupling = b / (1.0 - 1.001)
    exact = (np.array([[1.0, coupling], [0.0, 0.0]]), np.array([[0.0, -coupling], [0.0, 1.0]]))
    for p, q in zip(dec.projections, exact):
        assert spectral_norm(p - q) <= 1e-9 * abs(coupling)


def test_trapezoid_residue_evaluates_each_point_once():
    from resonances.spectral import _trapezoid_residue
    from resonances.transfer import _resolvents

    h = np.diag([0.0, 1.0]).astype(complex)
    seen = []

    def f_batch(zs):
        seen.append(zs)
        return _resolvents(h, zs)

    p = _trapezoid_residue(f_batch, (Circle(0.0, 0.5),))
    evaluated = np.concatenate(seen)
    assert evaluated.size == 128
    nodes = 0.5 * np.exp(2j * math.pi * np.arange(128) / 128)
    assert np.allclose(np.sort_complex(evaluated), np.sort_complex(nodes), atol=1e-15)
    assert spectral_norm(p - np.diag([1.0, 0.0])) <= 1e-14


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factorize_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    sol = solve_fixed_point(c)
    f = factorize(sol, 0.45 + 0.21j)
    assert spectral_norm(f.left_factor - np.eye(2)) == 0.0
    assert f.residual <= 1e-14


def test_left_factor_bound_of_inadmissible_certificate():
    # the level lies on the flat segment of the contour, so d0 = 0
    model = SpectralModel(np.array([[0.5]]), [Interval(0.0, 2.0, 1.5)])
    cert = solvability_certificate(build_contour(model, Semicircle(center=1.5, radius=0.5), [1]))
    assert cert.d0 == 0.0 and not cert.admissible
    assert left_factor_inverse_bound(cert) == math.inf


def test_factorize_random_points(friedrichs_std, poly4_model):
    rng = np.random.default_rng(31)
    for model in (friedrichs_std, poly4_model):
        c = build_contour(model, Semicircle(), [1])
        cert = solvability_certificate(c)
        sol = solve_fixed_point(c)
        bound = left_factor_inverse_bound(cert)
        eigs = model.a1_eigenvalues()
        zs, single = [], []
        count = 0
        while count < 100:
            lam = complex(eigs[rng.integers(0, len(eigs))])
            z = lam + (cert.d0 / 2.0) * rng.random() * np.exp(2j * math.pi * rng.random())
            if c.distance(z) < 1e-3:
                continue
            f = factorize(sol, z)
            assert f.residual <= 1e-8
            assert spectral_norm(np.linalg.inv(f.left_factor)) <= bound * 1.1
            zs.append(z)
            single.append(f)
            count += 1
        # one call over all points, in a 2-d shape, equals the stacked scalar calls
        grid = factorize(sol, np.reshape(zs, (10, 10)))
        n = model.dim
        assert grid.left_factor.shape == (10, 10, n, n)
        assert grid.residual.shape == (10, 10)
        assert np.array_equal(grid.left_factor.reshape(100, n, n),
                              np.stack([f.left_factor for f in single]))
        # the transfer matrices of a batch agree to rounding, and the defect is
        # a difference of O(1) matrices
        assert np.allclose(grid.residual.reshape(100), [f.residual for f in single],
                           rtol=0.0, atol=1e-14)


def test_factorize_adjoint_identity(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    cm = sol_m.contour
    rng = np.random.default_rng(37)
    eye = np.eye(4)
    for _ in range(20):
        z = complex(rng.uniform(0.5, 3.5), rng.uniform(-1.6, 1.6))
        if min(c.distance(z), cm.distance(z)) < 0.1:
            continue
        w = factorize(sol, z).left_factor
        w_adj = factorize(sol_m, np.conj(z)).left_factor.conj().T
        left = w @ (sol.effective - z * eye)
        right = (sol_m.effective.conj().T - z * eye) @ w_adj
        assert spectral_norm(left - right) <= 1e-9


# ---------------------------------------------------------------------------
# overlap operator
# ---------------------------------------------------------------------------

def test_overlap_zero_coupling(zero_model):
    c, sol, sol_m = solve_pair(zero_model, Semicircle(), [1])
    om = overlap_operator(sol, sol_m)
    assert spectral_norm(om.matrix) == 0.0


def test_overlap_norm_bound(friedrichs_std):
    c, sol, sol_m = solve_pair(friedrichs_std, Semicircle(), [1])
    om = overlap_operator(sol, sol_m)
    cert = sol.certificate
    assert om.norm < cert.v0 / (cert.d0 / 2.0) ** 2 < 1.0
    assert om.norm_bound_check == cert.v0 / (cert.d0 / 2.0) ** 2


def test_overlap_on_a_given_contour(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    om = overlap_operator(sol, sol_m)
    assert np.array_equal(overlap_operator(sol, sol_m, c).matrix, om.matrix)
    fine = overlap_operator(sol, sol_m, double_order(c))
    assert 0.0 < spectral_norm(fine.matrix - om.matrix) <= 1e-10
    assert fine.norm_bound_check == om.norm_bound_check
    other = SpectralModel(poly4_model.a1, poly4_model.intervals, (), poly4_model.coupling)
    for contour in (mirrored(c), build_contour(other, Semicircle(), [1])):
        with pytest.raises(PairingError):
            overlap_operator(sol, sol_m, contour)


def test_overlap_adjoint_mirror(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    om_l = overlap_operator(sol, sol_m)
    om_ml = overlap_operator(sol_m, sol)
    assert spectral_norm(om_l.matrix.conj().T - om_ml.matrix) <= 1e-10


def test_overlap_positive_on_real_eigenvectors(n3_bound_model):
    c, sol, sol_m = solve_pair(n3_bound_model, Semicircle(), [1])
    om = overlap_operator(sol, sol_m)
    dec = eigen_decompose(sol.effective)
    i = [k for k, ev in enumerate(dec.eigenvalues) if abs(ev.imag) < 1e-9][0]
    u, s, _ = np.linalg.svd(dec.projections[i])
    psi = u[:, 0]
    val = np.vdot(psi, om.matrix @ psi)
    assert val.real >= -1e-10
    assert abs(val.imag) <= 1e-10


# ---------------------------------------------------------------------------
# moments and residues
# ---------------------------------------------------------------------------

def test_moments_zero_coupling(zero_model):
    c, sol, sol_m = solve_pair(zero_model, Semicircle(), [1])
    gamma = Circle(0.5 + 0.0j, 0.35)
    m = contour_moment(sol, sol_m, gamma)
    assert spectral_norm(m.m0 - np.eye(2)) <= 1e-12
    assert spectral_norm(m.m1 - zero_model.a1) <= 1e-12


def test_moment_identities(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    om = overlap_operator(sol, sol_m)
    metric_inv = np.linalg.inv(om.metric())
    gamma = enclosure_circles(sol)
    m = contour_moment(sol, sol_m, gamma)
    assert spectral_norm(m.m0 - metric_inv) <= 1e-6
    r_adj = spectral_norm(m.m1 - metric_inv @ sol_m.effective.conj().T)
    r_eff = spectral_norm(m.m1 - sol.effective @ metric_inv)
    assert max(r_adj, r_eff) <= 1e-6


def test_moments_share_one_pass(poly4_model, monkeypatch):
    """Both moments come from one run: every point is evaluated exactly once."""
    from resonances import spectral

    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    gamma = enclosure_circles(sol)
    evaluated = []

    def spy(contour, zs):
        evaluated.extend(np.asarray(zs).tolist())
        return transfer_many(contour, zs)

    monkeypatch.setattr(spectral, "transfer_many", spy)
    m = contour_moment(sol, sol_m, gamma)
    assert len(evaluated) == len(set(evaluated)) == 128 * len(gamma)
    monkeypatch.undo()
    scale = max(spectral_norm(sol.effective), 1.0)
    m0 = spectral._trapezoid_residue(spectral._minv_batch(c, scale), gamma,
                                     atol=1e-13 * (1.0 + scale))
    assert np.array_equal(m.m0, m0)


def test_moment_geometry_errors(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    with pytest.raises(GeometryError):
        # circle crosses the deformation contour
        contour_moment(sol, sol_m, Circle(2.0 + 0.0j, 2.5))
    with pytest.raises(GeometryError):
        # circle too small: excludes eigenvalues
        contour_moment(sol, sol_m, Circle(1.6 + 0.0j, 0.05))


def test_unsettled_trapezoid_rule_raises():
    # the one eigenvalue sits 2e-7 inside a radius-0.2 circle: the circle
    # passes the geometry check, but no level of the rule settles near the pole
    c, sol, sol_m = solve_pair(friedrichs_model(1.0, beta_sq=0.02), Semicircle(), [1])
    lam = sol.eigensystem[0][0]
    with pytest.raises(GeometryError, match="did not settle in 16384 points"):
        contour_moment(sol, sol_m, Circle(lam + 0.2 - 2e-7, 0.2))


def test_residue_relations(friedrichs_std, n3_bound_model):
    for model in (friedrichs_std, n3_bound_model):
        c, sol, sol_m = solve_pair(model, Semicircle(), [1])
        dec, dec_m = decompose_pair(sol, sol_m)
        metric_inv = np.linalg.inv(overlap_operator(sol, sol_m).metric())
        for lam in dec.eigenvalues:
            res = residue_at(sol, dec, dec_m, metric_inv, lam)
            assert res.residual_vs_adjoint_projection <= 1e-6
            assert res.residual_vs_projection <= 1e-6


def test_keldysh_residue_matches_trapezoid(poly4_model):
    from resonances.spectral import _minv_batch, _trapezoid_residue

    c, sol, _ = solve_pair(poly4_model, Semicircle(), [1])
    dec = eigen_decompose(sol.effective)
    scale = max(spectral_norm(sol.effective), 1.0)
    for i, lam in enumerate(dec.eigenvalues):
        # T(lam) is singular: sigma_min / max(sigma_max, scale) vanishes
        s = np.linalg.svd(transfer_many(c, [lam])[0], compute_uv=False)
        assert s[-1] / max(s[0], scale) <= 1e-10
        gap = min(abs(lam - ev) for k, ev in enumerate(dec.eigenvalues) if k != i)
        circle = Circle(lam, 0.5 * min(gap, c.distance(lam) - c.guard))
        ref = _trapezoid_residue(_minv_batch(c, scale), (circle,), atol=1e-13 * (1.0 + scale))
        assert spectral_norm(transfer_residue(sol, dec, lam) - ref) <= 1e-10


def test_multiple_eigenvalue_takes_trapezoid_residue(defective4, monkeypatch):
    from resonances import spectral

    model, contour, h, x_exact, j = defective4
    sol = solve_fixed_point(contour, tol=1e-11)
    dec = eigen_decompose(sol.effective, cluster_tol=1e-4)
    trapezoid, runs = spectral._trapezoid_residue, []

    def spy(*args, **kwargs):
        runs.append(args[1])
        return trapezoid(*args, **kwargs)

    monkeypatch.setattr(spectral, "_trapezoid_residue", spy)
    for i, lam in enumerate(dec.eigenvalues):
        runs.clear()
        transfer_residue(sol, dec, lam)
        if dec.algebraic[i] == 2:
            # the trapezoid rule runs once, on the circle about the cluster
            assert len(runs) == 1 and runs[0][0].center == lam
        else:
            # Keldysh: no trapezoid run, and T(lam) is singular
            assert runs == []
            s = np.linalg.svd(transfer_many(contour, [lam])[0], compute_uv=False)
            assert s[-1] / max(s[0], dec.scale) <= 1e-10


def test_minv_batch_rejects_singular_transfer(zero_model):
    from resonances.spectral import _minv_batch

    # zero coupling: T(z) = A1 - z exactly, singular at the levels 0.3 and 0.7
    c = build_contour(zero_model, Semicircle(), [1])
    f = _minv_batch(c, 1.0)
    zs = np.array([0.45 + 0.1j, 0.5 - 0.2j])
    assert np.array_equal(f(zs), np.linalg.inv(zero_model.a1 - zs[:, None, None] * np.eye(2)))
    for bad in (0.3 + 0.0j, 0.7 + 1e-12j):
        message = re.escape(f"nearly singular on the circle at z={bad:.6g}")
        with pytest.raises(GeometryError, match=message):
            f(np.array([0.45 + 0.1j, bad, 0.5 - 0.2j]))


def test_residue_zero_coupling_gives_internal_projection(zero_model):
    c, sol, sol_m = solve_pair(zero_model, Semicircle(), [1])
    dec = eigen_decompose(sol.effective)
    e = np.zeros((2, 2)); e[0, 0] = 1.0
    assert spectral_norm(transfer_residue(sol, dec, 0.3) - e) <= 1e-10


def test_residue_sum_inverse_is_metric(n3_bound_model):
    c, sol, sol_m = solve_pair(n3_bound_model, Semicircle(), [1])
    dec = eigen_decompose(sol.effective)
    total = sum(transfer_residue(sol, dec, ev) for ev in dec.eigenvalues)
    om = overlap_operator(sol, sol_m)
    assert spectral_norm(np.linalg.inv(total) - om.metric()) <= 1e-6


# ---------------------------------------------------------------------------
# projection equations
# ---------------------------------------------------------------------------

def test_projection_equations_zero_coupling(zero_model):
    c, sol, _ = solve_pair(zero_model, Semicircle(), [1])
    dec = eigen_decompose(sol.effective)
    report = verify_projection_equations(c, sol, dec)
    assert report.max_residual <= 1e-12
    assert report.within_larger_ball


def test_projection_equations_scalar(friedrichs_std):
    c, sol, _ = solve_pair(friedrichs_std, Semicircle(), [1])
    dec = eigen_decompose(sol.effective)
    report = verify_projection_equations(c, sol, dec)
    assert report.rows[0].projection_residual <= 1e-8
    assert report.reconstruction_error <= 1e-9
    assert report.within_larger_ball


def test_projection_equations_refuse_another_sheet(poly4_model):
    c, sol, _ = solve_pair(poly4_model, Semicircle(), [1])
    dec = eigen_decompose(sol)
    assert verify_projection_equations(double_order(c), sol, dec).max_residual <= 1e-8
    other = SpectralModel(poly4_model.a1, poly4_model.intervals, (), poly4_model.coupling)
    for contour in (mirrored(c), build_contour(other, Semicircle(), [1])):
        with pytest.raises(PairingError):
            verify_projection_equations(contour, sol, dec)


def test_projection_equations_defective(defective4):
    model, contour, h, x_exact, j = defective4
    sol = solve_fixed_point(contour, tol=1e-11)
    assert spectral_norm(sol.effective - h) <= 1e-10
    dec = eigen_decompose(sol.effective, cluster_tol=1e-4)
    orders = sorted(zip(dec.algebraic, dec.geometric, dec.pole_orders))
    assert orders == [(1, 1, 1), (1, 1, 1), (2, 1, 2)]
    report = verify_projection_equations(contour, sol, dec)
    assert report.max_residual <= 1e-6
    defective_row = [r for r in report.rows if len(r.nilpotent_residuals) > 0][0]
    assert all(v <= 1e-6 for v in defective_row.nilpotent_residuals)


def test_defective_resolve_recovers_structure(defective4):
    model, contour, h, x_exact, j = defective4
    resolved = solve_fixed_point(contour, tol=1e-12)
    assert spectral_norm(resolved.effective - h) <= 1e-8
    dec = eigen_decompose(resolved.effective, cluster_tol=1e-4)
    assert sorted(zip(dec.algebraic, dec.geometric, dec.pole_orders)) == [
        (1, 1, 1), (1, 1, 1), (2, 1, 2)]
    # the Jordan block makes the eigenvector basis singular: no cluster uses it
    assert dec.paths == ("residue",) * 3


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_gram_zero_coupling(zero_model):
    c, sol, sol_m = solve_pair(zero_model, Semicircle(), [1])
    g = riesz_gram(*decompose_pair(sol, sol_m), overlap_operator(sol, sol_m).metric(),
                   real_eigs=[0.3, 0.7])
    assert g.gram_defect <= 1e-12
    assert g.real_block_defect <= 1e-12
    assert g.real_block.shape == (2, 2)


def test_gram_bound_state_block(n3_bound_model):
    c, sol, sol_m = solve_pair(n3_bound_model, Semicircle(), [1])
    dec, dec_m = decompose_pair(sol, sol_m)
    real = [ev.real for ev in dec.eigenvalues if abs(ev.imag) < 1e-9]
    assert len(real) == 1
    g = riesz_gram(dec, dec_m, overlap_operator(sol, sol_m).metric(), real_eigs=real)
    assert g.real_block.shape == (1, 1)
    assert abs(g.real_block[0, 0] - 1.0) <= 1e-8
    assert g.gram.shape == (3, 3)
    assert g.gram_defect <= 1e-6


def test_gram_semisimple_complex_pair(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    g = riesz_gram(*decompose_pair(sol, sol_m), overlap_operator(sol, sol_m).metric())
    assert g.gram.shape == (4, 4)
    assert g.gram_defect <= 1e-6


def test_gram_missing_real_eig_raises(n3_bound_model):
    c, sol, sol_m = solve_pair(n3_bound_model, Semicircle(), [1])
    with pytest.raises(InconsistencyError):
        riesz_gram(*decompose_pair(sol, sol_m), overlap_operator(sol, sol_m).metric(),
                   real_eigs=[10.0])


# ---------------------------------------------------------------------------
# spectral invariants
# ---------------------------------------------------------------------------

def test_spectrum_in_certified_vicinity(poly4_model, m2_model):
    for model, spec, l in ((poly4_model, Semicircle(), [1]),
                           (m2_model, Semicircle(radius=0.4), [1, -1])):
        c = build_contour(model, spec, l)
        sol = solve_fixed_point(c)
        eigs_a1 = model.a1_eigenvalues()
        for ev in np.linalg.eigvals(sol.effective):
            dist = min(abs(ev - a) for a in eigs_a1)
            assert dist <= sol.certificate.r_min + sol.a_posteriori_bound + 1e-12


def test_complex_spectrum_half_planes(m2_model):
    for l in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        c = build_contour(m2_model, Semicircle(radius=0.4), list(l))
        sol = solve_fixed_point(c)
        for ev in np.linalg.eigvals(sol.effective):
            if abs(ev.imag) <= 1e-9:
                continue
            for k, iv in enumerate(m2_model.intervals):
                if iv.lo < ev.real < iv.hi:
                    assert math.copysign(1, ev.imag) == l[k]


def test_spectra_agree_on_shared_components(m2_model):
    sols = {}
    for l in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        c = build_contour(m2_model, Semicircle(radius=0.4), list(l))
        sols[l] = np.linalg.eigvals(solve_fixed_point(c).effective)

    def eig_in_interval(eigs, k):
        iv = m2_model.intervals[k]
        sel = [e for e in eigs if iv.lo < e.real < iv.hi]
        assert len(sel) == 1
        return sel[0]

    # component 0 shared between (1,1) and (1,-1)
    assert abs(eig_in_interval(sols[(1, 1)], 0)
               - eig_in_interval(sols[(1, -1)], 0)) <= 1e-9
    # component 1 shared between (1,1) and (-1,1)
    assert abs(eig_in_interval(sols[(1, 1)], 1)
               - eig_in_interval(sols[(-1, 1)], 1)) <= 1e-9
    # the real outside eigenvalue is common to all four
    reals = []
    for l, eigs in sols.items():
        sel = [e for e in eigs if abs(e.imag) <= 1e-9 and e.real > 3.5]
        assert len(sel) == 1
        reals.append(sel[0].real)
    assert max(reals) - min(reals) <= 1e-9


def test_adjoint_similarity_via_overlap(poly4_model):
    c, sol, sol_m = solve_pair(poly4_model, Semicircle(), [1])
    om_m = overlap_operator(sol_m, sol)
    metric = om_m.metric()
    lhs = sol.effective.conj().T
    rhs = metric @ sol_m.effective @ np.linalg.inv(metric)
    assert spectral_norm(lhs - rhs) <= 1e-8


def test_transfer_invertible_on_half_separation_curve(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    cert = solvability_certificate(c)
    margin = (cert.d0 / 2.0) * (1.0 - cert.v0 / (cert.d0 ** 2 / 4.0))
    eigs = poly4_model.a1_eigenvalues()
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 50:
        lam = complex(eigs[rng.integers(0, len(eigs))])
        z = lam + (cert.d0 / 2.0) * np.exp(2j * math.pi * rng.random())
        if min(abs(z - e) for e in eigs) < cert.d0 / 2.0 - 1e-12:
            continue
        if c.distance(z) < 1e-6:
            continue
        m = transfer_many(c, [z])[0]
        smin = np.linalg.svd(m, compute_uv=False)[-1]
        assert smin >= margin * 0.999
        checked += 1


def test_embedded_real_eigenvalue_criterion(embedded_real_model):
    model = embedded_real_model
    c = build_contour(model, Semicircle(), [1])
    cert = solvability_certificate(c)
    assert cert.admissible
    sol = solve_fixed_point(c)
    dec = eigen_decompose(sol.effective)
    # the engineered level survives inside the interval, exactly real
    i = dec.find(0.5)
    lam = dec.eigenvalues[i]
    assert abs(lam - 0.5) <= 1e-9
    assert abs(lam.imag) <= 1e-12
    assert dec.pole_orders[i] == 1
    u, s, _ = np.linalg.svd(dec.projections[i])
    psi = u[:, 0]
    k_at = model.coupling(lam.real)
    assert abs(np.vdot(psi, k_at @ psi)) <= 1e-10
    h = 1e-6
    kp = model.coupling(lam.real + h)
    km = model.coupling(lam.real - h)
    deriv = np.vdot(psi, ((kp - km) / (2 * h)) @ psi)
    assert abs(deriv) <= 1e-8


def test_batched_spectra_match_eigen_decompose():
    from resonances.spectral import _spectra

    from conftest import random_unitary

    u = random_unitary(3, 41)
    s = np.eye(3) + 0.3 * u          # non-normal similarity

    def similar(levels, extra=None):
        d = np.diag(np.asarray(levels, dtype=complex))
        if extra is not None:
            d[0, 1] = extra
        return s @ d @ np.linalg.inv(s)

    stack = np.stack([similar([0.2 + 0.1j, 0.5, 0.9]),       # separated: batched path
                      similar([0.5, 0.5 + 1e-9, 0.9]),       # a cluster of two
                      similar([0.5, 0.5, 0.9], extra=1.0)])  # Jordan block: unusable basis
    got = _spectra(stack)
    assert got == [(dec.eigenvalues, dec.scale) for dec in map(eigen_decompose, stack)]
    assert [len(eigs) for eigs, _ in got] == [3, 2, 2]
    # two single eigenvalues closer than four cluster tolerances are refused
    # by both, in a batch as alone
    near = np.diag([0.5, 0.5 + 2e-7, 0.9]).astype(complex)
    with pytest.raises(ClusteringError, match="inter-cluster gap"):
        _spectra(np.stack([stack[0], near]))
    with pytest.raises(ClusteringError, match="inter-cluster gap"):
        eigen_decompose(near)
