"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its pinned tolerance.
"""

import json
import math
import time

import numpy as np

import resonances as rs
from resonances.cli import main as cli_main
from conftest import BETA_SQ_STD


def report(num, name, ok):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def solve_pair(model, spec, l, tol=1e-10):
    c = rs.build_contour(model, spec, l)
    sol = rs.solve_fixed_point(c, tol)
    sol_m = rs.solve_fixed_point(rs.mirrored(c), tol)
    return c, sol, sol_m


def test_criterion_1_certificate_reproduction():
    t0 = time.perf_counter()
    model = rs.friedrichs_model(1.0, beta_sq=BETA_SQ_STD)
    c = rs.build_contour(model, rs.Semicircle(), [1])
    cert = rs.solvability_certificate(c)
    ok = (cert.d0 == 1.0
          and abs(cert.v0 - 3.0 / 16.0) <= 1e-10
          and abs(cert.r_min - 0.25) <= 1e-10
          and abs(cert.r_max - (1.0 - math.sqrt(3.0) / 4.0)) <= 1e-10)

    def admissible(beta_sq):
        m = rs.friedrichs_model(1.0, beta_sq=beta_sq)
        cc = rs.build_contour(m, rs.Semicircle(), [1])
        return rs.solvability_certificate(cc).admissible

    lo, hi = 0.9 / (4.0 * math.pi), 1.1 / (4.0 * math.pi)
    assert admissible(lo) and not admissible(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    ok = ok and abs(flip - 1.0 / (4.0 * math.pi)) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, "certificate reproduction", ok)


def test_criterion_2_oracle_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(10):
        r = 0.4 + 2.0 * rng.random()
        beta_sq = (0.1 + 0.8 * rng.random()) * r / (4.0 * math.pi)
        model = rs.friedrichs_model(r, beta_sq=beta_sq)
        c = rs.build_contour(model, rs.Semicircle(), [1])
        sol = rs.solve_fixed_point(c, tol=1e-12)
        params = rs.params_from_model(model, 1)
        root = rs.resonance_root(params)
        ok = ok and abs(complex(sol.effective[0, 0]) - root.z) <= 1e-8
        sol_m = rs.solve_fixed_point(rs.mirrored(c), tol=1e-12)
        root_m = rs.resonance_root(params.with_sheet(-1))
        ok = ok and abs(complex(sol_m.effective[0, 0]) - root_m.z) <= 1e-8
        ok = ok and abs(root_m.z - np.conj(root.z)) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(2, "oracle cross-validation", ok)


def test_criterion_3_factorization(poly4_model):
    rng = np.random.default_rng(103)
    ok = True
    models = [rs.friedrichs_model(1.0, beta_sq=BETA_SQ_STD), poly4_model]
    for model in models:
        c = rs.build_contour(model, rs.Semicircle(), [1])
        cert = rs.solvability_certificate(c)
        sol = rs.solve_fixed_point(c)
        bound = rs.left_factor_inverse_bound(cert)
        eigs = model.a1_eigenvalues()
        count = 0
        while count < 100:
            lam = complex(eigs[rng.integers(0, len(eigs))])
            z = lam + (cert.d0 / 2.0) * rng.random() * np.exp(
                2j * math.pi * rng.random())
            if c.distance(z) < 1e-3:
                continue
            f = rs.factorize(sol, z)
            ok = ok and f.residual <= 1e-8
            ok = ok and rs.spectral_norm(np.linalg.inv(f.left_factor)) <= bound * 1.1
            count += 1
    report(3, "factorization", ok)


def test_criterion_4_contour_identities(poly4_model):
    t0 = time.perf_counter()
    ok = True
    for model in (rs.friedrichs_model(1.0, beta_sq=BETA_SQ_STD), poly4_model):
        c, sol, sol_m = solve_pair(model, rs.Semicircle(), [1])
        om = rs.overlap_operator(sol, sol_m)
        metric_inv = np.linalg.inv(om.metric())
        gamma = rs.enclosure_circles(sol)
        m0 = rs.contour_moment(sol, sol_m, gamma, 0)
        ok = ok and rs.spectral_norm(m0.matrix - metric_inv) <= 1e-6
        m1 = rs.contour_moment(sol, sol_m, gamma, 1)
        ok = ok and rs.spectral_norm(
            m1.matrix - metric_inv @ sol_m.effective.conj().T) <= 1e-6
        ok = ok and rs.spectral_norm(
            m1.matrix - sol.effective @ metric_inv) <= 1e-6
        # order-doubled trapezoid self-convergence: two or more digits
        for m in (m0, m1):
            ok = ok and m.delta <= 1e-2 * max(rs.spectral_norm(m.matrix), 1.0)
        dec = rs.eigen_decompose(sol.effective)
        dec_m = rs.eigen_decompose(sol_m.effective)
        for lam in dec.eigenvalues:
            res = rs.residue_at(sol, sol_m, dec, dec_m, lam)
            ok = ok and res.residual_vs_adjoint_projection <= 1e-6
            ok = ok and res.residual_vs_projection <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(4, "contour identities", ok)


def test_criterion_5_symmetry_suite(m2_model, n3_bound_model):
    ok = True
    # mirror spectra are conjugate
    for model, spec, l in ((m2_model, rs.Semicircle(radius=0.4), [1, -1]),
                           (n3_bound_model, rs.Semicircle(), [1])):
        c, sol, sol_m = solve_pair(model, spec, l)
        e = np.sort_complex(np.linalg.eigvals(sol.effective))
        em = np.sort_complex(np.conj(np.linalg.eigvals(sol_m.effective)))
        ok = ok and float(np.max(np.abs(e - em))) <= 1e-9
    # real isolated eigenvalue identical across every multi-index
    reals = []
    for l in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        c = rs.build_contour(m2_model, rs.Semicircle(radius=0.4), list(l))
        sol = rs.solve_fixed_point(c)
        sel = [e for e in np.linalg.eigvals(sol.effective)
               if abs(e.imag) <= 1e-9 and e.real > 3.5]
        ok = ok and len(sel) == 1
        reals.append(sel[0])
    ok = ok and (max(r.real for r in reals) - min(r.real for r in reals)) <= 1e-9
    # contour independence across two admissible shapes
    c1 = rs.build_contour(n3_bound_model, rs.Semicircle(), [1])
    sol1 = rs.solve_fixed_point(c1)
    c2 = rs.build_contour(n3_bound_model, rs.Rectangle(depth=0.5), [1])
    ok = ok and rs.solvability_certificate(c2).admissible
    ok = ok and rs.contour_independence(sol1, c2) <= 1e-8
    report(5, "symmetry and invariance", ok)


def test_criterion_6_zero_coupling_suite(zero_model):
    ok = True
    c, sol, sol_m = solve_pair(zero_model, rs.Semicircle(), [1])
    ok = ok and rs.spectral_norm(sol.correction) <= 1e-14
    z = 0.4 - 0.7j
    m = rs.transfer_many(c, [z])[0]
    ok = ok and rs.spectral_norm(m - (zero_model.a1 - z * np.eye(2))) == 0.0
    f = rs.factorize(sol, 0.55 + 0.2j)
    ok = ok and f.residual <= 1e-14
    om = rs.overlap_operator(sol, sol_m)
    ok = ok and rs.spectral_norm(om.matrix) == 0.0
    dec = rs.eigen_decompose(sol.effective)
    rep = rs.verify_projection_equations(c, sol, dec)
    ok = ok and rep.max_residual <= 1e-12
    g = rs.riesz_gram(sol, sol_m, dec, rs.eigen_decompose(sol_m.effective),
                      real_eigs=[0.3, 0.7])
    ok = ok and g.gram_defect <= 1e-12 and g.real_block_defect <= 1e-12
    report(6, "zero-coupling suite", ok)


def test_criterion_7_contraction_property(poly4_model, m2_model, n3_bound_model):
    ok = True
    solve_tol = 1e-10
    cases = [
        (rs.friedrichs_model(1.0, beta_sq=BETA_SQ_STD), rs.Semicircle(), [1]),
        (poly4_model, rs.Semicircle(), [1]),
        (m2_model, rs.Semicircle(radius=0.4), [1, -1]),
        (n3_bound_model, rs.Rectangle(depth=0.5), [1]),
    ]
    for model, spec, l in cases:
        c = rs.build_contour(model, spec, l)
        cert = rs.solvability_certificate(c)
        sol = rs.solve_fixed_point(c, solve_tol)
        q = cert.contraction_factor()
        floor = 100.0 * np.finfo(float).eps * (rs.spectral_norm(model.a1) + 1.0)
        for prev, cur in zip(sol.step_norms[:-1], sol.step_norms[1:]):
            if prev > floor and cur > floor:
                ok = ok and cur <= q * prev * (1.0 + 1e-6)
        ok = ok and rs.fixed_point_residual(sol) <= 2.0 * solve_tol
    report(7, "contraction property", ok)


def test_criterion_8_riesz_gram_and_defective(n3_bound_model, defective4):
    ok = True
    c, sol, sol_m = solve_pair(n3_bound_model, rs.Semicircle(), [1])
    dec = rs.eigen_decompose(sol.effective)
    real = [ev.real for ev in dec.eigenvalues if abs(ev.imag) <= 1e-9]
    g = rs.riesz_gram(sol, sol_m, dec, rs.eigen_decompose(sol_m.effective),
                      real_eigs=real)
    ok = ok and g.gram.shape == (3, 3)
    ok = ok and g.gram_defect <= 1e-6 and g.real_block_defect <= 1e-6

    model, contour, h, x_exact, j = defective4
    sol_d = rs.refine_fixed_point(contour, x_exact, tol=1e-11)
    dec_d = rs.eigen_decompose(sol_d.effective, cluster_tol=1e-4)
    ok = ok and sorted(zip(dec_d.algebraic, dec_d.geometric, dec_d.pole_orders)) == [
        (1, 1, 1), (1, 1, 1), (2, 1, 2)]
    rep = rs.verify_projection_equations(contour, sol_d, dec_d)
    ok = ok and rep.max_residual <= 1e-6
    for row in rep.rows:
        ok = ok and row.projection_residual <= 1e-6
        ok = ok and all(v <= 1e-6 for v in row.nilpotent_residuals)
    report(8, "riesz gram and defective structure", ok)


def test_criterion_9_asymptotics_trend():
    lam, a = 1.0, 2.0
    devs = []
    for denom in (6.0, 8.0, 10.0, 12.0):
        params = rs.FriedrichsParams(a, lam, math.sqrt(lam / denom))
        bs = rs.bound_states(params)
        devs.append(abs(bs.z0 / bs.z0_asymptote(params) - 1.0))
    ok = all(b < a_ for a_, b in zip(devs[:-1], devs[1:])) and devs[-1] < 0.5
    report(9, "asymptotics trend", ok)


def test_criterion_10_negative_control(tmp_path):
    model = rs.friedrichs_model(1.0, beta_sq=BETA_SQ_STD)
    model_path = tmp_path / "model.json"
    model_path.write_text(rs.model_dumps(model))
    cfg = {
        "command": "verify",
        "model_path": str(model_path),
        "contour": {"shape": "semicircle", "l": [1], "panels": 1, "points": 4},
    }
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    code = cli_main(["verify", "--config", str(cfg_path),
                     "--out", str(out), "--quiet"])
    art = json.loads(out.read_text())
    contour_rows = {"resolvent-moment-0", "resolvent-moment-1",
                    "residue-projection-product"}
    failed = {r["name"] for r in art["identities"] if not r["pass"]}
    ok = code == 1 and bool(failed & contour_rows)
    report(10, "negative control", ok)
