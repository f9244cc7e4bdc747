"""Cross-module flows: discrete remainders, unbounded intervals, JSON."""

import json
import math

import numpy as np
import pytest

import resonances as rs
from resonances.cli import main
from resonances.contour import contour_spec_from_json


@pytest.fixture(scope="module")
def discrete_model():
    """Single embedded level plus one discrete external point."""
    coupling = rs.CouplingFunction.constant_vector([0.1])
    return rs.SpectralModel(np.array([[0.5]]), [rs.Interval(0.0, 1.0, 0.6)],
                            [(-2.0, np.array([[0.02]]))], coupling)


def test_discrete_remainder_full_identity_flow(discrete_model):
    model = discrete_model
    assert rs.validate_model(model).empty
    c = rs.build_contour(model, rs.Semicircle(), [1])
    cert = rs.solvability_certificate(c)
    assert abs(cert.v0 - (0.02 + 0.01 * math.pi * 0.5)) <= 1e-12
    assert cert.d0 == 0.5
    assert cert.admissible
    sol = rs.solve_fixed_point(c)
    sol_m = rs.solve_fixed_point(rs.mirrored(c))
    om = rs.overlap_operator(sol, sol_m)
    assert om.norm < om.norm_bound_check
    gamma = rs.enclosure_circles(sol)
    m0 = rs.contour_moment(sol, sol_m, gamma, 0)
    assert rs.spectral_norm(m0.matrix - np.linalg.inv(om.metric())) <= 1e-6
    dec = rs.eigen_decompose(sol.effective)
    res = rs.residue_at(sol, sol_m, dec, rs.eigen_decompose(sol_m.effective),
                        dec.eigenvalues[0])
    assert res.residual_vs_adjoint_projection <= 1e-6
    f = rs.factorize(sol, 0.5 + 0.1j)
    assert f.residual <= 1e-8


def test_discrete_point_inside_gamma_rejected(discrete_model):
    model = discrete_model
    c = rs.build_contour(model, rs.Semicircle(), [1])
    sol = rs.solve_fixed_point(c)
    sol_m = rs.solve_fixed_point(rs.mirrored(c))
    with pytest.raises(rs.GeometryError):
        rs.contour_moment(sol, sol_m, rs.Circle(-1.0 + 0.0j, 1.5), 0)


@pytest.fixture(scope="module")
def unbounded_model():
    coupling = rs.CouplingFunction.rational(
        [np.array([[0.001]])], [1.0, 0.0, 0.0, 0.0, 1.0],
        decay=rs.DecaySpec(4.0, 0.001))
    return rs.SpectralModel(np.array([[3.0]]), [rs.Interval(0.0, math.inf, 0.5)],
                            coupling=coupling)


def test_unbounded_interval_end_to_end(unbounded_model):
    model = unbounded_model
    c = rs.build_contour(model, rs.Rectangle(depth=0.3), [1], quad_tol=1e-8)
    cert = rs.solvability_certificate(c)
    assert cert.admissible
    sol = rs.solve_fixed_point(c)
    lam = complex(sol.effective[0, 0])
    assert lam.imag > 0.0  # resonance in the selected half plane
    assert abs(lam - 3.0) <= cert.r_min + sol.a_posteriori_bound
    sol_m = rs.solve_fixed_point(rs.mirrored(c))
    assert abs(np.conj(complex(sol_m.effective[0, 0])) - lam) <= 1e-9
    # independent contour (deeper rectangle) gives the same correction
    c2 = rs.build_contour(model, rs.Rectangle(depth=0.2), [1], quad_tol=1e-8)
    if rs.solvability_certificate(c2).admissible:
        assert rs.contour_independence(sol, c2) <= 1e-7


def test_contour_spec_from_json(m2_model):
    data = {"shape": "semicircle", "radius": 0.4, "l": [1, -1],
            "panels": 5, "points": 12}
    specs, l, order = contour_spec_from_json(data)
    assert specs == rs.Semicircle(radius=0.4)
    assert (l, order) == ([1, -1], (5, 12))
    c = rs.build_contour(m2_model, specs, l, order)
    assert (c.panels, c.points) == (5, 12)
    # per-interval override list
    mixed = {"pieces": [{"shape": "semicircle", "radius": 0.3},
                        {"shape": "rectangle", "depth": 0.25}],
             "l": [1, 1], "panels": 4, "points": 8}
    specs3, l3, order3 = contour_spec_from_json(mixed)
    c3 = rs.build_contour(m2_model, specs3, l3, order3)
    assert c3.pieces[0].spec == rs.Semicircle(radius=0.3)
    assert c3.pieces[1].spec == rs.Rectangle(depth=0.25)


def test_cli_nonconvergence_exit_3(tmp_path, monkeypatch, capsys):
    model = rs.friedrichs_model(1.0, beta_sq=3.0 / (16.0 * math.pi))
    model_path = tmp_path / "model.json"
    model_path.write_text(rs.model_dumps(model))
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.json"

    def run(command, max_iter):
        out.unlink(missing_ok=True)
        cfg.write_text(json.dumps({
            "command": command,
            "model_path": str(model_path),
            "contour": {"shape": "semicircle", "l": [1], "panels": 6, "points": 16},
            "max_iter": max_iter,
        }))
        return main([command, "--config", str(cfg), "--out", str(out), "--quiet"])

    for command, max_iter in (("solve", 1), ("solve", 3), ("verify", 1), ("oracle", 1)):
        assert run(command, max_iter) == 3
        art = json.loads(out.read_text())
        assert list(art) == ["status", "certificate", "step_norms"]
        assert art["status"] == "nonconvergence"
        assert len(art["step_norms"]) == max_iter
        assert art["certificate"]["admissible"] is True
        assert art["certificate"]["d0"] == 1.0

    # a closed-form root finder that fails carries no certificate: exit 3,
    # reported on stderr only
    def no_root(params):
        raise rs.NonconvergenceError("Newton derivative vanished", [1.0])

    monkeypatch.setattr(rs.friedrichs, "resonance_root", no_root)
    capsys.readouterr()
    assert run("oracle", 200) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "error: Newton derivative vanished\n"


def test_closed_form_vanishes_with_coupling():
    p = rs.FriedrichsParams(2.0, 1.0, 1e-9, 0)
    assert abs(rs.self_energy_closed(p, 3.0 + 1.0j)) <= 1e-15
