"""Batch front end: artifacts, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import resonances as rs
from resonances.cli import main
from conftest import BETA_SQ_STD, child_env


def write_config(tmp_path, name, command, model, contour=None, **extra):
    model_path = tmp_path / f"{name}_model.json"
    model_path.write_text(rs.model_dumps(model))
    config = {"command": command, "model_path": str(model_path)}
    if contour is not None:
        config["contour"] = contour
    config.update(extra)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return str(path)


SEMI = {"shape": "semicircle", "l": [1], "panels": 6, "points": 16}


@pytest.fixture(scope="module")
def std_model():
    return rs.friedrichs_model(1.0, beta_sq=BETA_SQ_STD)


def test_solve_artifact(tmp_path, std_model, capsys):
    out = tmp_path / "solve_out.json"
    cfg = write_config(tmp_path, "solve", "solve", std_model, SEMI)
    code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    art = json.loads(out.read_text())
    assert art["status"] == "ok"
    assert abs(art["certificate"]["r_min"] - 0.25) <= 1e-10
    assert abs(art["certificate"]["v0"] - 3.0 / 16.0) <= 1e-10
    assert art["certificate"]["d0"] == 1.0
    assert art["eigenvalues"][0]["tag"] == "complex"
    assert art["eigenvalues"][0]["half_plane"] == 1
    assert art["residuals"]["fixed_point"] <= 2e-10


def test_solve_zero_coupling(tmp_path):
    model = rs.SpectralModel(np.diag([0.3, 0.7]).astype(complex),
                             [rs.Interval(0.0, 1.0, 0.6)])
    cfg = write_config(tmp_path, "zero", "solve", model, SEMI)
    out = tmp_path / "zero_out.json"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    art = json.loads(out.read_text())
    x = np.array(art["solution"]["correction"])
    assert np.max(np.abs(x)) <= 1e-14
    eigs = sorted(e["re"] for e in art["eigenvalues"])
    assert np.allclose(eigs, [0.3, 0.7], atol=1e-12)
    assert all(e["tag"] == "real" for e in art["eigenvalues"])


def test_solve_inadmissible_exit_2(tmp_path):
    model = rs.friedrichs_model(1.0, beta_sq=1.0 / (2.0 * math.pi))
    cfg = write_config(tmp_path, "inadm", "solve", model, SEMI)
    out = tmp_path / "inadm_out.json"
    code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    art = json.loads(out.read_text())
    assert art["status"] == "inadmissible"
    assert art["certificate"]["admissible"] is False


def test_verify_passes(tmp_path, std_model, monkeypatch):
    from resonances import contour, solver, spectral

    decompose = spectral.eigen_decompose
    certify = contour.solvability_certificate
    decomposed = []
    certified = []

    def counting(h1, *args, **kwargs):
        decomposed.append(h1)
        return decompose(h1, *args, **kwargs)

    def counting_certificate(c):
        certified.append(c)
        return certify(c)

    monkeypatch.setattr(spectral, "eigen_decompose", counting)
    for module in (contour, solver, spectral):
        if getattr(module, "solvability_certificate", None) is certify:
            monkeypatch.setattr(module, "solvability_certificate", counting_certificate)
    cfg = write_config(tmp_path, "verify", "verify", std_model, SEMI)
    out = tmp_path / "verify_out.json"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    # one decomposition and one certificate per solution: base, its mirror,
    # and the two fine ones
    assert len(decomposed) == 4
    assert len(certified) == 4
    art = json.loads(out.read_text())
    assert art["all_pass"] is True
    names = {r["name"] for r in art["identities"]}
    assert {"factorization", "resolvent-moment-0", "resolvent-moment-1",
            "residue-projection-product", "projection-equations",
            "adjoint-symmetry", "mirror-spectrum", "gram-identity"} == names


def test_verify_negative_control_coarse_quadrature(tmp_path, std_model):
    coarse = {"shape": "semicircle", "l": [1], "panels": 1, "points": 4}
    cfg = write_config(tmp_path, "coarse", "verify", std_model, coarse)
    out = tmp_path / "coarse_out.json"
    code = main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    art = json.loads(out.read_text())
    failed = [r["name"] for r in art["identities"] if not r["pass"]]
    assert "resolvent-moment-0" in failed


def test_sweep_trajectory(tmp_path, std_model):
    grid = [0.0, 0.08, 0.16, 0.24, 0.30]
    cfg = write_config(tmp_path, "sweep", "sweep", std_model, SEMI,
                       sweep={"parameter": "beta", "grid": grid})
    out = tmp_path / "sweep_out.json"
    csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", cfg, "--out", str(out),
                 "--csv", str(csv), "--quiet"])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("parameter,")
    rows = [ln.split(",") for ln in lines[1:]]
    # zero coupling point: embedded level, exactly real
    assert float(rows[0][3]) == 0.0
    assert float(rows[0][2]) == 1.0
    ims = [float(r[3]) for r in rows if r[-1] == "ok"]
    assert all(b > a for a, b in zip(ims[:-1], ims[1:]))
    # last point is past the admissibility threshold
    assert rows[-1][-1] == "inadmissible"
    thr = math.sqrt(1.0 / (4.0 * math.pi))
    assert grid[-1] > thr > grid[-2]


def test_oracle_conjugate_pair(tmp_path, std_model):
    cfg = write_config(tmp_path, "oracle", "oracle", std_model, SEMI,
                       oracle={"nu": [1, -1]})
    out = tmp_path / "oracle_out.json"
    assert main(["oracle", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    art = json.loads(out.read_text())
    z1 = complex(*art["resonances"][0]["z"])
    z2 = complex(*art["resonances"][1]["z"])
    assert abs(z1 - np.conj(z2)) <= 1e-10
    assert art["solver_comparison"]["difference"] <= 1e-8
    assert art["bound_states"]["abs_f0"] <= 1e-12
    assert art["bound_states"]["abs_fa"] <= 1e-12


def test_oracle_inadmissible_contour_exit_2(tmp_path):
    model = rs.friedrichs_model(1.0, beta_sq=1.0 / (2.0 * math.pi))
    cfg = write_config(tmp_path, "oracle_inadm", "oracle", model, SEMI,
                       oracle={"nu": [1, -1]})
    out = tmp_path / "oracle_inadm_out.json"
    assert main(["oracle", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    art = json.loads(out.read_text())
    assert art["status"] == "inadmissible"
    assert art["certificate"]["admissible"] is False
    assert art["certificate"]["r_min"] is None
    assert art["certificate"]["omega"] < 0.0


def test_oracle_unsupported_model(tmp_path):
    model = rs.SpectralModel(np.diag([0.3, 0.5, 0.7]).astype(complex),
                             [rs.Interval(0.0, 1.0, 0.6)])
    cfg = write_config(tmp_path, "oracle3", "oracle", model)
    out = tmp_path / "oracle3_out.json"
    code = main(["oracle", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 4
    art = json.loads(out.read_text())
    assert art["status"] == "unsupported-model"


def test_config_errors_exit_4(tmp_path, std_model, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing), "--quiet"]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["solve", "--config", str(bad), "--quiet"]) == 4
    # command mismatch between config and argv
    cfg = write_config(tmp_path, "mismatch", "verify", std_model, SEMI)
    assert main(["solve", "--config", cfg, "--quiet"]) == 4
    # malformed fields: one stderr line each, never a traceback
    malformed = [
        ("solve", {"tolerances": {"quad_tol": "x"}}),
        ("solve", {"tolerances": [1]}),
        ("solve", {"max_iter": "x"}),
        ("solve", {"max_iter": 0}),
        ("sweep", {"sweep": {"parameter": "beta", "grid": ["a"]}}),
        ("sweep", {"sweep": {"parameter": "beta", "grid": [None]}}),
        ("sweep", {"sweep": [1, 2]}),
        ("solve", {"output": [1]}),
        ("oracle", {"oracle": {"nu": ["a"]}}),
    ]
    capsys.readouterr()
    for k, (command, extra) in enumerate(malformed):
        cfg = write_config(tmp_path, f"malformed{k}", command, std_model, SEMI, **extra)
        assert main([command, "--config", cfg, "--quiet"]) == 4, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)


def test_invalid_model_exit_4(tmp_path):
    """Every command validates first; an invalid model writes no CSV."""
    discrete_inside = rs.SpectralModel(np.array([[5.0]]), [rs.Interval(0.0, 1.0, 0.6)],
                                       [(0.5, np.array([[0.1]]))])
    # a complex level: the oracle must not drop its imaginary part
    complex_level = rs.SpectralModel(np.array([[1.0 + 0.5j]]), [rs.Interval(0.0, 2.0, 4.0)],
                                     (), rs.CouplingFunction.constant_vector([0.2]))
    sweep = {"parameter": "beta", "grid": [0.1, 0.2]}
    cases = [(discrete_inside, command, SEMI)
             for command in ("solve", "verify", "sweep", "oracle")]
    cases += [(complex_level, command, SEMI) for command in ("solve", "sweep", "oracle")]
    cases.append((complex_level, "oracle", None))
    for k, (model, command, contour) in enumerate(cases):
        cfg = write_config(tmp_path, f"invalid{k}", command, model, contour, sweep=sweep)
        out = tmp_path / f"invalid{k}_out.json"
        csv = tmp_path / f"invalid{k}.csv"
        code = main([command, "--config", cfg, "--out", str(out), "--csv", str(csv), "--quiet"])
        assert code == 4, (k, command)
        art = json.loads(out.read_text())
        assert art["status"] == "invalid-model"
        assert art["violations"]
        assert not csv.exists()
    assert "hermitian-internal-matrix" in art["violations"][0]


def test_byte_identical_artifacts(tmp_path, std_model):
    cfg = write_config(tmp_path, "det", "solve", std_model, SEMI)
    out1 = tmp_path / "det1.json"
    out2 = tmp_path / "det2.json"
    main(["solve", "--config", cfg, "--out", str(out1), "--quiet"])
    main(["solve", "--config", cfg, "--out", str(out2), "--quiet"])
    assert out1.read_bytes() == out2.read_bytes()
    cfgv = write_config(tmp_path, "detv", "verify", std_model, SEMI)
    outs = []
    for i in (1, 2):
        o = tmp_path / f"detv{i}.json"
        main(["verify", "--config", cfgv, "--out", str(o), "--quiet"])
        outs.append(o.read_bytes())
    assert outs[0] == outs[1]
    cfgs = write_config(tmp_path, "dets", "sweep", std_model, SEMI,
                        sweep={"parameter": "beta", "grid": [0.05, 0.1, 0.15, 0.2, 0.3]})
    csvs = []
    for i in (1, 2):
        c = tmp_path / f"dets{i}.csv"
        main(["sweep", "--config", cfgs, "--csv", str(c), "--quiet"])
        csvs.append(c.read_bytes())
    assert csvs[0] == csvs[1]
    assert csvs[0].count(b",ok\n") == 4 and csvs[0].endswith(b",inadmissible\n")


def test_cli_import_loads_no_scipy():
    import subprocess
    import sys

    code = "import sys, resonances.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == "False"


def test_console_entry_point_runs(tmp_path, std_model):
    import subprocess
    import sys

    cfg = write_config(tmp_path, "entry", "solve", std_model, SEMI)
    proc = subprocess.run(
        [sys.executable, "-m", "resonances.cli", "solve", "--config", cfg],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    art = json.loads(proc.stdout)
    assert art["status"] == "ok"
