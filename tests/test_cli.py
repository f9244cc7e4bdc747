"""Batch front end: artifacts, exit codes, determinism."""

import json
import math
from dataclasses import replace

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
    from resonances import cli, contour, spectral

    decompose = spectral.eigen_decompose
    certify = contour._certificate
    solve, build = cli.solve_fixed_point, contour.build_contour
    overlap, residue = spectral.overlap_operator, spectral.residue_at
    decomposed = []
    certified = []
    solved = []
    built = []
    overlaps = []       # (contour argument, built inside residue_at)
    in_residue, residues = [], []

    def counting(h1, *args, **kwargs):
        decomposed.append(h1)
        return decompose(h1, *args, **kwargs)

    def counting_certificate(d0, v0):
        certified.append(v0)
        return certify(d0, v0)

    def counting_overlap(sol_l, sol_minus_l, contour=None):
        overlaps.append((contour, bool(in_residue)))
        return overlap(sol_l, sol_minus_l, contour)

    def residue_spy(*args):
        residues.append(args[-1])
        in_residue.append(args)
        try:
            return residue(*args)
        finally:
            in_residue.pop()

    monkeypatch.setattr(spectral, "eigen_decompose", counting)
    monkeypatch.setattr(spectral, "overlap_operator", counting_overlap)
    monkeypatch.setattr(spectral, "residue_at", residue_spy)
    monkeypatch.setattr(cli, "solve_fixed_point",
                        lambda *args: solved.append(args[0]) or solve(*args))
    monkeypatch.setattr(contour, "build_contour",
                        lambda *args: built.append(args[0]) or build(*args))
    monkeypatch.setattr(contour, "_certificate", counting_certificate)
    cfg = write_config(tmp_path, "verify", "verify", std_model, SEMI)
    out = tmp_path / "verify_out.json"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    # one solve, decomposition and certificate per sheet: base and its
    # mirror; the doubled order is one more contour, read at the base pair
    assert len(solved) == 2
    assert len(decomposed) == 2
    assert len(certified) == 2
    assert len(built) == 3
    # two overlaps: the doubled-order one, whose metric the moment and
    # residue rows read, and the base one of the gram row; residue_at
    # takes the caller's metric and builds none; the row calls it once
    # per eigenvalue
    assert len(residues) == 1
    assert [(c if c is None else (c.panels, c.multi_index), inside)
            for c, inside in overlaps] == [((12, (1,)), False), (None, False)]
    art = json.loads(out.read_text())
    assert art["all_pass"] is True
    names = {r["name"] for r in art["identities"]}
    assert {"factorization", "resolvent-moment-0", "resolvent-moment-1",
            "residue-projection-product", "projection-equations",
            "adjoint-symmetry", "mirror-spectrum", "gram-identity"} == names


def test_verify_decomposes_each_solution_once(tmp_path, poly4_model, monkeypatch):
    from resonances import cli, spectral

    solve = cli.solve_fixed_point
    eig, eigvals, svd = np.linalg.eig, np.linalg.eigvals, np.linalg.svd
    riesz, overlap = spectral.riesz_gram, spectral.overlap_operator
    solutions, eig_args, eigvals_calls, gram_svds, in_gram = [], [], [], [], []

    def solving(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    def eig_spy(a):
        eig_args.extend(np.reshape(a, (-1, *np.shape(a)[-2:])))
        return eig(a)

    def svd_spy(*args, **kwargs):
        if in_gram and in_gram[-1]:
            gram_svds.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    def scoped(fn, inside):
        # SVDs are recorded inside riesz_gram, but not in the overlap it calls
        def spy(*args, **kwargs):
            in_gram.append(inside)
            try:
                return fn(*args, **kwargs)
            finally:
                in_gram.pop()
        return spy

    monkeypatch.setattr(cli, "solve_fixed_point", solving)
    monkeypatch.setattr(np.linalg, "eig", eig_spy)
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: eigvals_calls.append(np.shape(a)) or eigvals(a))
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(spectral, "riesz_gram", scoped(riesz, True))
    monkeypatch.setattr(spectral, "overlap_operator", scoped(overlap, False))
    config = cli.load_config(write_config(tmp_path, "verify", "verify", poly4_model, SEMI))
    rows = cli._verify_rows(config)
    monkeypatch.undo()

    assert all(r["pass"] and not r["skipped"] for r in rows)
    assert len(solutions) == 2
    for sol in solutions:
        # the solution's own eigensystem is the only decomposition of its
        # effective matrix; the overlap reads the adjoint's from the mirror
        assert sum(np.array_equal(a, sol.effective) for a in eig_args) == 1
        assert not any(np.array_equal(a, sol.effective.conj().T) for a in eig_args)
    assert eigvals_calls == []
    # every cluster takes the eigenvector path, so no range needs an SVD
    assert all(path == "eigenvector" for sol in solutions[:2]
               for path in spectral.eigen_decompose(sol).paths)
    assert gram_svds == []



def test_verify_adjoint_row_reads_the_mirror_solution(tmp_path, poly4_model, monkeypatch):
    from resonances import cli

    solve = cli.solve_fixed_point
    rng = np.random.default_rng(29)
    fault = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    fault *= 1e-7 / np.linalg.norm(fault, 2)
    solutions = []

    def solving(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        sol = solutions[-1]
        if len(solutions) == 2:       # the mirror of the base solve
            sol = replace(sol, correction=sol.correction + fault,
                          effective=sol.effective + fault)
        return sol

    monkeypatch.setattr(cli, "solve_fixed_point", solving)
    config = cli.load_config(write_config(tmp_path, "verify", "verify", poly4_model, SEMI))
    row = next(r for r in cli._verify_rows(config) if r["name"] == "adjoint-symmetry")
    assert solutions[1].multi_index == (-1,)
    assert row["threshold"] == 1e-8
    assert 0.5e-7 <= row["residual"] <= 2e-7
    assert not row["pass"]


def test_solve_decomposes_the_effective_matrix_once(tmp_path, poly4_model, monkeypatch):
    from resonances import cli

    solve, eig = cli.solve_fixed_point, np.linalg.eig
    solutions, eig_args = [], []

    def solving(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    def eig_spy(a):
        eig_args.extend(np.reshape(a, (-1, *np.shape(a)[-2:])))
        return eig(a)

    monkeypatch.setattr(cli, "solve_fixed_point", solving)
    monkeypatch.setattr(np.linalg, "eig", eig_spy)
    config = cli.load_config(write_config(tmp_path, "solve", "solve", poly4_model, SEMI))
    art = cli.run_solve(config)
    monkeypatch.undo()

    assert art["residuals"]["fixed_point"] <= 2.0 * 1e-10
    (sol,) = solutions
    # the fixed-point residual and the decomposition share the solution's eigensystem
    assert sum(np.array_equal(a, sol.effective) for a in eig_args) == 1


def test_verify_negative_control_coarse_quadrature(tmp_path, std_model, poly4_model):
    def failed_rows(model, panels, points):
        coarse = {"shape": "semicircle", "l": [1], "panels": panels, "points": points}
        cfg = write_config(tmp_path, "coarse", "verify", model, coarse)
        out = tmp_path / "coarse_out.json"
        code = main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
        art = json.loads(out.read_text())
        failed = [r["name"] for r in art["identities"] if not r["pass"]]
        assert code == (1 if failed else 0)
        return failed

    assert "resolvent-moment-0" in failed_rows(std_model, 1, 4)
    # the doubled order, read at the base solutions, still exposes a coarse rule
    assert "resolvent-moment-0" in failed_rows(poly4_model, 1, 4)
    assert "resolvent-moment-0" in failed_rows(poly4_model, 2, 4)
    assert failed_rows(poly4_model, 3, 8) == []


def test_verify_sample_points_bounded(tmp_path):
    import subprocess
    import sys

    # d0 = 1e-9: no point of the disks of radius d0/2 around the level
    # clears the contour by 1e-6 of its diameter
    model = rs.SpectralModel(np.array([[2.0 + 1e-9]]), [rs.Interval(0.0, 2.0, 1.5)])
    cfg = write_config(tmp_path, "tight", "verify", model, SEMI)
    proc = subprocess.run([sys.executable, "-m", "resonances.cli", "verify", "--config", cfg,
                           "--quiet"], capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: no factorization sample point"), proc.stderr


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


def test_sweep_parses_contour_once(tmp_path, std_model, monkeypatch):
    calls = []
    parse = rs.contour.contour_spec_from_json

    def spy(data):
        calls.append(data)
        return parse(data)

    monkeypatch.setattr(rs.contour, "contour_spec_from_json", spy)
    cfg = write_config(tmp_path, "sweep", "sweep", std_model, SEMI,
                       sweep={"parameter": "beta", "grid": [0.05, 0.1, 0.15]})
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    assert calls == [SEMI]


N2_GRID = [0.0, 0.01, 0.03, 0.05, 0.07, 0.08, 0.085, 0.09, 0.2, 0.0, 0.04]


@pytest.fixture(scope="module")
def n2_model():
    """n=2 constant-vector model with a discrete point; admissible up to beta ~ 0.087."""
    a1 = np.array([[0.4, 0.05], [0.05, 0.62]], dtype=complex)
    weight = np.array([[0.02, 0.003 + 0.001j], [0.003 - 0.001j, 0.015]])
    return rs.SpectralModel(a1, [rs.Interval(0.0, 1.0, 0.6)], [(-2.0, weight)],
                            rs.CouplingFunction.constant_vector([0.1, 0.05 + 0.02j]))


def reference_sweep_rows(config):
    """Rows of a beta sweep from one contour, one solve and one decomposition per point."""
    from resonances.cli import _tag_eigenvalues

    model = config.model
    unit = model.coupling.row / np.linalg.norm(model.coupling.row)
    spec = rs.contour.contour_spec_from_json(config.contour_json)
    rows = []
    for value in config.sweep["grid"]:
        point = rs.SpectralModel(model.a1, model.intervals, model.discrete,
                                 rs.CouplingFunction.constant_vector(unit * value,
                                                                     model.coupling.decay))
        contour = rs.build_contour(point, *spec, config.quad_tol)
        try:
            sol = rs.solve_fixed_point(contour, config.solve_tol, config.max_iter)
        except rs.InadmissibleCertificateError:
            rows.append({"parameter": value, "status": "inadmissible"})
            continue
        except rs.NonconvergenceError:
            rows.append({"parameter": value, "status": "nonconvergence"})
            continue
        tags = _tag_eigenvalues(sol, rs.eigen_decompose(sol.effective))
        for rank, t in enumerate(sorted(tags, key=lambda t: (t["re"], t["im"]))):
            rows.append({"parameter": value, "status": "ok", "eig_index": rank,
                         "re": t["re"], "im": t["im"], "tag": t["tag"],
                         "r_min": sol.certificate.r_min, "iterations": sol.iterations})
    return rows


def test_sweep_rows_equal_per_point_solves(tmp_path, n2_model):
    from resonances.cli import load_config, run_sweep

    cfg = write_config(tmp_path, "n2", "sweep", n2_model, SEMI, max_iter=6,
                       sweep={"parameter": "beta", "grid": N2_GRID})
    config = load_config(cfg)
    rows = run_sweep(config)["rows"]
    assert rows == reference_sweep_rows(config)
    # every kind of row: beta = 0, converged, stopped by max_iter, inadmissible
    status = {r["parameter"]: r["status"] for r in rows}
    assert status[0.0] == "ok" and status[0.08] == "nonconvergence"
    assert status[0.2] == "inadmissible" and set(status.values()) == {
        "ok", "nonconvergence", "inadmissible"}


def test_sweep_with_no_admissible_point(tmp_path, std_model, n2_model):
    for model, grid in ((std_model, [0.4, 0.5]), (n2_model, [0.2, 0.3, 0.5])):
        cfg = write_config(tmp_path, "none", "sweep", model, SEMI,
                           sweep={"parameter": "beta", "grid": grid})
        out = tmp_path / "none_out.json"
        csv = tmp_path / "none.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--csv", str(csv),
                     "--quiet"]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows == [{"parameter": g, "status": "inadmissible"} for g in grid]
        assert csv.read_text().count(",inadmissible\n") == len(grid)


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_sweep_blocks_do_not_change_output(tmp_path, n2_model, monkeypatch, rows_per_block):
    from resonances import cli

    cfg = write_config(tmp_path, "n2", "sweep", n2_model, SEMI, max_iter=6,
                       sweep={"parameter": "beta", "grid": N2_GRID})
    outputs = []
    for budget in (cli._SWEEP_BLOCK_ELEMENTS, rows_per_block * (1 + 96) * 4):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_ELEMENTS", budget)
        out, csv = tmp_path / f"b{budget}.json", tmp_path / f"b{budget}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--csv", str(csv),
                     "--quiet"]) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]


def test_sweep_shares_one_contour(tmp_path, std_model, monkeypatch):
    calls = []
    for name in ("build_contour", "separation_distance"):
        original = getattr(rs.contour, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(rs.contour, name, spy)
    cfg = write_config(tmp_path, "sweep", "sweep", std_model, SEMI,
                       sweep={"parameter": "beta", "grid": [0.0, 0.05, 0.1, 0.15, 0.4]})
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    assert sorted(calls) == ["build_contour", "separation_distance"]


def test_sweep_batches_variation_and_eigenvalues(tmp_path, std_model, monkeypatch):
    from resonances.cli import load_config, run_sweep

    cfg = write_config(tmp_path, "sweep", "sweep", std_model, SEMI,
                       sweep={"parameter": "beta", "grid": [0.0, 0.05, 0.1, 0.15, 0.4]})
    config = load_config(cfg)
    calls = []
    for owner, name in ((rs.contour, "variation"), (rs.spectral, "eigen_decompose"),
                        (rs.SpectralModel, "__init__"), (rs.CouplingFunction, "__init__")):
        original = getattr(owner, name)

        def spy(*args, _name=f"{owner.__name__}.{name}", _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    run_sweep(config)
    assert calls == ["resonances.contour.variation"]


@pytest.mark.parametrize("model", ["std_model", "n2_model"])
def test_stacked_variation_equals_row_contours(request, model):
    model = request.getfixturevalue(model)
    unit = model.coupling.row / np.linalg.norm(model.coupling.row)
    contours = [rs.build_contour(replace(model, coupling=rs.CouplingFunction.constant_vector(
                    unit * value, model.coupling.decay)), rs.Semicircle(), [1])
                for value in (0.0, 0.03, 0.07, 0.2, 0.5)]
    stacked = rs.contour.variation(contours[0], np.stack([c.quad_values for c in contours]))
    assert stacked.tolist() == [rs.contour.variation(c) for c in contours]


def test_sweep_n1_rows_equal_per_point_solves(tmp_path, std_model):
    from resonances.cli import load_config, run_sweep

    # the benchmark's sweep: 48 points, the last ones past the threshold
    grid = np.linspace(0.03, 0.35, 48).tolist()
    cfg = write_config(tmp_path, "n1", "sweep", std_model, SEMI,
                       sweep={"parameter": "beta", "grid": grid})
    config = load_config(cfg)
    rows = run_sweep(config)["rows"]
    assert rows == reference_sweep_rows(config)
    assert {r["status"] for r in rows} == {"ok", "inadmissible"}


def test_sweep_double_level_decomposes_its_cluster(tmp_path, monkeypatch):
    from resonances.cli import load_config, run_sweep

    # at beta = 0 the effective matrix is a1, whose level 0.5 is double
    model = rs.SpectralModel(np.diag([0.5, 0.5]).astype(complex), [rs.Interval(0.0, 1.0, 0.6)],
                             coupling=rs.CouplingFunction.constant_vector([0.1, 0.05]))
    cfg = write_config(tmp_path, "double", "sweep", model, SEMI,
                       sweep={"parameter": "beta", "grid": [0.0, 0.05, 0.1, 0.0, 0.3]})
    config = load_config(cfg)
    decomposed = []
    decompose = rs.spectral.eigen_decompose

    def spy(h1, *args):
        decomposed.append(np.array(h1))
        return decompose(h1, *args)

    monkeypatch.setattr(rs.spectral, "eigen_decompose", spy)
    rows = run_sweep(config)["rows"]
    assert len(decomposed) == 2 and all(np.array_equal(h, model.a1) for h in decomposed)
    monkeypatch.undo()
    assert rows == reference_sweep_rows(config)
    # the double level is one cluster: one row at each beta = 0
    assert [(r["parameter"], r["status"]) for r in rows] == [
        (0.0, "ok"), (0.05, "ok"), (0.05, "ok"), (0.1, "ok"), (0.1, "ok"), (0.0, "ok"),
        (0.3, "inadmissible")]


def test_sweep_reads_the_eigenbasis_verdict(tmp_path, std_model, monkeypatch):
    from resonances.cli import load_config, run_sweep

    # with no eigenbasis usable, F takes the resolvent path, and the
    # eigenvalue pass sends every solved row through eigen_decompose
    cfg = write_config(tmp_path, "sweep", "sweep", std_model, SEMI,
                       sweep={"parameter": "beta", "grid": [0.0, 0.05, 0.1, 0.15, 0.4]})
    config = load_config(cfg)
    reference = run_sweep(config)["rows"]
    decompose, decomposed = rs.spectral.eigen_decompose, []
    monkeypatch.setattr(rs.transfer, "_EIGVEC_COND_MAX", 0.0)
    monkeypatch.setattr(rs.spectral, "eigen_decompose",
                        lambda h1, *args: decomposed.append(h1) or decompose(h1, *args))
    rows = run_sweep(config)["rows"]
    assert len(decomposed) == sum(r["status"] == "ok" for r in rows) == 4
    assert [(r["parameter"], r["status"]) for r in rows] == [
        (r["parameter"], r["status"]) for r in reference]
    for row, ref in zip(rows, reference):
        if row["status"] == "ok":
            assert abs(complex(row["re"], row["im"]) - complex(ref["re"], ref["im"])) <= 1e-12


def test_main_parses_each_call(tmp_path, std_model, capsys):
    from resonances import cli

    solve = write_config(tmp_path, "solve", "solve", std_model, SEMI)
    sweep = write_config(tmp_path, "sweep", "sweep", std_model, SEMI,
                         sweep={"parameter": "beta", "grid": [0.05, 0.1]})
    out, csv = tmp_path / "sweep_out.json", tmp_path / "sweep.csv"
    cli._parser.cache_clear()
    assert main(["sweep", "--config", sweep, "--out", str(out), "--csv", str(csv),
                 "--quiet"]) == 0
    assert out.exists() and csv.exists()
    out.unlink()
    csv.unlink()
    assert main(["solve", "--config", solve]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert not out.exists() and not csv.exists()
    for argv in (["sweep"], ["bogus", "--config", solve], ["solve", "--config", solve, "-x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["solve", "--config", solve, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert cli._parser.cache_info().misses == 1


def test_sweep_contraction_violation_exit_4(tmp_path, std_model, monkeypatch, capsys):
    # white-box: under-report the variation of planted grid points, so their
    # certified contraction factor is far below the step ratio they show; a
    # sweep's rows are found in its stacked coupling data by their beta^2
    variation = rs.contour.variation
    planted = [0.1 ** 2, 0.2 ** 2]

    def shrunk(contour, values=None):
        v0 = variation(contour, values)
        if values is None:
            return v0
        beta_sq = values[:, -1, 0, 0].real
        return np.where(np.isclose(beta_sq[:, None], planted, rtol=1e-12, atol=0).any(axis=1),
                        1e-6 * v0, v0)

    monkeypatch.setattr(rs.contour, "variation", shrunk)
    errors = []
    for name, grid in (("both", [0.05, 0.1, 0.15, 0.2]), ("first", [0.1])):
        cfg = write_config(tmp_path, name, "sweep", std_model, SEMI,
                           sweep={"parameter": "beta", "grid": grid})
        out = tmp_path / f"{name}_out.json"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: empirical step ratio ") and err.count("\n") == 1, err
        errors.append(err)
    # the first violating point in grid order is the one reported
    assert errors[0] == errors[1]


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
        ("solve", {"model_path": "other.json", "model": rs.model_to_json_dict(std_model)}),
        # non-finite or non-numeric numbers, which json.load accepts
        ("solve", {"tolerances": {"solve_tol": math.nan}}),
        ("solve", {"tolerances": {"solve_tol": -1.0}}),
        ("solve", {"tolerances": {"id_tol": math.nan}}),
        ("solve", {"tolerances": {"id_tol": 0.0}}),
        ("solve", {"tolerances": {"quad_tol": math.nan}}),
        ("solve", {"tolerances": {"quad_tol": math.inf}}),
        ("solve", {"contour": dict(SEMI, center="x")}),
        ("solve", {"contour": dict(SEMI, center=math.nan)}),
        # integer fields: a fraction or a boolean is refused, never truncated
        ("solve", {"contour": dict(SEMI, l=[1.9])}),
        ("solve", {"contour": dict(SEMI, panels=6.9)}),
        ("solve", {"contour": dict(SEMI, points=16.5)}),
        ("solve", {"contour": dict(SEMI, panels=True)}),
        ("solve", {"contour": dict(SEMI, points=math.inf)}),
        ("solve", {"max_iter": 2.5}),
        ("solve", {"max_iter": True}),
        ("oracle", {"oracle": {"nu": [1.5, -1]}}),
    ]
    capsys.readouterr()
    for k, (command, extra) in enumerate(malformed):
        cfg = write_config(tmp_path, f"malformed{k}", command, std_model, SEMI)
        with open(cfg) as fh:
            config = json.load(fh)
        with open(cfg, "w") as fh:
            json.dump(dict(config, **extra), fh)
        assert main([command, "--config", cfg, "--quiet"]) == 4, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)
    # an integral float runs as its integer
    texts = []
    integral = dict(SEMI, l=[1.0], panels=6.0, points=16.0)
    for k, (contour, max_iter) in enumerate(((SEMI, 200), (integral, 200.0))):
        cfg = write_config(tmp_path, f"integral{k}", "solve", std_model, contour, max_iter=max_iter)
        out = tmp_path / f"integral{k}_out.json"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    # a key that nothing reads is rejected by name, never silently defaulted
    typos = [
        ("solve", "solve_tl", SEMI, {"tolerances": {"solve_tl": 1e-3}}),
        ("solve", "max_iters", SEMI, {"max_iters": 5}),
        ("solve", "panel", dict(SEMI, panel=1), {}),
        ("solve", "depth", dict(SEMI, depth=0.3), {}),
        ("solve", "radius", {"pieces": [{"shape": "rectangle", "depth": 0.3, "radius": 0.5}],
                             "l": [1]}, {}),
        ("solve", "shape", {"pieces": [{"shape": "flat"}], "l": [1], "shape": "semicircle"}, {}),
        ("sweep", "step", SEMI, {"sweep": {"parameter": "beta", "grid": [0.1], "step": 1}}),
        ("oracle", "sheet", SEMI, {"oracle": {"nu": [1], "sheet": 2}}),
        ("solve", "json", SEMI, {"output": {"json": "out.json"}}),
        ("solve", "extent", {"shape": "rectangle", "depth": 0.3, "extent": 5.0, "l": [1]}, {}),
    ]
    for k, (command, key, contour, extra) in enumerate(typos):
        cfg = write_config(tmp_path, f"typo{k}", command, std_model, contour, **extra)
        assert main([command, "--config", cfg, "--quiet"]) == 4, extra
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key ") and repr(key) in err, (extra, err)
        assert err.count("\n") == 1, (extra, err)
    # the model file's own keys too: top level, interval, discrete point,
    # coupling (per kind) and decay
    base = rs.model_to_json_dict(std_model)
    point = {"nu": -1.0, "k": [[0.01, 0.0]]}
    decay = {"theta": 4.0, "coeff": 0.001}
    model_typos = [
        ("discrte", {"discrte": base["discrete"]}),
        ("strp", {"intervals": [{"lo": 0.0, "hi": 2.0, "strp": 4.0}]}),
        ("weight", {"discrete": [dict(point, weight=[[0.01, 0.0]])]}),
        ("decy", {"coupling": dict(base["coupling"], decy=decay)}),
        ("coeffs", {"coupling": dict(base["coupling"], coeffs=[base["coupling"]["row"]])}),
        ("coef", {"coupling": dict(base["coupling"], decay={"theta": 4.0, "coef": 0.001})}),
    ]
    for k, (key, change) in enumerate(model_typos):
        model_path = tmp_path / f"model_typo{k}.json"
        model_path.write_text(json.dumps(dict(base, **change)))
        cfg = tmp_path / f"model_typo{k}_config.json"
        cfg.write_text(json.dumps({"model_path": str(model_path), "contour": SEMI}))
        assert main(["solve", "--config", str(cfg), "--quiet"]) == 4, key
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key ") and repr(key) in err, (key, err)
        assert err.count("\n") == 1, (key, err)
    # non-finite numbers in the model file
    rational = {"kind": "rational-matrix", "num": [[[0.01, 0.0]]], "den": [1.0, 0.0, 1.0]}
    model_nonfinite = [
        {"coupling": dict(rational, den=[1.0, math.nan])},
        {"coupling": dict(rational, den=[math.inf])},
        {"coupling": dict(base["coupling"], decay=dict(decay, coeff=math.inf))},
        {"coupling": dict(base["coupling"], decay=dict(decay, theta=math.inf))},
    ]
    for k, change in enumerate(model_nonfinite):
        model_path = tmp_path / f"model_nonfinite{k}.json"
        model_path.write_text(json.dumps(dict(base, **change)))
        cfg = tmp_path / f"model_nonfinite{k}_config.json"
        cfg.write_text(json.dumps({"model_path": str(model_path), "contour": SEMI}))
        assert main(["solve", "--config", str(cfg), "--quiet"]) == 4, change
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (change, err)


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


def test_cli_import_loads_only_numpy_and_stdlib():
    import subprocess
    import sys

    code = ("import sys; before = set(sys.modules); import resonances.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    loaded = set(proc.stdout.split())
    assert "resonances" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "resonances"} == set()


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
