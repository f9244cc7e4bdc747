"""Batch front end: solve, verify, sweep, and oracle pipelines.

Configuration comes from a JSON file; results are written as JSON (and CSV
for sweeps) with fixed field ordering, fixed summation orders, and floats
formatted at 17 significant digits, so identical inputs produce
byte-identical artifacts.

Every command validates the model first; the pipelines then return an
artifact, and ``main`` alone turns failures into artifacts and takes the
exit code from the artifact status through ``EXIT_CODES``: ok 0,
identity-failure 1, inadmissible 2, nonconvergence 3, invalid-model and
unsupported-model 4. An inadmissible certificate and a fixed-point solve
that does not converge write their artifacts with the certificate (the
latter also with the step norms). Errors that write no artifact: an
``IdentityFailureError`` exits 1, a ``NonconvergenceError`` of the
closed-form root finders exits 3, and every other ``ResonanceError`` exits
4 (``StructuralModelError``, ``UnsupportedModelError``, ``DomainError``,
``GeometryError``, ``ClusteringError``, ``PairingError``,
``ContractionViolationError``, ``InconsistencyError``, ``GuardBandError``
and ``ResolventSingularityError``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import contour as ct
from . import friedrichs as fr
from . import spectral as sp
from .errors import (
    IdentityFailureError,
    InadmissibleCertificateError,
    NonconvergenceError,
    ResonanceError,
    StructuralModelError,
    UnsupportedModelError,
)
from .model import SpectralModel, model_from_json_dict, spectral_norm, validate_model
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, fixed_point_residual, solve_fixed_point
from .transfer import adjoint_symmetry_residual

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_INADMISSIBLE = 2
EXIT_NONCONVERGENCE = 3
EXIT_CONFIG_ERROR = 4
EXIT_CODES = {
    "ok": EXIT_OK,
    "identity-failure": EXIT_IDENTITY_FAILURE,
    "inadmissible": EXIT_INADMISSIBLE,
    "nonconvergence": EXIT_NONCONVERGENCE,
    "invalid-model": EXIT_CONFIG_ERROR,
    "unsupported-model": EXIT_CONFIG_ERROR,
}

DEFAULT_TOLERANCES = {"quad_tol": ct.DEFAULT_QUAD_TOL, "solve_tol": DEFAULT_TOL, "id_tol": 1e-6}


# ---------------------------------------------------------------------------
# Deterministic JSON rendering (17 significant digits)
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % x
    s = format(float(x), ".17g")
    return s


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
            # floats (numpy float64 included) straight to _fmt_float: one pass
            return "[" + ", ".join(_fmt_float(v) if isinstance(v, float) else _render_json(v)
                                   for v in obj) + "]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


def _complex_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(m: np.ndarray) -> list:
    return [_complex_pair(v) for v in np.asarray(m, dtype=complex).reshape(-1)]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str | None
    model: SpectralModel
    contour_json: dict | None
    quad_tol: float
    solve_tol: float
    id_tol: float
    sweep: dict | None
    oracle_nu: tuple[int, ...]
    json_path: str | None
    csv_path: str | None
    max_iter: int

    @property
    def algebraic_tol(self) -> float:
        return self.id_tol / 100.0


def load_config(path: str) -> RunConfig:
    """Read a JSON config; a missing or malformed field raises ``StructuralModelError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StructuralModelError(f"cannot read config {path}: {exc}") from exc
    try:
        if "model" in data:
            model = model_from_json_dict(data["model"])
        elif "model_path" in data:
            mp = data["model_path"]
            if not os.path.isabs(mp):
                mp = os.path.join(os.path.dirname(os.path.abspath(path)), mp)
            try:
                with open(mp, "r", encoding="utf-8") as fh:
                    model = model_from_json_dict(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                raise StructuralModelError(f"cannot read model {mp}: {exc}") from exc
        else:
            raise StructuralModelError("config requires 'model' or 'model_path'")
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(data.get("tolerances", {}))
        sweep = data.get("sweep")
        if sweep is not None:
            grid = sweep.get("grid")
            if not grid or not all(math.isfinite(float(g)) for g in grid):
                raise StructuralModelError("sweep grid must be nonempty and finite")
        max_iter = int(data.get("max_iter", DEFAULT_MAX_ITER))
        if max_iter < 1:
            raise StructuralModelError(f"max_iter must be at least 1, got {max_iter}")
        output = data.get("output", {})
        return RunConfig(
            command=data.get("command"),
            model=model,
            contour_json=data.get("contour"),
            quad_tol=float(tol["quad_tol"]),
            solve_tol=float(tol["solve_tol"]),
            id_tol=float(tol["id_tol"]),
            sweep=sweep,
            oracle_nu=tuple(int(v) for v in data.get("oracle", {}).get("nu", (1, -1))),
            json_path=output.get("json_path"),
            csv_path=output.get("csv_path"),
            max_iter=max_iter,
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise StructuralModelError(f"malformed config {path}: {exc}") from exc


def _build_contour(config: RunConfig, model: SpectralModel | None = None) -> ct.Contour:
    if config.contour_json is None:
        raise StructuralModelError("config requires a 'contour' spec")
    specs, l, order = ct.contour_spec_from_json(config.contour_json)
    return ct.build_contour(model or config.model, specs, l, order, config.quad_tol)


def _certificate_dict(cert: ct.SolvabilityCertificate) -> dict:
    return {
        "d0": cert.d0,
        "v0": cert.v0,
        "omega": cert.omega,
        "admissible": cert.admissible,
        "r_min": cert.r_min,
        "r_max": cert.r_max,
    }


def _tag_eigenvalues(sol, dec) -> list:
    real_band = max(10.0 * sol.a_posteriori_bound, 1e-9 * dec.scale)
    rows = []
    for i in range(dec.count):
        lam = dec.eigenvalues[i]
        tag = "real" if abs(lam.imag) <= real_band else "complex"
        interval = None
        for k, iv in enumerate(sol.model.intervals):
            if iv.strip_contains(lam) or (tag == "real" and iv.contains_real(lam.real)):
                interval = k
                break
        rows.append({
            "re": float(lam.real),
            "im": float(lam.imag),
            "tag": tag,
            "half_plane": 0 if tag == "real" else (1 if lam.imag > 0 else -1),
            "interval": interval,
            "algebraic_multiplicity": dec.algebraic[i],
            "pole_order": dec.pole_orders[i],
        })
    return rows


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def run_solve(config: RunConfig) -> dict:
    """Solve once; emit certificate, solution matrices, tagged eigenvalues."""
    sol = solve_fixed_point(_build_contour(config), config.solve_tol, config.max_iter)
    residual = fixed_point_residual(sol)
    dec = sp.eigen_decompose(sol.effective)
    return {
        "status": "ok",
        "certificate": _certificate_dict(sol.certificate),
        "solution": {
            "multi_index": list(sol.multi_index),
            "n": sol.model.dim,
            "correction": _matrix_pairs(sol.correction),
            "effective": _matrix_pairs(sol.effective),
            "iterations": sol.iterations,
            "last_step_norm": sol.last_step_norm,
            "a_posteriori_bound": sol.a_posteriori_bound,
        },
        "eigenvalues": _tag_eigenvalues(sol, dec),
        "residuals": {
            "fixed_point": residual,
            "projector_sum": dec.projector_sum_defect,
        },
    }


def _verify_rows(config: RunConfig) -> list[dict]:
    base = _build_contour(config)
    base_m = ct.mirrored(base)
    fine = ct.double_order(base)
    fine_m = ct.mirrored(fine)

    sol = solve_fixed_point(base, config.solve_tol, config.max_iter)
    sol_m = solve_fixed_point(base_m, config.solve_tol, config.max_iter)
    sol2 = solve_fixed_point(fine, config.solve_tol, config.max_iter)
    sol2_m = solve_fixed_point(fine_m, config.solve_tol, config.max_iter)

    id_tol = config.id_tol
    alg_tol = config.algebraic_tol
    rng = np.random.default_rng(20240801)
    rows: list[dict] = []

    def add(name: str, residual: float, threshold: float, skipped: bool = False):
        rows.append({
            "name": name,
            "residual": float(residual),
            "threshold": float(threshold),
            "pass": bool(skipped or residual <= threshold),
            "skipped": skipped,
        })

    cert = sol.certificate
    eigs_a1 = config.model.a1_eigenvalues()

    def sample_points(count: int) -> np.ndarray:
        pts = []
        guard = 100.0 * base.quad_tol * base.diameter + 1e-12
        while len(pts) < count:
            lam = complex(eigs_a1[rng.integers(0, len(eigs_a1))])
            r = (0.05 + 0.9 * rng.random()) * cert.d0 / 2.0
            z = lam + r * np.exp(2j * math.pi * rng.random())
            # fine shares base's curve and remainder
            if base.distance(z) > max(1e-6 * base.diameter, guard):
                pts.append(z)
        return np.array(pts)

    zs = sample_points(20)
    add("factorization", np.max(sp.factorize(sol, zs).residual), alg_tol)

    omega2 = sp.overlap_operator(sol2, sol2_m)
    metric2_inv = np.linalg.inv(omega2.metric())
    gamma = sp.enclosure_circles(sol)
    m0 = sp.contour_moment(sol, sol_m, gamma, 0)
    add("resolvent-moment-0", spectral_norm(m0.matrix - metric2_inv), id_tol)

    m1 = sp.contour_moment(sol, sol_m, gamma, 1)
    h2_adj = sol2_m.effective.conj().T
    r1 = spectral_norm(m1.matrix - metric2_inv @ h2_adj)
    r2 = spectral_norm(m1.matrix - sol2.effective @ metric2_inv)
    add("resolvent-moment-1", max(r1, r2), id_tol)

    dec = sp.eigen_decompose(sol.effective)
    dec2 = sp.eigen_decompose(sol2.effective)
    dec2_m = sp.eigen_decompose(sol2_m.effective)
    res_max = 0.0
    for lam in dec.eigenvalues:
        value = sp.transfer_residue(sol, dec, lam).matrix
        j = int(np.argmin([abs(ev - np.conj(lam)) for ev in dec2_m.eigenvalues]))
        i2 = int(np.argmin([abs(ev - lam) for ev in dec2.eigenvalues]))
        p_adj = dec2_m.projections[j].conj().T
        left = spectral_norm(value - metric2_inv @ p_adj)
        right = spectral_norm(value - dec2.projections[i2] @ metric2_inv)
        res_max = max(res_max, left, right)
    add("residue-projection-product", res_max, id_tol)

    pn = sp.verify_projection_equations(fine, sol, dec)
    add("projection-equations", pn.max_residual, id_tol)

    add("adjoint-symmetry", np.max(adjoint_symmetry_residual(base, base_m, zs)), alg_tol)

    e_l = np.sort_complex(np.linalg.eigvals(sol.effective))
    e_m = np.sort_complex(np.conj(np.linalg.eigvals(sol_m.effective)))
    add("mirror-spectrum", float(np.max(np.abs(e_l - e_m))), alg_tol)

    try:
        band = max(10.0 * sol.a_posteriori_bound, 1e-9 * dec.scale)
        real_eigs = [ev.real for ev in dec.eigenvalues if abs(ev.imag) <= band]
        dec_m = sp.eigen_decompose(sol_m.effective)
        gram = sp.riesz_gram(sol, sol_m, dec, dec_m, real_eigs)
        add("gram-identity", max(gram.gram_defect, gram.real_block_defect), id_tol)
    except UnsupportedModelError:
        add("gram-identity", 0.0, id_tol, skipped=True)
    return rows


def run_verify(config: RunConfig) -> dict:
    """Run the identity suite; status ok iff every row passes its threshold."""
    rows = _verify_rows(config)
    all_pass = all(r["pass"] for r in rows)
    return {"status": "ok" if all_pass else "identity-failure",
            "identities": rows, "all_pass": all_pass}


def _sweep_model(config: RunConfig, value: float) -> SpectralModel:
    from .model import CouplingFunction

    model = config.model
    parameter = config.sweep.get("parameter", "beta")
    if parameter != "beta":
        raise StructuralModelError(f"unsupported sweep parameter {parameter!r}")
    if model.coupling.kind != "constant-vector":
        raise UnsupportedModelError(
            "beta sweep requires the constant-vector coupling")
    row = np.asarray(model.coupling.row)
    norm = np.linalg.norm(row)
    unit = row / norm if norm > 0 else np.eye(1, row.size)[0]
    coupling = CouplingFunction.constant_vector(unit * value, model.coupling.decay)
    return SpectralModel(model.a1, model.intervals, model.discrete, coupling)


def _sweep_point(config: RunConfig, value: float) -> list[dict]:
    contour = _build_contour(config, _sweep_model(config, value))
    try:
        sol = solve_fixed_point(contour, config.solve_tol, config.max_iter)
    except InadmissibleCertificateError:
        return [{"parameter": value, "status": "inadmissible"}]
    except NonconvergenceError:
        return [{"parameter": value, "status": "nonconvergence"}]
    dec = sp.eigen_decompose(sol.effective)
    tags = _tag_eigenvalues(sol, dec)
    rows = []
    order = sorted(range(dec.count), key=lambda i: (tags[i]["re"], tags[i]["im"]))
    for rank, i in enumerate(order):
        rows.append({
            "parameter": value,
            "status": "ok",
            "eig_index": rank,
            "re": tags[i]["re"],
            "im": tags[i]["im"],
            "tag": tags[i]["tag"],
            "r_min": sol.certificate.r_min,
            "iterations": sol.iterations,
        })
    return rows


def run_sweep(config: RunConfig) -> dict:
    """Re-solve across the parameter grid; rows ordered by grid index."""
    if config.sweep is None:
        raise StructuralModelError("sweep command requires a 'sweep' config block")
    grid = [float(g) for g in config.sweep["grid"]]
    return {"status": "ok", "rows": [r for value in grid for r in _sweep_point(config, value)]}


def sweep_csv(rows: list[dict]) -> str:
    """The CSV of a sweep artifact's rows, one line per row."""
    header = ["parameter", "eig_index", "re_lambda", "im_lambda", "tag",
              "r_min", "iterations", "status"]
    lines = [",".join(header)]
    for r in rows:
        if r["status"] != "ok":
            lines.append(",".join([
                format(r["parameter"], ".17g"), "", "", "", "", "", "", r["status"]]))
        else:
            lines.append(",".join([
                format(r["parameter"], ".17g"),
                str(r["eig_index"]),
                format(r["re"], ".17g"),
                format(r["im"], ".17g"),
                r["tag"],
                format(r["r_min"], ".17g"),
                str(r["iterations"]),
                "ok",
            ]))
    return "\n".join(lines) + "\n"


def run_oracle(config: RunConfig) -> dict:
    """Closed-form roots, bound states, asymptotics, and solver comparison."""
    model = config.model
    try:
        params = fr.params_from_model(model)
    except UnsupportedModelError as exc:
        return {"status": "unsupported-model", "reason": str(exc)}
    roots = []
    for nu in config.oracle_nu:
        if nu == 0:
            continue
        root = fr.resonance_root(params.with_sheet(nu))
        roots.append({
            "nu": nu,
            "z": _complex_pair(root.z),
            "abs_f": root.residual,
            "iterations": root.iterations,
            "angle_residual": root.angle_residual,
        })
    bound = None
    if 0.0 < params.lambda1 < params.a:
        bs = fr.bound_states(params)
        bound = {
            "z0": bs.z0,
            "za": bs.za,
            "abs_f0": bs.residual0,
            "abs_fa": bs.residual_a,
            "z0_asymptote": bs.z0_asymptote(params),
            "za_asymptote": bs.za_asymptote(params),
            "z0_ratio": bs.z0 / bs.z0_asymptote(params),
            "za_gap_ratio": bs.za_offset / bs.za_gap_asymptote(params),
        }
    comparison = None
    if config.contour_json is not None:
        sol = solve_fixed_point(_build_contour(config), config.solve_tol, config.max_iter)
        nu_match = sol.multi_index[0]
        root = fr.resonance_root(params.with_sheet(nu_match))
        solver_root = complex(sol.effective[0, 0])
        comparison = {
            "nu": nu_match,
            "solver": _complex_pair(solver_root),
            "oracle": _complex_pair(root.z),
            "difference": abs(solver_root - root.z),
        }
    return {
        "status": "ok",
        "parameters": {"a": params.a, "lambda1": params.lambda1, "beta": params.beta},
        "resonances": roots,
        "bound_states": bound,
        "solver_comparison": comparison,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _write_outputs(artifact: dict, json_path: str | None, csv_text: str | None,
                   csv_path: str | None, quiet: bool):
    text = _render_json(artifact) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if csv_text is not None and csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if not quiet and not json_path:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resonances",
        description="Resonances of 2x2 operator matrices via continued "
                    "transfer functions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "sweep", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--csv", default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    csv_text = None
    try:
        config = load_config(args.config)
        if config.command is not None and config.command != args.command:
            raise StructuralModelError(
                f"config command {config.command!r} does not match {args.command!r}")
        report = validate_model(config.model)
        if not report.ok:
            artifact = {"status": "invalid-model",
                        "violations": [str(v) for v in report.violations]}
        else:
            run = {"solve": run_solve, "verify": run_verify,
                   "sweep": run_sweep, "oracle": run_oracle}[args.command]
            artifact = run(config)
            if args.command == "sweep":
                csv_text = sweep_csv(artifact["rows"])
    except InadmissibleCertificateError as exc:
        artifact = {"status": "inadmissible", "certificate": _certificate_dict(exc.certificate)}
    except NonconvergenceError as exc:
        if exc.certificate is None:       # a closed-form root finder: no artifact
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_NONCONVERGENCE
        artifact = {"status": "nonconvergence",
                    "certificate": _certificate_dict(exc.certificate),
                    "step_norms": [float(v) for v in exc.history]}
    except IdentityFailureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IDENTITY_FAILURE
    except ResonanceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR

    json_path = args.out or config.json_path
    csv_path = args.csv or config.csv_path
    _write_outputs(artifact, json_path, csv_text, csv_path, args.quiet)
    code = EXIT_CODES[artifact["status"]]
    if code != EXIT_OK:
        sys.stderr.write(f"status: {artifact['status']}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
