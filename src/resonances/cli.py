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
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import contour as ct
from . import friedrichs as fr
from . import spectral as sp
from .errors import (
    GeometryError,
    IdentityFailureError,
    InadmissibleCertificateError,
    NonconvergenceError,
    ResonanceError,
    StructuralModelError,
    UnsupportedModelError,
)
from .model import (SpectralModel, _integer, _matrix_pairs, _real, _reject_unknown_keys,
                    model_from_json_dict, spectral_norm, validate_model)
from .solver import (DEFAULT_MAX_ITER, DEFAULT_TOL, _solve_rows, adjoint_equation_residual,
                     fixed_point_residual, solve_fixed_point)

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
# the keys each config block is read for; the contour's are checked where it is parsed
_CONFIG_KEYS = {"config": ("command", "model", "model_path", "contour", "tolerances",
                           "max_iter", "sweep", "oracle", "output"),
                "tolerances": tuple(DEFAULT_TOLERANCES), "sweep": ("parameter", "grid"),
                "oracle": ("nu",), "output": ("json_path", "csv_path")}
# Most entries of one (rows, points, n, n) stack in a sweep block, which holds
# at least one row. Batching pays at small n; with 96 nodes, blocks of 2 n=16
# rows evaluated F more slowly per row than 1, and made a sweep 15% slower.
_SWEEP_BLOCK_ELEMENTS = 1 << 13
_SAMPLE_DRAWS = 50  # draws per verify sample point before it raises GeometryError


# ---------------------------------------------------------------------------
# Deterministic JSON rendering (17 significant digits)
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % x
    return format(float(x), ".17g")


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
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        # rows of floats, such as the [re, im] pairs of a matrix, in one pass
        items = ["[" + ", ".join(map(_fmt_float, row)) + "]" for row in obj.tolist()]
    elif isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
            # floats (numpy float64 included) straight to _fmt_float: one pass
            return "[" + ", ".join(_fmt_float(v) if isinstance(v, float) else _render_json(v)
                                   for v in obj) + "]"
        items = [_render_json(v, indent + 1) for v in obj]
    else:
        raise TypeError(f"cannot render {type(obj)!r}")
    if not items:
        return "[]"
    return "[\n" + ",\n".join(f"{pad}  {v}" for v in items) + "\n" + pad + "]"


def _complex_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


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
    """Read a JSON config; a missing, malformed or unknown field raises ``StructuralModelError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StructuralModelError(f"cannot read config {path}: {exc}") from exc
    try:
        for block, allowed in _CONFIG_KEYS.items():
            fields = data if block == "config" else data.get(block)
            if fields is not None:
                _reject_unknown_keys(fields, allowed, block)
        if "model" in data and "model_path" in data:
            raise StructuralModelError("config takes 'model' or 'model_path', not both")
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
        tol = {key: _real(value, f"tolerance {key}") for key, value in tol.items()}
        for key, value in tol.items():
            if not (0.0 < value < math.inf):
                raise StructuralModelError(f"tolerance {key} must be positive and finite, "
                                           f"got {value}")
        sweep = data.get("sweep")
        if sweep is not None:
            grid = sweep.get("grid")
            if not grid or not all(math.isfinite(_real(g, "sweep grid")) for g in grid):
                raise StructuralModelError("sweep grid must be nonempty and finite")
        max_iter = _integer(data.get("max_iter", DEFAULT_MAX_ITER), "max_iter")
        if max_iter < 1:
            raise StructuralModelError(f"max_iter must be at least 1, got {max_iter}")
        output = data.get("output", {})
        return RunConfig(
            command=data.get("command"),
            model=model,
            contour_json=data.get("contour"),
            quad_tol=tol["quad_tol"],
            solve_tol=tol["solve_tol"],
            id_tol=tol["id_tol"],
            sweep=sweep,
            oracle_nu=tuple(_integer(v, "oracle nu")
                            for v in data.get("oracle", {}).get("nu", (1, -1))),
            json_path=output.get("json_path"),
            csv_path=output.get("csv_path"),
            max_iter=max_iter,
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise StructuralModelError(f"malformed config {path}: {exc}") from exc


def _build_contour(config: RunConfig) -> ct.Contour:
    if config.contour_json is None:
        raise StructuralModelError("config requires a 'contour' spec")
    spec = ct.contour_spec_from_json(config.contour_json)
    return ct.build_contour(config.model, *spec, config.quad_tol)


def _real_band(bound: float, scale: float) -> float:
    """Half-width of the band about the real axis whose eigenvalues are tagged real."""
    return max(10.0 * bound, 1e-9 * scale)


def _tag_eigenvalues(sol, dec) -> list:
    real_band = _real_band(sol.a_posteriori_bound, dec.scale)
    rows = []
    for lam, algebraic, pole_order in zip(dec.eigenvalues, dec.algebraic, dec.pole_orders):
        tag = "real" if abs(lam.imag) <= real_band else "complex"
        interval = next((k for k, iv in enumerate(sol.model.intervals) if iv.strip_contains(lam)
                         or (tag == "real" and iv.contains_real(lam.real))), None)
        rows.append({"re": float(lam.real), "im": float(lam.imag), "tag": tag,
                     "half_plane": 0 if tag == "real" else (1 if lam.imag > 0 else -1),
                     "interval": interval, "algebraic_multiplicity": algebraic,
                     "pole_order": pole_order})
    return rows


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def run_solve(config: RunConfig) -> dict:
    """Solve once; emit certificate, solution matrices, tagged eigenvalues."""
    sol = solve_fixed_point(_build_contour(config), config.solve_tol, config.max_iter)
    residual = fixed_point_residual(sol)
    dec = sp.eigen_decompose(sol)
    return {
        "status": "ok",
        "certificate": asdict(sol.certificate),
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
    fine = ct.double_order(base)      # the quadrature cross-check, read at the base pair

    sol = solve_fixed_point(base, config.solve_tol, config.max_iter)
    sol_m = solve_fixed_point(ct.mirrored(base), config.solve_tol, config.max_iter)

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
        clearance = max(1e-6 * base.diameter, 100.0 * base.quad_tol * base.diameter + 1e-12)
        for _ in range(_SAMPLE_DRAWS * count):
            lam = complex(eigs_a1[rng.integers(0, len(eigs_a1))])
            r = (0.05 + 0.9 * rng.random()) * cert.d0 / 2.0
            z = lam + r * np.exp(2j * math.pi * rng.random())
            if base.distance(z) > clearance:
                pts.append(z)
                if len(pts) == count:
                    return np.array(pts)
        raise GeometryError(
            f"no factorization sample point within d0/2 = {cert.d0 / 2.0:.3e} of the levels "
            f"clears the contour by {clearance:.3e} in {_SAMPLE_DRAWS * count} draws")

    zs = sample_points(20)
    add("factorization", np.max(sp.factorize(sol, zs).residual), alg_tol)

    fine_metric_inv = np.linalg.inv(sp.overlap_operator(sol, sol_m, fine).metric())
    gamma = sp.enclosure_circles(sol)
    moments = sp.contour_moment(sol, sol_m, gamma)
    add("resolvent-moment-0", spectral_norm(moments.m0 - fine_metric_inv), id_tol)

    r1 = spectral_norm(moments.m1 - fine_metric_inv @ sol_m.effective.conj().T)
    r2 = spectral_norm(moments.m1 - sol.effective @ fine_metric_inv)
    add("resolvent-moment-1", max(r1, r2), id_tol)

    dec = sp.eigen_decompose(sol)
    dec_m = sp.eigen_decompose(sol_m)
    residues = [sp.residue_at(sol, dec, dec_m, fine_metric_inv, lam) for lam in dec.eigenvalues]
    add("residue-projection-product",
        max(max(r.residual_vs_adjoint_projection, r.residual_vs_projection) for r in residues),
        id_tol)

    pn = sp.verify_projection_equations(fine, sol, dec)
    add("projection-equations", pn.max_residual, id_tol)

    add("adjoint-symmetry", adjoint_equation_residual(sol, sol_m), alg_tol)

    e_l = np.sort_complex(sol.eigensystem[0])
    e_m = np.sort_complex(np.conj(sol_m.eigensystem[0]))
    add("mirror-spectrum", float(np.max(np.abs(e_l - e_m))), alg_tol)

    try:
        band = _real_band(sol.a_posteriori_bound, dec.scale)
        real_eigs = [ev.real for ev in dec.eigenvalues if abs(ev.imag) <= band]
        gram = sp.riesz_gram(dec, dec_m, sp.overlap_operator(sol, sol_m).metric(), real_eigs)
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


def run_sweep(config: RunConfig) -> dict:
    """Solve across the parameter grid; rows ordered by grid index.

    The grid shares one contour: a grid point changes only the coupling data
    on the contour. Each block of grid points is certified and solved by one
    ``_solve_rows`` call and takes one batched eigenvalue pass; each row
    equals solving its grid point alone.
    """
    if config.sweep is None:
        raise StructuralModelError("sweep command requires a 'sweep' config block")
    grid = [float(g) for g in config.sweep["grid"]]
    parameter = config.sweep.get("parameter", "beta")
    if parameter != "beta":
        raise StructuralModelError(f"unsupported sweep parameter {parameter!r}")
    model = config.model
    if model.coupling.kind != "constant-vector":
        raise UnsupportedModelError("beta sweep requires the constant-vector coupling")
    row = np.asarray(model.coupling.row)
    norm = np.linalg.norm(row)
    unit = row / norm if norm > 0 else np.eye(1, row.size)[0]
    base = _build_contour(config)
    block = max(1, _SWEEP_BLOCK_ELEMENTS // base.quad_values.size)
    rows = []
    for start in range(0, len(grid), block):
        rows += _sweep_block(config, base, unit, grid[start:start + block])
    return {"status": "ok", "rows": rows}


def _sweep_block(config: RunConfig, base: ct.Contour, unit: np.ndarray,
                 grid: list[float]) -> list[dict]:
    """Rows of consecutive grid points, certified and solved in one batch.

    A point's coupling data on ``base`` is the discrete weights, then
    ``conj(r) r^T`` with ``r = unit * value`` at every node.
    """
    model = config.model
    discrete = len(model.discrete)
    values = np.empty((len(grid), *base.quad_values.shape), dtype=complex)
    values[:, :discrete] = base.quad_values[:discrete]
    for row, value in zip(values, grid):
        r = unit * value
        row[discrete:] = np.outer(np.conj(r), r)
    results = _solve_rows(base, values, config.solve_tol, config.max_iter)
    solved = [g for g, result in enumerate(results) if not isinstance(result, Exception)]
    effective = np.array([model.a1 + results[g][1] for g in solved])   # (0,) when none solved
    spectra = dict(zip(solved, sp._spectra(effective.reshape(-1, *model.a1.shape))))
    rows = []
    for g, (value, result) in enumerate(zip(grid, results)):
        if g not in spectra:
            status = ("nonconvergence" if isinstance(result, NonconvergenceError)
                      else "inadmissible")
            rows.append({"parameter": value, "status": status})
            continue
        cert, _, steps, bound = result
        eigenvalues, scale = spectra[g]
        band = _real_band(bound, scale)
        rows += [{"parameter": value, "status": "ok", "eig_index": rank, "re": lam.real,
                  "im": lam.imag, "tag": "real" if abs(lam.imag) <= band else "complex",
                  "r_min": cert.r_min, "iterations": len(steps)}
                 for rank, lam in enumerate(sorted(eigenvalues, key=lambda z: (z.real, z.imag)))]
    return rows


def sweep_csv(rows: list[dict]) -> str:
    """The CSV of a sweep artifact's rows, one line per row, floats at 17 digits."""
    lines = ["parameter,eig_index,re_lambda,im_lambda,tag,r_min,iterations,status"]
    columns = ("eig_index", "re", "im", "tag", "r_min", "iterations")
    for r in rows:
        fields = [r[k] if r["status"] == "ok" else "" for k in columns]
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in (r["parameter"], *fields, r["status"])))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
        artifact = {"status": "inadmissible", "certificate": asdict(exc.certificate)}
    except NonconvergenceError as exc:
        if exc.certificate is None:       # a closed-form root finder: no artifact
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_NONCONVERGENCE
        artifact = {"status": "nonconvergence",
                    "certificate": asdict(exc.certificate),
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
