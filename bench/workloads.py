"""Seeded inputs for the benchmark workloads.

Every workload is a list of ops; an op is a list of CLI calls. Each call
carries the JSON config the program receives, the exit code the README
contract expects, and the facts the output checks need. Generation uses
only numpy and the standard library, so the inputs do not depend on the
code under test, and the same seed always gives byte-identical configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep-n1", "verify-poly", "solve-suite")

# Admissibility threshold of the symmetric Friedrichs model (R=1, interval
# (0, 2), semicircle contour): v0 = pi * beta^2 reaches d0^2 / 4 = 1/4 here.
BETA_THRESHOLD = math.sqrt(1.0 / (4.0 * math.pi))

SEMICIRCLE = {"shape": "semicircle", "l": [1], "panels": 6, "points": 16}

SWEEP_GRID_POINTS = 48
SWEEP_GRIDS = 4          # distinct sweep ops per seed, cycled
VERIFY_MODELS = 8        # distinct n=16 models per seed, cycled
VERIFY_DIM = 16
SUITE_POLY_DIMS = (4, 24)


@dataclass
class Call:
    """One CLI invocation: ``resonances <command> --config <config>``."""

    command: str
    config: dict
    expect_code: int
    facts: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        """Work items this call completes (beta grid points for a sweep)."""
        return len(self.facts.get("grid", ())) or 1


def _pairs(m: np.ndarray) -> list:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unit_complex(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g * (norm / np.linalg.norm(g, 2))


def _squared_poly_coeffs(rng: np.random.Generator, n: int, tilt: float,
                         scale: float) -> list:
    """Coefficients of scale*(g0 + mu g1)^H (g0 + mu g1), PSD for real mu."""
    g0 = _unit_complex(rng, n, 1.0)
    g1 = _unit_complex(rng, n, tilt)
    c0 = scale * (g0.conj().T @ g0)
    c1 = scale * (g0.conj().T @ g1 + g1.conj().T @ g0)
    c2 = scale * (g1.conj().T @ g1)
    return [_pairs(c) for c in (c0, c1, c2)]


def _hermitian_with_levels(rng: np.random.Generator, levels) -> np.ndarray:
    u = _random_unitary(rng, len(levels))
    a1 = u @ np.diag(levels) @ u.conj().T
    return 0.5 * (a1 + a1.conj().T)


def poly_model(rng: np.random.Generator, n: int) -> dict:
    """Polynomial-coupling model in the style of ``tests/conftest.py``.

    The levels are spread over (1.2, 2.8) inside the interval (0, 4) with a
    jitter of a fifth of their spacing, so no two levels come closer than
    0.6 spacings and the effective spectrum clusters cleanly.
    """
    base = np.linspace(1.2, 2.8, n)
    spacing = base[1] - base[0] if n > 1 else 1.0
    levels = base + rng.uniform(-0.2, 0.2, n) * spacing
    return {
        "a1": _pairs(_hermitian_with_levels(rng, levels)),
        "intervals": [{"lo": 0.0, "hi": 4.0, "strip": 2.6}],
        "discrete": [],
        "coupling": {"kind": "polynomial-matrix",
                     "coeffs": _squared_poly_coeffs(rng, n, 0.15, 0.01)},
    }


def friedrichs_model(beta: float) -> dict:
    """Single level R=1 on (0, 2) with constant coupling beta."""
    return {
        "a1": [[1.0, 0.0]],
        "intervals": [{"lo": 0.0, "hi": 2.0, "strip": 4.0}],
        "discrete": [],
        "coupling": {"kind": "constant-vector", "row": [[beta, 0.0]]},
    }


def two_interval_model(rng: np.random.Generator) -> dict:
    """n=3 model with levels in, between and beyond two intervals."""
    levels = np.array([0.5, 2.5, 4.0]) + rng.uniform(-0.03, 0.03, 3)
    return {
        "a1": _pairs(_hermitian_with_levels(rng, levels)),
        "intervals": [{"lo": 0.0, "hi": 1.0, "strip": 0.45},
                      {"lo": 2.0, "hi": 3.0, "strip": 0.45}],
        "discrete": [],
        "coupling": {"kind": "polynomial-matrix",
                     "coeffs": _squared_poly_coeffs(rng, 3, 0.1, 0.0025)},
    }


def unbounded_model(rng: np.random.Generator) -> dict:
    """Level near 3 on (0, inf) with a rational density decaying like mu^-4."""
    level = 3.0 + float(rng.uniform(-0.2, 0.2))
    return {
        "a1": [[level, 0.0]],
        "intervals": [{"lo": 0.0, "hi": "+inf", "strip": 0.5}],
        "discrete": [],
        "coupling": {"kind": "rational-matrix", "num": [[[0.001, 0.0]]],
                     "den": [1.0, 0.0, 0.0, 0.0, 1.0],
                     "decay": {"theta": 4.0, "coeff": 0.001}},
    }


def discrete_model(rng: np.random.Generator) -> dict:
    """Embedded level plus one discrete external point at -2."""
    return {
        "a1": [[0.5 + float(rng.uniform(-0.05, 0.05)), 0.0]],
        "intervals": [{"lo": 0.0, "hi": 1.0, "strip": 0.6}],
        "discrete": [{"nu": -2.0, "k": [[float(rng.uniform(0.015, 0.025)), 0.0]]}],
        "coupling": {"kind": "constant-vector",
                     "row": [[float(rng.uniform(0.08, 0.12)), 0.0]]},
    }


def _config(command: str, model: dict, contour: dict, **extra) -> dict:
    config = {"command": command, "model": model, "contour": contour}
    config.update(extra)
    return config


def _jittered(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform point in each of ``count`` equal cells of (lo, hi).

    Stratifying keeps the total work of a grid nearly the same from seed to
    seed, while every point still moves with the seed.
    """
    return lo + (np.arange(count) + rng.random(count)) * ((hi - lo) / count)


def _beta_grid(rng: np.random.Generator) -> list:
    """48 increasing betas: 40 admissible ones, then 8 past the threshold.

    The admissible part stops at 0.27, where the certified contraction
    factor is about 0.55, so every admissible point converges well inside
    the default iteration cap.
    """
    below = _jittered(rng, 0.03, 0.27, SWEEP_GRID_POINTS - 8)
    above = _jittered(rng, BETA_THRESHOLD + 0.01, BETA_THRESHOLD + 0.08, 8)
    return [float(v) for v in np.concatenate([below, above])]


def sweep_ops(rng: np.random.Generator) -> list:
    ops = []
    for _ in range(SWEEP_GRIDS):
        grid = _beta_grid(rng)
        beta = float(rng.uniform(0.05, 0.26))
        ops.append([
            Call("sweep", _config("sweep", friedrichs_model(0.1), SEMICIRCLE,
                                  sweep={"parameter": "beta", "grid": grid}),
                 0, {"grid": grid}),
            Call("oracle", _config("oracle", friedrichs_model(beta), SEMICIRCLE,
                                   oracle={"nu": [1, -1]}),
                 0, {"beta": beta}),
        ])
    return ops


def verify_ops(rng: np.random.Generator) -> list:
    return [[Call("verify", _config("verify", poly_model(rng, VERIFY_DIM), SEMICIRCLE), 0)]
            for _ in range(VERIFY_MODELS)]


def suite_ops(rng: np.random.Generator) -> list:
    """One op: solve every model of the fixed suite once."""
    semi2 = dict(SEMICIRCLE, l=[1, -1], radius=0.4)
    rect = {"shape": "rectangle", "depth": 0.3, "l": [1], "panels": 6, "points": 16}
    inadmissible_beta = float(rng.uniform(BETA_THRESHOLD + 0.08, BETA_THRESHOLD + 0.16))
    calls = [
        Call("solve", _config("solve", two_interval_model(rng), semi2), 0, {"n": 3}),
        Call("solve", _config("solve", unbounded_model(rng), rect,
                              tolerances={"quad_tol": 1e-8}), 0, {"n": 1}),
        Call("solve", _config("solve", discrete_model(rng), SEMICIRCLE), 0, {"n": 1}),
    ]
    for n in SUITE_POLY_DIMS:
        calls.append(Call("solve", _config("solve", poly_model(rng, n), SEMICIRCLE), 0, {"n": n}))
    calls.append(Call("solve", _config("solve", friedrichs_model(inadmissible_beta), SEMICIRCLE),
                      2, {"n": 1}))
    return [calls]


def generate(workload: str, seed: int) -> list:
    """Ops of one workload, a pure function of the workload name and seed."""
    makers = {"sweep-n1": sweep_ops, "verify-poly": verify_ops, "solve-suite": suite_ops}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    return makers[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
