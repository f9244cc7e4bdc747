"""Spectral model data and validation of the standing assumptions.

A model consists of a finite Hermitian matrix acting on the internal space,
a list of open real intervals carrying the absolutely continuous spectrum of
the external channel, an optional finite discrete remainder, and a
matrix-valued coupling density that is analytic on declared strips around
the intervals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralModelError

HERMITIAN_RTOL = 1e-12
PSD_RTOL = 1e-12
CONJ_SYM_RTOL = 1e-12


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    a = np.atleast_2d(np.asarray(m))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _norm_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the spectral norms of stacked (..., n, n) matrices.

    ``norm_F / sqrt(n) <= norm_2 <= norm_F``, each widened by 1e-10 relative,
    far above their rounding, so a verdict the bounds settle is the verdict
    the exact norm gives.
    """
    fro = np.linalg.norm(mats, axis=(-2, -1))
    return fro * (1.0 - 1e-10) / math.sqrt(mats.shape[-1]), fro * (1.0 + 1e-10)


def _hermitian_defect(a: np.ndarray, rtol: float) -> float | None:
    """norm(a - a^H) if above rtol * max(norm(a), 1e-300), else None; SVDs past the bounds."""
    defect = a - a.conj().T
    if _norm_bounds(defect)[1] <= rtol * max(_norm_bounds(a)[0], 1e-300):
        return None
    norm = spectral_norm(defect)
    return norm if norm > rtol * max(spectral_norm(a), 1e-300) else None


def _as_complex_matrix(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralModelError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise StructuralModelError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DecaySpec:
    """Declared decay of the coupling density along horizontal rays.

    Guarantees ``norm(K(mu)) <= coeff * (1 + |Re mu|)**(-theta)`` with
    finite ``theta > 1``; required for models with unbounded intervals.
    """

    theta: float
    coeff: float

    def __post_init__(self):
        if not (1.0 < self.theta < math.inf):
            raise StructuralModelError("decay exponent theta must be finite and exceed 1")
        if not (0.0 < self.coeff < math.inf):
            raise StructuralModelError("decay coefficient must be positive and finite")

    def tail(self, t: float) -> float:
        """Upper bound for the integral of the density norm over (t, inf)."""
        return self.coeff * (1.0 + abs(t)) ** (1.0 - self.theta) / (self.theta - 1.0)


@dataclass(frozen=True)
class CouplingFunction:
    """Matrix-valued coupling density, analytic on the declared strips.

    Every kind is a finite sum of known scalar functions times matrices:

    * ``constant-vector``: density ``row* row`` for a constant row vector.
    * ``polynomial-matrix``: entrywise polynomial with Hermitian coefficients.
    * ``rational-matrix``: polynomial numerator over a real scalar
      denominator whose roots must lie outside every strip.
    """

    kind: str
    row: np.ndarray | None = None
    coeffs: tuple[np.ndarray, ...] | None = None
    den: tuple[float, ...] | None = None
    decay: DecaySpec | None = None

    @property
    def dim(self) -> int:
        """Dimension of the internal space the density acts on."""
        return self.row.size if self.row is not None else self.coeffs[0].shape[0]

    @staticmethod
    def constant_vector(row, decay: DecaySpec | None = None) -> "CouplingFunction":
        r = np.array(row, dtype=complex).reshape(-1)
        if r.size == 0 or not np.all(np.isfinite(r.real) & np.isfinite(r.imag)):
            raise StructuralModelError("constant-vector row must be finite and nonempty")
        r.setflags(write=False)
        return CouplingFunction(kind="constant-vector", row=r, decay=decay)

    @staticmethod
    def polynomial(coeffs: Sequence, decay: DecaySpec | None = None) -> "CouplingFunction":
        mats = tuple(_as_complex_matrix(c, f"polynomial coefficient {i}") for i, c in enumerate(coeffs))
        if not mats:
            raise StructuralModelError("polynomial-matrix requires at least one coefficient")
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise StructuralModelError("polynomial coefficients must share one dimension")
        return CouplingFunction(kind="polynomial-matrix", coeffs=mats, decay=decay)

    @staticmethod
    def rational(num_coeffs: Sequence, den_coeffs: Sequence[float],
                 decay: DecaySpec | None = None) -> "CouplingFunction":
        mats = tuple(_as_complex_matrix(c, f"numerator coefficient {i}") for i, c in enumerate(num_coeffs))
        den = tuple(float(d) for d in den_coeffs)
        if not mats or not den or all(d == 0.0 for d in den):
            raise StructuralModelError("rational-matrix requires numerator and nonzero denominator")
        if not all(map(math.isfinite, den)):
            raise StructuralModelError("rational-matrix denominator must be finite")
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise StructuralModelError("numerator coefficients must share one dimension")
        return CouplingFunction(kind="rational-matrix", coeffs=mats, den=den, decay=decay)

    @staticmethod
    def zero(dim: int) -> "CouplingFunction":
        return CouplingFunction.polynomial([np.zeros((dim, dim))])

    def __call__(self, mu) -> np.ndarray:
        """Raw evaluation, without any strip-membership check.

        ``mu`` is one point or an array of points; the result has shape
        ``mu.shape + (n, n)``.
        """
        mu = np.asarray(mu, dtype=complex)
        if self.kind == "constant-vector":
            k = np.outer(np.conj(self.row), self.row)
            return np.broadcast_to(k, mu.shape + k.shape).copy()
        if self.kind == "polynomial-matrix":
            return _power_sum(self.coeffs, mu)
        if self.kind == "rational-matrix":
            return _power_sum(self.coeffs, mu) / _power_sum(self.den, mu)[..., None, None]
        raise StructuralModelError(f"unknown coupling kind {self.kind!r}")


def _power_sum(coeffs, mu: np.ndarray) -> np.ndarray:
    """Sum of ``coeffs[k] * mu**k`` at every point, in increasing powers."""
    p = np.ones(mu.shape + (1,) * np.ndim(coeffs[0]), dtype=complex)
    mu = mu.reshape(p.shape)
    out = np.zeros(np.broadcast_shapes(p.shape, np.shape(coeffs[0])), dtype=complex)
    for c in coeffs:
        out += c * p
        p *= mu
    return out


@dataclass(frozen=True)
class Interval:
    """Open spectral interval with its declared holomorphy strip half-width."""

    lo: float
    hi: float
    strip: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise StructuralModelError("interval endpoints must not be NaN")
        if not (self.lo < self.hi):
            raise StructuralModelError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")
        if not (self.strip > 0.0) or math.isinf(self.strip):
            raise StructuralModelError("strip half-width must be positive and finite")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains_real(self, x: float) -> bool:
        return self.lo < x < self.hi

    def strip_contains(self, z: complex) -> bool:
        """Open strip region: Re z inside the interval, |Im z| < strip."""
        z = complex(z)
        if abs(z.imag) >= self.strip:
            return False
        lo_ok = z.real > self.lo if math.isfinite(self.lo) else True
        hi_ok = z.real < self.hi if math.isfinite(self.hi) else True
        return lo_ok and hi_ok

    def strip_distance(self, z: complex) -> float:
        """Euclidean distance from z to the closed strip region."""
        z = complex(z)
        dx = 0.0
        if math.isfinite(self.lo) and z.real < self.lo:
            dx = self.lo - z.real
        elif math.isfinite(self.hi) and z.real > self.hi:
            dx = z.real - self.hi
        dy = max(0.0, abs(z.imag) - self.strip)
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class DiscretePoint:
    """One point of the external discrete remainder with its weight matrix."""

    nu: float
    weight: np.ndarray

    def __post_init__(self):
        if math.isnan(self.nu) or math.isinf(self.nu):
            raise StructuralModelError("discrete point must be a finite real number")
        object.__setattr__(self, "weight", _as_complex_matrix(self.weight, "discrete weight"))


@dataclass(frozen=True)
class SpectralModel:
    """Full operator data: internal matrix, intervals, remainder, coupling."""

    a1: np.ndarray
    intervals: tuple[Interval, ...]
    discrete: tuple[DiscretePoint, ...]
    coupling: CouplingFunction

    def __init__(self, a1, intervals, discrete=(), coupling=None):
        a = _as_complex_matrix(a1, "a1")
        ivs = tuple(iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals)
        if not ivs:
            raise StructuralModelError("model requires at least one interval")
        pts = tuple(p if isinstance(p, DiscretePoint) else DiscretePoint(*p) for p in discrete)
        if coupling is None:
            coupling = CouplingFunction.zero(a.shape[0])
        if coupling.dim != a.shape[0]:
            raise StructuralModelError(
                f"coupling dimension {coupling.dim} does not match a1 dimension {a.shape[0]}")
        for p in pts:
            if p.weight.shape != a.shape:
                raise StructuralModelError("discrete weight shape does not match a1")
        object.__setattr__(self, "a1", a)
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "discrete", pts)
        object.__setattr__(self, "coupling", coupling)

    @property
    def dim(self) -> int:
        return self.a1.shape[0]

    @property
    def m(self) -> int:
        return len(self.intervals)

    def a1_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the internal matrix (real when Hermitian)."""
        if _hermitian_defect(self.a1, HERMITIAN_RTOL) is None:
            return np.linalg.eigvalsh(self.a1).astype(complex)
        vals = np.linalg.eigvals(self.a1)
        return vals[np.lexsort((vals.imag, vals.real))]


@dataclass(frozen=True)
class Violation:
    assumption: str
    message: str
    severity: str = "error"

    def __str__(self):
        return f"[{self.severity}] {self.assumption}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not any(v.severity == "error" for v in self.violations)

    @property
    def empty(self) -> bool:
        return len(self.violations) == 0

    def __str__(self):
        if self.empty:
            return "validation: all assumptions hold"
        return "\n".join(str(v) for v in self.violations)


def _interval_sample(iv: Interval, count: int) -> np.ndarray:
    """Deterministic real sample points strictly inside the interval."""
    if iv.bounded:
        lo, hi = iv.lo, iv.hi
    elif math.isfinite(iv.lo):
        lo, hi = iv.lo, iv.lo + 10.0 * iv.strip
    elif math.isfinite(iv.hi):
        lo, hi = iv.hi - 10.0 * iv.strip, iv.hi
    else:
        lo, hi = -10.0 * iv.strip, 10.0 * iv.strip
    t = (np.arange(count) + 0.5) / count
    return lo + t * (hi - lo)


def _check_psd(model: SpectralModel, out: list):
    for k, iv in enumerate(model.intervals):
        xs = _interval_sample(iv, 33)
        kms = model.coupling(xs)
        adjoints = kms.conj().transpose(0, 2, 1)
        defects = kms - adjoints
        lowest = np.linalg.eigvalsh(0.5 * (kms + adjoints))[:, 0]
        # samples the norm bounds clear need no SVD
        floor = PSD_RTOL * np.maximum(_norm_bounds(kms)[0], 1e-300)
        clear = (_norm_bounds(defects)[1] <= floor + 1e-300) & (lowest >= -floor)
        for i in np.flatnonzero(~clear):
            x, w0 = xs[i], lowest[i]
            scale = max(spectral_norm(kms[i]), 1e-300)
            herm_defect = spectral_norm(defects[i])
            if herm_defect > PSD_RTOL * scale + 1e-300:
                out.append(Violation(
                    "coupling-psd-on-interval",
                    f"density not Hermitian at mu={x:.6g} in interval {k} "
                    f"(defect {herm_defect:.3e})"))
                break
            if w0 < -PSD_RTOL * scale:
                out.append(Violation(
                    "coupling-psd-on-interval",
                    f"density has eigenvalue {w0:.3e} < 0 at mu={x:.6g} in interval {k}"))
                break


def _check_conjugate_symmetry(model: SpectralModel, out: list):
    for k, iv in enumerate(model.intervals):
        res = _interval_sample(iv, 8)
        mus = np.concatenate([res + 1j * (frac * iv.strip) for frac in (0.3, 0.7)])
        values = model.coupling(mus)
        diffs = model.coupling(np.conj(mus)) - values.conj().transpose(0, 2, 1)
        clear = _norm_bounds(diffs)[1] <= CONJ_SYM_RTOL * (1.0 + _norm_bounds(values)[0])
        for i in np.flatnonzero(~clear):
            mu, defect = mus[i], spectral_norm(diffs[i])
            if defect > CONJ_SYM_RTOL * (1.0 + spectral_norm(values[i])):
                out.append(Violation(
                    "coupling-conjugate-symmetry",
                    f"density(conj(mu)) != density(mu)* at mu={mu:.6g} in interval {k} "
                    f"(defect {defect:.3e})"))
                return


def _check_rational_poles(model: SpectralModel, out: list):
    c = model.coupling
    if c.kind != "rational-matrix":
        return
    den = np.array(c.den[::-1], dtype=float)
    if den.size < 2:
        return
    roots = np.roots(den)
    for r in roots:
        for k, iv in enumerate(model.intervals):
            if iv.strip_distance(r) < 0.05 * iv.strip:
                out.append(Violation(
                    "coupling-pole-location",
                    f"denominator root {r:.6g} lies inside or near the strip of interval {k}"))


def validate_model(model: SpectralModel) -> ValidationReport:
    """Check every standing assumption; return the (possibly empty) report.

    Structural problems raise ``StructuralModelError`` at construction time;
    this function only reports assumption violations, in a fixed order, so
    identical inputs always yield identical reports.
    """
    out: list[Violation] = []

    herm_defect = _hermitian_defect(model.a1, HERMITIAN_RTOL)
    if herm_defect is not None:
        out.append(Violation(
            "hermitian-internal-matrix",
            f"a1 deviates from Hermitian by {herm_defect:.3e}"))

    ivs = model.intervals
    for k in range(len(ivs) - 1):
        if not (ivs[k].hi <= ivs[k + 1].lo):
            out.append(Violation(
                "intervals-sorted-disjoint",
                f"intervals {k} and {k + 1} are not sorted and disjoint"))
    for k in range(len(ivs) - 1):
        if ivs[k].bounded or math.isfinite(ivs[k].hi):
            gap_ok = math.isfinite(ivs[k].hi) and math.isfinite(ivs[k + 1].lo)
            if gap_ok and ivs[k + 1].lo - ivs[k].hi < ivs[k].strip + ivs[k + 1].strip:
                out.append(Violation(
                    "strips-overlap",
                    f"holomorphy strips of intervals {k} and {k + 1} overlap; "
                    "branch identity is not resolved", severity="warning"))

    for j, p in enumerate(model.discrete):
        for k, iv in enumerate(ivs):
            if iv.contains_real(p.nu):
                out.append(Violation(
                    "discrete-point-outside-continuum",
                    f"discrete point inside continuum interval: nu={p.nu} in interval {k}"))
        w = p.weight
        if _hermitian_defect(w, PSD_RTOL) is not None:
            out.append(Violation(
                "discrete-weight-psd", f"weight {j} is not Hermitian"))
        else:
            ev = np.linalg.eigvalsh(w)
            # the lower norm bound screens the threshold; the SVD norm decides
            if ev.size and (ev[0] < -PSD_RTOL * max(_norm_bounds(w)[0], 1e-300)
                            and ev[0] < -PSD_RTOL * max(spectral_norm(w), 1e-300)):
                out.append(Violation(
                    "discrete-weight-psd",
                    f"weight {j} has eigenvalue {ev[0]:.3e} < 0"))

    unbounded = any(not iv.bounded for iv in ivs)
    if unbounded and model.coupling.decay is None:
        out.append(Violation(
            "unbounded-interval-decay",
            "model has an unbounded interval but the coupling declares no decay"))

    _check_psd(model, out)
    _check_conjugate_symmetry(model, out)
    _check_rational_poles(model, out)
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# JSON serialization. Matrices are flat row-major lists of [re, im] pairs.
# ---------------------------------------------------------------------------

def _matrix_pairs(m) -> np.ndarray:
    """The flat row-major [re, im] rows of a matrix or vector, shape (size, 2)."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return np.stack((flat.real, flat.imag), axis=1)


def _reject_unknown_keys(data: dict, allowed, where: str):
    """Raise ``StructuralModelError`` naming the first key of ``data`` nothing reads."""
    for key in data.keys():
        if key not in allowed:
            raise StructuralModelError(f"unknown key {key!r} in {where}")


def _integer(value, name: str) -> int:
    """``value`` as an int; a boolean, a string or a fraction raises ``StructuralModelError``."""
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise StructuralModelError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float; a boolean or a string raises ``StructuralModelError``."""
    if isinstance(value, (bool, str)):
        raise StructuralModelError(f"{name} must be a number, got {value!r}")
    return float(value)


def _matrix_from_json(data, name: str) -> np.ndarray:
    arr = np.array(data, dtype=float)
    if arr.ndim == 3 and arr.shape[-1] == 2:
        # nested rows of [re, im] pairs
        return (arr[..., 0] + 1j * arr[..., 1]).astype(complex)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        flat = arr[:, 0] + 1j * arr[:, 1]
        n = math.isqrt(flat.size)
        if n * n != flat.size:
            raise StructuralModelError(f"{name}: flat matrix length {flat.size} is not a square")
        return flat.reshape(n, n)
    raise StructuralModelError(f"{name}: expected a list of [re, im] pairs")


def _endpoint_to_json(x: float) -> float | str:
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def _endpoint_from_json(v) -> float:
    if isinstance(v, str):
        s = v.replace("−", "-").replace("+", "").strip()
        if s in ("inf", "-inf"):
            return math.inf if not s.startswith("-") else -math.inf
        raise StructuralModelError(f"bad interval endpoint {v!r}")
    return _real(v, "interval endpoint")


def model_to_json_dict(model: SpectralModel) -> dict:
    c = model.coupling
    cj: dict = {"kind": c.kind}
    if c.kind == "constant-vector":
        cj["row"] = _matrix_pairs(c.row).tolist()
    elif c.kind == "polynomial-matrix":
        cj["coeffs"] = [_matrix_pairs(m).tolist() for m in c.coeffs]
    elif c.kind == "rational-matrix":
        cj["num"] = [_matrix_pairs(m).tolist() for m in c.coeffs]
        cj["den"] = [float(d) for d in c.den]
    if c.decay is not None:
        cj["decay"] = {"theta": c.decay.theta, "coeff": c.decay.coeff}
    return {
        "a1": _matrix_pairs(model.a1).tolist(),
        "intervals": [
            {"lo": _endpoint_to_json(iv.lo), "hi": _endpoint_to_json(iv.hi), "strip": iv.strip}
            for iv in model.intervals
        ],
        "discrete": [
            {"nu": p.nu, "k": _matrix_pairs(p.weight).tolist()} for p in model.discrete
        ],
        "coupling": cj,
    }


# the keys each coupling kind is read for, besides "kind" and "decay"
_COUPLING_KEYS = {"constant-vector": ("row",), "polynomial-matrix": ("coeffs",),
                  "rational-matrix": ("num", "den")}


def model_from_json_dict(data: dict) -> SpectralModel:
    """The model a JSON dict describes; a key that nothing reads raises ``StructuralModelError``."""
    try:
        _reject_unknown_keys(data, ("a1", "intervals", "discrete", "coupling"), "model")
        a1 = _matrix_from_json(data["a1"], "a1")
        intervals = []
        for iv in data["intervals"]:
            _reject_unknown_keys(iv, ("lo", "hi", "strip"), "interval")
            intervals.append(Interval(_endpoint_from_json(iv["lo"]),
                                      _endpoint_from_json(iv["hi"]),
                                      _real(iv["strip"], "interval strip")))
        discrete = []
        for p in data.get("discrete", []):
            _reject_unknown_keys(p, ("nu", "k"), "discrete point")
            discrete.append(DiscretePoint(_real(p["nu"], "discrete nu"),
                                          _matrix_from_json(p["k"], "discrete weight")))
        cj = data["coupling"]
        kind = cj["kind"]
        if kind not in _COUPLING_KEYS:
            raise StructuralModelError(f"unknown coupling kind {kind!r}")
        _reject_unknown_keys(cj, ("kind", "decay", *_COUPLING_KEYS[kind]), "coupling")
        decay = None
        if cj.get("decay") is not None:
            _reject_unknown_keys(cj["decay"], ("theta", "coeff"), "decay")
            decay = DecaySpec(_real(cj["decay"]["theta"], "decay theta"),
                              _real(cj["decay"]["coeff"], "decay coeff"))
        if kind == "constant-vector":
            row = np.array([complex(re, im) for re, im in cj["row"]])
            coupling = CouplingFunction.constant_vector(row, decay)
        elif kind == "polynomial-matrix":
            coupling = CouplingFunction.polynomial(
                [_matrix_from_json(m, "coefficient") for m in cj["coeffs"]], decay)
        else:
            coupling = CouplingFunction.rational(
                [_matrix_from_json(m, "numerator coefficient") for m in cj["num"]],
                [_real(d, "rational den") for d in cj["den"]], decay)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructuralModelError(f"malformed model JSON: {exc}") from exc
    return SpectralModel(a1, intervals, discrete, coupling)


def model_dumps(model: SpectralModel) -> str:
    return json.dumps(model_to_json_dict(model), indent=2)

