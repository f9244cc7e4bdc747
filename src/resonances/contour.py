"""Deformation contours, quadrature, variations, and solvability certificates.

A contour replaces each spectral interval by a curve displaced into the half
plane selected by the corresponding multi-index entry. Three curve families
are supported: a semicircular detour (with flat continuation segments so the
curve endpoints always coincide with the interval endpoints), a rectangle,
and the degenerate flat curve (the interval itself, for reference
computations). Quadrature is composite Gauss-Legendre per smooth section,
with panels split at the parametrization corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GeometryError,
    InadmissibleCertificateError,
    PairingError,
    StructuralModelError,
    UnsupportedModelError,
)
from .model import Interval, SpectralModel, _integer, _reject_unknown_keys

DEFAULT_ORDER = (6, 16)
DEFAULT_QUAD_TOL = 1e-10
GUARD_FRACTION = 1e-8  # guard band as a fraction of the contour diameter
_TAIL_BUDGET = 1e-3  # fraction of quad_tol allowed in a truncated ray tail


@lru_cache(maxsize=64)
def _gauss_legendre(points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    return x, w


# ---------------------------------------------------------------------------
# Curve specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Semicircle:
    """Semicircular detour from center-radius to center+radius.

    Defaults to the full half-circle over the interval. A smaller radius
    produces a detour joined to the interval by flat segments, so the piece
    endpoints still coincide with the interval endpoints.
    """

    center: float | None = None
    radius: float | None = None


@dataclass(frozen=True)
class Rectangle:
    """Rectangular displacement at the given depth.

    For unbounded intervals the horizontal ray is truncated where the
    declared coupling decay makes the tail negligible.
    """

    depth: float


@dataclass(frozen=True)
class Flat:
    """The interval itself; degenerate curve for reference computations."""


CurveSpec = Semicircle | Rectangle | Flat


# ---------------------------------------------------------------------------
# Smooth sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Section:
    """One smooth curve section: a line segment or a half-circle arc.

    Arcs are parametrized as ``center + radius*(cos s + 1j*l*sin s)`` with
    ``s`` running from pi to 0, so the mirror contour has exactly conjugate
    nodes and weights.
    """

    kind: str  # "segment" | "arc"
    start: complex
    end: complex
    center: float = 0.0
    radius: float = 0.0
    half_plane: int = 0

    def point(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "segment":
            return self.start + u * (self.end - self.start)
        s = math.pi * (1.0 - u)
        return self.center + self.radius * (np.cos(s) + 1j * self.half_plane * np.sin(s))

    def velocity(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "segment":
            return np.full_like(u, self.end - self.start, dtype=complex)
        s = math.pi * (1.0 - u)
        return math.pi * self.radius * (np.sin(s) - 1j * self.half_plane * np.cos(s))

    def distance_to(self, z):
        """Exact distance from a point or an array of points to the section."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "segment":
            d = self.end - self.start
            L2 = abs(d) ** 2
            v = z - self.start
            if L2 == 0.0:
                return np.hypot(v.real, v.imag)
            t = np.clip((v.real * d.real + v.imag * d.imag) / L2, 0.0, 1.0)
            w = z - (self.start + t * d)
            return np.hypot(w.real, w.imag)
        v = z - self.center
        r = np.hypot(v.real, v.imag)
        ang = np.arctan2(v.imag, v.real)
        if self.half_plane > 0:
            in_span = (0.0 <= ang) & (ang <= math.pi)
        else:
            in_span = (-math.pi <= ang) & (ang <= 0.0)
        a, b = z - self.start, z - self.end
        ends = np.minimum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag))
        return np.where((r == 0.0) | in_span, np.abs(r - self.radius), ends)


@dataclass(frozen=True, eq=False)
class Piece:
    """Contour piece for one interval: spec, smooth sections, diagnostics."""

    spec: CurveSpec
    sections: tuple[Section, ...]
    nodes: np.ndarray
    weights: np.ndarray
    tail_bound: float


@dataclass(frozen=True, eq=False)
class Contour:
    """Quadrature-ready deformation contour for one model.

    Besides the curve nodes and weights it carries the integration data of
    every self-energy sum: the discrete remainder points first (weight 1,
    value the weight matrix), then the quadrature nodes (their weights, the
    coupling density at the node). ``model`` is the model the data was
    computed from; every sum over the contour is a sum for that model.
    """

    multi_index: tuple[int, ...]
    pieces: tuple[Piece, ...]
    panels: int
    points: int
    quad_tol: float
    nodes: np.ndarray
    weights: np.ndarray
    diameter: float
    quad_points: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)
    quad_values: np.ndarray = field(repr=False)
    model: SpectralModel = field(repr=False)

    @property
    def tail_variation_bound(self) -> float:
        return sum(p.tail_bound for p in self.pieces)

    @property
    def guard(self) -> float:
        """Points this close to the integration set are not evaluated."""
        return GUARD_FRACTION * self.diameter

    def distance(self, z):
        """Distance from z to the integration set: remainder points and curve.

        ``z`` is a point, giving a float, or an array, giving distances in
        its shape. The remainder points head ``quad_points``.
        """
        z = np.asarray(z, dtype=complex)
        v = z[..., None] - self.quad_points[:len(self.model.discrete)]
        found = [np.hypot(v.real, v.imag).min(axis=-1, initial=math.inf)]
        found += [s.distance_to(z) for piece in self.pieces for s in piece.sections]
        d = np.min(found, axis=0)
        return float(d) if d.ndim == 0 else d


def normalize_multi_index(l, m: int) -> tuple[int, ...]:
    idx = tuple(int(v) for v in (l if isinstance(l, (list, tuple, np.ndarray)) else [l]))
    if len(idx) != m:
        raise StructuralModelError(f"multi-index length {len(idx)} != interval count {m}")
    if any(v not in (-1, 1) for v in idx):
        raise StructuralModelError("multi-index entries must be +1 or -1")
    return idx


def _gl_panelize(section: Section, breakpoints: np.ndarray, points: int):
    """Composite Gauss-Legendre nodes/weights along one smooth section.

    ``breakpoints`` cut the section parameter range [0, 1] into panels; every
    panel's nodes are laid at once.
    """
    x, w = _gauss_legendre(points)
    mid = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    half = 0.5 * (breakpoints[1:] - breakpoints[:-1])
    u = (mid[:, None] + half[:, None] * x).reshape(-1)
    return section.point(u), section.velocity(u) * (half[:, None] * w).reshape(-1)


def _truncation_length(model: SpectralModel, iv: Interval, quad_tol: float) -> float:
    decay = model.coupling.decay
    if decay is None:
        raise UnsupportedModelError(
            "unbounded interval requires a declared coupling decay")
    budget = _TAIL_BUDGET * quad_tol
    t = (decay.coeff / ((decay.theta - 1.0) * budget)) ** (1.0 / (decay.theta - 1.0)) - 1.0
    return max(t, 1.0)


def _ray_breakpoints(iv: Interval, length: float, panels: int) -> np.ndarray:
    """Panel breakpoints on [0, 1] along the truncated ray over an unbounded interval.

    Cells double in length, from twice the strip half-width, outward from the
    interval's finite end, or from the middle of the ray when both ends are
    infinite; each cell holds ``panels`` equal panels. When the stretch to
    grade (the ray, or each half of a two-sided one) is no longer than 8
    strip half-widths, the ray gets ``panels`` equal panels instead.
    """
    two_sided = not (math.isfinite(iv.lo) or math.isfinite(iv.hi))
    span = 0.5 * length if two_sided else length
    if span <= 8.0 * iv.strip:
        return np.linspace(0.0, 1.0, panels + 1)
    cuts = [0.0]
    pos = 0.0
    step = 2.0 * iv.strip
    while pos + step < span:
        pos += step
        cuts.append(pos / span)
        step *= 2.0
    cuts.append(1.0)
    cuts = np.array(cuts)
    if two_sided:
        cuts = np.concatenate([0.5 - 0.5 * cuts[:0:-1], 0.5 + 0.5 * cuts])
    elif math.isfinite(iv.hi):
        cuts = 1.0 - cuts[::-1]
    refined = np.linspace(cuts[:-1], cuts[1:], panels + 1, axis=1)[:, :-1]
    return np.append(refined, 1.0)


def _build_piece(model: SpectralModel, k: int, iv: Interval, spec: CurveSpec,
                 lk: int, panels: int, points: int, quad_tol: float) -> Piece:
    uniform = np.linspace(0.0, 1.0, panels + 1)
    laid: list[tuple[Section, np.ndarray]] = []  # each section with its panel breakpoints
    tail_bound = 0.0

    if isinstance(spec, Flat):
        if not iv.bounded:
            raise UnsupportedModelError(
                f"flat curve is not available on the unbounded interval {k}")
        laid.append((Section("segment", complex(iv.lo), complex(iv.hi)), uniform))

    elif isinstance(spec, Semicircle):
        if not iv.bounded:
            raise GeometryError(f"semicircle requires a bounded interval (interval {k})")
        c = spec.center if spec.center is not None else 0.5 * (iv.lo + iv.hi)
        r = spec.radius if spec.radius is not None else 0.5 * (iv.hi - iv.lo)
        if not (r > 0.0):
            raise GeometryError(f"semicircle radius must be positive (interval {k})")
        if c - r < iv.lo - 1e-12 * (iv.hi - iv.lo) or c + r > iv.hi + 1e-12 * (iv.hi - iv.lo):
            raise GeometryError(
                f"semicircle [{c - r:.6g}, {c + r:.6g}] exits interval {k} "
                f"({iv.lo:.6g}, {iv.hi:.6g})")
        if r >= iv.strip:
            raise GeometryError(
                f"semicircle radius {r:.6g} reaches outside the holomorphy strip "
                f"(half-width {iv.strip:.6g}) of interval {k}")
        eps = 1e-14 * (iv.hi - iv.lo)
        if c - r - iv.lo > eps:
            laid.append((Section("segment", complex(iv.lo), complex(c - r)), uniform))
        laid.append((Section("arc", complex(c - r), complex(c + r),
                             center=c, radius=r, half_plane=lk), uniform))
        if iv.hi - (c + r) > eps:
            laid.append((Section("segment", complex(c + r), complex(iv.hi)), uniform))

    elif isinstance(spec, Rectangle):
        d = spec.depth
        if not (0.0 < d < iv.strip):
            raise GeometryError(
                f"rectangle depth {d:.6g} must lie strictly inside the strip "
                f"(half-width {iv.strip:.6g}) of interval {k}")
        lift = 1j * lk * d
        lo_f, hi_f = math.isfinite(iv.lo), math.isfinite(iv.hi)
        if iv.bounded:
            lo, hi, ray = iv.lo, iv.hi, uniform
        else:
            t = _truncation_length(model, iv, quad_tol)
            tail_bound = (2 - lo_f - hi_f) * model.coupling.decay.tail(t)  # one per cut tail
            lo = iv.lo if lo_f else -t
            hi = iv.hi if hi_f else t
            if lo >= hi:
                raise GeometryError(f"truncated rectangle is empty on interval {k}")
            ray = _ray_breakpoints(iv, hi - lo, panels)
        if lo_f:
            laid.append((Section("segment", complex(lo), lo + lift), uniform))
        laid.append((Section("segment", lo + lift, hi + lift), ray))
        if hi_f:
            laid.append((Section("segment", hi + lift, complex(hi)), uniform))

    else:
        raise StructuralModelError(f"unknown curve spec {spec!r}")

    nodes, weights = (np.concatenate(parts) for parts in
                      zip(*(_gl_panelize(s, b, points) for s, b in laid)))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    sections = tuple(s for s, _ in laid)
    return Piece(spec, sections, nodes, weights, tail_bound)


def build_contour(model: SpectralModel, spec, l, order=DEFAULT_ORDER,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> Contour:
    """Build the quadrature contour for a model and multi-index.

    ``spec`` is a single curve spec applied to every interval, or a sequence
    with one spec per interval. ``order`` is (panels, points-per-panel); the
    panels are laid per smooth section, split at parametrization corners.
    """
    m = model.m
    idx = normalize_multi_index(l, m)
    if isinstance(spec, (Semicircle, Rectangle, Flat)):
        specs = [spec] * m
    else:
        specs = list(spec)
        if len(specs) != m:
            raise StructuralModelError(
                f"got {len(specs)} curve specs for {m} intervals")
    panels, points = int(order[0]), int(order[1])
    if panels < 1 or points < 1:
        raise StructuralModelError("quadrature order must be positive")

    pieces = tuple(
        _build_piece(model, k, iv, specs[k], idx[k], panels, points, quad_tol)
        for k, iv in enumerate(model.intervals)
    )
    nodes = np.concatenate([p.nodes for p in pieces])
    weights = np.concatenate([p.weights for p in pieces])
    nodes.setflags(write=False)
    weights.setflags(write=False)

    quad_points = np.concatenate([[complex(p.nu) for p in model.discrete], nodes])
    quad_weights = np.concatenate([np.ones(len(model.discrete), dtype=complex), weights])
    quad_values = np.concatenate([
        np.reshape([p.weight for p in model.discrete], (-1, model.dim, model.dim)),
        model.coupling(nodes)])
    for data in (quad_points, quad_weights, quad_values):
        data.setflags(write=False)

    ends = [x for iv in model.intervals for x in (iv.lo, iv.hi) if math.isfinite(x)]
    arr = np.concatenate([quad_points, ends])
    diameter = float(math.hypot(np.ptp(arr.real), np.ptp(arr.imag)))
    if diameter == 0.0:
        diameter = 1.0

    return Contour(
        multi_index=idx,
        pieces=pieces,
        panels=panels,
        points=points,
        quad_tol=quad_tol,
        nodes=nodes,
        weights=weights,
        diameter=diameter,
        quad_points=quad_points,
        quad_weights=quad_weights,
        quad_values=quad_values,
        model=model,
    )


def mirrored(contour: Contour) -> Contour:
    """The mirror contour: multi-index negated, curves conjugated."""
    neg = tuple(-v for v in contour.multi_index)
    return build_contour(contour.model, [p.spec for p in contour.pieces], neg,
                         (contour.panels, contour.points), contour.quad_tol)


def double_order(contour: Contour) -> Contour:
    """Same contour rebuilt with twice as many panels per section."""
    return build_contour(contour.model, [p.spec for p in contour.pieces], contour.multi_index,
                         (2 * contour.panels, contour.points), contour.quad_tol)


def is_mirror_pair(a: Contour, b: Contour) -> bool:
    """One model, negated multi-indices and exactly conjugate integration data."""
    return (a.model is b.model
            and a.multi_index == tuple(-v for v in b.multi_index)
            and np.array_equal(a.quad_points, np.conj(b.quad_points))
            and np.array_equal(a.quad_weights, np.conj(b.quad_weights)))


# ---------------------------------------------------------------------------
# Variation, separation distance, certificate
# ---------------------------------------------------------------------------

def variation(contour: Contour, values: np.ndarray | None = None):
    """Total coupling budget along the discrete remainder and the contour.

    Discretization of the sum of the discrete weight norms and the integral
    of the density norm against arc length; the truncation tail bound of any
    unbounded piece is added conservatively. ``values`` is stacked coupling
    data (G, P, n, n) on the contour's points, such as the grid points of a
    sweep; it gives the G variations as an array from one batched norm, each
    row equal to the variation of a contour carrying that row's data.
    """
    norms = np.linalg.norm(contour.quad_values if values is None else values, 2, axis=(-2, -1))
    total = np.sum(np.abs(contour.quad_weights) * norms, axis=-1) + contour.tail_variation_bound
    return float(total) if values is None else total


def separation_distance(contour: Contour) -> float:
    """Distance from the internal spectrum to the remainder plus contour.

    Uses exact closest-point formulas for the segment and arc sections of
    every curve family, so no sampling slack is needed.
    """
    return float(contour.distance(contour.model.a1_eigenvalues()).min(initial=math.inf))


@dataclass(frozen=True)
class SolvabilityCertificate:
    """Admission ticket for the contraction fixed-point solver.

    The CLI artifacts list the fields in this order.
    """

    d0: float
    v0: float
    omega: float
    admissible: bool
    r_min: float | None
    r_max: float | None

    def contraction_factor(self) -> float:
        """Contraction constant of the fixed-point map on the smallest ball."""
        if not self.admissible:
            raise InadmissibleCertificateError(self)
        if self.v0 == 0.0:
            return 0.0
        return self.v0 / (self.d0 - self.r_min) ** 2


def solvability_certificate(*args: SpectralModel | Contour) -> SolvabilityCertificate:
    """Compute the separation/variation certificate for a contour.

    Admissible when the variation is strictly below a quarter of the squared
    separation distance; the two ball radii are the roots of the associated
    quadratic. Inadmissibility is data, not an error.

    Takes the contour alone. The older form ``(model, contour)``, which
    ``bench/test_bench.py`` still calls, is accepted only when ``model`` is
    the contour's own model, and raises ``PairingError`` otherwise.
    """
    if len(args) not in (1, 2):
        raise TypeError(f"solvability_certificate takes a contour, got {len(args)} arguments")
    contour = args[-1]
    if len(args) == 2 and args[0] is not contour.model:
        raise PairingError("contour was built for a different model")
    return _certificate(separation_distance(contour), variation(contour))


def _certificate(d0: float, v0: float) -> SolvabilityCertificate:
    """The certificate of separation distance ``d0`` and variation ``v0``."""
    omega = d0 * d0 - 4.0 * v0
    admissible = omega > 0.0 and d0 > 0.0
    if admissible:
        r_min = 0.5 * d0 - math.sqrt(0.25 * d0 * d0 - v0)
        r_max = d0 - math.sqrt(v0)
    else:
        r_min = None
        r_max = None
    return SolvabilityCertificate(d0, v0, omega, admissible, r_min, r_max)


# ---------------------------------------------------------------------------
# JSON curve specs
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"semicircle": ("center", "radius"), "rectangle": ("depth",), "flat": ()}


def _spec_from_json(data: dict, where: str, extra=()) -> CurveSpec:
    shape = data.get("shape")
    if shape not in _SPEC_KEYS:
        raise StructuralModelError(f"unknown contour shape {shape!r}")
    _reject_unknown_keys(data, ("shape", *_SPEC_KEYS[shape], *extra), where)
    if shape == "semicircle":
        center, radius = (None if data.get(key) is None else float(data[key])
                          for key in ("center", "radius"))
        if not all(math.isfinite(v) for v in (center, radius) if v is not None):
            raise StructuralModelError("semicircle center and radius must be finite")
        return Semicircle(center=center, radius=radius)
    if shape == "rectangle":
        if "depth" not in data:
            raise StructuralModelError("rectangle spec requires a depth")
        return Rectangle(depth=float(data["depth"]))
    return Flat()


def contour_spec_from_json(data: dict):
    """Parse {"shape": ..., "l": [...], "panels": p, "points": q} .

    A "pieces" list, one spec per interval, replaces the top-level spec. A
    key that nothing reads raises ``StructuralModelError``.
    """
    order_keys = ("l", "panels", "points")
    try:
        l = [_integer(v, "contour l") for v in data["l"]]
        panels = _integer(data.get("panels", DEFAULT_ORDER[0]), "contour panels")
        points = _integer(data.get("points", DEFAULT_ORDER[1]), "contour points")
        if "pieces" in data:
            _reject_unknown_keys(data, order_keys + ("pieces",), "contour")
            specs = [_spec_from_json(p, "contour piece") for p in data["pieces"]]
        else:
            specs = _spec_from_json(data, "contour", order_keys)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructuralModelError(f"malformed contour spec: {exc}") from exc
    return specs, l, (panels, points)
