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
from typing import Sequence

import numpy as np

from .errors import (
    GeometryError,
    InadmissibleCertificateError,
    PairingError,
    StructuralModelError,
    UnsupportedModelError,
)
from .model import Interval, SpectralModel

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
    declared coupling decay makes the tail negligible; ``extent`` overrides
    the truncation length.
    """

    depth: float
    extent: float | None = None


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

    def mirrored(self) -> "Section":
        return Section(self.kind, np.conj(self.start), np.conj(self.end),
                       self.center, self.radius, -self.half_plane)


@dataclass(frozen=True, eq=False)
class Piece:
    """Contour piece for one interval: spec, smooth sections, diagnostics."""

    interval_index: int
    half_plane: int
    spec: CurveSpec
    sections: tuple[Section, ...]
    nodes: np.ndarray
    weights: np.ndarray
    endpoint_defect: float
    tail_bound: float
    region: tuple  # parameters of the open region bounded by curve + interval

    def region_contains(self, z: complex) -> bool:
        z = complex(z)
        kind = self.region[0]
        if kind == "semicircle":
            _, c, r = self.region
            return self.half_plane * z.imag > 0.0 and abs(z - c) < r
        if kind == "rectangle":
            _, lo, hi, depth = self.region
            im = self.half_plane * z.imag
            return (0.0 < im < depth) and (lo < z.real < hi)
        return False


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
    def endpoint_defect(self) -> float:
        finite = [p.endpoint_defect for p in self.pieces if math.isfinite(p.endpoint_defect)]
        return max(finite) if finite else 0.0

    def region_contains(self, z: complex) -> bool:
        return any(p.region_contains(z) for p in self.pieces)

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


def _gl_panelize(section: Section, panels: int, points: int,
                 breakpoints: np.ndarray | None = None):
    """Composite Gauss-Legendre nodes/weights along one smooth section."""
    x, w = _gauss_legendre(points)
    if breakpoints is None:
        breakpoints = np.linspace(0.0, 1.0, panels + 1)
    nodes = []
    weights = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        u = mid + half * x
        nodes.append(section.point(u))
        weights.append(section.velocity(u) * (half * w))
    return np.concatenate(nodes), np.concatenate(weights)


def _truncation_length(model: SpectralModel, iv: Interval, quad_tol: float) -> float:
    decay = model.coupling.decay
    if decay is None:
        raise UnsupportedModelError(
            "unbounded interval requires a declared coupling decay")
    budget = _TAIL_BUDGET * quad_tol
    t = (decay.coeff / ((decay.theta - 1.0) * budget)) ** (1.0 / (decay.theta - 1.0)) - 1.0
    return max(t, 1.0)


def _ray_breakpoints(length: float, first: float) -> np.ndarray:
    """Geometric subdivision of [0, 1] suited to a decaying integrand."""
    cuts = [0.0]
    pos = 0.0
    step = min(first, length)
    while pos + step < length:
        pos += step
        cuts.append(pos / length)
        step *= 2.0
    cuts.append(1.0)
    return np.array(cuts)


def _build_piece(model: SpectralModel, k: int, iv: Interval, spec: CurveSpec,
                 lk: int, panels: int, points: int, quad_tol: float) -> Piece:
    sections: list[Section] = []
    tail_bound = 0.0
    region: tuple = ("none",)

    if isinstance(spec, Flat):
        if not iv.bounded:
            raise UnsupportedModelError(
                f"flat curve is not available on the unbounded interval {k}")
        sections.append(Section("segment", complex(iv.lo), complex(iv.hi)))
        region = ("flat",)

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
            sections.append(Section("segment", complex(iv.lo), complex(c - r)))
        sections.append(Section("arc", complex(c - r), complex(c + r),
                                center=c, radius=r, half_plane=lk))
        if iv.hi - (c + r) > eps:
            sections.append(Section("segment", complex(c + r), complex(iv.hi)))
        region = ("semicircle", c, r)

    elif isinstance(spec, Rectangle):
        d = spec.depth
        if not (0.0 < d < iv.strip):
            raise GeometryError(
                f"rectangle depth {d:.6g} must lie strictly inside the strip "
                f"(half-width {iv.strip:.6g}) of interval {k}")
        lift = 1j * lk * d
        lo_f, hi_f = math.isfinite(iv.lo), math.isfinite(iv.hi)
        if lo_f and hi_f:
            lo, hi = iv.lo, iv.hi
        else:
            t = spec.extent if spec.extent is not None else _truncation_length(model, iv, quad_tol)
            decay = model.coupling.decay
            if decay is not None:
                tail_bound = decay.tail(t)
            lo = iv.lo if lo_f else -t
            hi = iv.hi if hi_f else t
            if lo >= hi:
                raise GeometryError(f"truncated rectangle is empty on interval {k}")
        if lo_f:
            sections.append(Section("segment", complex(lo), lo + lift))
        sections.append(Section("segment", lo + lift, hi + lift))
        if hi_f:
            sections.append(Section("segment", hi + lift, complex(hi)))
        region = ("rectangle", iv.lo, iv.hi, d)

    else:
        raise StructuralModelError(f"unknown curve spec {spec!r}")

    all_nodes = []
    all_weights = []
    for s in sections:
        breakpoints = None
        if isinstance(spec, Rectangle) and s.kind == "segment" and not iv.bounded:
            # geometric grading along long truncated rays
            length = abs(s.end - s.start)
            horizontal = abs((s.end - s.start).imag) < 1e-30
            if horizontal and length > 8.0 * iv.strip:
                base = _ray_breakpoints(length, 2.0 * iv.strip)
                if not math.isfinite(iv.hi):
                    cuts = base
                else:
                    cuts = 1.0 - base[::-1]
                refined = [np.linspace(a, b, panels + 1)[:-1]
                           for a, b in zip(cuts[:-1], cuts[1:])]
                breakpoints = np.concatenate(refined + [np.array([1.0])])
        nodes, weights = _gl_panelize(s, panels, points, breakpoints)
        all_nodes.append(nodes)
        all_weights.append(weights)
    nodes = np.concatenate(all_nodes)
    weights = np.concatenate(all_weights)

    if iv.bounded:
        defect = abs(np.sum(weights) - (iv.hi - iv.lo))
    else:
        defect = math.nan
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Piece(k, lk, spec, tuple(sections), nodes, weights, defect, tail_bound, region)


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

def variation(contour: Contour) -> float:
    """Total coupling budget along the discrete remainder and the contour.

    Discretization of the sum of the discrete weight norms and the integral
    of the density norm against arc length; the truncation tail bound of any
    unbounded piece is added conservatively.
    """
    norms = np.linalg.norm(contour.quad_values, 2, axis=(1, 2))
    return float(np.sum(np.abs(contour.quad_weights) * norms)) + contour.tail_variation_bound


def separation_distance(contour: Contour) -> float:
    """Distance from the internal spectrum to the remainder plus contour.

    Uses exact closest-point formulas for the segment and arc sections of
    every curve family, so no sampling slack is needed.
    """
    return float(contour.distance(contour.model.a1_eigenvalues()).min(initial=math.inf))


@dataclass(frozen=True)
class SolvabilityCertificate:
    """Admission ticket for the contraction fixed-point solver."""

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
    d0 = separation_distance(contour)
    v0 = variation(contour)
    omega = d0 * d0 - 4.0 * v0
    admissible = omega > 0.0 and d0 > 0.0
    if admissible:
        r_min = 0.5 * d0 - math.sqrt(0.25 * d0 * d0 - v0)
        r_max = d0 - math.sqrt(v0)
    else:
        r_min = None
        r_max = None
    return SolvabilityCertificate(d0, v0, omega, admissible, r_min, r_max)


@dataclass(frozen=True)
class ContourScan:
    """Result of scanning a finite contour family for certificates."""

    found: bool
    solution_ball_radius: float | None
    max_separation: float | None
    best_contour: Contour | None
    admissible_count: int
    certificates: tuple[SolvabilityCertificate, ...]


def scan_contours(model: SpectralModel, l, family: Sequence, order=DEFAULT_ORDER,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> ContourScan:
    """Scan a finite family of curve specs for the best certificates.

    Returns the smallest admissible ball radius (an upper approximation of
    the optimal solution bound), the largest admissible separation distance,
    and the contour achieving the smallest radius. With no admissible member
    the result has ``found=False``; which is data, not an error.
    """
    certs = []
    best_r = math.inf
    best_d = -math.inf
    best_contour = None
    count = 0
    for spec in family:
        contour = build_contour(model, spec, l, order, quad_tol)
        cert = solvability_certificate(contour)
        certs.append(cert)
        if cert.admissible:
            count += 1
            best_d = max(best_d, cert.d0)
            if cert.r_min < best_r:
                best_r = cert.r_min
                best_contour = contour
    if count == 0:
        return ContourScan(False, None, None, None, 0, tuple(certs))
    return ContourScan(True, best_r, best_d, best_contour, count, tuple(certs))


# ---------------------------------------------------------------------------
# JSON curve specs
# ---------------------------------------------------------------------------

def _spec_from_json(data: dict) -> CurveSpec:
    shape = data.get("shape")
    if shape == "semicircle":
        return Semicircle(center=data.get("center"), radius=data.get("radius"))
    if shape == "rectangle":
        if "depth" not in data:
            raise StructuralModelError("rectangle spec requires a depth")
        return Rectangle(depth=float(data["depth"]),
                         extent=data.get("extent"))
    if shape == "flat":
        return Flat()
    raise StructuralModelError(f"unknown contour shape {shape!r}")


def contour_spec_from_json(data: dict):
    """Parse {"shape": ..., "l": [...], "panels": p, "points": q} ."""
    try:
        l = [int(v) for v in data["l"]]
        panels = int(data.get("panels", DEFAULT_ORDER[0]))
        points = int(data.get("points", DEFAULT_ORDER[1]))
        if "pieces" in data:
            specs = [_spec_from_json(p) for p in data["pieces"]]
        else:
            specs = _spec_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralModelError(f"malformed contour spec: {exc}") from exc
    return specs, l, (panels, points)
