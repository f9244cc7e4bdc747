"""Contour geometry, quadrature exactness, variation, certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonances import (
    CouplingFunction,
    Flat,
    GeometryError,
    Interval,
    Rectangle,
    Semicircle,
    SpectralModel,
    StructuralModelError,
    UnsupportedModelError,
    build_contour,
    double_order,
    mirrored,
    separation_distance,
    solvability_certificate,
    solve_fixed_point,
    variation,
)
from resonances import DecaySpec
from resonances.contour import is_mirror_pair
from conftest import BETA_SQ_STD


def test_semicircle_endpoints_and_weights(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    piece = c.pieces[0]
    assert abs(piece.sections[0].start - 0.0) == 0.0
    assert abs(piece.sections[-1].end - 2.0) == 0.0
    # integral of d(mu) over the piece equals the interval length
    assert abs(np.sum(c.weights) - 2.0) <= 1e-10 * 2.0
    # nodes on the circle of radius 1 around 1, strictly inside the strip
    assert np.allclose(np.abs(c.nodes - 1.0), 1.0, atol=1e-12)
    assert np.all(np.abs(c.nodes.imag) < friedrichs_std.intervals[0].strip)
    assert np.all(c.nodes.imag > 0)


def test_flat_contour_real_nodes(friedrichs_std):
    c = build_contour(friedrichs_std, Flat(), [1])
    assert np.all(c.nodes.imag == 0.0)
    assert np.all(c.weights.real > 0.0)
    assert np.all(c.weights.imag == 0.0)


def test_rectangle_sections(m2_model):
    c = build_contour(m2_model, Rectangle(depth=0.35), [1, -1])
    assert len(c.pieces) == 2
    for piece, iv in zip(c.pieces, m2_model.intervals):
        assert len(piece.sections) == 3
        assert abs(np.sum(piece.weights) - (iv.hi - iv.lo)) <= 1e-10
    assert np.all(c.pieces[0].nodes.imag <= 0.35)
    assert np.all(c.pieces[1].nodes.imag >= -0.35)


def test_variation_semicircle_value(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    v = variation(c)
    assert abs(v - math.pi * BETA_SQ_STD) <= 1e-12


def test_variation_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    assert variation(c) == 0.0


def test_variation_mirror_symmetry(poly4_model, m2_model):
    for model, l, spec in ((poly4_model, [1], Semicircle()),
                           (m2_model, [1, -1], Semicircle(radius=0.4))):
        c = build_contour(model, spec, l)
        cm = mirrored(c)
        v, vm = variation(c), variation(cm)
        assert abs(v - vm) <= 1e-10 * v


def test_variation_self_convergence(poly4_model):
    c = build_contour(poly4_model, Semicircle(), [1])
    c2 = double_order(c)
    v, v2 = variation(c), variation(c2)
    assert abs(v - v2) <= c.quad_tol * max(1.0, v)


def test_variation_discrete_part():
    model = SpectralModel(np.array([[5.0]]), [Interval(0.0, 1.0, 0.6)],
                          [(3.0, np.array([[0.04]]))],
                          CouplingFunction.zero(1))
    c = build_contour(model, Semicircle(), [1])
    assert abs(variation(c) - 0.04) <= 1e-15


def test_separation_exact_semicircle(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    assert separation_distance(c) == 1.0


def test_separation_flat_through_embedded_eigenvalue(friedrichs_std):
    c = build_contour(friedrichs_std, Flat(), [1])
    assert separation_distance(c) == 0.0


def test_separation_discrete_point_reduces():
    a1 = np.array([[5.0]])
    iv = [Interval(0.0, 1.0, 0.6)]
    model = SpectralModel(a1, iv)
    c = build_contour(model, Semicircle(), [1])
    d_before = separation_distance(c)
    model2 = SpectralModel(a1, iv, [(5.5, np.zeros((1, 1)))])
    c2 = build_contour(model2, Semicircle(), [1])
    assert separation_distance(c2) == 0.5 < d_before


def test_certificate_values_symmetric_model(friedrichs_std):
    c = build_contour(friedrichs_std, Semicircle(), [1])
    cert = solvability_certificate(c)
    assert cert.admissible
    assert cert.d0 == 1.0
    assert abs(cert.v0 - 3.0 / 16.0) <= 1e-10
    assert abs(cert.r_min - 0.25) <= 1e-10
    assert abs(cert.r_max - (1.0 - math.sqrt(3.0) / 4.0)) <= 1e-10
    # root identities
    assert abs(cert.r_min * (cert.d0 - cert.r_min) - cert.v0) <= 1e-12 * cert.v0
    assert abs((cert.d0 - cert.r_max) ** 2 - cert.v0) <= 1e-12 * cert.v0
    assert 0.0 < cert.r_min < cert.d0 / 2.0 < cert.r_max < cert.d0


def test_certificate_zero_coupling(zero_model):
    c = build_contour(zero_model, Semicircle(), [1])
    cert = solvability_certificate(c)
    assert cert.admissible
    assert cert.v0 == 0.0
    assert cert.r_min == 0.0
    assert cert.r_max == cert.d0


def test_admissibility_threshold():
    from resonances import friedrichs_model

    thr = 1.0 / (4.0 * math.pi)
    for factor, expect in ((0.999999, True), (1.000001, False)):
        model = friedrichs_model(1.0, beta_sq=factor * thr)
        c = build_contour(model, Semicircle(), [1])
        assert solvability_certificate(c).admissible is expect


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 10.0), st.floats(0.001, 0.999))
def test_certificate_root_identities_property(d0, frac):
    # synthetic certificate from an admissible (d0, v0) pair
    from resonances.contour import SolvabilityCertificate

    v0 = frac * d0 * d0 / 4.0
    r_min = d0 / 2.0 - math.sqrt(d0 * d0 / 4.0 - v0)
    r_max = d0 - math.sqrt(v0)
    cert = SolvabilityCertificate(d0, v0, d0 * d0 - 4 * v0, True, r_min, r_max)
    assert abs(cert.r_min * (d0 - cert.r_min) - v0) <= 1e-12 * max(v0, 1e-300)
    assert abs((d0 - cert.r_max) ** 2 - v0) <= 1e-11 * max(v0, d0 * d0 * 1e-6)
    assert 0.0 < cert.r_min <= d0 / 2.0 <= cert.r_max < d0
    assert 0.0 <= cert.contraction_factor() < 1.0


def test_mirror_nodes_exactly_conjugate(m2_model):
    c = build_contour(m2_model, Semicircle(radius=0.4), [1, -1])
    cm = mirrored(c)
    assert is_mirror_pair(c, cm)
    assert np.array_equal(cm.nodes, np.conj(c.nodes))
    assert np.array_equal(cm.weights, np.conj(c.weights))


def test_mirror_pair_by_integration_data(friedrichs_std):
    # pairing reads the integration data, not how the curve was specified
    c = build_contour(friedrichs_std, Semicircle(), [1])
    explicit = build_contour(friedrichs_std, Semicircle(center=1.0, radius=1.0), [1])
    assert is_mirror_pair(c, mirrored(explicit))
    assert not is_mirror_pair(c, double_order(mirrored(c)))
    extra = SpectralModel(friedrichs_std.a1, friedrichs_std.intervals,
                          [(3.0, np.array([[0.01]]))], friedrichs_std.coupling)
    assert not is_mirror_pair(c, build_contour(extra, Semicircle(), [-1]))


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 5.0), st.floats(-3.0, 3.0))
def test_exact_section_distances_match_dense_sampling(x, y):
    # exact closest-point formulas vs brute-force sampling of the curve
    from resonances.contour import Section

    p = complex(x, y)
    sections = [
        Section("segment", 0.0 + 0.0j, 2.0 + 0.0j),
        Section("segment", 1.0 + 0.0j, 1.0 + 0.7j),
        Section("arc", 0.0j, 2.0 + 0.0j, center=1.0, radius=1.0, half_plane=1),
        Section("arc", 0.0j, 2.0 + 0.0j, center=1.0, radius=1.0, half_plane=-1),
    ]
    u = np.linspace(0.0, 1.0, 4001)
    for s in sections:
        brute_min = float(np.min(np.abs(s.point(u) - p)))
        dmin = s.distance_to(p)
        assert abs(dmin - brute_min) <= 2e-3
        assert dmin <= brute_min + 1e-12


def _scalar_section_distance(s, p):
    # the closest-point formulas one point at a time, in Python scalars
    p = complex(p)
    if s.kind == "segment":
        d = s.end - s.start
        t = ((p - s.start).real * d.real + (p - s.start).imag * d.imag) / abs(d) ** 2
        return abs(p - (s.start + min(1.0, max(0.0, t)) * d))
    v = p - s.center
    ang = math.atan2(v.imag, v.real)
    in_span = (0.0 <= ang <= math.pi) if s.half_plane > 0 else (-math.pi <= ang <= 0.0)
    if abs(v) == 0.0 or in_span:
        return abs(abs(v) - s.radius)
    return min(abs(p - s.start), abs(p - s.end))


def test_distance_array_matches_scalar(friedrichs_std):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 3.0, 2000)
    y = rng.uniform(-1.5, 1.5, 2000)
    y[:500] = 0.0        # real axis, both signs of zero
    y[:250] = -0.0
    z = x.astype(complex)
    z.imag = y
    z = z.reshape(50, 40)
    contours = [build_contour(friedrichs_std, spec, [l])
                for spec in (Semicircle(), Semicircle(radius=0.6), Rectangle(depth=0.5))
                for l in (1, -1)]
    for c in contours:
        d = c.distance(z)
        assert d.shape == z.shape
        scalar = [c.distance(v) for v in z.reshape(-1)]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(d.reshape(-1), scalar)
        for piece in c.pieces:
            for s in piece.sections:
                ref = [_scalar_section_distance(s, v) for v in z.reshape(-1)]
                assert np.array_equal(s.distance_to(z).reshape(-1), ref)
    assert type(contours[0].distance(np.asarray(1.0 + 2.0j))) is float


def test_distance_counts_discrete_remainder():
    coupling = CouplingFunction.constant_vector([0.05])
    model = SpectralModel(np.array([[5.0]]), [Interval(0.0, 1.0, 0.6)],
                          [(3.0, np.array([[0.04]]))], coupling)
    bare = SpectralModel(model.a1, model.intervals, (), coupling)
    c = build_contour(model, Semicircle(), [1])
    c_bare = build_contour(bare, Semicircle(), [1])
    assert c.distance(3.0) == 0.0
    assert c.distance(3.25 + 0.0j) == 0.25
    assert c_bare.distance(3.25) > 2.0
    zs = np.array([3.0 + 0.5j, 0.5 + 0.25j, 4.0])
    assert np.array_equal(c.distance(zs), [0.5, c_bare.distance(0.5 + 0.25j), 1.0])


def test_geometry_errors(friedrichs_std):
    with pytest.raises(GeometryError):
        build_contour(friedrichs_std, Semicircle(radius=5.0), [1])  # exits strip
    with pytest.raises(GeometryError):
        build_contour(friedrichs_std, Rectangle(depth=10.0), [1])
    with pytest.raises(GeometryError):
        build_contour(friedrichs_std, Semicircle(center=1.9, radius=0.5), [1])
    with pytest.raises(StructuralModelError):
        build_contour(friedrichs_std, Semicircle(), [1, 1])
    with pytest.raises(StructuralModelError):
        build_contour(friedrichs_std, Semicircle(), [2])


def test_unbounded_requires_decay():
    model = SpectralModel(np.array([[3.0]]), [Interval(0.0, math.inf, 0.5)],
                          coupling=CouplingFunction.rational(
                              [np.array([[0.001]])], [1.0, 0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(UnsupportedModelError):
        build_contour(model, Rectangle(depth=0.3), [1])
    with pytest.raises(UnsupportedModelError):
        build_contour(model, Flat(), [1])


def test_unbounded_rectangle_with_decay():
    coupling = CouplingFunction.rational(
        [np.array([[0.001]])], [1.0, 0.0, 0.0, 0.0, 1.0],
        decay=DecaySpec(4.0, 0.001))
    model = SpectralModel(np.array([[3.0]]), [Interval(0.0, math.inf, 0.5)],
                          coupling=coupling)
    c = build_contour(model, Rectangle(depth=0.3), [1], quad_tol=1e-8)
    assert c.tail_variation_bound > 0.0
    assert c.tail_variation_bound <= 1e-3 * 1e-8 * 1.01
    cert = solvability_certificate(c)
    assert cert.admissible
    # self-convergence of the graded ray quadrature
    c2 = double_order(c)
    v, v2 = variation(c), variation(c2)
    assert abs(v - v2) <= 1e-8 * max(1.0, v)


def _per_panel_layout(piece, iv, panels, points):
    """Nodes and weights of a piece laid one panel at a time.

    Panels are equal in the section parameter, except along a horizontal ray
    over a one-sided unbounded interval longer than 8 strip half-widths: there
    cells double from twice the strip half-width outward from the finite end,
    each split into ``panels`` equal panels.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    nodes, weights = [], []
    for s in piece.sections:
        cuts = np.linspace(0.0, 1.0, panels + 1)
        length = abs(s.end - s.start)
        if not iv.bounded and s.start.imag == s.end.imag and length > 8.0 * iv.strip:
            grades, pos, step = [0.0], 0.0, 2.0 * iv.strip
            while pos + step < length:
                pos += step
                grades.append(pos / length)
                step *= 2.0
            grades = np.array(grades + [1.0])
            if math.isfinite(iv.hi):
                grades = 1.0 - grades[::-1]
            cuts = np.concatenate([np.linspace(a, b, panels + 1)[:-1]
                                   for a, b in zip(grades[:-1], grades[1:])] + [[1.0]])
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            u = mid + half * x
            nodes.append(s.point(u))
            weights.append(s.velocity(u) * (half * w))
    return np.concatenate(nodes), np.concatenate(weights)


def test_panel_layout_matches_per_panel_reference(friedrichs_std):
    decay = DecaySpec(4.0, 0.001)
    coupling = CouplingFunction.rational([np.array([[0.001]])], [1.0, 0.0, 0.0, 0.0, 1.0],
                                         decay=decay)
    right = SpectralModel(np.array([[3.0]]), [Interval(0.0, math.inf, 0.5)], coupling=coupling)
    left = SpectralModel(np.array([[-3.0]]), [Interval(-math.inf, 0.0, 0.5)], coupling=coupling)
    cases = [(friedrichs_std, Semicircle()),
             (friedrichs_std, Semicircle(center=0.8, radius=0.5)),
             (friedrichs_std, Rectangle(depth=0.5)),
             (right, Rectangle(depth=0.3)),
             (left, Rectangle(depth=0.3))]
    for model, spec in cases:
        for order in ((6, 16), (3, 8), (1, 5)):
            for l in (1, -1):
                c = build_contour(model, spec, [l], order, quad_tol=1e-8)
                nodes, weights = _per_panel_layout(c.pieces[0], model.intervals[0], *order)
                assert np.array_equal(c.nodes, nodes), (spec, order, l)
                assert np.array_equal(c.weights, weights), (spec, order, l)


def test_two_sided_ray_graded_from_the_middle():
    decay = DecaySpec(4.0, 0.001)
    coupling = CouplingFunction.rational([np.array([[0.001]])], [1.0, 0.0, 0.0, 0.0, 1.0],
                                         decay=decay)
    model = SpectralModel(np.array([[0.0]]), [Interval(-math.inf, math.inf, 0.5)],
                          coupling=coupling)
    results = []
    for order in ((6, 16), (24, 16)):
        c = build_contour(model, Rectangle(depth=0.3), [1], order, quad_tol=1e-8)
        piece = c.pieces[0]
        t = piece.sections[0].end.real
        assert piece.sections[0].start.real == -t
        # both truncated tails are counted
        assert piece.tail_bound == 2.0 * decay.tail(t)
        results.append(complex(solve_fixed_point(c).effective[0, 0]))
    assert abs(results[0] - results[1]) <= 1e-12
