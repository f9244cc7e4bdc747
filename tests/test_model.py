"""Model construction, validation, density evaluation, serialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonances import (
    CouplingFunction,
    DecaySpec,
    Interval,
    SpectralModel,
    StructuralModelError,
    model_dumps,
    model_from_json_dict,
    spectral_norm,
    validate_model,
)
from conftest import BETA_SQ_STD


def test_friedrichs_model_validates_empty(friedrichs_std):
    report = validate_model(friedrichs_std)
    assert report.empty


def test_zero_coupling_validates_empty(zero_model):
    assert validate_model(zero_model).empty


def test_poly_models_validate_empty(poly4_model, m2_model, n3_bound_model):
    for model in (poly4_model, m2_model, n3_bound_model):
        assert validate_model(model).empty


def test_discrete_point_inside_interval_reported():
    model = SpectralModel(
        np.array([[5.0]]), [Interval(0.0, 1.0, 0.5)],
        [(0.5, np.array([[0.1]]))], CouplingFunction.constant_vector([0.1]))
    report = validate_model(model)
    assert not report.ok
    assert any("discrete point inside continuum interval" in v.message
               for v in report.violations)


def test_non_hermitian_a1_reported():
    model = SpectralModel(np.array([[1.0, 0.5], [0.0, 2.0]]),
                          [Interval(0.0, 1.0, 0.5)])
    report = validate_model(model)
    assert any(v.assumption == "hermitian-internal-matrix" for v in report.violations)


def test_unsorted_intervals_reported():
    model = SpectralModel(np.array([[1.0]]),
                          [Interval(2.0, 3.0, 0.2), Interval(0.0, 1.0, 0.2)])
    report = validate_model(model)
    assert any(v.assumption == "intervals-sorted-disjoint" for v in report.violations)


def test_indefinite_weight_reported():
    model = SpectralModel(np.array([[5.0]]), [Interval(0.0, 1.0, 0.5)],
                          [(3.0, np.array([[-0.2]]))])
    report = validate_model(model)
    assert any(v.assumption == "discrete-weight-psd" for v in report.violations)


def test_structural_errors_raise():
    with pytest.raises(StructuralModelError):
        SpectralModel(np.zeros((2, 3)), [Interval(0.0, 1.0, 0.5)])
    with pytest.raises(StructuralModelError):
        SpectralModel(np.array([[math.nan]]), [Interval(0.0, 1.0, 0.5)])
    with pytest.raises(StructuralModelError):
        Interval(1.0, 0.0, 0.5)
    with pytest.raises(StructuralModelError):
        Interval(0.0, 1.0, -0.5)
    with pytest.raises(StructuralModelError):
        SpectralModel(np.eye(2), [Interval(0.0, 1.0, 0.5)],
                      coupling=CouplingFunction.constant_vector([1.0, 0.0, 0.0]))


def test_strip_overlap_warns_only():
    model = SpectralModel(np.array([[0.5]]),
                          [Interval(0.0, 1.0, 0.8), Interval(1.5, 2.5, 0.8)])
    report = validate_model(model)
    assert report.ok
    assert any(v.assumption == "strips-overlap" and v.severity == "warning"
               for v in report.violations)


def test_missing_decay_for_unbounded_reported():
    model = SpectralModel(np.array([[5.0]]),
                          [Interval(0.0, math.inf, 0.5)],
                          coupling=CouplingFunction.rational(
                              [np.array([[0.01]])], [1.0, 0.0, 0.0, 0.0, 1.0]))
    report = validate_model(model)
    assert any(v.assumption == "unbounded-interval-decay" for v in report.violations)


def test_rational_pole_in_strip_reported():
    # denominator root at +-0.5i sits inside a strip of half-width 0.8
    model = SpectralModel(np.array([[5.0]]), [Interval(-1.0, 1.0, 0.8)],
                          coupling=CouplingFunction.rational(
                              [np.array([[0.01]])], [0.25, 0.0, 1.0]))
    report = validate_model(model)
    assert any(v.assumption == "coupling-pole-location" for v in report.violations)


def test_density_constant_vector(friedrichs_std):
    val = friedrichs_std.coupling(0.7)
    assert val.shape == (1, 1)
    assert abs(val[0, 0] - BETA_SQ_STD) < 1e-15


def test_density_zero(zero_model):
    assert np.all(zero_model.coupling(0.5) == 0.0)


def test_density_psd_on_intervals(poly4_model, m2_model):
    rng = np.random.default_rng(3)
    for model in (poly4_model, m2_model):
        for iv in model.intervals:
            for _ in range(100):
                mu = iv.lo + rng.random() * (iv.hi - iv.lo)
                k = model.coupling(mu)
                w = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
                assert w[0] >= -1e-12 * max(spectral_norm(k), 1e-300)


def test_density_conjugate_symmetry_sampled(poly4_model):
    rng = np.random.default_rng(4)
    iv = poly4_model.intervals[0]
    for _ in range(100):
        mu = complex(iv.lo + rng.random() * (iv.hi - iv.lo),
                     (rng.random() - 0.5) * 1.8 * iv.strip)
        a = poly4_model.coupling(np.conj(mu))
        b = poly4_model.coupling(mu).conj().T
        assert spectral_norm(a - b) <= 1e-12 * (1.0 + spectral_norm(b))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),
       st.floats(0.1, 2.0), st.floats(-3.0, 3.0))
def test_polynomial_conjugate_symmetry_property(diag, im, re):
    # Hermitian coefficients force density(conj mu) == density(mu)^*
    coeffs = [np.diag([d, -d]).astype(complex) for d in diag]
    coeffs.append(np.array([[0.0, 1.0 + 2.0j], [1.0 - 2.0j, 0.0]]))
    c = CouplingFunction.polynomial(coeffs)
    mu = complex(re, im)
    assert spectral_norm(c(np.conj(mu)) - c(mu).conj().T) <= 1e-10 * (
        1.0 + spectral_norm(c(mu)))


def test_validation_deterministic(n3_bound_model):
    r1 = validate_model(n3_bound_model)
    r2 = validate_model(n3_bound_model)
    assert [str(v) for v in r1.violations] == [str(v) for v in r2.violations]


def test_serialization_round_trip(poly4_model, m2_model, friedrichs_std):
    for model in (poly4_model, m2_model, friedrichs_std):
        text = model_dumps(model)
        back = model_from_json_dict(json.loads(text))
        assert np.array_equal(back.a1, model.a1)
        assert back.intervals == model.intervals
        assert len(back.discrete) == len(model.discrete)
        assert back.coupling.kind == model.coupling.kind
        for mu in (0.37, 0.81 + 0.05j):
            assert np.array_equal(back.coupling(mu), model.coupling(mu))


def test_serialization_round_trip_discrete_and_decay():
    model = SpectralModel(
        np.array([[5.0, 1j], [-1j, 6.0]]),
        [Interval(0.0, math.inf, 0.5)],
        [(-2.0, np.array([[0.1, 0.0], [0.0, 0.2]]))],
        CouplingFunction.rational([np.eye(2) * 0.01], [1.0, 0.0, 0.0, 0.0, 1.0],
                                  decay=DecaySpec(4.0, 0.01)))
    back = model_from_json_dict(json.loads(model_dumps(model)))
    assert back.coupling.decay == model.coupling.decay
    assert back.discrete[0].nu == -2.0
    assert np.array_equal(back.discrete[0].weight, model.discrete[0].weight)
    assert back.intervals[0].hi == math.inf


@pytest.mark.parametrize("kind", ["constant-vector", "polynomial-matrix", "rational-matrix"])
def test_coupling_array_matches_pointwise(kind):
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    coupling = {
        "constant-vector": CouplingFunction.constant_vector([1.0 + 2.0j, 0.5, -1.0j]),
        "polynomial-matrix": CouplingFunction.polynomial(mats),
        "rational-matrix": CouplingFunction.rational(mats, [1.0, 0.3, 0.2]),
    }[kind]
    mus = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    pointwise = np.stack([coupling(mu) for mu in mus])
    assert pointwise.shape == (12, 3, 3)
    for shape in ((12,), (3, 4)):
        values = coupling(mus.reshape(shape))
        assert values.shape == shape + (3, 3)
        defect = np.max(np.abs(values.reshape(12, 3, 3) - pointwise))
        assert defect <= 1e-15 * np.max(np.abs(pointwise))


def test_coupling_dim_follows_its_data():
    """``dim`` is read off the row or the first coefficient, never set apart from them."""
    row = CouplingFunction.constant_vector([1.0, 0.0, 0.0])
    poly = CouplingFunction.polynomial([np.eye(2), np.eye(2)])
    rat = CouplingFunction.rational([np.eye(4)], [1.0, 0.0, 1.0])
    assert (row.dim, poly.dim, rat.dim) == (3, 2, 4)
    assert replace(row, row=np.ones(5, dtype=complex)).dim == 5
    assert replace(poly, coeffs=(np.eye(3, dtype=complex),)).dim == 3
