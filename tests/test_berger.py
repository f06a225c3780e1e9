from fractions import Fraction

import numpy as np
import pytest

from kahlerpinch import hirzebruch as hz
from kahlerpinch.berger import (
    SphereSampleConfig,
    berger_scalar,
    berger_vs_trace,
    sample_directions,
)
from kahlerpinch.geometry import norm_squared
from kahlerpinch.models import FubiniStudy, Hitchin, Product

from conftest import MASTER_SEED


def test_config_validation():
    with pytest.raises(ValueError):
        SphereSampleConfig(sample_count=0)


def test_sample_directions_live_on_unit_sphere(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = A @ A.conj().T + 0.3 * np.eye(3)
    xis = sample_directions(g, 128, rng)
    for xi in xis:
        assert abs(norm_squared(g, xi) - 1.0) < 1e-12


def test_fs_p1_scalar_estimate():
    est = berger_scalar(FubiniStudy(1), [0.7], SphereSampleConfig(20000, MASTER_SEED))
    assert abs(est.estimate - 2.0) <= max(3.0 * est.stderr, 1e-9)


def test_fs_p2_scalar_estimate():
    est = berger_scalar(
        FubiniStudy(2), [0.2, -0.4j], SphereSampleConfig(50000, MASTER_SEED)
    )
    assert abs(est.estimate - 6.0) <= max(3.0 * est.stderr, 1e-8)


def test_product_scalar_estimate():
    model = Product(FubiniStudy(1), FubiniStudy(1))
    est = berger_scalar(model, [0.3, -0.2j], SphereSampleConfig(50000, MASTER_SEED))
    assert abs(est.estimate - 4.0) <= 3.0 * est.stderr
    assert est.stderr > 0.0


def test_hitchin_comparison_rows():
    model = Hitchin.make(1, Fraction(1, 3))
    bracket = tuple(float(x) for x in hz.scalar_bounds(1, Fraction(1, 3)))
    rows = berger_vs_trace(
        model,
        [model.fiber_point(r) for r in (0.0, 1.0, 9.0)],
        SphereSampleConfig(40000, MASTER_SEED),
        bracket=bracket,
    )
    assert bracket == (2.0, 18.0)
    for row in rows:
        assert row.consistent
        assert row.within_bracket


def test_hitchin_n2_bracket():
    model = Hitchin.make(2, Fraction(1, 10))
    bracket = tuple(float(x) for x in hz.scalar_bounds(2, Fraction(1, 10)))
    assert bracket == (2.4, 60.0)
    rows = berger_vs_trace(
        model,
        [model.fiber_point(r) for r in (0.0, 2.0)],
        SphereSampleConfig(40000, MASTER_SEED),
        bracket=bracket,
    )
    assert all(r.within_bracket and r.consistent for r in rows)


def test_random_points_agree_with_trace_for_all_models():
    from conftest import builtin_models, random_point

    rng = np.random.default_rng(MASTER_SEED)
    cfg = SphereSampleConfig(100_000, MASTER_SEED)
    for model in builtin_models():
        points = [random_point(model, rng) for _ in range(10)]
        rows = berger_vs_trace(model, points, cfg)
        assert all(row.consistent for row in rows)


def test_seeded_reproducibility():
    model = Hitchin.make(1, "1/3")
    cfg = SphereSampleConfig(5000, 1234)
    a = berger_scalar(model, model.fiber_point(1.0), cfg)
    b = berger_scalar(model, model.fiber_point(1.0), cfg)
    assert a == b
    c = berger_scalar(model, model.fiber_point(1.0), SphereSampleConfig(5000, 1235))
    assert a.estimate != c.estimate


def test_antithetic_variant_unbiased_and_deterministic():
    model = Hitchin.make(1, "1/3")
    cfg = SphereSampleConfig(40000, MASTER_SEED, antithetic=True)
    a = berger_scalar(model, model.fiber_point(1.0), cfg)
    b = berger_scalar(model, model.fiber_point(1.0), cfg)
    assert a == b
    from kahlerpinch.geometry import curvature_tensor, scalar_curvature

    jet = model.metric_jet(model.fiber_point(1.0))
    tau = scalar_curvature(curvature_tensor(jet), jet.g)
    assert abs(a.estimate - tau) <= 3.0 * a.stderr


def test_comparison_evaluates_all_jets_once_and_matches_pointwise(monkeypatch):
    model = Hitchin.make(2, Fraction(1, 10))
    points = [model.fiber_point(r) for r in (0.0, 2.0)] + [np.array([0.3 - 0.2j, 0.5j])]
    cfg = SphereSampleConfig(4000, MASTER_SEED)
    single = [berger_scalar(model, z, cfg) for z in points]
    jet_calls = []
    metric_jet = Hitchin.metric_jet
    monkeypatch.setattr(
        Hitchin, "metric_jet", lambda self, z: jet_calls.append(z) or metric_jet(self, z)
    )
    rows = berger_vs_trace(model, points, cfg)
    assert len(jet_calls) == 1
    for row, est in zip(rows, single):
        assert row.estimate == pytest.approx(est.estimate, rel=1e-13)
        assert abs(row.stderr - est.stderr) <= 1e-13 * abs(est.estimate)
