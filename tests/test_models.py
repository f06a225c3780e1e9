import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kahlerpinch.geometry import (
    DegenerateMetricError,
    MetricJet,
    check_symmetries,
    curvature_tensor,
    metric_eigenvalues,
)
from kahlerpinch.models import (
    FubiniStudy,
    Hitchin,
    Product,
    model_from_json,
    model_to_json,
    product_jet,
)
from kahlerpinch.optimize import extremize_directions

from conftest import builtin_models, random_point
from fd_oracle import fd_metric_jet


def test_far_chart_is_the_same_metric(rng):
    # w = 1/z2 has the Jacobian diag(1, -1/w^2) into the chart (z1, z2), and
    # curvature extrema are invariants; both charts are well conditioned here.
    for _ in range(12):
        n = int(rng.integers(1, 7))
        model = Hitchin.make(n, float(rng.uniform(0.05, 0.95)) / (n * n))
        z1 = rng.uniform(0.0, 0.7) * np.exp(2j * np.pi * rng.uniform())
        w = rng.uniform(0.6, 1.6) * np.exp(2j * np.pi * rng.uniform())
        near, far = model.metric_jet([z1, 1.0 / w]), model._jet(model.far_kernel, [z1, w])
        J = np.array([1.0, -1.0 / w**2])
        assert np.allclose(far.g, J[:, None] * near.g * J.conj(), rtol=1e-13, atol=0.0)
        a, b = (extremize_directions(curvature_tensor(j)[None], j.g[None]) for j in (near, far))
        assert abs(a.min_K[0] - b.min_K[0]) <= 1e-11 * abs(a.min_K[0])
        assert abs(a.max_K[0] - b.max_K[0]) <= 1e-11 * abs(a.max_K[0])


def test_fiber_jet_charts():
    """Each row of a grid-512 stack, t = 1/2 and 1 included, has the bits of its chart's jet alone.

    fiber_jet shares one base jet between its rows; this pins that it is the
    base jet of each row's own point.
    """
    model = Hitchin.make(2, "1/10")
    t = np.union1d(np.linspace(0.0, 1.0, 512), [0.5])  # the grid and the chart boundary
    jet = model.fiber_jet(t)
    for i, ti in enumerate(t):
        if ti <= 0.5:
            row = model.metric_jet(model.fiber_point(ti / (1.0 - ti)))
        else:
            row = model._jet(model.far_kernel, model.fiber_point((1.0 - ti) / ti))
        for got, want in zip((jet.g, jet.dg, jet.ddg), (row.g, row.dg, row.ddg)):
            assert np.array_equal(got[i], want), (i, ti)
    # t = 1 is w = 0, where the metric is diag(1, s).
    assert np.allclose(jet.g[-1], np.diag([1.0, 0.1]), rtol=1e-15, atol=0.0)
    assert model.fiber_jet(1.0).g.shape == (2, 2)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            model.fiber_jet(bad)


def test_potential_values():
    assert Hitchin.make(1, "1/3").potential([0.0, 0.0]) == 0.0
    got = Hitchin.make(2, "1/10").potential([0.0, 1.0])
    assert abs(got - 0.1 * math.log(2.0)) < 1e-15
    assert abs(FubiniStudy(1).potential([1.0]) - math.log(2.0)) < 1e-15


@pytest.mark.parametrize("n,s", [(1, Fraction(1, 3)), (2, Fraction(1, 10)), (4, Fraction(1, 36))])
def test_hitchin_fiber_metric_closed_form(n, s, rng):
    model = Hitchin.make(n, s)
    for r in (0.0, 0.5, 2.0, 9.0):
        g = model.metric_jet(model.fiber_point(r)).g
        s_f = float(s)
        assert abs(g[0, 0] - (1 + r + n * s_f) / (1 + r)) < 1e-12
        assert abs(g[1, 1] - s_f / (1 + r) ** 2) < 1e-12
        assert abs(g[0, 1]) < 1e-14 and abs(g[1, 0]) < 1e-14


def test_hitchin_origin_metric_values():
    g = Hitchin.make(1, "1/3").metric_jet([0.0, 0.0]).g
    assert np.allclose(g, np.diag([4.0 / 3.0, 1.0 / 3.0]), atol=1e-14)


def test_product_block_structure():
    model = Product(FubiniStudy(1), FubiniStudy(1))
    jet = model.metric_jet([0.0, 0.0])
    assert np.allclose(jet.g, np.eye(2), atol=1e-14)
    # no derivative couples the two factors
    assert np.max(np.abs(jet.dg[0, 1])) == 0.0
    assert np.max(np.abs(jet.dg[1, 0])) == 0.0
    assert np.max(np.abs(jet.ddg[0, 1])) == 0.0
    assert np.max(np.abs(jet.ddg[0, 0, :, 1])) == 0.0


def test_product_jet_of_fiber_jets_is_the_product_metric_jet():
    # For t <= 1/2 fiber_jet takes the standard chart, so the factor fiber
    # jets, broadcast over a (9, 5) grid, give Product.metric_jet there bit for bit.
    left, right = Hitchin.make(1, "1/3"), Hitchin.make(2, "1/10")
    tl, tr = np.linspace(0.0, 0.5, 9)[:, None], np.array([0.5, 0.4, 0.1, 1e-3, 0.0])
    jet = product_jet(left.fiber_jet(tl), right.fiber_jet(tr))
    zl, zr = left.fiber_point(tl / (1.0 - tl)), right.fiber_point(tr / (1.0 - tr))
    want = Product(left, right).metric_jet(np.concatenate(np.broadcast_arrays(zl, zr), axis=-1))
    assert jet.g.shape == (9, 5, 4, 4)
    for got, ref in zip((jet.g, jet.dg, jet.ddg), (want.g, want.dg, want.ddg)):
        assert np.array_equal(got, ref)


def _rel_err(a, b):
    scale = max(np.max(np.abs(a)), 1e-12)
    return np.max(np.abs(a - b)) / scale


def test_fd_oracle_matches_analytic_jets(rng):
    for model in builtin_models():
        for _ in range(6):
            z = random_point(model, rng)
            ja = model.metric_jet(z)
            jf = fd_metric_jet(model, z)
            assert _rel_err(ja.g, jf.g) < 1e-5
            assert _rel_err(ja.dg, jf.dg) < 1e-5
            assert _rel_err(ja.ddg, jf.ddg) < 1e-5


def test_fd_flat_potential():
    class Flat:
        dimension = 1

        def potential(self, z):
            z = np.asarray(z, dtype=complex)
            return float((z[0] * z[0].conjugate()).real)

        def metric_jet(self, z):
            return MetricJet(
                np.eye(1, dtype=complex),
                np.zeros((1, 1, 1), dtype=complex),
                np.zeros((1, 1, 1, 1), dtype=complex),
            )

    jet = fd_metric_jet(Flat(), [0.3 + 0.2j])
    assert abs(jet.g[0, 0] - 1.0) < 1e-7
    assert np.max(np.abs(jet.dg)) < 1e-7
    assert np.max(np.abs(jet.ddg)) < 1e-7


def test_fd_step_underflow_rejected():
    with pytest.raises(ValueError):
        fd_metric_jet(FubiniStudy(1), [0.1], h=1e-13)


def test_kahler_residual_analytic_and_corrupted(rng):
    for model in builtin_models():
        jet = model.metric_jet(random_point(model, rng))
        assert check_symmetries(curvature_tensor(jet), jet).kahler < 1e-10
    jet = Hitchin.make(2, "1/10").metric_jet([0.2, 0.4])
    dg = jet.dg.copy()
    dg[0, 1, 1] += 1e-3
    corrupted = MetricJet(jet.g, dg, jet.ddg)
    assert abs(check_symmetries(curvature_tensor(jet), corrupted).kahler - 1e-3) < 1e-12


def test_nan_metric_is_degenerate():
    with np.errstate(all="ignore"), pytest.raises(DegenerateMetricError):
        FubiniStudy(1).metric_jet([1e160])


def test_positive_definite_on_samples(rng):
    for model in builtin_models():
        for _ in range(8):
            g = model.metric_jet(random_point(model, rng, radius=1.8)).g
            assert metric_eigenvalues(g)[0] > 0.0


def test_json_round_trip():
    for model in builtin_models():
        assert model_from_json(model_to_json(model)) == model
    hodge = Hitchin.make(2, Fraction(1, 10))
    obj = model_to_json(hodge)
    assert obj == {"kind": "hitchin", "n": 2, "s": "1/10"}
    back = model_from_json(obj)
    assert back == hodge and back.is_hodge
    plain = model_from_json({"kind": "hitchin", "n": 2, "s": 0.1})
    assert plain.s == 0.1 and not plain.is_hodge


def test_hitchin_fraction_parameter_is_exact():
    model = Hitchin(2, Fraction(1, 10))
    assert model.is_hodge and model == Hitchin.make(2, "1/10")
    assert json.loads(json.dumps(model_to_json(model))) == {"kind": "hitchin", "n": 2, "s": "1/10"}
    exact, z, t = Hitchin.make(2, "1/10"), [[0.3 - 0.4j, 0.5 + 0.2j], [0.0, 0.9j]], [0.2, 0.9]
    for got, want in ((model.metric_jet(z), exact.metric_jet(z)), (model.fiber_jet(t), exact.fiber_jet(t))):
        for name in ("g", "dg", "ddg"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(TypeError):  # one parameter field: no second, overriding s
        Hitchin(2, 0.3, Fraction(1, 10))


def test_model_validation():
    with pytest.raises(ValueError):
        Hitchin(0, 0.1)
    with pytest.raises(ValueError):
        Hitchin(1, -0.5)
    with pytest.raises(ValueError):
        FubiniStudy(0)
    for bad in (
        {"kind": "nope"},
        [1],
        "fs1",
        {"kind": "fubini_study", "m": None},
        {"kind": "fubini_study", "m": "2"},
        {"kind": "hitchin", "n": True, "s": "1/3"},
        {"kind": "hitchin", "n": 2, "s": [1]},
        {"kind": "hitchin", "n": 2},
        {"kind": "hitchin", "n": 1, "s": "1/0"},
        {"kind": "product", "left": "fs1", "right": {"kind": "fubini_study", "m": 1}},
    ):
        with pytest.raises(ValueError):
            model_from_json(bad)


def test_chart_point_validation():
    model = FubiniStudy(2)
    # a point is an array of m coordinates: a scalar is refused alike, also for m = 1
    for m, z in ((2, [0.1]), (2, 0.1), (1, 0.1), (1, [[0.1, 0.2]])):
        with pytest.raises(ValueError, match=f"expected a point with {m} coordinates"):
            FubiniStudy(m).metric_jet(z)
    with pytest.raises(ValueError):
        model.metric_jet([np.inf, 0.0])
    with pytest.raises(ValueError):
        Hitchin.make(1, "1/3").fiber_point(-1.0)
