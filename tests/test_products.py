import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kahlerpinch import products
from kahlerpinch.cli import main
from kahlerpinch.geometry import curvature_tensor, holomorphic_sectional_curvature, norm_squared
from kahlerpinch.models import FubiniStudy, Hitchin, Product
from kahlerpinch.optimize import _extremize_directions, extremize_directions
from kahlerpinch.products import (
    CommonBoundError,
    product_bounds,
    product_hsc,
    verify_product_numeric,
)

from conftest import random_direction, random_point


def test_product_hsc_values():
    assert product_hsc(4.0, 4.0, 0.5) == 2.0
    assert product_hsc(7.0, 3.0, 1.0) == 7.0
    assert product_hsc(7.0, 3.0, 0.0) == 3.0
    with pytest.raises(ValueError):
        product_hsc(4.0, 4.0, 1.5)


def test_product_bounds_values():
    b = product_bounds(1.0, 1.0, 4.0)
    assert (b.lower, b.upper, b.y_star, b.pinching) == (2.0, 4.0, 0.5, 0.5)
    tiny = product_bounds(1.0, 1e-9, 4.0)
    assert tiny.pinching < 2e-9
    b = product_bounds(1.0 / 9.0, 1.0 / 9.0, 12.0)
    assert abs(b.pinching - 1.0 / 18.0) < 1e-15
    assert abs(b.lower - 2.0 / 3.0) < 1e-15
    with pytest.raises(ValueError):
        product_bounds(0.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        product_bounds(1.2, 1.0, 4.0)


def test_lower_bound_matches_grid_minimum(rng):
    y = np.linspace(0.0, 1.0, 1_000_001)
    for _ in range(20):
        c_m, c_n = rng.uniform(0.05, 1.0, size=2)
        k = rng.uniform(0.5, 20.0)
        b = product_bounds(c_m, c_n, k)
        vals = k * c_m * y * y + k * c_n * (1.0 - y) ** 2
        envelope = k * y * y + k * (1.0 - y) ** 2
        assert abs(vals.min() - b.lower) < 1e-9
        assert abs(envelope.max() - b.upper) < 1e-9 * max(1.0, k)


def test_y_star_interior_optimality(rng):
    for _ in range(10):
        c_m, c_n = rng.uniform(0.05, 1.0, size=2)
        k = rng.uniform(0.5, 20.0)
        b = product_bounds(c_m, c_n, k)
        deriv = 2 * k * c_m * b.y_star - 2 * k * c_n * (1 - b.y_star)
        assert abs(deriv) < 1e-12
        assert k * c_n >= b.lower and k * c_m >= b.lower


def test_decomposition_exactness(rng):
    left, right = FubiniStudy(1), Hitchin.make(1, "1/3")
    product = Product(left, right)
    for _ in range(10):
        zl = random_point(left, rng)
        zr = random_point(right, rng)
        z = np.concatenate([zl, zr])
        jet = product.metric_jet(z)
        R = curvature_tensor(jet)
        xi = random_direction(3, rng)
        K = holomorphic_sectional_curvature(R, jet.g, xi)

        jl, jr = left.metric_jet(zl), right.metric_jet(zr)
        nl = norm_squared(jl.g, xi[:1])
        nr = norm_squared(jr.g, xi[1:])
        y = nl / (nl + nr)
        K_l = holomorphic_sectional_curvature(curvature_tensor(jl), jl.g, xi[:1])
        K_r = holomorphic_sectional_curvature(curvature_tensor(jr), jr.g, xi[1:])
        want = product_hsc(K_l, K_r, y)
        assert abs(K - want) <= 1e-10 * max(1.0, abs(want))
        assert K > 0.0


def test_verify_product_fs_times_fs():
    report = verify_product_numeric(FubiniStudy(1), FubiniStudy(1))
    assert abs(report.min_K - 2.0) <= 1e-6
    assert abs(report.max_K - 4.0) <= 1e-6
    assert abs(report.pinching - 0.5) <= 1e-6
    assert report.agree
    assert abs(report.y_star - 0.5) < 1e-9


def test_verify_product_mixed_dimensions():
    report = verify_product_numeric(FubiniStudy(1), FubiniStudy(2), samples=2)
    assert abs(report.min_K - 2.0) <= 1e-6
    assert abs(report.max_K - 4.0) <= 1e-6
    assert report.agree


def test_verify_product_rejects_mismatched_bound():
    with pytest.raises(CommonBoundError):
        verify_product_numeric(Hitchin.make(1, "1/3"), FubiniStudy(1))


def _one_unconverged_search(monkeypatch, index):
    """Make the index-th direction search of kahlerpinch.products report unconverged.

    The searches are the rows of the stacked solves, counted across calls.
    """
    calls = []

    def search(*args, **kwargs):
        ex = _extremize_directions(*args, **kwargs)
        first = len(calls)
        calls.extend(range(first, first + len(ex.converged)))
        converged = ex.converged.copy()
        if first <= index < len(calls):
            converged[index - first] = False
        return replace(ex, converged=converged)

    monkeypatch.setattr(products, "_extremize_directions", search)
    return calls


# Search 0 is on the left factor; with fs1 x fs1 and samples=1 the factors take
# searches 0-3 and the product searches 4-7.
@pytest.mark.parametrize("index", [0, 3, 7])
def test_unconverged_search_breaks_agreement(monkeypatch, index):
    calls = _one_unconverged_search(monkeypatch, index)
    report = verify_product_numeric(FubiniStudy(1), FubiniStudy(1), samples=1)
    assert len(calls) == 8
    assert report.rel_min_err <= report.tol and report.rel_max_err <= report.tol
    assert not report.agree


def test_unconverged_search_fails_product_command(monkeypatch, capsys):
    _one_unconverged_search(monkeypatch, 5)
    assert main(["product", "--left", "fs1", "--right", "fs1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["agree"] is False and doc["pass"] is False


def test_stacked_sampling_matches_pointwise():
    model = Product(FubiniStudy(1), Hitchin.make(1, "1/3"))
    points = products._sample_points(model, np.random.default_rng(4), 3)
    stack_lo, stack_hi, converged = products._extrema(model.metric_jet(points), 4)
    lo, hi = math.inf, -math.inf
    for z in points:
        jet = model.metric_jet(z)
        ex = extremize_directions(curvature_tensor(jet)[None], jet.g[None], seed=4)
        lo, hi = min(lo, ex.min_K[0]), max(hi, ex.max_K[0])
    assert converged
    assert stack_lo == pytest.approx(lo, rel=1e-13)
    assert stack_hi == pytest.approx(hi, rel=1e-13)


def test_each_factor_is_sampled_once(monkeypatch):
    # Factor i is drawn from default_rng(seed + i) and searched with seed + i;
    # its constants and the product rows come from that one stack.
    left, right, seed, samples = Hitchin.make(1, "1/5"), Hitchin.make(2, "1/5"), 3, 2
    jets = [
        model.metric_jet(products._sample_points(model, np.random.default_rng(seed + i), samples))
        for i, model in enumerate((left, right))
    ]
    extrema = [products._extrema(jet, seed + i) for i, jet in enumerate(jets)]
    k = max(extrema[0][1], extrema[1][1])
    searches = []

    def search(R, g, F, seed):
        searches.append((g, seed))
        return _extremize_directions(R, g, F, seed)

    monkeypatch.setattr(products, "_extremize_directions", search)
    report = verify_product_numeric(left, right, samples=samples, seed=seed)
    assert (report.c_left, report.c_right, report.k) == (extrema[0][0] / k, extrema[1][0] / k, k)

    assert [s for _, s in searches] == [seed, seed + 1, seed]
    (g_l, _), (g_r, _), (g, _) = searches
    assert np.array_equal(g_l, jets[0].g) and np.array_equal(g_r, jets[1].g)
    ml, rows_r = g_l.shape[-1], len(g_r)
    for i, j in np.ndindex(len(g_l), rows_r):
        assert np.array_equal(g[i * rows_r + j, :ml, :ml], g_l[i])
        assert np.array_equal(g[i * rows_r + j, ml:, ml:], g_r[j])
