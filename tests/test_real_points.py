"""Points typed float64 take the jet layer's real path, to the bits of the same points typed complex.

The central fiber's samples are real, so ``Hitchin.fiber_jet`` builds their
jets, factors and curvature in float64.  A float64 array of points of any
model does the same up to the metric's factors: a 2 x 2 metric is factored in
real arithmetic, any other size as a complex stack, through LAPACK.
Arrays are compared by their bytes, which ``np.array_equal`` would not do for
the sign of a zero.
"""
from fractions import Fraction

import numpy as np
import pytest

from kahlerpinch.geometry import MetricJet, _Factors, curvature_tensor
from kahlerpinch.models import FubiniStudy, Hitchin, Product, _jet_on_rows
from kahlerpinch.optimize import _extremize_directions, _extremize_surfaces

from conftest import MASTER_SEED

# Both charts, with t = 1/2 and t = 1 (the point w = 0 of the far chart).
T = np.linspace(0.0, 1.0, 33)


def _same_bits(real, reference):
    """Whether ``real`` has the bytes of ``reference``, or of its real parts when only it is complex.

    The imaginary parts of a complex reference must then be zero.
    """
    real, reference = np.asarray(real), np.asarray(reference)
    if np.iscomplexobj(reference) and not np.iscomplexobj(real):
        assert not reference.imag.any()
        reference = reference.real
    return real.shape == reference.shape and (
        np.ascontiguousarray(real).tobytes() == np.ascontiguousarray(reference).tobytes()
    )


def _complex_fiber_jet(model: Hitchin, t: np.ndarray) -> MetricJet:
    """The jet of ``model.fiber_jet(t)`` at the same points typed complex.

    Each chart's rows are taken through that chart's kernel.
    """
    far = t > 0.5
    z = model.fiber_point(np.where(far, 1.0 - t, t) / np.where(far, t, 1.0 - t))
    assert z.dtype == complex
    near_jet = model.metric_jet(z[~far])
    far_jet = _jet_on_rows(lambda rows: model._rows(rows, model.far_kernel), z[far], 2)
    parts = [np.concatenate([getattr(near_jet, a), getattr(far_jet, a)]) for a in ("g", "dg", "ddg")]
    pairs = zip(near_jet._factors, far_jet._factors)
    factors = _Factors(*(np.concatenate(pair, axis=-1) for pair in pairs))
    return MetricJet(*parts, factors)


def _extrema_fields(ex):
    return (ex.min_K, ex.max_K, ex.argmin, ex.argmax, ex.min_residual, ex.max_residual, ex.converged)


@pytest.mark.parametrize(
    "n, s",
    [(n, s) for n in range(1, 7) for s in (Fraction(1, 2 * n * n + n), Fraction(3, 10 * n * n))],
    ids=[f"n{n}-{s}" for n in range(1, 7) for s in ("star", "3/10n2")],
)
def test_fiber_jet_is_real_and_keeps_the_complex_bits(n, s):
    model = Hitchin(n, s)
    jet, ref = model.fiber_jet(T), _complex_fiber_jet(model, T)
    for part in (jet.g, jet.dg, jet.ddg, *jet._factors):
        assert part.dtype == np.float64
    for part, part_ref in zip((jet.g, jet.dg, jet.ddg), (ref.g, ref.dg, ref.ddg)):
        assert _same_bits(part, part_ref)
    # Equal by value: a zero entry of the complex factors may carry the other sign.
    for factor, factor_ref in zip(jet._factors, ref._factors):
        assert np.array_equal(factor, factor_ref)
    R, R_ref = curvature_tensor(jet), curvature_tensor(ref)
    assert _same_bits(R, R_ref)
    ex = _extremize_directions(R, jet.g, jet._factors.frame, 0)
    ex_ref = _extremize_directions(R_ref, ref.g, ref._factors.frame, 0)
    values = _extrema_fields(ex) + _extremize_surfaces(R, jet._factors.frame)
    for value, value_ref in zip(values, _extrema_fields(ex_ref) + _extremize_surfaces(R_ref, ref._factors.frame)):
        assert _same_bits(value, value_ref)


def _real_point_models():
    h1, h2 = Hitchin.make(1, "1/3"), Hitchin.make(2, "1/10")
    cases = [pytest.param(FubiniStudy(m), id=f"fs{m}") for m in (1, 2, 3, 4)]
    hitchin = [(h1, "hitchin-1"), (h2, "hitchin-2"), (Hitchin(5, 0.37), "hitchin-5")]
    cases += [pytest.param(model, id=name) for model, name in hitchin]
    pairs = [
        (h1, FubiniStudy(1), "hitchin-1xfs1"),
        (h1, h2, "hitchin-1xhitchin-2"),
        (FubiniStudy(2), h2, "fs2xhitchin-2"),
    ]
    return cases + [pytest.param(Product(left, right), id=name) for left, right, name in pairs]


@pytest.mark.parametrize("model", _real_point_models())
def test_real_points_keep_the_bits_of_complex_points(model):
    """Off the fiber too: R and the direction extrema of real points are those of complex points."""
    m = model.dimension
    z = np.random.default_rng(MASTER_SEED).uniform(-1.5, 1.5, (7, m))
    jet, ref = model.metric_jet(z), model.metric_jet(z.astype(complex))
    assert jet.g.dtype == (np.float64 if m == 2 else complex)
    for part, part_ref in zip((jet.g, jet.dg, jet.ddg), (ref.g, ref.dg, ref.ddg)):
        assert _same_bits(part, part_ref)
    for factor, factor_ref in zip(jet._factors, ref._factors):
        assert factor.dtype == jet.g.dtype
        assert np.array_equal(factor, factor_ref)
    R, R_ref = curvature_tensor(jet), curvature_tensor(ref)
    assert _same_bits(R, R_ref)
    ex = _extremize_directions(R, jet.g, jet._factors.frame, 0)
    ex_ref = _extremize_directions(R_ref, ref.g, ref._factors.frame, 0)
    for value, value_ref in zip(_extrema_fields(ex), _extrema_fields(ex_ref)):
        assert _same_bits(value, value_ref)
