"""The leading batch axis: a stack of points gives its rows' results."""
import numpy as np
import pytest

from kahlerpinch.geometry import (
    DegenerateMetricError,
    MetricJet,
    curvature_tensor,
    orthonormal_frame,
    scalar_curvature,
)
from kahlerpinch.models import FubiniStudy, Hitchin, Product
from kahlerpinch.optimize import _extremize_surfaces, direction_weights, extremize_directions

from conftest import MASTER_SEED, random_point

REL = 1e-14


def _stack_models():
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for n in range(1, 7):
        s = float(rng.uniform(0.05, 0.95)) / (n * n)
        cases.append(pytest.param(Hitchin.make(n, s), id=f"hitchin-{n}"))
    cases.append(pytest.param(FubiniStudy(1), id="fs1"))
    cases.append(pytest.param(FubiniStudy(2), id="fs2"))
    cases.append(pytest.param(Product(FubiniStudy(1), FubiniStudy(1)), id="fs1xfs1"))
    return cases


def _stack(model, rng, rows=7):
    points = [random_point(model, rng, radius=1.5) for _ in range(rows)]
    if isinstance(model, Hitchin):
        points += [model.fiber_point(r) for r in (0.0, 2.5)]
    return np.array(points)


def _assert_close(stacked, rows, scale=1.0):
    """Equal to REL relative to the larger of ``scale`` and the rows' magnitude."""
    stacked, rows = np.asarray(stacked), np.asarray(rows)
    assert stacked.shape == rows.shape
    scale = max(scale, float(np.max(np.abs(rows))))
    assert np.max(np.abs(stacked - rows)) <= REL * scale


@pytest.mark.parametrize("model", _stack_models())
def test_stacked_jet_curvature_and_frame_match_rows(model, rng):
    z = _stack(model, rng)
    jet = model.metric_jet(z)
    R = curvature_tensor(jet)
    F = orthonormal_frame(jet.g)
    tau = scalar_curvature(R, jet.g)
    assert jet.g.shape == z.shape[:1] + (model.dimension,) * 2
    for i, zi in enumerate(z):
        row = model.metric_jet(zi)
        for stacked, single in ((jet.g, row.g), (jet.dg, row.dg), (jet.ddg, row.ddg)):
            _assert_close(stacked[i], single)
        _assert_close(R[i], curvature_tensor(row))
        _assert_close(F[i], orthonormal_frame(row.g))
        _assert_close(tau[i], scalar_curvature(curvature_tensor(row), row.g))
        # the stacked trace is the per-point trace of the same tensor, to the bit
        assert tau[i] == scalar_curvature(R[i], jet.g[i])


@pytest.mark.parametrize("model", [m for m in _stack_models() if m.values[0].dimension == 2])
def test_stacked_surface_extrema_match_rows(model, rng):
    z = _stack(model, rng)
    jet = model.metric_jet(z)
    ex, _, _ = _extremize_surfaces(curvature_tensor(jet), jet.g)
    for i, zi in enumerate(z):
        row = model.metric_jet(zi)
        one = extremize_directions(curvature_tensor(row)[None], row.g[None])
        _assert_close(ex.min_K[i], one.min_K[0])
        _assert_close(ex.max_K[i], one.max_K[0])
        _assert_close(ex.argmin[i], one.argmin[0])
        _assert_close(ex.argmax[i], one.argmax[0])
        # residuals are gradient norms of K: round-off relative to |K|
        _assert_close(ex.min_residual[i], one.min_residual[0], abs(one.min_K[0]))
        _assert_close(ex.max_residual[i], one.max_residual[0], abs(one.max_K[0]))
        assert ex.converged[i] == one.converged


@pytest.mark.parametrize(
    "model",
    [Hitchin.make(1, "1/3"), Hitchin.make(4, "1/20"), FubiniStudy(2)],
    ids=["hitchin-1", "hitchin-4", "fs2"],
)
def test_bloch_weights_match_direction_weights(model, rng):
    z = _stack(model, rng, rows=12)
    jet = model.metric_jet(z)
    ex, v_min, v_max = _extremize_surfaces(curvature_tensor(jet), jet.g)
    for i in range(len(z)):
        for v, xi in ((v_min[i], ex.argmin[i]), (v_max[i], ex.argmax[i])):
            bloch = np.array([(1.0 + v[2]) / 2.0, (1.0 - v[2]) / 2.0])
            assert np.max(np.abs(bloch - direction_weights(jet.g[i], xi))) <= 1e-14


def test_stack_with_one_degenerate_point_raises():
    model = Hitchin.make(1, "1/3")
    z = np.array([[0.1, 0.2], [0.0, 1e200], [0.3j, 0.5]])
    with pytest.raises(DegenerateMetricError), np.errstate(all="ignore"):
        model.metric_jet(z)
    g = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)]).astype(complex)
    with pytest.raises(DegenerateMetricError):
        orthonormal_frame(g)


@pytest.mark.parametrize(
    "shapes",
    [
        ((3, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2)),  # dg lacks the batch axis
        ((3, 2, 2), (3, 2, 2, 2), (4, 2, 2, 2, 2)),  # batch sizes disagree
        ((3, 2, 2), (3, 2, 2, 2), (3, 2, 2, 2)),  # ddg has too few index axes
        ((3, 2, 3), (3, 2, 2, 2), (3, 2, 2, 2, 2)),  # g is not square
    ],
)
def test_metric_jet_rejects_inconsistent_batched_shapes(shapes):
    with pytest.raises(ValueError, match="inconsistent"):
        MetricJet(*(np.zeros(shape) for shape in shapes))
