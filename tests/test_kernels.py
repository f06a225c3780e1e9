"""Stacked kernels: stack invariance to the bit, and the candidates and pick of the S^2 solve."""
from dataclasses import fields

import numpy as np
import pytest

from kahlerpinch import optimize
from kahlerpinch.geometry import MetricJet, curvature_tensor, orthonormal_frame
from kahlerpinch.models import FubiniStudy, Hitchin, KernelJet, Product, log_jet
from kahlerpinch.optimize import (
    _bloch_quadratic,
    _frame_tensor,
    _sphere_kkt_points,
    extremize_directions,
)

from conftest import MASTER_SEED, random_point

ROWS = 128
# Rows checked alone; each is also checked inside a stack of 3 with two others.
CHECKED = (0, 37, 64, 127)


def _stack_cases():
    hitchin = Hitchin.make(3, "1/21")
    return [
        pytest.param(FubiniStudy(1), None, id="fs1"),
        pytest.param(hitchin, "fiber", id="hitchin-fiber"),
        pytest.param(FubiniStudy(2), None, id="fs2"),
        pytest.param(Product(Hitchin.make(1, "1/3"), FubiniStudy(1)), None, id="hitchin-1xfs1"),
        pytest.param(Product(FubiniStudy(2), Hitchin.make(2, "1/10")), None, id="fs2xhitchin-2"),
    ]


def _points(model):
    rng = np.random.default_rng(MASTER_SEED)
    return np.array([random_point(model, rng, radius=1.5) for _ in range(ROWS)])


def _assert_stack_invariant(kernel, arrays):
    """``kernel`` of one row gives the bits of that row in stacks of 3, of ROWS and of (16, 8).

    ``arrays`` are the kernel's inputs, each with the leading stack axis of
    length ROWS; ``kernel`` returns a tuple of arrays with the inputs' stack axes.
    """
    full = kernel(*arrays)
    grid = kernel(*(a.reshape((16, ROWS // 16) + a.shape[1:]) for a in arrays))
    for i in CHECKED:
        three = [i, (i + 1) % ROWS, (i + 77) % ROWS]
        alone = kernel(*(a[i] for a in arrays))
        stacked = kernel(*(a[three] for a in arrays))
        for k, one in enumerate(alone):
            for other in (stacked[k][0], full[k][i], grid[k][divmod(i, ROWS // 16)]):
                assert np.array_equal(one, other), (k, i)


def _jet_arrays(model, kind):
    if kind == "fiber":
        jet = model.fiber_jet(np.linspace(0.0, 1.0, ROWS))
    else:
        jet = model.metric_jet(_points(model))
    return jet.g, jet.dg, jet.ddg


@pytest.mark.parametrize("model, kind", _stack_cases())
def test_curvature_and_frame_tensor_are_stack_invariant(model, kind):
    g, dg, ddg = _jet_arrays(model, kind)
    _assert_stack_invariant(lambda *a: (curvature_tensor(MetricJet(*a)),), (g, dg, ddg))
    R, F = curvature_tensor(MetricJet(g, dg, ddg)), orthonormal_frame(g)
    _assert_stack_invariant(lambda R, F: (_frame_tensor(R, F),), (R, F))
    if model.dimension == 2:
        _assert_stack_invariant(_bloch_quadratic, (R, F))


def _log_jet_cases():
    fs = [pytest.param(FubiniStudy(m), "kernel", "off", id=str(m)) for m in (1, 2, 3, 4)]
    hitchin = Hitchin.make(3, "1/21")
    return fs + [
        pytest.param(hitchin, kernel, where, id=f"hitchin-{kernel.split('_')[0]}-{where}")
        for kernel in ("base_kernel", "fiber_kernel", "far_kernel")
        for where in ("fiber", "off")
    ]


@pytest.mark.parametrize("model, kernel, where", _log_jet_cases())
def test_log_jet_is_stack_invariant(model, kernel, where):
    """Rows of z1 = 0 ("fiber", the points of both charts of fiber_jet) or random points."""
    points = model.fiber_point(np.linspace(0.0, 3.0, ROWS)) if where == "fiber" else _points(model)
    kernel = getattr(model, kernel)(points)
    names = [f.name for f in fields(KernelJet)]

    def jet(*parts):
        out = log_jet(KernelJet(**dict(zip(names, parts))))
        arrays = out.g, out.dg, out.ddg
        # The layout the downstream kernels are pinned on.
        assert all(a.flags.c_contiguous for a in arrays)
        return arrays

    _assert_stack_invariant(jet, tuple(np.asarray(getattr(kernel, name)) for name in names))


def _kkt_points_54(A, b):
    """The earlier candidate set: all six completions for each of the 9 multipliers."""
    lam, Q = np.linalg.eigh(A)
    beta = np.einsum("...ji,...j->...i", Q, b) / 2.0
    H = np.zeros(A.shape[:-2] + (6, 6))
    H[..., :3, :3] = H[..., 3:, 3:] = A
    H[..., :3, 3:] = -np.eye(3)
    H[..., 3:, :3] = -(b[..., :, None] * b[..., None, :]) / 4.0
    mu = np.concatenate([np.linalg.eigvals(H).real, lam], axis=-1)
    gap = lam[..., None, :] - mu[..., :, None]
    scale = np.maximum(1.0, np.maximum(np.abs(lam).max(axis=-1), np.abs(beta).max(axis=-1)))
    singular = np.abs(gap) <= 1e-12 * scale[..., None, None]
    w = -beta[..., None, :] / np.where(singular, np.inf, gap)
    fill = np.sqrt(np.maximum(0.0, 1.0 - np.sum(w * w, axis=-1)))
    W = np.concatenate(
        [
            w + sign * np.where(singular[..., j], fill, 0.0)[..., None] * np.eye(3)[j]
            for j in range(3)
            for sign in (1.0, -1.0)
        ],
        axis=-2,
    )
    norm = np.linalg.norm(W, axis=-1)
    valid = norm > 0.0
    W /= np.where(valid, norm, 1.0)[..., None]
    return W @ Q.swapaxes(-1, -2), valid


def _sphere_problem(kind, seed):
    """(A, b, c0) of K = v.A v + b.v + c0 on S^2, from a random eigenbasis Q."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    coords = np.zeros(3)  # b in the eigenbasis
    if kind == "double":
        # A double eigenvalue with b orthogonal to its eigenspace, small enough
        # for the hard case: |w_3| = |b_3|/(2 |lam - mu|) < 0.9.
        lam = rng.uniform(-5.0, 5.0)
        mu = lam + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)
        eig = np.array([lam, lam, mu])
        coords[2] = rng.uniform(-1.8, 1.8) * abs(mu - lam)
    elif kind == "constant":
        eig = np.full(3, rng.uniform(-5.0, 5.0))
    elif kind == "near-hard":
        # Distinct eigenvalues; b is about 1e-13 along the lowest or the highest.
        eig = np.sort(rng.uniform(-5.0, 5.0, 3)) + np.array([-1.0, 0.0, 1.0])
        j = rng.choice([0, 2])
        coords = rng.uniform(-0.5, 0.5, 3) * np.abs(eig - eig[j])
        coords[j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-13
    else:
        eig = rng.uniform(-5.0, 5.0, 3)
        coords = rng.uniform(-5.0, 5.0, 3)
    A = Q @ np.diag(eig) @ Q.T
    return 0.5 * (A + A.T), Q @ coords, rng.uniform(-5.0, 5.0)


def _extrema(A, b, c0, V, valid):
    K = np.einsum("...ki,...ij,...kj->...k", V, A, V) + np.einsum("...ki,...i->...k", V, b) + c0[:, None]
    return np.where(valid, K, np.inf).min(axis=-1), np.where(valid, K, -np.inf).max(axis=-1)


@pytest.mark.parametrize("kind", ["double", "constant", "near-hard", "generic"])
def test_sphere_candidates_hold_the_extrema(kind):
    A, b, c0 = (np.array(x) for x in zip(*(_sphere_problem(kind, seed) for seed in range(200))))
    V, valid = _sphere_kkt_points(A, b)
    assert V.shape == (200, 15, 3)
    assert np.allclose(np.linalg.norm(V[valid], axis=-1), 1.0, rtol=0.0, atol=1e-15)
    lo, hi = _extrema(A, b, c0, V, valid)
    lo_54, hi_54 = _extrema(A, b, c0, *_kkt_points_54(A, b))
    assert np.all(np.abs(lo - lo_54) <= 1e-13 * np.maximum(1.0, np.abs(lo_54)))
    assert np.all(np.abs(hi - hi_54) <= 1e-13 * np.maximum(1.0, np.abs(hi_54)))

    sample = np.random.default_rng(MASTER_SEED).standard_normal((10_000, 3))
    sample /= np.linalg.norm(sample, axis=-1, keepdims=True)
    for p in range(200):
        K = np.einsum("si,ij,sj->s", sample, A[p], sample) + sample @ b[p] + c0[p]
        scale = max(1.0, float(np.abs(K).max()))
        assert K.min() >= lo[p] - 1e-12 * scale
        assert K.max() <= hi[p] + 1e-12 * scale


@pytest.mark.parametrize(
    "model",
    [Product(FubiniStudy(1), FubiniStudy(1)), Hitchin.make(1, "1/3")],
    ids=["fs1xfs1", "hitchin-1"],
)
def test_sphere_extrema_do_not_depend_on_candidate_order(model, monkeypatch):
    # Both poles of a rounding-sized b are exact KKT points with K a few ulps
    # apart; the pick must not leave the choice to the candidates' order.
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(4000)]))
    R = curvature_tensor(jet)
    want = extremize_directions(R, jet.g)

    def reversed_candidates(A, b):
        V, valid = _sphere_kkt_points(A, b)
        return V[..., ::-1, :], valid[..., ::-1]

    monkeypatch.setattr(optimize, "_sphere_kkt_points", reversed_candidates)
    got = extremize_directions(R, jet.g)
    assert np.array_equal(got.min_K, want.min_K)
    assert np.array_equal(got.max_K, want.max_K)
