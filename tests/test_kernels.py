"""Stacked kernels: stack invariance to the bit, and the candidates and pick of the S^2 solve."""
from dataclasses import fields

import numpy as np
import pytest

from kahlerpinch import optimize, sphere
from kahlerpinch.geometry import (
    MetricJet,
    _Factors,
    _stack_first,
    _stack_last,
    curvature_tensor,
    hsc_gradient,
    norm_squared,
    orthonormal_frame,
)
from kahlerpinch.models import FubiniStudy, Hitchin, KernelJet, Product, log_jet
from kahlerpinch.optimize import (
    DirectionExtrema,
    _bloch_quadratic,
    _extremize_surfaces,
    _frame_tensor,
    extremize_directions,
)
from kahlerpinch.sphere import _sphere_kkt_points

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
    # the kernels take the frame as it is carried, stack last
    _assert_stack_invariant(lambda R, F: (_frame_tensor(R, _stack_last(F, 2)),), (R, F))
    if model.dimension == 2:
        _assert_stack_invariant(lambda R, F: _bloch_quadratic(R, _stack_last(F, 2)), (R, F))


# Pauli basis with sigma_0 = I: a unit c in C^2 has c c* = (I + v.sigma)/2, |v| = 1.
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# 1/2 sigma_m (x) sigma_n as a (16, 16) matrix, rows ab cd, columns mn: the
# reference that optimize's Bloch tables and _bloch_quadratic are checked against.
_BLOCH = 0.5 * np.einsum("mab,ncd->abcdmn", _PAULI, _PAULI).reshape(16, 16)


def test_bloch_tables_hold_the_nonzero_entries_of_bloch():
    for q, column in enumerate(_BLOCH.T):
        rows = np.flatnonzero(column)
        c = column[rows]
        assert list(optimize._BLOCH_ROWS[:, q]) == list(rows)
        assert list(optimize._BLOCH_PART[:, q]) == list((c.real == 0.0).astype(int))
        # Re(x c) is c x.re for a real c and -c.imag x.im for an imaginary one
        assert np.array_equal(optimize._BLOCH_SIGN[:, q] / 2.0, np.where(c.real == 0.0, -c.imag, c.real))


@pytest.mark.parametrize("model, kind", [case for case in _stack_cases() if case.values[0].dimension == 2])
def test_bloch_quadratic_has_the_bits_of_the_contraction_with_bloch(model, kind):
    g, dg, ddg = _jet_arrays(model, kind)
    R, F = curvature_tensor(MetricJet(g, dg, ddg)), _stack_last(orthonormal_frame(g), 2)
    M = np.einsum("...p,pq->...q", _frame_tensor(R, F).reshape(-1, 16), _BLOCH).real
    M = M.reshape(-1, 4, 4)
    M = 0.5 * (M + M.swapaxes(-1, -2))
    for got, want in zip(_bloch_quadratic(R, F), (M[:, 1:, 1:], 2.0 * M[:, 0, 1:], M[:, 0, 0])):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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
    assert V.shape == (3, 15, 200) and valid.shape == (15, 200)
    V, valid = V.transpose(2, 1, 0), valid.T  # stack first, like the 54-candidate reference
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
        return V[:, ::-1], valid[::-1]

    monkeypatch.setattr(sphere, "_sphere_kkt_points", reversed_candidates)
    got = extremize_directions(R, jet.g)
    assert np.array_equal(got.min_K, want.min_K)
    assert np.array_equal(got.max_K, want.max_K)


def _surface_stacks():
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for n in range(1, 7):
        model = Hitchin.make(n, float(rng.uniform(0.05, 0.95)) / (n * n))
        cases.append(pytest.param(model, "fiber", id=f"hitchin-{n}-fiber"))
        cases.append(pytest.param(model, "off", id=f"hitchin-{n}-off"))
    cases.append(pytest.param(FubiniStudy(2), "off", id="fs2"))
    cases.append(pytest.param(Product(FubiniStudy(1), FubiniStudy(1)), "off", id="fs1xfs1"))
    return cases


@pytest.mark.parametrize("model, kind", _surface_stacks())
def test_surface_solve_rows_do_not_depend_on_the_stack(model, kind):
    """Every row of a 256-row S^2 solve has the bits it gets in stacks of 1, 2 and 16.

    16 is the stack of one zoom round, 256 that of a sweep block.  The fiber
    rows hold t = 0, 1/2 and 1.
    """
    if kind == "fiber":
        jet = model.fiber_jet(np.append(np.linspace(0.0, 1.0, 255), 0.5))
    else:
        rng = np.random.default_rng(MASTER_SEED)
        jet = model.metric_jet(np.array([random_point(model, rng, radius=1.5) for _ in range(256)]))
    R, g, F = curvature_tensor(jet), jet.g, jet._factors.frame

    names = [f.name for f in fields(DirectionExtrema)] + ["v_min", "v_max"]

    def solve(rows):
        ex, v_min, v_max = _extremize_surfaces(R[rows], g[rows], F[..., rows])
        return [getattr(ex, name) for name in names[:-2]] + [v_min, v_max]

    full = solve(slice(None))
    for size in (1, 2, 16):
        for start in range(0, 256, size):
            part = solve(slice(start, start + size))
            for name, whole, got in zip(names, full, part):
                assert np.array_equal(whole[start : start + size], got), (size, start, name)


def _curvature_einsum(jet):
    """R with its quadratic term D g^-1 D^H as one einsum over the leading axes: the reference.

    It takes the inverse that the jet carries, stack first.
    """
    ginv = _stack_first(jet._factors.inverse, jet.g.shape[:-2])
    D = jet.dg.swapaxes(-1, -2).reshape(jet.ddg.shape[:-4] + (-1, jet.dimension))
    quad = np.einsum("...pq,...ap,...bq->...ab", ginv, D, D.conj()).reshape(jet.ddg.shape)
    return -jet.ddg + quad.swapaxes(-3, -2)


def _curvature_models():
    fs = [pytest.param(FubiniStudy(m), id=f"fs{m}") for m in (1, 2, 3, 4)]
    h1, h2, h3 = Hitchin.make(1, "1/3"), Hitchin.make(2, "1/10"), Hitchin.make(3, "1/21")
    pairs = [
        (FubiniStudy(1), FubiniStudy(1), "fs1xfs1"),
        (FubiniStudy(2), h2, "fs2xhitchin-2"),
        (h1, FubiniStudy(1), "hitchin-1xfs1"),
        (h1, h1, "hitchin-1xhitchin-1"),
    ]
    return (
        fs
        + [pytest.param(h1, id="hitchin-1"), pytest.param(h3, id="hitchin-3")]
        + [pytest.param(Product(left, right), id=name) for left, right, name in pairs]
    )


def _same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("model", _curvature_models())
def test_curvature_keeps_the_bits_of_the_einsum_over_leading_axes(model):
    """A 300-point stack, each of its rows as a one-row stack and as a point, and a fiber stack."""
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng, radius=1.5) for _ in range(300)]))
    assert _same_bytes(curvature_tensor(jet), _curvature_einsum(jet))
    for i in range(300):
        for row, rows in ((slice(i, i + 1), slice(i, i + 1)), (i, [i])):
            factors = _Factors(*(a[..., rows] for a in jet._factors))
            one = MetricJet(jet.g[row], jet.dg[row], jet.ddg[row], factors)
            assert _same_bytes(curvature_tensor(one), _curvature_einsum(one)), (i, row)
    if isinstance(model, Hitchin):
        fiber = model.fiber_jet(np.linspace(0.0, 1.0, 256))
        assert _same_bytes(curvature_tensor(fiber), _curvature_einsum(fiber))


def _gradient_einsum(R, g, xi):
    """dK/dconj(xi) with N and dN as einsums over the leading axes: the reference."""
    S = norm_squared(g, xi)[..., None]
    N = np.einsum("...ijkl,...i,...j,...k,...l->...", R, xi, xi.conj(), xi, xi.conj())
    dN = 2.0 * np.einsum("...ijkl,...i,...k,...l->...j", R, xi, xi, xi.conj())
    dS = np.einsum("...ij,...i->...j", g, xi)
    return 2.0 * dN / S**2 - 4.0 * N.real[..., None] * dS / S**3


def _gradient_scale(R, g, xi):
    """The reference's two terms summed over absolute values, the largest per row: its rounding scale."""
    S = norm_squared(g, xi)[..., None]
    a = np.abs(xi)
    N = np.einsum("...ijkl,...i,...j,...k,...l->...", np.abs(R), a, a, a, a)
    dN = np.einsum("...ijkl,...i,...k,...l->...j", np.abs(R), a, a, a)
    dS = np.einsum("...ij,...i->...j", np.abs(g), a)
    return np.max(4.0 * dN / S**2 + 4.0 * N[..., None] * dS / S**3, axis=-1)


def _random_gradient_stack(m, rows, rng):
    """Definite metrics, Hermitian curvature forms R_{i jbar k lbar} and directions."""
    A = rng.standard_normal((rows, m, m)) + 1j * rng.standard_normal((rows, m, m))
    g = A @ A.conj().swapaxes(-1, -2) + 0.1 * m * np.eye(m)
    B = rng.standard_normal((rows, m * m, m * m)) + 1j * rng.standard_normal((rows, m * m, m * m))
    R = (B @ B.conj().swapaxes(-1, -2)).reshape((rows,) + (m,) * 4).transpose(0, 1, 3, 2, 4)
    R = 0.5 * (R + R.transpose(0, 3, 2, 1, 4))
    xi = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    return R, g, xi


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hsc_gradient_rows_do_not_depend_on_the_stack(m):
    """Each row of a 256-row stack has the bits it gets alone, as a one-row stack and in stacks of 2 and 16."""
    R, g, xi = _random_gradient_stack(m, 256, np.random.default_rng(MASTER_SEED + m))
    full = hsc_gradient(R, g, xi)
    for size in (1, 2, 16):
        for start in range(0, 256, size):
            rows = slice(start, start + size)
            assert np.array_equal(hsc_gradient(R[rows], g[rows], xi[rows]), full[rows]), (size, start)
    for i in range(256):
        assert np.array_equal(hsc_gradient(R[i], g[i], xi[i]), full[i]), i
    # R and g broadcast over a leading axis of xi, as over the minima and maxima of a search.
    both = hsc_gradient(R, g, np.stack([xi, xi[::-1]]))
    assert np.array_equal(both[0], full)
    assert np.array_equal(both[1], hsc_gradient(R, g, xi[::-1]))

    eps = np.finfo(float).eps
    err = np.max(np.abs(full - _gradient_einsum(R, g, xi)), axis=-1)
    assert np.all(err <= 8.0 * eps * _gradient_scale(R, g, xi))
